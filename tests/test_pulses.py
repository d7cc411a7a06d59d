import math
from pathlib import Path

import numpy as np
import pytest

from pulsegate import (ConfigError, GridPolicy, PulseFileError, PulseShape, PulseSpec,
                       UnsupportedSpanError, default_grid_for, load_pulse_file,
                       make_grid, norm_sq, sample_pulse)
from pulsegate import pulses
from pulsegate.pulses import GEOMETRY, RISING_LEAD_FACTOR, _builtin_values, _piece_values

ALL_BUILTINS = [PulseSpec.rectangular, PulseSpec.rising_exponential,
                PulseSpec.symmetric_exponential, PulseSpec.gaussian]


def sampled(spec, policy=None):
    grid = default_grid_for(spec) if policy is None else default_grid_for(spec, policy)
    return sample_pulse(spec, grid)


class TestFormulas:
    def test_rectangular_interior_value(self):
        b = sampled(PulseSpec.rectangular(1.0))
        t = b.times()
        i = np.argmin(np.abs(t + 0.5))
        assert b.values[i].real == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_center_value(self):
        b = sampled(PulseSpec.gaussian(1.0))
        t = b.times()
        i = np.argmin(np.abs(t))
        assert t[i] == pytest.approx(0.0, abs=1e-12)
        assert b.values[i].real == pytest.approx(math.sqrt(2 / math.sqrt(math.pi)), rel=1e-12)
        assert b.values[i].real == pytest.approx(1.0622519320271967, rel=1e-12)

    def test_rising_amplitude_at_cutoff(self):
        T = 2.0
        b = sampled(PulseSpec.rising_exponential(T))
        t = b.times()
        m = t < -0.1
        np.testing.assert_allclose(b.values[m].real,
                                   math.sqrt(2 / T) * np.exp(t[m] / T), rtol=1e-12)

    def test_symmetric_exponential_values(self):
        T = 0.7
        b = sampled(PulseSpec.symmetric_exponential(T))
        t = b.times()
        np.testing.assert_allclose(b.values.real,
                                   math.sqrt(2 / T) * np.exp(-2 * np.abs(t) / T), rtol=1e-12)

    @pytest.mark.parametrize("make", ALL_BUILTINS)
    @pytest.mark.parametrize("T", [0.03, 1.0, 7.5])
    def test_unit_norm(self, make, T):
        assert norm_sq(sampled(make(T))) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("make", ALL_BUILTINS)
    def test_real_and_nonnegative(self, make):
        b = sampled(make(1.3))
        assert not np.iscomplexobj(b.values) or not b.values.imag.any()
        assert (b.values.real >= 0).all()

    def test_zero_outside_support(self):
        rect = sampled(PulseSpec.rectangular(1.0))
        t = rect.times()
        assert not rect.values[t > 0.01].any()
        assert not rect.values[t < -1.01].any()
        rising = sampled(PulseSpec.rising_exponential(1.0))
        assert not rising.values[rising.times() > 0.01].any()

    @pytest.mark.parametrize("make", [PulseSpec.symmetric_exponential, PulseSpec.gaussian])
    def test_even_about_zero(self, make):
        b = sampled(make(0.9))
        t = b.times()
        # compare each node against the formula at -t (grid itself is not symmetric)
        i = np.argmin(np.abs(t))
        k = min(i, b.grid.n - 1 - i)
        left = b.values[i - k:i][::-1]
        right = b.values[i + 1:i + 1 + k]
        np.testing.assert_allclose(left, right, rtol=1e-12)


class TestGrids:
    def test_rect_span_covers_reference_window(self):
        g = default_grid_for(PulseSpec.rectangular(1.0))
        assert g.t_start <= -1.5 and g.t_end >= 20.0

    def test_gauss_span_covers_reference_window(self):
        g = default_grid_for(PulseSpec.gaussian(1.0))
        assert g.t_start <= -3.0 and g.t_end >= 23.0

    def test_rising_lead_cutoff(self):
        g = default_grid_for(PulseSpec.rising_exponential(1.0))
        assert g.t_start <= -RISING_LEAD_FACTOR - 0.5 + 1e-9
        assert g.t_end >= 20.0
        # truncated intensity weight below the cutoff is 1e-10
        assert math.exp(2 * -RISING_LEAD_FACTOR) == pytest.approx(1e-10, rel=1e-9)

    def test_step_rule(self):
        for T in (0.2, 1.0, 2.9):
            assert default_grid_for(PulseSpec.gaussian(T)).dt <= T / 1000 * (1 + 1e-12)
        assert default_grid_for(PulseSpec.gaussian(500.0)).dt <= 3.0 / 1000 * (1 + 1e-12)
        # the kinked shape samples twice as densely
        assert default_grid_for(PulseSpec.symmetric_exponential(1.0)).dt \
            <= 1.0 / 2000 * (1 + 1e-12)

    @pytest.mark.parametrize("T", [0.37, 1.0, 4.2])
    def test_jumps_fall_mid_segment(self, T):
        g = default_grid_for(PulseSpec.rectangular(T))
        t = g.times()
        for tj in (-T, 0.0):
            off = np.min(np.abs(t - tj)) / g.dt
            assert off == pytest.approx(0.5, abs=1e-6)
        g = default_grid_for(PulseSpec.rising_exponential(T))
        off = np.min(np.abs(g.times())) / g.dt
        assert off == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("offset", [1e7, -1e7, 1e8, -1e8])
    def test_custom_times_whose_rounding_reaches_the_step_are_refused(self, offset):
        # doubles near |t| are ulp apart: 6.2e-7 of the 3e-3 step at 1e7,
        # 5.0e-6 at 1e8, against the limit of 2**-20 = 9.5e-7
        t = np.linspace(-3, 3, 6001)
        spec = PulseSpec.custom(t + offset, np.exp(-2 * t**2))
        if abs(offset) < 1e8:
            g = default_grid_for(spec)
            assert math.ulp(max(abs(g.t_start), abs(g.t_end))) / g.dt < 2.0**-20
        else:
            with pytest.raises(PulseFileError, match="toward t = 0"):
                default_grid_for(spec)

    def test_kink_falls_on_node(self):
        g = default_grid_for(PulseSpec.symmetric_exponential(0.8))
        assert np.min(np.abs(g.times())) < 1e-12

    def test_node_on_jump_takes_half_value(self):
        # user-chosen grid with nodes exactly on the rectangle edges
        g = make_grid(-2.0, 6.0, 801)
        b = sample_pulse(PulseSpec.rectangular(1.0), g)
        t = g.times()
        assert b.values[np.argmin(np.abs(t))].real == pytest.approx(0.5)
        assert b.values[np.argmin(np.abs(t + 1))].real == pytest.approx(0.5)

    def test_unsupported_span_rejected(self):
        with pytest.raises(UnsupportedSpanError):
            sample_pulse(PulseSpec.rectangular(1.0), make_grid(-0.5, 5, 100))
        with pytest.raises(UnsupportedSpanError):
            sample_pulse(PulseSpec.gaussian(1.0), make_grid(-1, 2, 100))

    @pytest.mark.parametrize("kwargs", [{"samples_per_unit": 1}, {"tail": 0.0},
                                        {"lead_pad": -1.0}, {"tail": math.nan}])
    def test_invalid_policy_refused_when_built(self, kwargs):
        with pytest.raises(ConfigError):
            GridPolicy(**kwargs)

    def test_invalid_policy_rejected(self):
        from pulsegate import ConfigError
        with pytest.raises(ConfigError):
            default_grid_for(PulseSpec.gaussian(1.0), GridPolicy(samples_per_unit=1))
        with pytest.raises(ConfigError):
            default_grid_for(PulseSpec.gaussian(1.0), GridPolicy(tail=0.0))

    @pytest.mark.parametrize("field", ["tail", "lead_pad"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_policy_rejected(self, field, value):
        from pulsegate import ConfigError
        with pytest.raises(ConfigError, match="must be finite"):
            GridPolicy(**{field: value}).step_for(1.0)

    @pytest.mark.parametrize("field", ["tail", "lead_pad"])
    @pytest.mark.parametrize("spec", [PulseSpec.rectangular(1.0), PulseSpec.rising_exponential(1.0),
                                      PulseSpec.symmetric_exponential(1.0), PulseSpec.gaussian(1.0),
                                      PulseSpec.custom([0.0, 1.0], [1.0, 1.0])],
                             ids=lambda spec: spec.shape.value)
    def test_uncountable_extent_rejected(self, field, spec):
        # finite, but 1e308 / dt steps overflow to inf
        from pulsegate import ConfigError
        with pytest.raises(ConfigError, match="too many steps"):
            default_grid_for(spec, GridPolicy(**{field: 1e308}))

    def test_bad_duration_rejected(self):
        from pulsegate import ConfigError
        with pytest.raises(ConfigError):
            PulseSpec.gaussian(0.0)
        with pytest.raises(ConfigError):
            PulseSpec.rectangular(-2.0)

    @pytest.mark.parametrize("shape", ["rect", "rising-exp", "sym-exp", "gauss"])
    def test_layouts_are_pinned(self, shape):
        # (t_start, t_end, n) exactly as tests/data/grid_layouts.csv records
        # them: 18 durations from 1e-3 to 1e4, among them 2 +- 1e-9 and
        # 6 +- 1e-9, under the default policy, a coarse one without lead pad
        # and a fine one with a short tail. A grid property (a jump
        # mid-segment, the kink on a node) survives a node moved by an ulp;
        # these do not.
        checked = 0
        with open(Path(__file__).parent / "data" / "grid_layouts.csv") as fh:
            assert next(fh).rstrip("\n").split(",") == [
                "shape", "gamma_t", "samples_per_unit", "lead_pad", "tail",
                "t_start", "t_end", "n"]
            for line in fh:
                name, gt, spu, lead_pad, tail, t_start, t_end, n = line.rstrip("\n").split(",")
                if name != shape:
                    continue
                policy = GridPolicy(int(spu), float(lead_pad), float(tail))
                g = default_grid_for(PulseSpec(PulseShape(shape), float(gt)), policy)
                assert (g.t_start, g.t_end, g.n) == (float(t_start), float(t_end), int(n)), \
                    (gt, policy)
                checked += 1
        assert checked == 54


def _full_pass_values(shape, T, t, dt):
    """The rect and rising-exp formulas as whole-array passes, the reference
    for the binary-searched jumps of `_builtin_values`."""
    if shape is PulseShape.RECTANGULAR:
        v = np.where((t > -T) & (t < 0), 1.0 / math.sqrt(T), 0.0)
        jump_tol = 1e-6 * dt
        for tj in (-T, 0.0):
            v = np.where(np.abs(t - tj) < jump_tol, 0.5 / math.sqrt(T), v)
        return v
    amp = math.sqrt(2.0 / T)
    v = np.where(t < 0, amp * np.exp(np.minimum(t, 0.0) / T), 0.0)
    return np.where(np.abs(t) < 1e-6 * dt, 0.5 * amp, v)


class TestJumpSearch:
    # grids with nodes on both rect edges, within and just past the 1e-6 dt
    # tolerance of them, on neither, and a coarse one whose step exceeds
    # the pulse
    GRIDS = [(1.0, 0.1, -2.0), (1.0, 0.1, -2.0 + 5e-8), (1.0, 0.1, -2.0 + 2e-7),
             (1.557, 1.557 / 9, -1.557 - 0.35 * 1.557 / 9),
             (0.3, 0.5, -12.0), (1000.0, 3.0, -1030.0)]

    @pytest.mark.parametrize("shape", [PulseShape.RECTANGULAR, PulseShape.RISING_EXP])
    @pytest.mark.parametrize("T, dt, t0", GRIDS)
    def test_bitwise_the_full_pass_formula(self, shape, T, dt, t0):
        t = t0 + dt * np.arange(int((T + 2 - t0) / dt) + 3)
        ref = _full_pass_values(shape, T, t, dt)
        assert _builtin_values(shape, T, t, dt).tobytes() == ref.tobytes()
        # blocks that start before, on, inside and after a jump, down to one node
        for size in (1, 2, 5, 17):
            for a in range(0, len(t), size):
                got = _builtin_values(shape, T, t[a:a + size], dt)
                assert got.tobytes() == ref[a:a + size].tobytes()


class TestExponentialRuns:
    @pytest.mark.parametrize("shape", [PulseShape.RECTANGULAR, PulseShape.RISING_EXP,
                                       PulseShape.SYM_EXP])
    @pytest.mark.parametrize("T, dt, t0", TestJumpSearch.GRIDS + [(3.0, 1.5e-3, None)])
    def test_runs_are_single_exponentials(self, shape, T, dt, t0):
        # the leading run is C exp(lam t) node for node, from the first node
        # up to the rising exponential's cutoff (the node past it is off the
        # run) or to the symmetric exponential's last node at or before t = 0;
        # a rect grid opens on its zero lead, never on the plateau
        if t0 is None:
            grid = default_grid_for(PulseSpec(shape, T))
        else:
            n = int((T + 2 - t0) / dt) + 3
            grid = make_grid(t0, t0 + dt * (n - 1), n)
        t = grid.times()
        b = _builtin_values(shape, T, t, grid.dt)
        lam = GEOMETRY[shape].lead_rate / T
        if shape is PulseShape.RECTANGULAR:
            assert lam == 0.0 and b[0] == 0.0
            return
        if shape is PulseShape.SYM_EXP:
            hi = np.searchsorted(t, 0.0, side="right") - 1
            assert lam == 2.0 / T and t[hi] <= 0.0 < t[hi + 1]
        else:
            hi = np.searchsorted(t, -pulses._JUMP_REACH * grid.dt, side="right") - 1
            assert lam == 1.0 / T
            assert abs(b[hi + 1] - b[hi] * np.exp(lam * (t[hi + 1] - t[hi]))) > 1e-9 * b[hi]
        np.testing.assert_allclose(b[:hi + 1], b[0] * np.exp(lam * (t[:hi + 1] - t[0])),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("T, dt, t0", TestJumpSearch.GRIDS)
    def test_halved_nodes_stay_out_of_runs(self, T, dt, t0, monkeypatch):
        # a wider reach of the jump's mean value, which on the 1.557 grid halves
        # the node 0.35 dt before the cutoff: the rising exponential's run
        # ends before its halved nodes
        monkeypatch.setattr(pulses, "_JUMP_REACH", 0.4)
        amp = math.sqrt(2.0 / T)
        n = int((T + 2 - t0) / dt) + 3
        grid = make_grid(t0, t0 + dt * (n - 1), n)
        t = grid.times()
        b = _builtin_values(PulseShape.RISING_EXP, T, t, grid.dt)
        halved = np.flatnonzero(b == 0.5 * amp)
        assert GEOMETRY[PulseShape.RISING_EXP].lead_rate / T == 1.0 / T
        np.testing.assert_allclose(b[:halved[0]], amp * np.exp(t[:halved[0]] / T),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec", [PulseSpec.gaussian(2.0),
                                      PulseSpec.custom(np.linspace(-1, 1, 5), np.ones(5))])
    def test_gauss_and_custom_have_none(self, spec):
        # a custom pulse has no record; the gaussian's lead rate is 0
        assert spec.shape not in GEOMETRY or GEOMETRY[spec.shape].lead_rate == 0.0


class TestGeometry:
    # each record against its formula, _piece_values, whose peak is at t = 0
    @pytest.mark.parametrize("shape", list(GEOMETRY))
    @pytest.mark.parametrize("T", [0.01, 1.0, 300.0])
    def test_drive_end_bounds_the_pulse(self, shape, T):
        geo = GEOMETRY[shape]
        peak = _piece_values(shape, T, 0.0)
        # every sample past the drive end, one step of T / 100 on
        past = T * (geo.drive_end + np.linspace(0.01, 5.0, 500))
        assert _builtin_values(shape, T, past, 0.01 * T).max() <= 2.0**-53 * peak
        if geo.on[0] < geo.drive_end < geo.on[1]:
            # the formula at the drive end itself, within its rounding
            at_end = _piece_values(shape, T, T * geo.drive_end)
            assert at_end <= 2.0**-53 * peak * (1.0 + 1e-12)

    @pytest.mark.parametrize("shape", list(GEOMETRY))
    @pytest.mark.parametrize("T", [0.01, 1.0, 300.0])
    def test_lead_rate_is_the_log_slope_of_the_lead(self, shape, T):
        # before its piece the pulse is C exp(lam t), lam = lead_rate / T,
        # d ln b / dt = lam; a pulse with lead rate 0 is at rest there, below
        # 2^-53 of its peak
        geo = GEOMETRY[shape]
        t = T * (geo.piece[0] - np.linspace(5.0, 0.01, 500))
        b = _builtin_values(shape, T, t, 0.01 * T)
        if geo.lead_rate == 0.0:
            assert b.max() <= 2.0**-53 * _piece_values(shape, T, 0.0)
            return
        assert T * geo.on[0] < t[0] and t[-1] < T * geo.on[1]
        np.testing.assert_allclose(np.diff(np.log(b)) / np.diff(t), geo.lead_rate / T,
                                   rtol=1e-9, atol=0)

    @pytest.mark.parametrize("shape", list(GEOMETRY))
    def test_piece_lies_where_the_formula_holds(self, shape):
        geo = GEOMETRY[shape]
        assert geo.on[0] <= geo.piece[0] <= geo.piece[1] <= geo.on[1]
        assert geo.piece[1] == min(geo.drive_end, geo.on[1])


class TestCustomPulses:
    def write(self, tmp_path, text):
        p = tmp_path / "pulse.txt"
        p.write_text(text)
        return p

    def test_round_trip_matches_builtin(self, tmp_path):
        spec = PulseSpec.gaussian(1.0)
        tt = np.linspace(-3, 3, 4001)
        vv = math.sqrt(2 / math.sqrt(math.pi)) * np.exp(-2 * tt**2)
        path = self.write(tmp_path, "\n".join(f"{a} {b}" for a, b in zip(tt, vv)))
        custom = PulseSpec.from_file(path)
        b = sampled(custom)
        assert norm_sq(b) == pytest.approx(1.0, abs=1e-9)
        t = b.times()
        ref = math.sqrt(2 / math.sqrt(math.pi)) * np.exp(-2 * t**2)
        m = np.abs(t) < 2.5
        np.testing.assert_allclose(b.values[m].real, ref[m], atol=2e-5)

    def test_three_column_complex(self, tmp_path):
        tt = np.linspace(0, 1, 101)
        path = self.write(tmp_path, "\n".join(
            f"{a}, {math.cos(3 * a)}, {math.sin(3 * a)}" for a in tt))
        spec = PulseSpec.from_file(path)
        assert np.iscomplexobj(spec.custom_values)
        b = sampled(spec)
        assert norm_sq(b) == pytest.approx(1.0, abs=1e-9)

    def test_comments_and_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "# header\n0 1\n\n0.5 1  # mid\n1 1\n")
        t, v = load_pulse_file(path)
        assert len(t) == 3

    def test_descending_times_rejected(self, tmp_path):
        path = self.write(tmp_path, "0 1\n-1 1\n")
        with pytest.raises(PulseFileError):
            load_pulse_file(path)

    def test_malformed_rejected(self, tmp_path):
        with pytest.raises(PulseFileError):
            load_pulse_file(self.write(tmp_path, "0 1 2 3\n1 1 1 1\n"))
        with pytest.raises(PulseFileError):
            load_pulse_file(self.write(tmp_path, "0 one\n1 2\n"))
        with pytest.raises(PulseFileError):
            load_pulse_file(self.write(tmp_path, "0 1\n"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PulseFileError):
            load_pulse_file(tmp_path / "nope.txt")

    def test_all_zero_rejected(self, tmp_path):
        path = self.write(tmp_path, "0 0\n1 0\n")
        with pytest.raises(PulseFileError):
            PulseSpec.from_file(path)

    T5 = np.linspace(-1.0, 1.0, 5)

    @pytest.mark.parametrize("kwargs", [
        {"custom_t": T5}, {"custom_values": np.ones(5)},
        {"custom_t": T5, "custom_values": np.ones(4)},
        {"custom_t": T5[None, :], "custom_values": np.ones((1, 5))},
        {"custom_t": T5[::-1], "custom_values": np.ones(5)},
        {"custom_t": T5, "custom_values": np.full(5, np.nan)}],
        ids=["t-only", "values-only", "mismatched", "2-d", "descending", "nan"])
    def test_direct_custom_spec_validated(self, kwargs):
        # built directly, not through PulseSpec.custom: refused when built,
        # not later by numpy inside the solver
        with pytest.raises(PulseFileError):
            PulseSpec(PulseShape.CUSTOM, 2.0, **kwargs)

    @pytest.mark.parametrize("duration", [1e-3, 2.5, -2.0])
    def test_direct_custom_duration_is_the_span(self, duration, tmp_path):
        # the grid is sized from the duration: 1e-3 would give a 61-sample
        # file 26.5M nodes instead of 8,835
        with pytest.raises(PulseFileError, match="span"):
            PulseSpec(PulseShape.CUSTOM, duration, self.T5, np.ones(5))
        assert PulseSpec(PulseShape.CUSTOM, 2.0, self.T5, np.ones(5)).duration == 2.0
        t = np.linspace(-3.0, 3.0, 61)
        v = np.exp(-t**2)
        spec = PulseSpec.custom(t, v)
        assert spec.duration == 6.0 and pulses.default_grid_for(spec).n == 8835
        path = self.write(tmp_path, "\n".join(f"{a:.17g} {b:.17g}" for a, b in zip(t, v)))
        assert PulseSpec.from_file(path).duration == 6.0

    @pytest.mark.parametrize("field", ["custom_t", "custom_values"])
    def test_builtin_spec_takes_no_samples(self, field):
        with pytest.raises(ConfigError, match="custom samples"):
            PulseSpec(PulseShape.RECTANGULAR, 1.0, **{field: self.T5})

    def test_custom_shape_enum(self, tmp_path):
        path = self.write(tmp_path, "0 1\n1 1\n")
        assert PulseSpec.from_file(path).shape is PulseShape.CUSTOM
