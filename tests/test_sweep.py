import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsegate import (DEFAULT_POLICY, DurationRangeError, GridPolicy,
                       NoPeakError, PulseShape, PulseSpec, assemble_outputs,
                       decompose, default_grid_for, drive_window,
                       find_peak_c12, inner_product, mode_shapes_at, norm_sq,
                       run_point, sample_pulse, solve_chain, solve_point,
                       solve_spec, sweep)

import _oracles as orc

# the package re-exports the sweep() function under the submodule's name
sweep_module = importlib.import_module("pulsegate.sweep")

# Peak table of this solver (validated against closed forms for the rising
# exponential and against an independent adaptive integrator elsewhere).
# The rising-exponential peak is analytic: exactly 2/3 at gamma_t = 1.
PEAKS = {
    "rect":       (1.5565, 0.651303, +0.035072),
    "rising-exp": (1.0000, 0.666667, 0.000000),
    "sym-exp":    (0.78886, 0.632457, +0.010193),
    "gauss":      (0.79907, 0.641823, -0.000371),
}

FAST = GridPolicy(samples_per_unit=400)


class TestRunPoint:
    def test_deterministic(self):
        a = run_point("gauss", 1.3)
        b = run_point("gauss", 1.3)
        assert a == b

    def test_probability_budget_exact(self):
        r = run_point("sym-exp", 0.7)
        assert r.c11_sq + r.c12_sq + r.cr_sq == pytest.approx(1.0, abs=1e-12)

    def test_matches_rising_exponential_analytics(self):
        for gt in (0.3, 1.0, 4.0):
            r = run_point("rising-exp", gt)
            assert r.overlap_re == pytest.approx(orc.rising_overlap(gt), abs=2e-5)
            assert r.c12_sq == pytest.approx(orc.rising_c12_sq(gt), abs=2e-5)

    def test_out_of_range_duration_rejected(self):
        with pytest.raises(DurationRangeError):
            run_point("gauss", 1e-9)
        with pytest.raises(DurationRangeError):
            run_point("gauss", 1e5)

    def test_unknown_shape_rejected(self):
        with pytest.raises(DurationRangeError):
            run_point("sawtooth", 1.0)

    def test_short_pulse_is_nearly_linear(self):
        r = run_point("gauss", 0.01)
        assert r.c11_sq > 0.95
        assert r.c12_sq < 0.05

    def test_long_pulse_is_nearly_linear(self):
        r = run_point("gauss", 1000.0)
        assert r.c11_sq > 0.95
        assert r.c12_sq < 0.05


class TestSweep:
    def test_rows_ascending_and_log_spaced(self):
        rows = sweep("gauss", 0.1, 10.0, 9, policy=FAST)
        gts = [r.gamma_t for r in rows]
        assert gts == sorted(gts)
        ratios = np.diff(np.log(gts))
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
        assert gts[0] == pytest.approx(0.1) and gts[-1] == pytest.approx(10.0)

    def test_linear_spacing_option(self):
        rows = sweep("gauss", 1.0, 2.0, 3, log_spaced=False, policy=FAST)
        assert [r.gamma_t for r in rows] == pytest.approx([1.0, 1.5, 2.0])

    def test_bad_ranges_rejected(self):
        with pytest.raises(DurationRangeError):
            sweep("gauss", 1.0, 1.0, 5)
        with pytest.raises(DurationRangeError):
            sweep("gauss", 0.0, 1.0, 5)
        with pytest.raises(DurationRangeError):
            sweep("gauss", 0.1, 10.0, 1)

    def test_mini_sweep_invariants(self):
        rows = sweep("sym-exp", 0.05, 50.0, 13)
        for r in rows:
            assert r.c11_sq + r.c12_sq + r.cr_sq == pytest.approx(1.0, abs=1e-9)
            assert r.cr_sq >= -1e-6
            v = complex(r.overlap_re, r.overlap_im)
            assert abs(v + 1) <= 1 + 1e-6
            assert r.overlap_re <= 1e-8


class TestFindPeak:
    @pytest.mark.parametrize("shape", list(PEAKS))
    def test_peak_table(self, shape):
        gt_ref, c12_ref, c11_ref = PEAKS[shape]
        res = find_peak_c12(shape)
        assert res.gamma_t_star == pytest.approx(gt_ref, rel=2e-3)
        assert res.c12_sq_star == pytest.approx(c12_ref, abs=1e-4)
        assert res.c11_at_peak.real == pytest.approx(c11_ref, abs=1e-3)
        # all four transfer peaks leave the both-stay probability tiny
        assert abs(res.c11_at_peak) ** 2 < 0.05

    def test_rising_exponential_peak_is_analytic(self):
        res = find_peak_c12("rising-exp")
        assert res.gamma_t_star == pytest.approx(1.0, rel=1e-3)
        assert res.c12_sq_star == pytest.approx(2 / 3, abs=1e-5)

    def test_peak_dominates_neighbors(self):
        res = find_peak_c12("rect")
        for factor in (0.98, 1.02):
            assert run_point("rect", res.gamma_t_star * factor).c12_sq <= res.c12_sq_star + 1e-9

    def test_final_evaluation_is_the_amplitude_path(self, monkeypatch):
        def no_waveforms(*args, **kwargs):
            raise AssertionError("the peak search filled in waveforms")
        monkeypatch.setattr(sweep_module, "solve_spec", no_waveforms)
        res = find_peak_c12("gauss", policy=FAST)
        row = run_point("gauss", res.gamma_t_star, FAST)
        assert res.c12_sq_star == row.c12_sq
        assert res.c11_at_peak == complex(row.c11_re, row.c11_im)

    def test_tail_bracket_has_no_peak(self):
        with pytest.raises(NoPeakError):
            find_peak_c12("gauss", bracket=(500.0, 1000.0), policy=FAST)

    def test_bad_bracket_rejected(self):
        with pytest.raises(DurationRangeError):
            find_peak_c12("gauss", bracket=(5.0, 1.0))


class TestModeShapes:
    def test_rising_exp_modes_at_peak(self):
        policy = GridPolicy(samples_per_unit=4000, lead_pad=8.0)
        psi1, psi2 = mode_shapes_at("rising-exp", 1.0, policy)
        t = psi1.times()
        assert np.max(np.abs(psi1.values[t < 0])) < 1e-6
        np.testing.assert_allclose(psi2.values, orc.rising_psi2_unit(t), atol=2e-4)

    @pytest.mark.parametrize("shape", ["rect", "sym-exp", "gauss"])
    def test_delayed_output_changes_sign(self, shape):
        gt = PEAKS[shape][0]
        psi1, _ = mode_shapes_at(shape, gt)
        re = psi1.values.real
        peak = np.max(np.abs(re))
        assert re.max() > 0.05 * peak
        assert re.min() < -0.05 * peak

    @pytest.mark.parametrize("shape,ov1,ov2", [
        ("rect", 0.000195, 0.868032),
        ("rising-exp", 0.0, 0.749995),   # analytic: 0 and 3/4
        ("sym-exp", 0.000817, 0.983288),
        ("gauss", 0.002457, 0.982793),
    ])
    def test_transfer_mode_resembles_input(self, shape, ov1, ov2):
        gt = PEAKS[shape][0]
        sol = solve_point(shape, gt)
        d = sol.decomposition
        got1 = abs(inner_product(sol.b_in, d.psi1)) ** 2
        got2 = abs(inner_product(sol.b_in, d.psi2)) ** 2
        assert got2 > got1  # the transferred photon keeps the input shape
        assert got1 == pytest.approx(ov1, abs=2e-4)
        assert got2 == pytest.approx(ov2, abs=2e-3)

    def test_mode_normalization(self):
        psi1, psi2 = mode_shapes_at("gauss", 2.0)
        assert norm_sq(psi1) == pytest.approx(1.0, abs=1e-6)
        assert norm_sq(psi2) == pytest.approx(1.0, abs=1e-9)


class TestConvergence:
    @pytest.mark.parametrize("shape,gt", [("rect", 1.56), ("sym-exp", 1.0),
                                          ("gauss", 0.8), ("rising-exp", 1.0)])
    def test_halving_dt_is_invisible(self, shape, gt):
        coarse = run_point(shape, gt)
        fine = run_point(shape, gt, GridPolicy(samples_per_unit=4000))
        assert abs(coarse.c11_sq - fine.c11_sq) < 1e-4
        assert abs(coarse.c12_sq - fine.c12_sq) < 1e-4
        assert abs(coarse.cr_sq - fine.cr_sq) < 1e-4


BUILTIN = ["rect", "rising-exp", "sym-exp", "gauss"]
ROW_FIELDS = ("c11_re", "c11_im", "c11_sq", "c12_sq", "cr_sq", "overlap_re", "overlap_im")


def full_grid_solution(spec, policy=DEFAULT_POLICY):
    """The pipeline with every grid node stored, ringdown sampled."""
    grid = default_grid_for(spec, policy)
    b_in = sample_pulse(spec, grid)
    pair = assemble_outputs(b_in, solve_chain(b_in))
    return grid, b_in, pair, decompose(pair)


def amplitudes(d):
    return (d.c11.real, d.c11.imag, d.c11_sq, d.c12_sq, d.cr_sq,
            d.overlap.real, d.overlap.imag)


def custom_spec():
    t = np.linspace(-2.0, 1.0, 301)
    return PulseSpec.custom(t, np.exp(-t**2) * np.exp(0.3j * t))


class TestDriveWindow:
    @pytest.mark.parametrize("shape", BUILTIN)
    def test_window_ends_with_the_drive(self, shape):
        spec = PulseSpec(PulseShape(shape), 0.3)
        grid = default_grid_for(spec)
        w = drive_window(spec, grid)
        assert w.tail > 0 and w.filled() == grid
        t = grid.times()
        assert t[w.n - 2] <= spec.drive_end() < t[w.n - 1]
        b = np.abs(sample_pulse(spec, grid).values)
        assert b[w.n - 1:].max() <= 2.0**-53 * b.max()

    def test_window_never_passes_the_grid_end(self):
        spec = PulseSpec.gaussian(1000.0)
        grid = default_grid_for(spec)
        assert spec.drive_end() > grid.t_end
        assert drive_window(spec, grid) == grid

    @pytest.mark.parametrize("gt", [0.01, 0.3, 1.0, 30.0])
    @pytest.mark.parametrize("shape", BUILTIN)
    def test_run_point_matches_full_grid(self, shape, gt):
        row = run_point(shape, gt)
        *_, ref = full_grid_solution(PulseSpec(PulseShape(shape), gt))
        assert row.gamma_t == gt
        np.testing.assert_allclose([getattr(row, f) for f in ROW_FIELDS],
                                   amplitudes(ref), rtol=0, atol=1e-12)

    def test_custom_pulse_matches_full_grid(self):
        spec = custom_spec()
        *_, ref = full_grid_solution(spec)
        got = solve_spec(spec).decomposition
        np.testing.assert_allclose(amplitudes(got), amplitudes(ref), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec", [PulseSpec.rectangular(0.3), custom_spec()],
                             ids=["rect", "custom"])
    def test_solve_spec_waveforms_cover_the_grid(self, spec):
        sol = solve_spec(spec)
        grid, b_in, pair, dec = full_grid_solution(spec)
        assert drive_window(spec, grid).tail > 0
        assert sol.grid == grid
        np.testing.assert_array_equal(sol.b_in.values, b_in.values)
        for got, ref in ((sol.pair.linear, pair.linear), (sol.pair.cubic, pair.cubic),
                         (sol.decomposition.psi1, dec.psi1),
                         (sol.decomposition.psi2, dec.psi2)):
            assert got.grid == grid
            np.testing.assert_allclose(got.values, ref.values, rtol=0, atol=1e-12)

    @given(log_gt=st.floats(math.log10(0.01), math.log10(100.0)))
    @settings(max_examples=25, deadline=None)
    def test_rising_exp_closed_form(self, log_gt):
        gt = 10.0 ** log_gt
        row = run_point("rising-exp", gt)
        assert abs(row.c12_sq - orc.rising_c12_sq(gt)) <= 1e-5
        assert abs(complex(row.overlap_re, row.overlap_im) - orc.rising_overlap(gt)) <= 1e-5
