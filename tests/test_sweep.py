import importlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.special import erfcx

import pulsegate
from pulsegate import twophoton
from pulsegate import (ComplexSignal, ConfigError, GridPolicy, NoPeakError, PulseShape,
                       PulseSpec, SolverError, SystemParams, assemble_outputs,
                       default_grid_for, find_peak_c12, inner_product, norm_sq,
                       perturbative_extraction, run_point, sample_pulse, solve_point,
                       solve_spec, sweep)
from pulsegate.pulses import _builtin_values, _piece_values
from pulsegate.sweep import _PANEL_DEGREE, _bounded_brent, sweep_durations

import _oracles as orc

# the package re-exports the sweep() function under the submodule's name
sweep_module = importlib.import_module("pulsegate.sweep")
pulses_module = importlib.import_module("pulsegate.pulses")

# Peak table of this solver (validated against closed forms for the rising
# exponential and against an independent adaptive integrator elsewhere).
# The rising-exponential peak is analytic: exactly 2/3 at gamma_t = 1.
PEAKS = {
    "rect":       (1.5565, 0.651303, +0.035072),
    "rising-exp": (1.0000, 0.666667, 0.000000),
    "sym-exp":    (0.78886, 0.632457, +0.010193),
    "gauss":      (0.79907, 0.641823, -0.000371),
}


def record_samples(monkeypatch):
    """Route run_point's pulse evaluation through a recorder; returns the
    list the times of every call are appended to, flattened."""
    calls = []

    def recording(shape, T, t):
        calls.append(np.ravel(t))
        return _piece_values(shape, T, t)
    monkeypatch.setattr(sweep_module, "_piece_values", recording)
    return calls


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
        with pytest.raises(ConfigError, match=r"^gamma_t=1e-09 outside the supported range "):
            run_point("gauss", 1e-9)
        with pytest.raises(ConfigError, match=r"^gamma_t=100000 outside the supported range "):
            run_point("gauss", 1e5)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ConfigError, match="^unknown pulse shape 'sawtooth'; expected one of "):
            run_point("sawtooth", 1.0)

    def test_short_pulse_is_nearly_linear(self):
        r = run_point("gauss", 0.01)
        assert r.c11_sq > 0.95
        assert r.c12_sq < 0.05

    def test_long_pulse_is_nearly_linear(self):
        r = run_point("gauss", 1000.0)
        assert r.c11_sq > 0.95
        assert r.c12_sq < 0.05


@pytest.mark.parametrize("solve", [lambda s: run_point(s, 1.0), lambda s: find_peak_c12(s),
                                   lambda s: solve_point(s, 1.0)],
                         ids=["run_point", "find_peak_c12", "solve_point"])
@pytest.mark.parametrize("shape", ["custom", PulseShape.CUSTOM])
def test_custom_is_refused_by_name(solve, shape):
    # a custom pulse is a PulseSpec with its samples; by name alone there is
    # no pulse to solve, so the name is refused like an unknown one
    with pytest.raises(ConfigError,
                       match="expected one of rect, rising-exp, sym-exp, gauss$"):
        solve(shape)


class TestSweep:
    def test_rows_ascending_and_log_spaced(self):
        rows = sweep("gauss", 0.1, 10.0, 9)
        gts = [r.gamma_t for r in rows]
        assert gts == sorted(gts)
        ratios = np.diff(np.log(gts))
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
        assert gts[0] == pytest.approx(0.1) and gts[-1] == pytest.approx(10.0)

    def test_linear_spacing_option(self):
        rows = sweep("gauss", 1.0, 2.0, 3, log_spaced=False)
        assert [r.gamma_t for r in rows] == pytest.approx([1.0, 1.5, 2.0])

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigError, match=r"^need 0 < gt_min < gt_max, got \(1.0, 1.0\)$"):
            sweep("gauss", 1.0, 1.0, 5)
        with pytest.raises(ConfigError, match=r"^need 0 < gt_min < gt_max, got \(0.0, 1.0\)$"):
            sweep("gauss", 0.0, 1.0, 5)
        with pytest.raises(ConfigError, match="^need at least 2 sweep points, got 1$"):
            sweep("gauss", 0.1, 10.0, 1)

    @pytest.mark.parametrize("log_spaced", [True, False])
    def test_an_infinite_bound_is_named(self, log_spaced):
        # refused before np.logspace or np.linspace would turn it into nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^gamma_t=inf outside"):
                sweep_durations(0.01, math.inf, 5, log_spaced)

    def test_mini_sweep_invariants(self):
        rows = sweep("sym-exp", 0.05, 50.0, 13)
        for r in rows:
            assert r.c11_sq + r.c12_sq + r.cr_sq == pytest.approx(1.0, abs=1e-9)
            assert r.cr_sq >= -1e-6
            v = complex(r.overlap_re, r.overlap_im)
            assert abs(v + 1) <= 1 + 1e-6
            assert r.overlap_re <= 1e-8


def tight_peak(shape, bracket=(0.3, 3.0), xtol=1e-8):
    """(gamma_t, c12_sq) at the maximum of run_point's c12_sq in the bracket,
    by a golden-section search on log(gamma_t) narrowed to xtol: a reference
    that shares no code with find_peak_c12's search and is far tighter."""
    g = (math.sqrt(5.0) - 1.0) / 2.0

    def f(lg):
        return run_point(shape, math.exp(lg)).c12_sq
    a, b = map(math.log, bracket)
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return (math.exp(c), fc) if fc > fd else (math.exp(d), fd)


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

    @pytest.mark.parametrize("shape", list(PEAKS))
    def test_peak_matches_a_tight_reference(self, shape):
        res = find_peak_c12(shape)
        gt_ref, c12_ref = tight_peak(shape)
        assert res.gamma_t_star == pytest.approx(gt_ref, rel=5e-4)
        assert res.c12_sq_star == pytest.approx(c12_ref, abs=1e-7)

    @pytest.mark.parametrize("shape", list(PEAKS))
    def test_each_duration_is_solved_once(self, shape, monkeypatch):
        solved = []

        def recording(name, gamma_t):
            solved.append(gamma_t)
            return run_point(name, gamma_t)
        monkeypatch.setattr(sweep_module, "run_point", recording)
        res = find_peak_c12(shape)
        assert len(solved) <= 24
        assert len(set(solved)) == len(solved)
        assert res.gamma_t_star in solved

    def test_unconverged_refinement_raises(self, monkeypatch):
        # the refinement stops after 3 evaluations, short of its xatol
        monkeypatch.setattr(sweep_module, "_bounded_brent",
                            lambda *args: _bounded_brent(*args, maxfun=3))
        with pytest.raises(SolverError, match="did not converge"):
            find_peak_c12("rect")

    def test_final_evaluation_is_the_amplitude_path(self, monkeypatch):
        def no_waveforms(*args, **kwargs):
            raise AssertionError("the peak search filled in waveforms")
        monkeypatch.setattr(sweep_module, "solve_spec", no_waveforms)
        res = find_peak_c12("gauss")
        row = run_point("gauss", res.gamma_t_star)
        assert res.c12_sq_star == row.c12_sq
        assert res.c11_at_peak == complex(row.c11_re, row.c11_im)

    def test_tail_bracket_has_no_peak(self):
        with pytest.raises(NoPeakError):
            find_peak_c12("gauss", bracket=(500.0, 1000.0))

    def test_bad_bracket_rejected(self):
        with pytest.raises(ConfigError, match=r"^bad peak bracket \(5.0, 1.0\)$"):
            find_peak_c12("gauss", bracket=(5.0, 1.0))

    @pytest.mark.parametrize("bracket, edge", [((0.1, math.inf), "inf"),
                                               ((0.1, 1e5), "100000"),
                                               ((1e-4, 20.0), "0.0001")],
                             ids=["to-inf", "to-1e5", "from-1e-4"])
    def test_bracket_out_of_range_solves_nothing(self, bracket, edge, monkeypatch):
        # refused on its edge as a sweep's bounds are, before any probe is
        # solved and before np.logspace could warn or turn inf into nan
        def never(*args):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(sweep_module, "run_point", never)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=rf"^gamma_t={edge} outside the supported "
                                                  r"range \[0.001, 10000\]$"):
                find_peak_c12("rect", bracket)


def assert_brent_matches_scipy(func, a, b, xatol, maxfun=500):
    """_bounded_brent against scipy's bounded minimize_scalar on one
    problem: the same x and f(x) bitwise, evaluation count and outcome."""
    x, fun, nfev, failure = _bounded_brent(func, a, b, xatol, maxfun)
    res = scipy.optimize.minimize_scalar(func, bounds=(a, b), method="bounded",
                                         options={"xatol": xatol, "maxiter": maxfun})
    assert [float(v).hex() for v in (x, fun)] == [float(v).hex() for v in (res.x, res.fun)]
    assert nfev == res.nfev
    assert (failure is None) == res.success
    assert failure in (None, res.message)
    return failure


class TestBoundedBrent:
    """find_peak_c12's refinement is a port of scipy's bounded Brent
    (sweep._bounded_brent); scipy itself judges it."""

    @pytest.mark.parametrize("shape", list(PEAKS))
    def test_matches_scipy_in_the_peak_search(self, shape, monkeypatch):
        # the searches of 25 brackets, their edges jittered by up to 0.1
        # decade; each checks its own refinement and returns the port's
        searched = []

        def checked(func, a, b, xatol):
            assert assert_brent_matches_scipy(func, a, b, xatol) is None
            searched.append((a, b))
            return _bounded_brent(func, a, b, xatol)
        monkeypatch.setattr(sweep_module, "_bounded_brent", checked)
        rng = np.random.default_rng(30)
        for lo, hi in 10.0 ** (np.log10([0.1, 20.0]) + rng.uniform(-0.1, 0.1, (25, 2))):
            find_peak_c12(shape, (float(lo), float(hi)))
        assert len(set(searched)) > 5

    @pytest.mark.parametrize("xatol", [1e-5, math.log1p(1e-3), 1e-9])
    @pytest.mark.parametrize("func,a,b", [
        (lambda x: x**4 - 3.0 * x**2 + x, 0.0, 2.0),    # smooth: parabolic steps
        (lambda x: math.exp(x) - 2.0 * x, -3.0, 5.0),
        (lambda x: abs(x - 0.1234), -1.0, 2.0),         # a kink: golden steps
        (lambda x: x, 0.0, 1.0),                        # minimum on an edge: the nudge
        (lambda x: -x, -2.0, -1.0),
        (lambda x: 1.0, 0.0, 1.0),                      # flat
    ], ids=["quartic", "exp", "abs", "rising", "falling", "constant"])
    def test_matches_scipy_on_each_branch(self, func, a, b, xatol):
        assert assert_brent_matches_scipy(func, a, b, xatol) is None

    def test_matches_scipy_at_the_evaluation_cap(self):
        failure = assert_brent_matches_scipy(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-5, maxfun=3)
        assert failure == "Maximum number of function calls reached."

    @pytest.mark.parametrize("func,fails", [
        (lambda x: math.nan, True),
        # NaN at the first point (0.382), which no later value displaces
        (lambda x: math.nan if x > 0.38 else (x - 0.3) ** 2, True),
        # NaN only where the search ends up rejecting, as scipy ignores it
        (lambda x: math.nan if x > 0.5 else (x - 0.3) ** 2, False),
    ], ids=["everywhere", "at-the-start", "past-the-minimum"])
    def test_nan_fails_as_scipy_does(self, func, fails):
        failure = assert_brent_matches_scipy(func, 0.0, 1.0, 1e-5)
        assert failure == ("NaN result encountered." if fails else None)


class TestModeShapes:
    def test_rising_exp_modes_at_peak(self):
        policy = GridPolicy(samples_per_unit=4000, lead_pad=8.0)
        psi1, psi2 = solve_point("rising-exp", 1.0, policy).modes()
        t = psi1.times()
        assert np.max(np.abs(psi1.values[t < 0])) < 1e-6
        np.testing.assert_allclose(psi2.values, orc.rising_psi2_unit(t), atol=2e-4)

    @pytest.mark.parametrize("shape", ["rect", "sym-exp", "gauss"])
    def test_delayed_output_changes_sign(self, shape):
        gt = PEAKS[shape][0]
        psi1, _ = solve_point(shape, gt).modes()
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
        psi1, psi2 = solve_point("gauss", 2.0).modes()
        assert norm_sq(psi1) == pytest.approx(1.0, abs=1e-6)
        assert norm_sq(psi2) == pytest.approx(1.0, abs=1e-9)


class TestConvergence:
    # the waveform path, whose grid a GridPolicy sets: the default step
    # against a quarter of it
    @pytest.mark.parametrize("shape,gt", [("rect", 1.56), ("sym-exp", 1.0),
                                          ("gauss", 0.8), ("rising-exp", 1.0)])
    def test_halving_dt_is_invisible(self, shape, gt):
        coarse = solve_point(shape, gt).decomposition
        fine = solve_point(shape, gt, GridPolicy(samples_per_unit=4000)).decomposition
        assert abs(coarse.c11_sq - fine.c11_sq) < 1e-4
        assert abs(coarse.c12_sq - fine.c12_sq) < 1e-4
        assert abs(coarse.cr_sq - fine.cr_sq) < 1e-4


BUILTIN = ["rect", "rising-exp", "sym-exp", "gauss"]
ROW_FIELDS = ("c11_re", "c11_im", "c11_sq", "c12_sq", "cr_sq", "overlap_re", "overlap_im")


def amplitudes(d):
    return (d.c11.real, d.c11.imag, d.c11_sq, d.c12_sq, d.cr_sq,
            d.overlap.real, d.overlap.imag)


def judged(row):
    return np.array([row.overlap_re, row.c12_sq, row.cr_sq])


def gram_judged(gram):
    """overlap, c12_sq and cr_sq of a Gram matrix, as run_point forms them."""
    v, _, c12_sq, cr_sq = twophoton.amplitudes(float(gram[0, 0]), gram[0, 1], gram[1, 1])
    return np.array([v.real, c12_sq, cr_sq])


def judge(shape, gt):
    """overlap, c12_sq and cr_sq of `_oracles.judge_gram`."""
    return gram_judged(orc.judge_gram(PulseSpec(PulseShape(shape), gt)))


def richardson(shape, gt):
    """overlap, c12_sq and cr_sq of `_oracles.richardson_gram`: stepping
    every node of two grids, one at half the other's step, extrapolated,
    plus the lead before them in closed form."""
    return gram_judged(orc.richardson_gram(PulseSpec(PulseShape(shape), gt)))


def stepped_gauss(gt):
    """The gaussian stepped on the default grid, as solve_spec does."""
    spec = PulseSpec.gaussian(gt)
    return gram_judged(orc.stepped_output_gram(spec, default_grid_for(spec)))


def custom_spec():
    t = np.linspace(-2.0, 1.0, 301)
    return PulseSpec.custom(t, np.exp(-t**2) * np.exp(0.3j * t))


class TestDriveWindow:
    @pytest.mark.parametrize("shape", BUILTIN)
    def test_window_ends_with_the_drive(self, shape):
        spec = PulseSpec(PulseShape(shape), 0.3)
        grid = default_grid_for(spec)
        n = orc.drive_window(spec, grid)
        assert n < grid.n
        t = grid.times()
        assert t[n - 2] <= spec.drive_end() < t[n - 1]
        b = np.abs(sample_pulse(spec, grid).values)
        assert b[n - 1:].max() <= 2.0**-53 * b.max()

    def test_window_never_passes_the_grid_end(self):
        spec = PulseSpec.gaussian(1000.0)
        grid = default_grid_for(spec)
        assert spec.drive_end() > grid.t_end
        assert orc.drive_window(spec, grid) == grid.n

    @pytest.mark.parametrize("gt", [0.01, 0.3, 1.0, 30.0, 300.0])
    @pytest.mark.parametrize("shape", BUILTIN)
    def test_run_point_matches_full_grid(self, shape, gt):
        # every node of the full grid stepped, at two steps, extrapolated:
        # within 3.9e-13 here (sym-exp at 1), the extrapolation's own error
        row = run_point(shape, gt)
        assert row.gamma_t == gt
        np.testing.assert_allclose(judged(row), richardson(shape, gt), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape, lam", [("rising-exp", 1.0), ("sym-exp", 2.0)])
    def test_waveforms_start_in_the_driven_state(self, shape, lam):
        # the pulse has been e^{lam t} since t = -inf, so on the grid's first
        # node b1 is already its driven (lam - 1) / (lam + 1) b; from rest it
        # would be b
        sol = solve_point(shape, 1.0)
        ratio = sol.pair.linear.values[0] / sol.b_in.values[0]
        assert ratio.real == pytest.approx((lam - 1.0) / (lam + 1.0), rel=0, abs=1e-5)

    def test_custom_pulse_matches_full_grid(self):
        # the amplitudes are scipy's trapezoid sums of the stored waveforms
        # over the whole grid
        sol = solve_spec(custom_spec())
        b1, b3 = sol.pair.linear.values, sol.pair.cubic.values
        n1 = trapezoid(np.abs(b1) ** 2, dx=sol.grid.dt)
        overlap = trapezoid(np.conj(b1) * b3, dx=sol.grid.dt) / math.sqrt(n1)
        c12_sq = 2 * (trapezoid(np.abs(b3) ** 2, dx=sol.grid.dt) - abs(overlap) ** 2)
        dec = sol.decomposition
        assert abs(dec.overlap - overlap) <= 1e-13
        assert dec.c12_sq == pytest.approx(c12_sq, rel=0, abs=1e-13)

    def test_global_phase_carries_through(self):
        # a constant phase on the input multiplies every field and mode by
        # it and leaves the amplitudes alone
        t = np.linspace(-2.0, 1.0, 301)
        v = np.exp(-t**2) * (1.0 + 0.3 * t)
        phase = np.exp(0.7j)
        real = solve_spec(PulseSpec.custom(t, v))
        turned = solve_spec(PulseSpec.custom(t, v * phase))
        assert np.iscomplexobj(turned.b_in.values)
        np.testing.assert_allclose(amplitudes(turned.decomposition),
                                   amplitudes(real.decomposition), rtol=0, atol=1e-12)
        for got, ref in ((turned.pair.linear, real.pair.linear),
                         (turned.pair.cubic, real.pair.cubic),
                         (turned.decomposition.psi1, real.decomposition.psi1),
                         (turned.decomposition.psi2, real.decomposition.psi2)):
            np.testing.assert_allclose(got.values, phase * ref.values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec", [PulseSpec.rectangular(0.3), custom_spec()],
                             ids=["rect", "custom"])
    def test_solve_spec_waveforms_cover_the_grid(self, spec):
        sol = solve_spec(spec)
        grid = default_grid_for(spec)
        assert sol.grid == grid and orc.drive_window(spec, grid) < grid.n
        dec = sol.decomposition
        for sig in (sol.b_in, sol.pair.linear, sol.pair.cubic, dec.psi1, dec.psi2):
            assert sig.grid == grid and len(sig.values) == grid.n

    @given(log_gt=st.floats(math.log10(0.01), math.log10(100.0)))
    @settings(max_examples=25, deadline=None)
    def test_rising_exp_closed_form(self, log_gt):
        gt = 10.0 ** log_gt
        row = run_point("rising-exp", gt)
        assert abs(row.c12_sq - orc.rising_c12_sq(gt)) <= 1e-5
        assert abs(complex(row.overlap_re, row.overlap_im) - orc.rising_overlap(gt)) <= 1e-5


class TestDipoleStorage:
    """The chain stores u = s1/i and w = s3/i in the pulse's own dtype, and
    the outputs are b1 = b - sqrt(2) u and b3 = -sqrt(2) w."""

    @staticmethod
    def solve(monkeypatch, spec, *policy):
        """solve_spec, and the response chain it assembled its outputs from."""
        chains = []

        def recording(b_in, chain, *args):
            chains.append(chain)
            return assemble_outputs(b_in, chain, *args)
        monkeypatch.setattr(sweep_module, "assemble_outputs", recording)
        return solve_spec(spec, *policy), chains[0]

    @staticmethod
    def check_outputs(sol, chain, dtype):
        d = sol.decomposition
        b, u, w = sol.b_in.values, chain.first_order.values, chain.third_order.values
        for sig in (sol.b_in, chain.first_order, chain.third_order, sol.pair.linear,
                    sol.pair.cubic, d.psi1, d.psi2):
            assert sig.values.dtype == dtype
        rt2 = math.sqrt(2.0)
        assert sol.pair.linear.values.tobytes() == (b - rt2 * u).tobytes()
        # -sqrt(2) w, with the zeros before the pulse written +0.0
        assert np.array_equal(sol.pair.cubic.values, -rt2 * w)
        assert sol.pair.cubic.values.tobytes() == (0.0 - rt2 * w).tobytes()

    @pytest.mark.parametrize("shape", BUILTIN)
    @pytest.mark.parametrize("gt", ["peak", 0.01, 100.0])
    def test_real_pulse_gives_real_waveforms(self, shape, gt, monkeypatch):
        gt = PEAKS[shape][0] if gt == "peak" else gt
        sol, chain = self.solve(monkeypatch, PulseSpec(PulseShape(shape), gt))
        self.check_outputs(sol, chain, np.float64)

    def test_complex_pulse_stays_complex_and_matches_the_oracle(self, tmp_path, monkeypatch):
        # a chirped gaussian read from a (t, re, im) file, on criterion 8's grid
        t = np.linspace(-3.0, 3.0, 601)
        v = np.exp(-t**2) * np.exp(1j * (0.8 * t + 0.3 * t**2))
        path = tmp_path / "chirp.txt"
        np.savetxt(path, np.column_stack((t, v.real, v.imag)))
        sol, chain = self.solve(monkeypatch, PulseSpec.from_file(path),
                                GridPolicy(samples_per_unit=2000))
        self.check_outputs(sol, chain, np.complex128)
        # criterion 8's check of the chain against the RK4 oracle
        e1, e3 = perturbative_extraction(sol.b_in, SystemParams(), [0.02, 0.04, 0.06],
                                         deflate_fifth_order=True)
        for est, ref in ((e1, sol.pair.linear), (e3, sol.pair.cubic)):
            err = norm_sq(ComplexSignal(sol.grid, est.values - ref.values))
            assert math.sqrt(err / norm_sq(ref)) < 1e-3


def row_fields(row):
    return [getattr(row, f) for f in ROW_FIELDS]


# rising-exp against its closed forms over the whole range
RISING_C12_BOUND = 1e-13
RISING_OVERLAP_BOUND = 1e-13


class TestWholeRange:
    """Points drawn log-uniformly from the whole supported range."""

    @given(shape=st.sampled_from(BUILTIN), log_gt=st.floats(-3.0, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_quantum_limits_hold(self, shape, log_gt):
        row = run_point(shape, 10.0 ** log_gt)
        limit = twophoton.limit_report(complex(row.overlap_re, row.overlap_im), row.c12_sq)
        assert limit.circle_ok and limit.reduction_ok

    # the continuum amplitudes: at most 3.1e-15 in c12_sq and 1.6e-15 in
    # the overlap over 3,000 log-spaced points
    @given(log_gt=st.floats(-3.0, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_rising_exp_closed_form(self, log_gt):
        gt = 10.0 ** log_gt
        row = run_point("rising-exp", gt)
        assert abs(row.c12_sq - orc.rising_c12_sq(gt)) <= RISING_C12_BOUND
        assert abs(complex(row.overlap_re, row.overlap_im) - orc.rising_overlap(gt)) \
            <= RISING_OVERLAP_BOUND


def largest_divisor(n):
    """The largest proper divisor of n above 1, or n itself when n is prime."""
    return next((d for d in range(n // 2, 1, -1) if n % d == 0), n)


class TestStreamedSolve:
    @pytest.mark.parametrize("shape", BUILTIN)
    def test_block_size_invariance(self, shape, monkeypatch):
        # the stepped judge (`_oracles.stepped_output_gram`) carries the
        # chain's state from block to block, so where the blocks end, also
        # on the window's last node, must not show
        spec = PulseSpec(PulseShape(shape), 1.0)
        grid = default_grid_for(spec)
        ref = gram_judged(orc.stepped_output_gram(spec, grid))
        n = orc.drive_window(spec, grid)
        exact, plus_one = largest_divisor(n), largest_divisor(n - 1)
        assert n % exact == 0 and n % plus_one == 1
        for block in (7, 1000, n, exact, plus_one):
            monkeypatch.setattr(orc, "BLOCK_NODES", block)
            np.testing.assert_allclose(gram_judged(orc.stepped_output_gram(spec, grid)), ref,
                                       rtol=0, atol=1e-13, err_msg=f"block of {block}")

    def test_memory_stays_within_a_few_blocks(self):
        run_point("sym-exp", 1000.0)        # warm caches and lazy imports
        tracemalloc.start()
        try:
            run_point("sym-exp", 1000.0)    # 295 panels of 21 nodes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few arrays of one value per panel node, about 50 kB each
        assert peak < 2**21

    def test_truncated_tail_raises_norm_violation(self):
        # the waveform grid's tail; run_point builds no grid to truncate
        policy = GridPolicy(samples_per_unit=2000, tail=0.5)
        with pytest.raises(SolverError, match="^linear output norm .* deviates from 1"):
            solve_point("gauss", 1.0, policy)

    def test_non_finite_samples_rejected(self, monkeypatch):
        def poisoned(shape, T, t):
            v = np.ones(np.shape(t))
            v.flat[v.size // 2] = np.nan
            return v
        monkeypatch.setattr(sweep_module, "_piece_values", poisoned)
        with pytest.raises(ValueError, match="NaN or infinite"):
            run_point("gauss", 1.0)


RUN_SHAPES = ["rect", "rising-exp", "sym-exp"]


class TestExponentialRuns:
    """The pulses made of exponential runs against stepping every node of
    the grid (`_oracles.richardson_gram`: two steps, extrapolated, with the
    lead before the grid in closed form), whose own error is up to about
    8e-13."""

    @staticmethod
    def check(shape, gt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = judged(run_point(shape, gt))
        np.testing.assert_allclose(got, richardson(shape, gt), rtol=0, atol=1e-12,
                                   err_msg=f"{shape} at gamma_t={gt!r}")

    @given(shape=st.sampled_from(RUN_SHAPES), log_gt=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_stepping(self, shape, log_gt):
        self.check(shape, 10.0 ** log_gt)

    # T = 2 and T = 6: the symmetric exponential's trailing side resonates
    # with the decay of u and of w
    @pytest.mark.parametrize("gt", [2 - 1e-9, 2 + 1e-9, 6 - 1e-9, 6 + 1e-9])
    @pytest.mark.parametrize("shape", RUN_SHAPES)
    def test_agrees_at_resonances(self, shape, gt):
        self.check(shape, gt)

    @pytest.mark.parametrize("shape", RUN_SHAPES)
    def test_agrees_at_range_end(self, shape):
        self.check(shape, 1e4)

    @pytest.mark.parametrize("shape", RUN_SHAPES)
    def test_agrees_at_shortest_pulse(self, shape):
        self.check(shape, 1e-3)

    @pytest.mark.parametrize("shape", ["rising-exp", "sym-exp"])
    def test_long_pulse_samples_few_nodes(self, shape, monkeypatch):
        # stepping every node of the default grid's window takes 3.8M
        # (rising-exp) and 8M (sym-exp) samples here
        sampled = record_samples(monkeypatch)
        run_point(shape, 1000.0)
        assert sum(map(len, sampled)) < 10_000

    @pytest.mark.parametrize("gt", [1e-3, 1.0, 1e4])
    def test_rising_exp_samples_three_nodes(self, gt, monkeypatch):
        # its driven state holds up to the cutoff, where its one panel, of
        # width 0, only carries that state into the ringdown: one instant
        sampled = record_samples(monkeypatch)
        run_point("rising-exp", gt)
        assert len(np.unique(np.concatenate(sampled))) <= 3

    @pytest.mark.parametrize("shape", ["rect", "gauss"])
    def test_zero_lead_is_skipped(self, shape, monkeypatch):
        # at gamma_t = 1e-3 the pulse is exactly 0.0 on 96-99% of the
        # default grid's window; the panels start at rest past all of it
        spec = PulseSpec(PulseShape(shape), 1e-3)
        grid = default_grid_for(spec)
        n = orc.drive_window(spec, grid)
        lead = int(np.flatnonzero(_builtin_values(spec.shape, 1e-3, grid.times(0, n), grid.dt))[0])
        assert lead > 0.95 * n
        sampled = record_samples(monkeypatch)
        run_point(shape, 1e-3)
        t = np.concatenate(sampled)
        assert t.min() > grid.times(lead - 1, lead)[0]
        assert np.all(_piece_values(spec.shape, 1e-3, t) != 0.0)

    @pytest.mark.parametrize("shape", BUILTIN)
    def test_shortest_pulse_is_cheap(self, shape):
        # stepping the whole window from rest took 4-15 ms here
        def seconds():
            t0 = time.perf_counter()
            run_point(shape, 1e-3)
            return time.perf_counter() - t0
        assert min(seconds() for _ in range(5)) < 5e-3

    @pytest.mark.parametrize("gt", [100.0, 1e4])
    def test_long_rect_samples_few_nodes(self, gt, monkeypatch):
        # the panels double in width from -T; stepping the window samples
        # 33k nodes at gamma_t = 100
        sampled = record_samples(monkeypatch)
        run_point("rect", gt)
        assert sum(map(len, sampled)) < 1000


class TestOverlapIdentity:
    """For a real pulse on resonance, overlap = <psi1|b3> = -2 int u^4 dt,
    with u = (b_in - b1) / sqrt(2) the dipole's response: d(u^4)/dt =
    4 u^3 (-u + sqrt(2) b) turns the s3 chain's overlap into an integral of
    u alone. The check shares no code with that chain."""

    # the largest difference on the default grid is 4.9e-7 (rising-exp at
    # 1.557), the grid's own second-order error in either side
    @pytest.mark.parametrize("gt", [0.01, 0.3, 1.557, 30.0])
    @pytest.mark.parametrize("shape", BUILTIN)
    def test_overlap_is_minus_two_integral_u4(self, shape, gt):
        sol = solve_point(shape, gt)
        u = (sol.b_in.values - sol.pair.linear.values) / math.sqrt(2.0)
        want = -2.0 * trapezoid(np.abs(u) ** 4, dx=sol.grid.dt)
        assert abs(sol.decomposition.overlap - want) <= 5e-7


class TestContinuumPanels:
    """run_point's Chebyshev panels (`sweep._continuum_gram`)."""

    @pytest.mark.parametrize("shape", BUILTIN)
    def test_matches_the_judges(self, shape):
        # 15 log-spaced gamma_t over the whole range, and the symmetric
        # exponential's resonances: the largest gap measured is 6.1e-13
        # (rect at 10**-1.5, the extrapolation's own error)
        gts = [float(gt) for gt in np.logspace(-3.0, 4.0, 15)]
        if shape == "sym-exp":
            gts += [2 - 1e-9, 2 + 1e-9, 6 - 1e-9, 6 + 1e-9]
        for gt in gts:
            np.testing.assert_allclose(judged(run_point(shape, gt)), judge(shape, gt),
                                       rtol=0, atol=1e-12, err_msg=f"{shape} at gamma_t={gt!r}")
            gram = sweep_module._continuum_gram(PulseSpec(PulseShape(shape), gt))
            assert abs(gram[0, 0] - 1.0) <= 1e-13, (shape, gt)

    @pytest.mark.parametrize("shape", BUILTIN)
    def test_more_nodes_per_panel_agree(self, shape):
        # the degree is converged: measured at most 6e-15 apart
        for gt in np.logspace(-3.0, 4.0, 15):
            spec = PulseSpec(PulseShape(shape), float(gt))
            more = sweep_module._continuum_gram(spec, _PANEL_DEGREE + 8)
            np.testing.assert_allclose(gram_judged(sweep_module._continuum_gram(spec)),
                                       gram_judged(more), rtol=0, atol=1e-13,
                                       err_msg=f"{shape} at gamma_t={gt!r}")

    @pytest.mark.parametrize("shape", BUILTIN)
    def test_node_count_is_bounded(self, shape):
        # the widest cost measured is 1,785 nodes (sym-exp)
        for gt in np.logspace(-3.0, 4.0, 301):
            t = sweep_module._continuum_fields(PulseSpec(PulseShape(shape), float(gt)))[1]
            assert t.size <= 2000, (shape, gt)

    @pytest.mark.parametrize("shape", BUILTIN)
    def test_panels_follow_one_rule(self, shape):
        # every shape's panels tile its piece exactly, start at most
        # min(1/4, T/8) wide and are never wider than T/2; a width may pass
        # T/2 only by the 1e-9 that _panel_runs allows its last panel
        for gt in np.logspace(-3.0, 4.0, 301):
            t = sweep_module._continuum_fields(PulseSpec(PulseShape(shape), float(gt)))[1]
            piece = [gt * x for x in pulses_module.GEOMETRY[PulseShape(shape)].piece]
            assert [t[0, 0], t[-1, -1]] == piece, (shape, gt)
            np.testing.assert_array_equal(t[0, 1:], t[-1, :-1], err_msg=f"{shape} at {gt!r}")
            widths = t[-1] - t[0]
            assert widths[0] <= min(0.25, gt / 8.0), (shape, gt)
            assert widths.max() <= gt / 2.0 * (1.0 + 1e-9), (shape, gt)

    @pytest.mark.parametrize("shape", BUILTIN)
    def test_builds_no_grid(self, shape, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("run_point built a grid")
        monkeypatch.setattr(sweep_module, "default_grid_for", no_grid)
        monkeypatch.setattr(sweep_module, "sample_pulse", no_grid)
        for gt in (1e-3, 1.0, 1e4):
            run_point(shape, gt)

    @pytest.mark.parametrize("gt", [0.01, 1.0, 30.0, 1e3])
    @pytest.mark.parametrize("shape", BUILTIN)
    def test_overlap_is_minus_two_integral_u4(self, shape, gt):
        # TestOverlapIdentity's identity on the panels: int u^4 dt by their
        # Clenshaw-Curtis weights, the lead of a pulse on since t = -inf,
        # where u goes as e^(lam t), and the ringdown, where it goes as e^-t
        lam, _, weights, _, u, _ = sweep_module._continuum_fields(PulseSpec(PulseShape(shape), gt))
        u4_dt = np.sum(weights * u**4) + u[-1, -1] ** 4 / 4.0
        if lam:
            u4_dt += u[0, 0] ** 4 / (4.0 * lam)
        assert run_point(shape, gt).overlap_re == pytest.approx(-2.0 * u4_dt, rel=1e-13, abs=0)


class TestAdiabaticGauss:
    """From gamma_t = 100 on, the gaussian's adiabatic series
    (`_oracles.adiabatic_gram`) judges run_point, with no grid on either
    side."""

    @pytest.mark.parametrize("gt", [100.0, 300.0, 1000.0])
    def test_matches_the_richardson_value(self, gt):
        want = richardson("gauss", gt)
        err = np.abs(judged(run_point("gauss", gt)) - want)
        assert err.max() <= 1e-13
        assert np.all(err <= np.abs(stepped_gauss(gt) - want))

    def test_matches_stepping_at_the_range_end(self):
        # 20M nodes, whose second-order error is below 1e-16 here
        np.testing.assert_allclose(judged(run_point("gauss", 1e4)), stepped_gauss(1e4),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gt", [100.0, 1e3, 1e4])
    def test_overlap_is_minus_two_integral_u4(self, gt):
        # the continuum twin of TestOverlapIdentity: int u^4 dt from the
        # adiabatic series of u, by Gauss-Hermite quadrature in x = sqrt(8) s,
        # exact for polynomials below degree 2 * 64
        rt2 = math.sqrt(2.0)
        amp = math.sqrt(2.0 / (math.sqrt(math.pi) * gt))
        u = orc.adiabatic_series(np.array([rt2 * amp]), 2.0, gt)
        x, weights = np.polynomial.hermite.hermgauss(64)
        s = x / math.sqrt(8.0)
        u4_dt = gt * (weights @ np.polynomial.polynomial.polyval(s, u) ** 4) / math.sqrt(8.0)
        assert run_point("gauss", gt).overlap_re == pytest.approx(-2.0 * u4_dt, rel=1e-14, abs=0)

    @pytest.mark.parametrize("gt", [100.0, 1e3, 1e4])
    def test_u_is_the_causal_response(self, gt):
        # the Gram entries cannot tell u from its mirror image u(-t), the
        # anti-causal response; the closed form of u' = -u + sqrt(2) b can:
        # u = b(t) T sqrt(pi)/2 erfcx(sqrt(2) (T^2/4 - t) / T), here at the
        # panels' nodes: measured within 4.3e-15, 5.4e-15 and 5.3e-14 of
        # its peak, the rounding of collocation on panels up to 32, 256 and
        # 4,096 wide
        _, t, _, b, u, _ = sweep_module._continuum_fields(PulseSpec.gaussian(gt))
        exact = b * gt * math.sqrt(math.pi) / 2.0 * erfcx(math.sqrt(2.0) * (gt**2 / 4.0 - t) / gt)
        np.testing.assert_allclose(u, exact, rtol=0, atol=1e-13 * np.abs(exact).max())

    @pytest.mark.parametrize("gt", [100.0, 1000.0, 1e4])
    def test_builds_no_grid(self, gt, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("run_point built a grid")
        monkeypatch.setattr(sweep_module, "default_grid_for", no_grid)
        run_point("gauss", gt)

    def test_range_end_is_cheap(self):
        def seconds():
            t0 = time.perf_counter()
            run_point("gauss", 1e4)
            return time.perf_counter() - t0
        assert min(seconds() for _ in range(5)) < 2e-3

    def test_independent_of_the_grid_policy(self, monkeypatch):
        # a coarse default policy moves the stepped waveform path, not the
        # panels
        want = run_point("gauss", 300.0)
        coarse = GridPolicy(samples_per_unit=50, lead_pad=0.0, tail=5.0)
        monkeypatch.setattr(pulses_module, "DEFAULT_POLICY", coarse)
        monkeypatch.setattr(sweep_module, "DEFAULT_POLICY", coarse)
        monkeypatch.setattr(default_grid_for, "__defaults__", (coarse,))
        monkeypatch.setattr(sweep_module.solve_spec, "__defaults__", (coarse,))
        monkeypatch.setattr(sweep_module.solve_point, "__defaults__", (coarse,))
        assert solve_point("gauss", 300.0).grid.dt == coarse.step_for(300.0)
        assert run_point("gauss", 300.0) == want

    def test_unsettled_series_raises(self):
        # below gamma_t = 100 the asymptotic series stalls above 2**-53, and
        # the judge refuses rather than return it
        with pytest.raises(SolverError, match="not settled within 16 terms"):
            orc.adiabatic_gram(70.0)


def test_default_sweep_matches_pinned_rows():
    """The default 121-point sweep of each shape against
    tests/data/default_sweep.csv at 17 significant digits: rows of the
    continuum amplitudes, pinned after every row was checked against its
    judge (`_oracles.judge_gram`, CHANGES.md). 1e-13 leaves room for the
    rounding of matrix products, which differs between BLAS builds."""
    pinned = {}
    with open(Path(__file__).parent / "data" / "default_sweep.csv") as fh:
        assert next(fh).rstrip("\n").split(",") == ["shape", "gamma_t", *ROW_FIELDS]
        for line in fh:
            shape, *values = line.rstrip("\n").split(",")
            pinned.setdefault(shape, []).append([float(v) for v in values])
    assert sorted(pinned) == sorted(BUILTIN)
    for shape in BUILTIN:
        got = np.array([[r.gamma_t, *row_fields(r)] for r in sweep(shape)])
        np.testing.assert_allclose(got, np.array(pinned[shape]), rtol=0, atol=1e-13, err_msg=shape)


# Runs in a fresh interpreter, whose peak resident set is the solves' own.
# It reads VmHWM, not ru_maxrss: Linux carries ru_maxrss over fork and exec,
# so a child of this test process would report the test process's peak.
RANGE_ENDS_SCRIPT = """
import json, time
from pulsegate import run_point
rows = []
for shape in ("rect", "rising-exp", "sym-exp", "gauss"):
    for gt in (1e-3, 1e4):
        t0 = time.perf_counter()
        r = run_point(shape, gt)
        rows.append([shape, gt, time.perf_counter() - t0, r.c12_sq, r.overlap_re, r.overlap_im])
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"rows": rows, "peak_rss_mb": hwm_kb / 1024}))
"""


def test_range_ends_in_bounded_memory():
    src = str(Path(pulsegate.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", RANGE_ENDS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for shape, gt, seconds, c12_sq, ov_re, ov_im in out["rows"]:
        print(f"run_point({shape}, {gt:g}): {seconds * 1e3:.0f} ms")
        if shape == "rising-exp":
            assert abs(c12_sq - orc.rising_c12_sq(gt)) <= 1e-5
            assert abs(complex(ov_re, ov_im) - orc.rising_overlap(gt)) <= 1e-5
    print(f"peak RSS {out['peak_rss_mb']:.0f} MB")
    assert out["peak_rss_mb"] < 200


class TestWaveformNodeBudget:
    def test_range_end_exceeds_the_budget(self):
        # default_grid_for is arithmetic on the policy: no samples are made
        tracemalloc.start()
        try:
            long = default_grid_for(PulseSpec.symmetric_exponential(1e4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert long.n > sweep_module.WAVEFORM_NODE_BUDGET
        grid = default_grid_for(PulseSpec.symmetric_exponential(1000.0))
        assert grid.n <= sweep_module.WAVEFORM_NODE_BUDGET

    def test_solve_peak_memory_per_node(self):
        # the figure WAVEFORM_NODE_BUDGET is sized by: 56 bytes per node
        spec = PulseSpec.rectangular(0.1)     # 206k nodes
        solve_spec(spec)                      # warm caches and lazy imports
        tracemalloc.start()
        try:
            solve_spec(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * default_grid_for(spec).n

    def test_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("a refused grid was sampled")
        monkeypatch.setattr(sweep_module, "sample_pulse", no_sampling)
        monkeypatch.setattr(sweep_module, "WAVEFORM_NODE_BUDGET", 1000)
        grid = default_grid_for(PulseSpec.gaussian(1.0))
        with pytest.raises(ConfigError, match=f"{grid.n} nodes.*budget of 1000"):
            solve_point("gauss", 1.0)
