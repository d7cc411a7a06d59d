"""Acceptance suite: every numbered criterion, printed pass/fail per item.

Run with `pytest tests/test_acceptance.py -v -s` to see the measurement
lines. The expensive fixtures (full default sweeps on the default grid
and of the continuum amplitudes) are computed once per session and shared.

Two reference points encoded in criterion 1 are not attainable from the
defining pulse formulas (see the assertion messages and README): the
symmetric-exponential peak value and the gaussian peak location. Both
assertions are kept faithful to the reference table and fail with the
measured numbers; every other criterion passes.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import pulsegate as pg
from pulsegate.bloch import decay_block
from pulsegate.sweep import DEFAULT_SWEEP_POINTS, DEFAULT_SWEEP_RANGE, sweep_durations

import _oracles as orc

SHAPES = ["rect", "rising-exp", "sym-exp", "gauss"]

# criterion 1 reference table: shape -> (gamma_t*, tol_rel, c12_sq*, tol_abs)
PEAK_TABLE = {
    "rect":       (1.56, 0.05, 0.66, 0.01),
    "rising-exp": (1.00, 0.05, 0.667, 0.01),
    "sym-exp":    (0.78, 0.05, 0.67, 0.01),
    "gauss":      (2.00, 0.05, 0.64, 0.01),
}


def _audit_point(task):
    """One sweep point plus the conservation numbers criterion 7 needs."""
    shape, gt = task
    sol = pg.solve_point(shape, gt)
    d = sol.decomposition
    n1 = pg.norm_sq(sol.pair.linear)
    orth = abs(pg.inner_product(d.psi1, d.psi2)) if d.psi2 is not None else 0.0
    return (gt, d.c11, d.c12_sq, d.cr_sq, d.overlap, n1, orth)




@pytest.fixture(scope="session")
def default_audit():
    gts = sweep_durations(*DEFAULT_SWEEP_RANGE, DEFAULT_SWEEP_POINTS)
    out = {}
    with ProcessPoolExecutor(max_workers=2) as pool:
        for shape in SHAPES:
            out[shape] = list(pool.map(_audit_point, [(shape, float(g)) for g in gts]))
    return out


@pytest.fixture(scope="session")
def continuum_rows():
    # run_point's continuum amplitudes, which build no grid: the limit the
    # default grid's values converge to
    return {shape: [(r.c11_sq, r.c12_sq, r.cr_sq) for r in pg.sweep(shape)] for shape in SHAPES}


@pytest.fixture(scope="session")
def peaks():
    t0 = time.monotonic()
    found = {shape: pg.find_peak_c12(shape) for shape in SHAPES}
    return found, time.monotonic() - t0


# -- criterion 1: peak photon-transfer table --------------------------------

@pytest.mark.parametrize("shape", SHAPES)
def test_criterion_1_peak_table(peaks, shape):
    found, _ = peaks
    gt_ref, gt_tol, c12_ref, c12_tol = PEAK_TABLE[shape]
    res = found[shape]
    print(f"criterion 1 [{shape}]: gamma_t*={res.gamma_t_star:.4f} "
          f"(ref {gt_ref} +-{gt_tol:.0%}), c12_sq*={res.c12_sq_star:.5f} "
          f"(ref {c12_ref} +-{c12_tol})")
    assert abs(res.c12_sq_star - c12_ref) <= c12_tol, (
        f"{shape}: measured peak transfer {res.c12_sq_star:.5f} vs reference "
        f"{c12_ref}+-{c12_tol}. The peak value of a shape family is invariant "
        f"under any re-parametrization of its duration, so no duration "
        f"convention can reach the reference number for this defining formula "
        f"(solver validated against closed forms and an independent adaptive "
        f"integrator).")
    assert abs(res.gamma_t_star - gt_ref) <= gt_tol * gt_ref, (
        f"{shape}: measured peak location gamma_t*={res.gamma_t_star:.4f} vs "
        f"reference {gt_ref}+-{gt_tol:.0%}. The measured peak value "
        f"{res.c12_sq_star:.4f} matches the reference value, and the same "
        f"pipeline reproduces the rising-exponential peak exactly (2/3 at "
        f"gamma_t=1, analytic), so the reference location for this shape is "
        f"inconsistent with its defining formula by a duration factor of "
        f"{gt_ref / res.gamma_t_star:.3f}.")


def test_criterion_1_runtime(peaks):
    _, elapsed = peaks
    print(f"criterion 1 runtime: {elapsed:.1f}s for all four refinements (< 30 s)")
    assert elapsed < 30.0


# -- criterion 2: vanishing c11 at the transfer peaks ------------------------

@pytest.mark.parametrize("shape", SHAPES)
def test_criterion_2_vanishing_c11(peaks, shape):
    found, _ = peaks
    c11_sq = abs(found[shape].c11_at_peak) ** 2
    print(f"criterion 2 [{shape}]: |c11|^2 at peak = {c11_sq:.2e} (< 0.05)")
    assert c11_sq < 0.05


# -- criterion 3: phase-flip magnitudes --------------------------------------

def test_criterion_3_phase_flip(default_audit):
    flip = {}
    for shape, rows in default_audit.items():
        vals = [abs(c11) ** 2 for (_, c11, *_ ) in rows if c11.real < 0]
        flip[shape] = max(vals) if vals else 0.0
    print("criterion 3: flip maxima " +
          ", ".join(f"{s}={flip[s]:.4f}" for s in SHAPES))
    for shape in ("gauss", "sym-exp"):
        assert flip[shape] == pytest.approx(0.2, abs=0.05)
    for shape in ("rect", "rising-exp"):
        assert flip[shape] < 0.05


# -- criterion 4: nonlinearity window -----------------------------------------

def test_criterion_4_window(default_audit):
    for shape, rows in default_audit.items():
        for idx, label in ((0, "gamma_t=0.01"), (-1, "gamma_t=1000")):
            gt, c11, c12_sq, *_ = rows[idx]
            print(f"criterion 4 [{shape} {label}]: c12_sq={c12_sq:.2e}, "
                  f"|c11-1|={abs(c11 - 1):.2e} (< 0.05)")
            assert c12_sq < 0.05
            assert abs(c11 - 1) < 0.05


# -- criterion 5: rising-exponential time separation --------------------------

def test_criterion_5_rising_separation():
    policy = pg.GridPolicy(samples_per_unit=4000, lead_pad=8.0)
    psi1, _ = pg.solve_point("rising-exp", 1.0, policy).modes()
    t = psi1.times()
    worst = float(np.max(np.abs(psi1.values[t < 0])))
    print(f"criterion 5: max |psi1(t<0)| = {worst:.2e} (< 1e-6)")
    assert worst < 1e-6


# -- criterion 6: quantum-limit circle over the full sweep --------------------

def test_criterion_6_quantum_limit(default_audit):
    worst_circle = worst_re = worst_reduction = -np.inf
    for rows in default_audit.values():
        for gt, c11, c12_sq, cr_sq, overlap, n1, orth in rows:
            worst_circle = max(worst_circle, abs(overlap + 1) - 1)
            worst_re = max(worst_re, overlap.real)
            bound = -(1 - math.sqrt(max(1 - c12_sq, 0.0)))
            worst_reduction = max(worst_reduction, overlap.real - bound)
    print(f"criterion 6: max(|v+1|-1)={worst_circle:.2e} (<=1e-6), "
          f"max Re v={worst_re:.2e} (<=1e-8), "
          f"max reduction excess={worst_reduction:.2e} (<=1e-6)")
    assert worst_circle <= 1e-6
    assert worst_re <= 1e-8
    assert worst_reduction <= 1e-6


# -- criterion 7: conservation and orthonormality -----------------------------

def test_criterion_7_conservation(default_audit):
    worst_norm = worst_orth = worst_budget = worst_cr = 0.0
    for rows in default_audit.values():
        for gt, c11, c12_sq, cr_sq, overlap, n1, orth in rows:
            worst_norm = max(worst_norm, abs(n1 - 1))
            worst_orth = max(worst_orth, orth)
            worst_budget = max(worst_budget, abs(abs(c11) ** 2 + c12_sq + cr_sq - 1))
            worst_cr = min(worst_cr, cr_sq)
    print(f"criterion 7: max|b1 norm-1|={worst_norm:.2e} (<=1e-6), "
          f"max|<psi1,psi2>|={worst_orth:.2e} (<=1e-8), "
          f"max budget defect={worst_budget:.2e} (<=1e-6), "
          f"min cr_sq={worst_cr:.2e} (>=-1e-6)")
    assert worst_norm <= 1e-6
    assert worst_orth <= 1e-8
    assert worst_budget <= 1e-6
    assert worst_cr >= -1e-6


# -- criterion 8: brute-force oracle equivalence ------------------------------

@pytest.mark.parametrize("shape", SHAPES)
def test_criterion_8_oracle_equivalence(peaks, shape):
    found, _ = peaks
    gt = found[shape].gamma_t_star
    policy = pg.GridPolicy(samples_per_unit=2000)
    sol = pg.solve_spec(pg.PulseSpec(pg.PulseShape(shape), gt), policy)
    est1, est3 = pg.perturbative_extraction(
        sol.b_in, pg.SystemParams(), [0.02, 0.04, 0.06], deflate_fifth_order=True)

    def rel(err_sig, ref_sig):
        num = pg.norm_sq(pg.ComplexSignal(sol.grid, err_sig.values - ref_sig.values))
        return math.sqrt(num / pg.norm_sq(ref_sig))

    r1 = rel(est1, sol.pair.linear)
    r3 = rel(est3, sol.pair.cubic)
    print(f"criterion 8 [{shape}]: rel L2 b1={r1:.2e}, b3={r3:.2e} (< 1e-3)")
    assert r1 < 1e-3
    assert r3 < 1e-3


@pytest.mark.parametrize("shape", SHAPES)
def test_criterion_8_excitation_identity(peaks, shape):
    # the order-|a|^2 equation integrated as an ODE must land on |s1|^2
    found, _ = peaks
    gt = found[shape].gamma_t_star
    policy = pg.GridPolicy(samples_per_unit=16000)
    spec = pg.PulseSpec(pg.PulseShape(shape), gt)
    grid = pg.default_grid_for(spec, policy)
    b = pg.sample_pulse(spec, grid)
    u = pg.linear_response(b)
    s1 = 1j * u.values      # u = s1/i
    drive = 1j * math.sqrt(2.0) * (b.values * np.conj(s1) - np.conj(b.values) * s1)
    sz2_ode = decay_block(drive, 2.0, grid.dt)
    dev = float(np.max(np.abs(sz2_ode - pg.second_order_excitation(u).values)))
    print(f"criterion 8 [{shape}]: max |sz2_ode - |s1|^2| = {dev:.2e} (< 1e-8)")
    assert dev < 1e-8


# -- criterion 9: analytic oracles --------------------------------------------

def test_criterion_9_rect_closed_form():
    policy = pg.GridPolicy(samples_per_unit=6000)
    spec = pg.PulseSpec.rectangular(1.0)
    grid = pg.default_grid_for(spec, policy)
    s1 = 1j * pg.linear_response(pg.sample_pulse(spec, grid)).values
    dev = float(np.max(np.abs(s1 - orc.rect_sigma1(grid.times(), 1.0))))
    print(f"criterion 9: rect sigma1 max deviation = {dev:.2e} (< 1e-8)")
    assert dev < 1e-8


def test_criterion_9_long_pulse_reflection():
    sol = pg.solve_point("gauss", 1000.0)
    ip = pg.inner_product(sol.b_in, sol.pair.linear).real
    print(f"criterion 9: <b_in|b1> at gamma_t=1000 = {ip:.6f} (-1 +- 0.05)")
    assert ip == pytest.approx(-1.0, abs=0.05)


# -- criterion 10: grid convergence -------------------------------------------

@pytest.mark.parametrize("shape", SHAPES)
def test_criterion_10_convergence(default_audit, continuum_rows, shape):
    # the default grid against the continuum it converges to: an error
    # bound for the grid, where halving dt bounds it by the shift
    worst = 0.0
    for (gt, c11, c12_sq, cr_sq, *_), (h11, h12, hcr) in zip(
            default_audit[shape], continuum_rows[shape]):
        worst = max(worst, abs(abs(c11) ** 2 - h11), abs(c12_sq - h12),
                    abs(cr_sq - hcr))
    print(f"criterion 10 [{shape}]: max |C_i|^2 gap, default grid against "
          f"continuum = {worst:.2e} (< 1e-4)")
    assert worst < 1e-4
