"""Pulse-duration sweeps, photon-transfer peak search, and mode export.

For a fixed shape the physics depends only on gamma_t = Gamma*T, so a
sweep runs the full pipeline (sample -> dipole chain -> outputs -> two
photon amplitudes) once per duration. Points are independent pure
computations evaluated in ascending order, which makes emitted tables
bit-reproducible. The grid is re-derived per point from the policy so
each point is converged on its own terms.

Each point is solved on the drive window of its grid (pulses.drive_window):
past the pulse every waveform is in free decay, which inner products sum
in closed form to the grid end. Amplitude-only paths (sweeps, the peak
search) never sample that ringdown; solve_spec fills it in afterwards so
its waveforms cover the whole grid.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .bloch import SystemParams, solve_chain
from .errors import DurationRangeError, NoPeakError, SolverError, UndefinedModeError
from .output import OutputPair, assemble_outputs
from .pulses import (DEFAULT_POLICY, GridPolicy, PulseShape, PulseSpec, default_grid_for,
                     drive_window, sample_pulse)
from .signal import ComplexSignal, TimeGrid
from .twophoton import OutputDecomposition, LimitReport, decompose, limit_report

GAMMA_T_MIN = 1e-3
GAMMA_T_MAX = 1e4

DEFAULT_SWEEP_RANGE = (0.01, 1000.0)
DEFAULT_SWEEP_POINTS = 121

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

ShapeLike = Union[PulseShape, str]


@dataclass(frozen=True)
class SweepRow:
    """Two-photon amplitudes at one pulse duration."""

    gamma_t: float
    c11_re: float
    c11_im: float
    c11_sq: float
    c12_sq: float
    cr_sq: float
    overlap_re: float
    overlap_im: float


@dataclass(frozen=True)
class PeakResult:
    """Refined maximum of the photon-transfer probability c12_sq."""

    shape: PulseShape
    gamma_t_star: float
    c12_sq_star: float
    c11_at_peak: complex


@dataclass(frozen=True)
class PointSolution:
    """Everything computed at one duration: waveforms, amplitudes, margins."""

    spec: PulseSpec
    gamma_t: float
    grid: TimeGrid
    b_in: ComplexSignal
    pair: OutputPair
    decomposition: OutputDecomposition
    limit: LimitReport


def _as_shape(shape: ShapeLike) -> PulseShape:
    if isinstance(shape, PulseShape):
        return shape
    try:
        return PulseShape(str(shape))
    except ValueError:
        names = ", ".join(s.value for s in PulseShape)
        raise DurationRangeError(f"unknown pulse shape {shape!r}; expected one of {names}") from None


def _builtin_spec(shape: PulseShape, gamma_t: float) -> PulseSpec:
    if not (GAMMA_T_MIN <= gamma_t <= GAMMA_T_MAX):
        raise DurationRangeError(
            f"gamma_t={gamma_t:g} outside the supported range "
            f"[{GAMMA_T_MIN:g}, {GAMMA_T_MAX:g}]")
    return PulseSpec(shape, float(gamma_t))


def _solve_window(spec: PulseSpec, policy: GridPolicy) -> PointSolution:
    """The pipeline on the drive window of the policy grid; the waveforms of
    the result are stored up to the end of the drive only."""
    params = SystemParams()
    grid = drive_window(spec, default_grid_for(spec, policy))
    b_in = sample_pulse(spec, grid)
    chain = solve_chain(b_in, params)
    pair = assemble_outputs(b_in, chain, params)
    del chain  # the dipole orders are large at long durations; done with them
    dec = decompose(pair)
    return PointSolution(spec=spec, gamma_t=spec.duration, grid=grid, b_in=b_in,
                         pair=pair, decomposition=dec,
                         limit=limit_report(dec.overlap, dec.c12_sq))


def solve_spec(spec: PulseSpec, policy: GridPolicy = DEFAULT_POLICY) -> PointSolution:
    """Run the full pipeline for an already-built pulse spec; every waveform
    of the result is sampled on the whole policy grid."""
    sol = _solve_window(spec, policy)
    if sol.grid.tail == 0:
        return sol
    grid = sol.grid.filled()
    dec = sol.decomposition
    psi2 = dec.psi2.filled() if dec.psi2 is not None else None
    return replace(sol, grid=grid, b_in=sample_pulse(spec, grid),
                   pair=OutputPair(sol.pair.linear.filled(), sol.pair.cubic.filled()),
                   decomposition=replace(dec, psi1=dec.psi1.filled(), psi2=psi2))


def solve_point(shape: ShapeLike, gamma_t: float,
                policy: GridPolicy = DEFAULT_POLICY) -> PointSolution:
    """Full pipeline for a built-in shape at duration gamma_t."""
    return solve_spec(_builtin_spec(_as_shape(shape), gamma_t), policy)


def _row_from(sol: PointSolution) -> SweepRow:
    d = sol.decomposition
    return SweepRow(gamma_t=sol.gamma_t,
                    c11_re=d.c11.real, c11_im=d.c11.imag,
                    c11_sq=d.c11_sq, c12_sq=d.c12_sq, cr_sq=d.cr_sq,
                    overlap_re=d.overlap.real, overlap_im=d.overlap.imag)


def run_point(shape: ShapeLike, gamma_t: float,
              policy: GridPolicy = DEFAULT_POLICY) -> SweepRow:
    """One sweep row: the amplitudes only, the ringdown never sampled."""
    return _row_from(_solve_window(_builtin_spec(_as_shape(shape), gamma_t), policy))


def sweep_durations(gt_min: float, gt_max: float, n_points: int,
                    log_spaced: bool = True) -> np.ndarray:
    """The duration grid a sweep will evaluate (validated)."""
    if not (0 < gt_min < gt_max):
        raise DurationRangeError(f"need 0 < gt_min < gt_max, got ({gt_min}, {gt_max})")
    if n_points < 2:
        raise DurationRangeError(f"need at least 2 sweep points, got {n_points}")
    if log_spaced:
        return np.logspace(math.log10(gt_min), math.log10(gt_max), n_points)
    return np.linspace(gt_min, gt_max, n_points)


def _point_task(task: tuple) -> SweepRow:
    shape, gt, policy = task
    return run_point(shape, gt, policy)


def sweep(shape: ShapeLike, gt_min: float = DEFAULT_SWEEP_RANGE[0],
          gt_max: float = DEFAULT_SWEEP_RANGE[1],
          n_points: int = DEFAULT_SWEEP_POINTS, log_spaced: bool = True,
          policy: GridPolicy = DEFAULT_POLICY, workers: int = 1) -> list[SweepRow]:
    """Rows for n_points durations between gt_min and gt_max, ascending.

    Points are independent pure computations; with workers > 1 they are
    evaluated in a process pool and collected in duration order, so the
    result (and any file written from it) is identical either way.
    """
    gts = sweep_durations(gt_min, gt_max, n_points, log_spaced)
    tasks = [(shape, float(gt), policy) for gt in gts]
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(_point_task, tasks)
        return list(_iter_annotated(results, gts))


def _iter_annotated(results, gts):
    """Yield the results in order, naming the duration of a failed point."""
    it = iter(results)
    for gt in gts:
        try:
            yield next(it)
        except SolverError as exc:
            raise type(exc)(f"at gamma_t={gt:g}: {exc}") from exc
        except BrokenProcessPool as exc:
            raise SolverError(f"at gamma_t={gt:g}: a sweep worker process died ({exc})") from exc


def find_peak_c12(shape: ShapeLike, bracket: tuple[float, float] = (0.1, 20.0),
                  policy: GridPolicy = DEFAULT_POLICY, rel_tol: float = 1e-3,
                  n_probe: int = 13) -> PeakResult:
    """Locate the c12_sq maximum inside the bracket.

    A coarse log-spaced probe seeds a golden-section refinement on
    log(gamma_t); if the probe maximum sits on a bracket edge there is no
    interior peak and NoPeakError is raised.
    """
    shape = _as_shape(shape)
    lo, hi = bracket
    if not (0 < lo < hi):
        raise DurationRangeError(f"bad peak bracket ({lo}, {hi})")

    def value(gt: float) -> float:
        return run_point(shape, gt, policy).c12_sq

    probes = np.logspace(math.log10(lo), math.log10(hi), n_probe)
    vals = [value(float(g)) for g in probes]
    k = int(np.argmax(vals))
    if k == 0 or k == n_probe - 1:
        raise NoPeakError(
            f"c12_sq is maximal at the bracket edge gamma_t={probes[k]:g}; "
            "no interior peak to refine")

    la, lb = math.log(probes[k - 1]), math.log(probes[k + 1])
    lc = lb - _GOLDEN * (lb - la)
    ld = la + _GOLDEN * (lb - la)
    fc, fd = value(math.exp(lc)), value(math.exp(ld))
    while lb - la > math.log1p(rel_tol):
        if fc > fd:
            lb, ld, fd = ld, lc, fc
            lc = lb - _GOLDEN * (lb - la)
            fc = value(math.exp(lc))
        else:
            la, lc, fc = lc, ld, fd
            ld = la + _GOLDEN * (lb - la)
            fd = value(math.exp(ld))
    gt_star = math.exp(0.5 * (la + lb))
    row = run_point(shape, gt_star, policy)
    return PeakResult(shape=shape, gamma_t_star=gt_star, c12_sq_star=row.c12_sq,
                      c11_at_peak=complex(row.c11_re, row.c11_im))


def mode_shapes_at(shape: ShapeLike, gamma_t: float,
                   policy: GridPolicy = DEFAULT_POLICY,
                   ) -> tuple[ComplexSignal, ComplexSignal]:
    """The two orthonormal output mode waveforms at one duration."""
    sol = solve_point(shape, gamma_t, policy)
    dec = sol.decomposition
    if dec.psi2 is None:
        raise UndefinedModeError(
            f"photon transfer is negligible at gamma_t={gamma_t:g}; "
            "the orthogonal mode has no defined shape")
    return dec.psi1, dec.psi2
