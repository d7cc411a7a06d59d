"""Pulse-duration sweeps, photon-transfer peak search, and mode export.

For a fixed shape the physics depends only on gamma_t = Gamma*T, so a
sweep runs the full pipeline (sample -> dipole chain -> outputs -> two
photon amplitudes) once per duration. Points are independent pure
computations evaluated in ascending order, which makes emitted tables
bit-reproducible. The grid is re-derived per point from the policy so
each point is converged on its own terms.

The amplitude-only path (run_point, which sweeps and the peak search
use) streams the drive window of the grid (pulses.drive_window) through
blocks of BLOCK_NODES nodes and keeps only the three overlap integrals
the amplitudes need, so its memory does not grow with the grid. Two
stretches are summed in closed form instead of stepped. Where the pulse is
one exponential over a run of nodes (the rectangular plateau, the rising
exponential, either side of the symmetric exponential's kink), the outputs
become exponentials once the chain's transients have decayed, and the rest
of the run is a geometric sum: a long pulse costs a few blocks, not one
step per node. Past the window every waveform is in free decay, whose
trapezoid sum to the grid end is added the same way. solve_spec runs the
array pipeline on every node of the grid and stores every waveform; it
refuses grids above WAVEFORM_NODE_BUDGET nodes.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bloch import SystemParams, _etd_weights, decay_block, solve_chain
from .errors import (ConfigError, DurationRangeError, NoPeakError, SolverError,
                     UndefinedModeError)
from .output import OutputPair, assemble_outputs, check_linear_norm
from .pulses import (DEFAULT_POLICY, GridPolicy, PulseShape, PulseSpec, _builtin_values,
                     _exponential_runs, check_span, default_grid_for, drive_window,
                     sample_pulse)
from .signal import ComplexSignal, TimeGrid, _dot, _geometric_sum, require_finite
from .twophoton import OutputDecomposition, LimitReport, amplitudes, decompose, limit_report

GAMMA_T_MIN = 1e-3
GAMMA_T_MAX = 1e4

# Nodes per block of run_point's streamed solve: the dozen block-long
# arrays alive at once stay in cache, whatever the grid's length.
BLOCK_NODES = 16384
# solve_spec's traced peak is 104 bytes per node (the pulse, the dipole
# orders and the outputs at 8-16 bytes each): 2**24 nodes is about 1.74 GB,
# the most a 2-core / 7 GB machine is asked to hold.
WAVEFORM_NODE_BUDGET = 2**24
# An exponential run is summed in closed form once its transients are below
# 2**-53 of its driven part, the rounding of the node values it replaces.
_SETTLED = 2.0**-53
# the largest argument math.exp takes without overflow
_EXP_MAX = math.log(sys.float_info.max)

DEFAULT_SWEEP_RANGE = (0.01, 1000.0)
DEFAULT_SWEEP_POINTS = 121

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PEAK_PROBES = 13       # find_peak_c12's log-spaced probes across the bracket
_PEAK_REL_TOL = 1e-3    # and the relative width in gamma_t its refinement ends at

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


def solve_spec(spec: PulseSpec, policy: GridPolicy = DEFAULT_POLICY) -> PointSolution:
    """Run the full pipeline for an already-built pulse spec on every node
    of its policy grid. A grid over WAVEFORM_NODE_BUDGET nodes raises
    ConfigError before anything is sampled."""
    grid = default_grid_for(spec, policy)
    if grid.n > WAVEFORM_NODE_BUDGET:
        raise ConfigError(
            f"the waveform grid has {grid.n} nodes, over the budget of "
            f"{WAVEFORM_NODE_BUDGET}; use fewer points per unit, or the "
            "amplitude-only sweep and peak, which solve any grid in bounded memory")
    params = SystemParams()
    b_in = sample_pulse(spec, grid)
    chain = solve_chain(b_in, params)
    pair = assemble_outputs(b_in, chain, params)
    del chain  # the dipole orders are large at long durations; done with them
    dec = decompose(pair)
    return PointSolution(spec=spec, gamma_t=spec.duration, grid=grid, b_in=b_in,
                         pair=pair, decomposition=dec,
                         limit=limit_report(dec.overlap, dec.c12_sq))


def solve_point(shape: ShapeLike, gamma_t: float,
                policy: GridPolicy = DEFAULT_POLICY) -> PointSolution:
    """Full pipeline for a built-in shape at duration gamma_t."""
    return solve_spec(_builtin_spec(_as_shape(shape), gamma_t), policy)


def _settling_nodes(lam: float, dt: float, b: float, u: float, w: float,
                    limit: int) -> int | None:
    """Nodes after a node of a run of b = C exp(lam t) at which the state
    (u, w) there is its driven part to 2**-53; None if that is `limit` or
    more nodes on, or cannot be told.

    With rho = exp(lam dt), the ETD recurrence driven by x1 = sqrt(2) b is
    solved by u = c x1 + transient, c = (w0 + w1 rho) / (rho - E), and the
    one driven by x3 = -2 sqrt(2) b u^2 by w = d P + transient, with P the
    x3 of u = c x1 and d = (w0 + w1 rho^3) / (rho^3 - E). Relative to the
    driven parts the transients shrink by tau = E / min(rho, rho^3) per
    node. So k nodes on, they are at most (du + dw) tau^k, from the
    mismatches du and dw of u and w measured here, plus the response of w
    to the forcing (2 + du) du that u's mismatch puts into x3, at most
    (2 + du) du |1 - E / rho^3| k tau^(k-1): a factor k, since that
    forcing resonates with w's own decay on the rectangular plateau.
    """
    E, w0, w1 = _etd_weights(1.0, dt)
    log_tau = -dt * (1.0 + min(lam, 3.0 * lam))
    # rho - E and rho^3 - E without cancellation: 1 - E is exact
    gap1 = math.expm1(lam * dt) + (1.0 - E)
    gap3 = math.expm1(3.0 * lam * dt) + (1.0 - E)
    if log_tau >= 0.0 or min(gap1, gap3) <= 0.0:
        # tau >= 1, the symmetric exponential's trailing side at T <= 6:
        # the driven part decays as fast as the transients or faster
        return None
    rho = math.exp(lam * dt)
    u_drv = (w0 + w1 * rho) / gap1 * math.sqrt(2.0) * b
    w_drv = (w0 + w1 * rho**3) / gap3 * (-2.0 * math.sqrt(2.0) * b * u_drv * u_drv)
    if not min(abs(u_drv), abs(w_drv)) >= sys.float_info.min:
        return None     # underflowed (a long lead-in): nothing to measure against
    du = abs(u - u_drv) / abs(u_drv)
    dw = abs(w - w_drv) / abs(w_drv)
    cross = (2.0 + du) * du * abs(gap3) / rho**3 / math.exp(log_tau)
    if not math.isfinite(dw + cross):
        return None
    # smallest k with (du + dw + cross k) tau^k <= 2**-53, by a fixed-point
    # iteration that climbs to it from k = 0
    k = 0
    while True:
        bound = du + dw + cross * k
        k_next = 0 if bound <= _SETTLED else math.ceil(math.log(_SETTLED / bound) / log_tau)
        if k_next >= limit:
            return None
        if k_next <= k:
            return k
        k = k_next


def _run_sums(lam: float, dt: float, k: int, b1: float, b3: float) -> np.ndarray:
    """[[sum b1^2, sum b1 b3], [sum b1 b3, sum b3^2]] over k nodes of a run
    on which b1 and b3 change by exp(lam dt) and exp(3 lam dt) per node,
    anchored at the larger end: for lam > 0, (b1, b3) are the values at the
    last of the k nodes and the terms shrink down from it; otherwise they
    are the values at the node before the first and the terms shrink up
    from it."""
    def weight(p: float) -> float:
        x = p * abs(lam) * dt
        return 1.0 + _geometric_sum(x, k - 1) if lam > 0 else _geometric_sum(x, k)
    d13 = b1 * b3 * weight(4.0)
    return np.array(((b1 * b1 * weight(2.0), d13), (d13, b3 * b3 * weight(6.0))))


def _output_gram(spec: PulseSpec, grid: TimeGrid) -> np.ndarray:
    """Trapezoid Gram matrix of the outputs of a built-in pulse on `grid`,
    [[<b1|b1>, <b1|b3>], [<b3|b1>, <b3|b3>]].

    The chain runs block by block over the drive window: the pulse is
    sampled at the block's node times, s1 = i u and s3 = i w follow from
    the ETD recurrence (all real on resonance), and the block's
    b1 = b - sqrt(2) u and b3 = -sqrt(2) w only add to the running sums.
    Every node value is bitwise the one the array pipeline computes; only
    the summation order differs.

    One state passes between blocks: the node state (x1, u, x3, w), the
    drives sqrt(2) b and -2 sqrt(2) b u^2 and their responses, and the end
    pair (b1, b3) at the last node done; at first, node 0 with the chain at
    rest. Each block and each take-over reads it and leaves its last node.

    Two stretches are summed in closed form instead. Inside a run on which
    the pulse is one exponential exp(lam t) (pulses._exponential_runs), the
    state at each block end is checked: once the transients left from the
    run's entry are below 2**-53 of the driven part (_settling_nodes), b1
    and b3 go as exp(lam t) and exp(3 lam t) to the run's last node, so the
    blocks step only to that node, the rest of the run enters as geometric
    sums, and the state jumps to the run's last node, from which stepping
    resumes. The pulse's jumps and kink are always stepped. On the nodes
    past the window b1 and b3 are their last window values times
    exp(-(t - t_last)), so those nodes enter as the last node's closed-form
    trapezoid weight.
    """
    check_span(spec, grid)
    shape, T, dt = spec.shape, spec.duration, grid.dt
    n = drive_window(spec, grid)
    runs = [(lo, min(hi, n - 1), lam) for lo, hi, lam in _exponential_runs(shape, T, grid)]
    rt2 = math.sqrt(2.0)
    gram = np.zeros((2, 2))
    state = (None, 0.0, None, 0.0)
    first = end = np.array((_builtin_values(shape, T, grid.times(0, 1), dt)[0], 0.0))
    a, jump = 0, None
    while a < n:
        stop = min(a + BLOCK_NODES, n, n if jump is None else jump[0] + 1)
        b = _builtin_values(shape, T, grid.times(a, stop), dt)
        x1 = rt2 * b
        u = decay_block(x1, 1.0, dt, *state[:2])
        x3 = -2.0 * rt2 * b
        x3 *= u * u
        w = decay_block(x3, 1.0, dt, *state[2:])
        b1 = u * -rt2
        b1 += b
        b3 = w * -rt2
        d13 = _dot(b1, b3)
        gram += ((_dot(b1, b1), d13), (d13, _dot(b3, b3)))
        state, end = (x1[-1], u[-1], x3[-1], w[-1]), np.array((b1[-1], b3[-1]))
        a, e = stop, stop - 1
        while runs and runs[0][1] <= e:
            del runs[0]         # stepped through to its end
        if jump is None and runs and runs[0][0] <= e:
            _, hi, lam = runs[0]
            k = _settling_nodes(lam, dt, float(b[-1]), float(u[-1]), float(w[-1]), hi - e)
            if k is not None:
                # the scale across the jump from node times, not rho**(hi - m),
                # whose rounding the power amplifies
                span = (grid.t_start + dt * hi) - (grid.t_start + dt * (e + k))
                if 3.0 * lam * span < _EXP_MAX:
                    jump = (e + k, hi, lam, span)
                    del runs[0]
        if jump is not None and jump[0] == e:
            m, hi, lam, span = jump
            u_hi, w_hi = u[-1] * math.exp(lam * span), w[-1] * math.exp(3.0 * lam * span)
            b_hi = _builtin_values(shape, T, grid.times(hi, hi + 1), dt)[0]
            state = (rt2 * b_hi, u_hi, -2.0 * rt2 * b_hi * (u_hi * u_hi), w_hi)
            end_m, end = end, np.array((u_hi * -rt2 + b_hi, w_hi * -rt2))
            gram += _run_sums(lam, dt, hi - m, *(end if lam > 0 else end_m))
            a, jump = hi + 1, None
    # the last node's trapezoid weight, in units of dt, once the `tail`
    # nodes after it, where b1 and b3 relax as exp(-t), are summed in:
    # with q = exp(-2 dt), 1 + q + ... + q^(tail-1) + q^tail/2
    x, tail = 2.0 * dt, grid.n - n
    last_weight = 1.0 + _geometric_sum(x, tail) - 0.5 * math.exp(-x * tail)
    gram -= 0.5 * np.outer(first, first) + (1.0 - last_weight) * np.outer(end, end)
    gram *= dt
    require_finite(gram)
    return gram


def run_point(shape: ShapeLike, gamma_t: float,
              policy: GridPolicy = DEFAULT_POLICY) -> SweepRow:
    """One sweep row: the amplitudes only, streamed through blocks of the
    drive window, so memory stays bounded over the whole gamma_t range."""
    spec = _builtin_spec(_as_shape(shape), gamma_t)
    gram = _output_gram(spec, default_grid_for(spec, policy))
    n1 = float(gram[0, 0])
    check_linear_norm(n1)
    v, c11, c12_sq, cr_sq = amplitudes(n1, gram[0, 1], gram[1, 1])
    return SweepRow(gamma_t=spec.duration, c11_re=c11.real, c11_im=c11.imag,
                    c11_sq=abs(c11) ** 2, c12_sq=c12_sq, cr_sq=cr_sq,
                    overlap_re=v.real, overlap_im=v.imag)


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
                  policy: GridPolicy = DEFAULT_POLICY) -> PeakResult:
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

    probes = np.logspace(math.log10(lo), math.log10(hi), _PEAK_PROBES)
    vals = [value(float(g)) for g in probes]
    k = int(np.argmax(vals))
    if k == 0 or k == _PEAK_PROBES - 1:
        raise NoPeakError(
            f"c12_sq is maximal at the bracket edge gamma_t={probes[k]:g}; "
            "no interior peak to refine")

    la, lb = math.log(probes[k - 1]), math.log(probes[k + 1])
    lc = lb - _GOLDEN * (lb - la)
    ld = la + _GOLDEN * (lb - la)
    fc, fd = value(math.exp(lc)), value(math.exp(ld))
    while lb - la > math.log1p(_PEAK_REL_TOL):
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
