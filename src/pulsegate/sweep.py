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
the amplitudes need, so its memory does not grow with the grid. Where
the pulse is one exponential over a run of nodes (the rectangular
plateau, the rising exponential, either side of the symmetric
exponential's kink), one step of the chain is one fixed linear map of
the node state, and the sums over a long run are closed forms from its
first node, transients included: a long pulse costs a few stepped nodes,
not one step per node. The rising exponential and
the symmetric exponential's left side have been on since t = -inf, so
the chain starts in their driven state and the whole leading run is
summed before any node is stepped; the rectangular and gaussian pulses'
leading nodes at which the pulse is exactly 0.0 are not stepped at all.
Past the window every waveform is in free decay, whose trapezoid sum to
the grid end is added in closed form too. The gaussian from gamma_t =
_GAUSS_ADIABATIC_GT on builds no grid: its outputs are adiabatic series
with exact overlap integrals (_adiabatic_gram). solve_spec runs the
array pipeline on every node of the grid, from the same start state,
and stores every waveform; it refuses grids above WAVEFORM_NODE_BUDGET
nodes.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.optimize import minimize_scalar

from . import pulses
from .bloch import SystemParams, _etd_weights, decay_block, solve_chain
from .errors import (ConfigError, DurationRangeError, NoPeakError, SolverError,
                     UndefinedModeError)
from .output import OutputPair, assemble_outputs, check_linear_norm
from .pulses import (DEFAULT_POLICY, GridPolicy, PulseShape, PulseSpec, _builtin_values,
                     _exponential_runs, _nodes_through, check_span, default_grid_for,
                     drive_window, sample_pulse)
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
# A series is summed once its next term is below the rounding of its sum
_SETTLED = 2.0**-53
# exp(-x) rounds to exactly 0.0 in double precision from x = 745.14 on, so
# the gaussian exp(-2 (t/T)^2) does wherever |t| >= sqrt(746 / 2) T
_GAUSS_ZERO = math.sqrt(373.0)
# run_point solves a gaussian this long or longer by _adiabatic_gram, whose
# series then sum to 2**-53 within _SERIES_TERMS terms
_GAUSS_ADIABATIC_GT = 100.0
_SERIES_TERMS = 16

DEFAULT_SWEEP_RANGE = (0.01, 1000.0)
DEFAULT_SWEEP_POINTS = 121

_PEAK_PROBES = 13       # find_peak_c12's log-spaced probes across the bracket
_PEAK_REL_TOL = 1e-3    # and its Brent refinement's xatol in log(gamma_t), log1p of this

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

    def modes(self) -> tuple[ComplexSignal, ComplexSignal]:
        """(psi1, psi2), or UndefinedModeError where psi2 has no direction."""
        dec = self.decomposition
        if dec.psi2 is None:
            raise UndefinedModeError(
                f"photon transfer is negligible at gamma_t={self.gamma_t:g}; "
                "the orthogonal mode has no defined shape")
        return dec.psi1, dec.psi2


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
    ConfigError before anything is sampled. The chain starts at rest,
    except on a pulse that opens on an exponential run (the rising and the
    symmetric exponential), which has been on since t = -inf: there it
    starts in that run's driven state. A gaussian is stepped at every gamma_t,
    missing run_point's adiabatic value by the grid's error (README)."""
    grid = default_grid_for(spec, policy)
    if grid.n > WAVEFORM_NODE_BUDGET:
        raise ConfigError(
            f"the waveform grid has {grid.n} nodes, over the budget of "
            f"{WAVEFORM_NODE_BUDGET}; use fewer points per unit, or the "
            "amplitude-only sweep and peak, which solve any grid in bounded memory")
    params = SystemParams()
    b_in = sample_pulse(spec, grid)
    start = (0.0, 0.0)
    runs = _exponential_runs(spec.shape, spec.duration, grid)
    if runs and runs[0][0] == 0:
        # a leading run: the chain starts in its driven state, as in _output_gram
        start = _driven_state(runs[0][2], grid.dt, float(b_in.values[0]))
    chain = solve_chain(b_in, params, start)
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


def _driven_state(lam: float, dt: float, b: float) -> tuple[float, float]:
    """The state (u, w) of the chain driven by a run of b = C exp(lam t), lam
    > 0, since t = -inf, at a node where the pulse is b: the discrete
    particular solutions of the ETD recurrence.

    With rho = exp(lam dt), the recurrence driven by x1 = sqrt(2) b is
    solved by u = c x1, c = (w0 + w1 rho) / (rho - E), and the one driven
    by x3 = -2 sqrt(2) b u^2, which changes by rho^3 per node, by w = d x3,
    d = (w0 + w1 rho^3) / (rho^3 - E).
    """
    E, w0, w1 = _etd_weights(1.0, dt)
    rho = math.exp(lam * dt)
    # rho - E and rho^3 - E without cancellation: 1 - E is exact
    u = (w0 + w1 * rho) / (math.expm1(lam * dt) + (1.0 - E)) * (math.sqrt(2.0) * b)
    x3 = -2.0 * math.sqrt(2.0) * b * (u * u)
    return u, (w0 + w1 * rho**3) / (math.expm1(3.0 * lam * dt) + (1.0 - E)) * x3


def _run_sums(lam: float, dt: float, k: int, b1: float, b3: float) -> np.ndarray:
    """[[sum b1^2, sum b1 b3], [sum b1 b3, sum b3^2]] over k nodes of a run
    with lam > 0, on which b1 and b3 change by exp(lam dt) and exp(3 lam dt)
    per node, from (b1, b3), their values at the last of the k nodes."""
    def weight(p: float) -> float:
        return 1.0 + _geometric_sum(p * lam * dt, k - 1)
    d13 = b1 * b3 * weight(4.0)
    return np.array(((b1 * b1 * weight(2.0), d13), (d13, b3 * b3 * weight(6.0))))


def _run_gram(lam: float, dt: float, k: int, b: float, u: float,
              w: float) -> tuple[np.ndarray, np.ndarray]:
    """[[sum b1^2, sum b1 b3], [sum b1 b3, sum b3^2]] over the k nodes after
    a node of a run of b = C exp(lam t), from the pulse b and any state
    (u, w) there, and the node vector s (below) on the last of the k nodes.

    On the run the node vector s = (b, u, b^3, b^2 u, b u^2, w) advances by
    one lower-triangular matrix A per node: the ETD recurrences of u, driven
    by sqrt(2) b, and of w, driven by x3 = -2 sqrt(2) b u^2, written in s.
    b1 = b - sqrt(2) u and b3 = -sqrt(2) w are rows L of s, so the sums are
    L S L^T, S = sum over j = 1..k of A^j s s^T A^jT. Binary doubling forms
    S and A^k in log2(k) steps, S_2m = S_m + A^m S_m A^mT and S_m+1 = S_m +
    (A^m+1 s)(A^m+1 s)^T. The diagonal of each A^m is set to exp(m mu), mu
    the logs of A's diagonal, instead of being squared up with rounding.
    """
    E, w0, w1 = _etd_weights(1.0, dt)
    rho = math.exp(lam * dt)
    c = math.sqrt(2.0) * (w0 + w1 * rho)       # u's step: u' = E u + c b
    # w's step takes w1 x3 at the next node: x (c^2 b^3 + 2 E c b^2 u + E^2 b u^2)
    x = -2.0 * math.sqrt(2.0) * w1 * rho
    A = np.array(((rho, 0, 0, 0, 0, 0),
                  (c, E, 0, 0, 0, 0),
                  (0, 0, rho**3, 0, 0, 0),
                  (0, 0, rho**2 * c, rho**2 * E, 0, 0),
                  (0, 0, rho * c * c, 2.0 * rho * E * c, rho * E * E, 0),
                  (0, 0, x * c * c, 2.0 * x * E * c, x * E * E - 2.0 * math.sqrt(2.0) * w0, E)))
    mu = lam * dt * np.array((1.0, 0, 3, 2, 1, 0)) + math.log(E) * np.array((0.0, 1, 0, 1, 2, 1))
    s = np.array((b, u, b**3, b * b * u, b * u * u, w))
    power, total, m = np.eye(6), np.zeros((6, 6)), 0
    diag = np.diag_indices(6)
    for bit in format(k, "b").lstrip("0"):
        total += power @ total @ power.T
        power = power @ power
        m *= 2
        power[diag] = np.exp(m * mu)
        if bit == "1":
            power = A @ power
            m += 1
            power[diag] = np.exp(m * mu)
            v = power @ s
            total += np.outer(v, v)
    L = np.array(((1.0, -math.sqrt(2.0), 0, 0, 0, 0), (0.0, 0, 0, 0, 0, -math.sqrt(2.0))))
    return L @ total @ L.T, power @ s


def _gauss_moment(p: np.ndarray, c: float) -> float:
    """Integral over the real line of p(s) exp(-c s^2), p by ascending
    coefficients: sum over even j of p_j G((j+1)/2) / c^((j+1)/2)."""
    even = p[::2]
    ratios = np.arange(1.0, 2.0 * len(even) - 1.0, 2.0) / (2.0 * c)
    return float(even @ np.cumprod(np.r_[math.sqrt(math.pi / c), ratios]))


def _adiabatic_series(p: np.ndarray, a: float, T: float) -> np.ndarray:
    """The response y of y' = -y + x, t = T s, to the slow drive
    x = p(s) exp(-a s^2): sum over k of (-1/T)^k d^k x / ds^k, returned as the
    polynomial factor of exp(-a s^2). Terms are added until the next one is
    at most 2**-53 of the sum in L2 norm."""
    total = term = p
    for _ in range(_SERIES_TERMS):
        # d/ds [q exp(-a s^2)] = (q' - 2 a s q) exp(-a s^2)
        term = (np.r_[term[1:] * np.arange(1, len(term)), 0.0, 0.0]
                - 2.0 * a * np.r_[0.0, term]) / -T
        if (_gauss_moment(np.convolve(term, term), 2.0 * a)
                <= _SETTLED**2 * _gauss_moment(np.convolve(total, total), 2.0 * a)):
            return total
        total = np.append(total, 0.0) + term
    raise SolverError(f"the adiabatic series at gamma_t={T:g} has not settled "
                      f"within {_SERIES_TERMS} terms")


def _adiabatic_gram(T: float) -> np.ndarray:
    """The Gram matrix of _output_gram for the gaussian pulse of duration T,
    as the continuum value every grid converges to, with no grid built.

    In s = t/T every function is a polynomial times a gaussian: the pulse b
    and u = sqrt(2) sum_k (-1/T)^k d^k b / ds^k (so b1 = b - sqrt(2) u) go
    as exp(-2 s^2), the drive x3 = -2 sqrt(2) b u^2 and its response w
    (so b3 = -sqrt(2) w) as exp(-6 s^2). The Gram entries are then moments
    of exp(-4 s^2), exp(-8 s^2) and exp(-12 s^2), times T = dt/ds.
    """
    rt2 = math.sqrt(2.0)
    amp = math.sqrt(2.0 / (math.sqrt(math.pi) * T))    # pulses._builtin_values' gaussian
    u = _adiabatic_series(np.array([rt2 * amp]), 2.0, T)
    w = _adiabatic_series(-2.0 * rt2 * amp * np.convolve(u, u), 6.0, T)
    b1 = u * -rt2
    b1[0] += amp
    b3 = w * -rt2
    d13 = _gauss_moment(np.convolve(b1, b3), 8.0)
    gram = T * np.array(((_gauss_moment(np.convolve(b1, b1), 4.0), d13),
                         (d13, _gauss_moment(np.convolve(b3, b3), 12.0))))
    require_finite(gram)
    return gram


def _zero_lead(shape: PulseShape, T: float, grid: TimeGrid) -> int:
    """Number of leading grid nodes at which _builtin_values is exactly 0.0
    by the pulse's formula: the rectangular pulse's nodes before -T, out of
    _halve_on_jumps' reach, and the gaussian's where its exp underflows."""
    if shape is PulseShape.RECTANGULAR:
        return _nodes_through(grid, -T - pulses._JUMP_REACH * grid.dt)
    if shape is PulseShape.GAUSSIAN:
        return _nodes_through(grid, -_GAUSS_ZERO * T)
    return 0


def _output_gram(spec: PulseSpec, grid: TimeGrid) -> np.ndarray:
    """Trapezoid Gram matrix of the outputs of a built-in pulse on `grid`,
    [[<b1|b1>, <b1|b3>], [<b3|b1>, <b3|b3>]].

    The chain runs block by block over the drive window: the pulse is
    sampled at the block's node times, s1 = i u and s3 = i w follow from
    the ETD recurrence (all real on resonance), and the block's
    b1 = b - sqrt(2) u and b3 = -sqrt(2) w only add to the running sums.
    Every node value is bitwise the one the array pipeline computes; only
    the summation order differs.

    One state passes between blocks and take-overs: the node state
    (x1, u, x3, w), the drives sqrt(2) b and -2 sqrt(2) b u^2 and their
    responses, and the end pair (b1, b3) at the last node done. Each block
    and each take-over reads it and leaves its last node.

    Where the grid opens on a leading run, on which the pulse is one
    exponential exp(lam t) with lam > 0 (pulses._exponential_runs: the
    rising exponential, the symmetric exponential's left side), the pulse
    has been on since t = -inf, and the chain is in its driven state from
    node 0 on (_driven_state): b1 and b3 go as exp(lam t) and exp(3 lam t),
    the whole run enters as geometric sums from node 0 (_run_sums), and
    stepping starts from its last node. Otherwise the chain starts at rest,
    and the leading nodes at which the pulse is exactly 0.0 (_zero_lead)
    would only add exact zeros: the blocks start at the last multiple of
    BLOCK_NODES in them, so the blocks that are stepped are the ones
    stepping from node 0 would step.

    A later run (the rectangular plateau, the symmetric exponential's right
    side) of at most BLOCK_NODES nodes is stepped with the blocks. A longer
    one ends its block at its first node, and its other nodes enter
    in closed form from the state there, transients and all (_run_gram),
    which also gives the state on its last node, from which stepping
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

    def pulse_at(node: int) -> float:
        return float(_builtin_values(shape, T, grid.times(node, node + 1), dt)[0])

    def state_at(b: float, u: float, w: float):
        """The node state and end pair where the pulse is b and the state (u, w)."""
        return (rt2 * b, u, -2.0 * rt2 * b * (u * u), w), np.array((u * -rt2 + b, w * -rt2))

    gram = np.zeros((2, 2))
    if runs and runs[0][0] == 0:
        _, hi, lam = runs.pop(0)
        b0, b_hi = pulse_at(0), pulse_at(hi)
        first = state_at(b0, *_driven_state(lam, dt, b0))[1]
        state, end = state_at(b_hi, *_driven_state(lam, dt, b_hi))
        gram += _run_sums(lam, dt, hi + 1, *end)
        a = hi + 1
    else:
        # at rest on node a, where the pulse is 0.0 if a > 0
        state = (None, 0.0, None, 0.0)
        a = max(_zero_lead(shape, T, grid) - 1, 0) // BLOCK_NODES * BLOCK_NODES
        first = end = np.array((pulse_at(0) if a == 0 else 0.0, 0.0))
    while a < n:
        stop = min(a + BLOCK_NODES, n)
        long_run = bool(runs) and runs[0][0] < stop and runs[0][1] - runs[0][0] >= BLOCK_NODES
        if long_run:
            stop = runs[0][0] + 1
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
        a = stop
        while runs and runs[0][1] < stop:
            del runs[0]         # stepped through to its end
        if long_run:
            lo, hi, lam = runs.pop(0)
            sums, s = _run_gram(lam, dt, hi - lo, float(b[-1]), float(u[-1]), float(w[-1]))
            gram += sums
            state, end = state_at(*s[[0, 1, 5]])
            a = hi + 1
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
    drive window, so memory stays bounded over the whole gamma_t range.

    A gaussian at gamma_t >= _GAUSS_ADIABATIC_GT takes the adiabatic series
    (_adiabatic_gram) and builds no grid: it gets the continuum value every
    policy converges to, which solve_spec's stepped grid misses by its error."""
    spec = _builtin_spec(_as_shape(shape), gamma_t)
    if spec.shape is PulseShape.GAUSSIAN and spec.duration >= _GAUSS_ADIABATIC_GT:
        gram = _adiabatic_gram(spec.duration)
    else:
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

    A coarse log-spaced probe seeds scipy's bounded Brent search on
    log(gamma_t), each duration solved once. A probe maximum on a bracket
    edge (no interior peak) raises NoPeakError, an unconverged search SolverError.
    """
    shape = _as_shape(shape)
    lo, hi = bracket
    if not (0 < lo < hi):
        raise DurationRangeError(f"bad peak bracket ({lo}, {hi})")

    @functools.cache    # this search's rows by gamma_t: each is solved once
    def row(gt: float) -> SweepRow:
        return run_point(shape, gt, policy)

    probes = np.logspace(math.log10(lo), math.log10(hi), _PEAK_PROBES)
    k = int(np.argmax([row(float(g)).c12_sq for g in probes]))
    if k == 0 or k == _PEAK_PROBES - 1:
        raise NoPeakError(
            f"c12_sq is maximal at the bracket edge gamma_t={probes[k]:g}; "
            "no interior peak to refine")
    res = minimize_scalar(lambda lg: -row(math.exp(lg)).c12_sq, method="bounded",
                          bounds=(math.log(probes[k - 1]), math.log(probes[k + 1])),
                          options={"xatol": math.log1p(_PEAK_REL_TOL)})
    if not res.success:
        raise SolverError(f"the c12_sq peak search did not converge: {res.message}")
    best = row(math.exp(res.x))
    return PeakResult(shape=shape, gamma_t_star=best.gamma_t, c12_sq_star=best.c12_sq,
                      c11_at_peak=complex(best.c11_re, best.c11_im))


def mode_shapes_at(shape: ShapeLike, gamma_t: float,
                   policy: GridPolicy = DEFAULT_POLICY,
                   ) -> tuple[ComplexSignal, ComplexSignal]:
    """The two orthonormal output mode waveforms at one duration."""
    return solve_point(shape, gamma_t, policy).modes()
