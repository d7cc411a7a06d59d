"""Pulse-duration sweeps, photon-transfer peak search, and mode export.

For a fixed shape the physics depends only on gamma_t = Gamma*T, so a
sweep solves once per duration. Points are independent pure computations
evaluated in ascending order, which makes emitted tables bit-reproducible.

The amplitude path (run_point, which sweeps and the peak search use) needs
numpy alone and only the overlap integrals ||b1||^2, <b1|b3> and ||b3||^2
of the continuum outputs; it builds no grid for them (_continuum_gram).
Between the pulse's breakpoints (the rectangular edges, the symmetric
exponential's kink) it solves the dipole chain by Chebyshev collocation on
panels, and integrates with Clenshaw-Curtis weights. One rule sizes the
panels of every shape: min(1/4, T/8) wide at the piece's start, doubling
up to T/2. A pulse that has been on since t = -inf (the rising
exponential, the symmetric exponential's left side) enters in its driven
state with its lead integrals in closed form, and the ringdown after the
drive is a closed form too. solve_spec runs the array pipeline
on every node of the policy grid, which it derives per point, and stores
every waveform; it refuses grids above WAVEFORM_NODE_BUDGET nodes.

This module keeps only solver policy (panel degree and widths, the
duration range, the peak search): the breakpoints, pieces and lead rates
are pulses.GEOMETRY's, the chain's driven start bloch.solve_chain's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .bloch import solve_chain
from .errors import (ConfigError, DurationRangeError, NoPeakError, SolverError,
                     UndefinedModeError)
from .output import OutputPair, assemble_outputs, check_linear_norm
from .pulses import (DEFAULT_POLICY, GEOMETRY, GridPolicy, PulseShape, PulseSpec,
                     _piece_values, default_grid_for, sample_pulse)
from .signal import ComplexSignal, TimeGrid, require_finite
from .twophoton import OutputDecomposition, LimitReport, amplitudes, decompose, limit_report

GAMMA_T_MIN = 1e-3
GAMMA_T_MAX = 1e4

# solve_spec's traced peak is 56 bytes per node for a real pulse and 112
# for a complex one (the pulse, the dipole orders and the outputs at 8 or
# 16 bytes each): 2**24 nodes is about 0.94 or 1.88 GB, the most a
# 2-core / 7 GB machine is asked to hold.
WAVEFORM_NODE_BUDGET = 2**24
# Polynomial degree on run_point's panels, each of _PANEL_DEGREE + 1
# Chebyshev-Lobatto nodes: 16 already agrees with 28 within 1e-14 over
# the whole gamma_t range
_PANEL_DEGREE = 20

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
    for builtin in GEOMETRY:    # a custom pulse is its samples, not a name
        if shape == builtin:
            return builtin
    names = ", ".join(s.value for s in GEOMETRY)
    raise DurationRangeError(f"unknown pulse shape {shape!r}; expected one of {names}")


def _check_gamma_t(gamma_t: float) -> None:
    if not (GAMMA_T_MIN <= gamma_t <= GAMMA_T_MAX):
        raise DurationRangeError(
            f"gamma_t={gamma_t:g} outside the supported range "
            f"[{GAMMA_T_MIN:g}, {GAMMA_T_MAX:g}]")


def _builtin_spec(shape: PulseShape, gamma_t: float) -> PulseSpec:
    _check_gamma_t(gamma_t)
    return PulseSpec(shape, float(gamma_t))


def solve_spec(spec: PulseSpec, policy: GridPolicy = DEFAULT_POLICY) -> PointSolution:
    """Run the full pipeline for an already-built pulse spec on every node
    of its policy grid. A grid over WAVEFORM_NODE_BUDGET nodes raises
    ConfigError before anything is sampled. The chain starts in the driven
    state of the pulse's lead, if it has one (solve_chain's lead_rate), else
    at rest. The stepped grid misses run_point's continuum amplitudes by
    its second-order error (README)."""
    grid = default_grid_for(spec, policy)
    if grid.n > WAVEFORM_NODE_BUDGET:
        raise ConfigError(
            f"the waveform grid has {grid.n} nodes, over the budget of "
            f"{WAVEFORM_NODE_BUDGET}; use fewer points per unit, or the "
            "amplitude-only sweep and peak, which build no grid")
    b_in = sample_pulse(spec, grid)
    geo = GEOMETRY.get(spec.shape)      # None for a custom pulse, which starts at rest
    chain = solve_chain(b_in, lead_rate=geo.lead_rate / spec.duration if geo else 0.0)
    pair = assemble_outputs(b_in, chain)
    del chain  # the dipole orders are large at long durations; done with them
    dec = decompose(pair)
    return PointSolution(spec=spec, gamma_t=spec.duration, grid=grid, b_in=b_in,
                         pair=pair, decomposition=dec,
                         limit=limit_report(dec.overlap, dec.c12_sq))


def solve_point(shape: ShapeLike, gamma_t: float,
                policy: GridPolicy = DEFAULT_POLICY) -> PointSolution:
    """Full pipeline for a built-in shape at duration gamma_t."""
    return solve_spec(_builtin_spec(_as_shape(shape), gamma_t), policy)


@functools.cache
def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n + 1 Chebyshev-Lobatto nodes x on [-1, 1], ascending; the matrix
    S with y(x_j) = sum over k of S_jk y'(x_k), j, k = 1..n, for the degree-n
    polynomials y with y(-1) = 0; and the Clenshaw-Curtis weights. S and
    the weights integrate interpolants formed from Chebyshev coefficients,
    so they keep full precision; inverting the differentiation matrix,
    whose inverse S is, loses about 1e-13."""
    x = -np.cos(np.pi * np.arange(n + 1) / n)
    S = cheb.chebvander(x[1:], n) @ cheb.chebint(
        np.linalg.inv(cheb.chebvander(x[1:], n - 1)), lbnd=-1.0)
    weights = cheb.chebval(1.0, cheb.chebint(np.linalg.inv(cheb.chebvander(x, n)), lbnd=-1.0))
    return x, S, weights


@functools.lru_cache(maxsize=64)
def _panel_operator(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, g) for y' = -y + f on a panel of width h, collocated at its nodes
    1..n: there y = M f + g y0, with y0 the value on node 0."""
    S = _chebyshev(n)[1]
    inv = np.linalg.inv(np.eye(n) + 0.5 * h * S)
    return 0.5 * h * inv @ S, inv.sum(axis=1)


def _panel_runs(span: float, first: float, cap: float) -> list[tuple[float, int]]:
    """The panels that tile `span` from a breakpoint, as runs of (width,
    count): the largest power of two up to `first`, doubling up to the
    largest up to `cap`, that width repeated, and the last panel cut to end
    on the span's end. Powers of two keep all but the last width's
    operator cached across durations."""
    h, top = (2.0 ** math.floor(math.log2(x)) for x in (first, cap))
    runs = []
    while h < top and span > h * (1.0 + 1e-9):
        runs.append((h, 1))
        span -= h
        h *= 2.0
    k = max(math.ceil(span / h * (1.0 - 1e-9)) - 1, 0)     # whole panels of width h
    return [run for run in runs + [(h, k), (span - k * h, 1)] if run[1]]


def _relax(f: np.ndarray, y0: float, runs: list[tuple[float, int]]) -> np.ndarray:
    """y' = -y + f on consecutive panels, from y0 on the first node: f and y
    are node values, one column per panel, the panels in `runs` of (width,
    count). The panels of one run are one matrix product; their start
    values, each the end value of the panel before, a scalar recurrence."""
    n = f.shape[0] - 1
    y = np.empty_like(f)
    gain = np.empty((n, f.shape[1]))
    col = 0
    for h, k in runs:
        M, g = _panel_operator(n, h)
        y[1:, col:col + k] = M @ f[1:, col:col + k]
        gain[:, col:col + k] = g[:, None]
        col += k
    starts = []
    for end, g in zip(y[-1].tolist(), gain[-1].tolist()):
        starts.append(y0)
        y0 = end + g * y0
    y[0] = starts
    y[1:] += gain * y[0]
    return y


def _continuum_fields(spec: PulseSpec, degree: int = _PANEL_DEGREE) -> tuple:
    """The continuum solution u' = -u + sqrt(2) b, w' = -w + x3 with
    x3 = -2 sqrt(2) b u^2 (s1 = i u, s3 = i w, all real on resonance) of a
    built-in pulse on Chebyshev-Lobatto panels of `degree` + 1 nodes, as
    (lam, t, weights, b, u, w): arrays of one column per panel in time
    order, and the Clenshaw-Curtis weights of each panel's integrals.

    The panels tile the pulse's smooth piece (Geometry.piece), so they
    never straddle a breakpoint. One rule sizes them for every shape:
    widths start at min(1/4, T/8) at the piece's start and double away
    from it up to T/2. A panel much wider than the decay time 1 damps a
    transient only by its collocation's stability function, not by
    exp(-width), so the doubling puts each wide panel where the transient
    since the start has already decayed over the panels before it. The
    cap is T/2 because the pulse itself must be resolved too: with a cap
    of T, the gaussian's amplitudes move by 1.3e-13.

    A pulse with a lead b = C exp(lam t) before the piece, lam its
    Geometry.lead_rate / T, starts in its driven state u = sqrt(2) b /
    (1 + lam), w = x3 / (1 + 3 lam); the others start at rest (lam = 0).
    """
    shape, T = spec.shape, spec.duration
    rt2 = math.sqrt(2.0)
    geo = GEOMETRY[shape]
    lam = geo.lead_rate / T
    a, e = (T * x for x in geo.piece)
    runs = _panel_runs(e - a, min(0.25, T / 8.0), T / 2.0)
    x, _, cc = _chebyshev(degree)
    h = np.repeat(*zip(*runs))
    t = a + (np.cumsum(h) - h) + 0.5 * h * (x[:, None] + 1.0)
    b = _piece_values(shape, T, t)
    u0 = w0 = 0.0
    if lam:
        u0 = rt2 * b[0, 0] / (1.0 + lam)
        w0 = -2.0 * rt2 * b[0, 0] * u0 * u0 / (1.0 + 3.0 * lam)
    u = _relax(rt2 * b, u0, runs)
    w = _relax(-2.0 * rt2 * b * u * u, w0, runs)
    return lam, t, 0.5 * h * cc[:, None], b, u, w


def _continuum_gram(spec: PulseSpec, degree: int = _PANEL_DEGREE) -> np.ndarray:
    """[[<b1|b1>, <b1|b3>], [<b3|b1>, <b3|b3>]] of the continuum outputs
    b1 = b - sqrt(2) u and b3 = -sqrt(2) w of a built-in pulse, with no grid.

    The panels of _continuum_fields enter as Clenshaw-Curtis sums. Before
    them, a pulse on since t = -inf adds its lead in closed form: b1 and b3
    go as exp(lam t) and exp(3 lam t) there, so the lead integrals are
    b1^2 / (2 lam), b1 b3 / (4 lam) and b3^2 / (6 lam) at the first node.
    Past them the pulse has passed, b1 = -sqrt(2) u and b3 = -sqrt(2) w
    decay as exp(-t), and the ringdown adds half the outer product of
    that end pair.
    """
    lam, _, weights, b, u, w = _continuum_fields(spec, degree)
    rt2 = math.sqrt(2.0)
    b1, b3 = b - rt2 * u, -rt2 * w
    weighted = weights * b1
    d13 = np.sum(weighted * b3)
    gram = np.array(((np.sum(weighted * b1), d13), (d13, np.sum(weights * b3 * b3))))
    if lam:
        lead = np.array((b1[0, 0], b3[0, 0]))
        gram += np.outer(lead, lead) / (lam * np.array(((2.0, 4.0), (4.0, 6.0))))
    end = -rt2 * np.array((u[-1, -1], w[-1, -1]))
    gram += 0.5 * np.outer(end, end)
    require_finite(gram)
    return gram


def run_point(shape: ShapeLike, gamma_t: float) -> SweepRow:
    """One sweep row: the amplitudes of the continuum outputs
    (_continuum_gram), with no grid built, so no GridPolicy enters.
    solve_spec's stepped grid misses them by its error (README)."""
    spec = _builtin_spec(_as_shape(shape), gamma_t)
    gram = _continuum_gram(spec)
    n1 = float(gram[0, 0])
    check_linear_norm(n1)
    v, c11, c12_sq, cr_sq = amplitudes(n1, gram[0, 1], gram[1, 1])
    return SweepRow(gamma_t=spec.duration, c11_re=c11.real, c11_im=c11.imag,
                    c11_sq=abs(c11) ** 2, c12_sq=c12_sq, cr_sq=cr_sq,
                    overlap_re=v.real, overlap_im=v.imag)


def sweep_durations(gt_min: float, gt_max: float, n_points: int,
                    log_spaced: bool = True) -> np.ndarray:
    """The duration grid a sweep will evaluate, validated before any point
    is solved: a bound out of range raises run_point's error."""
    if not (0 < gt_min < gt_max):
        raise DurationRangeError(f"need 0 < gt_min < gt_max, got ({gt_min}, {gt_max})")
    if n_points < 2:
        raise DurationRangeError(f"need at least 2 sweep points, got {n_points}")
    _check_gamma_t(gt_min)
    _check_gamma_t(gt_max)
    return (np.logspace(math.log10(gt_min), math.log10(gt_max), n_points) if log_spaced
            else np.linspace(gt_min, gt_max, n_points))


def sweep(shape: ShapeLike, gt_min: float = DEFAULT_SWEEP_RANGE[0],
          gt_max: float = DEFAULT_SWEEP_RANGE[1],
          n_points: int = DEFAULT_SWEEP_POINTS, log_spaced: bool = True) -> list[SweepRow]:
    """Rows for n_points durations between gt_min and gt_max, ascending,
    solved one after another in this process. A failed point re-raises its
    error with its duration named."""
    rows = []
    for gt in sweep_durations(gt_min, gt_max, n_points, log_spaced).tolist():
        try:
            rows.append(run_point(shape, gt))
        except SolverError as exc:
            raise type(exc)(f"at gamma_t={gt:g}: {exc}") from exc
    return rows


def _bounded_brent(func, a: float, b: float, xatol: float, maxfun: int = 500):
    """(x, func(x), evaluations, failure) of Brent's bounded minimisation of
    func on [a, b], failure None or why it stopped: a step-for-step port, in
    Python floats, of scipy.optimize._minimize_scalar_bounded (BSD-3-Clause,
    (c) 2001-2002 Enthought, Inc., 2003 SciPy Developers); Brent (1973) ch. 5."""
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    nfc = xf = fulc = a + golden_mean * (b - a)
    ffulc = fnfc = fx = func(xf)
    rat, e, num, fu, failure = 0.0, 0.0, 1, math.inf, None
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:       # a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:    # too near an edge: step to the middle
                    rat = tol1 * (math.copysign(1.0, xm - xf) if xm - xf else 1.0)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (math.copysign(1.0, rat) if rat else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        if num >= maxfun:
            failure = "Maximum number of function calls reached."
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        failure = "NaN result encountered."
    return xf, fx, num, failure


def find_peak_c12(shape: ShapeLike, bracket: tuple[float, float] = (0.1, 20.0)) -> PeakResult:
    """Locate the c12_sq maximum inside the bracket.

    A coarse log-spaced probe seeds a bounded Brent search (_bounded_brent,
    numpy-free) on log(gamma_t) between the best probe's neighbours, each
    duration solved once. A probe maximum on a bracket edge (no interior
    peak) raises NoPeakError, an unconverged search SolverError.
    """
    shape = _as_shape(shape)
    lo, hi = bracket
    if not (0 < lo < hi):
        raise DurationRangeError(f"bad peak bracket ({lo}, {hi})")

    @functools.cache    # this search's rows by gamma_t: each is solved once
    def row(gt: float) -> SweepRow:
        return run_point(shape, gt)

    probes = np.logspace(math.log10(lo), math.log10(hi), _PEAK_PROBES)
    k = int(np.argmax([row(float(g)).c12_sq for g in probes]))
    if k == 0 or k == _PEAK_PROBES - 1:
        raise NoPeakError(
            f"c12_sq is maximal at the bracket edge gamma_t={probes[k]:g}; "
            "no interior peak to refine")
    x, _, _, failure = _bounded_brent(lambda lg: -row(math.exp(lg)).c12_sq,
                                      math.log(probes[k - 1]), math.log(probes[k + 1]),
                                      math.log1p(_PEAK_REL_TOL))
    if failure:
        raise SolverError(f"the c12_sq peak search did not converge: {failure}")
    best = row(math.exp(x))
    return PeakResult(shape=shape, gamma_t_star=best.gamma_t, c12_sq_star=best.c12_sq,
                      c11_at_peak=complex(best.c11_re, best.c11_im))
