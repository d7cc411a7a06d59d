"""Optical Bloch equations for a resonantly driven two-level dipole.

The coupled expectation values obey

    d<s->/dt = -Gamma <s->  - 2i sqrt(2 Gamma) a b_in(t) <sz>
    d<sz>/dt = -2 Gamma (<sz> + 1/2)
               + i sqrt(2 Gamma) (a b_in <s->* - a* b_in* <s->)

with the atom starting in the ground state (<s-> = 0, <sz> = -1/2) and
`a` the coherent drive amplitude. Expanding in powers of `a` around the
ground state turns this into a chain of driven linear relaxation
equations. Every dipole quantity here is stored as s/i, in the pulse's
own dtype, which is real for a real pulse:

    order a      d u/dt = -Gamma u + sqrt(2 Gamma) b_in          (u = s1/i)
    order |a|^2  sz2    = |u|^2     (solves the sz equation exactly)
    order a|a|^2 d w/dt = -Gamma w - 2 sqrt(2 Gamma) b_in sz2    (w = s3/i)

so the third order is the linear response to the modified (saturation)
drive -2 b_in |u|^2. The linear equations are integrated with an
integrating-factor (exponential) scheme that is exact for drives that are
linear on each grid segment: constant-drive segments of the rectangular
pulse are integrated exactly, smooth drives at second order, by a numpy
scan (decay_block) whose decay factors exp(z j) are taken directly, not as
powers of a rounded exp(-z), so a ringdown does not drift. Times are in
units of 1/Gamma, so the chain runs at Gamma = 1. The full nonlinear
system, the brute-force oracle for the chain, is integrated with classical
RK4 in v = <s->/i, at the Gamma of its SystemParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SolverError
from .signal import ComplexSignal, TimeGrid

_Z_SERIES_CUTOFF = 1e-2


@dataclass(frozen=True)
class SystemParams:
    """Dipole relaxation rate Gamma of the RK4 oracle (full_bloch); all
    times are scaled so Gamma=1 by default and gamma_t = Gamma * T is the
    only physical knob."""

    gamma: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class ResponseChain:
    """Perturbative dipole solutions sharing one grid."""

    first_order: ComplexSignal    # u = s1/i, order a
    excitation: ComplexSignal     # sz2 = |u|^2, order |a|^2, real >= 0
    third_order: ComplexSignal    # w = s3/i, order a|a|^2


@dataclass(frozen=True)
class FullBlochState:
    """Trajectory of the full nonlinear system at drive amplitude alpha."""

    v: ComplexSignal         # <s->/i, real for a real pulse and a real alpha
    sigma_z: np.ndarray      # float64 <sz>(t), one sample per v.grid point
    alpha: complex


def _etd_weights(rate: float, h: float) -> tuple[float, float, float]:
    """Decay factor and drive weights for one step of
    d s/dt = -rate*s + f(t) with f linear on the step:
    s_{n+1} = E s_n + w0 f_n + w1 f_{n+1}."""
    z = rate * h
    E = np.exp(-z)
    if z < _Z_SERIES_CUTOFF:
        # series forms of (1-(1+z)e^-z)/z^2 and (z-1+e^-z)/z^2; the closed
        # forms lose precision to cancellation for tiny z
        w0 = h * (0.5 - z / 3 + z * z / 8 - z**3 / 30 + z**4 / 144)
        w1 = h * (0.5 - z / 6 + z * z / 24 - z**3 / 120 + z**4 / 720)
    else:
        w0 = h * (1 - (1 + z) * E) / (z * z)
        w1 = h * (z - 1 + E) / (z * z)
    return float(E), float(w0), float(w1)


def _driven_state(lam: float, dt: float, b) -> tuple:
    """(u, w) at a node where the pulse is b, on a run b = C exp(lam t),
    lam > 0, since t = -inf: the particular solutions u = c x1 and w = d x3
    of the ETD recurrences at rate 1 (weights E, w0, w1), whose drives
    x1 = sqrt(2) b and x3 = -2 sqrt(2) b |u|^2 change by rho = exp(lam dt)
    and rho^3 per node: c = (w0 + w1 rho) / (rho - E),
    d = (w0 + w1 rho^3) / (rho^3 - E)."""
    E, w0, w1 = _etd_weights(1.0, dt)
    rho = math.exp(lam * dt)
    r = math.sqrt(2.0)
    # rho - E and rho^3 - E without cancellation: 1 - E is exact
    u = (w0 + w1 * rho) / (math.expm1(lam * dt) + (1.0 - E)) * (r * b)
    x3 = -2.0 * r * b * (u * u.conjugate()).real
    return u, (w0 + w1 * rho**3) / (math.expm1(3.0 * lam * dt) + (1.0 - E)) * x3


def decay_block(x: np.ndarray, rate: float, dt: float, s0=0.0) -> np.ndarray:
    """The recurrence s_{n+1} = E s_n + w0 x_n + w1 x_{n+1} of
    d s/dt = -rate*s + x(t) over real or complex drive samples x, from
    s = s0 on the first node (at rest by default).

    With g_0 = s0 and g_n = w0 x_{n-1} + w1 x_n, s_n = E s_{n-1} + g_n is a
    scan in runs of about 8/z nodes, z = rate*dt: on node j of a run s =
    (cumsum(g e^{zj}) + carried) / e^{zj}, `carried` being E times the last
    s of the run before. Each e^{zj} < e^{8 + 64z} is exp(z*j), a few ulp
    from the exact decay; multiplying by the rounded E at every node would
    drift by k ulp over k nodes. The cumsum adds within chunks of up to 64
    nodes, then the chunks' totals, so few of its roundings are of the sum.
    """
    E, w0, w1 = _etd_weights(rate, dt)
    z = rate * dt
    chunk = min(64, math.ceil(8.0 / z))
    runs = -(-len(x) // math.ceil(8.0 / z))
    run = chunk * -(-len(x) // (runs * chunk))
    s = np.zeros((runs, run), dtype=np.result_type(x, 1.0))
    g = s.reshape(-1)[:len(x)]
    np.multiply(w1, x, out=g)
    g[1:] += w0 * x[:-1]
    g[0] = s0
    grow = np.exp(z * np.arange(run))
    s *= grow
    c = s.reshape(runs, -1, chunk)
    np.cumsum(c, axis=2, out=c)
    totals = np.cumsum(c[:, :, -1], axis=1)     # each chunk's and those before it
    carried, k = [], 0.0
    for end in totals[:, -1].tolist():
        carried.append(k)
        k = E * ((end + k) / grow[-1])
    c += (totals - c[:, :, -1] + np.array(carried, dtype=s.dtype)[:, None])[:, :, None]
    s /= grow
    return g


def linear_response(b_in: ComplexSignal, u_start: complex = 0.0) -> ComplexSignal:
    """First-order dipole u = s1/i: causal response sqrt(2) integral
    exp(-(t-s)) b_in(s) ds, with u = u_start on the grid's first node (0:
    the atom at rest there)."""
    u = decay_block(math.sqrt(2.0) * b_in.values, 1.0, b_in.grid.dt, u_start)
    return ComplexSignal(b_in.grid, u)


def second_order_excitation(u: ComplexSignal) -> ComplexSignal:
    """Excitation sz2 = |u|^2 = |s1|^2 (the sz equation at order |a|^2 is
    solved exactly by the squared magnitude of the first-order dipole)."""
    v = u.values
    return ComplexSignal(u.grid, (v * v.conj()).real)


def third_order_response(b_in: ComplexSignal, sigmaz2: ComplexSignal,
                         w_start: complex = 0.0) -> ComplexSignal:
    """Third-order dipole w = s3/i: linear response to the saturation drive
    -2 b_in sz2 (the excited fraction blocks absorption, hence the sign),
    from w = w_start on the grid's first node."""
    if b_in.grid != sigmaz2.grid:
        raise SolverError("b_in and sigmaz2 must share a grid")
    x = -2 * math.sqrt(2.0) * b_in.values * sigmaz2.values.real
    return ComplexSignal(b_in.grid, decay_block(x, 1.0, b_in.grid.dt, w_start))


def solve_chain(b_in: ComplexSignal, lead_rate: float = 0.0) -> ResponseChain:
    """Run the full perturbative chain u -> sz2 -> w. With lead_rate 0 it
    starts in the ground state on the grid's first node. A lead_rate lam
    > 0 says that the pulse has been C exp(lam t) from t = -inf up to that
    node: the chain then starts in the run's driven state (_driven_state),
    with no transient."""
    start = (_driven_state(lead_rate, b_in.grid.dt, b_in.values[0].item())
             if lead_rate else (0.0, 0.0))
    u = linear_response(b_in, start[0])
    sz2 = second_order_excitation(u)
    w = third_order_response(b_in, sz2, start[1])
    return ResponseChain(u, sz2, w)


def _rk4_factor(h: float) -> float:
    """y_{k+1} / y_k for one RK4 step of dy/dt = -rate * y, h = -rate * dt."""
    return 1 + h + h * h / 2 + h**3 / 6 + h**4 / 24


def _left_sphere(grid: TimeGrid, node: int, z: float, alpha: complex) -> SolverError:
    return SolverError(
        f"<sz>={z:.6f} left the Bloch sphere at t="
        f"{grid.t_start + node * grid.dt:.4f}; refine the grid "
        f"or reduce |alpha|={abs(alpha):g}")


def _scaled_drive(v: np.ndarray, a: complex) -> tuple[list, int]:
    """a * v as a list of Python floats if v and a are both real, else of
    complexes, and the index of its last nonzero entry (-1 if none). The
    complex products are the ones complex * complex makes, taken as separate
    float64 passes, so no fused multiply-add can round them differently."""
    if a.imag == 0 and not np.iscomplexobj(v):
        drive = a.real * v
    else:
        drive = np.empty(len(v), dtype=complex)
        drive.real = a.real * v.real - a.imag * v.imag
        drive.imag = a.real * v.imag + a.imag * v.real
    driven = np.flatnonzero(drive)
    return drive.tolist(), int(driven[-1]) if len(driven) else -1


def full_bloch(b_in: ComplexSignal, alpha: complex,
               params: SystemParams = SystemParams()) -> FullBlochState:
    """Integrate the full nonlinear Bloch equations with classical RK4.

    Returns v = <s->/i as a ComplexSignal and <sz>(t) as a float64 array,
    both sampled on b_in.grid. Raises SolverError if |<sz>| leaves
    [-1/2, 1/2] by more than 1e-6, the signature of a grid too coarse for
    the drive.

    The loop steps v = <s->/i, in Python floats when b_in and alpha are
    both real (so then is v) and in complexes otherwise. Multiplying by i
    is exact, so each stage rounds as the same step of <s-> does.

    The RK4 loop stops at the node after the last one where alpha*b_in is
    nonzero. From there on every step is undriven and linear: it multiplies
    v by R(-Gamma dt) and <sz> + 1/2 by R(-2 Gamma dt), where
    R(h) = 1 + h + h^2/2 + h^3/6 + h^4/24 is RK4's own amplification
    factor, not exp(h). The free decay is filled in as those powers, so
    the oracle stays independent of the chain's exact exponential ringdown
    and matches stepping to rounding.
    """
    dt = b_in.grid.dt
    n = b_in.grid.n
    # Python scalars in the loop: numpy scalars cost several times as much.
    # Each stage keeps the operand order of dv/dt = -g v - r2 d z and
    # d<sz>/dt = -2g (z + 1/2) + r2 Re(d v*), with the drive d = alpha b_in,
    # so every rounding matches the same step taken in numpy scalars.
    g = float(params.gamma)
    ng, m2g, r2 = -g, -2 * g, 2 * math.sqrt(2 * g)
    zb, last = _scaled_drive(b_in.values, complex(alpha))
    m = min(last + 1, n - 1)   # the loop computes nodes 1..m

    kind = type(zb[0])         # float or complex, the drive's own type
    vs = np.empty(n, dtype=kind)
    sz = np.empty(n)
    v, z = kind(), -0.5
    vs[0], sz[0] = v, z
    half = 0.5 * dt
    sixth = dt / 6.0
    d1 = zb[0]
    c1 = r2 * d1
    for k in range(m):
        d0, c0 = d1, c1
        d1 = zb[k + 1]
        c1 = r2 * d1
        dm = 0.5 * (d0 + d1)
        cm = r2 * dm
        k1v = ng * v - c0 * z
        k1z = m2g * (z + 0.5) + r2 * (d0 * v.conjugate()).real
        v2 = v + half * k1v
        z2 = z + half * k1z
        k2v = ng * v2 - cm * z2
        k2z = m2g * (z2 + 0.5) + r2 * (dm * v2.conjugate()).real
        v3 = v + half * k2v
        z3 = z + half * k2z
        k3v = ng * v3 - cm * z3
        k3z = m2g * (z3 + 0.5) + r2 * (dm * v3.conjugate()).real
        v4 = v + dt * k3v
        z4 = z + dt * k3z
        k4v = ng * v4 - c1 * z4
        k4z = m2g * (z4 + 0.5) + r2 * (d1 * v4.conjugate()).real
        v = v + sixth * (k1v + 2 * k2v + 2 * k3v + k4v)
        z = z + sixth * (k1z + 2 * k2z + 2 * k3z + k4z)
        if abs(z) > 0.5 + 1e-6:
            raise _left_sphere(b_in.grid, k + 1, z, alpha)
        vs[k + 1] = v
        sz[k + 1] = z

    if m < n - 1:
        steps = np.arange(1, n - m)
        # a ground state is kept as such: where R**steps overflows,
        # 0 * inf would turn it into nan
        with np.errstate(over="ignore", invalid="ignore"):
            sz[m + 1:] = -0.5 + (z + 0.5) * _rk4_factor(m2g * dt) ** steps if z != -0.5 else z
            vs[m + 1:] = v * _rk4_factor(ng * dt) ** steps if v else v
        bad = np.flatnonzero(np.abs(sz[m + 1:]) > 0.5 + 1e-6)
        if len(bad):
            node = m + 1 + int(bad[0])
            raise _left_sphere(b_in.grid, node, float(sz[node]), alpha)
    return FullBlochState(ComplexSignal(b_in.grid, vs), sz, complex(alpha))


def perturbative_extraction(b_in: ComplexSignal, params: SystemParams,
                            alphas: Sequence[float],
                            deflate_fifth_order: bool = False,
                            ) -> tuple[ComplexSignal, ComplexSignal]:
    """Estimate the linear and cubic output pulse shapes from full
    nonlinear runs, independently of the perturbative chain.

    For each amplitude a_k the full Bloch output b_out = a b_in -
    sqrt(2 Gamma) v, v = <s->/i, is computed (real for a real b_in), then
    b_out(a) = a b1 + a^3 b3 is fitted per time sample by least squares
    over the amplitude set, in one product with the design's pseudo-inverse.
    With deflate_fifth_order an a^5 column is added (and discarded), which
    removes the leading truncation bias of the two-term model (~alpha^2
    relative, a few 1e-3 at the default amplitude set) from the b3
    estimate; it needs at least three distinct amplitudes.
    """
    alphas = [float(a) for a in alphas]
    n_cols = 3 if deflate_fifth_order else 2
    if len(set(alphas)) < n_cols:
        raise SolverError(
            f"need >= {n_cols} distinct drive amplitudes, got {alphas}")
    if any(a <= 0 or a > 0.1 for a in alphas):
        raise SolverError(
            f"amplitudes must lie in (0, 0.1] for a clean cubic fit, got {alphas}")
    rt2g = np.sqrt(2 * params.gamma)
    outs = [a * b_in.values - rt2g * full_bloch(b_in, a, params).v.values for a in alphas]
    design = np.array([[a, a**3, a**5][:n_cols] for a in alphas])
    fit = np.linalg.lstsq(design, np.eye(len(alphas)), rcond=None)[0]  # lstsq's rank rule
    b1, b3 = fit[:2] @ np.asarray(outs)
    return ComplexSignal(b_in.grid, b1), ComplexSignal(b_in.grid, b3)
