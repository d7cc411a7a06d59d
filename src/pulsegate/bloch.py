"""Optical Bloch equations for a resonantly driven two-level dipole.

The coupled expectation values obey

    d<s->/dt = -Gamma <s->  - 2i sqrt(2 Gamma) a b_in(t) <sz>
    d<sz>/dt = -2 Gamma (<sz> + 1/2)
               + i sqrt(2 Gamma) (a b_in <s->* - a* b_in* <s->)

with the atom starting in the ground state (<s-> = 0, <sz> = -1/2) and
`a` the coherent drive amplitude. Expanding in powers of `a` around the
ground state turns this into a chain of driven linear relaxation
equations:

    order a      d s1/dt = -Gamma s1 + i sqrt(2 Gamma) b_in
    order |a|^2  sz2     = |s1|^2          (solves the sz equation exactly)
    order a|a|^2 d s3/dt = -Gamma s3 - 2i sqrt(2 Gamma) b_in sz2

so the third order is the linear response to the modified (saturation)
drive -2 b_in |s1|^2. The linear equations are integrated with an
integrating-factor (exponential) scheme that is exact for drives that are
linear on each grid segment: constant-drive segments of the rectangular
pulse are integrated exactly, smooth drives at second order. The full
nonlinear system is integrated with classical RK4 and serves as the
brute-force oracle for the perturbative chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.signal import lfilter

from .errors import GridMismatchError, IllConditionedFitError, StepInstabilityError
from .signal import ComplexSignal

_Z_SERIES_CUTOFF = 1e-2


@dataclass(frozen=True)
class SystemParams:
    """Dipole relaxation rate Gamma; all times are scaled so Gamma=1 by
    default and gamma_t = Gamma * T is the only physical knob."""

    gamma: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class ResponseChain:
    """Perturbative dipole solutions sharing one grid."""

    first_order: ComplexSignal    # s1, order a
    excitation: ComplexSignal     # sz2 = |s1|^2, order |a|^2, real >= 0
    third_order: ComplexSignal    # s3, order a|a|^2


@dataclass(frozen=True)
class FullBlochState:
    """Trajectory of the full nonlinear system at drive amplitude alpha."""

    sigma_minus: ComplexSignal
    sigma_z: np.ndarray      # float64 <sz>(t), one sample per sigma_minus.grid point
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


def _decay_core(x: np.ndarray, rate: float, dt: float) -> np.ndarray:
    """Recurrence s_{n+1} = E s_n + w0 x_n + w1 x_{n+1} over one real (or
    complex) drive array, s_0 = 0."""
    E, w0, w1 = _etd_weights(rate, dt)
    g = w0 * x[:-1]
    g += w1 * x[1:]
    y = lfilter([1.0], [1.0, -E], g)
    out = np.empty(len(x), dtype=y.dtype)
    out[0] = 0.0
    out[1:] = y
    return out


def decaying_response(drive: ComplexSignal, rate: float) -> ComplexSignal:
    """Integrate d s/dt = -rate*s + drive(t) with s(t_start) = 0.

    Real and imaginary parts decouple; identically-zero parts are skipped,
    which keeps every resonant real-pulse case in real arithmetic.
    """
    v = drive.values
    dt = drive.grid.dt
    if not np.iscomplexobj(v):
        return ComplexSignal(drive.grid, _decay_core(v, rate, dt))
    re, im = v.real, v.imag
    has_re = bool(re.any())
    has_im = bool(im.any())
    if has_re and has_im:
        out = _decay_core(np.ascontiguousarray(re), rate, dt).astype(complex)
        out += 1j * _decay_core(np.ascontiguousarray(im), rate, dt)
    elif has_re:
        out = _decay_core(np.ascontiguousarray(re), rate, dt)
    elif has_im:
        out = 1j * _decay_core(np.ascontiguousarray(im), rate, dt)
    else:
        out = np.zeros(drive.grid.n)
    return ComplexSignal(drive.grid, out)


def linear_response(b_in: ComplexSignal, params: SystemParams = SystemParams()) -> ComplexSignal:
    """First-order dipole s1: causal response i sqrt(2 Gamma)
    integral exp(-Gamma (t-s)) b_in(s) ds."""
    g = params.gamma
    v = b_in.values
    if not np.iscomplexobj(v):
        # real pulse: the drive is purely imaginary, integrate it as such
        u = _decay_core(np.sqrt(2 * g) * v, g, b_in.grid.dt)
        return ComplexSignal(b_in.grid, 1j * u)
    drive = ComplexSignal(b_in.grid, 1j * np.sqrt(2 * g) * v)
    return decaying_response(drive, g)


def second_order_excitation(sigma1: ComplexSignal) -> ComplexSignal:
    """Excitation sz2 = |s1|^2 (the sz equation at order |a|^2 is solved
    exactly by the squared magnitude of the first-order dipole)."""
    v = sigma1.values
    if np.iscomplexobj(v):
        return ComplexSignal(sigma1.grid, v.real**2 + v.imag**2)
    return ComplexSignal(sigma1.grid, v * v)


def third_order_response(b_in: ComplexSignal, sigmaz2: ComplexSignal,
                         params: SystemParams = SystemParams()) -> ComplexSignal:
    """Third-order dipole s3: linear response to the saturation drive
    -2 b_in sz2 (the excited fraction blocks absorption, hence the sign)."""
    if b_in.grid != sigmaz2.grid:
        raise GridMismatchError("b_in and sigmaz2 must share a grid")
    g = params.gamma
    bv = b_in.values
    zv = sigmaz2.values.real if np.iscomplexobj(sigmaz2.values) else sigmaz2.values
    if not np.iscomplexobj(bv):
        w = _decay_core(-2 * np.sqrt(2 * g) * bv * zv, g, b_in.grid.dt)
        return ComplexSignal(b_in.grid, 1j * w)
    drive = ComplexSignal(b_in.grid, -2j * np.sqrt(2 * g) * bv * zv)
    return decaying_response(drive, g)


def solve_chain(b_in: ComplexSignal, params: SystemParams = SystemParams()) -> ResponseChain:
    """Run the full perturbative chain s1 -> sz2 -> s3."""
    if b_in.grid.tail and params.gamma != 1.0:
        raise GridMismatchError("a grid's free-decay tail relaxes at the unit rate; "
                                f"gamma={params.gamma:g} needs a grid without one")
    s1 = linear_response(b_in, params)
    sz2 = second_order_excitation(s1)
    s3 = third_order_response(b_in, sz2, params)
    return ResponseChain(s1, sz2, s3)


def full_bloch(b_in: ComplexSignal, alpha: complex,
               params: SystemParams = SystemParams()) -> FullBlochState:
    """Integrate the full nonlinear Bloch equations with classical RK4.

    Returns <s->(t) as a ComplexSignal and <sz>(t) as a float64 array,
    both sampled on b_in.grid. Raises StepInstabilityError if |<sz>|
    leaves [-1/2, 1/2] by more than 1e-6, the signature of a grid too
    coarse for the drive.
    """
    g = params.gamma
    dt = b_in.grid.dt
    n = b_in.grid.n
    rt2g = np.sqrt(2 * g)
    # python complex scalars in the loop: ~10x faster than numpy scalars
    zb = [complex(alpha) * complex(z) for z in b_in.values]

    def deriv(s, z, drive):
        ds = -g * s - 2j * rt2g * drive * z
        dz = -2 * g * (z + 0.5) - 2 * rt2g * (drive * s.conjugate()).imag
        return ds, dz

    sm = np.empty(n, dtype=complex)
    sz = np.empty(n)
    s, z = 0j, -0.5
    sm[0], sz[0] = s, z
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(n - 1):
        d0 = zb[k]
        d1 = zb[k + 1]
        dm = 0.5 * (d0 + d1)
        k1s, k1z = deriv(s, z, d0)
        k2s, k2z = deriv(s + half * k1s, z + half * k1z, dm)
        k3s, k3z = deriv(s + half * k2s, z + half * k2z, dm)
        k4s, k4z = deriv(s + dt * k3s, z + dt * k3z, d1)
        s = s + sixth * (k1s + 2 * k2s + 2 * k3s + k4s)
        z = z + sixth * (k1z + 2 * k2z + 2 * k3z + k4z)
        if abs(z) > 0.5 + 1e-6:
            raise StepInstabilityError(
                f"<sz>={z:.6f} left the Bloch sphere at t="
                f"{b_in.grid.t_start + (k + 1) * dt:.4f}; refine the grid "
                f"or reduce |alpha|={abs(alpha):g}")
        sm[k + 1], sz[k + 1] = s, z
    return FullBlochState(ComplexSignal(b_in.grid, sm), sz, complex(alpha))


def perturbative_extraction(b_in: ComplexSignal, params: SystemParams,
                            alphas: Sequence[float],
                            deflate_fifth_order: bool = False,
                            ) -> tuple[ComplexSignal, ComplexSignal]:
    """Estimate the linear and cubic output pulse shapes from full
    nonlinear runs, independently of the perturbative chain.

    For each amplitude a_k the full Bloch output b_out = a b_in +
    i sqrt(2 Gamma) <s-> is computed, then b_out(a) = a b1 + a^3 b3 is
    fitted per time sample by least squares over the amplitude set.
    With deflate_fifth_order an a^5 column is added (and discarded), which
    removes the leading truncation bias of the two-term model (~alpha^2
    relative, a few 1e-3 at the default amplitude set) from the b3
    estimate; it needs at least three distinct amplitudes.
    """
    alphas = [float(a) for a in alphas]
    n_cols = 3 if deflate_fifth_order else 2
    if len(set(alphas)) < n_cols:
        raise IllConditionedFitError(
            f"need >= {n_cols} distinct drive amplitudes, got {alphas}")
    if any(a <= 0 or a > 0.1 for a in alphas):
        raise IllConditionedFitError(
            f"amplitudes must lie in (0, 0.1] for a clean cubic fit, got {alphas}")
    g = params.gamma
    rt2g = np.sqrt(2 * g)
    outs = []
    for a in alphas:
        state = full_bloch(b_in, a, params)
        outs.append(a * b_in.values + 1j * rt2g * state.sigma_minus.values)
    design = np.array([[a, a**3, a**5][:n_cols] for a in alphas])
    coef, *_ = np.linalg.lstsq(design, np.asarray(outs), rcond=None)
    return (ComplexSignal(b_in.grid, coef[0]), ComplexSignal(b_in.grid, coef[1]))
