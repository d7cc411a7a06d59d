"""Uniform time grids, complex sampled signals, and trapezoid inner products.

All times are in units of the dipole relaxation time 1/Gamma (Gamma = 1
internally). Signals are immutable value objects; every operation here is
pure, so they can be shared freely across workers.

A grid may end in a free-decay tail: nodes that are not stored because
on them every signal on the grid equals its last stored value times
exp(-(t - t_last)), the undriven relaxation of the dipole and of every
field it radiates. Inner products sum the tail nodes in closed form,
with the same trapezoid weights the stored nodes get, so a signal on such
a grid integrates exactly as its filled-in copy would (to rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GridMismatchError, InvalidRangeError


@dataclass(frozen=True)
class TimeGrid:
    """Uniformly spaced time axis from t_start to t_end: node i sits at
    t_start + i*dt. The first n nodes are stored; the last `tail` nodes
    are a free-decay tail (see the module docstring)."""

    t_start: float
    t_end: float
    n: int
    tail: int = 0

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n + self.tail - 1)

    def times(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Times of the stored nodes start..stop-1, all of them by default."""
        stop = self.n if stop is None else min(stop, self.n)
        return self.t_start + self.dt * np.arange(start, stop)

    def window(self, n: int) -> "TimeGrid":
        """This grid with only its first n nodes stored, the rest a tail."""
        total = self.n + self.tail
        if not 2 <= n <= total:
            raise InvalidRangeError(f"window of {n} nodes on a {total}-node grid")
        return replace(self, n=n, tail=total - n)

    def filled(self) -> "TimeGrid":
        """This grid with every node stored."""
        return replace(self, n=self.n + self.tail, tail=0)


def make_grid(t_start: float, t_end: float, n: int) -> TimeGrid:
    """Build a uniform grid; raises InvalidRangeError on a degenerate span."""
    if not np.isfinite(t_start) or not np.isfinite(t_end):
        raise InvalidRangeError(f"non-finite grid bounds ({t_start}, {t_end})")
    if t_end <= t_start:
        raise InvalidRangeError(f"t_end={t_end} must exceed t_start={t_start}")
    if n < 2:
        raise InvalidRangeError(f"need at least 2 samples, got n={n}")
    return TimeGrid(float(t_start), float(t_end), int(n))


@dataclass(frozen=True)
class ComplexSignal:
    """Complex waveform sampled on a TimeGrid.

    Values are stored as float64 or complex128; a real dtype means the
    imaginary part is identically zero. The four built-in pulses are
    sampled in real storage; the dipole orders and the output modes
    derived from them carry a factor i and are complex128, with imaginary
    (or real) parts that are exactly zero for a real pulse on resonance.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype not in (np.float64, np.complex128):
            v = v.astype(np.complex128)
        if v.ndim != 1 or len(v) != self.grid.n:
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        require_finite(v)
        object.__setattr__(self, "values", v)

    def times(self) -> np.ndarray:
        return self.grid.times()

    def scaled(self, c: complex) -> "ComplexSignal":
        return ComplexSignal(self.grid, c * self.values)

    def filled(self) -> "ComplexSignal":
        """This signal on grid.filled(), its tail nodes sampled."""
        grid, v = self.grid, self.values
        if grid.tail == 0:
            return self
        out = np.empty(grid.n + grid.tail, dtype=v.dtype)
        out[:grid.n] = v
        tail = out[grid.n:]
        np.exp(-grid.dt * np.arange(1, grid.tail + 1), out=tail)
        tail *= v[-1]
        return ComplexSignal(grid.filled(), out)


def require_finite(x) -> None:
    """Raise ValueError unless every entry of x is finite. Given a sum over
    samples instead of the samples, this catches any NaN or infinite one."""
    if not np.isfinite(x).all():
        raise ValueError("signal contains NaN or infinite samples")


def _dot(a: np.ndarray, b: np.ndarray):
    """sum conj(a) b. einsum, not BLAS: OpenBLAS threads dot products past
    10k samples, which stalls when pool workers already occupy every core."""
    return np.einsum("i,i", a.conj(), b)


def _check_same_grid(f: ComplexSignal, g: ComplexSignal) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


def _last_weight(grid: TimeGrid) -> float:
    """Trapezoid weight, in units of dt, of the last stored node's product
    conj(a) b once the tail is summed in. Over m tail nodes the product
    decays by q = exp(-2 dt) per node, so the weight is the finite series
    1 + q + ... + q^(m-1) + q^m/2; for m = 0 it is the plain end weight 1/2.
    """
    m = grid.tail
    if m == 0:
        return 0.5
    x = 2.0 * grid.dt
    # q (1 - q^m) / (1 - q) through expm1, which keeps precision as dt -> 0
    return 1.0 + math.exp(-x) * math.expm1(-x * m) / math.expm1(-x) - 0.5 * math.exp(-x * m)


def inner_product(f: ComplexSignal, g: ComplexSignal) -> complex:
    """Trapezoid approximation of integral conj(f(t)) g(t) dt to the grid end.

    Conjugate-linear in f, linear in g; inner_product(f, f) is real and
    nonnegative up to rounding.
    """
    _check_same_grid(f, g)
    a, b = f.values, g.values
    total = _dot(a, b)
    ends = 0.5 * np.conj(a[0]) * b[0] + (1.0 - _last_weight(f.grid)) * np.conj(a[-1]) * b[-1]
    return complex(f.grid.dt * (total - ends))


def norm_sq(f: ComplexSignal) -> float:
    """Integral |f(t)|^2 dt, trapezoid rule; equals Re(inner_product(f, f))."""
    a = f.values
    total = _dot(a, a).real
    ends = 0.5 * abs(a[0]) ** 2 + (1.0 - _last_weight(f.grid)) * abs(a[-1]) ** 2
    return float(f.grid.dt * (total - ends))
