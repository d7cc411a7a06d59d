"""Uniform time grids, complex sampled signals, and trapezoid inner products.

All times are in units of the dipole relaxation time 1/Gamma (Gamma = 1
internally). Signals are immutable value objects; every operation here is
pure, so they can be shared freely. Inner products are the
plain trapezoid rule over every node of a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, InvalidRangeError


@dataclass(frozen=True)
class TimeGrid:
    """Uniformly spaced time axis of n nodes from t_start to t_end: node i
    sits at t_start + i*dt."""

    t_start: float
    t_end: float
    n: int

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n - 1)

    def times(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Times of the nodes start..stop-1, all of them by default."""
        stop = self.n if stop is None else min(stop, self.n)
        return self.t_start + self.dt * np.arange(start, stop)


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

    Values are stored as float64 (any real input) or complex128 (any
    complex one); a real dtype means the imaginary part is identically
    zero. Every signal derived from a pulse keeps the pulse's dtype: the
    four built-in pulses are real, and so are their dipole orders (stored
    as s/i), outputs and modes; a complex custom pulse gives complex128
    throughout.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=False)
        if v.ndim != 1 or len(v) != self.grid.n:
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        require_finite(v)
        object.__setattr__(self, "values", v)

    def times(self) -> np.ndarray:
        return self.grid.times()

    def scaled(self, c: complex) -> "ComplexSignal":
        return ComplexSignal(self.grid, c * self.values)


def require_finite(x) -> None:
    """Raise ValueError unless every entry of x is finite. Given a sum over
    samples instead of the samples, this catches any NaN or infinite one."""
    if not np.isfinite(x).all():
        raise ValueError("signal contains NaN or infinite samples")


def _dot(a: np.ndarray, b: np.ndarray):
    """sum conj(a) b. einsum, not BLAS: OpenBLAS threads dot products past
    10k samples, which stalls when other processes already occupy every core."""
    return np.einsum("i,i", a.conj(), b)


def _check_same_grid(f: ComplexSignal, g: ComplexSignal) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


def inner_product(f: ComplexSignal, g: ComplexSignal) -> complex:
    """Trapezoid approximation of integral conj(f(t)) g(t) dt over the grid,
    a float if f and g are both real, else a complex.

    Conjugate-linear in f, linear in g; inner_product(f, f) is real and
    nonnegative up to rounding.
    """
    _check_same_grid(f, g)
    a, b = f.values, g.values
    total = _dot(a, b)
    ends = 0.5 * np.conj(a[0]) * b[0] + 0.5 * np.conj(a[-1]) * b[-1]
    return (f.grid.dt * (total - ends)).item()


def norm_sq(f: ComplexSignal) -> float:
    """Integral |f(t)|^2 dt, trapezoid rule; equals Re(inner_product(f, f))."""
    a = f.values
    total = _dot(a, a).real
    ends = 0.5 * abs(a[0]) ** 2 + 0.5 * abs(a[-1]) ** 2
    return float(f.grid.dt * (total - ends))
