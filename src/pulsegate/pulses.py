"""Input pulse shapes and the grids they are sampled on.

Four built-in shapes, each normalized to unit photon number
(integral |b_in|^2 dt = 1) with duration parameter T:

    rectangular       b(t) = 1/sqrt(T)                    for -T < t < 0
    rising exp        b(t) = sqrt(2/T) exp(t/T)           for t < 0
    symmetric exp     b(t) = sqrt(2/T) exp(-2|t|/T)
    gaussian          b(t) = sqrt(2/(sqrt(pi) T)) exp(-2 t^2/T^2)

plus user-supplied sampled shapes read from plain text files.

Grid construction places every amplitude discontinuity (the rectangular
edges, the rising-exponential cutoff) at the midpoint of a grid segment.
With the jump centered on a segment, both the trapezoid rule and the
piecewise-linear drive reconstruction used by the integrators see the
correct area through the jump, which keeps norms and responses second
order; a jump sitting on a node would instead leave an O(dt) error in
every quadratic functional of the signal and is not salvageable by any
choice of node value. Kinks without a value jump (symmetric exponential)
sit on nodes, where one-sided interpolation is exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, PulseFileError, UnsupportedSpanError
from .signal import ComplexSignal, TimeGrid, make_grid, norm_sq

# Leading cutoff for the rising exponential: |b(t)|^2 integrated below the
# cutoff is 1e-10 of the pulse, i.e. exp(2 t/T) = 1e-10.
RISING_LEAD_FACTOR = 0.5 * math.log(1e10)  # 11.5129...
SYM_EXP_EXTENT = 6.0   # +-6T: truncated tail weight 0.5*exp(-24) ~ 1.9e-11
GAUSS_EXTENT = 3.0     # +-3T: truncated tail weight 0.5*erfc(6) ~ 1.1e-17
# The symmetric-exponential and gaussian formulas never reach zero; past
# these multiples of T they are below 2^-53 of their peak, too small to
# change any sum they enter.
SYM_EXP_DRIVE_END = 0.5 * math.log(2.0**53)            # 18.37
GAUSS_DRIVE_END = math.sqrt(0.5 * math.log(2.0**53))   # 4.29
# _halve_on_jumps halves the nodes closer than this many steps dt to a jump
_JUMP_REACH = 1e-6


class PulseShape(str, enum.Enum):
    RECTANGULAR = "rect"
    RISING_EXP = "rising-exp"
    SYM_EXP = "sym-exp"
    GAUSSIAN = "gauss"
    CUSTOM = "custom"


# T times the rate lam of the exponential C exp(lam t) that a pulse has
# followed since t = -inf: the rising exponential up to its cutoff, the
# symmetric exponential up to its kink. The other shapes start at rest.
_LEAD_RATES = {PulseShape.RISING_EXP: 1.0, PulseShape.SYM_EXP: 2.0}


@dataclass(frozen=True)
class GridPolicy:
    """Discretization rule applied when a grid is derived from a pulse.

    The base step is min(T, 3)/samples_per_unit, resolving both the pulse
    envelope and the dipole decay (times in 1/Gamma); shapes with an
    interior derivative kink (symmetric exponential) sample twice as
    densely, which the kink needs to keep trapezoid norms inside 1e-6.
    The grid starts lead_pad before the leading edge and runs tail past
    the trailing reference so the dipole rings down to ~1e-9 of its peak.
    """

    samples_per_unit: int = 1000
    lead_pad: float = 0.5
    tail: float = 20.0

    def step_for(self, duration: float, refine: int = 1) -> float:
        if self.samples_per_unit < 2:
            raise ConfigError(f"samples_per_unit={self.samples_per_unit} too small")
        if not (0 <= self.lead_pad < math.inf and 0 < self.tail < math.inf):
            raise ConfigError("lead_pad must be finite and >= 0, tail finite and > 0; "
                              f"got lead_pad={self.lead_pad}, tail={self.tail}")
        return min(duration, 3.0) / (self.samples_per_unit * refine)


DEFAULT_POLICY = GridPolicy()


@dataclass(frozen=True)
class PulseSpec:
    """One of the built-in shapes with duration T, or a custom waveform.

    Custom waveforms carry their own time axis (already in 1/Gamma units);
    their duration is the sampled span, used only for grid sizing.
    """

    shape: PulseShape
    duration: float
    custom_t: Optional[np.ndarray] = None
    custom_values: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ConfigError(f"pulse duration must be positive, got {self.duration}")
        if (self.shape is PulseShape.CUSTOM) != (self.custom_t is not None):
            raise ConfigError("custom samples go with shape='custom' only")

    @classmethod
    def rectangular(cls, duration: float) -> "PulseSpec":
        return cls(PulseShape.RECTANGULAR, duration)

    @classmethod
    def rising_exponential(cls, duration: float) -> "PulseSpec":
        return cls(PulseShape.RISING_EXP, duration)

    @classmethod
    def symmetric_exponential(cls, duration: float) -> "PulseSpec":
        return cls(PulseShape.SYM_EXP, duration)

    @classmethod
    def gaussian(cls, duration: float) -> "PulseSpec":
        return cls(PulseShape.GAUSSIAN, duration)

    @classmethod
    def custom(cls, t: np.ndarray, values: np.ndarray) -> "PulseSpec":
        t = np.asarray(t, dtype=float)
        v = np.asarray(values)
        if t.ndim != 1 or len(t) < 2 or v.shape != t.shape:
            raise PulseFileError("custom pulse needs matching 1-d t and value arrays")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise PulseFileError("custom pulse contains non-finite samples")
        if not (np.diff(t) > 0).all():
            raise PulseFileError("custom pulse times must be strictly ascending")
        if not np.any(v):
            raise PulseFileError("custom pulse is identically zero")
        return cls(PulseShape.CUSTOM, float(t[-1] - t[0]), t, v)

    @classmethod
    def from_file(cls, path: str | Path) -> "PulseSpec":
        t, v = load_pulse_file(path)
        return cls.custom(t, v)

    def support(self) -> tuple[float, float]:
        """Window outside which the pulse is (numerically) zero."""
        T = self.duration
        if self.shape is PulseShape.RECTANGULAR:
            return (-T, 0.0)
        if self.shape is PulseShape.RISING_EXP:
            return (-RISING_LEAD_FACTOR * T, 0.0)
        if self.shape is PulseShape.SYM_EXP:
            return (-SYM_EXP_EXTENT * T, SYM_EXP_EXTENT * T)
        if self.shape is PulseShape.GAUSSIAN:
            return (-GAUSS_EXTENT * T, GAUSS_EXTENT * T)
        return (float(self.custom_t[0]), float(self.custom_t[-1]))

    def drive_end(self) -> float:
        """Last instant at which the sampled pulse can be nonzero in double
        precision: the trailing edge of the rectangular and rising-exponential
        pulses, the last custom sample."""
        if self.shape is PulseShape.SYM_EXP:
            return SYM_EXP_DRIVE_END * self.duration
        if self.shape is PulseShape.GAUSSIAN:
            return GAUSS_DRIVE_END * self.duration
        return self.support()[1]


def load_pulse_file(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a sampled pulse: one sample per line, whitespace- or
    comma-separated, columns (t, value) or (t, re, im), ascending t,
    '#' comments allowed."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise PulseFileError(f"cannot read pulse file {path}: {exc}") from exc
    ts, vals = [], []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) not in (2, 3):
            raise PulseFileError(f"{path}:{ln}: expected 2 or 3 columns, got {len(parts)}")
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise PulseFileError(f"{path}:{ln}: {exc}") from exc
        ts.append(nums[0])
        vals.append(nums[1] if len(parts) == 2 else complex(nums[1], nums[2]))
    if len(ts) < 2:
        raise PulseFileError(f"{path}: need at least 2 samples")
    t = np.array(ts, dtype=float)
    v = np.array(vals)
    if not (np.diff(t) > 0).all():
        raise PulseFileError(f"{path}: times must be strictly ascending")
    return t, v


def _steps(x: float) -> int:
    """ceil(x) for a grid extent of x steps, refusing one too long to count."""
    if x == math.inf:
        raise ConfigError("the grid has too many steps to count; shorten lead_pad, tail or pulse")
    return math.ceil(x)


def default_grid_for(spec: PulseSpec, policy: GridPolicy = DEFAULT_POLICY) -> TimeGrid:
    """Grid covering the pulse plus its decay tail, anchored so that the
    pulse discontinuities land at segment midpoints (see module docstring)."""
    T = spec.duration
    dt = policy.step_for(T, 2 if spec.shape is PulseShape.SYM_EXP else 1)
    lo, hi = spec.support()

    if spec.shape is PulseShape.RECTANGULAR:
        m = _steps(T / dt)            # in-pulse samples; edges mid-segment
        dt = T / m
        n_lead = _steps(policy.lead_pad / dt + 0.5)
        n_tail = _steps(policy.tail / dt + 0.5)
        t_start = -T - (n_lead - 0.5) * dt
        n = n_lead + m + n_tail
    elif spec.shape is PulseShape.CUSTOM:
        span = (hi + policy.tail) - (lo - policy.lead_pad)
        n = _steps(span / dt) + 1
        t_start = lo - policy.lead_pad
        grid = make_grid(t_start, t_start + span, n)
        # node times t_start + i dt round to the spacing of doubles near
        # them; from about 2**-20 dt on, that moves c12^2 by 1e-12 (README)
        edge = max(abs(grid.t_start), abs(grid.t_end))
        if math.ulp(edge) > 2.0**-20 * grid.dt:
            raise PulseFileError(
                f"custom pulse times reach |t| = {edge:g}, where doubles are "
                f"{math.ulp(edge):.3g} apart, over 2**-20 of the grid step "
                f"{grid.dt:.3g}; shift the times toward t = 0")
        return grid
    else:
        # nodes at (k + h) dt: t = 0 mid-segment where it is a jump (the
        # rising exponential's cutoff), on a node where it is a kink or a
        # centre (symmetric exponential, gaussian)
        h = 0.5 if spec.shape is PulseShape.RISING_EXP else 0.0
        n_left = _steps((-lo + policy.lead_pad) / dt + h)
        n_right = _steps((hi + policy.tail) / dt + h)
        t_start = -(n_left - h) * dt
        n = n_left + n_right + int(h == 0.0)     # and the node on t = 0, if any

    return make_grid(t_start, t_start + (n - 1) * dt, n)


def _nodes_through(grid: TimeGrid, t: float) -> int:
    """Number of grid nodes at or before time t, which is the index of the
    first node strictly past t (grid.n if there is none), with node times
    computed exactly as TimeGrid.times does."""
    # start just below the estimate, then step to the first node past t
    i = min(max(math.floor((t - grid.t_start) / grid.dt) - 1, 0), grid.n)
    while i < grid.n and grid.t_start + grid.dt * i <= t:
        i += 1
    return i


def _piece_values(shape: PulseShape, T: float, t: np.ndarray) -> np.ndarray:
    """A built-in pulse's defining formula at the times t (an array of any
    shape) inside one of its smooth pieces, between its breakpoints: the
    rectangular plateau, the rising exponential before its cutoff, either
    side of the symmetric exponential's kink, the whole gaussian."""
    if shape is PulseShape.RECTANGULAR:
        return np.full(np.shape(t), 1.0 / math.sqrt(T))
    if shape is PulseShape.RISING_EXP:
        return math.sqrt(2.0 / T) * np.exp(t / T)
    if shape is PulseShape.SYM_EXP:
        return math.sqrt(2.0 / T) * np.exp(-2.0 * np.abs(t) / T)
    if shape is PulseShape.GAUSSIAN:
        return math.sqrt(2.0 / (math.sqrt(math.pi) * T)) * np.exp(-2.0 * t**2 / T**2)
    raise ValueError(shape)


def _builtin_values(shape: PulseShape, T: float, t: np.ndarray, dt: float) -> np.ndarray:
    """Built-in pulse sampled at the ascending times t (any run of a grid's
    nodes, step dt). The jumps of the rectangular and rising-exponential
    pulses are located by binary search, which needs t ascending."""
    if shape is PulseShape.RECTANGULAR:
        v = np.zeros(len(t))
        lo, hi = np.searchsorted(t, -T, "right"), np.searchsorted(t, 0.0)
        v[lo:hi] = _piece_values(shape, T, t[lo:hi])
        return _halve_on_jumps(v, t, dt, (-T, 0.0), 0.5 / math.sqrt(T))
    if shape is PulseShape.RISING_EXP:
        v = np.zeros(len(t))
        i0 = np.searchsorted(t, 0.0)
        v[:i0] = _piece_values(shape, T, t[:i0])
        return _halve_on_jumps(v, t, dt, (0.0,), 0.5 * math.sqrt(2.0 / T))
    return _piece_values(shape, T, t)


def _halve_on_jumps(v: np.ndarray, t: np.ndarray, dt: float, jumps, value: float) -> np.ndarray:
    """Set v to `value`, the mean of the two one-sided limits, at every node
    within _JUMP_REACH dt of a jump; only the nodes within dt of it are tested."""
    for tj in jumps:
        lo, hi = np.searchsorted(t, (tj - dt, tj + dt))
        near = v[lo:hi]
        near[np.abs(t[lo:hi] - tj) < _JUMP_REACH * dt] = value
    return v


def _leading_run(shape: PulseShape, T: float) -> Optional[float]:
    """The rate lam of the exponential C exp(lam t) that the pulse has
    followed since t = -inf (_LEAD_RATES), or None for a pulse that starts
    at rest. Every grid of default_grid_for opens on that run with nodes to
    spare: at least 24 before the rising exponential's cutoff and 25 at or
    before the symmetric exponential's kink, samples_per_unit being >= 2."""
    rate = _LEAD_RATES.get(shape)
    return None if rate is None else rate / T


def check_span(spec: PulseSpec, grid: TimeGrid) -> None:
    """Raise UnsupportedSpanError unless the grid covers the pulse support."""
    lo, hi = spec.support()
    tol = 1e-9 * grid.dt
    if grid.t_start > lo + tol or grid.t_end < hi - tol:
        raise UnsupportedSpanError(
            f"grid [{grid.t_start:g}, {grid.t_end:g}] does not cover the "
            f"pulse support [{lo:g}, {hi:g}]")


def sample_pulse(spec: PulseSpec, grid: TimeGrid) -> ComplexSignal:
    """Evaluate the pulse on the grid.

    Built-in shapes are evaluated pointwise from their defining formulas
    (no renormalization). Custom samples are resampled onto the grid by
    linear interpolation and renormalized to unit photon number.
    """
    check_span(spec, grid)
    t = grid.times()
    if spec.shape is PulseShape.CUSTOM:
        vals = np.interp(t, spec.custom_t, spec.custom_values, left=0.0, right=0.0)
        sig = ComplexSignal(grid, vals)
        nrm = norm_sq(sig)
        if nrm <= 0:
            raise PulseFileError("custom pulse has zero norm on this grid")
        return ComplexSignal(grid, vals / math.sqrt(nrm))
    return ComplexSignal(grid, _builtin_values(spec.shape, spec.duration, t, grid.dt))
