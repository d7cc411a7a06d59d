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

Each built-in shape's breakpoints are stated once, in its Geometry record
(GEOMETRY), which the spec, the sampler, the grid layout, sweep's
continuum panels and the chain's driven start all read.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, SolverError
from .signal import ComplexSignal, TimeGrid, make_grid, norm_sq

# Leading cutoff for the rising exponential: |b(t)|^2 integrated below the
# cutoff is 1e-10 of the pulse, i.e. exp(2 t/T) = 1e-10.
RISING_LEAD_FACTOR = 0.5 * math.log(1e10)  # 11.5129...
# T times where the sym-exp and gauss formulas, which never reach 0, fall
# to 2^-53 of their peak, too small to change any sum they enter
SYM_EXP_DRIVE_END = 0.5 * math.log(2.0**53)            # 18.37
GAUSS_DRIVE_END = math.sqrt(0.5 * math.log(2.0**53))   # 4.29
# a node closer than this many steps dt to a jump takes the jump's mean value
_JUMP_REACH = 1e-6


class PulseShape(str, enum.Enum):
    RECTANGULAR = "rect"
    RISING_EXP = "rising-exp"
    SYM_EXP = "sym-exp"
    GAUSSIAN = "gauss"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Geometry:
    """Where a built-in pulse's formula (_piece_values) holds and breaks,
    in units of its duration T:

    on         where the formula holds; the pulse is 0 outside, and a finite
               end is a jump, sampled as the mean of its two limits
    support    the window a grid must cover (check_span)
    lead_rate  T lam of the exponential C exp(lam t) that the pulse has
               followed since t = -inf up to piece[0], or 0 for a pulse at
               rest there; a lead that ends inside `on` ends on a kink
    piece      the smooth piece that the continuum panels tile; past its
               end the pulse stays below 2^-53 of its peak
    """

    on: tuple[float, float]
    support: tuple[float, float]
    lead_rate: float
    piece: tuple[float, float]


GEOMETRY = {
    PulseShape.RECTANGULAR: Geometry((-1.0, 0.0), (-1.0, 0.0), 0.0, (-1.0, 0.0)),
    # the lead is the whole pulse; its piece is the cutoff, one instant
    PulseShape.RISING_EXP: Geometry((-math.inf, 0.0), (-RISING_LEAD_FACTOR, 0.0), 1.0, (0.0, 0.0)),
    # +-6T: truncated tail weight 0.5*exp(-24) ~ 1.9e-11; the lead ends on the kink
    PulseShape.SYM_EXP: Geometry((-math.inf, math.inf), (-6.0, 6.0), 2.0,
                                 (0.0, SYM_EXP_DRIVE_END)),
    # +-3T: truncated tail weight 0.5*erfc(6) ~ 1.1e-17
    PulseShape.GAUSSIAN: Geometry((-math.inf, math.inf), (-3.0, 3.0), 0.0,
                                  (-GAUSS_DRIVE_END, GAUSS_DRIVE_END)),
}


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

    def __post_init__(self):
        if self.samples_per_unit < 2:
            raise ConfigError(f"samples_per_unit={self.samples_per_unit} too small")
        if not (0 <= self.lead_pad < math.inf and 0 < self.tail < math.inf):
            raise ConfigError("lead_pad must be finite and >= 0, tail finite and > 0; "
                              f"got lead_pad={self.lead_pad}, tail={self.tail}")

    def step_for(self, duration: float, refine: int = 1) -> float:
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
        t, v = self.custom_t, self.custom_values
        if self.shape is not PulseShape.CUSTOM:
            if t is not None or v is not None:
                raise ConfigError("custom samples go with shape='custom' only")
        elif t is None or v is None or np.ndim(t) != 1 or len(t) < 2 or np.shape(v) != np.shape(t):
            raise ConfigError("custom pulse needs matching 1-d t and value arrays "
                              "of at least 2 samples")
        elif not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ConfigError("custom pulse contains non-finite samples")
        elif not (np.diff(t) > 0).all():
            raise ConfigError("custom pulse times must be strictly ascending")
        elif not np.any(v):
            raise ConfigError("custom pulse is identically zero")
        elif self.duration != t[-1] - t[0]:
            # the grid is sized from the duration: it must be the sampled span
            raise ConfigError(f"custom pulse duration {self.duration!r} is not "
                              f"its samples' span {t[-1] - t[0]!r}")
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ConfigError(f"pulse duration must be positive, got {self.duration}")

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
        # a t with no span gets a stand-in, which __post_init__ refuses with t
        span = t[-1] - t[0] if t.ndim == 1 and len(t) > 1 else 1.0
        return cls(PulseShape.CUSTOM, float(span), t, np.asarray(values))

    @classmethod
    def from_file(cls, path: str | Path) -> "PulseSpec":
        t, v = load_pulse_file(path)
        return cls.custom(t, v)

    def support(self) -> tuple[float, float]:
        """Window outside which the pulse is (numerically) zero."""
        if self.shape is PulseShape.CUSTOM:
            return (float(self.custom_t[0]), float(self.custom_t[-1]))
        return tuple(self.duration * x for x in GEOMETRY[self.shape].support)

    def drive_end(self) -> float:
        """Instant past which the pulse is below 2^-53 of its peak (for a
        custom pulse, its last sample)."""
        if self.shape is PulseShape.CUSTOM:
            return float(self.custom_t[-1])
        return self.duration * GEOMETRY[self.shape].piece[1]


def load_pulse_file(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a sampled pulse: one sample per line, whitespace- or
    comma-separated, columns (t, value) or (t, re, im), ascending t,
    '#' comments allowed."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read pulse file {path}: {exc}") from exc
    ts, vals = [], []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) not in (2, 3):
            raise ConfigError(f"{path}:{ln}: expected 2 or 3 columns, got {len(parts)}")
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: {exc}") from exc
        ts.append(nums[0])
        vals.append(nums[1] if len(parts) == 2 else complex(nums[1], nums[2]))
    if len(ts) < 2:
        raise ConfigError(f"{path}: need at least 2 samples")
    t = np.array(ts, dtype=float)
    v = np.array(vals)
    if not (np.diff(t) > 0).all():
        raise ConfigError(f"{path}: times must be strictly ascending")
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
    lo, hi = spec.support()
    if spec.shape is PulseShape.CUSTOM:
        dt = policy.step_for(T)
        span = (hi + policy.tail) - (lo - policy.lead_pad)
        n = _steps(span / dt) + 1
        t_start = lo - policy.lead_pad
        grid = make_grid(t_start, t_start + span, n)
        # node times t_start + i dt round to the spacing of doubles near
        # them; from about 2**-20 dt on, that moves c12^2 by 1e-12 (README)
        edge = max(abs(grid.t_start), abs(grid.t_end))
        if math.ulp(edge) > 2.0**-20 * grid.dt:
            raise ConfigError(
                f"custom pulse times reach |t| = {edge:g}, where doubles are "
                f"{math.ulp(edge):.3g} apart, over 2**-20 of the grid step "
                f"{grid.dt:.3g}; shift the times toward t = 0")
        return grid

    geo = GEOMETRY[spec.shape]
    # a lead that ends inside `on` ends on a kink (the symmetric exponential's)
    dt = policy.step_for(T, 2 if geo.lead_rate and geo.piece[0] < geo.on[1] else 1)
    if spec.shape is PulseShape.RECTANGULAR:
        m = _steps(T / dt)            # in-pulse samples; edges mid-segment
        dt = T / m
        n_lead = _steps(policy.lead_pad / dt + 0.5)
        n_tail = _steps(policy.tail / dt + 0.5)
        t_start = -T - (n_lead - 0.5) * dt
        n = n_lead + m + n_tail
    else:
        # nodes at (k + h) dt: t = 0 mid-segment where it is a jump (`on`
        # ends there: the rising exponential's cutoff), on a node where it
        # is a kink or a centre (symmetric exponential, gaussian)
        h = 0.5 if geo.on[1] == 0.0 else 0.0
        n_left = _steps((-lo + policy.lead_pad) / dt + h)
        n_right = _steps((hi + policy.tail) / dt + h)
        t_start = -(n_left - h) * dt
        n = n_left + n_right + int(h == 0.0)     # and the node on t = 0, if any

    return make_grid(t_start, t_start + (n - 1) * dt, n)


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
    nodes, step dt): the formula inside `on`, 0 outside, and the mean of the
    two limits at every node within _JUMP_REACH dt of a jump (a finite end
    of `on`). The ends are found by binary search, which needs t ascending."""
    ends = [T * x for x in GEOMETRY[shape].on]
    lo, hi = np.searchsorted(t, ends[0], "right"), np.searchsorted(t, ends[1])
    v = np.zeros(len(t))
    v[lo:hi] = _piece_values(shape, T, t[lo:hi])
    for tj in filter(math.isfinite, ends):
        i, j = np.searchsorted(t, (tj - dt, tj + dt))
        near = v[i:j]
        near[np.abs(t[i:j] - tj) < _JUMP_REACH * dt] = 0.5 * _piece_values(shape, T, tj)
    return v


def check_span(spec: PulseSpec, grid: TimeGrid) -> None:
    """Raise SolverError unless the grid covers the pulse support."""
    lo, hi = spec.support()
    tol = 1e-9 * grid.dt
    if grid.t_start > lo + tol or grid.t_end < hi - tol:
        raise SolverError(
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
            raise ConfigError("custom pulse has zero norm on this grid")
        return ComplexSignal(grid, vals / math.sqrt(nrm))
    return ComplexSignal(grid, _builtin_values(spec.shape, spec.duration, t, grid.dt))
