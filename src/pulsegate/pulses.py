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


class PulseShape(str, enum.Enum):
    RECTANGULAR = "rect"
    RISING_EXP = "rising-exp"
    SYM_EXP = "sym-exp"
    GAUSSIAN = "gauss"
    CUSTOM = "custom"


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
        if self.lead_pad < 0 or self.tail <= 0:
            raise ConfigError("lead_pad must be >= 0 and tail > 0")
        return min(duration, 3.0) / (self.samples_per_unit * refine)


DEFAULT_POLICY = GridPolicy()

# extra sampling density on top of the policy rule, per shape
_REFINEMENT = {PulseShape.SYM_EXP: 2}


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

    def discontinuities(self) -> tuple[float, ...]:
        if self.shape is PulseShape.RECTANGULAR:
            return (-self.duration, 0.0)
        if self.shape is PulseShape.RISING_EXP:
            return (0.0,)
        return ()


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


def default_grid_for(spec: PulseSpec, policy: GridPolicy = DEFAULT_POLICY) -> TimeGrid:
    """Grid covering the pulse plus its decay tail, anchored so that the
    pulse discontinuities land at segment midpoints (see module docstring)."""
    dt = policy.step_for(spec.duration, _REFINEMENT.get(spec.shape, 1))
    lo, hi = spec.support()

    if spec.shape is PulseShape.RECTANGULAR:
        T = spec.duration
        m = int(math.ceil(T / dt))           # in-pulse samples; edges mid-segment
        dt = T / m
        n_lead = int(math.ceil(policy.lead_pad / dt + 0.5))
        n_tail = int(math.ceil(policy.tail / dt + 0.5))
        t_start = -T - (n_lead - 0.5) * dt
        n = n_lead + m + n_tail
    elif spec.shape is PulseShape.RISING_EXP:
        # only the t=0 cutoff needs anchoring; nodes at +-(k + 1/2) dt
        n_left = int(math.ceil((-lo + policy.lead_pad) / dt + 0.5))
        n_tail = int(math.ceil(policy.tail / dt + 0.5))
        t_start = -(n_left - 0.5) * dt
        n = n_left + n_tail
    elif spec.shape in (PulseShape.SYM_EXP, PulseShape.GAUSSIAN):
        # kink/center at t=0 on a node
        n_left = int(math.ceil((-lo + policy.lead_pad) / dt))
        n_right = int(math.ceil((hi + policy.tail) / dt))
        t_start = -n_left * dt
        n = n_left + n_right + 1
    else:
        span = (hi + policy.tail) - (lo - policy.lead_pad)
        n = int(math.ceil(span / dt)) + 1
        t_start = lo - policy.lead_pad
        return make_grid(t_start, t_start + span, n)

    return make_grid(t_start, t_start + (n - 1) * dt, n)


def drive_window(spec: PulseSpec, grid: TimeGrid) -> TimeGrid:
    """`grid` stored only up to its first node past spec.drive_end().

    From that node on the pulse has passed and the dipole relaxes freely,
    so the remaining nodes become the grid's free-decay tail. A pulse that
    drives up to the grid end keeps the whole grid.
    """
    t_off = spec.drive_end()
    total = grid.n + grid.tail
    # start just below the estimate, then step to the first node strictly
    # past t_off, with node times computed exactly as TimeGrid.times does
    i = min(max(math.floor((t_off - grid.t_start) / grid.dt) - 1, 0), total)
    while i < total and grid.t_start + grid.dt * i <= t_off:
        i += 1
    return grid.window(min(max(i + 1, 2), total))


def _builtin_values(shape: PulseShape, T: float, t: np.ndarray, dt: float) -> np.ndarray:
    if shape is PulseShape.RECTANGULAR:
        v = np.where((t > -T) & (t < 0), 1.0 / math.sqrt(T), 0.0)
        # a node exactly on a jump takes the mean of the two one-sided limits
        jump_tol = 1e-6 * dt
        for tj in (-T, 0.0):
            v = np.where(np.abs(t - tj) < jump_tol, 0.5 / math.sqrt(T), v)
        return v
    if shape is PulseShape.RISING_EXP:
        amp = math.sqrt(2.0 / T)
        v = np.where(t < 0, amp * np.exp(np.minimum(t, 0.0) / T), 0.0)
        return np.where(np.abs(t) < 1e-6 * dt, 0.5 * amp, v)
    if shape is PulseShape.SYM_EXP:
        return math.sqrt(2.0 / T) * np.exp(-2.0 * np.abs(t) / T)
    if shape is PulseShape.GAUSSIAN:
        return math.sqrt(2.0 / (math.sqrt(math.pi) * T)) * np.exp(-2.0 * t**2 / T**2)
    raise ValueError(shape)


def sample_pulse(spec: PulseSpec, grid: TimeGrid) -> ComplexSignal:
    """Evaluate the pulse on the grid.

    Only the stored nodes are sampled. Built-in shapes are evaluated
    pointwise from their defining formulas (no renormalization). Custom
    samples are resampled onto the grid by linear interpolation and
    renormalized to unit photon number.
    """
    lo, hi = spec.support()
    tol = 1e-9 * grid.dt
    t_last = grid.t_start + (grid.n - 1) * grid.dt   # the tail carries no drive
    if grid.t_start > lo + tol or t_last < hi - tol:
        raise UnsupportedSpanError(
            f"grid [{grid.t_start:g}, {t_last:g}] does not cover the "
            f"pulse support [{lo:g}, {hi:g}]")
    t = grid.times()
    if spec.shape is PulseShape.CUSTOM:
        re = np.interp(t, spec.custom_t, spec.custom_values.real, left=0.0, right=0.0)
        if np.iscomplexobj(spec.custom_values):
            im = np.interp(t, spec.custom_t, spec.custom_values.imag, left=0.0, right=0.0)
            vals = re + 1j * im
        else:
            vals = re
        sig = ComplexSignal(grid, vals)
        nrm = norm_sq(sig)
        if nrm <= 0:
            raise PulseFileError("custom pulse has zero norm on this grid")
        return ComplexSignal(grid, vals / math.sqrt(nrm))
    return ComplexSignal(grid, _builtin_values(spec.shape, spec.duration, t, grid.dt))
