"""Output pulse shapes from the dipole response via input-output theory.

For a lossless single-sided system the outgoing field is the incoming
field plus the dipole radiation, b_out = a b_in + i sqrt(2 Gamma) <s->.
Order by order in the drive amplitude, with the dipole orders stored as
u = s1/i and w = s3/i (bloch), this gives

    b1 = b_in - sqrt(2 Gamma) u      (normalized: photon conservation)
    b3 =      - sqrt(2 Gamma) w

in the pulse's own dtype, real for a real pulse. |b1|^2 integrates to 1
whenever the grid captures the full decay; a deviation beyond 1e-4 marks
an inadequate span or step and is raised as an error rather than
propagated into the two-photon amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import ResponseChain, SystemParams
from .errors import GridMismatchError, NormViolationError
from .signal import ComplexSignal, norm_sq

NORM_TOLERANCE = 1e-4


@dataclass(frozen=True)
class OutputPair:
    """Linear and cubic components of the average output field."""

    linear: ComplexSignal   # b1
    cubic: ComplexSignal    # b3


def assemble_outputs(b_in: ComplexSignal, chain: ResponseChain,
                     params: SystemParams = SystemParams()) -> OutputPair:
    """Combine input and dipole orders into the output pulse shapes."""
    if chain.first_order.grid != b_in.grid:
        raise GridMismatchError("response chain was computed on a different grid")
    rt2g = np.sqrt(2 * params.gamma)
    b1 = ComplexSignal(b_in.grid, b_in.values - rt2g * chain.first_order.values)
    # 0.0 - keeps b3 +0.0 where w is zero (before the pulse), not -0.0
    b3 = ComplexSignal(b_in.grid, 0.0 - rt2g * chain.third_order.values)
    check_linear_norm(norm_sq(b1))
    return OutputPair(b1, b3)


def check_linear_norm(n1: float) -> None:
    """Raise NormViolationError unless the linear output norm n1 = ||b1||^2
    is 1 within NORM_TOLERANCE."""
    if abs(n1 - 1.0) > NORM_TOLERANCE:
        raise NormViolationError(
            f"linear output norm {n1:.8f} deviates from 1 beyond {NORM_TOLERANCE:g}; "
            "grid span or step is inadequate for this pulse")


def semiclassical_output(pair: OutputPair, alpha: complex) -> ComplexSignal:
    """Truncated output field a*b1 + a|a|^2*b3 for drive amplitude a."""
    a = complex(alpha)
    return ComplexSignal(pair.linear.grid,
                         a * pair.linear.values
                         + (a * abs(a) ** 2) * pair.cubic.values)
