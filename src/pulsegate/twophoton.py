"""Two-photon amplitudes and temporal modes from the output pulse shapes.

The cubic output b3 is split into its component along the (normalized)
linear output mode psi1 and an orthogonal remainder:

    overlap = <psi1|b3>            c11 = 1 + overlap
    b3      = overlap psi1 + rho psi2,   rho = c12 / sqrt(2) >= 0

c11 is the amplitude for both photons of a two-photon input to stay in
the linear output mode (c11 = -1 is a perfect conditional phase flip),
c12 the amplitude for exactly one photon to move to the orthogonal mode
psi2, and cr_sq = 1 - |c11|^2 - c12^2 the leftover weight in modes not
visible in the averaged field. A physical third-order response keeps the
overlap inside the unit circle centered at -1, with the real part pushed
below -(1 - sqrt(1 - c12^2)) as soon as photon transfer occurs; both
margins are checked by check_quantum_limit.

psi1 is b1 rescaled by its quadrature norm (unity within 1e-6, enforced
upstream); using the rescaled mode in the projection makes orthogonality
and the reconstruction of b3 exact at the discrete level instead of
merely within the quadrature tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UndefinedModeError, UnphysicalDecompositionError
from .output import OutputPair
from .signal import ComplexSignal, inner_product, norm_sq

CLAMP_NEGATIVE = 1e-10     # squared magnitudes above -1e-10 are rounding
UNPHYSICAL_TOL = 1e-4      # beyond this the inputs are inconsistent
MODE_NORM_FLOOR = 1e-8     # orthogonal component below this has no direction
LIMIT_TOL = 1e-6


@dataclass(frozen=True)
class OutputDecomposition:
    """Amplitudes and modes of the two-photon output."""

    psi1: ComplexSignal
    psi2: Optional[ComplexSignal]   # None in the linear regime (c12 ~ 0)
    c11: complex
    c12: float                      # real >= 0 by phase convention
    cr_sq: float
    overlap: complex                # <psi1|b3> = c11 - 1

    @property
    def c11_sq(self) -> float:
        return abs(self.c11) ** 2

    @property
    def c12_sq(self) -> float:
        return self.c12 ** 2


@dataclass(frozen=True)
class ModeExpectations:
    """Coherent-state expectation values of the two output mode operators."""

    a1: complex
    a2: complex


@dataclass(frozen=True)
class LimitReport:
    """Margins of the two quantum-limit inequalities (>= 0 passes)."""

    overlap: complex
    circle_margin: float      # 1 - |overlap + 1|
    reduction_margin: float   # -(1 - sqrt(1 - c12^2)) - Re overlap
    circle_ok: bool
    reduction_ok: bool


def _project(pair: OutputPair) -> tuple[ComplexSignal, complex]:
    """The linear output mode psi1 = b1 / ||b1|| and the overlap <psi1|b3>."""
    b1 = pair.linear
    psi1 = ComplexSignal(b1.grid, b1.values / math.sqrt(norm_sq(b1)))
    return psi1, inner_product(psi1, pair.cubic)


def _remainder(pair: OutputPair, psi1: ComplexSignal,
               overlap: complex) -> tuple[Optional[ComplexSignal], float]:
    """b3's remainder after projecting out psi1, as its unit mode psi2 and
    its norm rho; psi2 is None when rho is too small to give a direction."""
    residual = pair.cubic.values - overlap * psi1.values
    rho = math.sqrt(max(norm_sq(ComplexSignal(psi1.grid, residual)), 0.0))
    psi2 = ComplexSignal(psi1.grid, residual / rho) if rho > MODE_NORM_FLOOR else None
    return psi2, rho


def compute_c11(pair: OutputPair) -> complex:
    """Both-photons-stay amplitude c11 = 1 + <psi1|b3>."""
    return 1 + _project(pair)[1]


def compute_c12_sq(pair: OutputPair, c11: complex) -> float:
    """Photon-transfer probability c12^2 = 2 (|b3|^2 integral - |c11 - 1|^2)."""
    return c12_sq_from(norm_sq(pair.cubic), c11)


def c12_sq_from(b3_norm_sq: float, c11: complex) -> float:
    """c12^2 = 2 (||b3||^2 - |c11 - 1|^2) from the cubic output's norm.

    Tiny negative results (rounding) clamp to zero; a genuinely negative
    value or c11_sq + c12_sq > 1 marks inconsistent inputs.
    """
    v_sq = abs(c11 - 1) ** 2
    c12_sq = 2 * (b3_norm_sq - v_sq)
    if c12_sq < 0:
        if c12_sq < -CLAMP_NEGATIVE:
            raise UnphysicalDecompositionError(
                f"c12_sq={c12_sq:.3e} is negative beyond rounding")
        c12_sq = 0.0
    if abs(c11) ** 2 + c12_sq > 1 + UNPHYSICAL_TOL:
        raise UnphysicalDecompositionError(
            f"c11_sq + c12_sq = {abs(c11)**2 + c12_sq:.6f} exceeds 1")
    return c12_sq


def compute_cr_sq(c11: complex, c12_sq: float) -> float:
    """Residual probability 1 - |c11|^2 - c12^2, clamping rounding noise."""
    cr_sq = 1 - abs(c11) ** 2 - c12_sq
    if cr_sq < -UNPHYSICAL_TOL:
        raise UnphysicalDecompositionError(
            f"cr_sq={cr_sq:.3e}: amplitudes exceed total probability 1")
    return max(cr_sq, 0.0)


def extract_psi2(pair: OutputPair) -> ComplexSignal:
    """Unit-norm mode orthogonal to psi1: the direction of b3's remainder
    after projecting out psi1. Its global phase is fixed by making the
    psi2 coefficient of b3 real positive, which is what the projection
    residual delivers directly."""
    psi2, rho = _remainder(pair, *_project(pair))
    if psi2 is None:
        raise UndefinedModeError(
            f"orthogonal component norm {rho:.2e} below {MODE_NORM_FLOOR:g}; "
            "the output is effectively single mode here")
    return psi2


def decompose(pair: OutputPair) -> OutputDecomposition:
    """Full decomposition in one pass (shared normalization and overlap)."""
    psi1, v = _project(pair)
    c11 = 1 + v
    c12_sq = compute_c12_sq(pair, c11)
    cr_sq = compute_cr_sq(c11, c12_sq)
    psi2, _ = _remainder(pair, psi1, v)
    return OutputDecomposition(psi1=psi1, psi2=psi2, c11=c11,
                               c12=math.sqrt(c12_sq), cr_sq=cr_sq, overlap=v)


def coherent_expectations(alpha: complex, c11: complex, c12: float) -> ModeExpectations:
    """Mode amplitudes seen in the averaged output of a coherent drive:
    <a1> = a + (c11 - 1) a |a|^2,  <a2> = (c12/sqrt(2)) a |a|^2."""
    a = complex(alpha)
    cubic = a * abs(a) ** 2
    return ModeExpectations(a1=a + (c11 - 1) * cubic,
                            a2=(c12 / math.sqrt(2)) * cubic)


def limit_report(overlap: complex, c12_sq: float) -> LimitReport:
    """Margins of the quantum-limit inequalities for a known overlap."""
    v = complex(overlap)
    circle_margin = 1 - abs(v + 1)
    reduction_margin = -(1 - math.sqrt(max(1 - c12_sq, 0.0))) - v.real
    return LimitReport(overlap=v,
                       circle_margin=circle_margin,
                       reduction_margin=reduction_margin,
                       circle_ok=circle_margin >= -LIMIT_TOL,
                       reduction_ok=reduction_margin >= -LIMIT_TOL)


def check_quantum_limit(pair: OutputPair, c12_sq: float) -> LimitReport:
    """Evaluate both quantum-limit inequalities for this output pair.

    Violations are reported, not raised: they indicate solver defects, and
    the margins are the useful diagnostic.
    """
    return limit_report(_project(pair)[1], c12_sq)
