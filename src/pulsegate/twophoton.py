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
margins are reported by limit_report, though a solved point can report a
circle violation only from about -5e-5 to -LIMIT_TOL: amplitudes raises on
a larger one.

All four numbers follow from three overlap integrals, ||b1||^2, <b1|b3>
and ||b3||^2, which amplitudes turns into them: the streamed sweep
feeds it its Gram matrix, and decompose the trapezoid sums of a stored
output pair, from which it then forms psi1 and psi2. psi1 is b1 rescaled
by its quadrature norm (unity within 1e-4, enforced upstream); using the
rescaled mode in the projection makes orthogonality and the
reconstruction of b3 exact at the discrete level instead of merely within
the quadrature tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import UnphysicalDecompositionError
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


def amplitudes(n1: float, b1_b3: complex,
               b3_sq: float) -> tuple[complex, complex, float, float]:
    """(overlap, c11, c12_sq, cr_sq) from the three overlap integrals
    n1 = ||b1||^2, b1_b3 = <b1|b3> and b3_sq = ||b3||^2.

    With psi1 = b1 / sqrt(n1): overlap = <psi1|b3>, c11 = 1 + overlap,
    c12_sq = 2 (||b3||^2 - |c11 - 1|^2) and cr_sq = 1 - |c11|^2 - c12_sq.
    Tiny negative c12_sq or cr_sq (rounding) clamp to zero. A c12_sq below
    -CLAMP_NEGATIVE, or a cr_sq below -UNPHYSICAL_TOL (c11_sq + c12_sq over
    1), marks inconsistent inputs and raises UnphysicalDecompositionError.
    """
    v = complex(b1_b3 / math.sqrt(n1))
    c11 = 1 + v
    c12_sq = 2 * (float(b3_sq) - abs(c11 - 1) ** 2)
    if c12_sq < 0:
        if c12_sq < -CLAMP_NEGATIVE:
            raise UnphysicalDecompositionError(
                f"c12_sq={c12_sq:.3e} is negative beyond rounding")
        c12_sq = 0.0
    cr_sq = 1 - abs(c11) ** 2 - c12_sq
    if cr_sq < -UNPHYSICAL_TOL:
        raise UnphysicalDecompositionError(
            f"c11_sq + c12_sq = {abs(c11)**2 + c12_sq:.6f} exceeds 1")
    return v, c11, c12_sq, max(cr_sq, 0.0)


def decompose(pair: OutputPair) -> OutputDecomposition:
    """Amplitudes and modes of the pair, from its three trapezoid sums.

    psi2 is b3's remainder after projecting out psi1, normalized by its own
    trapezoid norm, so the psi2 coefficient of b3 is real positive; psi2 is
    None when that norm is too small to give a direction.
    """
    b1, b3 = pair.linear, pair.cubic
    n1 = norm_sq(b1)
    b1_b3 = inner_product(b1, b3)
    v, c11, c12_sq, cr_sq = amplitudes(n1, b1_b3, norm_sq(b3))
    psi1 = ComplexSignal(b1.grid, b1.values / math.sqrt(n1))
    # v in the pair's own dtype, so a real pair gives a real psi2
    residual = ComplexSignal(b1.grid, b3.values - b1_b3 / math.sqrt(n1) * psi1.values)
    rho = math.sqrt(norm_sq(residual))
    psi2 = ComplexSignal(b1.grid, residual.values / rho) if rho > MODE_NORM_FLOOR else None
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
    """Margins of the quantum-limit inequalities for a known overlap.

    On a solved point circle_ok is False only for -5e-5 <~ circle_margin <
    -LIMIT_TOL: circle_margin = 1 - |c11|, and amplitudes raises once
    |c11|^2 + c12^2 > 1 + UNPHYSICAL_TOL."""
    v = complex(overlap)
    circle_margin = 1 - abs(v + 1)
    reduction_margin = -(1 - math.sqrt(max(1 - c12_sq, 0.0))) - v.real
    return LimitReport(overlap=v,
                       circle_margin=circle_margin,
                       reduction_margin=reduction_margin,
                       circle_ok=circle_margin >= -LIMIT_TOL,
                       reduction_ok=reduction_margin >= -LIMIT_TOL)

