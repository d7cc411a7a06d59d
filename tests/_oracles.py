"""Closed-form reference solutions used as independent oracles.

Everything here was derived by hand integration of the driven relaxation
equations (and double-checked symbolically); none of it goes through the
package's integrators, so agreement is a genuine cross-check. Three
exceptions are plain copies of faster package code, kept as references:
`rk4_full_bloch`, the step-by-step RK4 oracle that `pulsegate.full_bloch`
is checked against, `stepped_output_gram`, the streamed Gram matrix with
every drive-window node stepped (from rest, over a long lead-in for the
pulses that have been on since t = -inf), that the closed-form
exponential runs of `pulsegate.sweep._output_gram` are checked against,
and `csv_text`, the one-value-at-a-time CSV formatter that the CLI's
block writer is checked against.

Conventions: Gamma = 1, times in 1/Gamma.
"""

import math

import numpy as np

from pulsegate.bloch import FullBlochState, SystemParams, decay_block
from pulsegate.errors import StepInstabilityError
from pulsegate.pulses import PulseShape, _builtin_values, check_span, drive_window
from pulsegate.signal import ComplexSignal, _dot, _geometric_sum, require_finite
from pulsegate.sweep import BLOCK_NODES

SQ2 = np.sqrt(2.0)


# -- rectangular pulse, amplitude 1/sqrt(T) on (-T, 0) ----------------------

def rect_sigma1(t, T):
    """First-order dipole for the rectangular pulse."""
    t = np.asarray(t, dtype=float)
    rise = 1j * np.sqrt(2.0 / T) * (1 - np.exp(-(np.minimum(t, 0.0) + T)))
    decay = 1j * np.sqrt(2.0 / T) * (1 - np.exp(-T)) * np.exp(-np.maximum(t, 0.0))
    return np.where(t <= -T, 0.0, np.where(t < 0, rise, decay))


def rect_sigma3_unit(t):
    """Third-order dipole for the rectangular pulse at T = 1:
    -4 i sqrt(2) (1 - e^{-2u} - 2 u e^{-u}), u = t + 1, then free decay."""
    t = np.asarray(t, dtype=float)
    u = np.minimum(t, 0.0) + 1.0
    inside = -4j * SQ2 * (1 - np.exp(-2 * u) - 2 * u * np.exp(-u))
    at_zero = -4j * SQ2 * (1 - np.exp(-2.0) - 2 * np.exp(-1.0))
    return np.where(t <= -1, 0.0, np.where(t < 0, inside, at_zero * np.exp(-np.maximum(t, 0.0))))


# -- rising exponential, amplitude sqrt(2/T) e^{t/T} for t < 0 --------------

def rising_sigma1(t, T):
    """First-order dipole: 2 i sqrt(T)/(T+1) e^{t/T} before the cutoff."""
    t = np.asarray(t, dtype=float)
    amp = 2j * np.sqrt(T) / (T + 1)
    return np.where(t < 0, amp * np.exp(np.minimum(t, 0.0) / T),
                    amp * np.exp(-np.maximum(t, 0.0)))


def rising_b1(t, T):
    """Linear output: sqrt(2/T) (1-T)/(1+T) e^{t/T} before the cutoff,
    -2 sqrt(2T)/(T+1) e^{-t} after; identically zero for t<0 at T=1."""
    t = np.asarray(t, dtype=float)
    pre = np.sqrt(2.0 / T) * (1 - T) / (1 + T) * np.exp(np.minimum(t, 0.0) / T)
    post = -2 * np.sqrt(2.0 * T) / (T + 1) * np.exp(-np.maximum(t, 0.0))
    return np.where(t < 0, pre, post)


def rising_b3(t, T):
    """Cubic output: B e^{3t/T} before the cutoff, B e^{-t} after, with
    B = 16 sqrt(2) T^{3/2} / ((T+1)^2 (3+T))."""
    t = np.asarray(t, dtype=float)
    B = 16 * SQ2 * T ** 1.5 / ((T + 1) ** 2 * (3 + T))
    return np.where(t < 0, B * np.exp(3 * np.minimum(t, 0.0) / T),
                    B * np.exp(-np.maximum(t, 0.0)))


def rising_overlap(T):
    """Overlap integral of b1 and b3: -8 T^2 / (1+T)^3 (equals -1 at T=1)."""
    return -8.0 * T**2 / (1 + T) ** 3


def rising_c12_sq(T):
    """Photon-transfer probability along the rising-exponential family;
    maximal at exactly T = 1 with value 2/3."""
    nb3 = 256 * T**3 / (3 * (T + 1) ** 4 * (3 + T))
    return 2 * (nb3 - rising_overlap(T) ** 2)


def rising_psi2_unit(t):
    """Orthogonal output mode at T = 1: sqrt(6) e^{3t} for t < 0, else 0."""
    t = np.asarray(t, dtype=float)
    return np.where(t < 0, np.sqrt(6.0) * np.exp(3 * np.minimum(t, 0.0)), 0.0)


# -- steady state of the full Bloch equations under constant drive ----------

def bloch_steady_sz(omega):
    """Saturated inversion for constant drive omega = sqrt(2) alpha b:
    sz -> -1 / (2 + 4 omega^2)."""
    return -1.0 / (2.0 + 4.0 * omega**2)


# -- the RK4 oracle stepped node by node in numpy scalars ---------------------

def rk4_full_bloch(b_in, alpha, params=SystemParams()):
    """`full_bloch` as first written: every node stepped by RK4, free
    decay included, with numpy-scalar arithmetic."""
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


# -- the streamed Gram matrix with every drive-window node stepped -----------

# Time units, times 1 / (1 + lam), that the chain is stepped from rest before a
# grid that opens on an exponential e^{lam t}: its transient is then below
# e^-40 = 4e-18 of the driven part, under 2**-53.
LEAD_IN = 40.0


def _leading_rate(spec):
    """lam of the exponential e^{lam t} the pulse has followed since
    t = -inf, or None: the rising exponential (1/T) and the symmetric
    exponential's left side (2/T)."""
    return {PulseShape.RISING_EXP: 1.0 / spec.duration,
            PulseShape.SYM_EXP: 2.0 / spec.duration}.get(spec.shape)


def stepped_output_gram(spec, grid):
    """`pulsegate.sweep._output_gram` with every drive-window node stepped
    block by block, only the free-decay ringdown past it in closed form (its
    weight written through `_geometric_sum`).

    A pulse that has been on since t = -inf is stepped from rest over
    LEAD_IN / (1 + lam) more time units before the grid, on the nodes
    t_start - j dt, so the chain reaches the grid's first node in its
    driven state; only the grid's nodes enter the sums. Other pulses are
    stepped from rest on the grid's first node."""
    check_span(spec, grid)
    dt = grid.dt
    n = drive_window(spec, grid)
    rt2 = math.sqrt(2.0)
    gram = np.zeros((2, 2))
    state = (None, 0.0, None, 0.0)
    lam = _leading_rate(spec)
    if lam is not None:
        lead = grid.t_start - dt * np.arange(math.ceil(LEAD_IN / (1.0 + lam) / dt), 0, -1)
        b = _builtin_values(spec.shape, spec.duration, lead, dt)
        x1 = rt2 * b
        u = decay_block(x1, 1.0, dt)
        x3 = -2.0 * rt2 * b
        x3 *= u * u
        w = decay_block(x3, 1.0, dt)
        state = (x1[-1], u[-1], x3[-1], w[-1])
    for a in range(0, n, BLOCK_NODES):
        b = _builtin_values(spec.shape, spec.duration, grid.times(a, min(a + BLOCK_NODES, n)), dt)
        x1 = rt2 * b
        u = decay_block(x1, 1.0, dt, *state[:2])
        x3 = -2.0 * rt2 * b
        x3 *= u * u
        w = decay_block(x3, 1.0, dt, *state[2:])
        state = (x1[-1], u[-1], x3[-1], w[-1])
        b1 = u * -rt2
        b1 += b
        b3 = w * -rt2
        d13 = _dot(b1, b3)
        gram += ((_dot(b1, b1), d13), (d13, _dot(b3, b3)))
        if a == 0:
            first = np.array((b1[0], b3[0]))
    last = np.array((b1[-1], b3[-1]))
    x, m = 2.0 * dt, grid.n - n
    last_weight = 1.0 + _geometric_sum(x, m) - 0.5 * math.exp(-x * m)
    gram -= 0.5 * np.outer(first, first) + (1.0 - last_weight) * np.outer(last, last)
    gram *= dt
    require_finite(gram)
    return gram


# -- CLI file format --------------------------------------------------------

def csv_text(header, rows):
    """CSV text with every value formatted on its own at 17 significant
    digits: the byte-for-byte reference for `pulsegate.cli._csv`."""
    lines = [header]
    lines.extend(",".join(format(float(x), ".17g") for x in row) for row in rows)
    return "\n".join(lines) + "\n"
