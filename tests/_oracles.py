"""Closed-form reference solutions used as independent oracles.

Everything here was derived by hand integration of the driven relaxation
equations (and double-checked symbolically); none of it goes through the
package's integrators, so agreement is a genuine cross-check. The
exceptions are kept as references for faster package code:
`rk4_full_bloch`, the step-by-step RK4 oracle that `pulsegate.full_bloch`
is checked against; `stepped_output_gram`, the Gram matrix of the outputs
with every node of its drive window (`drive_window`) stepped (from rest,
over a long lead-in for the pulses that have been on since t = -inf),
whose Richardson value,
with `continuum_lead`, judges `pulsegate.sweep.run_point`'s continuum
amplitudes; `adiabatic_gram`, the gaussian's adiabatic series, which
judges them from gamma_t = 100 on; and `csv_text`, the one-value-at-a-time
CSV formatter that the CLI's block writer is checked against.

Conventions: Gamma = 1, times in 1/Gamma.
"""

import math

import numpy as np

from pulsegate.bloch import FullBlochState, SystemParams, decay_block
from pulsegate.errors import SolverError, StepInstabilityError
from pulsegate.pulses import (GridPolicy, PulseShape, _builtin_values, check_span,
                              default_grid_for)
from pulsegate.signal import ComplexSignal, _dot, require_finite

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


def rect_overlap(T):
    """<b1|b3> = 4 (11 - 6T - 18 e^-T + 9 e^-2T - 2 e^-3T) / (3 T^2), with
    ||b1|| = 1. The bracket cancels as T^4, so in float64 it holds 1e-14 only
    from T = 1 on."""
    e = np.exp(-T)
    return 4.0 * (11.0 - 6.0 * T - 18.0 * e + 9.0 * e**2 - 2.0 * e**3) / (3.0 * T**2)


def rect_b3_norm_sq(T):
    """||b3||^2 = 16 (36T - 101 + e^-T (72T + 144) - e^-2T (72T + 36)
    + e^-3T (24T - 16) + 9 e^-4T) / (9 T^3), in float64 from T = 1 on."""
    e = np.exp(-T)
    return 16.0 * (36.0 * T - 101.0 + e * (72.0 * T + 144.0) - e**2 * (72.0 * T + 36.0)
                   + e**3 * (24.0 * T - 16.0) + 9.0 * e**4) / (9.0 * T**3)


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


def rising_b3_norm_sq(T):
    """||b3||^2 = 256 T^3 / (3 (T+1)^4 (3+T))."""
    return 256 * T**3 / (3 * (T + 1) ** 4 * (3 + T))


def rising_c12_sq(T):
    """Photon-transfer probability along the rising-exponential family;
    maximal at exactly T = 1 with value 2/3."""
    return 2 * (rising_b3_norm_sq(T) - rising_overlap(T) ** 2)


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
    """`full_bloch` as first written: every node of <s-> stepped by RK4,
    free decay included, with numpy-scalar arithmetic; returned as v = <s->/i
    like `full_bloch`'s."""
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
    # returned as v = <s->/i, exactly: real part s.imag, imaginary part
    # -s.real, whose zeros 0.0 - keeps at +0.0 as full_bloch's v has them;
    # a real pulse with a real alpha keeps <s-> imaginary, so v real
    if not np.iscomplexobj(b_in.values) and complex(alpha).imag == 0:
        assert not sm.real.any()
        v = sm.imag.copy()
    else:
        v = np.empty(n, dtype=complex)
        v.real, v.imag = sm.imag, 0.0 - sm.real
    return FullBlochState(ComplexSignal(b_in.grid, v), sz, complex(alpha))


# -- the Gram matrix with every drive-window node stepped -------------------

# Nodes per block of stepped_output_gram: the dozen block-long arrays alive
# at once stay in cache, whatever the grid's length.
BLOCK_NODES = 16384
# Time units, times 1 / (1 + lam), that the chain is stepped from rest before a
# grid that opens on an exponential e^{lam t}: its transient is then below
# e^-40 = 4e-18 of the driven part, under 2**-53.
LEAD_IN = 40.0


def geometric_sum(x, m):
    """exp(-x) + exp(-2x) + ... + exp(-m x) for x >= 0: the weight, in units
    of the first node's value, of m nodes of a product that changes by
    exp(-x) per node, such as the free-decay ringdown after a drive window."""
    if x == 0.0:
        return float(m)
    # q (1 - q^m) / (1 - q), q = exp(-x), through expm1, which keeps
    # precision as x -> 0
    return math.exp(-x) * math.expm1(-x * m) / math.expm1(-x)


def _leading_rate(spec):
    """lam of the exponential e^{lam t} the pulse has followed since
    t = -inf, or None: the rising exponential (1/T) and the symmetric
    exponential's left side (2/T)."""
    return {PulseShape.RISING_EXP: 1.0 / spec.duration,
            PulseShape.SYM_EXP: 2.0 / spec.duration}.get(spec.shape)


def _nodes_through(grid, t):
    """Number of grid nodes at or before time t, which is the index of the
    first node strictly past t (grid.n if there is none), with node times
    computed exactly as TimeGrid.times does."""
    # start just below the estimate, then step to the first node past t
    i = min(max(math.floor((t - grid.t_start) / grid.dt) - 1, 0), grid.n)
    while i < grid.n and grid.t_start + grid.dt * i <= t:
        i += 1
    return i


def drive_window(spec, grid):
    """Number of leading grid nodes up to and including the first one past
    spec.drive_end(): from that node on the pulse has passed and the dipole
    relaxes freely. A pulse that drives up to the grid end gets all of them.
    """
    return min(max(_nodes_through(grid, spec.drive_end()) + 1, 2), grid.n)


def _stepped(x, dt, prev):
    """decay_block at rate 1 over the drive x, continued from prev = (drive,
    state) at the node before x, or from rest on x's first node if None."""
    if prev is None:
        return decay_block(x, 1.0, dt)
    return decay_block(np.r_[prev[0], x], 1.0, dt, prev[1])[1:]


def stepped_output_gram(spec, grid):
    """Trapezoid Gram matrix [[<b1|b1>, <b1|b3>], [<b3|b1>, <b3|b3>]] of the
    outputs of a built-in pulse on `grid`, with every drive-window node
    stepped block by block by the ETD recurrence and only the free-decay
    ringdown past it in closed form (its weight through `geometric_sum`).

    A pulse that has been on since t = -inf is stepped from rest over
    LEAD_IN / (1 + lam) more time units before the grid, on the nodes
    t_start - j dt, so the chain reaches the grid's first node in its
    driven state; only the grid's nodes enter the sums, and
    `continuum_lead` is what they leave out. Other pulses are stepped from
    rest on the grid's first node."""
    check_span(spec, grid)
    dt = grid.dt
    n = drive_window(spec, grid)
    rt2 = math.sqrt(2.0)
    gram = np.zeros((2, 2))
    prev = (None, None)   # (drive, state) of u and of w at the node before a block
    lam = _leading_rate(spec)
    if lam is not None:
        lead = grid.t_start - dt * np.arange(math.ceil(LEAD_IN / (1.0 + lam) / dt), 0, -1)
        b = _builtin_values(spec.shape, spec.duration, lead, dt)
        x1 = rt2 * b
        u = decay_block(x1, 1.0, dt)
        x3 = -2.0 * rt2 * b
        x3 *= u * u
        w = decay_block(x3, 1.0, dt)
        prev = ((x1[-1], u[-1]), (x3[-1], w[-1]))
    for a in range(0, n, BLOCK_NODES):
        b = _builtin_values(spec.shape, spec.duration, grid.times(a, min(a + BLOCK_NODES, n)), dt)
        x1 = rt2 * b
        u = _stepped(x1, dt, prev[0])
        x3 = -2.0 * rt2 * b
        x3 *= u * u
        w = _stepped(x3, dt, prev[1])
        prev = ((x1[-1], u[-1]), (x3[-1], w[-1]))
        b1 = u * -rt2
        b1 += b
        b3 = w * -rt2
        d13 = _dot(b1, b3)
        gram += ((_dot(b1, b1), d13), (d13, _dot(b3, b3)))
        if a == 0:
            first = np.array((b1[0], b3[0]))
    last = np.array((b1[-1], b3[-1]))
    x, m = 2.0 * dt, grid.n - n
    last_weight = 1.0 + geometric_sum(x, m) - 0.5 * math.exp(-x * m)
    gram -= 0.5 * np.outer(first, first) + (1.0 - last_weight) * np.outer(last, last)
    gram *= dt
    require_finite(gram)
    return gram


def continuum_lead(spec, t_start):
    """The Gram entries of the continuum outputs before t_start, where a
    pulse on since t = -inf drives the dipole in its driven state
    u = sqrt(2) b / (1 + lam), w = x3 / (1 + 3 lam), x3 = -2 sqrt(2) b u^2:
    b1 = b - sqrt(2) u and b3 = -sqrt(2) w go as e^{lam t} and e^{3 lam t},
    so the integrals are b1^2 / (2 lam), b1 b3 / (4 lam) and b3^2 / (6 lam)
    at t_start. Zero for the pulses that start at rest. Added to
    `stepped_output_gram`, whose grid starts at -6T - lead_pad, it restores
    the weight of the sym-exp lead, e^-24 of the pulse."""
    lam = _leading_rate(spec)
    if lam is None:
        return np.zeros((2, 2))
    b = float(_builtin_values(spec.shape, spec.duration, np.array([t_start]), 1.0)[0])
    u = SQ2 * b / (1.0 + lam)
    w = -2.0 * SQ2 * b * u * u / (1.0 + 3.0 * lam)
    end = np.array((b - SQ2 * u, -SQ2 * w))
    return np.outer(end, end) / (lam * np.array(((2.0, 4.0), (4.0, 6.0))))


# -- the gaussian's adiabatic series, for gamma_t >= 100 ---------------------

# A series is summed once its next term is below the rounding of its sum,
# which from gamma_t = 100 on takes at most SERIES_TERMS terms
SETTLED = 2.0**-53
SERIES_TERMS = 16


def gauss_moment(p, c):
    """Integral over the real line of p(s) exp(-c s^2), p by ascending
    coefficients: sum over even j of p_j G((j+1)/2) / c^((j+1)/2)."""
    even = p[::2]
    ratios = np.arange(1.0, 2.0 * len(even) - 1.0, 2.0) / (2.0 * c)
    return float(even @ np.cumprod(np.r_[math.sqrt(math.pi / c), ratios]))


def adiabatic_series(p, a, T):
    """The response y of y' = -y + x, t = T s, to the slow drive
    x = p(s) exp(-a s^2): sum over k of (-1/T)^k d^k x / ds^k, returned as the
    polynomial factor of exp(-a s^2). Terms are added until the next one is
    at most 2**-53 of the sum in L2 norm; SolverError if that takes more
    than SERIES_TERMS terms."""
    total = term = p
    for _ in range(SERIES_TERMS):
        # d/ds [q exp(-a s^2)] = (q' - 2 a s q) exp(-a s^2)
        term = (np.r_[term[1:] * np.arange(1, len(term)), 0.0, 0.0]
                - 2.0 * a * np.r_[0.0, term]) / -T
        if (gauss_moment(np.convolve(term, term), 2.0 * a)
                <= SETTLED**2 * gauss_moment(np.convolve(total, total), 2.0 * a)):
            return total
        total = np.append(total, 0.0) + term
    raise SolverError(f"the adiabatic series at gamma_t={T:g} has not settled "
                      f"within {SERIES_TERMS} terms")


def adiabatic_gram(T):
    """The Gram matrix of the gaussian pulse of duration T's outputs, in
    the continuum, by the adiabatic series: exact up to the series' own
    2**-53 from T = 100 on.

    In s = t/T every function is a polynomial times a gaussian: the pulse b
    and u = sqrt(2) sum_k (-1/T)^k d^k b / ds^k (so b1 = b - sqrt(2) u) go
    as exp(-2 s^2), the drive x3 = -2 sqrt(2) b u^2 and its response w
    (so b3 = -sqrt(2) w) as exp(-6 s^2). The Gram entries are then moments
    of exp(-4 s^2), exp(-8 s^2) and exp(-12 s^2), times T = dt/ds.
    """
    amp = math.sqrt(2.0 / (math.sqrt(math.pi) * T))    # pulses._piece_values' gaussian
    u = adiabatic_series(np.array([SQ2 * amp]), 2.0, T)
    w = adiabatic_series(-2.0 * SQ2 * amp * np.convolve(u, u), 6.0, T)
    b1 = u * -SQ2
    b1[0] += amp
    b3 = w * -SQ2
    d13 = gauss_moment(np.convolve(b1, b3), 8.0)
    return T * np.array(((gauss_moment(np.convolve(b1, b1), 4.0), d13),
                         (d13, gauss_moment(np.convolve(b3, b3), 12.0))))


# -- the judges of the continuum Gram matrix ----------------------------------

def richardson_gram(spec, samples_per_unit=None):
    """(r^2 G(dt / r) - G(dt)) / (r^2 - 1) of `stepped_output_gram` plus
    `continuum_lead` on the default grids of samples_per_unit and twice as
    many, whose second-order error it cancels; r is the ratio of their
    steps, 2 but for the rectangular pulse, whose step fits a whole number
    of steps into T. By default 1,000 samples per unit, and from T = 100 on
    fewer, 1e5 / T but at least 20, where the pulse is slow and the error
    small. The grids' tail reaches 20 past the drive's end, not the
    support's: the symmetric exponential's default grid ends at 6T + 20
    and leaves out up to 2e-11 of its norm."""
    T = spec.duration
    if samples_per_unit is None:
        samples_per_unit = int(min(1000.0, max(20.0, 1e5 / T)))
    tail = spec.drive_end() - spec.support()[1] + 20.0
    grams, steps = [], []
    for n in (samples_per_unit, 2 * samples_per_unit):
        grid = default_grid_for(spec, GridPolicy(samples_per_unit=n, tail=tail))
        grams.append(stepped_output_gram(spec, grid) + continuum_lead(spec, grid.t_start))
        steps.append(grid.dt)
    r2 = (steps[0] / steps[1]) ** 2
    return (r2 * grams[1] - grams[0]) / (r2 - 1.0)


def judge_gram(spec):
    """The Gram matrix of a built-in pulse's continuum outputs, from its
    judge at the duration T: the closed forms of the rising exponential,
    and of the rectangular pulse from T = 1 on; the gaussian's adiabatic
    series from T = 100 on; elsewhere `richardson_gram`, whose own error is
    up to about 8e-13."""
    T = spec.duration
    if spec.shape is PulseShape.RISING_EXP:
        ov, nb3 = rising_overlap(T), rising_b3_norm_sq(T)
    elif spec.shape is PulseShape.RECTANGULAR and T >= 1.0:
        ov, nb3 = rect_overlap(T), rect_b3_norm_sq(T)
    elif spec.shape is PulseShape.GAUSSIAN and T >= 100.0:
        return adiabatic_gram(T)
    else:
        return richardson_gram(spec)
    return np.array(((1.0, ov), (ov, nb3)))


# -- CLI file format --------------------------------------------------------

def csv_text(header, rows):
    """CSV text with every value formatted on its own at 17 significant
    digits: the byte-for-byte reference for `pulsegate.cli._csv`."""
    lines = [header]
    lines.extend(",".join(format(float(x), ".17g") for x in row) for row in rows)
    return "\n".join(lines) + "\n"
