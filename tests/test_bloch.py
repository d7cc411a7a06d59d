import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsegate import (ComplexSignal, GridPolicy,
                       IllConditionedFitError, PulseSpec, StepInstabilityError,
                       SystemParams, default_grid_for, full_bloch,
                       linear_response, make_grid, norm_sq,
                       perturbative_extraction, sample_pulse,
                       second_order_excitation, solve_chain, solve_point,
                       third_order_response)
from pulsegate import bloch
from pulsegate.bloch import FullBlochState, _scaled_drive, decay_block
from pulsegate.pulses import GEOMETRY

import _oracles as orc

FINE = GridPolicy(samples_per_unit=10000)


def pulse_and_grid(make, T, policy=None):
    spec = make(T)
    grid = default_grid_for(spec) if policy is None else default_grid_for(spec, policy)
    return sample_pulse(spec, grid), grid


class TestLinearResponse:
    def test_zero_input(self):
        g = make_grid(0, 10, 501)
        out = linear_response(ComplexSignal(g, np.zeros(g.n)))
        assert not out.values.any()

    def test_rectangular_closed_form(self):
        b, g = pulse_and_grid(PulseSpec.rectangular, 1.0, FINE)
        s1 = 1j * linear_response(b).values     # u = s1/i
        np.testing.assert_allclose(s1, orc.rect_sigma1(g.times(), 1.0), atol=1e-9)

    def test_rectangular_closed_form_other_duration(self):
        b, g = pulse_and_grid(PulseSpec.rectangular, 2.7, FINE)
        s1 = 1j * linear_response(b).values
        np.testing.assert_allclose(s1, orc.rect_sigma1(g.times(), 2.7), atol=1e-8)

    def test_rising_exponential_closed_form(self):
        b, g = pulse_and_grid(PulseSpec.rising_exponential, 1.0, FINE)
        s1 = 1j * linear_response(b).values
        t = g.times()
        # skip the start-up region where the truncated tail (1e-10 of the
        # pulse) still echoes; the closed form is i e^t at T=1
        m = t > t[0] + 10.0
        np.testing.assert_allclose(s1[m], orc.rising_sigma1(t, 1.0)[m], atol=1e-8)

    @given(re=st.floats(-3, 3), im=st.floats(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_complex_scaling_linearity(self, re, im):
        c = complex(re, im)
        b, _ = pulse_and_grid(PulseSpec.gaussian, 1.0, GridPolicy(samples_per_unit=200))
        lhs = linear_response(ComplexSignal(b.grid, c * b.values)).values
        rhs = c * linear_response(b).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_start_state_is_the_first_node(self):
        b, _ = pulse_and_grid(PulseSpec.rectangular, 1.0)
        u = linear_response(b, u_start=0.3).values
        assert u[0] == 0.3

    @pytest.mark.parametrize("shape", ["rect", "rising-exp", "sym-exp", "gauss"])
    def test_ringdown_is_the_exact_decay(self, shape):
        # past the drive u is u_m e^{-k dt} over about 2e6 nodes at gamma_t
        # 0.01; a chain that multiplies by the rounded e^{-dt} at every node
        # drifts from it by 1e-11
        sol = solve_point(shape, 0.01)
        m = np.flatnonzero(sol.b_in.values)[-1] + 1
        u = sol.pair.linear.values[m:] / -np.sqrt(2.0)    # b1 = -sqrt2 u there
        decay = u[0] * np.exp(-sol.grid.dt * np.arange(len(u)))
        assert np.max(np.abs(u / decay - 1)) <= 1e-13

    def test_causality(self):
        b, g = pulse_and_grid(PulseSpec.rectangular, 1.0)
        s1 = linear_response(b)
        before = g.times() < -1.0
        assert np.max(np.abs(s1.values[before])) < 1e-14

    def test_free_decay_rate(self):
        b, g = pulse_and_grid(PulseSpec.rectangular, 1.0)
        s1 = linear_response(b)
        t = g.times()
        i1 = np.argmin(np.abs(t - 2.0))
        i2 = np.argmin(np.abs(t - 6.0))
        ratio = abs(s1.values[i2]) / abs(s1.values[i1])
        assert ratio == pytest.approx(np.exp(-(t[i2] - t[i1])), rel=1e-10)

    def test_gamma_scaling_collapse(self):
        # (gamma=2, T=0.5) must reproduce (gamma=1, T=1) at scaled times:
        # the dimensionless dipole depends on gamma*T only
        spec = PulseSpec.rectangular(0.5)
        g = default_grid_for(spec)
        b = sample_pulse(spec, g)
        s_fast = 1j * linear_response(b, SystemParams(gamma=2.0)).values
        tau = 2.0 * g.times()  # scaled time gamma*t
        np.testing.assert_allclose(s_fast, orc.rect_sigma1(tau, 1.0), atol=1e-6)


class TestSecondOrder:
    def test_zero(self):
        g = make_grid(0, 1, 11)
        out = second_order_excitation(ComplexSignal(g, np.zeros(g.n)))
        assert not out.values.any()

    def test_pointwise_square(self):
        g = make_grid(-2, 0, 201)
        s1 = ComplexSignal(g, 1j * np.exp(g.times()))
        sz2 = second_order_excitation(s1)
        np.testing.assert_allclose(sz2.values, np.exp(2 * g.times()), rtol=1e-12)
        assert not np.iscomplexobj(sz2.values) or not sz2.values.imag.any()

    @pytest.mark.parametrize("make,T", [(PulseSpec.rectangular, 1.0),
                                        (PulseSpec.gaussian, 0.8),
                                        (PulseSpec.symmetric_exponential, 0.8),
                                        (PulseSpec.rising_exponential, 1.0)])
    def test_ode_integration_recovers_square(self, make, T):
        # the sz equation at second order, integrated directly, must land
        # on |s1|^2: d sz2/dt = -2 sz2 + i sqrt2 (b s1* - b* s1)
        b, g = pulse_and_grid(make, T, GridPolicy(samples_per_unit=16000))
        u = linear_response(b)
        s1 = 1j * u.values
        drive = 1j * np.sqrt(2.0) * (b.values * np.conj(s1) - np.conj(b.values) * s1)
        sz2_ode = decay_block(drive, 2.0, g.dt)
        sz2_alg = second_order_excitation(u)
        assert np.max(np.abs(sz2_ode - sz2_alg.values)) < 1e-8


class TestDecayingResponse:
    @pytest.mark.parametrize("rate", [1.0, 2.0])
    def test_complex_drive_is_its_parts_integrated_separately(self, rate):
        # the rate is real, so the real and imaginary parts of the drive
        # relax independently; one complex pass must agree with two real ones
        g = make_grid(-4.0, 6.0, 5001)
        t = g.times()
        x = np.exp(-t**2) * np.exp(1.3j * t) + 0.2j * np.exp(-(t - 1.0)**2)
        got = decay_block(x, rate, g.dt)
        ref = (decay_block(np.ascontiguousarray(x.real), rate, g.dt)
               + 1j * decay_block(np.ascontiguousarray(x.imag), rate, g.dt))
        assert np.max(np.abs(got - ref)) <= 1e-15

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_the_recurrence_in_long_double(self, kind):
        # 400k nodes at rate*dt = 5e-5; a chain that multiplies by the
        # rounded decay factor at every node is off by 4e-13 of the peak
        dt, n = 5e-5, 400_000
        t = (np.arange(n) - n / 2) * dt
        x = np.exp(-(t / 3) ** 2) * (1 + 0.3 * np.sin(5 * t))
        if kind == "complex":
            x = x * np.exp(1.7j * t)
        _, w0, w1 = bloch._etd_weights(1.0, dt)
        ld = np.clongdouble if kind == "complex" else np.longdouble
        g = np.longdouble(w1) * x.astype(ld)
        g[1:] += np.longdouble(w0) * x[:-1].astype(ld)
        g[0] = 0
        decay, s, ref = np.exp(-np.longdouble(dt)), ld(0), np.empty(n, dtype=ld)
        for i, gi in enumerate(g):
            s = decay * s + gi
            ref[i] = s
        got = decay_block(x, 1.0, dt)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestThirdOrder:
    def test_zero_excitation_gives_zero(self):
        b, g = pulse_and_grid(PulseSpec.gaussian, 1.0)
        sz2 = ComplexSignal(g, np.zeros(g.n))
        assert not third_order_response(b, sz2).values.any()

    def test_rectangular_closed_form(self):
        b, g = pulse_and_grid(PulseSpec.rectangular, 1.0, FINE)
        chain = solve_chain(b)
        np.testing.assert_allclose(1j * chain.third_order.values,     # w = s3/i
                                   orc.rect_sigma3_unit(g.times()), atol=1e-7)

    @pytest.mark.parametrize("make", [PulseSpec.rectangular, PulseSpec.rising_exponential,
                                      PulseSpec.symmetric_exponential, PulseSpec.gaussian])
    def test_saturation_opposes_linear_emission(self, make):
        # for real nonnegative input: i*s1 is real <= 0 and i*s3 real >= 0,
        # so the cubic field always counteracts the linear dipole field
        b, _ = pulse_and_grid(make, 1.0)
        chain = solve_chain(b)
        s1, s3 = 1j * chain.first_order.values, 1j * chain.third_order.values
        em1 = (1j * s1).real
        em3 = (1j * s3).real
        assert np.max((1j * s1).imag) < 1e-12
        assert np.max(em1) < 1e-10
        assert np.min(em3) > -1e-10


class TestResponseChain:
    def test_shared_grid_and_decay(self):
        b, g = pulse_and_grid(PulseSpec.symmetric_exponential, 1.0)
        chain = solve_chain(b)
        assert chain.first_order.grid == chain.third_order.grid == g
        assert (chain.excitation.values >= 0).all()
        assert abs(chain.first_order.values[-1]) < 1e-6
        assert abs(chain.third_order.values[-1]) < 1e-6

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("make", [PulseSpec.rising_exponential,
                                      PulseSpec.symmetric_exponential])
    def test_lead_rate_starts_without_a_transient(self, make, gamma):
        # on the lead b = C exp(lam t), u and w are the ETD recurrences'
        # particular solutions from the first node on: u / b and w / b^3
        # constant, at the continuum's sqrt(2 gamma) / (gamma + lam) up to
        # the step's error; from rest u / b would climb from 0
        T = 1.0
        b, g = pulse_and_grid(make, T)
        lam = GEOMETRY[make(T).shape].lead_rate / T
        chain = solve_chain(b, SystemParams(gamma), lam)
        lead = g.times() <= -1e-6 * g.dt     # before the cutoff or the kink
        assert lead.sum() > 1000
        u_ratio = chain.first_order.values[lead] / b.values[lead]
        w_ratio = chain.third_order.values[lead] / b.values[lead] ** 3
        np.testing.assert_allclose(u_ratio, u_ratio[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(w_ratio, w_ratio[0], rtol=1e-12, atol=0)
        assert u_ratio[0] == pytest.approx(np.sqrt(2 * gamma) / (gamma + lam), rel=1e-6)


class TestFullBloch:
    def test_undriven_stays_in_ground_state(self):
        g = make_grid(0, 5, 301)
        state = full_bloch(ComplexSignal(g, np.zeros(g.n)), alpha=0.0)
        assert not state.v.values.any()
        np.testing.assert_allclose(state.sigma_z, -0.5, rtol=0, atol=0)

    def test_weak_drive_approaches_linear_response(self):
        b, _ = pulse_and_grid(PulseSpec.gaussian, 1.0, GridPolicy(samples_per_unit=400))
        s1 = 1j * linear_response(b).values

        def dev(alpha):
            st = full_bloch(b, alpha)
            return np.max(np.abs(1j * st.v.values / alpha - s1))

        d1, d2 = dev(0.02), dev(0.01)
        # deviation is O(alpha^2): quartering expected when halving alpha
        assert d1 / d2 == pytest.approx(4.0, rel=0.15)

    def test_strong_drive_saturates_to_steady_state(self):
        # long rectangular pulse: sz settles at the textbook saturated value
        spec = PulseSpec.rectangular(60.0)
        g = default_grid_for(spec, GridPolicy(samples_per_unit=4000))
        b = sample_pulse(spec, g)
        alpha = 2.0 * np.sqrt(60.0) / np.sqrt(2.0)  # omega = sqrt2*alpha*b = 2
        state = full_bloch(b, alpha)
        t = g.times()
        mid = np.argmin(np.abs(t + 5.0))  # deep inside the pulse
        assert state.sigma_z[mid] == pytest.approx(orc.bloch_steady_sz(2.0), abs=1e-4)

    def test_physical_bounds_hold(self):
        b, _ = pulse_and_grid(PulseSpec.gaussian, 1.0, GridPolicy(samples_per_unit=400))
        state = full_bloch(b, 0.3)
        assert (np.abs(state.sigma_z) <= 0.5 + 1e-9).all()
        assert (np.abs(1j * state.v.values) <= 0.5 + 1e-9).all()

    def test_coarse_grid_instability_detected(self):
        spec = PulseSpec.rectangular(50.0)
        grid = make_grid(-51.0, 60.0, 150)  # dt ~ 0.75, far too coarse
        b = sample_pulse(spec, grid)
        with pytest.raises(StepInstabilityError):
            full_bloch(b, alpha=60.0)  # Rabi period far below the step


def _complex_custom_pulse():
    t = np.linspace(-3.0, 1.0, 200)
    spec = PulseSpec.custom(t, np.exp(-t**2 + 1j * t) * (t < 0.3))
    return sample_pulse(spec, default_grid_for(spec, GridPolicy(samples_per_unit=400)))


class TestFullBlochAgainstStepping:
    """full_bloch against `_oracles.rk4_full_bloch`, which steps every node
    in numpy scalars: the same RK4 steps, so bitwise equal while driven."""

    CASES = [(PulseSpec.rectangular, 1.557, 0.06), (PulseSpec.rising_exponential, 1.0, 0.06),
             (PulseSpec.symmetric_exponential, 0.789, 0.3), (PulseSpec.gaussian, 0.799, 0.02)]

    @pytest.mark.parametrize("make, T, alpha", CASES)
    def test_builtin_shapes(self, make, T, alpha):
        b, _ = pulse_and_grid(make, T, GridPolicy(samples_per_unit=400))
        self.check(b, alpha)

    def test_complex_pulse_complex_alpha(self):
        self.check(_complex_custom_pulse(), 0.05 * np.exp(0.4j))

    def test_real_pulse_complex_alpha(self):
        b, _ = pulse_and_grid(PulseSpec.gaussian, 0.799, GridPolicy(samples_per_unit=400))
        self.check(b, 0.05 * np.exp(0.4j))

    def test_complex_pulse_real_alpha(self):
        self.check(_complex_custom_pulse(), 0.05)

    @staticmethod
    def check(b, alpha):
        # the loop runs in Python floats only for a real pulse and real alpha
        real = not np.iscomplexobj(b.values) and np.imag(alpha) == 0
        zb, _ = _scaled_drive(b.values, complex(alpha))
        assert {type(d) for d in zb} == {float if real else complex}
        new, ref = full_bloch(b, alpha), orc.rk4_full_bloch(b, alpha)
        s, s_ref = new.v.values, ref.v.values
        # the node after the last driven one ends the loop
        m = min(np.flatnonzero(alpha * b.values)[-1] + 1, b.grid.n - 1) + 1
        assert s[:m].tobytes() == s_ref[:m].tobytes()
        assert new.sigma_z[:m].tobytes() == ref.sigma_z[:m].tobytes()
        # the free decay is filled in as powers of RK4's amplification factor
        assert np.max(np.abs(s[m:] - s_ref[m:]), initial=0) <= 1e-13 * np.max(np.abs(s_ref))
        assert np.max(np.abs(new.sigma_z[m:] - ref.sigma_z[m:]), initial=0) <= 1e-13

    def test_unstable_free_decay_raises_as_stepping_does(self):
        # dt = 2: RK4 multiplies <sz> + 1/2 by R(-4) = 5 per undriven step
        g = make_grid(-2.0, 40.0, 22)
        b = ComplexSignal(g, np.r_[np.full(4, 0.3), np.zeros(18)])
        msgs = []
        for f in (full_bloch, orc.rk4_full_bloch):
            with pytest.raises(StepInstabilityError) as err:
                f(b, 0.05)
            msgs.append(str(err.value))
        # drive ends at t=4, the loop at t=6: the fill finds the bad node
        assert "at t=8.0000;" in msgs[0]
        assert msgs[0] == msgs[1]

    def test_zero_alpha_is_exactly_the_ground_state(self):
        # dt = 2: the powers of R(-4) = 5 overflow long before the grid ends
        g = make_grid(-3.0, 1997.0, 1001)
        b = ComplexSignal(g, np.exp(-g.times() ** 2))
        state = full_bloch(b, 0.0)
        assert not state.v.values.any()
        assert (state.sigma_z == -0.5).all()


class TestPerturbativeExtraction:
    def test_matches_chain(self):
        b, g = pulse_and_grid(PulseSpec.gaussian, 1.0, GridPolicy(samples_per_unit=1000))
        chain = solve_chain(b)
        s1, s3 = 1j * chain.first_order.values, 1j * chain.third_order.values
        b1 = ComplexSignal(g, b.values + 1j * np.sqrt(2.0) * s1)
        b3 = ComplexSignal(g, 1j * np.sqrt(2.0) * s3)
        e1, e3 = perturbative_extraction(b, SystemParams(), [0.02, 0.04, 0.06])
        rel1 = np.sqrt(norm_sq(ComplexSignal(g, e1.values - b1.values)) / norm_sq(b1))
        rel3 = np.sqrt(norm_sq(ComplexSignal(g, e3.values - b3.values)) / norm_sq(b3))
        assert rel1 < 1e-4
        # the two-term fit carries the documented ~alpha^2 fifth-order bias
        assert rel3 < 5e-3

    def test_quintic_deflation_sharpens_cubic_estimate(self):
        b, g = pulse_and_grid(PulseSpec.gaussian, 1.0, GridPolicy(samples_per_unit=1000))
        chain = solve_chain(b)
        b3 = ComplexSignal(g, 1j * np.sqrt(2.0) * (1j * chain.third_order.values))
        _, e3 = perturbative_extraction(b, SystemParams(), [0.02, 0.04, 0.06],
                                        deflate_fifth_order=True)
        rel3 = np.sqrt(norm_sq(ComplexSignal(g, e3.values - b3.values)) / norm_sq(b3))
        assert rel3 < 1e-4

    def test_single_alpha_rejected(self):
        b, _ = pulse_and_grid(PulseSpec.gaussian, 1.0, GridPolicy(samples_per_unit=200))
        with pytest.raises(IllConditionedFitError):
            perturbative_extraction(b, SystemParams(), [0.05])

    def test_duplicate_alphas_rejected(self):
        b, _ = pulse_and_grid(PulseSpec.gaussian, 1.0, GridPolicy(samples_per_unit=200))
        with pytest.raises(IllConditionedFitError):
            perturbative_extraction(b, SystemParams(), [0.05, 0.05])

    def test_two_alphas_needed_for_quintic(self):
        b, _ = pulse_and_grid(PulseSpec.gaussian, 1.0, GridPolicy(samples_per_unit=200))
        with pytest.raises(IllConditionedFitError):
            perturbative_extraction(b, SystemParams(), [0.02, 0.04],
                                    deflate_fifth_order=True)

    def test_out_of_band_alphas_rejected(self):
        b, _ = pulse_and_grid(PulseSpec.gaussian, 1.0, GridPolicy(samples_per_unit=200))
        with pytest.raises(IllConditionedFitError):
            perturbative_extraction(b, SystemParams(), [0.1, 0.5])

    def test_zero_pulse_gives_zero_estimates(self):
        g = make_grid(0, 5, 101)
        z = ComplexSignal(g, np.zeros(g.n))
        e1, e3 = perturbative_extraction(z, SystemParams(), [0.02, 0.04])
        assert not e1.values.any() and not e3.values.any()


class TestAmplitudeFit:
    """perturbative_extraction's fit, apart from the RK4 runs."""

    ALPHAS = [0.02, 0.04, 0.06]

    @pytest.mark.parametrize("complex_pulse", [False, True])
    def test_recovers_an_exact_quintic_response(self, complex_pulse, monkeypatch):
        # b_out(a) = a b1 + a^3 b3 + a^5 b5 exactly: the deflated fit returns
        # b1 and b3 to rounding, real for a real pulse
        if complex_pulse:
            b = _complex_custom_pulse()
        else:
            b, _ = pulse_and_grid(PulseSpec.gaussian, 1.0, GridPolicy(samples_per_unit=400))
        rng = np.random.default_rng(7)
        parts = rng.standard_normal((3, b.grid.n)) + (
            1j * rng.standard_normal((3, b.grid.n)) if complex_pulse else 0.0)
        b1, b3, b5 = parts * [[1.0], [1.0], [5.0]]

        def exact(b_in, alpha, params=SystemParams()):
            out = alpha * b1 + alpha**3 * b3 + alpha**5 * b5
            v = (alpha * b_in.values - out) / np.sqrt(2 * params.gamma)   # <s->/i
            return FullBlochState(ComplexSignal(b_in.grid, v), np.full(b_in.grid.n, -0.5),
                                  complex(alpha))

        monkeypatch.setattr(bloch, "full_bloch", exact)
        e1, e3 = perturbative_extraction(b, SystemParams(), self.ALPHAS,
                                         deflate_fifth_order=True)
        assert np.iscomplexobj(e1.values) == complex_pulse
        for est, ref in ((e1, b1), (e3, b3)):
            assert np.linalg.norm(est.values - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_matches_lstsq_on_the_outputs_at_a_peak(self, monkeypatch):
        # rect at its peak on criterion 8's grid: the pseudo-inverse applied
        # in one product against lstsq over every output sample
        b, _ = pulse_and_grid(PulseSpec.rectangular, 1.557, GridPolicy(samples_per_unit=2000))
        outs = []

        def recording(b_in, alpha, params=SystemParams()):
            state = full_bloch(b_in, alpha, params)
            outs.append(alpha * b_in.values + 1j * np.sqrt(2.0) * (1j * state.v.values))
            return state

        monkeypatch.setattr(bloch, "full_bloch", recording)
        e1, e3 = perturbative_extraction(b, SystemParams(), self.ALPHAS,
                                         deflate_fifth_order=True)
        design = np.array([[a, a**3, a**5] for a in self.ALPHAS])
        ref = np.linalg.lstsq(design, np.asarray(outs), rcond=None)[0]
        for est, r in zip((e1, e3), ref):
            assert np.max(np.abs(est.values - r)) <= 1e-11 * np.max(np.abs(r))
