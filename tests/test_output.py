import numpy as np
import pytest

from pulsegate import (ComplexSignal, GridPolicy, PulseSpec, ResponseChain,
                       SolverError, assemble_outputs,
                       default_grid_for, full_bloch, inner_product, norm_sq,
                       sample_pulse, solve_chain)

import _oracles as orc

ALL_BUILTINS = [PulseSpec.rectangular, PulseSpec.rising_exponential,
                PulseSpec.symmetric_exponential, PulseSpec.gaussian]


def solve_pair(make, T, policy=None):
    spec = make(T)
    grid = default_grid_for(spec) if policy is None else default_grid_for(spec, policy)
    b = sample_pulse(spec, grid)
    chain = solve_chain(b)
    return b, chain, assemble_outputs(b, chain)


class TestAssembleOutputs:
    def test_rising_exp_linear_output_vanishes_before_cutoff(self):
        # deep lead + fine step: the dipole field cancels the input exactly
        policy = GridPolicy(samples_per_unit=4000, lead_pad=8.0)
        b, _, pair = solve_pair(PulseSpec.rising_exponential, 1.0, policy)
        t = pair.linear.times()
        assert np.max(np.abs(pair.linear.values[t < 0])) < 1e-6

    def test_rising_exp_closed_forms(self):
        for T in (0.5, 1.0, 2.0):
            b, _, pair = solve_pair(PulseSpec.rising_exponential, T)
            t = pair.linear.times()
            m = t > t[0] + 10.0
            np.testing.assert_allclose(pair.linear.values[m], orc.rising_b1(t, T)[m],
                                       atol=5e-6)
            np.testing.assert_allclose(pair.cubic.values[m], orc.rising_b3(t, T)[m],
                                       atol=5e-6)

    @pytest.mark.parametrize("make", ALL_BUILTINS)
    @pytest.mark.parametrize("T", [0.05, 1.0, 100.0])
    def test_linear_output_norm_is_one(self, make, T):
        _, _, pair = solve_pair(make, T)
        assert norm_sq(pair.linear) == pytest.approx(1.0, abs=1e-6)

    def test_long_pulse_pi_reflection(self):
        # quasi-static drive: the dipole re-emits in antiphase, b1 ~ -b_in
        b, _, pair = solve_pair(PulseSpec.gaussian, 1000.0)
        assert inner_product(b, pair.linear).real == pytest.approx(-1.0, abs=0.05)

    def test_zero_third_order_gives_zero_cubic(self):
        spec = PulseSpec.gaussian(1.0)
        grid = default_grid_for(spec)
        b = sample_pulse(spec, grid)
        chain = solve_chain(b)
        zero = ComplexSignal(grid, np.zeros(grid.n))
        pair = assemble_outputs(b, ResponseChain(chain.first_order, chain.excitation, zero))
        assert not pair.cubic.values.any()

    def test_truncated_tail_raises_norm_violation(self):
        # a grid cut off mid-decay loses output photons beyond tolerance
        policy = GridPolicy(samples_per_unit=2000, tail=0.5)
        with pytest.raises(SolverError, match="^linear output norm .* deviates from 1"):
            solve_pair(PulseSpec.gaussian, 1.0, policy)

    def test_negativity_of_overlap(self):
        for make in ALL_BUILTINS:
            _, _, pair = solve_pair(make, 1.0)
            v = inner_product(pair.linear, pair.cubic)
            assert v.real <= 1e-8


class TestSemiclassicalOutput:
    @pytest.mark.parametrize("make", ALL_BUILTINS)
    def test_matches_full_bloch_at_weak_drive(self, make):
        policy = GridPolicy(samples_per_unit=1000)
        b, _, pair = solve_pair(make, 1.0, policy)
        alpha = 0.05
        state = full_bloch(b, alpha)
        full_out = alpha * b.values + 1j * np.sqrt(2.0) * (1j * state.v.values)
        # the output truncated at third order, a b1 + a|a|^2 b3
        trunc = alpha * pair.linear.values + alpha * abs(alpha) ** 2 * pair.cubic.values
        diff = ComplexSignal(b.grid, full_out - trunc)
        rel = np.sqrt(norm_sq(diff) / norm_sq(ComplexSignal(b.grid, full_out)))
        assert rel < 1e-3