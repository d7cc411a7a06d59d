import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsegate import (ComplexSignal, OutputPair, PulseSpec,
                       UndefinedModeError, UnphysicalDecompositionError,
                       check_quantum_limit, coherent_expectations, compute_c11,
                       compute_c12_sq, compute_cr_sq, decompose,
                       default_grid_for, extract_psi2, inner_product,
                       make_grid, norm_sq, sample_pulse, solve_chain,
                       solve_point, assemble_outputs)

import _oracles as orc


def unit_signal(grid, fn):
    """Signal with quadrature norm exactly 1."""
    sig = ComplexSignal(grid, fn(grid.times()))
    return ComplexSignal(grid, sig.values / math.sqrt(norm_sq(sig)))


@pytest.fixture(scope="module")
def grid():
    return make_grid(-8.0, 8.0, 3201)


@pytest.fixture(scope="module")
def base_modes(grid):
    """Two exactly orthonormal (quadrature) test modes."""
    f = unit_signal(grid, lambda t: np.exp(-t**2) + 0j)
    g_raw = ComplexSignal(grid, grid.times() * np.exp(-grid.times()**2))
    # project out f, normalize: orthogonal by symmetry anyway, but make it exact
    ov = inner_product(f, g_raw)
    g = ComplexSignal(grid, g_raw.values - ov * f.values)
    g = ComplexSignal(grid, g.values / math.sqrt(norm_sq(g)))
    return f, g


def pair_with(f, g, c_f, c_g):
    return OutputPair(f, ComplexSignal(f.grid, c_f * f.values + c_g * g.values))


@pytest.fixture(scope="module")
def rising_solution():
    return solve_point("rising-exp", 1.0)


class TestC11:
    def test_zero_cubic(self, base_modes):
        f, g = base_modes
        pair = pair_with(f, g, 0.0, 0.0)
        assert compute_c11(pair) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_phase_flip(self, base_modes):
        f, g = base_modes
        pair = pair_with(f, g, -2.0, 0.0)  # b3 = -2 b1
        assert compute_c11(pair) == pytest.approx(-1.0, abs=1e-10)

    def test_gaussian_flip_region(self):
        # near the gaussian phase-flip optimum the both-stay probability
        # saturates around 0.2 with negative real amplitude
        sol = solve_point("gauss", 2.0)
        c11 = sol.decomposition.c11
        assert c11.real < 0
        assert abs(c11) ** 2 == pytest.approx(0.2157, abs=0.002)


class TestC12Sq:
    def test_parallel_cubic_gives_zero(self, base_modes):
        f, g = base_modes
        pair = pair_with(f, g, -0.4, 0.0)
        c11 = compute_c11(pair)
        assert compute_c12_sq(pair, c11) == pytest.approx(0.0, abs=1e-12)

    def test_rising_exponential_peak_value(self, rising_solution):
        assert rising_solution.decomposition.c12_sq == pytest.approx(2 / 3, abs=1e-4)

    def test_unphysical_combination_raises(self, base_modes):
        # orthogonal cubic with intensity 1/2: c12_sq = 1 while c11 = 1
        f, g = base_modes
        pair = pair_with(f, g, 0.0, math.sqrt(0.5))
        c11 = compute_c11(pair)
        with pytest.raises(UnphysicalDecompositionError):
            compute_c12_sq(pair, c11)

    def test_tiny_negative_clamps_to_zero(self, base_modes):
        f, g = base_modes
        pair = pair_with(f, g, 1e-9, 0.0)
        c11 = compute_c11(pair)
        assert compute_c12_sq(pair, c11) == 0.0


class TestCrSq:
    def test_linear_regime(self):
        assert compute_cr_sq(1.0 + 0j, 0.0) == 0.0

    def test_ideal_flip(self):
        assert compute_cr_sq(-1.0 + 0j, 0.0) == 0.0

    def test_transfer_peak_budget(self):
        assert compute_cr_sq(0.0 + 0j, 2 / 3) == pytest.approx(1 / 3, rel=1e-12)

    def test_probability_overdraft_raises(self):
        with pytest.raises(UnphysicalDecompositionError):
            compute_cr_sq(1.0 + 0j, 1.0)

    def test_rounding_noise_clamped(self):
        assert compute_cr_sq(1.0 + 0j, 1e-9) == 0.0


class TestExtractPsi2:
    def test_parallel_cubic_has_no_mode(self, base_modes):
        f, g = base_modes
        with pytest.raises(UndefinedModeError):
            extract_psi2(pair_with(f, g, 0.7, 0.0))

    def test_gram_schmidt_direction(self, base_modes):
        f, g = base_modes
        pair = pair_with(f, g, 1.0, 0.3)  # b3 = b1 + 0.3 g
        psi2 = extract_psi2(pair)
        np.testing.assert_allclose(psi2.values, g.values, atol=1e-9)

    def test_coefficient_made_real_positive(self, base_modes):
        f, g = base_modes
        pair = pair_with(f, g, 0.2j, -0.25j)  # complex transfer coefficient
        psi2 = extract_psi2(pair)
        coeff = inner_product(psi2, pair.cubic)
        assert coeff.imag == pytest.approx(0.0, abs=1e-12)
        assert coeff.real > 0

    def test_rising_exponential_mode_shape(self, rising_solution):
        dec = rising_solution.decomposition
        t = dec.psi2.times()
        np.testing.assert_allclose(dec.psi2.values, orc.rising_psi2_unit(t), atol=2e-4)
        # psi1 is the delayed decay, empty before the cutoff
        np.testing.assert_allclose(dec.psi1.values[t > 0.01],
                                   -math.sqrt(2.0) * np.exp(-t[t > 0.01]), atol=2e-5)


class TestDecompose:
    @pytest.mark.parametrize("shape,gt", [("rect", 1.56), ("rising-exp", 0.6),
                                          ("sym-exp", 0.79), ("gauss", 2.0)])
    def test_orthonormal_modes(self, shape, gt):
        dec = solve_point(shape, gt).decomposition
        assert norm_sq(dec.psi1) == pytest.approx(1.0, abs=1e-6)
        assert norm_sq(dec.psi2) == pytest.approx(1.0, abs=1e-9)
        assert abs(inner_product(dec.psi1, dec.psi2)) < 1e-8

    @pytest.mark.parametrize("shape,gt", [("rect", 1.56), ("rising-exp", 1.0),
                                          ("sym-exp", 0.79), ("gauss", 2.0)])
    def test_reconstruction_is_exact(self, shape, gt):
        sol = solve_point(shape, gt)
        dec = sol.decomposition
        rebuilt = ((dec.c11 - 1) * dec.psi1.values
                   + (dec.c12 / math.sqrt(2.0)) * dec.psi2.values)
        diff = ComplexSignal(sol.grid, rebuilt - sol.pair.cubic.values)
        assert math.sqrt(norm_sq(diff) / norm_sq(sol.pair.cubic)) < 1e-8

    def test_probability_budget_closes(self, rising_solution):
        d = rising_solution.decomposition
        assert d.c11_sq + d.c12_sq + d.cr_sq == pytest.approx(1.0, abs=1e-6)

    def test_c11_equals_one_plus_overlap(self, rising_solution):
        d = rising_solution.decomposition
        assert d.c11 == 1 + d.overlap

    def test_rising_exponential_exact_amplitudes(self, rising_solution):
        d = rising_solution.decomposition
        assert d.overlap == pytest.approx(-1.0, abs=1e-6)
        assert abs(d.c11) < 1e-6
        assert d.c12_sq == pytest.approx(2 / 3, abs=1e-6)
        assert d.cr_sq == pytest.approx(1 / 3, abs=1e-6)


class TestSharedProjection:
    # the measured photon-transfer peaks of README's table
    @pytest.mark.parametrize("shape,gt", [("rect", 1.557), ("rising-exp", 1.0),
                                          ("sym-exp", 0.789), ("gauss", 0.799)])
    def test_views_equal_decompose_bitwise(self, shape, gt):
        pair = solve_point(shape, gt).pair
        dec = decompose(pair)
        assert compute_c11(pair) == dec.c11
        assert check_quantum_limit(pair, dec.c12_sq).overlap == dec.overlap
        np.testing.assert_array_equal(extract_psi2(pair).values, dec.psi2.values)


class TestCoherentExpectations:
    def test_linear_regime(self):
        m = coherent_expectations(0.1, 1.0 + 0j, 0.0)
        assert m.a1 == pytest.approx(0.1)
        assert m.a2 == 0

    def test_phase_flip_arithmetic(self):
        m = coherent_expectations(0.1, -1.0 + 0j, 0.0)
        assert m.a1 == pytest.approx(0.098)

    def test_transfer_arithmetic(self):
        m = coherent_expectations(0.1, 1.0 + 0j, 1.0)
        assert m.a1 == pytest.approx(0.1)
        assert m.a2 == pytest.approx(7.0710678118654754e-4, rel=1e-12)

    @given(a=st.floats(0.01, 0.5), c11re=st.floats(-1, 1), c12=st.floats(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_formulas_directly(self, a, c11re, c12):
        m = coherent_expectations(a, c11re + 0j, c12)
        assert m.a1 == pytest.approx(a + (c11re - 1) * a**3, rel=1e-12)
        assert m.a2 == pytest.approx(c12 / math.sqrt(2) * a**3, rel=1e-12)


class TestQuantumLimit:
    def test_linear_regime_sits_on_circle(self, base_modes):
        f, g = base_modes
        pair = pair_with(f, g, 0.0, 0.0)
        rep = check_quantum_limit(pair, 0.0)
        assert rep.circle_margin == pytest.approx(0.0, abs=1e-12)
        assert rep.reduction_margin == pytest.approx(0.0, abs=1e-12)
        assert rep.circle_ok and rep.reduction_ok

    def test_full_transfer_needs_full_overlap(self, base_modes):
        # c12 = 1 forces overlap -1: b3 = -b1 + g/sqrt2, |b3|^2 = 3/2
        f, g = base_modes
        pair = pair_with(f, g, -1.0, math.sqrt(0.5))
        c11 = compute_c11(pair)
        assert c11 == pytest.approx(0.0, abs=1e-10)
        c12_sq = compute_c12_sq(pair, c11)
        assert c12_sq == pytest.approx(1.0, abs=1e-9)
        rep = check_quantum_limit(pair, c12_sq)
        assert rep.overlap.real == pytest.approx(-1.0, abs=1e-9)
        assert rep.reduction_margin == pytest.approx(0.0, abs=1e-4)
        assert rep.circle_ok and rep.reduction_ok

    def test_violating_pair_flagged_not_raised(self, base_modes):
        f, g = base_modes
        pair = pair_with(f, g, 0.5, 0.0)  # overlap +0.5: outside the circle
        rep = check_quantum_limit(pair, 0.0)
        assert not rep.circle_ok
        assert not rep.reduction_ok

    @pytest.mark.parametrize("shape", ["rect", "rising-exp", "sym-exp", "gauss"])
    def test_solver_outputs_pass(self, shape):
        sol = solve_point(shape, 1.3)
        assert sol.limit.circle_ok and sol.limit.reduction_ok
        assert sol.limit.overlap.real <= 1e-8
