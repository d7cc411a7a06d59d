import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsegate import (ComplexSignal, GridMismatchError, InvalidRangeError,
                       PulseSpec, default_grid_for, inner_product, make_grid,
                       norm_sq, sample_pulse)
from _oracles import geometric_sum


def signal_on(grid, fn):
    return ComplexSignal(grid, fn(grid.times()))


class TestMakeGrid:
    def test_two_point_grid(self):
        g = make_grid(0, 1, 2)
        assert g.dt == 1.0
        np.testing.assert_allclose(g.times(), [0.0, 1.0])

    def test_hundredth_step(self):
        assert make_grid(-1, 0, 101).dt == pytest.approx(0.01)

    def test_degenerate_span_rejected(self):
        with pytest.raises(InvalidRangeError):
            make_grid(0, 0, 5)
        with pytest.raises(InvalidRangeError):
            make_grid(1, 0, 5)

    def test_too_few_samples_rejected(self):
        with pytest.raises(InvalidRangeError):
            make_grid(0, 1, 1)

    def test_sample_positions(self):
        g = make_grid(-2.0, 3.0, 11)
        np.testing.assert_allclose(g.times(), -2.0 + 0.5 * np.arange(11))

    def test_node_range_times_are_bitwise_the_full_ones(self):
        g = make_grid(-1.3, 7.1, 100_003)
        t = g.times()
        assert len(t) == g.n
        for start, stop in ((0, 7), (5, 16389), (99_990, 100_003), (99_995, 110_000)):
            np.testing.assert_array_equal(g.times(start, stop), t[start:stop])


class TestComplexSignal:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ComplexSignal(make_grid(0, 1, 5), np.zeros(4))

    def test_non_finite_rejected(self):
        vals = np.ones(5, dtype=complex)
        vals[2] = np.nan
        with pytest.raises(ValueError):
            ComplexSignal(make_grid(0, 1, 5), vals)
        vals[2] = np.inf
        with pytest.raises(ValueError):
            ComplexSignal(make_grid(0, 1, 5), vals)

    @pytest.mark.parametrize("dtype, stored", [(np.float32, np.float64), (np.int64, np.float64),
                                               (np.complex64, np.complex128)])
    def test_dtype_kind_is_kept(self, dtype, stored):
        # a real input stays real (float64), a complex one complex128
        grid = make_grid(0, 1, 5)
        f = ComplexSignal(grid, np.arange(1, 6).astype(dtype))
        assert f.values.dtype == stored
        assert type(inner_product(f, f)) is (float if stored == np.float64 else complex)


class TestInnerProduct:
    def test_normalized_gaussian_self_overlap(self):
        spec = PulseSpec.gaussian(1.0)
        b = sample_pulse(spec, default_grid_for(spec))
        assert inner_product(b, b) == pytest.approx(1.0, abs=1e-6)

    def test_zero_partner_gives_zero(self):
        g = make_grid(0, 5, 401)
        f = signal_on(g, lambda t: np.exp(1j * t))
        z = ComplexSignal(g, np.zeros(g.n))
        assert inner_product(f, z) == 0

    def test_disjoint_rectangles_orthogonal(self):
        g = make_grid(-4, 4, 1601)
        t = g.times()
        f = ComplexSignal(g, ((t > -3) & (t < -2)).astype(float))
        h = ComplexSignal(g, ((t > 1) & (t < 2)).astype(float))
        assert inner_product(f, h) == 0

    def test_grid_mismatch_rejected(self):
        f = ComplexSignal(make_grid(0, 1, 5), np.ones(5))
        h = ComplexSignal(make_grid(0, 1, 6), np.ones(6))
        with pytest.raises(GridMismatchError):
            inner_product(f, h)

    def test_self_product_real_nonnegative(self):
        g = make_grid(-3, 3, 701)
        f = signal_on(g, lambda t: (t + 1j * t**2) * np.exp(-t**2))
        p = inner_product(f, f)
        assert p.imag == 0
        assert p.real >= 0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(0, 1, 33)
        f = ComplexSignal(g, rng.normal(size=33) + 1j * rng.normal(size=33))
        h = ComplexSignal(g, rng.normal(size=33) + 1j * rng.normal(size=33))
        assert inner_product(f, h) == np.conj(inner_product(h, f))

    @given(re=st.floats(-5, 5), im=st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_linearity(self, re, im):
        c = complex(re, im)
        g = make_grid(0, 2, 41)
        f = signal_on(g, lambda t: np.exp(-t) * (1 + 1j * t))
        h = signal_on(g, lambda t: np.cos(t) + 0j)
        lhs = inner_product(f.scaled(c), h)
        rhs = np.conj(c) * inner_product(f, h)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_second_order_convergence(self):
        # reference from a 1000x finer grid; halving dt must cut the error ~4x
        g = make_grid(-4, 4, 200001)
        f = signal_on(g, lambda t: np.exp(-t**2) * np.exp(1j * t))
        h = signal_on(g, lambda t: np.cos(t) + 0j)
        exact = inner_product(f, h)

        def err(n):
            g = make_grid(-4, 4, n)
            f = signal_on(g, lambda t: np.exp(-t**2) * np.exp(1j * t))
            h = signal_on(g, lambda t: np.cos(t) + 0j)
            return abs(inner_product(f, h) - exact)

        e1, e2 = err(201), err(401)
        assert e1 / e2 == pytest.approx(4.0, rel=0.1)


class TestNormSq:
    @pytest.mark.parametrize("make", [PulseSpec.rectangular, PulseSpec.rising_exponential,
                                      PulseSpec.symmetric_exponential, PulseSpec.gaussian])
    def test_builtin_pulses_unit_norm(self, make):
        spec = make(1.0)
        b = sample_pulse(spec, default_grid_for(spec))
        assert norm_sq(b) == pytest.approx(1.0, abs=1e-6)

    def test_zero_signal(self):
        assert norm_sq(ComplexSignal(make_grid(0, 1, 9), np.zeros(9))) == 0

    def test_matches_inner_product(self):
        g = make_grid(-2, 2, 301)
        f = signal_on(g, lambda t: np.exp(-t**2) * (1 + 2j))
        assert norm_sq(f) == pytest.approx(inner_product(f, f).real, rel=1e-14)

    @given(scale=st.floats(0.1, 10))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_homogeneity(self, scale):
        g = make_grid(0, 3, 101)
        f = signal_on(g, lambda t: np.sin(t) + 1j * t)
        assert norm_sq(f.scaled(scale)) == pytest.approx(scale**2 * norm_sq(f), rel=1e-12)


class TestFreeDecayTail:
    """The closed-form weight of m free-decay nodes after a node, through
    the geometric sum of `_oracles.stepped_output_gram`'s ringdown."""

    @staticmethod
    def tail_weight(m, dt):
        x = 2.0 * dt
        return 1.0 + geometric_sum(x, m) - 0.5 * np.exp(-x * m)

    @pytest.mark.parametrize("m", [0, 1, 100_000])
    def test_matches_filled_trapezoid(self, m):
        # the trapezoid weights of the node and the m after it, each times
        # the product's decay q^k = e^(-2 k dt), summed by hand; dt = 1e-6 is
        # the regime where 1 - q cancels without expm1
        for dt in (1e-1, 1e-3, 1e-6):
            q = np.exp(-2.0 * dt * np.arange(m + 1))
            want = q[:-1].sum() + 0.5 * q[-1]
            assert abs(self.tail_weight(m, dt) - want) <= 1e-13 * want, dt
            assert abs(geometric_sum(2.0 * dt, m) - q[1:].sum()) <= 1e-13 * want, dt
        assert self.tail_weight(0, 1e-3) == 0.5
        # no decay: m nodes of weight 1
        assert geometric_sum(0.0, m) == m

    def test_tail_stops_at_grid_end(self):
        # unit samples on [0, 1], then a tail decaying as e^-(t - 1) for 500
        # nodes to t = 1.5: the integral is 1 + (1 - e^-1)/2, not the 1.5 of
        # a tail summed to infinity
        dt = 1e-3
        total = dt * (999.5 + self.tail_weight(500, dt))
        assert total == pytest.approx(1 + (1 - np.exp(-1)) / 2, rel=1e-6)
        assert abs(total - 1.5) > 0.1
