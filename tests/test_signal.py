import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsegate import (ComplexSignal, GridMismatchError, InvalidRangeError,
                       PulseSpec, default_grid_for, inner_product, make_grid,
                       norm_sq, sample_pulse)


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
    """Unstored tail nodes sum exactly as the same signals filled in by hand."""

    DT = 1e-3

    def signals(self, n, m):
        full = make_grid(0.0, (n + m - 1) * self.DT, n + m)
        grid = full.window(n)
        t = grid.times()
        f = ComplexSignal(grid, (1 + 2j) * np.exp(-t) + np.sin(7 * t))
        h = ComplexSignal(grid, np.cos(3 * t) - 0.5j * t)
        return full, f, h

    @staticmethod
    def by_hand(full, sig):
        """The signal on the full grid, tail e^-(t - t_last) written out."""
        t = full.times()
        n = sig.grid.n
        return np.concatenate([sig.values, sig.values[-1] * np.exp(-(t[n:] - t[n - 1]))])

    @pytest.mark.parametrize("m", [0, 1, 100_000])
    def test_matches_filled_trapezoid(self, m):
        full, f, h = self.signals(2001, m)
        a, b = self.by_hand(full, f), self.by_hand(full, h)
        want = np.trapezoid(np.conj(a) * b, dx=full.dt)
        want_nrm = np.trapezoid(np.abs(a) ** 2, dx=full.dt)
        assert f.grid.tail == m
        assert abs(inner_product(f, h) - want) <= 1e-13 * abs(want)
        assert abs(norm_sq(f) - want_nrm) <= 1e-13 * want_nrm

    def test_tail_stops_at_grid_end(self):
        # a unit signal on [0, 1] whose tail runs 0.5 past it integrates to
        # 1 + (1 - e^-1)/2, not to the 1.5 of a tail summed to infinity
        full = make_grid(0.0, 1.5, 1501)
        one = ComplexSignal(full.window(1001), np.ones(1001))
        assert full.window(1001).tail == 500
        assert norm_sq(one) == pytest.approx(1 + (1 - np.exp(-1)) / 2, rel=1e-6)
        assert abs(norm_sq(one) - 1.5) > 0.1

    def test_filled_samples_the_tail(self):
        full, f, _ = self.signals(201, 50)
        filled = f.filled()
        assert filled.grid == full
        np.testing.assert_allclose(filled.values, self.by_hand(full, f), rtol=1e-15, atol=0)
        assert norm_sq(filled) == pytest.approx(norm_sq(f), rel=1e-13)

    def test_window_and_filled_round_trip(self):
        full = make_grid(-1.0, 4.0, 501)
        w = full.window(100)
        assert (w.n, w.tail, w.dt) == (100, 401, full.dt)
        np.testing.assert_array_equal(w.times(), full.times()[:100])
        assert w.filled() == full
        with pytest.raises(InvalidRangeError):
            full.window(1)
        with pytest.raises(InvalidRangeError):
            full.window(502)
