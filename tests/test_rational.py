import numpy as np
import pytest

from netmodal.modes import find_modes
from netmodal.network import build_ynodal
from netmodal.rational import (
    Polynomial,
    RationalFunction,
    RationalMatrix,
    SymbolicDimensionError,
    poly_roots,
    rat_derivative,
    rat_det,
)
from netmodal.statespace import random_rlc_network


def sorted_roots(values):
    return np.array(sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9))))


class TestPolynomialRoots:
    def test_quadratic_imaginary_pair(self):
        roots = sorted_roots(poly_roots(Polynomial([1, 0, 1])))
        assert np.allclose(roots, [-1j, 1j], atol=1e-12)

    def test_quadratic_real_factorization(self):
        roots = sorted_roots(poly_roots(Polynomial([2, 3, 1])))
        assert np.allclose(roots, [-2.0, -1.0], atol=1e-12)

    def test_degree8_matches_companion_oracle(self):
        # independent oracle: numpy's own companion-matrix eigenvalues
        rng = np.random.default_rng(42)
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        mine = sorted_roots(poly_roots(Polynomial(coeffs)))
        oracle = sorted_roots(np.roots(coeffs[::-1]))
        assert np.max(np.abs(mine - oracle)) < 1e-8

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="undefined roots"):
            poly_roots(Polynomial([0.0]))

    def test_constant_has_no_roots(self):
        assert poly_roots(Polynomial([3.0])).size == 0

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=13)
        p = Polynomial(coeffs)
        scale = 1.0 + np.abs(p.coeffs).max()
        for r in p.roots():
            assert abs(p(r)) / scale < 1e-8

    def test_polish_idempotent(self):
        rng = np.random.default_rng(11)
        p = Polynomial(rng.normal(size=10))
        once = np.sort_complex(p._polish(p.roots(polish=False)))
        twice = np.sort_complex(p._polish(once.copy()))
        assert np.max(np.abs(once - twice)) < 1e-12


class TestDeterminant:
    def test_identity(self):
        d = rat_det(RationalMatrix.identity(2))
        assert d.num.degree == 0 and d.den.degree == 0
        assert d(0.7 + 0.1j) == pytest.approx(1.0)

    def test_diagonal_product(self):
        f = RationalFunction([1], [1, 1])       # 1/(s+1)
        g = RationalFunction([0, 1], [1])       # s
        d = rat_det(RationalMatrix.diagonal([f, g]))
        assert np.allclose(d.num.coeffs, [0, 1])
        assert np.allclose(d.den.coeffs, [1, 1])

    def test_random_3x3_pointwise_lu_oracle(self):
        rng = np.random.default_rng(3)

        def entry():
            return RationalFunction(rng.normal(size=3), np.r_[rng.normal(size=2), 1.0])

        m = RationalMatrix([[entry() for _ in range(3)] for _ in range(3)])
        d = rat_det(m)
        for _ in range(10):
            s0 = complex(rng.normal(), rng.normal())
            oracle = np.linalg.det(m(s0))
            assert abs(d(s0) - oracle) <= 1e-8 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pointwise_property_random_sizes(self, n):
        rng = np.random.default_rng(100 + n)

        def entry():
            return RationalFunction(rng.normal(size=2), np.r_[rng.normal(), 1.0])

        m = RationalMatrix([[entry() for _ in range(n)] for _ in range(n)])
        d = rat_det(m)
        for _ in range(10):
            s0 = complex(rng.normal(), rng.normal() + 2.0)
            oracle = np.linalg.det(m(s0))
            assert abs(d(s0) - oracle) <= 1e-8 * max(1.0, abs(oracle))


class TestDerivative:
    def test_constant_derivative_is_zero(self):
        assert rat_derivative(RationalFunction.constant(4.2)).is_zero

    def test_simple_pole(self):
        df = rat_derivative(RationalFunction([1], [1, 1]))
        assert np.allclose(df.num.coeffs, [-1])
        assert np.allclose(df.den.coeffs, [1, 2, 1])

    def test_three_node_det_slope_vs_central_difference(self, three_node_model):
        _, _, det, _ = three_node_model
        ddet = rat_derivative(det)
        rng = np.random.default_rng(5)
        for _ in range(5):
            s0 = complex(rng.uniform(0.2, 1.5), rng.uniform(0.5, 3.0))
            h = 1e-5
            fd = (det(s0 + h) - det(s0 - h)) / (2 * h)
            assert abs(ddet(s0) - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_quotient_rule_vs_central_difference_random(self):
        rng = np.random.default_rng(17)
        f = RationalFunction(rng.normal(size=4), np.r_[rng.normal(size=3), 1.0])
        df = f.derivative()
        for _ in range(10):
            s0 = complex(rng.normal(), rng.normal() + 1.5)
            h = 1e-6 * (1 + abs(s0))
            fd = (f(s0 + h) - f(s0 - h)) / (2 * h)
            assert abs(df(s0) - fd) <= 1e-6 * max(1.0, abs(fd))


class TestNormalization:
    def test_cancellation_safety(self):
        # multiply num and den by (s - a); renormalizing recovers the original
        f = RationalFunction([2.0, 1.0], [1.0, 3.0, 1.0])
        a = -1.7
        bump = Polynomial.from_roots([a], 1.0)
        g = RationalFunction(f.num * bump, f.den * bump).normalized()
        assert np.max(np.abs(g.num.coeffs - f.num.coeffs)) < 1e-9
        assert np.max(np.abs(g.den.coeffs - f.den.coeffs)) < 1e-9

    def test_no_false_cancellation(self):
        f = RationalFunction([1.0, 1.0], [2.0, 1.0]).normalized()
        assert f.num.degree == 1 and f.den.degree == 1

    def test_zero_function(self):
        f = RationalFunction([0.0], [1.0, 1.0]).normalized()
        assert f.is_zero

    def test_matrix_inverse_pointwise(self, three_node_model):
        _, ynodal, _, _ = three_node_model
        inv = ynodal.inverse()
        s0 = 0.4 + 1.1j
        assert np.linalg.norm(inv(s0) @ ynodal(s0) - np.eye(3)) < 1e-9


class TestArithmetic:
    def test_add_sub_mul_div_pointwise(self):
        rng = np.random.default_rng(23)
        f = RationalFunction(rng.normal(size=3), np.r_[rng.normal(size=2), 1.0])
        g = RationalFunction(rng.normal(size=2), np.r_[rng.normal(size=3), 1.0])
        s0 = 0.3 + 0.9j
        assert (f + g)(s0) == pytest.approx(f(s0) + g(s0))
        assert (f - g)(s0) == pytest.approx(f(s0) - g(s0))
        assert (f * g)(s0) == pytest.approx(f(s0) * g(s0))
        assert (f / g)(s0) == pytest.approx(f(s0) / g(s0))

    def test_addition_trims_cancelled_leading_terms(self):
        p = Polynomial([1.0, 2.0, 3.0])
        q = Polynomial([0.5, 1.0, -3.0])
        assert (p + q).degree == 1

    def test_factored_evaluation_matches_coefficients(self):
        roots = [-0.5 + 2j, -0.5 - 2j, -80.0, -0.01]
        p = Polynomial.from_roots(roots, 1.7)
        coeff_only = Polynomial(p.coeffs.copy())
        for s0 in (0.3 + 1j, -2.0 + 0.5j, 5.0):
            assert p(s0) == pytest.approx(coeff_only(s0), rel=1e-10)

    def test_evaluation_matches_horner(self):
        rng = np.random.default_rng(31)
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        p = Polynomial(c)
        s0 = 0.8 - 0.3j
        horner = 0j
        for ck in c[::-1]:
            horner = horner * s0 + ck
        assert p(s0) == pytest.approx(horner)


def test_ynodal_det_degree_matches_state_count(three_node_model):
    net, _, det, _ = three_node_model
    assert det.num.degree == 2 * len(net.nodes) + len(net.branches)
    assert det.den.degree == len(net.shunts) + len(net.branches)


class TestSymbolicDimensionLimit:
    def test_det_and_adjugate_refuse_above_eight(self):
        ynodal = build_ynodal(random_rlc_network(np.random.default_rng(5), n_nodes=9))
        with pytest.raises(SymbolicDimensionError, match="dimension 8"):
            find_modes(ynodal)
        with pytest.raises(SymbolicDimensionError, match="dimension 8"):
            ynodal.adjugate()
        assert issubclass(SymbolicDimensionError, ArithmeticError)
