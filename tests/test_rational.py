import numpy as np
import pytest

from netmodal.modes import find_modes
from netmodal.netfile import parse_network_text
from netmodal.network import build_ynodal
from netmodal.rational import (
    _CLUSTER_WINDOW,
    DET_CANCEL_REL,
    Polynomial,
    RationalFunction,
    RationalMatrix,
    SymbolicDimensionError,
    _certify_factor_root,
    _cleared_rows,
    _mul_unfused,
    _nearest_root,
    _poly_det,
    _quot_cpython,
    _without_hint_roots,
    poly_roots,
    rat_derivative,
    rat_det,
)
from netmodal.statespace import random_rlc_network
from test_cli import EDGE_FILES


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


def _eight_node_net():
    rng = np.random.default_rng(106)
    random_rlc_network(rng, n_nodes=8)
    return random_rlc_network(rng, n_nodes=8)


class TestEvaluationExactness:
    """Matrix readers evaluate each distinct entry once per point; the values
    must be exactly those of a loop over the entries."""

    POINTS = (0.3 + 2.1j, -0.05 + 4.5j, 1.7)
    GRID = np.linspace(0.1, 10.0, 7) * 1j - 0.02

    @staticmethod
    def scatter(count=200):
        """Points of magnitude 1e-2..1e2 in every direction."""
        rng = np.random.default_rng(8)
        return 10.0 ** rng.uniform(-2.0, 2.0, count) * np.exp(2j * np.pi * rng.uniform(size=count))

    @pytest.fixture(scope="class", params=["sample", "two-port", "rng106-n8-1",
                                           "near-duplicates", "complex-gains"])
    def ynodal(self, request, three_node_net):
        if request.param == "sample":
            return build_ynodal(three_node_net)
        if request.param == "two-port":
            return build_ynodal(parse_network_text(EDGE_FILES["two-port"]).network)
        if request.param == "rng106-n8-1":
            return build_ynodal(_eight_node_net())
        # entries sharing coefficients but not gain, sign or stored roots;
        # product and Horner evaluation of one polynomial round differently
        den = Polynomial([2.0, 1.0, 1.0])
        rooted = Polynomial.from_roots([-0.3 + 1.1j, -0.3 - 1.1j], 0.7)
        base = RationalFunction(Polynomial._raw(rooted.gain, rooted.monic), den)
        scaled = RationalFunction(Polynomial._raw(2.0 * rooted.gain, rooted.monic), den)
        factored = RationalFunction(rooted, den)
        if request.param == "near-duplicates":
            return RationalMatrix([[base, scaled, factored],
                                   [scaled, base, -base],
                                   [factored, -base, base]])
        # complex gains, and product-form num over product-form den (the
        # value is then a quotient of two Python complex numbers)
        both = RationalFunction(Polynomial.from_roots([-0.2 + 3j, 4.0, -1.5 - 0.5j], 0.3 - 2.2j),
                                Polynomial.from_roots([-0.1 + 1j, -0.1 - 1j, -7.0, 0.5j], 1.9j))
        constant_over_roots = RationalFunction(Polynomial.from_roots([], -1.3 + 0.4j),
                                               Polynomial.from_roots([-2.0], 1.0))
        coeffs_over_roots = RationalFunction(Polynomial([0.4j, -1.0, 2.5 + 1j, 0.7]),
                                             Polynomial.from_roots([-0.3, -0.6 + 2j], 1.0))
        return RationalMatrix([[both, constant_over_roots, factored],
                               [coeffs_over_roots, RationalFunction.zero(), -both],
                               [base, both * (0.5 - 1j), constant_over_roots]])

    def test_pointwise_values(self, ynodal):
        for s in self.POINTS:
            expected = np.array([[e(s) for e in row] for row in ynodal.entries])
            assert np.array_equal(ynodal(s), expected)

    def test_grid_values_are_c_contiguous(self, ynodal):
        n = ynodal.dim
        expected = np.empty((self.GRID.size, n, n), dtype=complex)
        for i, row in enumerate(ynodal.entries):
            for j, e in enumerate(row):
                expected[:, i, j] = e(self.GRID)
        grid = ynodal.eval_grid(self.GRID)
        assert np.array_equal(grid, expected)
        assert grid.flags["C_CONTIGUOUS"]

    def test_derivative_values(self, ynodal):
        for s in self.POINTS:
            expected = np.array([[e.derivative_at(s) for e in row] for row in ynodal.entries])
            assert np.array_equal(ynodal.derivative_at(s), expected)

    def test_array_evaluators_match_pointwise_calls(self, ynodal):
        s = self.scatter()
        for e in {id(e): e for row in ynodal.entries for e in row}.values():
            for f in (e, e.num, e.den):
                assert np.array_equal(f._at_points(s), np.array([f(x) for x in s]))

    def test_stacked_determinant_matches_single(self, ynodal):
        stack = ynodal.eval_grid(self.scatter(60))
        assert np.array_equal(np.linalg.det(stack), np.array([np.linalg.det(m) for m in stack]))


def test_unfused_product_and_cpython_quotient_round_like_scalars():
    rng = np.random.default_rng(12)
    a = (rng.normal(size=4000) + 1j * rng.normal(size=4000)) * 10.0 ** rng.uniform(-3, 3, 4000)
    b = (rng.normal(size=4000) + 1j * rng.normal(size=4000)) * 10.0 ** rng.uniform(-3, 3, 4000)
    b[:4] = (2.0, -3j, 1e-300 + 0j, 5.0 + 5.0j)
    assert np.array_equal(_mul_unfused(a, b), np.array([x * y for x, y in zip(a, b)]))
    assert np.array_equal(_quot_cpython(a, b),
                          np.array([complex(x) / complex(y) for x, y in zip(a, b)]))


# -- reference: the scalar polish, one point per evaluation ------------------
# A verbatim copy of the pointwise Newton polish and minor evaluator that the
# batched lockstep replaced.  det() and adjugate() must reproduce it bit for
# bit, on hosts where numpy's array and scalar complex arithmetic round alike
# and on those where they do not.


class _ScalarQuotient:
    def __init__(self, poly: Polynomial, base=None):
        self.poly = poly
        self.base = base if base is not None else poly
        self.cancelled = []

    def value(self, x: complex) -> complex:
        q = 1.0 + 0j
        for r in self.cancelled:
            q *= x - r
        return self.base(x) / q

    def survey_circle(self, center: complex, radius: float, points: int = 32):
        theta = 2.0 * np.pi * (np.arange(points) + 0.5) / points
        ring = center + radius * np.exp(1j * theta)
        vals = np.array([self.value(x) for x in ring])
        if np.any(vals == 0):
            return None
        noise = 16.0 * np.finfo(float).eps * self.poly.magnitude_bound(abs(center) + radius)
        q_min = 1.0
        for r in self.cancelled:
            q_min *= max(float(np.min(np.abs(ring - r))), 1e-300)
        if float(np.min(np.abs(vals))) * q_min <= 30.0 * noise:
            return None
        ratios = np.roll(vals, -1) / vals
        steps = np.log(np.abs(ratios)) + 1j * np.angle(ratios)
        count = int(round(float(np.sum(steps.imag)) / (2.0 * np.pi)))
        mid = center + radius * np.exp(1j * (theta + np.pi / points))
        moment = complex(np.sum(mid * steps) / (2j * np.pi))
        return count, moment

    def newton_polish(self, x0: complex, steps: int = 8) -> complex:
        x = x0
        if self.cancelled and min(abs(x - r) for r in self.cancelled) \
                < 1e-12 * (1.0 + abs(x)):
            x = x + 1e-9 * (1.0 + abs(x))
        vx = self.value(x)
        fx = abs(vx)
        if not np.isfinite(fx):
            return x0
        for _ in range(steps):
            h = 1e-6 * (1.0 + abs(x))
            slope = (self.value(x + h) - self.value(x - h)) / (2.0 * h)
            if slope == 0 or not np.isfinite(slope):
                break
            trial = x - vx / slope
            if not np.isfinite(trial):
                break
            if self.cancelled and min(abs(trial - r) for r in self.cancelled) \
                    < 1e-13 * (1.0 + abs(trial)):
                break
            vt = self.value(trial)
            ft = abs(vt)
            if not np.isfinite(ft) or ft >= fx:
                break
            x, vx, fx = trial, vt, ft
        return x


def _scalar_minor_eval(matrix, rows, cols, row_factors):
    multipliers = [Polynomial.from_roots(row_factors[r], 1.0) for r in rows]
    plan = matrix._evaluation_plan()
    used, local = np.unique(plan.index[np.ix_(rows, cols)], return_inverse=True)
    entries = [plan.entries[k] for k in used]
    local = local.reshape(len(rows), len(cols))

    def base(s: complex) -> complex:
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.array([e(s) for e in entries], dtype=complex)
            value = np.linalg.det(values[local])
        for p in multipliers:
            value *= p(s)
        return value

    return base


def _scalar_deflate_guaranteed(poly: Polynomial, extra_roots, base_eval=None):
    if poly.is_zero or poly.degree == 0:
        return poly
    remaining = list(poly.roots())
    quotient = _ScalarQuotient(poly, base=base_eval)
    for e in extra_roots:
        if not remaining:
            break
        remaining.pop(_nearest_root(remaining, e)[0])
        quotient.cancelled.append(complex(e))
    polished = [complex(quotient.newton_polish(x)) for x in remaining]
    return Polynomial.from_roots(polished, poly.gain)


def _scalar_cancel_known_roots(poly: Polynomial, den_roots):
    if poly.is_zero or poly.degree == 0 or not den_roots:
        return poly, list(den_roots)
    remaining = list(poly.roots())
    quotient = _ScalarQuotient(poly)
    kept = []
    for r in den_roots:
        window = _CLUSTER_WINDOW * (1.0 + abs(r))
        floor = DET_CANCEL_REL * (1.0 + abs(r))
        best, dist = _nearest_root(remaining, r)
        if dist >= window:
            kept.append(r)
            continue
        if _certify_factor_root(quotient, r, window, floor, dist):
            remaining.pop(best)
            quotient.cancelled.append(complex(r))
        else:
            kept.append(r)
    if not quotient.cancelled:
        return poly, kept
    polished = [complex(quotient.newton_polish(x)) for x in remaining]
    return Polynomial.from_roots(polished, poly.gain), kept


def _scalar_minor(matrix, rows, cols, hint_roots):
    """Minor ``(rows, cols)`` of ``matrix`` reduced through the scalar polish,
    as a rational function."""
    cleared, row_factors = _cleared_rows(matrix.entries)
    poly = _poly_det(cleared, rows, cols, {})
    all_roots = [r for k in rows for r in row_factors[k]]
    if hint_roots is None:
        num, den_roots = _scalar_cancel_known_roots(poly, all_roots)
    else:
        den_roots = list(hint_roots)
        num = _scalar_deflate_guaranteed(
            poly, _without_hint_roots(all_roots, den_roots),
            _scalar_minor_eval(matrix, rows, cols, row_factors))
    return RationalFunction(num, Polynomial.from_roots(den_roots, 1.0))


def _exact_bytes(f: RationalFunction) -> tuple:
    return tuple(
        (np.complex128(p.gain).tobytes(), p.monic.tobytes(),
         None if p.factors is None else np.asarray(p.factors, dtype=complex).tobytes())
        for p in (f.num, f.den)
    )


def _reference_matrix(name, three_node_net):
    if name == "sample":
        return build_ynodal(three_node_net)
    if name == "rng106-n8-1":
        return build_ynodal(_eight_node_net())
    if name == "rng4-n4":  # polished roots move if the row-multiplier products fuse
        return build_ynodal(random_rlc_network(np.random.default_rng(4), n_nodes=4))
    if name.startswith("two-port"):  # multi-port: no structure hints
        return build_ynodal(parse_network_text(EDGE_FILES[name]).network)
    # det = p/(s+1) with p = s^2 + 0.3s + 4: the cleared determinant
    # carries spare factors (s+1)(s+2)^2, so two roots survive to polish
    p = Polynomial([4.0, 0.3, 1.0])
    s1, s2 = Polynomial.from_roots([-1.0]), Polynomial.from_roots([-2.0])
    return RationalMatrix([
        [RationalFunction(p, s1), RationalFunction(p, s2)],
        [RationalFunction([1.0], s1), RationalFunction(Polynomial([1.0]) + s2, s2)],
    ])


REFERENCE_NETS = ["sample", "rng4-n4", "two-port", "two-port-branch", "no-hints-cancelling"]


class TestLockstepPolishReference:
    @pytest.mark.parametrize("name", REFERENCE_NETS + ["rng106-n8-1"])
    def test_det_matches_scalar_polish(self, three_node_net, name):
        ynodal = _reference_matrix(name, three_node_net)
        whole = tuple(range(ynodal.dim))
        hints = None if ynodal.hints is None else ynodal.hints.det_den_roots
        expected = _scalar_minor(ynodal, whole, whole, hints)
        assert _exact_bytes(ynodal.det()) == _exact_bytes(expected)

    @pytest.mark.parametrize("name", REFERENCE_NETS)
    def test_adjugate_matches_scalar_polish(self, three_node_net, name):
        ynodal = _reference_matrix(name, three_node_net)
        n = ynodal.dim
        adj = ynodal.adjugate()
        for i in range(n):
            for j in range(n):
                rows = tuple(k for k in range(n) if k != i)
                cols = tuple(k for k in range(n) if k != j)
                hints = None if ynodal.hints is None else ynodal.hints.minor_den_roots(i, j)
                entry = _scalar_minor(ynodal, rows, cols, hints)
                expected = entry if (i + j) % 2 == 0 else -entry
                assert _exact_bytes(adj[j, i]) == _exact_bytes(expected), (i, j)
