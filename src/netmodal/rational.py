"""Complex-coefficient polynomials, rational functions and matrices of them.

These carry the package's symbolic transfer functions: network admittance
matrices and their determinants.  All values are immutable and all
operations are pure, so they can be shared and evaluated concurrently
without locking.

Polynomials are stored monic-scaled (ascending coefficients whose leading
term is exactly 1) together with a separate complex gain.  Keeping the gain
out of the coefficient array limits the dynamic range that builds up when
determinants of larger matrices are expanded.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Sequence

import numpy as np

# Addition drops leading coefficients this small relative to what the two
# addends carried at the same position: they are cancellation residue, not
# signal.  A global relative cutoff would be wrong here, because coefficient
# arrays legitimately span many orders of magnitude once root magnitudes
# spread (products of large branch poles).
ADD_TRIM_REL = 1e-9
# Two roots closer than CANCEL_REL * (1 + |root|) are treated as common.
CANCEL_REL = 1e-9
# Matching tolerance when cancelling known denominator factors out of
# determinant and minor numerators.  Roots of those high-degree polynomials
# carry errors around 1e-8, so the generic 1e-9 tolerance would miss true
# cancellations; 1e-6 matches the near-repeated-mode threshold and a true
# mode would have to sit within the factor root's own error to be stolen.
DET_CANCEL_REL = 1e-6
# Imaginary parts below this (relative to the largest coefficient) are
# dropped when a polynomial is rebuilt from a conjugate-closed root set.
REALIFY_REL = 1e-12
# Largest matrix whose determinant is expanded symbolically.
# Beyond it the expansion is neither affordable nor accurate; callers
# evaluate the matrix pointwise instead.
SYMBOLIC_DIM_LIMIT = 8

__all__ = [
    "Polynomial",
    "RationalFunction",
    "RationalMatrix",
    "SymbolicDimensionError",
]


class SymbolicDimensionError(ArithmeticError):
    """Symbolic determinant asked of a matrix above ``SYMBOLIC_DIM_LIMIT``."""


def _check_symbolic_dim(n: int) -> None:
    if n > SYMBOLIC_DIM_LIMIT:
        raise SymbolicDimensionError(
            f"the symbolic determinant is limited to dimension "
            f"{SYMBOLIC_DIM_LIMIT}, got {n}; evaluate the matrix pointwise instead"
        )


def _nearest_root(pool, r, taken=None):
    """Index of the entry of ``pool`` nearest ``r``, and its distance.

    Ties go to the first index; entries flagged in ``taken`` are passed
    over.  Returns ``(-1, inf)`` when nothing is left to match.  Callers
    apply their own tolerance to the distance.
    """
    best, best_d = -1, np.inf
    for k, candidate in enumerate(pool):
        if taken is not None and taken[k]:
            continue
        d = abs(candidate - r)
        if d < best_d:
            best, best_d = k, d
    return best, best_d


def _mul_unfused(a, b) -> np.ndarray:
    """Complex product with each float64 product and sum rounded on its own,
    as numpy's scalar arithmetic computes it.  numpy's array loops may fuse
    a multiply with the following add, which moves the last bit."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _quot_cpython(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex quotient by CPython's algorithm for ``complex / complex``,
    which rounds differently from numpy's division.  Where CPython raises
    ``ZeroDivisionError`` (a zero divisor) the value here is NaN."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        real_den = br + bi * ratio
        imag_den = br * ratio + bi
        out = np.empty(a.shape, dtype=complex)
        out.real = np.where(by_real, (ar + ai * ratio) / real_den, (ar * ratio + ai) / imag_den)
        out.imag = np.where(by_real, (ai - ar * ratio) / real_den, (ai * ratio - ar) / imag_den)
    return out


class Polynomial:
    """Univariate polynomial with complex coefficients, ascending degree.

    A polynomial constructed from its roots remembers them (``factors``);
    evaluation then runs in product form, whose relative accuracy does not
    degrade with the coefficient dynamic range.  Products of factored
    polynomials stay factored; sums and derivatives fall back to plain
    coefficient form.
    """

    __slots__ = ("gain", "monic", "factors")

    def __init__(self, coeffs: Iterable[complex]):
        c = np.atleast_1d(np.asarray(list(coeffs) if not hasattr(coeffs, "__len__") else coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        self.factors = None
        nonzero = np.nonzero(c)[0]
        if nonzero.size == 0:
            self.gain = 0j
            self.monic = np.array([1.0 + 0j])
            return
        c = c[: nonzero[-1] + 1]
        gain = complex(c[-1])
        monic = c / gain
        monic[-1] = 1.0 + 0j
        self.gain = gain
        self.monic = monic

    @classmethod
    def _raw(cls, gain: complex, monic: np.ndarray, factors=None) -> "Polynomial":
        out = object.__new__(cls)
        out.gain = complex(gain)
        out.monic = monic
        out.factors = factors
        return out

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw(0j, np.array([1.0 + 0j]))

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw(1.0 + 0j, np.array([1.0 + 0j]), factors=())

    @classmethod
    def from_roots(cls, roots: Sequence[complex], gain: complex = 1.0) -> "Polynomial":
        """Monic product of ``(s - r)`` over the roots, times ``gain``.

        When the root set is conjugate-closed the tiny imaginary residue
        left by complex multiplication is removed, so real-coefficient
        polynomials stay exactly real through a cancel/rebuild cycle.
        """
        roots = np.asarray(roots, dtype=complex)
        if roots.size == 0:
            return cls._raw(gain, np.array([1.0 + 0j]), factors=())
        coeffs = np.array([1.0 + 0j])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([-r, 1.0 + 0j]))
        top = np.abs(coeffs).max()
        if np.abs(coeffs.imag).max() <= REALIFY_REL * top:
            coeffs = coeffs.real.astype(complex)
            coeffs[-1] = 1.0 + 0j
        return cls._raw(gain, coeffs, factors=tuple(complex(r) for r in roots))

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """Plain ascending coefficient array (gain folded back in)."""
        return self.gain * self.monic

    @property
    def degree(self) -> int:
        return len(self.monic) - 1

    @property
    def is_zero(self) -> bool:
        return self.gain == 0

    @property
    def is_real(self) -> bool:
        return self.gain.imag == 0.0 and bool(np.all(self.monic.imag == 0.0))

    @property
    def _product_form(self) -> bool:
        return self.factors is not None and not self.is_zero

    def __call__(self, s):
        if self._product_form:
            out = np.multiply(np.ones_like(np.asarray(s, dtype=complex)), self.gain)
            for r in self.factors:
                out = out * (s - r)
            return out if out.ndim else complex(out)
        return self.gain * np.polyval(self.monic[::-1], s)

    def _at_points(self, s: np.ndarray) -> np.ndarray:
        """Values at each point of the 1-D array ``s``, each bit-identical
        to calling the polynomial on that point alone.  The scalar call
        multiplies numpy scalars, so the products here are unfused; Horner
        evaluation goes through the same ufunc loop either way."""
        if self._product_form:
            out = _mul_unfused(np.ones_like(s), self.gain)
            for r in self.factors:
                out = _mul_unfused(out, s - r)
            return out
        return _mul_unfused(np.polyval(self.monic[::-1], s), self.gain)

    def __repr__(self) -> str:
        return f"Polynomial(degree={self.degree}, gain={self.gain:.6g})"

    # -- arithmetic -------------------------------------------------------

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(-self.gain, self.monic, self.factors)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = np.zeros(n, dtype=complex)
        ref = np.zeros(n)
        out[: len(a)] += a
        out[: len(b)] += b
        ref[: len(a)] = np.abs(a)
        ref[: len(b)] = np.maximum(ref[: len(b)], np.abs(b))
        significant = np.nonzero(np.abs(out) > ADD_TRIM_REL * ref)[0]
        if significant.size == 0:
            return Polynomial.zero()
        return Polynomial(out[: significant[-1] + 1])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            factors = None
            if self.factors is not None and other.factors is not None:
                factors = self.factors + other.factors
            return Polynomial._raw(
                self.gain * other.gain, np.convolve(self.monic, other.monic), factors
            )
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return Polynomial.zero()
            return Polynomial._raw(self.gain * other, self.monic, self.factors)
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial.zero()
        c = self.coeffs
        return Polynomial(c[1:] * np.arange(1, len(c)))

    def magnitude_bound(self, radius: float) -> float:
        """Sum of |coefficient| * radius^k; bounds |p| on that circle."""
        return float(np.polyval(np.abs(self.coeffs)[::-1], radius))

    # -- roots ------------------------------------------------------------

    def roots(self, polish: bool = True) -> np.ndarray:
        """All roots (with multiplicity) via companion-matrix eigenvalues.

        Each eigenvalue is refined with up to 10 damped Newton steps, which
        gives local accuracy on top of the robust global baseline.
        """
        if self.is_zero:
            raise ValueError("undefined roots: zero polynomial")
        n = self.degree
        if n == 0:
            return np.array([], dtype=complex)
        if self.factors is not None:
            return np.asarray(self.factors, dtype=complex)
        monic = self.monic
        comp_col = -monic[:-1]
        if self.is_real:
            comp = np.zeros((n, n))
            comp[1:, :-1] = np.eye(n - 1)
            comp[:, -1] = comp_col.real
        else:
            comp = np.zeros((n, n), dtype=complex)
            comp[1:, :-1] = np.eye(n - 1)
            comp[:, -1] = comp_col
        roots = np.linalg.eigvals(comp).astype(complex)
        if polish:
            roots = self._polish(roots)
        return roots

    def _polish(self, roots: np.ndarray) -> np.ndarray:
        pd = self.monic[::-1]
        dd = (self.monic[1:] * np.arange(1, len(self.monic)))[::-1]
        x = roots.copy()
        fx = np.abs(np.polyval(pd, x))
        for _ in range(10):
            dfx = np.polyval(dd, x)
            safe = np.abs(dfx) > 0
            step = np.zeros_like(x)
            step[safe] = np.polyval(pd, x[safe]) / dfx[safe]
            trial = x - step
            ft = np.abs(np.polyval(pd, trial))
            accept = ft <= fx
            x = np.where(accept, trial, x)
            fx = np.where(accept, ft, fx)
            if np.all(np.abs(step[accept]) <= 1e-15 * (1.0 + np.abs(x[accept]))):
                break
        return x


class RationalFunction:
    """Ratio of two polynomials in ``s``; denominator kept monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1.0,)):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = Polynomial._raw(num.gain / den.gain, num.monic, num.factors)
        self.den = Polynomial._raw(1.0 + 0j, den.monic, den.factors)

    @classmethod
    def constant(cls, value: complex) -> "RationalFunction":
        return cls(Polynomial([value]), Polynomial.one())

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls.constant(0.0)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls.constant(1.0)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, s):
        return self.num(s) / self.den(s)

    def _at_points(self, s: np.ndarray) -> np.ndarray:
        """Values at each point of the 1-D array ``s``, each bit-identical
        to calling the function on that point alone.  There, two
        product-form polynomials give Python complex values, which divide by
        CPython's algorithm; any other pair divides as numpy does."""
        num, den = self.num._at_points(s), self.den._at_points(s)
        if self.num._product_form and self.den._product_form:
            return _quot_cpython(num, den)
        return num / den

    def __repr__(self) -> str:
        return f"RationalFunction({self.num.degree}/{self.den.degree})"

    # -- arithmetic -------------------------------------------------------

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    @staticmethod
    def _coerce(value):
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (int, float, complex)):
            return RationalFunction.constant(value)
        return NotImplemented

    # -- calculus and simplification ---------------------------------------

    def derivative(self) -> "RationalFunction":
        """Quotient-rule derivative (not normalized)."""
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def derivative_at(self, s: complex) -> complex:
        """Derivative value at a point without forming the symbolic quotient."""
        return _quotient_slope(self.num, self.num.derivative(),
                               self.den, self.den.derivative(), s)


class MatrixStructureHints:
    """Known denominator structure of a rational matrix.

    Assemblers that know how their matrix was built (e.g. each component
    admittance enters through a rank-one stamp, making the determinant
    affine in it) can state the exact denominator root multiset of the
    determinant.  Reduction then needs no value judgements at all: the
    spare factors are guaranteed divisors.
    """

    __slots__ = ("det_den_roots",)

    def __init__(self, det_den_roots):
        self.det_den_roots = tuple(det_den_roots)


def _quotient_slope(num, dnum, den, dden, s):
    """Quotient-rule value (n'd - nd') / d^2 at ``s`` from the four polynomials."""
    dv = den(s)
    return (dnum(s) * dv - num(s) * dden(s)) / (dv * dv)


def _poly_key(p: Polynomial) -> tuple:
    factors = None if p.factors is None else np.asarray(p.factors, dtype=complex).tobytes()
    return (np.complex128(p.gain).tobytes(), p.monic.tobytes(), factors)


class _EvalPlan:
    """The distinct entries of a matrix and an ``(n, n)`` index into them.

    Entries merge only when their gains, monic coefficients and factors are
    bitwise equal, so evaluating each distinct entry once per point gives
    exactly the values of a per-entry loop.
    """

    __slots__ = ("entries", "index", "_slopes")

    def __init__(self, grid):
        distinct, index, seen = [], [], {}
        for row in grid:
            for e in row:
                k = seen.setdefault((_poly_key(e.num), _poly_key(e.den)), len(distinct))
                if k == len(distinct):
                    distinct.append(e)
                index.append(k)
        self.entries = tuple(distinct)
        self.index = np.array(index, dtype=np.intp).reshape(len(grid), len(grid))
        self._slopes = None

    def slopes(self) -> tuple:
        """Per distinct entry: num, num', den and den' (built on first use)."""
        if self._slopes is None:
            self._slopes = tuple(
                (e.num, e.num.derivative(), e.den, e.den.derivative()) for e in self.entries
            )
        return self._slopes


class RationalMatrix:
    """Square matrix of rational functions.

    The only symbolic matrix operation is ``det``; everything else reads
    values.  Whole-system models are evaluated pointwise from the nodal
    matrix (see ``network.build_zsys``), not built from it symbolically.

    Pointwise readers (``__call__``, ``eval_grid``, ``derivative_at``,
    ``derivative_grid`` and the batched minor evaluator behind ``det``)
    share one evaluation plan: the distinct entries (bitwise equal ones
    merged, e.g. symmetric halves and zeros) and an index into them.  Each
    distinct entry is evaluated once per point (once per grid for the grid
    readers), so values are bit-identical to a per-entry loop.  ``det``
    evaluates all the points of one Newton step at once, with the rounding
    of one-point-at-a-time evaluation.  The plan is built lazily on first
    use and cached; building it is idempotent, so a matrix stays shareable
    without locking.
    """

    __slots__ = ("dim", "entries", "hints", "_plan")

    def __init__(self, entries: Sequence[Sequence[RationalFunction]], hints=None):
        rows = tuple(tuple(self._coerce(e) for e in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("entries must form a non-empty square grid")
        self.dim = n
        self.entries = rows
        self.hints = hints
        self._plan = None

    def _evaluation_plan(self) -> _EvalPlan:
        plan = self._plan
        if plan is None:
            plan = self._plan = _EvalPlan(self.entries)
        return plan

    @staticmethod
    def _coerce(value) -> RationalFunction:
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (int, float, complex)):
            return RationalFunction.constant(value)
        raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __call__(self, s: complex) -> np.ndarray:
        """Pointwise evaluation to an ``(n, n)`` complex array."""
        plan = self._evaluation_plan()
        return np.array([e(s) for e in plan.entries], dtype=complex)[plan.index]

    def eval_grid(self, s_values: np.ndarray) -> np.ndarray:
        """Evaluate on a 1-D grid of points, returning a C-contiguous
        ``(len(s), n, n)`` array."""
        return self._on_grid(s_values, self._evaluation_plan().entries)

    def derivative_at(self, s: complex) -> np.ndarray:
        """Entrywise derivative Y'(s) as an ``(n, n)`` complex array, with
        the arithmetic of :meth:`RationalFunction.derivative_at`."""
        plan = self._evaluation_plan()
        slopes = [_quotient_slope(*polys, s) for polys in plan.slopes()]
        return np.array(slopes, dtype=complex)[plan.index]

    def derivative_grid(self, s_values: np.ndarray) -> np.ndarray:
        """Entrywise derivative on a 1-D grid of points, returning a
        C-contiguous ``(len(s), n, n)`` array: the grid sibling of
        :meth:`eval_grid`.  Each distinct entry takes one quotient-rule
        evaluation over the whole grid, so values round as numpy's array
        loops do and may differ from :meth:`derivative_at` in the last bits."""
        slopes = [partial(_quotient_slope, *polys) for polys in self._evaluation_plan().slopes()]
        return self._on_grid(s_values, slopes)

    def _on_grid(self, s_values, evaluators) -> np.ndarray:
        """One call of each distinct entry's evaluator over the whole 1-D
        grid, spread to a C-contiguous ``(len(s), n, n)`` array."""
        s_values = np.asarray(s_values, dtype=complex)
        values = np.empty((s_values.size, len(evaluators)), dtype=complex)
        for k, evaluate in enumerate(evaluators):
            values[:, k] = evaluate(s_values)
        return np.take(values, self._evaluation_plan().index, axis=1)

    # -- determinant ----------------------------------------------------------

    def det(self) -> RationalFunction:
        """Determinant as a normalized rational function.

        Each row is cleared by its denominator LCM first and a polynomial
        determinant is taken.  With structure hints the spare factors are
        guaranteed divisors and are deflated outright; otherwise common
        factors are identified by an argument-principle survey around the
        accurately-known denominator roots.  The surviving roots are
        Newton-polished in lockstep (see :meth:`_reduced_minors`).  Raises
        :class:`SymbolicDimensionError` above ``SYMBOLIC_DIM_LIMIT``.
        """
        _check_symbolic_dim(self.dim)
        whole = tuple(range(self.dim))
        hint_roots = None if self.hints is None else [self.hints.det_den_roots]
        return self._reduced_minors([(whole, whole)], hint_roots)[0]

    def _reduced_minors(self, minors, hint_roots):
        """Each minor ``(rows, cols)`` as a rational function: its cleared
        polynomial with the spare row factors divided out, over the rest.

        With structure hints, ``hint_roots[m]`` is minor ``m``'s exact
        denominator root multiset and every other row-factor root claims the
        nearest computed root.  Without hints, a row-factor root is cancelled
        where the argument principle certifies it as a zero.  The surviving
        roots of every minor are then Newton-polished together, against a
        value that is exact where the polynomial is not: the LU determinant
        of the minor of Y times its row multipliers (with hints), or the
        minor polynomial itself.
        """
        cleared, row_factors = _cleared_rows(self.entries)
        cache: dict = {}
        polys = [_poly_det(cleared, rows, cols, cache) for rows, cols in minors]
        if self.hints is not None:
            evaluate = _ClearedMinors(self._evaluation_plan(), row_factors, minors)
        else:
            evaluate = _PolynomialBases(polys)
        jobs, dens = [], []
        for m, (poly, (rows, _)) in enumerate(zip(polys, minors)):
            all_roots = [r for k in rows for r in row_factors[k]]
            quotient = _DeflatedQuotient(poly, evaluate, m)
            if hint_roots is None:
                remaining, den_roots = _cancel_known_roots(quotient, all_roots)
            else:
                den_roots = list(hint_roots[m])
                remaining = _claim_guaranteed(
                    quotient, _without_hint_roots(all_roots, den_roots))
            jobs.append((quotient, remaining))
            dens.append(den_roots)
        polished = iter(_polish_lockstep(evaluate, [job for job in jobs if job[1] is not None]))
        return [
            RationalFunction(quotient.poly if remaining is None
                             else Polynomial.from_roots(next(polished), quotient.poly.gain),
                             Polynomial.from_roots(den_roots, 1.0))
            for (quotient, remaining), den_roots in zip(jobs, dens)
        ]


def _match_roots(pool, roots, close):
    """Match each root of ``roots`` to the nearest still unmatched entry of
    ``pool`` (ties to the first index), where ``close(distance, root)``.

    Returns ``(rest, unmatched)``: the pool entries left unclaimed, in pool
    order, and the roots that claimed none, in input order.
    """
    taken = [False] * len(pool)
    unmatched = []
    for r in roots:
        best, d = _nearest_root(pool, r, taken)
        if best >= 0 and close(d, r):
            taken[best] = True
        else:
            unmatched.append(r)
    return [p for p, t in zip(pool, taken) if not t], unmatched


def _same_factor_root(d, r) -> bool:
    """Two computed roots of low-degree entry denominators coincide."""
    return d < CANCEL_REL * (1.0 + abs(r)) * 100.0


def _hint_root(d, r) -> bool:
    """A structure-hint root and a row-factor root coincide (both are
    accurately rooted low-degree factors, so the tolerance is tight)."""
    return d <= 1e-6 * (1.0 + abs(r))


def _without_hint_roots(pool, hint_roots):
    rest, unmatched = _match_roots(pool, hint_roots, _hint_root)
    if unmatched:
        raise ValueError("denominator hint root not present in the row factors")
    return rest


def _cleared_rows(entries):
    """Clear denominators row-wise using the row LCM.

    Returns the polynomial grid and, per row, the LCM roots that were
    multiplied in.  Denominators are monic, so roots fully describe them.
    """
    n = len(entries)
    cleared = []
    row_factors = []
    for i in range(n):
        den_roots = [
            list(entries[i][j].den.roots()) if entries[i][j].den.degree > 0 else []
            for j in range(n)
        ]
        lcm: list = []
        for roots in den_roots:
            lcm += [complex(r) for r in _match_roots(lcm, roots, _same_factor_root)[1]]
        row = []
        for j in range(n):
            entry = entries[i][j]
            if entry.num.is_zero:
                row.append(Polynomial.zero())
                continue
            extra = _match_roots(lcm, den_roots[j], _same_factor_root)[0]
            row.append(entry.num * Polynomial.from_roots(extra, 1.0))
        cleared.append(row)
        row_factors.append(lcm)
    return cleared, row_factors


def _poly_det(grid, rows, cols, cache) -> Polynomial:
    """Determinant of a polynomial matrix over the given index subsets.

    Memoized cofactor expansion: division-free, so coefficient accuracy
    survives the wide dynamic ranges these polynomials develop (fraction-free
    elimination loses the small cancelling factors in double precision).
    Callers keep the size within ``SYMBOLIC_DIM_LIMIT``.
    """
    n = len(rows)
    key = (rows, cols)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if n == 1:
        out = grid[rows[0]][cols[0]]
    elif n == 2:
        out = (
            grid[rows[0]][cols[0]] * grid[rows[1]][cols[1]]
            - grid[rows[0]][cols[1]] * grid[rows[1]][cols[0]]
        )
    else:
        out = Polynomial.zero()
        sub_rows = rows[1:]
        for k, c in enumerate(cols):
            pivot = grid[rows[0]][c]
            if pivot.is_zero:
                continue
            sub_cols = cols[:k] + cols[k + 1 :]
            term = pivot * _poly_det(grid, sub_rows, sub_cols, cache)
            out = out + term if k % 2 == 0 else out - term
    cache[key] = out
    return out


class _ClearedMinors:
    """Batched values of the row-cleared minors of one matrix.

    Minor ``m`` at ``s`` is the LU determinant of ``Y[rows, cols](s)``
    times each of its rows' multipliers Π(s − row factor root), in row
    order.  A batch evaluates every distinct entry of Y and every row
    multiplier once over all its points and takes one stacked determinant.
    Each value is bit-identical to that pointwise arithmetic: entries and
    multipliers through their ``_at_points`` evaluators, a stacked
    ``np.linalg.det`` equals the single-matrix one, and the products with
    the multipliers are unfused as numpy's scalar products are.  Points on
    an entry pole give non-finite values, which the callers' guards handle.
    """

    def __init__(self, plan: _EvalPlan, row_factors, minors):
        self.entries = plan.entries
        self.multipliers = [Polynomial.from_roots(f, 1.0) for f in row_factors]
        self.rows = np.array([rows for rows, _ in minors], dtype=np.intp)
        self.index = np.array([plan.index[np.ix_(rows, cols)] for rows, cols in minors])

    def __call__(self, keys: np.ndarray, s: np.ndarray) -> np.ndarray:
        at = np.arange(s.size)
        with np.errstate(all="ignore"):
            values = np.array([e._at_points(s) for e in self.entries])
            factors = np.array([p._at_points(s) for p in self.multipliers])
            out = np.linalg.det(values[self.index[keys], at[:, None, None]])
            for rows in self.rows[keys].T:
                out = _mul_unfused(out, factors[rows, at])
        return out


class _PolynomialBases:
    """Batched values of plain minor polynomials: ``polys[key]`` at each
    point."""

    def __init__(self, polys):
        self.polys = polys

    def __call__(self, keys: np.ndarray, s: np.ndarray) -> np.ndarray:
        out = np.empty(s.shape, dtype=complex)
        for key in np.unique(keys):
            at = keys == key
            out[at] = self.polys[key]._at_points(s[at])
        return out


# A certified factor root may claim the nearest computed root this far away
# (clustered roots smear well beyond the plain matching tolerance).
_CLUSTER_WINDOW = 1e-3


class _DeflatedQuotient:
    """Stable evaluation of ``base(x) / prod(x - cancelled)``.

    ``base`` is minor ``key`` of the batched evaluator ``evaluate`` (see
    :class:`_ClearedMinors` and :class:`_PolynomialBases`); ``poly`` is
    the expanded minor.  The cancelled roots are exact low-degree factor
    roots, so the quotient form sidesteps re-expanding coefficients after
    each deflation.
    """

    def __init__(self, poly: Polynomial, evaluate, key: int):
        self.poly = poly
        self.evaluate = evaluate
        self.key = key
        self.cancelled = []

    def value(self, x: complex, base: np.complex128) -> complex:
        """The quotient at ``x`` from the base value there, with scalar
        arithmetic.  ``base`` is always a numpy scalar; a product-form
        polynomial's own call returns a Python complex, but the two divide
        alike by the only Python complex ``q`` possible, exactly 1."""
        q = 1.0 + 0j
        for r in self.cancelled:
            q *= x - r
        return base / q

    def survey_circle(self, center: complex, radius: float, points: int = 32):
        """Argument-principle survey of the circle: net zero count and the
        first moment (sum of zero positions minus deflated copies inside).

        Returns ``(count, moment)`` or ``None`` when evaluation noise drowns
        the winding signal.
        """
        theta = 2.0 * np.pi * (np.arange(points) + 0.5) / points
        ring = center + radius * np.exp(1j * theta)
        bases = self.evaluate(np.full(points, self.key), ring)
        vals = np.array([self.value(x, b) for x, b in zip(ring, bases)])
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


def _near_cancelled(quotient: _DeflatedQuotient, x, rel: float) -> bool:
    return bool(quotient.cancelled) and \
        min(abs(x - r) for r in quotient.cancelled) < rel * (1.0 + abs(x))


def _base_values(evaluate, quotients, requests):
    """One batched evaluation of ``requests``: ``(k, points)`` pairs asking
    for the base of ``quotients[k]`` at each point.  Returns the values per
    request."""
    if not requests:
        return []
    keys = np.array([quotients[k].key for k, points in requests for _ in points], dtype=np.intp)
    values = evaluate(keys, np.array([x for _, points in requests for x in points], dtype=complex))
    bounds = np.cumsum([0] + [len(points) for _, points in requests])
    return [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _polish_lockstep(evaluate, jobs, steps: int = 8):
    """Damped Newton refinement of quotient roots, all roots in lockstep.

    ``jobs`` holds ``(quotient, roots)`` pairs sharing the batched base
    ``evaluate``; returns each job's polished roots as a list of Python
    complex.  Per root the iteration is scalar: the slope by central
    differences (the analytic quotient-rule slope cancels catastrophically
    next to a deflated root), a trial step kept while |value| falls, and a
    stop at a non-finite value or slope or at a trial on a cancelled root.
    Each round evaluates in one batch every live root's trial point and
    the two difference points that its next step needs if the trial is
    kept, so a step costs one batched evaluation for all roots.
    """
    quotients = [quotient for quotient, roots in jobs for _ in roots]
    starts = [x0 for _, roots in jobs for x0 in roots]
    x = list(starts)
    h, vx, fx, vp, vm = ([None] * len(x) for _ in range(5))
    requests = []
    for k, quotient in enumerate(quotients):
        if _near_cancelled(quotient, x[k], 1e-12):
            x[k] = x[k] + 1e-9 * (1.0 + abs(x[k]))
        h[k] = 1e-6 * (1.0 + abs(x[k]))
        requests.append((k, (x[k], x[k] + h[k], x[k] - h[k])))
    live = []
    for (k, points), bases in zip(requests, _base_values(evaluate, quotients, requests)):
        vx[k] = quotients[k].value(points[0], bases[0])
        fx[k] = abs(vx[k])
        if not np.isfinite(fx[k]):
            x[k] = starts[k]
            continue
        vp[k] = quotients[k].value(points[1], bases[1])
        vm[k] = quotients[k].value(points[2], bases[2])
        live.append(k)
    for step in range(steps):
        requests = []
        for k in live:
            slope = (vp[k] - vm[k]) / (2.0 * h[k])
            if slope == 0 or not np.isfinite(slope):
                continue
            trial = x[k] - vx[k] / slope
            if not np.isfinite(trial) or _near_cancelled(quotients[k], trial, 1e-13):
                continue
            if step + 1 < steps:
                h_next = 1e-6 * (1.0 + abs(trial))
                requests.append((k, (trial, trial + h_next, trial - h_next)))
            else:
                requests.append((k, (trial,)))
        live = []
        for (k, points), bases in zip(requests, _base_values(evaluate, quotients, requests)):
            vt = quotients[k].value(points[0], bases[0])
            ft = abs(vt)
            if not np.isfinite(ft) or ft >= fx[k]:
                continue
            x[k], vx[k], fx[k] = points[0], vt, ft
            if len(points) == 3:
                h[k] = 1e-6 * (1.0 + abs(x[k]))
                vp[k] = quotients[k].value(points[1], bases[1])
                vm[k] = quotients[k].value(points[2], bases[2])
                live.append(k)
        if not live:
            break
    polished, at = [], 0
    for _, roots in jobs:
        polished.append([complex(r) for r in x[at:at + len(roots)]])
        at += len(roots)
    return polished


def _claim_guaranteed(quotient: _DeflatedQuotient, extra_roots):
    """Cancel factor roots that are known divisors by construction: each
    claims the nearest computed root of the minor polynomial.

    Returns the surviving roots to polish, or ``None`` when the polynomial
    stands as it is.
    """
    poly = quotient.poly
    if poly.is_zero or poly.degree == 0:
        return None
    remaining = list(poly.roots())
    for e in extra_roots:
        if not remaining:
            break
        remaining.pop(_nearest_root(remaining, e)[0])
        quotient.cancelled.append(complex(e))
    return remaining


def _cancel_known_roots(quotient: _DeflatedQuotient, den_roots):
    """Cancel denominator roots where the minor polynomial shares them.

    Each factor root is known accurately (it comes from a low-degree entry
    denominator).  Whether it still divides the running quotient is decided
    by the argument principle on a tiny circle around the root: the winding
    number counts remaining zeros there, so repeated copies and clustered
    neighbours resolve correctly and no derivative is needed.  Certified
    roots claim the nearest computed root of the original polynomial.

    Returns the surviving roots to polish (``None`` when nothing was
    cancelled and the polynomial stands) and the denominator roots kept.
    """
    poly = quotient.poly
    if poly.is_zero or poly.degree == 0 or not den_roots:
        return None, list(den_roots)
    remaining = list(poly.roots())
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
        return None, kept
    return remaining, kept


def _certify_factor_root(quotient: _DeflatedQuotient, r: complex, window: float,
                         floor: float, nearest_dist: float) -> bool:
    """Does the deflated quotient vanish at ``r``?

    Surveys circles around ``r``: when exactly one net zero lies inside, the
    winding moment locates it and the test is whether it sits on ``r``.
    Several zeros inside prompt a shrink; an empty circle settles the answer
    negatively.  When noise or unresolvable clustering defeats the survey,
    falls back to plain matching at the tight tolerance.
    """
    radius = window
    for _ in range(4):
        if radius < max(floor, 4.0 * np.finfo(float).eps * (1.0 + abs(r))):
            break
        survey = quotient.survey_circle(r, radius)
        if survey is None:
            break
        count, moment = survey
        if count <= 0 and not any(abs(rc - r) < radius for rc in quotient.cancelled):
            return False
        poles_inside = [rc for rc in quotient.cancelled if abs(rc - r) < radius]
        n_zeros = count + len(poles_inside)
        if n_zeros <= 0:
            return False
        if n_zeros == 1:
            position = moment + sum(poles_inside)
            return abs(position - r) <= max(floor, 1e-3 * radius)
        radius *= 0.02
    return nearest_dist < floor
