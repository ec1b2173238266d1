"""Exact symbolic kernel: rationals, Laurent polynomials, 2x2 polynomial matrices.

Everything here is exact and immutable.  Coefficients are arbitrary-precision
rationals, exponents are signed integers (Laurent monomials over a fixed set
of eight variables), and every operation returns a new value.  All structural
identities of the library are proven on this layer, so there is deliberately
no floating point anywhere: numbers are evaluated by the generated kernels
of `hhlax.kernels`.

Every stored coefficient is a nonzero `Fraction` in normal form.  Products
do their arithmetic on integers: each factor is written as integer
numerators over the LCM of its denominators, the numerator products are
summed per monomial, and each result coefficient is normalised once, as one
`Fraction`, instead of once per pair of terms.
"""

from __future__ import annotations

import functools
import math
import operator
from enum import IntEnum
from fractions import Fraction
from typing import Iterator, Mapping, Union

__all__ = [
    "Rational",
    "VarId",
    "N_VARS",
    "Monomial",
    "LaurentPoly",
    "PolyMatrix2",
    "DivisionByZero",
    "as_poly",
    "poisson_bracket",
    "mat_commutator",
]

# Exact coefficient field.  fractions.Fraction already guarantees the
# normal form we need: gcd(|num|, den) == 1, den > 0, zero stored as 0/1.
Rational = Fraction


class VarId(IntEnum):
    """The eight ring variables, in canonical order."""

    X1 = 0
    X2 = 1
    P1 = 2
    P2 = 3
    T1 = 4
    T2 = 5
    LAMBDA = 6
    ALPHA = 7

    @property
    def symbol(self) -> str:
        return _VAR_NAMES[self]


_VAR_NAMES = ("x1", "x2", "p1", "p2", "t1", "t2", "lambda", "alpha")
N_VARS = 8

# A monomial is a length-8 tuple of signed integer exponents.
Monomial = tuple
_UNIT_MONOMIAL: Monomial = (0,) * N_VARS

# Canonical conjugate pairs for the Poisson bracket; t1, t2, lambda and
# alpha are Poisson-inert.
_PHASE_PAIRS = ((VarId.X1, VarId.P1), (VarId.X2, VarId.P2))

Scalar = Union[int, Fraction]


class DivisionByZero(ZeroDivisionError):
    """A variable raised to a negative power was assigned zero."""


def _coeff(value: Scalar) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction coefficient, got {type(value).__name__}")


def _monomial_key(mono: Monomial) -> tuple:
    # Graded order: total (signed) degree first, then reverse-lex on the
    # exponent vector.  Fixed once so string rendering is canonical.
    return (sum(mono), tuple(-e for e in mono))


class LaurentPoly:
    """Sparse multivariate Laurent polynomial over the eight ring variables.

    Stored as a map from exponent tuples to nonzero rational coefficients;
    the zero polynomial is the empty map, so equality of values is equality
    of the canonical representation.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        normalized: dict[Monomial, Fraction] = {}
        if terms:
            for mono, value in terms.items():
                mono = tuple(mono)
                if len(mono) != N_VARS:
                    raise ValueError(f"monomial must have {N_VARS} exponents, got {len(mono)}")
                coeff = _coeff(value)
                if coeff:
                    _accumulate(normalized, mono, coeff)
        self._terms = normalized
        self._hash: int | None = None

    @classmethod
    def _raw(cls, terms: dict[Monomial, Fraction]) -> "LaurentPoly":
        # Internal fast path: `terms` must already be normalized.
        poly = object.__new__(cls)
        poly._terms = terms
        poly._hash = None
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, value: Scalar) -> "LaurentPoly":
        coeff = _coeff(value)
        return cls._raw({_UNIT_MONOMIAL: coeff} if coeff else {})

    @classmethod
    def variable(cls, var: VarId) -> "LaurentPoly":
        mono = tuple(1 if i == var else 0 for i in range(N_VARS))
        return cls._raw({mono: Fraction(1)})

    @classmethod
    def term(cls, mono: Monomial, coeff: Scalar) -> "LaurentPoly":
        return cls({tuple(mono): coeff})

    @classmethod
    def gens(cls) -> tuple["LaurentPoly", ...]:
        """Generators (x1, x2, p1, p2, t1, t2, lambda, alpha)."""
        return tuple(cls.variable(v) for v in VarId)

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical (graded) order used for rendering."""
        return sorted(self._terms.items(), key=lambda item: _monomial_key(item[0]))

    def depends_on(self, var: VarId) -> bool:
        return any(mono[var] for mono in self._terms)

    def degree_range(self, var: VarId) -> tuple[int, int]:
        """(min, max) exponent of `var`; (0, 0) for polynomials free of it."""
        exps = [mono[var] for mono in self._terms if mono[var]]
        if not exps:
            return (0, 0)
        return (min(exps), max(exps))

    def coefficients_in(self, var: VarId) -> dict[int, "LaurentPoly"]:
        """Collect terms by the exponent of `var`, with `var` removed."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self._terms.items():
            reduced = tuple(0 if i == var else e for i, e in enumerate(mono))
            buckets.setdefault(mono[var], {})[reduced] = coeff
        return {power: LaurentPoly._raw(terms) for power, terms in sorted(buckets.items())}

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        result = dict(self._terms)
        for mono, coeff in other._terms.items():
            _accumulate(result, mono, coeff)
        return LaurentPoly._raw(result)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self._terms) == 1:
            return other._shifted(*next(iter(self._terms.items())))
        if len(other._terms) == 1:
            return self._shifted(*next(iter(other._terms.items())))
        den_a, terms_a = _integer_form(self._terms)
        den_b, terms_b = _integer_form(other._terms)
        sums: dict[Monomial, int] = {}
        get = sums.get
        add = operator.add
        for mono_a, num_a in terms_a:
            for mono_b, num_b in terms_b:
                mono = tuple(map(add, mono_a, mono_b))
                sums[mono] = get(mono, 0) + num_a * num_b
        den = den_a * den_b
        return LaurentPoly._raw({mono: Fraction(num, den) for mono, num in sums.items() if num})

    def _shifted(self, shift: Monomial, scale: Fraction) -> "LaurentPoly":
        # Product with the single term scale * shift.  Shifting keeps the
        # monomials distinct, so no two terms collect and none cancels.
        if scale == 1:
            if shift == _UNIT_MONOMIAL:
                return self
            return LaurentPoly._raw(
                {tuple(map(operator.add, mono, shift)): coeff for mono, coeff in self._terms.items()}
            )
        num, den = scale.numerator, scale.denominator
        return LaurentPoly._raw(
            {
                tuple(map(operator.add, mono, shift)): Fraction(
                    coeff.numerator * num, coeff.denominator * den
                )
                for mono, coeff in self._terms.items()
            }
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return self.inverse_term() ** (-exponent)
        result = LaurentPoly.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other) -> "LaurentPoly":
        # Exact division by a scalar or by a single-term polynomial; the
        # Laurent ring makes the latter total (exponents may go negative).
        if isinstance(other, (int, Fraction)):
            divisor = _coeff(other)
            if not divisor:
                raise ZeroDivisionError("division of polynomial by zero")
            return LaurentPoly._raw(
                {mono: coeff / divisor for mono, coeff in self._terms.items()}
            )
        if isinstance(other, LaurentPoly):
            return self * other.inverse_term()
        return NotImplemented

    def inverse_term(self) -> "LaurentPoly":
        """Exact inverse of a single-term polynomial (a Laurent unit)."""
        if len(self._terms) != 1:
            raise ValueError("only single-term Laurent polynomials are invertible")
        (mono, coeff), = self._terms.items()
        return LaurentPoly._raw({tuple(-e for e in mono): 1 / coeff})

    # -- calculus -----------------------------------------------------

    def diff(self, var: VarId) -> "LaurentPoly":
        """Term-wise d/d(var) with d(v^n)/dv = n v^(n-1) for every integer n."""
        result: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            n = mono[var]
            if n == 0:
                continue
            lowered = list(mono)
            lowered[var] = n - 1
            result[tuple(lowered)] = coeff * n
        return LaurentPoly._raw(result)

    def substitute_rational(self, var: VarId, value: Scalar) -> "LaurentPoly":
        """Exactly substitute a rational value for one variable."""
        value = _coeff(value)
        powers: dict[int, Fraction] = {}
        result: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            n = mono[var]
            if n:
                if n < 0 and not value:
                    raise DivisionByZero(f"{var.symbol} = 0 but appears with exponent {n}")
                power = powers.get(n)
                if power is None:
                    power = powers[n] = value**n
                if not power:
                    continue
                coeff = coeff * power
                reduced = list(mono)
                reduced[var] = 0
                mono = tuple(reduced)
            _accumulate(result, mono, coeff)
        return LaurentPoly._raw(result)

    # -- comparisons and rendering ------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == LaurentPoly.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for var, exp in enumerate(mono):
                if exp == 0:
                    continue
                name = _VAR_NAMES[var]
                factors.append(name if exp == 1 else f"{name}^{exp}")
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude), *factors])
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _accumulate(terms: dict[Monomial, Fraction], mono: Monomial, coeff: Fraction) -> None:
    """Add the nonzero `coeff` to `terms[mono]` in place, dropping a zero sum."""
    prior = terms.get(mono)
    if prior is None:
        terms[mono] = coeff
        return
    total = prior + coeff
    if total:
        terms[mono] = total
    else:
        del terms[mono]


def _integer_form(terms: dict[Monomial, Fraction]) -> tuple[int, list[tuple[Monomial, int]]]:
    """(D, [(mono, n)]) with each coefficient equal to n / D, D the LCM of the denominators."""
    # Pairwise: `math.lcm(*denominators)` would build one argument tuple per
    # call, of every length up to 19, and the interpreter keeps up to 2000
    # freed tuples of each length, which added megabytes of resident memory.
    den = functools.reduce(math.lcm, (coeff.denominator for coeff in terms.values()), 1)
    return den, [(mono, coeff.numerator * (den // coeff.denominator)) for mono, coeff in terms.items()]


def as_poly(value) -> LaurentPoly:
    """Coerce an int or Fraction to a constant polynomial."""
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.constant(value)
    return NotImplemented


def poisson_bracket(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Canonical bracket sum_i (df/dx_i dg/dp_i - df/dp_i dg/dx_i)."""
    acc = LaurentPoly.zero()
    for q, p in _PHASE_PAIRS:
        acc = acc + f.diff(q) * g.diff(p) - f.diff(p) * g.diff(q)
    return acc


class PolyMatrix2:
    """2x2 matrix with Laurent-polynomial entries."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11, e12, e21, e22):
        self.e11 = _require_poly(e11)
        self.e12 = _require_poly(e12)
        self.e21 = _require_poly(e21)
        self.e22 = _require_poly(e22)

    @classmethod
    def identity(cls) -> "PolyMatrix2":
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        return cls(one, zero, zero, one)

    def entries(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return (self.e11, self.e12, self.e21, self.e22)

    @property
    def is_zero(self) -> bool:
        return all(entry.is_zero for entry in self.entries())

    def __add__(self, other: "PolyMatrix2") -> "PolyMatrix2":
        return PolyMatrix2(*(a + b for a, b in zip(self.entries(), other.entries())))

    def __sub__(self, other: "PolyMatrix2") -> "PolyMatrix2":
        return PolyMatrix2(*(a - b for a, b in zip(self.entries(), other.entries())))

    def __neg__(self) -> "PolyMatrix2":
        return PolyMatrix2(*(-entry for entry in self.entries()))

    def __matmul__(self, other: "PolyMatrix2") -> "PolyMatrix2":
        return PolyMatrix2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def __mul__(self, scalar) -> "PolyMatrix2":
        scalar = as_poly(scalar)
        if scalar is NotImplemented:
            return NotImplemented
        return PolyMatrix2(*(entry * scalar for entry in self.entries()))

    __rmul__ = __mul__

    def apply(self, vector: tuple) -> tuple[LaurentPoly, LaurentPoly]:
        """Matrix-vector product on a length-2 column."""
        v1, v2 = (as_poly(component) for component in vector)
        return (self.e11 * v1 + self.e12 * v2, self.e21 * v1 + self.e22 * v2)

    def map(self, fn) -> "PolyMatrix2":
        """Apply `fn` entrywise."""
        return PolyMatrix2(*(fn(entry) for entry in self.entries()))

    def trace(self) -> LaurentPoly:
        return self.e11 + self.e22

    def det(self) -> LaurentPoly:
        return self.e11 * self.e22 - self.e12 * self.e21

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix2):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __str__(self) -> str:
        return f"[[{self.e11}, {self.e12}], [{self.e21}, {self.e22}]]"

    def __repr__(self) -> str:
        return f"PolyMatrix2({self})"


def _require_poly(value) -> LaurentPoly:
    poly = as_poly(value)
    if poly is NotImplemented:
        raise TypeError(f"matrix entries must be polynomials or scalars, got {type(value).__name__}")
    return poly


def mat_commutator(a: PolyMatrix2, b: PolyMatrix2) -> PolyMatrix2:
    """AB - BA, computed exactly."""
    return a @ b - b @ a
