"""Exact symbolic kernel: rationals, Laurent polynomials, 2x2 polynomial matrices.

Everything here is exact and immutable.  Coefficients are arbitrary-precision
rationals, exponents are signed integers (Laurent monomials over a fixed set
of eight variables), and every operation returns a new value.  All structural
identities of the library are proven on this layer, so there is deliberately
no floating point anywhere: numbers are evaluated by the generated kernels
of `hhlax.kernels`.

A polynomial stores integer numerators over one common denominator, in
lowest terms: the denominator is positive, every numerator is nonzero, and
the gcd of the denominator and all numerators is 1.  Every ring operation
works on these integers alone and normalises its result once, with one gcd
over the whole polynomial.  `Fraction` appears only at the boundary:
coefficients go in as ints or Fractions and come out of `items()` and
`sorted_terms()` as Fractions.
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

# Exact coefficient type at the public boundary: coefficients are passed in
# as ints or Fractions and read back as Fractions in normal form.  The ring
# itself computes on integer numerators over a common denominator.
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


def _is_scalar(value) -> bool:
    """Whether `value` is an exact int or Fraction.  Subclasses such as bool
    and the IntEnum `VarId` are not scalars, so `x1 * VarId.X2` is an error
    and not `x1 * 1`."""
    return type(value) is int or type(value) is Fraction


def _ratio(value: Scalar) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if not _is_scalar(value):
        raise TypeError(f"expected an int or Fraction coefficient, got {type(value).__name__}")
    return value.numerator, value.denominator


def _monomial_key(mono: Monomial) -> tuple:
    # Graded order: total (signed) degree first, then reverse-lex on the
    # exponent vector.  Fixed once so string rendering is canonical.
    return (sum(mono), tuple(-e for e in mono))


class LaurentPoly:
    """Sparse multivariate Laurent polynomial over the eight ring variables.

    Stored as a map from exponent tuples to nonzero integer numerators over
    one positive denominator, with no common factor left among them; the
    zero polynomial is the empty map over 1.  So equality of values is
    equality of the canonical representation.
    """

    __slots__ = ("_terms", "_den", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        ratios: list[tuple[Monomial, int, int]] = []
        if terms:
            for mono, value in terms.items():
                mono = tuple(mono)
                if len(mono) != N_VARS:
                    raise ValueError(f"monomial must have {N_VARS} exponents, got {len(mono)}")
                num, den = _ratio(value)
                if num:
                    ratios.append((mono, num, den))
        den = functools.reduce(math.lcm, (d for _, _, d in ratios), 1)
        sums: dict[Monomial, int] = {}
        for mono, num, d in ratios:
            total = sums.get(mono, 0) + num * (den // d)
            if total:
                sums[mono] = total
            else:
                del sums[mono]
        normal = _normal(sums, den)
        self._terms = normal._terms
        self._den = normal._den
        self._hash: int | None = None

    @classmethod
    def _raw(cls, terms: dict[Monomial, int], den: int) -> "LaurentPoly":
        # Internal fast path: `terms` over `den` must already be canonical.
        poly = object.__new__(cls)
        poly._terms = terms
        poly._den = den
        poly._hash = None
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({}, 1)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, value: Scalar) -> "LaurentPoly":
        num, den = _ratio(value)
        return cls._raw({_UNIT_MONOMIAL: num}, den) if num else cls._raw({}, 1)

    @classmethod
    def variable(cls, var: VarId) -> "LaurentPoly":
        mono = tuple(1 if i == var else 0 for i in range(N_VARS))
        return cls._raw({mono: 1}, 1)

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
        den = self._den
        return ((mono, Fraction(num, den)) for mono, num in self._terms.items())

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical (graded) order used for rendering."""
        return sorted(self.items(), key=lambda item: _monomial_key(item[0]))

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
        buckets: dict[int, dict[Monomial, int]] = {}
        for mono, num in self._terms.items():
            reduced = tuple(0 if i == var else e for i, e in enumerate(mono))
            buckets.setdefault(mono[var], {})[reduced] = num
        return {power: _normal(terms, self._den) for power, terms in sorted(buckets.items())}

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({mono: -num for mono, num in self._terms.items()}, self._den)

    def __sub__(self, other) -> "LaurentPoly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other) -> "LaurentPoly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other._combine(self, -1)

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        # self + sign * other, for sign 1 or -1, over the LCM of the two
        # denominators.
        if not other._terms:
            return self
        if not self._terms:
            return other if sign == 1 else -other
        den_a, den_b = self._den, other._den
        if den_a == den_b:
            den, scale_a, scale_b = den_a, 1, sign
        else:
            den = math.lcm(den_a, den_b)
            scale_a, scale_b = den // den_a, sign * (den // den_b)
        if scale_a == 1:
            terms = dict(self._terms)
        else:
            terms = {mono: num * scale_a for mono, num in self._terms.items()}
        get = terms.get
        for mono, num in other._terms.items():
            total = get(mono, 0) + num * scale_b
            if total:
                terms[mono] = total
            else:
                del terms[mono]
        return _normal(terms, den)

    def __mul__(self, other) -> "LaurentPoly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return self
        if not other._terms:
            return other
        if len(self._terms) == 1:
            (mono, num), = self._terms.items()
            return other._shifted(mono, num, self._den)
        if len(other._terms) == 1:
            (mono, num), = other._terms.items()
            return self._shifted(mono, num, other._den)
        sums: dict[Monomial, int] = {}
        get = sums.get
        add = operator.add
        terms_b = other._terms.items()
        for mono_a, num_a in self._terms.items():
            for mono_b, num_b in terms_b:
                mono = tuple(map(add, mono_a, mono_b))
                sums[mono] = get(mono, 0) + num_a * num_b
        return _normal({mono: num for mono, num in sums.items() if num}, self._den * other._den)

    def _shifted(self, shift: Monomial, num: int, den: int) -> "LaurentPoly":
        # Product with the single term (num / den) * shift.  Shifting keeps
        # the monomials distinct, so no two terms collect and none cancels.
        if num == 1 and den == 1:
            if shift == _UNIT_MONOMIAL:
                return self
            return LaurentPoly._raw(
                {tuple(map(operator.add, mono, shift)): n for mono, n in self._terms.items()},
                self._den,
            )
        return _normal(
            {tuple(map(operator.add, mono, shift)): n * num for mono, n in self._terms.items()},
            self._den * den,
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if not _is_scalar(exponent) or exponent.denominator != 1:
            raise TypeError("exponent must be an integer")
        exponent = int(exponent)
        if exponent < 0:
            return self.inverse_term() ** (-exponent)
        result = LaurentPoly.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other) -> "LaurentPoly":
        # Exact division by a scalar or by a single-term polynomial; the
        # Laurent ring makes the latter total (exponents may go negative).
        if _is_scalar(other):
            num, den = _ratio(other)
            if not num:
                raise ZeroDivisionError("division of polynomial by zero")
            if num < 0:
                num, den = -num, -den
            return self._shifted(_UNIT_MONOMIAL, den, num)
        if isinstance(other, LaurentPoly):
            return self * other.inverse_term()
        return NotImplemented

    def inverse_term(self) -> "LaurentPoly":
        """Exact inverse of a single-term polynomial (a Laurent unit)."""
        if len(self._terms) != 1:
            raise ValueError("only single-term Laurent polynomials are invertible")
        (mono, num), = self._terms.items()
        den = self._den
        if num < 0:
            num, den = -num, -den
        return LaurentPoly._raw({tuple(-e for e in mono): den}, num)

    # -- calculus -----------------------------------------------------

    def diff(self, var: VarId) -> "LaurentPoly":
        """Term-wise d/d(var) with d(v^n)/dv = n v^(n-1) for every integer n."""
        result: dict[Monomial, int] = {}
        for mono, num in self._terms.items():
            n = mono[var]
            if n == 0:
                continue
            lowered = list(mono)
            lowered[var] = n - 1
            result[tuple(lowered)] = num * n
        return _normal(result, self._den)

    def substitute_rational(self, var: VarId, value: Scalar) -> "LaurentPoly":
        """Exactly substitute a rational value for one variable."""
        p, q = _ratio(value)
        exps = {mono[var] for mono in self._terms}
        if not any(exps):
            return self
        top, bottom = max(0, max(exps)), max(0, -min(exps))
        if bottom and not p:
            raise DivisionByZero(f"{var.symbol} = 0 but appears with exponent {-bottom}")
        # (p/q)^n = p^(n + bottom) q^(top - n) / (p^bottom q^top), with both
        # exponents on the right nonnegative for every n present.
        scales = {n: p ** (n + bottom) * q ** (top - n) for n in exps}
        result: dict[Monomial, int] = {}
        get = result.get
        for mono, num in self._terms.items():
            n = mono[var]
            scale = scales[n]
            if not scale:
                continue
            if n:
                reduced = list(mono)
                reduced[var] = 0
                mono = tuple(reduced)
            total = get(mono, 0) + num * scale
            if total:
                result[mono] = total
            else:
                del result[mono]
        den = self._den * p**bottom * q**top
        if den < 0:
            den = -den
            result = {mono: -num for mono, num in result.items()}
        return _normal(result, den)

    # -- comparisons and rendering ------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._den == other._den and self._terms == other._terms
        if _is_scalar(other):
            return self == LaurentPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            terms = self._terms
            if not terms.keys() - {_UNIT_MONOMIAL}:
                # Zero or a constant hashes like the equal int or Fraction.
                self._hash = hash(Fraction(terms.get(_UNIT_MONOMIAL, 0), self._den))
            else:
                self._hash = hash((self._den, frozenset(terms.items())))
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


def _normal(terms: dict[Monomial, int], den: int) -> LaurentPoly:
    """The polynomial with nonzero numerators `terms` over `den` > 0, in canonical form."""
    if den != 1:
        # One C-level gcd over the whole polynomial; for no terms it is
        # `den`, which leaves the zero polynomial over 1.
        common = math.gcd(den, *terms.values())
        if common != 1:
            terms = {mono: num // common for mono, num in terms.items()}
            den //= common
    return LaurentPoly._raw(terms, den)


def as_poly(value) -> LaurentPoly:
    """Coerce an int or Fraction to a constant polynomial."""
    if isinstance(value, LaurentPoly):
        return value
    if _is_scalar(value):
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
