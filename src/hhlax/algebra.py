"""Exact symbolic kernel: rationals, Laurent polynomials, 2x2 polynomial matrices.

Everything here is exact and immutable.  Coefficients are arbitrary-precision
rationals, exponents are signed integers (Laurent monomials over a fixed set
of eight variables), and every operation returns a new value.  A polynomial
also memoizes the derivatives taken of it, so a second `diff` by the same
variable returns the stored object; this memo is a cache on the immutable
value, not part of it.  All structural identities of the library are proven
on this layer, so there is deliberately no floating point anywhere: numbers
are evaluated by the generated kernels of `hhlax.kernels`.

A polynomial stores integer numerators over one common denominator, in
lowest terms: the denominator is positive, every numerator is nonzero, and
the gcd of the denominator and all numerators is 1.  Every ring operation
works on these integers alone and normalises its result once, with one gcd
over the whole polynomial.  `Fraction` appears only at the boundary:
coefficients go in as ints or Fractions and come out of `items()` and
`sorted_terms()` as Fractions.  A sum copies the operand whose numerators
need no rescaling to the common denominator and merges the other into it.

Each monomial is stored as one int, `sum(e_i << (32 * i))` over its eight
exponents read as signed 32-bit digits, so a monomial product is one int
addition, a Laurent inverse is a negation and the unit monomial is 0.
Monomials go in and come out as 8-tuples of ints.  Exponents must satisfy
|e| < 2**31: the constructor refuses a larger one, and since every
polynomial carries an upper bound on its |exponents|, a product or
derivative that could leave that range raises `OverflowError` instead of
wrapping into another monomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

# At the public boundary a monomial is a length-8 tuple of signed integer
# exponents.  Inside a polynomial it is packed into one int with a 32-bit
# digit per variable; adding _BIAS makes every digit e + 2**31, which lies in
# [0, 2**32) exactly when |e| < 2**31 = _LIMIT, so the digits read back
# without borrows.
Monomial = tuple
_DIGIT = 32
_SHIFTS = tuple(_DIGIT * var for var in range(N_VARS))
_LIMIT = 1 << (_DIGIT - 1)
_MASK = (1 << _DIGIT) - 1
_BIAS = sum(_LIMIT << shift for shift in _SHIFTS)
_UNIT_MONOMIAL = 0

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


def _pack(mono: Monomial) -> tuple[int, int]:
    """(packed key, largest |exponent|) of an exponent 8-tuple."""
    if len(mono) != N_VARS:
        raise ValueError(f"monomial must have {N_VARS} exponents, got {len(mono)}")
    for e in mono:
        if type(e) is not int:
            raise TypeError(f"exponents must be ints, got {type(e).__name__}")
    top = max(map(abs, mono))
    if top >= _LIMIT:
        raise OverflowError(f"exponent {top} is outside the range |e| < 2**31")
    return sum(e << shift for e, shift in zip(mono, _SHIFTS)), top


def _unpack(key: int) -> Monomial:
    biased = key + _BIAS
    return tuple(((biased >> shift) & _MASK) - _LIMIT for shift in _SHIFTS)


def _overflow(bound: int) -> OverflowError:
    """The error for a new polynomial whose |exponents| could reach `bound` >= 2**31."""
    return OverflowError(f"an exponent could reach {bound}, outside the range |e| < 2**31")


def _monomial_key(mono: Monomial) -> tuple:
    # Graded order: total (signed) degree first, then reverse-lex on the
    # exponent vector.  Fixed once so string rendering is canonical.
    return (sum(mono), tuple(-e for e in mono))


class LaurentPoly:
    """Sparse multivariate Laurent polynomial over the eight ring variables.

    Stored as a map from packed monomials to nonzero integer numerators over
    one positive denominator, with no common factor left among them; the
    zero polynomial is the empty map over 1.  So equality of values is
    equality of the canonical representation.  `_bound` is an upper bound on
    every |exponent|, below 2**31, and `_diffs` maps each variable already
    differentiated by to the derivative; neither is part of the value.  The
    hash is computed from the value on each call, a zero or a constant
    hashing like its int or Fraction, and `bool()` is `len()`, the number of
    terms, so only the zero polynomial is false.
    """

    __slots__ = ("_terms", "_den", "_bound", "_diffs")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        # A sum of single-term polynomials, each canonical as a Fraction is.
        total, bound = LaurentPoly.zero(), 0
        for mono, value in (terms or {}).items():
            packed, top = _pack(tuple(mono))
            bound = max(bound, top)
            num, den = _ratio(value)
            if num:
                total = total + _raw({packed: num}, den, top)
        self._terms, self._den, self._bound = total._terms, total._den, bound
        self._diffs: dict[VarId, LaurentPoly] | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _raw({}, 1, 0)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, value: Scalar) -> "LaurentPoly":
        num, den = _ratio(value)
        return _raw({_UNIT_MONOMIAL: num}, den, 0) if num else _raw({}, 1, 0)

    @classmethod
    def variable(cls, var: VarId) -> "LaurentPoly":
        return _raw({1 << _SHIFTS[var]: 1}, 1, 1)

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

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        den = self._den
        return ((_unpack(mono), Fraction(num, den)) for mono, num in self._terms.items())

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical (graded) order used for rendering."""
        return sorted(self.items(), key=lambda item: _monomial_key(item[0]))

    def _powers(self, var: VarId) -> list[int]:
        """The exponent of `var` in each term, in term order."""
        shift = _SHIFTS[var]
        return [(((mono + _BIAS) >> shift) & _MASK) - _LIMIT for mono in self._terms]

    def depends_on(self, var: VarId) -> bool:
        return any(self._powers(var))

    def degree_range(self, var: VarId) -> tuple[int, int]:
        """(min, max) exponent of `var`; (0, 0) for polynomials free of it."""
        exps = self._powers(var) or [0]
        return (min(exps), max(exps))

    def coefficients_in(self, var: VarId) -> dict[int, "LaurentPoly"]:
        """Collect terms by the exponent of `var`, with `var` removed."""
        shift = _SHIFTS[var]
        buckets: dict[int, dict[int, int]] = {}
        for (mono, num), n in zip(self._terms.items(), self._powers(var)):
            buckets.setdefault(n, {})[mono - (n << shift)] = num
        return {
            power: _normal(terms, self._den, self._bound) for power, terms in sorted(buckets.items())
        }

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if type(other) is not LaurentPoly:
            other = as_poly(other)
            if other is NotImplemented:
                return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _raw(
            {mono: -num for mono, num in self._terms.items()}, self._den, self._bound
        )

    def __sub__(self, other) -> "LaurentPoly":
        if type(other) is not LaurentPoly:
            other = as_poly(other)
            if other is NotImplemented:
                return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other) -> "LaurentPoly":
        # Not `-self + other`: a refused operand must be reported for `-`.
        return (-self).__add__(other)

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        # self + sign * other, for sign 1 or -1, over the LCM of the two
        # denominators.  The operand that needs no rescaling is copied and
        # the other merged into it: a sum is the same value either way.
        first, second = self._terms, other._terms
        if not second:
            return self
        if not first:
            return other if sign == 1 else -other
        den_a, den_b = self._den, other._den
        if den_a == den_b:
            den, scale_a, scale_b = den_a, 1, sign
        else:
            den = math.lcm(den_a, den_b)
            scale_a, scale_b = den // den_a, sign * (den // den_b)
            if scale_b == 1:
                first, second, scale_b = second, first, scale_a
                scale_a = 1
        if scale_a == 1:
            terms = dict(first)
        else:
            terms = {mono: num * scale_a for mono, num in first.items()}
        get = terms.get
        for mono, num in second.items():
            total = get(mono, 0) + num * scale_b
            if total:
                terms[mono] = total
            else:
                del terms[mono]
        return _normal(terms, den, max(self._bound, other._bound))

    def __mul__(self, other) -> "LaurentPoly":
        if type(other) is not LaurentPoly:
            other = as_poly(other)
            if other is NotImplemented:
                return NotImplemented
        if not self._terms:
            return self
        if not other._terms:
            return other
        bound = self._bound + other._bound
        if bound >= _LIMIT:
            raise _overflow(bound)
        if len(self._terms) == 1:
            (mono, num), = self._terms.items()
            return other._shifted(mono, num, self._den, bound)
        if len(other._terms) == 1:
            (mono, num), = other._terms.items()
            return self._shifted(mono, num, other._den, bound)
        sums: dict[int, int] = {}
        get = sums.get
        terms_b = other._terms.items()
        for mono_a, num_a in self._terms.items():
            for mono_b, num_b in terms_b:
                mono = mono_a + mono_b
                sums[mono] = get(mono, 0) + num_a * num_b
        if 0 in sums.values():
            # Only a cancelled coefficient leaves a zero to drop.
            sums = {mono: num for mono, num in sums.items() if num}
        return _normal(sums, self._den * other._den, bound)

    def _shifted(self, shift: int, num: int, den: int, bound: int) -> "LaurentPoly":
        # Product with the single term (num / den) * shift, whose |exponents|
        # are at most `bound` (checked by the caller).  Shifting keeps the
        # monomials distinct, so no two terms collect and none cancels.
        if num == 1 and den == 1:
            if shift == _UNIT_MONOMIAL:
                return self
            return _raw(
                {mono + shift: n for mono, n in self._terms.items()}, self._den, bound
            )
        terms = {mono + shift: n * num for mono, n in self._terms.items()}
        return _normal(terms, self._den * den, bound)

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
            if not other:
                raise ZeroDivisionError("division of polynomial by zero")
            return self * (1 / Fraction(other))
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
        return _raw({-mono: den}, num, self._bound)

    # -- calculus -----------------------------------------------------

    def diff(self, var: VarId) -> "LaurentPoly":
        """Term-wise d/d(var) with d(v^n)/dv = n v^(n-1) for every integer n.

        The first call by each variable stores its result in the memo and
        later calls return that object; a derivative that overflows raises
        on every call and is never stored.
        """
        memo = self._diffs
        if memo is None:
            memo = self._diffs = {}
        else:
            derivative = memo.get(var)
            if derivative is not None:
                return derivative
        bound = self._bound + 1
        if bound >= _LIMIT:
            raise _overflow(bound)
        shift = _SHIFTS[var]
        step = 1 << shift
        result: dict[int, int] = {}
        # `_powers` written out: the bracket differentiates eight times per
        # call, and most terms are free of `var`.
        for mono, num in self._terms.items():
            n = (((mono + _BIAS) >> shift) & _MASK) - _LIMIT
            if n:
                result[mono - step] = num * n
        derivative = memo[var] = _normal(result, self._den, bound)
        return derivative

    def substitute_rational(self, var: VarId, value: Scalar) -> "LaurentPoly":
        """Exactly substitute a rational value for one variable."""
        value = Fraction(*_ratio(value))
        if not self.depends_on(var):
            return self
        coefficients = self.coefficients_in(var)
        lowest = min(coefficients)
        if lowest < 0 and not value:
            raise DivisionByZero(f"{var.symbol} = 0 but appears with exponent {lowest}")
        return sum((c * value**n for n, c in coefficients.items()), LaurentPoly.zero())

    # -- comparisons and rendering ------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._den == other._den and self._terms == other._terms
        if _is_scalar(other):
            return self == LaurentPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        terms = self._terms
        if not terms.keys() - {_UNIT_MONOMIAL}:
            # Zero or a constant hashes like the equal int or Fraction.
            return hash(Fraction(terms.get(_UNIT_MONOMIAL, 0), self._den))
        return hash((self._den, frozenset(terms.items())))

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


_new = object.__new__


def _raw(terms: dict[int, int], den: int, bound: int) -> LaurentPoly:
    # Internal fast path: `terms` over `den` must already be canonical, with
    # every |exponent| at most `bound` < 2**31.
    poly = _new(LaurentPoly)
    poly._terms = terms
    poly._den = den
    poly._bound = bound
    poly._diffs = None
    return poly


def _normal(terms: dict[int, int], den: int, bound: int) -> LaurentPoly:
    """The polynomial with nonzero numerators `terms` over `den` > 0, in canonical form."""
    if den != 1:
        # One C-level gcd over the whole polynomial; for no terms it is
        # `den`, which leaves the zero polynomial over 1.
        common = math.gcd(den, *terms.values())
        if common != 1:
            terms = {mono: num // common for mono, num in terms.items()}
            den //= common
    return _raw(terms, den, bound)


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


@dataclass(frozen=True)
class PolyMatrix2:
    """2x2 matrix with Laurent-polynomial entries.

    The entries are read-only: the model shares its matrices (the Lax
    triples and the recursion matrices) with every caller, so none may
    change them for the others.  A frozen dataclass with slots provides
    that, together with equality and a hash by the entries, and `__reduce__`
    gives copies and pickling; an int or Fraction entry is coerced to a
    constant polynomial.
    """

    # Written out: `slots=True` rebuilds the class, and on CPython 3.11 the
    # generated __setattr__ then fails on a new name with TypeError in place
    # of FrozenInstanceError.
    __slots__ = ("e11", "e12", "e21", "e22")

    e11: LaurentPoly
    e12: LaurentPoly
    e21: LaurentPoly
    e22: LaurentPoly

    def __post_init__(self):
        for name in ("e11", "e12", "e21", "e22"):
            entry = getattr(self, name)
            if not isinstance(entry, LaurentPoly):
                object.__setattr__(self, name, _require_poly(entry))

    def __reduce__(self):
        # Copies and pickles go through __init__: the frozen __setattr__
        # refuses to restore slot state.
        return PolyMatrix2, self.entries()

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
        v1, v2 = vector
        return (self.e11 * v1 + self.e12 * v2, self.e21 * v1 + self.e22 * v2)

    def map(self, fn) -> "PolyMatrix2":
        """Apply `fn` entrywise."""
        return PolyMatrix2(*(fn(entry) for entry in self.entries()))

    def trace(self) -> LaurentPoly:
        return self.e11 + self.e22

    def det(self) -> LaurentPoly:
        return self.e11 * self.e22 - self.e12 * self.e21

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
    """AB - BA, computed exactly in 6 products instead of 8 + 8.

    Over a commutative ring the diagonal of AB - BA is (c, -c) with
    c = a12 b21 - b12 a21, and each off-diagonal entry needs only the
    differences of the diagonals, d_a = a11 - a22 and d_b = b11 - b22.
    """
    a11, a12, a21, a22 = a.entries()
    b11, b12, b21, b22 = b.entries()
    d_a, d_b = a11 - a22, b11 - b22
    c = a12 * b21 - b12 * a21
    return PolyMatrix2(c, b12 * d_a - a12 * d_b, a21 * d_b - b21 * d_a, -c)
