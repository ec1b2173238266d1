"""Property-based checks of the algebraic structure (ring and bracket axioms)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hhlax.algebra import (
    DivisionByZero,
    LaurentPoly,
    N_VARS,
    PolyMatrix2,
    Rational,
    VarId,
    mat_commutator,
    poisson_bracket,
)
from hhlax.model import recursion_matrix, recursion_matrix_inverse
from numeric_reference import substitute_numeric

coefficients = st.builds(
    Rational,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=4),
)

monomials = st.tuples(*[st.integers(min_value=-2, max_value=2)] * N_VARS)

polys = st.dictionaries(monomials, coefficients, max_size=3).map(LaurentPoly)

matrices = st.builds(PolyMatrix2, polys, polys, polys, polys)

# Wider factors for the reference tests: up to 8 terms, denominators up to
# 12, single terms and scalars, and monomials in x1 and x2 alone, where
# products collect many terms and sums cancel often.
wide_coefficients = st.builds(
    Rational,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)
nonzero_coefficients = wide_coefficients.filter(bool)
dense_monomials = st.tuples(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
    *[st.just(0)] * (N_VARS - 2),
)
wide_monomials = st.one_of(monomials, dense_monomials)
factors = st.one_of(
    st.dictionaries(wide_monomials, wide_coefficients, max_size=8).map(LaurentPoly),
    st.builds(LaurentPoly.term, wide_monomials, nonzero_coefficients),
    st.builds(LaurentPoly.constant, wide_coefficients),
)

# Exponents up to 2**29 in size, half of them at the edges, so that products
# and derivatives carry and borrow across the digits of the packed monomials
# while every result stays inside |e| < 2**31.
EDGE = 2**29
large_exponents = st.one_of(
    st.integers(min_value=-EDGE, max_value=EDGE),
    st.sampled_from([-EDGE, -EDGE + 1, -1, 0, 1, EDGE - 1, EDGE]),
)
large_monomials = st.tuples(*[large_exponents] * N_VARS)
large_factors = st.one_of(
    st.dictionaries(large_monomials, wide_coefficients, max_size=8).map(LaurentPoly),
    st.builds(LaurentPoly.term, large_monomials, nonzero_coefficients),
)

# Nonzero values keep negative powers well defined during evaluation.
values = st.floats(min_value=0.5, max_value=2.0).map(lambda v: v if v else 1.0)
points = st.tuples(*[values] * N_VARS).map(
    lambda vs: {VarId(i): v for i, v in enumerate(vs)}
)


@given(polys, polys)
def test_addition_commutes(f, g):
    assert f + g == g + f


@given(polys, polys, polys)
def test_addition_associates(f, g, h):
    assert (f + g) + h == f + (g + h)


@given(polys)
def test_additive_identity_and_inverse(f):
    assert f + LaurentPoly.zero() == f
    assert (f - f).is_zero


@given(polys, polys)
def test_multiplication_commutes(f, g):
    assert f * g == g * f


@settings(max_examples=60)
@given(polys, polys, polys)
def test_multiplication_associates(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(polys)
def test_multiplicative_identity(f):
    assert f * LaurentPoly.one() == f


@settings(max_examples=60)
@given(polys, polys, polys)
def test_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(polys, polys)
def test_bracket_antisymmetry(f, g):
    assert poisson_bracket(f, g) == -poisson_bracket(g, f)


@given(polys, polys, polys)
def test_bracket_bilinearity(f, g, h):
    assert poisson_bracket(f + g, h) == poisson_bracket(f, h) + poisson_bracket(g, h)


@settings(max_examples=60)
@given(polys, polys, polys)
def test_bracket_leibniz(f, g, h):
    assert poisson_bracket(f, g * h) == poisson_bracket(f, g) * h + g * poisson_bracket(f, h)


@settings(max_examples=40)
@given(polys, polys, polys)
def test_bracket_jacobi(f, g, h):
    total = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    assert total.is_zero


@given(polys, st.sampled_from(list(VarId)), st.sampled_from(list(VarId)))
def test_partial_derivatives_commute(f, u, v):
    assert f.diff(u).diff(v) == f.diff(v).diff(u)


@settings(max_examples=40)
@given(matrices, matrices)
def test_commutator_is_traceless(a, b):
    assert mat_commutator(a, b).trace().is_zero


def _term_bound(f: LaurentPoly, point) -> float:
    return sum(
        abs(float(coeff)) * math.prod(float(point[VarId(i)]) ** e for i, e in enumerate(mono))
        for mono, coeff in f.items()
    )


@settings(max_examples=60)
@given(polys, polys, points)
def test_evaluation_is_ring_homomorphism(f, g, point):
    product_value = substitute_numeric(f * g, point)
    factored_value = substitute_numeric(f, point) * substitute_numeric(g, point)
    scale = max(1.0, _term_bound(f, point) * _term_bound(g, point))
    assert abs(product_value - factored_value) <= 1e-12 * scale


@settings(max_examples=60)
@given(polys, polys, points)
def test_evaluation_is_additive(f, g, point):
    total = substitute_numeric(f + g, point)
    parts = substitute_numeric(f, point) + substitute_numeric(g, point)
    scale = max(1.0, _term_bound(f, point) + _term_bound(g, point))
    assert abs(total - parts) <= 1e-12 * scale


def reference_product(f: LaurentPoly, g: LaurentPoly) -> dict:
    """The term-pair product: one Fraction multiply and add per pair of terms."""
    return _term_pair_product(dict(f.items()), dict(g.items()))


def _term_pair_product(f: dict, g: dict) -> dict:
    result: dict = {}
    for mono_f, coeff_f in f.items():
        for mono_g, coeff_g in g.items():
            mono = tuple(a + b for a, b in zip(mono_f, mono_g))
            result[mono] = result.get(mono, Fraction(0)) + coeff_f * coeff_g
    return {mono: coeff for mono, coeff in result.items() if coeff}


def reference_sum(f: LaurentPoly, g: LaurentPoly) -> dict:
    result = dict(f.items())
    for mono, coeff in g.items():
        result[mono] = result.get(mono, Fraction(0)) + coeff
    return {mono: coeff for mono, coeff in result.items() if coeff}


def reference_derivative(f: LaurentPoly, var: VarId) -> dict:
    expected: dict = {}
    for mono, coeff in f.items():
        if mono[var]:
            lowered = tuple(e - 1 if i == var else e for i, e in enumerate(mono))
            expected[lowered] = coeff * mono[var]
    return expected


def assert_normal_form(f: LaurentPoly) -> None:
    # Coefficients are read back as Fractions, never as ints or floats, and
    # exponents as ints within the polynomial's stored bound, below 2**31.
    assert type(f._bound) is int and 0 <= f._bound < 2**31
    for mono, coeff in f.items():
        assert type(mono) is tuple and len(mono) == N_VARS
        assert all(type(e) is int and abs(e) <= f._bound for e in mono)
        assert type(coeff) is Fraction and coeff != 0
    # Stored as nonzero int numerators over one positive denominator with no
    # common factor, so that equal values have equal representations.
    assert type(f._den) is int and f._den >= 1
    assert all(type(num) is int and num for num in f._terms.values())
    assert math.gcd(f._den, *f._terms.values()) == 1


@given(factors, factors)
def test_product_matches_term_pair_reference(f, g):
    product = f * g
    assert dict(product.items()) == reference_product(f, g)
    assert_normal_form(product)


@given(factors, factors)
def test_sum_matches_reference(f, g):
    total = f + g
    assert dict(total.items()) == reference_sum(f, g)
    assert_normal_form(total)
    assert_normal_form(f - g)
    # The other order copies the other operand when only one needs rescaling.
    swapped = g + f
    assert swapped == total
    assert_normal_form(swapped)


@given(factors, factors)
def test_cancelling_products(f, g):
    assert (f * (g - g)).is_zero
    product = (f + g) * (f - g)
    assert dict(product.items()) == reference_product(f + g, f - g)
    assert product == f * f - g * g
    assert_normal_form(product)


@given(factors, st.integers(min_value=-3, max_value=3), st.sampled_from(list(VarId)))
def test_scalar_and_variable_products(f, scalar, var):
    x = LaurentPoly.variable(var)
    for result in (f * scalar, scalar * f, x * f, f**2):
        assert_normal_form(result)
    assert dict((f * scalar).items()) == reference_product(f, LaurentPoly.constant(scalar))
    assert dict((x * f).items()) == reference_product(x, f)


@given(st.builds(LaurentPoly.term, wide_monomials, nonzero_coefficients), factors)
def test_single_term_inverse(unit, f):
    inverse = unit.inverse_term()
    assert_normal_form(inverse)
    assert unit * inverse == LaurentPoly.one()
    assert (f * unit) * inverse == f


@given(factors, st.sampled_from(list(VarId)), st.one_of(st.just(Rational(0)), wide_coefficients))
def test_substitution_matches_reference(f, var, value):
    if not value and any(mono[var] < 0 for mono, _ in f.items()):
        with pytest.raises(DivisionByZero):
            f.substitute_rational(var, value)
        return
    expected: dict = {}
    for mono, coeff in f.items():
        reduced = tuple(0 if i == var else e for i, e in enumerate(mono))
        expected[reduced] = expected.get(reduced, Fraction(0)) + coeff * value ** mono[var]
    result = f.substitute_rational(var, value)
    assert dict(result.items()) == {mono: c for mono, c in expected.items() if c}
    assert_normal_form(result)


@given(factors, st.sampled_from(list(VarId)))
def test_derivative_matches_reference(f, var):
    derivative = f.diff(var)
    assert dict(derivative.items()) == reference_derivative(f, var)
    assert_normal_form(derivative)


@given(large_factors, large_factors, st.sampled_from(list(VarId)))
def test_large_exponents_match_reference(f, g, var):
    assert_normal_form(f)
    product, total, derivative = f * g, f + g, f.diff(var)
    assert dict(product.items()) == reference_product(f, g)
    assert dict(total.items()) == reference_sum(f, g)
    assert dict(derivative.items()) == reference_derivative(f, var)
    for result in (product, total, f - g, derivative):
        assert_normal_form(result)


@given(factors, st.sampled_from(list(VarId)))
def test_coefficients_in_matches_reference(f, var):
    expected: dict = {}
    for mono, coeff in f.items():
        reduced = tuple(0 if i == var else e for i, e in enumerate(mono))
        expected.setdefault(mono[var], {})[reduced] = coeff
    parts = f.coefficients_in(var)
    assert list(parts) == sorted(expected)
    assert {power: dict(part.items()) for power, part in parts.items()} == expected
    for part in parts.values():
        assert_normal_form(part)


@given(factors, st.one_of(nonzero_coefficients, st.integers(min_value=-5, max_value=5).filter(bool)))
def test_negation_and_scalar_division_match_reference(f, scalar):
    negated, quotient = -f, f / scalar
    assert dict(negated.items()) == {mono: -coeff for mono, coeff in f.items()}
    assert dict(quotient.items()) == {mono: coeff / scalar for mono, coeff in f.items()}
    assert_normal_form(negated)
    assert_normal_form(quotient)


@settings(max_examples=60)
@given(polys, st.integers(min_value=0, max_value=5))
def test_power_matches_repeated_product(f, n):
    power = f**n
    expected = {(0,) * N_VARS: Fraction(1)}
    for _ in range(n):
        expected = _term_pair_product(expected, dict(f.items()))
    assert dict(power.items()) == expected
    product = LaurentPoly.one()
    for _ in range(n):
        product = product * f
    assert power == product
    assert_normal_form(power)


def test_power_builds_no_higher_power(monkeypatch):
    degrees = []
    multiply = LaurentPoly.__mul__

    def spy(a, b):
        product = multiply(a, b)
        degrees.append(product.degree_range(VarId.X2)[1])
        return product

    monkeypatch.setattr(LaurentPoly, "__mul__", spy)
    assert LaurentPoly.variable(VarId.X2) ** 4 == LaurentPoly.term((0, 4, 0, 0, 0, 0, 0, 0), 1)
    assert max(degrees) == 4


@given(
    factors,
    factors,
    st.builds(LaurentPoly.term, wide_monomials, nonzero_coefficients),
    nonzero_coefficients,
    st.sampled_from(list(VarId)),
)
def test_equal_values_reached_by_different_routes(f, g, unit, scalar, var):
    x = LaurentPoly.variable(var)
    reassembled = LaurentPoly.zero()
    for power, part in f.coefficients_in(var).items():
        reassembled = reassembled + part * x**power
    for value in ((f * scalar) / scalar, (f + g) - g, (f * unit) * unit.inverse_term(), reassembled):
        assert value == f
        assert hash(value) == hash(f)
        assert_normal_form(value)


@given(st.one_of(st.integers(min_value=-9, max_value=9), wide_coefficients), factors)
def test_equal_values_have_equal_hashes(scalar, f):
    # A constant polynomial equals the int or Fraction it holds, so it must
    # hash like it; sets and dict keys then treat them as one value.
    constant = LaurentPoly.constant(scalar)
    assert constant == scalar == Fraction(scalar)
    values = [scalar, Fraction(scalar), constant, (f - f) + scalar, (f + scalar) - f, f, f * 1, (f + 1) - 1]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b)
    assert len({scalar, Fraction(scalar), constant}) == 1


@settings(max_examples=60)
@given(st.builds(PolyMatrix2, factors, factors, factors, factors), matrices)
def test_commutator_matches_product_difference(a, b):
    # The 6-product formula against the definition AB - BA.
    assert mat_commutator(a, b) == a @ b - b @ a
    assert mat_commutator(b, a) == b @ a - a @ b


def _assert_rows_match_products(m: PolyMatrix2, u: LaurentPoly, v: LaurentPoly) -> None:
    rows = m.apply((u, v))
    assert rows == (m.e11 * u + m.e12 * v, m.e21 * u + m.e22 * v)
    for row in rows:
        assert_normal_form(row)


# Entries are often single terms or zero, like those of the recursion
# matrices, so rows reach the single-term and the zero shortcuts of `*`.
matrix_entries = st.one_of(factors, st.just(LaurentPoly.zero()))


@given(st.builds(PolyMatrix2, matrix_entries, matrix_entries, matrix_entries, matrix_entries), factors, factors)
def test_apply_matches_row_products(m, u, v):
    _assert_rows_match_products(m, u, v)


@given(factors, factors)
def test_recursion_steps_match_row_products(u, v):
    for step in (recursion_matrix(), recursion_matrix_inverse()):
        _assert_rows_match_products(step, u, v)


@given(factors, st.permutations(list(VarId)))
def test_derivative_memo_returns_one_object(f, variables):
    derivatives = [f.diff(var) for var in variables]
    fresh = LaurentPoly(dict(f.items()))
    for var, derivative in zip(variables, derivatives):
        assert f.diff(var) is derivative
        assert fresh.diff(var) == derivative
        assert dict(derivative.items()) == reference_derivative(f, var)


@given(factors, st.lists(st.sampled_from(list(VarId)), min_size=1, max_size=12))
def test_derivative_memo_is_not_part_of_the_value(f, variables):
    # g is an equal copy that is never differentiated.
    g = LaurentPoly(dict(f.items()))
    for var in variables:
        f.diff(var).diff(var)
    assert f == g and g == f
    assert (hash(f), str(f), repr(f)) == (hash(g), str(g), repr(g))
    assert dict(f.items()) == dict(g.items())
    assert len({f, g}) == 1


def test_overflowing_derivative_raises_on_every_call():
    f = LaurentPoly.term((-(2**31 - 1), 0, 0, 0, 0, 0, 0, 0), 1)
    for _ in range(3):
        with pytest.raises(OverflowError):
            f.diff(VarId.X1)
    assert not f._diffs
