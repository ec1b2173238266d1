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


def assert_normal_form(f: LaurentPoly) -> None:
    # Coefficients are read back as Fractions, never as ints or floats.
    for mono, coeff in f.items():
        assert type(mono) is tuple and len(mono) == N_VARS
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
    expected: dict = {}
    for mono, coeff in f.items():
        if mono[var]:
            lowered = tuple(e - 1 if i == var else e for i, e in enumerate(mono))
            expected[lowered] = coeff * mono[var]
    derivative = f.diff(var)
    assert dict(derivative.items()) == expected
    assert_normal_form(derivative)


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
