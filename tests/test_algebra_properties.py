"""Property-based checks of the algebraic structure (ring and bracket axioms)."""

import math

from hypothesis import given, settings, strategies as st

from hhlax.algebra import (
    LaurentPoly,
    N_VARS,
    PolyMatrix2,
    Rational,
    VarId,
    mat_commutator,
    poisson_bracket,
    substitute_numeric,
)

coefficients = st.builds(
    Rational,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=4),
)

monomials = st.tuples(*[st.integers(min_value=-2, max_value=2)] * N_VARS)

polys = st.dictionaries(monomials, coefficients, max_size=3).map(LaurentPoly)

matrices = st.builds(PolyMatrix2, polys, polys, polys, polys)

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
