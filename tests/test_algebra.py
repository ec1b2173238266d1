"""Exact-arithmetic layer: explicit cases with independently computed values."""

import copy
import pickle

import pytest

from hhlax.algebra import (
    DivisionByZero,
    LaurentPoly,
    PolyMatrix2,
    Rational,
    VarId,
    mat_commutator,
    poisson_bracket,
)
from hhlax.model import hamiltonians, lax_matrices
from numeric_reference import MissingAssignment, substitute_numeric

x1, x2, p1, p2, t1, t2, lam, alpha = LaurentPoly.gens()
HALF = Rational(1, 2)
QUARTER = Rational(1, 4)


def brute_force_product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Independent oracle: multiply term tables directly, then normalize."""
    accumulated = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            mono = tuple(ea + eb for ea, eb in zip(mono_a, mono_b))
            accumulated[mono] = accumulated.get(mono, 0) + coeff_a * coeff_b
    return LaurentPoly(accumulated)


class TestAddition:
    def test_additive_inverse(self):
        assert (x1**2 + (-(x1**2))).is_zero

    def test_cancellation(self):
        assert (x1 + 1) + (x1 - 1) == 2 * x1

    def test_scalar_minus_polynomial(self):
        unit, first = (0,) * 8, (1,) + (0,) * 7
        assert 1 - x1 == LaurentPoly({unit: 1, first: -1})
        assert HALF - x1 == LaurentPoly({unit: HALF, first: -1})
        assert 0 - x1 == -x1
        assert HALF - x1 / 2 == (1 - x1) / 2

    def test_refused_scalar_minus_polynomial_names_the_minus(self):
        for left in (True, 1.5, "a"):
            with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -:"):
                left - x1

    def test_constructor_is_the_sum_of_its_terms(self):
        unit, first, second = (0,) * 8, (1,) + (0,) * 7, (0, 1) + (0,) * 6
        inverse_square = (0, -2) + (0,) * 6
        built = LaurentPoly({first: HALF, second: Rational(-1, 3), unit: 0, inverse_square: Rational(5, 6)})
        assert built == HALF * x1 - Rational(1, 3) * x2 + Rational(5, 6) * x2**-2
        assert LaurentPoly({unit: Rational(-6, 4)}) == Rational(-3, 2)
        assert LaurentPoly({first: 0, second: 0}).is_zero

    def test_hamiltonian_reassembles_from_parts(self):
        alpha_part = alpha / x2**2
        rest = HALF * p1**2 + HALF * p2**2 + x1**3 + HALF * x1 * x2**2
        assert alpha_part + rest == hamiltonians(False).h1


class TestMultiplication:
    def test_laurent_cancellation(self):
        assert (alpha / x2**2) * x2**2 == alpha
        assert x2**-2 * x2**2 == LaurentPoly.one()

    def test_difference_of_squares(self):
        assert (lam - x1) * (lam + x1) == lam**2 - x1**2

    def test_against_brute_force_oracle(self):
        a = QUARTER * x2**2
        b = x1**2 + QUARTER * x2**2
        assert a * b == brute_force_product(a, b)
        # and the frozen expansion
        assert a * b == QUARTER * x1**2 * x2**2 + Rational(1, 16) * x2**4

    def test_exponents_may_go_negative(self):
        product = (x2**-2) * (x2**-3)
        assert product == x2**-5


class TestDerivative:
    def test_laurent_rule(self):
        assert (alpha * x2**-2).diff(VarId.X2) == -2 * alpha * x2**-3

    def test_constant(self):
        assert LaurentPoly.constant(7).diff(VarId.X1).is_zero

    def test_polynomial_in_lambda(self):
        f = lam**2 - x1 * lam - QUARTER * x2**2
        assert f.diff(VarId.LAMBDA) == 2 * lam - x1

    def test_mixed_partials_commute(self):
        f = x1**3 * p2**-2 + x2 * p1 * lam**2
        d_xp = f.diff(VarId.X1).diff(VarId.P2)
        d_px = f.diff(VarId.P2).diff(VarId.X1)
        assert d_xp == d_px


class TestPoissonBracket:
    def test_canonical_pairs(self):
        assert poisson_bracket(x1, p1) == LaurentPoly.one()
        assert poisson_bracket(x2, p2) == LaurentPoly.one()
        assert poisson_bracket(x1, p2).is_zero

    def test_antisymmetry_on_self(self):
        f = x1 * p1**2 + x2**-1
        assert poisson_bracket(f, f).is_zero

    def test_inert_variables(self):
        assert poisson_bracket(t1 * lam, alpha * t2).is_zero

    def test_hamiltonians_in_involution(self):
        hams = hamiltonians(False)
        assert poisson_bracket(hams.h1, hams.h2).is_zero


class TestMatrixOps:
    def test_self_commutator_vanishes(self):
        a = PolyMatrix2(x1, lam, p1 * p2, -x1)
        assert mat_commutator(a, a).is_zero

    def test_identity_commutes(self):
        b = PolyMatrix2(x1**2, 1, x2**-2, p2)
        assert mat_commutator(PolyMatrix2.identity(), b).is_zero

    def test_det_identity(self):
        assert PolyMatrix2.identity().det() == LaurentPoly.one()

    def test_det_diagonal(self):
        a, b = x1 + lam, p2**2
        assert PolyMatrix2(a, 0, 0, b).det() == a * b

    def test_lax_matrix_traceless(self):
        assert lax_matrices(False).L.trace().is_zero
        assert lax_matrices(True).L.trace().is_zero

    def test_matrix_vector_apply(self):
        m = PolyMatrix2(x1, 1, QUARTER * x2**2, 0)
        out = m.apply((LaurentPoly.zero(), LaurentPoly.one()))
        assert out == (LaurentPoly.one(), LaurentPoly.zero())
        # Scalar entries of the vector are coerced by the ring operations.
        assert m.apply((0, 1)) == out
        assert m.apply((HALF, x2)) == (HALF * x1 + x2, x2**2 / 8)

    def test_equal_matrices_hash_equal_and_key_dicts(self):
        m = PolyMatrix2(x1, 1, QUARTER * x2**2, 0)
        twin = PolyMatrix2(x1, LaurentPoly.one(), x2**2 / 4, LaurentPoly.zero())
        assert twin is not m and hash(twin) == hash(m)
        assert {m: "step"}[twin] == "step"
        assert len({m, twin, PolyMatrix2.identity()}) == 2

    def test_repr_wraps_the_rendering(self):
        m = PolyMatrix2(x1, 1, QUARTER * x2**2, 0)
        assert repr(m) == f"PolyMatrix2({m})" == "PolyMatrix2([[x1, 1], [1/4*x2^2, 0]])"

    def test_read_only_matrix_copies_and_pickles(self):
        m = PolyMatrix2(x1, 1, QUARTER * x2**2, lam**-1)
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and twin.entries() == m.entries()

    @pytest.mark.parametrize("entry, name", [(True, "bool"), (1.5, "float")])
    def test_inexact_entry_is_refused_by_name(self, entry, name):
        with pytest.raises(TypeError, match=f"^matrix entries must be polynomials or scalars, got {name}$"):
            PolyMatrix2(entry, 0, 0, 0)

    def test_matrix_takes_no_new_attribute(self):
        # The frozen dataclass refuses a name that is no field with
        # FrozenInstanceError, an AttributeError.
        m = PolyMatrix2.identity()
        with pytest.raises(AttributeError):
            m.extra = 1
        with pytest.raises(AttributeError):
            del m.extra
        assert not hasattr(m, "extra") and m == PolyMatrix2.identity()

    def test_matrix_hashes_as_its_entries_but_is_not_them(self):
        m = PolyMatrix2(x1, 1, QUARTER * x2**2, lam**-1)
        assert hash(m) == hash(m.entries())
        assert m != m.entries() and m.entries() != m


class TestNumericSubstitution:
    def test_h1_reference_point(self):
        point = {VarId.X1: 1.0, VarId.X2: 1.0, VarId.P1: 0.0, VarId.P2: 0.0, VarId.ALPHA: 0.0}
        assert substitute_numeric(hamiltonians(False).h1, point) == pytest.approx(1.5, abs=0)

    def test_h2_reference_point(self):
        point = {VarId.X1: 1.0, VarId.X2: 1.0, VarId.P1: 0.0, VarId.P2: 0.0, VarId.ALPHA: 0.0}
        assert substitute_numeric(hamiltonians(False).h2, point) == pytest.approx(0.3125, abs=0)

    def test_zero_polynomial(self):
        assert substitute_numeric(LaurentPoly.zero(), {}) == 0.0

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignment):
            substitute_numeric(x1 * p2, {VarId.X1: 1.0})

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            substitute_numeric(alpha * x2**-2, {VarId.X2: 0.0, VarId.ALPHA: 1.0})

    def test_zero_base_positive_exponent_is_fine(self):
        assert substitute_numeric(x2**3, {VarId.X2: 0.0}) == 0.0


class TestExactSubstitution:
    def test_substitute_rational(self):
        f = t1 * x1 + 3 * t2**2
        assert f.substitute_rational(VarId.T1, 0) == 3 * t2**2
        assert f.substitute_rational(VarId.T2, Rational(1, 3)) == t1 * x1 + Rational(1, 3)

    def test_substitute_rational_negative_power(self):
        f = alpha * x2**-2
        assert f.substitute_rational(VarId.X2, 2) == QUARTER * alpha
        assert (alpha / x2).substitute_rational(VarId.X2, -2) == -HALF * alpha
        with pytest.raises(DivisionByZero, match=r"^x2 = 0 but appears with exponent -2$"):
            f.substitute_rational(VarId.X2, 0)

    def test_substitute_rational_absent_variable_returns_the_polynomial(self):
        f = t1 * x1 + 3 * t2**2
        assert f.substitute_rational(VarId.ALPHA, Rational(1, 3)) is f
        assert LaurentPoly.zero().substitute_rational(VarId.X2, 0).is_zero

    def test_substitute_alpha_zero_drops_singular_terms(self):
        h1 = hamiltonians(False).h1
        reduced = h1.substitute_rational(VarId.ALPHA, 0)
        assert reduced.degree_range(VarId.X2)[0] >= 0


def test_degree_range_counts_exponent_zero():
    # A term free of the variable has exponent 0 in it.
    assert (1 + x1).degree_range(VarId.X1) == (0, 1)
    assert (x1**-1 + 1).degree_range(VarId.X1) == (-1, 0)
    assert (x1 * x2 + x2).degree_range(VarId.X1) == (0, 1)
    assert (x1**-2 + x1**3).degree_range(VarId.X1) == (-2, 3)
    assert (x2 + 3).degree_range(VarId.X1) == (0, 0)
    assert LaurentPoly.zero().degree_range(VarId.X1) == (0, 0)


class TestDivision:
    def test_scalar_division(self):
        assert (x1 * 2) / 2 == x1
        assert x1 / Rational(1, 2) == 2 * x1
        assert (x1 + x2) / Rational(-3, 4) == Rational(-4, 3) * x1 + Rational(-4, 3) * x2
        assert list((x1 / -3).items()) == [((1,) + (0,) * 7, Rational(-1, 3))]
        assert LaurentPoly.zero() / 7 == 0

    def test_division_by_zero_scalar(self):
        for zero in (0, Rational(0)):
            with pytest.raises(ZeroDivisionError, match=r"^division of polynomial by zero$"):
                x1 / zero

    def test_single_term_division(self):
        assert (x1 * x2**2) / x2**2 == x1
        assert alpha / x2**2 == alpha * x2**-2

    def test_multi_term_divisor_rejected(self):
        with pytest.raises(ValueError):
            x1 / (x1 + 1)

    def test_negative_power_of_multi_term_rejected(self):
        with pytest.raises(ValueError):
            (x1 + x2) ** -1


class TestScalarRule:
    """Exact ints and Fractions are scalars; their subclasses are not."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: x1 * VarId.X2,
            lambda: VarId.X2 * x1,
            lambda: x1 + True,
            lambda: True + x1,
            lambda: x1 - True,
            lambda: True - x1,
            lambda: x1 / True,
            lambda: x1**True,
            lambda: x1 ** Rational(1, 2),
            lambda: PolyMatrix2(VarId.X2, 0, 0, 0),
            lambda: PolyMatrix2.identity() * True,
            lambda: LaurentPoly.constant(True),
            lambda: LaurentPoly({(0,) * 8: VarId.X2}),
            lambda: x1.substitute_rational(VarId.X1, True),
            lambda: x1.substitute_rational(VarId.X2, True),
            lambda: PolyMatrix2.identity().apply((True, x1)),
            lambda: LaurentPoly({(0.5,) + (0,) * 7: 1}),
            lambda: LaurentPoly({(1.0,) + (0,) * 7: 1}),
            lambda: LaurentPoly({(True,) + (0,) * 7: 1}),
            lambda: LaurentPoly.term((0,) * 7 + (Rational(1),), 1),
            lambda: LaurentPoly.term((0, VarId.X2) + (0,) * 6, 1),
            lambda: LaurentPoly({(0.5,) + (0,) * 7: 0}),
        ],
        ids=[
            "x1*VarId", "VarId*x1", "x1+True", "True+x1", "x1-True", "True-x1", "x1/True",
            "x1**True", "x1**(1/2)", "matrix_entry", "matrix*True", "constant", "term",
            "substitute", "substitute_absent", "apply_vector",
            "exponent_half", "exponent_float", "exponent_bool", "exponent_fraction",
            "exponent_VarId", "exponent_of_zero_term",
        ],
    )
    def test_subclass_of_int_is_refused(self, build):
        # Exponents follow the coefficient rule: only an exact int is one,
        # so x1^0.5 and x1^1.0 (which squared to x1^2.0) never exist.
        with pytest.raises(TypeError):
            build()

    def test_bool_is_not_equal_to_a_constant(self):
        assert LaurentPoly.one() == 1 and LaurentPoly.one() == Rational(1)
        assert LaurentPoly.one() != True

    def test_exact_scalars_still_work(self):
        assert x1 * 2 + Rational(1, 2) == LaurentPoly({(1,) + (0,) * 7: 2, (0,) * 8: HALF})
        assert x1 ** Rational(2) == x1**2
        assert PolyMatrix2(1, 0, 0, 1) == PolyMatrix2.identity()


TOP = 2**31 - 1


class TestExponentRange:
    """Exponents satisfy |e| < 2**31; no result wraps into another monomial."""

    def test_extreme_exponents_round_trip(self):
        mono = (TOP, -TOP, 0, 1, -1, TOP, -TOP, 2**30)
        f = LaurentPoly.term(mono, Rational(-3, 7))
        assert list(f.items()) == [(mono, Rational(-3, 7))]
        assert f.degree_range(VarId.X2) == (-TOP, -TOP)
        assert str(LaurentPoly.term((TOP, -TOP) + (0,) * 6, 1)) == "x1^2147483647*x2^-2147483647"
        for var in VarId:
            for e in (TOP, -TOP):
                single = tuple(e if i == var else 0 for i in range(8))
                assert dict(LaurentPoly.term(single, 1).items()) == {single: 1}

    @pytest.mark.parametrize("e", [2**31, -(2**31), 2**40])
    @pytest.mark.parametrize("var", list(VarId))
    def test_constructor_refuses_out_of_range(self, var, e):
        mono = tuple(e if i == var else 0 for i in range(8))
        with pytest.raises(OverflowError):
            LaurentPoly({mono: 1})

    def test_power_past_the_range_raises(self):
        with pytest.raises(OverflowError):
            x1 ** 2**31
        with pytest.raises(OverflowError):
            x1 ** -(2**31)

    def test_product_past_the_range_raises(self):
        half = x1 ** 2**30
        with pytest.raises(OverflowError):
            half * half
        # A sum keeps the larger bound of its two summands.
        with pytest.raises(OverflowError):
            (half + x2) * (half - x2)

    def test_derivative_past_the_range_raises(self):
        f = LaurentPoly.term((-TOP,) + (0,) * 7, 1)
        with pytest.raises(OverflowError):
            f.diff(VarId.X1)
        assert LaurentPoly.term((-(TOP - 1),) + (0,) * 7, 1).diff(VarId.X1) == LaurentPoly.term(
            (-TOP,) + (0,) * 7, -(TOP - 1)
        )


class TestRendering:
    def test_single_term_with_fraction(self):
        assert str(Rational(3, 4) * x2**-2 * alpha) == "3/4*x2^-2*alpha"

    def test_zero_and_one(self):
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly.one()) == "1"

    def test_expected_frobenius_rendering(self):
        assert str(-t1 - 3 * t2**2) == "-t1 - 3*t2^2"

    def test_potential_rendering(self):
        assert str(x1**2 + QUARTER * x2**2) == "x1^2 + 1/4*x2^2"
        assert str(QUARTER * x1 * x2**2) == "1/4*x1*x2^2"

    def test_unit_coefficients_are_implicit(self):
        assert str(x1 - x2) == "x1 - x2"

    def test_rendering_is_deterministic(self):
        f = hamiltonians(True).h1
        assert str(f) == str(LaurentPoly(dict(f.items())))


class TestInvariants:
    def test_no_zero_coefficients_stored(self):
        f = (x1 + 1) - x1
        assert len(f) == 1
        assert (f - 1).is_zero
        assert len(LaurentPoly({(0,) * 8: 0})) == 0

    def test_rational_normal_form(self):
        value = Rational(4, -6)
        assert value.denominator > 0
        assert value == Rational(-2, 3)

    def test_monomial_width_enforced(self):
        with pytest.raises(ValueError):
            LaurentPoly({(1, 0): 1})
