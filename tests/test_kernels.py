"""Generated kernels: bit-for-bit agreement with a term-table interpreter,
agreement with exact substitution, the generated singular-set guard, the
generated stepper right-hand sides and the generated diagnostics row."""

import cmath
import gc
import math
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest

from hhlax import kernels
from hhlax.algebra import LaurentPoly, Rational, VarId
from hhlax.kernels import NonFiniteState, SingularState, compile_diagnostics, compile_flows, compile_polys
from hhlax.model import hamiltonian_vector_field, hamiltonians, lax_matrices
from numeric_reference import (
    reference_autonomous_rhs,
    reference_diagnostics,
    reference_fields,
    reference_segment_rhs,
    substitute_numeric,
)

rng = random.Random(20240817)
x1, x2, p1, p2, t1, t2, lam, alpha = LaurentPoly.gens()


def interpret(polys, vals):
    """Reference evaluator: one (coefficient, exponents) row per term, in
    canonical order, each term a left-to-right chain of multiplications and
    divisions by the variables in VarId order."""
    out = []
    for poly in polys:
        acc = 0.0
        for mono, coeff in poly.sorted_terms():
            term = float(coeff)
            for value, exp in zip(vals, mono):
                for _ in range(abs(exp)):
                    term = term * value if exp > 0 else term / value
            acc += term
        out.append(acc)
    return tuple(out)


def _random_poly(n_terms: int) -> LaurentPoly:
    terms = {}
    for _ in range(n_terms):
        mono = tuple(rng.randint(-3, 3) for _ in range(8))
        terms[mono] = Rational(rng.randint(-20, 20), rng.randint(1, 7))
    return LaurentPoly(terms)


def _random_vals() -> list[float]:
    # Stay away from zero so negative powers are well defined.
    return [rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) for _ in range(8)]


def _bits(values) -> list[str]:
    # float.hex tells -0.0 from 0.0, which == does not.
    return [value.hex() for value in values]


def _negative_zeros(values) -> list[float]:
    return [value for value in values if value == 0.0 and math.copysign(1.0, value) < 0]


def _deformed_polys(alpha) -> list[LaurentPoly]:
    hams = hamiltonians(True)
    polys = [hams.h1, hams.h2, lax_matrices(True).L.det()]
    return [poly.substitute_rational(VarId.ALPHA, alpha) for poly in polys]


def test_zero_polynomial():
    evaluate = compile_polys([LaurentPoly.zero()])
    assert evaluate(*_random_vals()) == (0.0,)


def test_all_ones_point():
    evaluate = compile_polys([hamiltonians(False).h1])
    assert evaluate(*[1.0] * 8) == (3.5,)  # 1/2 + 1/2 + 1 + 1/2 + 1


@pytest.mark.parametrize(
    "polys",
    [
        pytest.param([_random_poly(5) for _ in range(6)], id="random"),
        # More terms than one generated statement holds.
        pytest.param([_random_poly(150)], id="long"),
        pytest.param(_deformed_polys(Rational(1, 20)), id="deformed-alpha"),
        pytest.param(
            [hamiltonians(True).h1, hamiltonians(True).h2, lax_matrices(True).L.det()],
            id="deformed-symbolic-alpha",
        ),
    ],
)
def test_generated_code_matches_interpreter_bit_for_bit(polys):
    evaluate = compile_polys(polys)
    for _ in range(100):
        vals = _random_vals()
        assert _bits(evaluate(*vals)) == _bits(interpret(polys, vals))


def test_a_sum_of_3000_terms_is_split_and_matches_the_interpreter_bit_for_bit():
    # CPython's bytecode compiler refuses a left-associated sum of 3000 terms
    # in one expression (RecursionError), so the sum is written 64 terms a
    # statement, each statement adding to the running value.
    local = random.Random(3000)
    terms = {}
    while len(terms) < 3000:
        mono = tuple(local.randint(-3, 3) for _ in range(8))
        terms[mono] = Rational(local.choice([-1, 1]) * local.randint(1, 20), local.randint(1, 7))
    poly = LaurentPoly(terms)
    assert len(poly) == 3000
    assert len(kernels._poly_source("r", poly, kernels._ARGUMENTS, None)) == math.ceil(3000 / kernels._TERMS_PER_LINE)
    evaluate = compile_polys([poly])
    for _ in range(20):
        vals = [local.choice([-1.0, 1.0]) * local.uniform(0.5, 2.0) for _ in range(8)]
        assert _bits(evaluate(*vals)) == _bits(interpret([poly], vals))


def test_matches_exact_substitution():
    polys = [hamiltonians(False).h1, hamiltonians(False).h2, lax_matrices(False).L.det()]
    polys += [hamiltonians(True).h1, hamiltonians(True).h2, lax_matrices(True).L.det()]
    evaluate = compile_polys(polys)
    for _ in range(50):
        vals = _random_vals()
        point = {VarId(i): vals[i] for i in range(8)}
        for poly, got in zip(polys, evaluate(*vals)):
            expected = substitute_numeric(poly, point)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_negative_power_of_zero_raises():
    evaluate = compile_polys(_deformed_polys(Rational(1, 20))[:1])
    with pytest.raises(ZeroDivisionError):
        evaluate(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.05)


@pytest.mark.parametrize("x2", [0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12])
def test_guard_refuses_the_singular_set(x2):
    evaluate = compile_polys(_deformed_polys(Rational(1, 20)))
    with pytest.raises(SingularState, match="x2"):
        evaluate(1.0, x2, 0.0, 0.0, 0.0, 0.0, 1.0, 0.05)


@pytest.mark.parametrize("x2", [2e-12, -2e-12])
def test_guard_lets_nearby_points_through(x2):
    polys = _deformed_polys(Rational(1, 20))
    vals = [1.0, x2, 0.0, 0.0, 0.0, 0.0, 1.0, 0.05]
    assert _bits(compile_polys(polys)(*vals)) == _bits(interpret(polys, vals))


def test_alpha_zero_table_has_no_guard():
    # Folding alpha = 0 drops every negative power, and the guard with them.
    polys = _deformed_polys(Rational(0))
    vals = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    assert _bits(compile_polys(polys)(*vals)) == _bits(interpret(polys, vals))


# -- the stepper right-hand sides --------------------------------------------

# The negative weights turn a zero field component into -0.0, which the
# leading 0.0 of each sum turns back into 0.0.  The DP45 stepper starts its
# sums at their first term, which is bit-for-bit the same only while no
# right-hand side returns -0.0, so the tests below also assert that.
SEGMENT_WEIGHTS = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.6, 0.8), (0.0, -1.0), (-0.6, -0.8)]


def _fields(deformed: bool) -> list[tuple[LaurentPoly, ...]]:
    """Y_1 and Y_2 of one model, alpha still a variable."""
    hams = hamiltonians(deformed)
    return [hamiltonian_vector_field(h).components for h in (hams.h1, hams.h2)]


def _flows(deformed: bool, alpha: float):
    return compile_flows(*_fields(deformed), alpha)


def _rhs_points(alpha: float) -> list[tuple[float, ...]]:
    """(s, x1, x2, p1, p2): random, plus signed zeros wherever the singular
    set allows them."""
    points = [(rng.uniform(0.0, 2.0), *_random_vals()[:4]) for _ in range(40)]
    x2 = 0.7 if alpha else -0.0
    points += [(0.0, 0.0, x2, -0.0, 0.0), (-0.0, -0.0, x2, 0.0, -0.0), (0.5, 1.0, x2, 0.0, -0.0)]
    return points


@pytest.mark.parametrize("alpha", [0.0, 0.05])
@pytest.mark.parametrize("k", [1, 2])
def test_autonomous_rhs_matches_the_field_kernel_bit_for_bit(k, alpha):
    flow = _flows(False, alpha)[k - 1]
    reference = reference_autonomous_rhs(reference_fields(False, alpha)[k - 1])
    for point in _rhs_points(alpha):
        rates = flow(*point)
        assert _bits(rates) == _bits(reference(*point))
        assert not _negative_zeros(rates)


@pytest.mark.parametrize("alpha", [0.0, 0.05])
@pytest.mark.parametrize("k", [1, 2])
def test_flow_at_a_time_matches_the_field_kernel_bit_for_bit(k, alpha):
    flow = _flows(True, alpha)[k - 1]
    field = reference_fields(True, alpha)[k - 1]
    for s, *y in _rhs_points(alpha):
        t1, t2 = rng.choice([rng.uniform(-1.0, 1.0), 0.0, -0.0]), rng.choice([rng.uniform(-1.0, 1.0), -0.0])
        rates = flow(s, *y, t1, t2)
        assert _bits(rates) == _bits(field(*y, t1, t2, 1.0, 0.0))
        assert not _negative_zeros(rates)


@pytest.mark.parametrize("w1, w2", SEGMENT_WEIGHTS)
@pytest.mark.parametrize("alpha", [0.0, 0.05])
@pytest.mark.parametrize("deformed", [False, True])
def test_segment_rhs_matches_the_field_kernels_bit_for_bit(deformed, alpha, w1, w2):
    segment = _flows(deformed, alpha)[2]
    fields = reference_fields(deformed, alpha)
    for start in [(0.0, 0.0), (-0.0, 0.0), (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))]:
        rhs = segment(*start, w1, w2)
        reference = reference_segment_rhs(*fields, *start, w1, w2)
        for point in _rhs_points(alpha):
            rates = rhs(*point)
            assert _bits(rates) == _bits(reference(*point))
            assert not _negative_zeros(rates)


@pytest.mark.parametrize("deformed", [False, True])
def test_stepper_rhs_refuse_the_singular_set(deformed):
    flow1, flow2, segment = _flows(deformed, 0.05)
    rhs_list = [flow1, flow2] + [segment(0.1, 0.2, w1, w2) for w1, w2 in SEGMENT_WEIGHTS]
    for rhs in rhs_list:
        for x2 in (0.0, -0.0, 1e-13):
            with pytest.raises(SingularState, match=f"x2 = {x2!r} is on the singular set"):
                rhs(0.3, 1.0, x2, 0.5, -0.5)


def test_stepper_fields_and_hamiltonians_must_not_depend_on_lambda():
    # Alpha is folded in by the compiler; lambda has no value in a stepper
    # field or in h1 and h2, so a field or an h1 with lambda in it is refused.
    field1, field2 = _fields(True)
    with pytest.raises(ValueError, match="a stepper field depends on x, t and alpha only, not on lambda"):
        compile_flows([field1[0] + lam, *field1[1:]], field2, 0.05)
    h1, h2, det = _diagnostics_polys(False)
    with pytest.raises(ValueError, match="h1 and h2 depend on x, t and alpha only, not on lambda"):
        compile_diagnostics(h1 + lam, h2, det, 0.0, (0.5,))


HUGE_ALPHA = "alpha = 1.7e+308 is too large for the float kernels"


@pytest.mark.parametrize("deformed", [False, True])
def test_an_alpha_whose_folded_coefficients_no_float_holds_is_refused(deformed):
    # 2 alpha, a coefficient of both fields, overflows a float; the literal
    # that would hold it refuses alpha.
    with pytest.raises(ValueError, match=re.escape(HUGE_ALPHA) + "$") as refused:
        compile_flows(*_fields(deformed), 1.7e308)
    assert isinstance(refused.value.__cause__, OverflowError)
    with pytest.raises(ValueError, match=re.escape(HUGE_ALPHA) + "$"):
        compile_diagnostics(*_diagnostics_polys(deformed), 1.7e308, DEFAULT_LAMBDAS)
    # alpha = 1e300 folds to coefficients a float holds.
    compile_flows(*_fields(deformed), 1e300)
    compile_diagnostics(*_diagnostics_polys(deformed), 1e300, DEFAULT_LAMBDAS)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="huge-int")])
def test_a_non_finite_alpha_is_refused(bad):
    shown = "an int of 1329 bits" if isinstance(bad, int) else repr(bad)
    message = re.escape(f"alpha must be finite, got {shown}") + "$"
    with pytest.raises(ValueError, match=message):
        compile_flows(*_fields(True), bad)
    with pytest.raises(ValueError, match=message):
        compile_diagnostics(*_diagnostics_polys(True), bad, DEFAULT_LAMBDAS)


# -- the diagnostics row ---------------------------------------------------

DEFAULT_LAMBDAS = (0.5, 1.0, 2.0)
MANY_LAMBDAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0)


def _diagnostics_polys(deformed: bool) -> list[LaurentPoly]:
    """h1, h2 and det L of one model, alpha still a variable."""
    hams = hamiltonians(deformed)
    return [hams.h1, hams.h2, lax_matrices(deformed).L.det()]


@pytest.mark.parametrize("lambdas", [(), DEFAULT_LAMBDAS, MANY_LAMBDAS], ids=["none", "default", "eight"])
@pytest.mark.parametrize("alpha", [0.0, 0.05, -0.3])
@pytest.mark.parametrize("deformed", [False, True])
def test_diagnostics_row_matches_separate_kernels_bit_for_bit(deformed, alpha, lambdas):
    polys = _diagnostics_polys(deformed)
    diag = compile_diagnostics(*polys, alpha, lambdas)
    reference = reference_diagnostics(*polys, alpha, lambdas)
    points = [
        (rng.uniform(0.0, 3.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), tuple(_random_vals()[:4]))
        for _ in range(40)
    ]
    if alpha == 0.0:
        points.append((0.0, 0.0, 0.0, (1.0, 0.0, 0.0, 0.0)))  # no singular set without alpha
    for s, t1, t2, y in points:
        row = diag(s, t1, t2, y)
        assert len(row) == 9 + 2 * len(lambdas)
        assert _bits(row) == _bits(reference(s, t1, t2, y))


@pytest.mark.parametrize("lambdas", [(), DEFAULT_LAMBDAS], ids=["none", "default"])
@pytest.mark.parametrize("x2", [0.0, 1e-13, -1e-13])
@pytest.mark.parametrize("deformed", [False, True])
def test_diagnostics_guard_refuses_the_singular_set(deformed, x2, lambdas):
    diag = compile_diagnostics(*_diagnostics_polys(deformed), 0.05, lambdas)
    with pytest.raises(SingularState, match=f"x2 = {x2!r} is on the singular set"):
        diag(0.0, 0.0, 0.0, (1.0, x2, 0.0, 0.0))


@pytest.mark.parametrize(
    "lambdas, y, message",
    [
        pytest.param(
            (), (1e200, 1.0, 0.0, 0.0), "h1 = inf, h2 = inf are not finite at s = 0.0", id="h-no-lambdas"
        ),
        pytest.param(
            DEFAULT_LAMBDAS, (1e200, 1.0, 0.0, 0.0), "h1 = inf, h2 = inf are not finite at s = 0.0", id="h"
        ),
        pytest.param(
            (1.0, 1e100),
            (1.0, 1.0, 0.0, 0.0),
            r"det L\(1e\+100\) = inf is not finite at state \(1.0, 1.0, 0.0, 0.0\)",
            id="det",
        ),
    ],
)
def test_diagnostics_not_finite(lambdas, y, message):
    diag = compile_diagnostics(*_diagnostics_polys(False), 0.0, lambdas)
    with pytest.raises(NonFiniteState, match=message):
        diag(0.0, 0.0, 0.0, y)


DBL_MIN = sys.float_info.min
EIGENVALUE_CELL_DETS = [
    0.0,
    5e-324,
    1e-310,
    DBL_MIN,
    math.nextafter(8 * DBL_MIN, 0.0),
    8 * DBL_MIN,
    math.nextafter(8 * DBL_MIN, math.inf),
    math.nextafter(1e-300, 0.0),
    1e-300,
    math.nextafter(1e-300, math.inf),
    1.0,
    1e300,
]


@pytest.mark.parametrize("d", [sign * d for d in EIGENVALUE_CELL_DETS for sign in (1.0, -1.0)], ids=repr)
def test_eigenvalue_cells_match_cmath_sqrt_bit_for_bit(d):
    # The cells of -d come from math.sqrt away from zero and from cmath.sqrt
    # on zeros and subnormals; both must give cmath.sqrt(complex(-d)).  The
    # leading 0.0 + of the det sum turns a -0.0 det into 0.0, whose cells
    # are the same.
    lambdas = (-1.5, 0.0, 0.5)
    zero = LaurentPoly.zero()
    diag = compile_diagnostics(zero, zero, LaurentPoly.constant(Fraction(d)), 0.0, lambdas)
    root = cmath.sqrt(complex(-d))
    row = diag(0.0, 0.0, 0.0, (1.0, 1.0, 0.0, 0.0))
    assert _bits(row[9:]) == _bits([root.real, root.imag] * len(lambdas))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, pytest.param(10**5000, id="huge-int")])
def test_diagnostics_refuse_a_non_finite_lambda(bad):
    # The samples become literals of the generated source, so a det L with a
    # negative power of lambda, whose guard would test a literal, is refused.
    # An int no float can hold is named by its bit length, not its digits.
    h1, h2, det = _diagnostics_polys(False)
    shown = "an int of 16610 bits" if isinstance(bad, int) else repr((0.5, bad))
    with pytest.raises(ValueError, match=re.escape(f"lambda samples must be finite, got {shown}") + "$"):
        compile_diagnostics(h1, h2, det, 0.0, (0.5, bad))
    with pytest.raises(ValueError, match="negative power of lambda"):
        compile_diagnostics(h1, h2, det + lam**-1, 0.0, (0.5,))


def test_generated_chains_drop_a_factor_of_one():
    # 1.0*x and x*1.0 are x exactly, so no chain starts with 1.0* and a
    # lambda sample 1.0 adds no factor; a bare 1.0 and a 1.0/x chain stay.
    source = kernels._poly_source("r", x1 * p2 + 1 + x2**-1 - 2 * x1, kernels._ARGUMENTS, None)
    assert source == ["    r = 0.0 + 1.0/x2 + 1.0 + -2.0*x1 + x1*p2"]
    shared, per_lambda = kernels._det_source(x1 * lam**2 - 2 * x1 * lam + lam**3 + 1, ["1.0", "0.5"], None)
    assert shared == ["    q0 = -2.0*x1", "    q1 = x1"]
    assert per_lambda == [
        ["    d0 = 0.0 + 1.0 + q0 + q1 + 1.0"],
        ["    d1 = 0.0 + 1.0 + q0*0.5 + q1*0.5*0.5 + 0.5*0.5*0.5"],
    ]


def test_dropped_kernels_are_freed_without_a_cyclic_collection():
    # A generated function kept in its own globals would form a reference
    # cycle and outlive its last reference until a full collection.
    gc.disable()
    try:
        diag = compile_diagnostics(*_diagnostics_polys(True), 0.05, DEFAULT_LAMBDAS)
        evaluate = compile_polys(_deformed_polys(Fraction(1, 20)))
        flows = _flows(True, 0.05)
        refs = [weakref.ref(diag), weakref.ref(evaluate), *map(weakref.ref, flows)]
        del diag, evaluate, flows
        assert [ref() for ref in refs] == [None] * 5
    finally:
        gc.enable()
