"""Model objects: potentials, Hamiltonians, vector fields, Lax matrices."""

import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hhlax import model
from hhlax.algebra import DivisionByZero, LaurentPoly, N_VARS, PolyMatrix2, Rational, VarId, poisson_bracket
from hhlax.model import (
    HamiltonianSet,
    VectorField4,
    deformation_coefficients,
    derivative_along,
    hamiltonian_vector_field,
    hamiltonians,
    lax_matrices,
    lie_bracket,
    potential,
    recursion_matrix,
    recursion_matrix_inverse,
    spectral_curve,
)
from hhlax.verify import check_zero_curvature, run_checks

x1, x2, p1, p2, t1, t2, lam, alpha = LaurentPoly.gens()
HALF = Rational(1, 2)
QUARTER = Rational(1, 4)


class TestPotentialRecursion:
    def test_base_vector(self):
        pair = potential(0)
        assert pair.v1.is_zero
        assert pair.v2 == LaurentPoly.one()

    def test_small_positive_rungs(self):
        assert potential(1).v1 == LaurentPoly.one()
        assert potential(1).v2.is_zero
        assert potential(2).v1 == x1
        assert potential(2).v2 == QUARTER * x2**2
        assert potential(3).v1 == x1**2 + QUARTER * x2**2
        assert potential(3).v2 == QUARTER * x1 * x2**2

    def test_rung_four_is_the_model_potential(self):
        pair = potential(4)
        assert pair.v1 == x1**3 + HALF * x1 * x2**2
        assert pair.v2 == Rational(1, 16) * x2**4 + QUARTER * x1**2 * x2**2

    def test_inverse_rung_oracle(self):
        # Oracle: apply adj(R)/det(R) once by hand.  adj swaps the diagonal
        # and negates the off-diagonal; det R = -x2^2/4.
        step = recursion_matrix()
        adjugate_applied = (
            step.e22 * LaurentPoly.zero() + (-step.e12) * LaurentPoly.one(),
            (-step.e21) * LaurentPoly.zero() + step.e11 * LaurentPoly.one(),
        )
        determinant = step.det()
        expected = tuple(entry / determinant for entry in adjugate_applied)
        pair = potential(-1)
        assert (pair.v1, pair.v2) == expected
        assert pair.v1 == 4 * x2**-2
        assert pair.v2 == -4 * x1 * x2**-2

    @pytest.mark.parametrize("k", range(-4, 9))
    def test_two_term_recursion(self, k):
        lower, upper = potential(k), potential(k + 1)
        assert upper.v1 == x1 * lower.v1 + lower.v2
        assert upper.v2 == QUARTER * x2**2 * lower.v1

    @pytest.mark.parametrize("k", range(-4, 9))
    def test_inverse_step_undoes_forward_step(self, k):
        upper = potential(k + 1)
        recovered = recursion_matrix_inverse().apply((upper.v1, upper.v2))
        assert recovered == (potential(k).v1, potential(k).v2)

    @pytest.mark.parametrize("k", range(-4, 9))
    def test_potentials_depend_only_on_positions(self, k):
        pair = potential(k)
        for component in (pair.v1, pair.v2):
            for var in (VarId.P1, VarId.P2, VarId.T1, VarId.T2, VarId.LAMBDA, VarId.ALPHA):
                assert not component.depends_on(var)

    @pytest.mark.parametrize("k", [600, -600])
    def test_deep_rung_walks_without_recursion(self, k, monkeypatch):
        # Fresh lists holding rung 0 only: potential(k) then walks all |k|
        # steps, deeper than the default recursion limit would allow one
        # call frame per rung, and stores only the rungs |k| <= 64 on the
        # way, on k's side.  The lists are restored after the test.
        base = model._rungs[0][0]
        monkeypatch.setattr(model, "_rungs", ([base], [base]))
        assert sys.getrecursionlimit() <= 1000
        pair = potential(k)
        walked, other = model._rungs if k > 0 else model._rungs[::-1]
        assert (len(walked), other) == (65, [base])
        step = recursion_matrix() if k > 0 else recursion_matrix_inverse()
        rung = base
        for stored in walked[1:]:
            rung = step.apply(rung)
            assert stored == rung
        inward = potential(k - 1 if k > 0 else k + 1)
        assert step.apply((inward.v1, inward.v2)) == (pair.v1, pair.v2)

    @pytest.mark.parametrize("k", [2.0, True])
    def test_an_integral_index_that_is_no_int_is_refused(self, k):
        # 2.0 == 2 and True == 1, yet only an int names a rung.
        with pytest.raises(TypeError, match="rung index must be an int"):
            potential(k)

    @pytest.mark.parametrize("k", ["1.5", "-0.5", "nan", "inf"])
    def test_a_non_integral_index_is_refused_at_once(self, k, child_python):
        # A walk towards a k that is no integer never arrives, so the call
        # runs in a child that is killed, failing the test, after 10 s.
        code = (
            "from hhlax.model import potential\n"
            f"try:\n    potential(float({k!r}))\nexcept TypeError as error:\n    print(error)\n"
        )
        assert child_python(code, timeout=10) == f"rung index must be an int, got {float(k)!r}\n"

    def test_rungs_are_stored_once_on_each_side(self):
        for k in range(-64, 65):
            assert potential(k).v1 is potential(k).v1
        assert [len(side) for side in model._rungs] == [65, 65]
        assert potential(65).v1 is not potential(65).v1

    def test_deep_rungs_leave_peak_memory_flat(self, child_peak_rss_kb):
        # Walking to +-600 in a fresh process stores none of the deep rungs:
        # the import alone peaks near 16 MB, and storing every rung on the
        # way peaked at 130 MB.
        code = "from hhlax.model import potential\npotential(600)\npotential(-600)"
        assert child_peak_rss_kb(code) < 20 * 1024  # kB

    def test_every_rung_is_in_involution(self):
        # (g1 + V1(k), g2 + V2(k)) commute for every rung, with and without
        # the alpha terms of the model pair.
        g1 = HALF * (p1**2 + p2**2)
        g2 = HALF * (x2 * p1 * p2 - x1 * p2**2)
        for k in range(-64, 65):
            pair = potential(k)
            for a in (0, 1):
                h1 = g1 + pair.v1 + a * alpha / x2**2
                h2 = g2 + pair.v2 - a * alpha * x1 / x2**2
                assert poisson_bracket(h1, h2).is_zero, (k, a)

    def test_inverse_matrix_is_exact(self):
        product = recursion_matrix() @ recursion_matrix_inverse()
        assert product == type(product).identity()

    def test_recursion_matrices_are_built_once(self):
        assert recursion_matrix() is recursion_matrix()
        assert recursion_matrix_inverse() is recursion_matrix_inverse()
        assert str(recursion_matrix()) == "[[x1, 1], [1/4*x2^2, 0]]"
        assert str(recursion_matrix_inverse()) == "[[0, 4*x2^-2], [1, -4*x1*x2^-2]]"


def test_shared_matrices_are_read_only():
    # lax_matrices and the recursion matrices are shared by every caller, so
    # an assignment to one entry would change every later check and rung.
    before = (run_checks(), potential(70))
    shared = [recursion_matrix(), recursion_matrix_inverse()]
    shared += [getattr(lax_matrices(deformed), name) for deformed in (False, True) for name in ("L", "U1", "U2")]
    for matrix in shared:
        entries = matrix.entries()
        with pytest.raises(AttributeError, match="cannot assign to field 'e11'"):
            matrix.e11 = matrix.e11 + 1
        with pytest.raises(AttributeError, match="cannot delete field 'e22'"):
            del matrix.e22
        assert matrix.entries() == entries
    assert (run_checks(), potential(70)) == before


class TestHamiltonians:
    def test_h2_contains_momentum_cross_term(self):
        h2 = hamiltonians(False).h2
        mono = tuple(
            {VarId.X2: 1, VarId.P1: 1, VarId.P2: 1}.get(VarId(i), 0) for i in range(N_VARS)
        )
        assert dict(h2.items())[mono] == HALF

    def test_kinetic_part_plus_potentials(self):
        hams = hamiltonians(False)
        kinetic = HALF * p1**2 + HALF * p2**2
        assert hams.h1 - kinetic == potential(4).v1 + QUARTER * alpha * potential(-1).v1

    def test_autonomous_pair_has_no_time_dependence(self):
        hams = hamiltonians(False)
        for h in (hams.h1, hams.h2):
            assert not h.depends_on(VarId.T1)
            assert not h.depends_on(VarId.T2)

    def test_deformed_restricts_to_autonomous_at_origin(self):
        plain = hamiltonians(False)
        deformed = hamiltonians(True)
        at_origin = lambda f: f.substitute_rational(VarId.T1, 0).substitute_rational(VarId.T2, 0)
        assert at_origin(deformed.h1) == plain.h1
        assert at_origin(deformed.h2) == plain.h2 - p1

    def test_deformation_terms(self):
        plain, deformed = hamiltonians(False), hamiltonians(True)
        c2, c3 = deformation_coefficients()
        assert c3 == 3 * t2
        assert c2 == t1 + 3 * t2**2
        assert deformed.h1 - plain.h1 == 3 * t2 * (x1**2 + QUARTER * x2**2) + c2 * x1
        assert deformed.h2 - plain.h2 == -p1 + 3 * t2 * QUARTER * x1 * x2**2 + c2 * QUARTER * x2**2


class TestVectorFields:
    def test_field_of_h1(self):
        field = hamiltonian_vector_field(hamiltonians(False).h1)
        assert field.components[0] == p1
        assert field.components[1] == p2
        assert field.components[2] == -3 * x1**2 - HALF * x2**2
        assert field.components[3] == -x1 * x2 + 2 * alpha * x2**-3

    def test_field_of_h2(self):
        field = hamiltonian_vector_field(hamiltonians(False).h2)
        assert field.components[0] == HALF * x2 * p2
        assert field.components[1] == HALF * x2 * p1 - x1 * p2
        assert field.components[2] == HALF * p2**2 - HALF * x1 * x2**2 + alpha * x2**-2
        assert field.components[3] == (
            -HALF * p1 * p2 - QUARTER * x2**3 - HALF * x1**2 * x2 - 2 * alpha * x1 * x2**-3
        )

    def test_constant_hamiltonian_gives_zero_field(self):
        assert hamiltonian_vector_field(LaurentPoly.constant(3)).is_zero

    def test_deformed_t2_flow_has_killing_shift(self):
        field = hamiltonian_vector_field(hamiltonians(True).h2)
        assert field.components[0] == HALF * x2 * p2 - 1

    def test_deformed_t1_flow(self):
        c2, _ = deformation_coefficients()
        field = hamiltonian_vector_field(hamiltonians(True).h1)
        assert field.components[0] == p1
        assert field.components[1] == p2
        assert field.components[2] == -3 * x1**2 - HALF * x2**2 - 6 * t2 * x1 - c2
        assert field.components[3] == -x1 * x2 - Rational(3, 2) * t2 * x2 + 2 * alpha * x2**-3

    def test_linearity(self):
        f, g = hamiltonians(False).h1, hamiltonians(True).h2
        combined = hamiltonian_vector_field(3 * f + g)
        split = VectorField4(
            tuple(
                3 * a + b
                for a, b in zip(
                    hamiltonian_vector_field(f).components,
                    hamiltonian_vector_field(g).components,
                )
            )
        )
        assert combined == split

    def test_fields_are_built_once_per_set(self):
        hams = hamiltonians(True)
        assert hams.fields is hamiltonians(True).fields
        assert hams.fields == (hamiltonian_vector_field(hams.h1), hamiltonian_vector_field(hams.h2))

    def test_fields_are_freed_with_their_set(self):
        # The fields of a set built from a corrupted h1 live on that set
        # alone: once the set is dropped, nothing holds them.
        genuine = hamiltonians(True)
        corrupted = HamiltonianSet(genuine.h1 + Rational(1, 10) * x1**3, genuine.h2, True)
        assert not check_zero_curvature(corrupted).passed
        field = weakref.ref(corrupted.fields[0])
        del corrupted
        assert field() is None

    def test_warm_checks_miss_no_derivative_memo(self, monkeypatch):
        # Every polynomial a warm run differentiates was differentiated by
        # the same variable before, the negated field components included.
        run_checks()
        misses = []
        diff = LaurentPoly.diff

        def counting(self, var):
            if var not in (self._diffs or {}):
                misses.append((self, var))
            return diff(self, var)

        monkeypatch.setattr(LaurentPoly, "diff", counting)
        run_checks()
        assert misses == []


class TestLaxMatrices:
    def test_upper_right_entry(self):
        triple = lax_matrices(False)
        assert triple.L.e12 == lam**2 - x1 * lam - QUARTER * x2**2

    def test_deformed_reduces_to_autonomous_at_origin(self):
        plain, deformed = lax_matrices(False), lax_matrices(True)
        at_origin = lambda f: f.substitute_rational(VarId.T1, 0).substitute_rational(VarId.T2, 0)
        for a, b in zip(plain.L.entries(), deformed.L.map(at_origin).entries()):
            assert a == b
        for a, b in zip(plain.U1.entries(), deformed.U1.map(at_origin).entries()):
            assert a == b
        for a, b in zip(plain.U2.entries(), deformed.U2.map(at_origin).entries()):
            assert a == b

    def test_deformed_lower_left_linear_coefficient(self):
        coefficient = lax_matrices(True).L.e21.coefficients_in(VarId.LAMBDA)[1]
        assert coefficient == -(
            2 * x1**2 + HALF * x2**2 + 6 * x1 * t2 + 6 * t2**2 + 2 * t1
        )

    def test_deformed_u1_lower_left(self):
        assert lax_matrices(True).U1.e21 == -lam - 2 * x1 - 3 * t2

    def test_lambda_degree_bound(self):
        for deformed in (False, True):
            for entry in lax_matrices(deformed).L.entries():
                assert entry.degree_range(VarId.LAMBDA)[1] <= 3

    def test_flow_matrix_selector(self):
        triple = lax_matrices(False)
        assert triple.flow_matrix(1) is triple.U1
        assert triple.flow_matrix(2) is triple.U2
        with pytest.raises(ValueError):
            triple.flow_matrix(3)


class TestOneCurve:
    """The model is derived from its spectral curve; the forms written out
    here by hand are the independent references the derivation must meet."""

    @staticmethod
    def _coefficients(deformed: bool):
        # (c2, c3, kappa): deformation coefficients and Killing term.
        return (t1 + 3 * t2**2, 3 * t2, p1) if deformed else (0, 0, 0)

    @staticmethod
    def _pair(curve: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
        # (H1, H2 + kappa) = (-[lambda^2]/2, -[lambda^1]/2).
        coefficients = curve.coefficients_in(VarId.LAMBDA)
        return -HALF * coefficients[2], -HALF * coefficients[1]

    @classmethod
    def _hand_pair(cls, deformed: bool) -> tuple[LaurentPoly, LaurentPoly]:
        # (H1, H2): the kinetic parts plus the potential rungs, alpha terms,
        # deformation terms and Killing shift.
        c2, c3, kappa = cls._coefficients(deformed)
        g1 = HALF * p1**2 + HALF * p2**2
        g2 = HALF * x2 * p1 * p2 - HALF * x1 * p2**2
        quartic, cubic, quadratic = potential(4), potential(3), potential(2)
        h1 = g1 + quartic.v1 + alpha / x2**2 + c3 * cubic.v1 + c2 * quadratic.v1
        h2 = g2 + quartic.v2 - alpha * x1 / x2**2 - kappa + c3 * cubic.v2 + c2 * quadratic.v2
        return h1, h2

    @classmethod
    def _hand_curve(cls, deformed: bool) -> LaurentPoly:
        # 2 lam^5 + 2 c3 lam^4 + 2 c2 lam^3 - 2 H1 lam^2 - 2 (H2 + kappa) lam
        # + alpha/2, from the hand-written pair.
        c2, c3, kappa = cls._coefficients(deformed)
        h1, h2 = cls._hand_pair(deformed)
        return (
            2 * lam**5 + 2 * c3 * lam**4 + 2 * c2 * lam**3
            - 2 * h1 * lam**2 - 2 * (h2 + kappa) * lam + HALF * alpha
        )

    @classmethod
    def _hand_l(cls, deformed: bool) -> PolyMatrix2:
        # L = [[A, B], [C, -A]] with every entry written out.
        c2, c3, _ = cls._coefficients(deformed)
        diagonal = p1 * lam + HALF * x2 * p2
        upper = lam**2 - x1 * lam - QUARTER * x2**2
        lower = (
            -2 * lam**3
            - 2 * (x1 + c3) * lam**2
            - (2 * x1**2 + HALF * x2**2 + 2 * c3 * x1 + 2 * c2) * lam
            + p2**2
            + 2 * alpha / x2**2
        )
        return PolyMatrix2(diagonal, upper, lower, -diagonal)

    @pytest.mark.parametrize("deformed", [False, True])
    def test_hamiltonians_are_the_potential_sums(self, deformed):
        hams = hamiltonians(deformed)
        assert (hams.h1, hams.h2) == self._hand_pair(deformed)

    @pytest.mark.parametrize("deformed", [False, True])
    def test_lax_triple_is_the_transcribed_one(self, deformed):
        c2, c3, _ = self._coefficients(deformed)
        u1 = PolyMatrix2(0, HALF, -lam - 2 * x1 - c3, 0)
        u2 = PolyMatrix2(
            HALF * p1,
            HALF * lam - HALF * x1,
            -(lam**2) - (x1 + c3) * lam - x1**2 - HALF * x2**2 - c3 * x1 - c2,
            -HALF * p1,
        )
        triple = lax_matrices(deformed)
        assert triple.L == self._hand_l(deformed)
        assert (triple.U1, triple.U2) == (u1, u2)

    @pytest.mark.parametrize("deformed", [False, True])
    def test_det_l_is_the_curve(self, deformed):
        # Both sides are written by hand: det of the transcribed L against
        # the curve of the hand-written pair.  Control: one extra term
        # x1 lambda^2 on the curve is seen.
        det = self._hand_l(deformed).det()
        assert det == self._hand_curve(deformed)
        assert det != self._hand_curve(deformed) + x1 * lam**2

    @pytest.mark.parametrize("deformed", [False, True])
    def test_curve_coefficients(self, deformed):
        assert spectral_curve(deformed) == self._hand_curve(deformed)

    @pytest.mark.parametrize("deformed", [False, True])
    def test_model_objects_are_built_once(self, deformed):
        assert spectral_curve(deformed) is spectral_curve(deformed)
        assert hamiltonians(deformed) is hamiltonians(deformed)
        assert lax_matrices(deformed) is lax_matrices(deformed)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_curve_of_top_power_k_plus_1_gives_rung_k(self, k):
        # The same division turns 2 lam^(k+1) + alpha/2 into g + V(k) with
        # the alpha terms, a pair in involution.
        h1, h2 = self._pair(model._lax(2 * lam ** (k + 1) + HALF * alpha).det())
        pair = potential(k)
        assert h1 == HALF * (p1**2 + p2**2) + pair.v1 + alpha / x2**2
        assert h2 == HALF * (x2 * p1 * p2 - x1 * p2**2) + pair.v2 - alpha * x1 / x2**2
        assert poisson_bracket(h1, h2).is_zero

    def test_wrong_diagonal_breaks_involution(self, monkeypatch):
        # Negative control: A = p1 lam + x2 p2 in place of p1 lam + x2 p2/2.
        monkeypatch.setattr(model, "_A", p1 * lam + x2 * p2)
        h1, h2 = self._pair(model._lax(2 * lam**5 + HALF * alpha).det())
        assert not poisson_bracket(h1, h2).is_zero


def _at(entry: LaurentPoly, at_mu: bool = False) -> dict:
    """entry(lambda), or entry(mu), as {(i, j): coefficient of lambda^i mu^j}."""
    return {((0, n) if at_mu else (n, 0)): c for n, c in entry.coefficients_in(VarId.LAMBDA).items()}


def _shift(array: dict, i: int, j: int, scale=1) -> dict:
    """scale * lambda^i mu^j * array."""
    return {(a + i, b + j): scale * c for (a, b), c in array.items()}


def _add(*arrays: dict) -> dict:
    """The sum of coefficient arrays, zero coefficients dropped."""
    total = {}
    for array in arrays:
        for key, c in array.items():
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if not c.is_zero}


def _times_gap(array: dict) -> dict:
    """(lambda - mu) * array."""
    return _add(_shift(array, 1, 0), _shift(array, 0, 1, -1))


class TestRMatrix:
    """L = [[A, B], [C, -A]] obeys a linear r-matrix algebra: every bracket
    {X(lambda), Y(mu)} of its entries, times (lambda - mu), is a polynomial
    in lambda and mu written through A, B and C alone.  Compared exactly as
    coefficient arrays over (lambda, mu)."""

    @staticmethod
    def _broken(big_l: PolyMatrix2) -> set[str]:
        """The brackets of L's entries that miss their r-matrix form."""
        a, b, c = big_l.e11, big_l.e12, big_l.e21

        def bracket(f, g):
            # (lambda - mu) {f(lambda), g(mu)}.
            return _times_gap(_add({
                (i, j): poisson_bracket(fi, gj)
                for i, fi in f.coefficients_in(VarId.LAMBDA).items()
                for j, gj in g.coefficients_in(VarId.LAMBDA).items()
            }))

        def swap(entry):
            # mu entry(lambda) - lambda entry(mu).
            return _add(_shift(_at(entry), 0, 1), _shift(_at(entry, True), 1, 0, -1))

        expected = {
            "A,A": ((a, a), {}),
            "B,B": ((b, b), {}),
            "A,B": ((a, b), swap(b)),
            "A,C": ((a, c), _add(_shift(swap(c), 0, 0, -1), _times_gap(_shift(_at(b), 0, 1, -2)))),
            "B,C": ((b, c), _shift(swap(a), 0, 0, 2)),
            "C,C": ((c, c), _times_gap(_shift(swap(a), 0, 0, 4))),
        }
        return {name for name, (pair, value) in expected.items() if bracket(*pair) != value}

    @pytest.mark.parametrize("deformed", [False, True])
    def test_derived_l_obeys_the_r_matrix_algebra(self, deformed):
        assert self._broken(lax_matrices(deformed).L) == set()

    @pytest.mark.parametrize("deformed", [False, True])
    @pytest.mark.parametrize(
        "extra, broken",
        [(x1 * lam, {"A,C"}), (p1 * lam, {"B,C", "C,C"})],
        ids=["x1-lambda", "p1-lambda"],
    )
    def test_corrupted_lower_entry_breaks_its_brackets(self, deformed, extra, broken):
        # Negative controls: B has no momenta, so C + x1 lambda still
        # brackets with B as before and breaks only {A, C}.
        big_l = lax_matrices(deformed).L
        corrupted = PolyMatrix2(big_l.e11, big_l.e12, big_l.e21 + extra, big_l.e22)
        assert self._broken(corrupted) == broken


def _model_object_lines():
    """One `name = str(object)` line per model object, autonomous then deformed."""
    for deformed in (False, True):
        tag = "deformed" if deformed else "autonomous"
        hams, triple = hamiltonians(deformed), lax_matrices(deformed)
        objects = [("h1", hams.h1), ("h2", hams.h2)]
        for name in ("L", "U1", "U2"):
            matrix = getattr(triple, name)
            for position, entry in zip(("11", "12", "21", "22"), matrix.entries()):
                objects.append((f"{name}.e{position}", entry))
        objects.append(("det L", triple.L.det()))
        for k, h in ((1, hams.h1), (2, hams.h2)):
            for i, component in enumerate(hamiltonian_vector_field(h).components):
                objects.append((f"Y{k}[{i}]", component))
        for name, value in objects:
            yield f"{tag} {name} = {value}\n"


def test_model_objects_golden(golden_dir):
    # Every Hamiltonian, Lax entry, det L and field component, as rendered.
    assert "".join(_model_object_lines()) == (golden_dir / "model_objects.txt").read_text()


def _along(field: VectorField4, time: VarId, f: LaurentPoly) -> LaurentPoly:
    """Total derivative of f along `field`, with the explicit time derivative."""
    return derivative_along(f, field) + f.diff(time)


class TestKdVFlow:
    """Along Y_1, u = x1 is a stationary flow of the fifth-order KdV
    equation; for the deformed pair u = x1 + t2 solves its deformation.
    K5, K3 and both identities are written out here by hand."""

    @staticmethod
    def _operators(h1: LaurentPoly, u: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
        # (K5[u], K3[u]) with ' the total t1-derivative along the field of h1.
        field = hamiltonian_vector_field(h1)
        d1 = _along(field, VarId.T1, u)
        d2 = _along(field, VarId.T1, d1)
        d3 = _along(field, VarId.T1, d2)
        d4 = _along(field, VarId.T1, d3)
        return d4 + 10 * u * d2 + 5 * d1**2 + 10 * u**3, d2 + 3 * u**2

    def test_autonomous_stationary_kdv5(self):
        h1 = hamiltonians(False).h1
        k5, _ = self._operators(h1, x1)
        assert (k5 + 2 * h1).is_zero

    def test_deformed_stationary_kdv5(self):
        h1 = hamiltonians(True).h1
        u = x1 + t2
        k5, k3 = self._operators(h1, u)
        residual = k5 + 2 * t2 * k3 + 2 * t1 * u + 2 * h1 + 4 * t1 * t2 + 2 * t2**3
        assert residual.is_zero

    def test_wrong_cubic_coefficient_is_caught(self):
        h1 = hamiltonians(False).h1 + x1**3 / 10
        k5, _ = self._operators(h1, x1)
        assert not (k5 + 2 * h1).is_zero


class TestPainleveReduction:
    """At alpha = 0 the plane x2 = p2 = 0 is invariant under both deformed
    flows, and on it y = x1 + t2 solves y'' = -3y^2 - t1 (Painleve I)."""

    @staticmethod
    def _on_plane(field: VectorField4) -> VectorField4:
        # alpha first: the alpha terms carry x2 to negative powers.
        return VectorField4(
            tuple(
                component.substitute_rational(VarId.ALPHA, 0)
                .substitute_rational(VarId.X2, 0)
                .substitute_rational(VarId.P2, 0)
                for component in field.components
            )
        )

    def test_alpha_terms_are_singular_on_the_plane(self):
        field = hamiltonian_vector_field(hamiltonians(True).h1)
        with pytest.raises(DivisionByZero):
            field.components[3].substitute_rational(VarId.X2, 0)

    def test_reduced_flows_are_painleve_i(self):
        hams = hamiltonians(True)
        y1 = self._on_plane(hamiltonian_vector_field(hams.h1))
        y2 = self._on_plane(hamiltonian_vector_field(hams.h2))
        y = x1 + t2
        assert y1.components == (p1, 0, -t1 - 3 * y**2, 0)
        assert y2.components == (-1, 0, 0, 0)
        assert _along(y2, VarId.T2, y).is_zero
        assert _along(y1, VarId.T1, _along(y1, VarId.T1, y)) == -3 * y**2 - t1


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        field = hamiltonian_vector_field(hamiltonians(False).h1)
        assert lie_bracket(field, field).is_zero

    def test_autonomous_flows_commute(self):
        hams = hamiltonians(False)
        field1 = hamiltonian_vector_field(hams.h1)
        field2 = hamiltonian_vector_field(hams.h2)
        assert lie_bracket(field1, field2).is_zero

    def test_sign_convention_against_bracket_oracle(self):
        # Both sides computed independently: the field of the Poisson
        # bracket versus the Lie bracket of the fields.
        hams = hamiltonians(True)
        field1 = hamiltonian_vector_field(hams.h1)
        field2 = hamiltonian_vector_field(hams.h2)
        lhs = hamiltonian_vector_field(poisson_bracket(hams.h1, hams.h2))
        assert lhs.components == tuple(-c for c in lie_bracket(field1, field2).components)


_coefficients = st.builds(
    Rational, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=3)
)
_phase_monomials = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-1, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
).map(lambda m: m + (0, 0, 0, 0))
_phase_polys = st.dictionaries(_phase_monomials, _coefficients, max_size=2).map(LaurentPoly)
_fields = st.tuples(_phase_polys, _phase_polys, _phase_polys, _phase_polys).map(VectorField4)


@settings(max_examples=25)
@given(_fields, _fields)
def test_lie_bracket_antisymmetry(a, b):
    assert lie_bracket(a, b).components == tuple(-c for c in lie_bracket(b, a).components)


@settings(max_examples=15, deadline=None)
@given(_fields, _fields, _fields)
def test_lie_bracket_jacobi(a, b, c):
    total = (
        lie_bracket(lie_bracket(a, b), c)
        + lie_bracket(lie_bracket(b, c), a)
        + lie_bracket(lie_bracket(c, a), b)
    )
    assert total.is_zero


@settings(max_examples=40)
@given(_phase_polys, _phase_polys)
def test_derivative_along_hamiltonian_field_is_poisson_bracket(f, h):
    # d/dt f along the flow of h is {f, h}, computed independently.
    assert derivative_along(f, hamiltonian_vector_field(h)) == poisson_bracket(f, h)


# Laurent polynomials in every variable: t and alpha terms included.
_any_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=-2, max_value=2)] * N_VARS), _coefficients, max_size=4
).map(LaurentPoly)


@settings(max_examples=40)
@given(_any_polys)
def test_hamiltonian_field_is_the_symplectic_gradient(h):
    # The field written out by hand, without the Poisson bracket.
    expected = (h.diff(VarId.P1), h.diff(VarId.P2), -h.diff(VarId.X1), -h.diff(VarId.X2))
    assert hamiltonian_vector_field(h).components == expected
