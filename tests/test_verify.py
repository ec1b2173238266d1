"""Exact identity checks: every check passes on the genuine model and fails
on a corrupted one (the negative controls guard against vacuous passes)."""

import pytest

from hhlax.algebra import LaurentPoly, PolyMatrix2, Rational, VarId, mat_commutator, poisson_bracket
from hhlax.model import (
    HamiltonianSet,
    LaxTriple,
    derivative_along,
    hamiltonian_vector_field,
    hamiltonians,
    lax_matrices,
    potential,
    spectral_curve,
)
from hhlax.verify import (
    CHECKS,
    check_frobenius,
    check_involution,
    check_isomonodromic_lax,
    check_isospectral_lax,
    check_sign_convention,
    check_zero_curvature,
    run_checks,
    _lax_defect,
)

x1, x2, p1, p2, t1, t2, lam, alpha = LaurentPoly.gens()
HALF = Rational(1, 2)

PHASE_AND_SPECTRAL = (VarId.X1, VarId.X2, VarId.P1, VarId.P2, VarId.LAMBDA, VarId.ALPHA)


def _with_potential_deformation(base1, base2, c3, c2) -> HamiltonianSet:
    """Deformed pair with injectable coefficient functions."""
    v3, v2 = potential(3), potential(2)
    return HamiltonianSet(
        base1 + c3 * v3.v1 + c2 * v2.v1,
        base2 - p1 + c3 * v3.v2 + c2 * v2.v2,
        True,
    )


class TestInvolution:
    def test_passes_on_model(self):
        report = check_involution()
        assert report.passed
        assert report.residual.is_zero

    def test_pair_with_itself(self):
        h1 = hamiltonians(False).h1
        report = check_involution(HamiltonianSet(h1, h1, False))
        assert report.passed

    def test_perturbed_pair_fails(self):
        hams = hamiltonians(False)
        report = check_involution(HamiltonianSet(hams.h1, hams.h2 + x1, False))
        assert not report.passed
        # oracle: {h1, x1} = -dh1/dp1 = -p1
        assert report.residual == -p1


class TestFrobenius:
    def test_passes_with_expected_residual(self):
        report = check_frobenius()
        assert report.passed
        assert report.residual == -t1 - 3 * t2**2
        assert report.expected == -t1 - 3 * t2**2

    def test_residual_is_a_function_of_times_only(self):
        residual = check_frobenius().residual
        for mono, _ in residual.items():
            for var in PHASE_AND_SPECTRAL:
                assert mono[var] == 0

    def test_autonomous_pair_reduces_to_involution(self):
        report = check_frobenius(hamiltonians(False))
        assert report.residual.is_zero
        assert not report.passed  # residual 0 != -c2

    def test_wrong_c3_fails_with_phase_dependence(self):
        plain = hamiltonians(False)
        corrupted = _with_potential_deformation(plain.h1, plain.h2, t2, t1 + 3 * t2**2)
        report = check_frobenius(corrupted)
        assert not report.passed
        assert any(
            mono[var] != 0
            for mono, _ in report.residual.items()
            for var in (VarId.X1, VarId.X2, VarId.P1, VarId.P2)
        )


class TestDeformationCoefficients:
    """c2 = t1 + 3 t2^2 and c3 = 3 t2 are unique up to t -> t + const."""

    def test_formula_reproduces_the_deformed_pair(self):
        plain, deformed = hamiltonians(False), hamiltonians(True)
        rebuilt = _with_potential_deformation(plain.h1, plain.h2, 3 * t2, t1 + 3 * t2**2)
        assert (rebuilt.h1, rebuilt.h2) == (deformed.h1, deformed.h2)

    def test_shifted_times_pass_both_checks(self):
        # c2 and c3 at t1 -> t1 + 4, t2 -> t2 + 1
        c2, c3 = 7 + t1 + 6 * t2 + 3 * t2**2, 3 + 3 * t2
        plain = hamiltonians(False)
        shifted = _with_potential_deformation(plain.h1, plain.h2, c3, c2)
        assert check_frobenius(shifted).residual == -c2
        assert check_zero_curvature(shifted).passed

    def test_other_c2_fails_with_phase_dependence(self):
        c2, c3 = 7 + t1 + 6 * t2 + 3 * t2**2 + t2, 3 + 3 * t2
        plain = hamiltonians(False)
        corrupted = _with_potential_deformation(plain.h1, plain.h2, c3, c2)
        residual = check_frobenius(corrupted).residual
        assert any(residual.depends_on(var) for var in (VarId.X1, VarId.X2, VarId.P1, VarId.P2))
        assert not check_zero_curvature(corrupted).passed


class TestZeroCurvature:
    def test_passes_on_model(self):
        report = check_zero_curvature()
        assert report.passed
        assert report.residual.is_zero

    def test_autonomous_pair_passes(self):
        assert check_zero_curvature(hamiltonians(False)).passed

    def test_omitting_killing_term_fails(self):
        deformed = hamiltonians(True)
        corrupted = HamiltonianSet(deformed.h1, deformed.h2 + p1, True)
        report = check_zero_curvature(corrupted)
        assert not report.passed
        assert not report.residual.is_zero


class TestIsospectralLax:
    @pytest.mark.parametrize("k", [1, 2])
    def test_passes_on_model(self, k):
        report = check_isospectral_lax(k)
        assert report.passed
        assert report.residual.is_zero

    def test_corrupted_u1_fails(self):
        triple = lax_matrices(False)
        bad_u1 = PolyMatrix2(triple.U1.e11, triple.U1.e12, -lam - x1, triple.U1.e22)
        corrupted = LaxTriple(triple.L, bad_u1, triple.U2, False)
        report = check_isospectral_lax(1, triple=corrupted)
        assert not report.passed

    def test_rejects_bad_flow_index(self):
        with pytest.raises(ValueError):
            check_isospectral_lax(3)


class TestLaxDefect:
    """The defect takes each entry's derivative as a Poisson bracket and
    D(e22) = -D(e11) for a traceless L; it must equal the defect with all
    four entries differentiated along the Hamiltonian vector field."""

    @staticmethod
    def _reference(k, triple, hams):
        field = hamiltonian_vector_field(hams.h1 if k == 1 else hams.h2)
        transported = triple.L.map(lambda entry: derivative_along(entry, field))
        return transported - mat_commutator(triple.flow_matrix(k), triple.L)

    @staticmethod
    def _with_l(triple, e11, e22):
        big_l = PolyMatrix2(e11, triple.L.e12, triple.L.e21, e22)
        return LaxTriple(big_l, triple.U1, triple.U2, triple.deformed)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("deformed", [False, True])
    def test_model_triples(self, deformed, k):
        triple, hams = lax_matrices(deformed), hamiltonians(deformed)
        assert _lax_defect(k, triple, hams) == self._reference(k, triple, hams)

    @pytest.mark.parametrize("k", [1, 2])
    def test_corrupted_e22_only(self, k):
        triple, hams = lax_matrices(True), hamiltonians(True)
        corrupted = self._with_l(triple, triple.L.e11, triple.L.e22 + p1 * lam)
        defect = _lax_defect(k, corrupted, hams)
        assert defect == self._reference(k, corrupted, hams)
        assert defect != _lax_defect(k, triple, hams)

    @pytest.mark.parametrize("k", [1, 2])
    def test_corrupted_hamiltonian(self, k):
        # The corruption of the exact benchmark's "h" target: h_k + c x1^2.
        triple, hams = lax_matrices(True), hamiltonians(True)
        term = Rational(-3, 4) * x1**2
        corrupted = HamiltonianSet(
            hams.h1 + (term if k == 1 else 0), hams.h2 + (term if k == 2 else 0), True
        )
        defect = _lax_defect(k, triple, corrupted)
        assert defect == self._reference(k, triple, corrupted)
        assert defect != _lax_defect(k, triple, hams)

    @pytest.mark.parametrize("k", [1, 2])
    def test_shifted_diagonal_stays_traceless(self, k):
        triple, hams = lax_matrices(True), hamiltonians(True)
        shifted = self._with_l(triple, triple.L.e11 + x1, triple.L.e22 - x1)
        defect = _lax_defect(k, shifted, hams)
        assert defect == self._reference(k, shifted, hams)
        assert defect != _lax_defect(k, triple, hams)


class TestIsomonodromicLax:
    def test_t1_intermediate_matches_closed_form(self):
        report = check_isomonodromic_lax(1)
        assert report.passed
        assert report.residual.is_zero
        zero = LaurentPoly.zero()
        assert report.intermediate == PolyMatrix2(zero, zero, -2 * lam, zero)

    def test_t2_intermediate_matches_closed_form(self):
        report = check_isomonodromic_lax(2)
        assert report.passed
        assert report.residual.is_zero
        zero = LaurentPoly.zero()
        expected = PolyMatrix2(
            zero, lam, -4 * lam**2 - 2 * (x1 + 3 * t2) * lam, zero
        )
        assert report.intermediate == expected

    def test_autonomous_u1_fails_for_deformed_system(self):
        deformed, plain = lax_matrices(True), lax_matrices(False)
        corrupted = LaxTriple(deformed.L, plain.U1, deformed.U2, True)
        report = check_isomonodromic_lax(1, triple=corrupted)
        assert not report.passed
        # The serialized failure carries the intermediate beside the expected.
        assert report.to_dict() == {
            "name": "isomonodromic_lax_t1",
            "passed": False,
            "residual": str(report.residual),
            "expected": "[[0, 0], [-2*lambda, 0]]",
            "intermediate": str(report.intermediate),
        }


class TestSignConvention:
    def test_deformed_pair(self):
        report = check_sign_convention()
        assert report.passed
        assert report.residual.is_zero

    def test_pair_with_itself(self):
        h1 = hamiltonians(True).h1
        assert check_sign_convention(HamiltonianSet(h1, h1, True)).passed

    def test_canonical_coordinate_pair(self):
        assert check_sign_convention(HamiltonianSet(x1, p1, False)).passed


class TestSpectralCurve:
    def test_matches_independent_construction(self):
        # Oracle: the quintic assembled from the Hamiltonians themselves.
        hams = hamiltonians(False)
        expected = 2 * lam**5 - 2 * hams.h1 * lam**2 - 2 * hams.h2 * lam + HALF * alpha
        assert spectral_curve(False) == expected

    def test_leading_coefficient(self):
        coefficients = spectral_curve(False).coefficients_in(VarId.LAMBDA)
        assert coefficients[5] == LaurentPoly.constant(2)

    def test_value_at_zero_phase_point(self):
        curve = spectral_curve(False)
        for var in (VarId.X1, VarId.X2, VarId.P1, VarId.P2, VarId.ALPHA):
            if var == VarId.X2:
                # clear the alpha terms first so x2 -> 0 stays regular
                curve = curve.substitute_rational(VarId.ALPHA, 0)
            curve = curve.substitute_rational(var, 0)
        assert curve == 2 * lam**5

    def test_coefficients_commute_with_hamiltonians(self):
        hams = hamiltonians(False)
        for coefficient in spectral_curve(False).coefficients_in(VarId.LAMBDA).values():
            assert poisson_bracket(coefficient, hams.h1).is_zero
            assert poisson_bracket(coefficient, hams.h2).is_zero

    def test_deformed_curve_carries_time_dependence(self):
        assert spectral_curve(True).depends_on(VarId.T1)


class TestRegistry:
    def test_seven_checks_all_pass(self):
        reports = run_checks()
        assert len(reports) == 7
        assert all(report.passed for report in reports)

    def test_registry_names_are_unique(self):
        names = [name for name, _ in CHECKS]
        assert len(names) == len(set(names))

    def test_filtering(self):
        reports = run_checks("frobenius")
        assert [report.name for report in reports] == ["frobenius"]

    def test_report_serialization(self):
        payload = check_frobenius().to_dict()
        assert payload["name"] == "frobenius"
        assert payload["passed"] is True
        assert payload["residual"] == "-t1 - 3*t2^2"
        assert payload["expected"] == "-t1 - 3*t2^2"

    def test_describe_lines(self):
        assert check_involution().describe() == "PASS involution: residual = 0"
