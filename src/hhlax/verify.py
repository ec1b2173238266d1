"""Exact verification of the structural identities of the system.

Each check computes a residual in the Laurent ring (a polynomial, a 2x2
polynomial matrix, or a vector field) and passes only on exact structural
equality with the expected value — no numeric tolerance is involved.  The
residual object itself is kept in the report for debugging and golden tests.

All checks accept the model objects as optional arguments so corrupted
inputs can be injected; the defaults are the genuine model objects.  The
module holds the checks and their registry only: the model objects, the
spectral curve and its coefficients included, are read from `hhlax.model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

from .algebra import (
    LaurentPoly,
    PolyMatrix2,
    VarId,
    mat_commutator,
    poisson_bracket,
)
from .model import (
    HamiltonianSet,
    LaxTriple,
    VectorField4,
    deformation_coefficients,
    hamiltonian_vector_field,
    hamiltonians,
    isomonodromy_deformation_term,
    lax_matrices,
    lie_bracket,
)

__all__ = [
    "IdentityReport",
    "check_involution",
    "check_frobenius",
    "check_zero_curvature",
    "check_isospectral_lax",
    "check_isomonodromic_lax",
    "check_sign_convention",
    "CHECKS",
    "run_checks",
]

Residual = Union[LaurentPoly, PolyMatrix2, VectorField4]

_lam = LaurentPoly.variable(VarId.LAMBDA)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact check.

    `passed` is true iff `residual` equals `expected` structurally (the
    expected value is zero unless stated otherwise).  Isomonodromic checks
    additionally carry the intermediate matrix they compare against the
    closed-form deformation term.
    """

    name: str
    residual: Residual
    passed: bool
    expected: Optional[Residual] = None
    intermediate: Optional[PolyMatrix2] = None

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: residual = {self.residual}"

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "passed": self.passed,
            "residual": str(self.residual),
        }
        if self.expected is not None:
            payload["expected"] = str(self.expected)
        if self.intermediate is not None:
            payload["intermediate"] = str(self.intermediate)
        return payload


def _lax_defect(k: int, triple: LaxTriple, hams: HamiltonianSet) -> PolyMatrix2:
    """D_{Y_k} L - [U_k, L]: the derivative of L along flow k minus the commutator.

    Along the Hamiltonian field of H_k an entry e changes as {e, H_k}, so
    each entry is one Poisson bracket.  The bracket is linear, so for a
    traceless L (`e22 == -e11`, as in both model triples) D(e22) is taken
    as -D(e11); an L with any other diagonal has all four entries bracketed.
    """
    u_matrix = triple.flow_matrix(k)  # rejects a flow index other than 1 or 2
    h = hams.h1 if k == 1 else hams.h2
    big_l = triple.L
    d11 = poisson_bracket(big_l.e11, h)
    d22 = -d11 if big_l.e22 == -big_l.e11 else poisson_bracket(big_l.e22, h)
    transported = PolyMatrix2(d11, poisson_bracket(big_l.e12, h), poisson_bracket(big_l.e21, h), d22)
    return transported - mat_commutator(u_matrix, big_l)


def check_involution(hams: HamiltonianSet | None = None) -> IdentityReport:
    """{h1, h2} must vanish identically."""
    hams = hams or hamiltonians(False)
    residual = poisson_bracket(hams.h1, hams.h2)
    return IdentityReport("involution", residual, residual.is_zero)


def check_frobenius(hams: HamiltonianSet | None = None) -> IdentityReport:
    """dH1/dt2 - dH2/dt1 + {H1, H2} must equal -c2, a function of t only."""
    hams = hams or hamiltonians(True)
    residual = hams.h1.diff(VarId.T2) - hams.h2.diff(VarId.T1) + poisson_bracket(hams.h1, hams.h2)
    expected = -deformation_coefficients()[0]
    return IdentityReport("frobenius", residual, residual == expected, expected=expected)


def check_zero_curvature(hams: HamiltonianSet | None = None) -> IdentityReport:
    """dY1/dt2 - dY2/dt1 + [Y2, Y1] must be the zero vector field."""
    hams = hams or hamiltonians(True)
    field1, field2 = hams.fields
    residual = field1.partial(VarId.T2) - field2.partial(VarId.T1) + lie_bracket(field2, field1)
    return IdentityReport("zero_curvature", residual, residual.is_zero)


def check_isospectral_lax(
    k: int,
    triple: LaxTriple | None = None,
    hams: HamiltonianSet | None = None,
) -> IdentityReport:
    """Derivative of L along flow k must equal [U_k, L] (autonomous triple)."""
    residual = _lax_defect(k, triple or lax_matrices(False), hams or hamiltonians(False))
    return IdentityReport(f"isospectral_lax_t{k}", residual, residual.is_zero)


# The two defect matrices the deformed system must produce, transcribed in
# closed form: D_{t1}L - [U1, L] and D_{t2}L - [U2, L].  Built once each.
@lru_cache(maxsize=None)
def _expected_defect(k: int) -> PolyMatrix2:
    x1 = LaurentPoly.variable(VarId.X1)
    t2 = LaurentPoly.variable(VarId.T2)
    if k == 1:
        return PolyMatrix2(0, 0, -2 * _lam, 0)
    return PolyMatrix2(0, _lam, -4 * _lam**2 - 2 * (x1 + 3 * t2) * _lam, 0)


def check_isomonodromic_lax(
    k: int,
    triple: LaxTriple | None = None,
    hams: HamiltonianSet | None = None,
) -> IdentityReport:
    """Full time derivative of L minus [U_k, L] minus 2 lambda dU_k/dlambda
    must vanish; the intermediate defect must match its closed form."""
    triple = triple or lax_matrices(True)
    defect = _lax_defect(k, triple, hams or hamiltonians(True))
    t_var = VarId.T1 if k == 1 else VarId.T2
    intermediate = triple.L.map(lambda entry: entry.diff(t_var)) + defect
    residual = intermediate - isomonodromy_deformation_term(triple.flow_matrix(k))
    expected = _expected_defect(k)
    return IdentityReport(
        f"isomonodromic_lax_t{k}",
        residual,
        residual.is_zero and intermediate == expected,
        expected=expected,
        intermediate=intermediate,
    )


def check_sign_convention(hams: HamiltonianSet | None = None) -> IdentityReport:
    """Hamiltonian field of {H1, H2} must equal -[Y_{H1}, Y_{H2}]."""
    hams = hams or hamiltonians(True)
    field1, field2 = hams.fields
    residual = hamiltonian_vector_field(poisson_bracket(hams.h1, hams.h2)) + lie_bracket(field1, field2)
    return IdentityReport("sign_convention", residual, residual.is_zero)


# Default registry run by the CLI: one entry per exact identity, with both
# flow directions counted separately.
CHECKS: tuple[tuple[str, Callable[[], IdentityReport]], ...] = (
    ("involution", check_involution),
    ("frobenius", check_frobenius),
    ("zero_curvature", check_zero_curvature),
    ("isospectral_lax_t1", lambda: check_isospectral_lax(1)),
    ("isospectral_lax_t2", lambda: check_isospectral_lax(2)),
    ("isomonodromic_lax_t1", lambda: check_isomonodromic_lax(1)),
    ("isomonodromic_lax_t2", lambda: check_isomonodromic_lax(2)),
)


def run_checks(name_filter: str | None = None) -> list[IdentityReport]:
    """Run all registry checks whose name contains `name_filter`."""
    selected = [
        build for name, build in CHECKS if name_filter is None or name_filter in name
    ]
    return [build() for build in selected]
