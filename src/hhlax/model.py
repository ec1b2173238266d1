"""Concrete model objects for the extended Henon-Heiles system.

Builds, exactly over the Laurent ring: the hierarchy of separable potentials
(three-point recursion in matrix form), the autonomous Hamiltonian pair and
its non-autonomous deformation, Hamiltonian vector fields, and the matrices
of the isospectral / isomonodromic Lax representations with their det L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import LaurentPoly, PolyMatrix2, Rational, VarId, poisson_bracket

__all__ = [
    "PotentialPair",
    "HamiltonianSet",
    "VectorField4",
    "LaxTriple",
    "PHASE_VARS",
    "recursion_matrix",
    "recursion_matrix_inverse",
    "potential",
    "deformation_coefficients",
    "hamiltonians",
    "hamiltonian_vector_field",
    "lax_matrices",
    "spectral_curve",
    "isomonodromy_deformation_term",
    "derivative_along",
    "lie_bracket",
]

x1, x2, p1, p2, t1, t2, lam, alpha = LaurentPoly.gens()
_HALF = Rational(1, 2)
_QUARTER = Rational(1, 4)
_TWO_LAM = 2 * lam

# Order in which phase-space derivatives are taken throughout.
PHASE_VARS = (VarId.X1, VarId.X2, VarId.P1, VarId.P2)


@dataclass(frozen=True)
class PotentialPair:
    """One rung (V1, V2) of the separable-potential hierarchy."""

    v1: LaurentPoly
    v2: LaurentPoly


@dataclass(frozen=True)
class HamiltonianSet:
    """The commuting pair (h1, h2), or its time-dependent deformation."""

    h1: LaurentPoly
    h2: LaurentPoly
    deformed: bool


@dataclass(frozen=True)
class VectorField4:
    """Polynomial vector field on phase space, ordered (dx1, dx2, dp1, dp2)."""

    components: tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]

    def __post_init__(self):
        if len(self.components) != 4:
            raise ValueError("a phase-space vector field has exactly 4 components")

    @property
    def is_zero(self) -> bool:
        return all(component.is_zero for component in self.components)

    def __add__(self, other: "VectorField4") -> "VectorField4":
        return VectorField4(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField4") -> "VectorField4":
        return VectorField4(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "VectorField4":
        return VectorField4(tuple(-component for component in self.components))

    def partial(self, var: VarId) -> "VectorField4":
        """Component-wise partial derivative (used for the t-derivatives)."""
        return VectorField4(tuple(component.diff(var) for component in self.components))

    def __str__(self) -> str:
        return "(" + ", ".join(str(component) for component in self.components) + ")"


@dataclass(frozen=True)
class LaxTriple:
    """Lax matrix L and the flow matrices U1, U2 of the two time directions."""

    L: PolyMatrix2
    U1: PolyMatrix2
    U2: PolyMatrix2
    deformed: bool

    def flow_matrix(self, k: int) -> PolyMatrix2:
        if k == 1:
            return self.U1
        if k == 2:
            return self.U2
        raise ValueError("flow index must be 1 or 2")


@lru_cache(maxsize=None)
def recursion_matrix() -> PolyMatrix2:
    """Step matrix of the separable-potential hierarchy.

    Built once: every call returns the same shared matrix, as `lax_matrices`
    shares its triple; `PolyMatrix2` entries are read-only.
    """
    return PolyMatrix2(x1, 1, _QUARTER * x2**2, 0)


@lru_cache(maxsize=None)
def recursion_matrix_inverse() -> PolyMatrix2:
    """Exact inverse adj(R)/det(R); det R = -x2^2/4 is a Laurent unit.

    Built once and shared like `recursion_matrix()`.
    """
    step = recursion_matrix()
    adjugate = PolyMatrix2(step.e22, -step.e12, -step.e21, step.e11)
    return adjugate * step.det().inverse_term()


# The rungs built so far with |k| <= _MEMO_LIMIT (the CLI's range), by k;
# rung 0 starts both walks.  Deeper rungs grow with |k| and are not stored.
_MEMO_LIMIT = 64
_rungs: dict[int, tuple[LaurentPoly, LaurentPoly]] = {0: (LaurentPoly.zero(), LaurentPoly.one())}


def _potential_vector(k: int) -> tuple[LaurentPoly, LaurentPoly]:
    # Walk outwards from the built rung nearest to k in a loop: no call
    # frame is held per rung, so every k stays inside the recursion limit.
    rung = _rungs.get(k)
    if rung is not None:
        return rung
    outward = 1 if k > 0 else -1
    built = k - outward
    while built not in _rungs:
        built -= outward
    step = recursion_matrix() if k > 0 else recursion_matrix_inverse()
    rung = _rungs[built]
    while built != k:
        built += outward
        rung = step.apply(rung)
        if abs(built) <= _MEMO_LIMIT:
            _rungs[built] = rung
    return rung


def potential(k: int) -> PotentialPair:
    """k-th separable potential pair, defined for every integer k.

    Negative k walks the recursion backwards through the exact Laurent
    inverse, so e.g. k = -1 gives (4/x2^2, -4 x1/x2^2).
    """
    v1, v2 = _potential_vector(k)
    return PotentialPair(v1, v2)


@lru_cache(maxsize=None)
def deformation_coefficients() -> tuple[LaurentPoly, LaurentPoly]:
    """(c2, c3): coefficient functions compatible with the Frobenius
    condition for this deformation ansatz, unique up to the shift
    t -> t + const of the times.  Built once and shared."""
    return (t1 + 3 * t2**2, 3 * t2)


@lru_cache(maxsize=None)
def hamiltonians(deformed: bool = False) -> HamiltonianSet:
    """The commuting extended Henon-Heiles pair, optionally deformed.

    One formula serves both systems, as in `lax_matrices`: the deformation
    adds the k = 3 and k = 2 potentials with the coefficients c3 = 3 t2 and
    c2 = t1 + 3 t2^2 and shifts h2 by the Killing-vector term -p1; for the
    autonomous pair the coefficients and the Killing term are zero.
    """
    c2, c3 = deformation_coefficients() if deformed else (0, 0)
    killing = p1 if deformed else 0
    geodesic1 = _HALF * p1**2 + _HALF * p2**2
    geodesic2 = _HALF * x2 * p1 * p2 - _HALF * x1 * p2**2
    quartic, cubic, quadratic = potential(4), potential(3), potential(2)
    h1 = geodesic1 + quartic.v1 + alpha / x2**2 + c3 * cubic.v1 + c2 * quadratic.v1
    h2 = geodesic2 + quartic.v2 - alpha * x1 / x2**2 - killing + c3 * cubic.v2 + c2 * quadratic.v2
    return HamiltonianSet(h1, h2, deformed)


@lru_cache(maxsize=64)
def hamiltonian_vector_field(hamiltonian: LaurentPoly) -> VectorField4:
    """Y_H, whose component along coordinate v is {v, H}: the flow of H
    moves every function f as {f, H}.  Built once for each of the last 64
    Hamiltonians, so its negated components keep their derivative memo."""
    return VectorField4(tuple(poisson_bracket(v, hamiltonian) for v in (x1, x2, p1, p2)))


@lru_cache(maxsize=None)
def lax_matrices(deformed: bool = False) -> LaxTriple:
    """The Lax matrix L(lambda) and flow matrices U1, U2.

    One formula serves both systems: time enters only through the deformation
    coefficients c2 = t1 + 3 t2^2 and c3 = 3 t2, which are zero for the
    autonomous triple, so at t1 = t2 = 0 the deformed triple is the
    autonomous one by construction.
    """
    c2, c3 = deformation_coefficients() if deformed else (0, 0)
    diagonal = p1 * lam + _HALF * x2 * p2
    upper = lam**2 - x1 * lam - _QUARTER * x2**2
    lower = (
        -2 * lam**3
        - 2 * (x1 + c3) * lam**2
        - (2 * x1**2 + _HALF * x2**2 + 2 * c3 * x1 + 2 * c2) * lam
        + p2**2
        + 2 * alpha / x2**2
    )
    big_l = PolyMatrix2(diagonal, upper, lower, -diagonal)
    u1 = PolyMatrix2(0, _HALF, -lam - 2 * x1 - c3, 0)
    u2 = PolyMatrix2(
        _HALF * p1,
        _HALF * lam - _HALF * x1,
        -(lam**2) - (x1 + c3) * lam - x1**2 - _HALF * x2**2 - c3 * x1 - c2,
        -_HALF * p1,
    )
    return LaxTriple(big_l, u1, u2, deformed)


def spectral_curve(deformed: bool = False) -> LaurentPoly:
    """det L(lambda): the spectral invariant of the traceless Lax matrix.

    In the autonomous case this expands to
    2 lambda^5 - 2 h1 lambda^2 - 2 h2 lambda + alpha/2, so every
    lambda-coefficient Poisson-commutes with both Hamiltonians.  The
    eigenvalue pair of L is +-sqrt(-det L).
    """
    return lax_matrices(deformed).L.det()


def isomonodromy_deformation_term(u_matrix: PolyMatrix2) -> PolyMatrix2:
    """2 lambda dU/dlambda: the term the isomonodromic Lax equation adds."""
    return u_matrix.map(lambda entry: _TWO_LAM * entry.diff(VarId.LAMBDA))


def derivative_along(f: LaurentPoly, field: VectorField4) -> LaurentPoly:
    """D_Y f = sum_j Y^j d_j f over the phase variables."""
    acc = LaurentPoly.zero()
    for component, var in zip(field.components, PHASE_VARS):
        acc = acc + component * f.diff(var)
    return acc


def lie_bracket(field_y: VectorField4, field_z: VectorField4) -> VectorField4:
    """[Y, Z]^i = D_Y Z^i - D_Z Y^i."""
    return VectorField4(
        tuple(
            derivative_along(z, field_y) - derivative_along(y, field_z)
            for y, z in zip(field_y.components, field_z.components)
        )
    )
