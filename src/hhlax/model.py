"""Concrete model objects for the extended Henon-Heiles system.

Builds, exactly over the Laurent ring: the hierarchy of separable potentials
(three-point recursion in matrix form), the autonomous Hamiltonian pair and
its non-autonomous deformation, Hamiltonian vector fields, and the matrices
of the isospectral / isomonodromic Lax representations with their det L.

One spectral curve defines each model.  The hand-written data are L's
diagonal A = p1 lambda + x2 p2/2, its upper entry B = lambda^2 + b1 lambda
+ b2 with b1 = -x1 and b2 = -x2^2/4, and the curve's part free of the
Hamiltonians, f0 = 2 lambda^5 + 2 c3 lambda^4 + 2 c2 lambda^3 + alpha/2.
One long division of f0 + A^2 by the monic B in lambda gives L's lower
entry C; the curve is det L, and the pair (H1, H2) is read off its
coefficients.  The flow matrices U1, U2 are cut from L, and the recursion
step is the companion matrix of B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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

# L's diagonal A and the coefficients of its upper entry B = lam^2 + b1 lam
# + b2, the same in both models: the only hand-written part of L.
_A = p1 * lam + _HALF * x2 * p2
_B1, _B2 = -x1, -_QUARTER * x2**2

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

    @cached_property
    def fields(self) -> tuple[VectorField4, VectorField4]:
        """(Y_H1, Y_H2), built on first use and freed with the set, so the
        genuine sets of `hamiltonians` keep their fields' derivative memos."""
        return hamiltonian_vector_field(self.h1), hamiltonian_vector_field(self.h2)


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

    def partial(self, var: VarId) -> "VectorField4":
        """Component-wise partial derivative (used for the t-derivatives)."""
        return VectorField4(tuple(component.diff(var) for component in self.components))

    def __str__(self) -> str:
        return "(" + ", ".join(str(component) for component in self.components) + ")"


def _flow_index(k: int) -> int:
    """k - 1, the place of flow k in every (flow 1, flow 2) pair, for the
    int k = 1 or 2.  Any other int is a `ValueError`, and any other k (a
    float, a bool) a `TypeError`, as for `potential`."""
    if type(k) is not int:
        raise TypeError(f"flow index must be an int, got {k!r}")
    if k not in (1, 2):
        raise ValueError("flow index must be 1 or 2")
    return k - 1


@dataclass(frozen=True)
class LaxTriple:
    """Lax matrix L and the flow matrices U1, U2 of the two time directions."""

    L: PolyMatrix2
    U1: PolyMatrix2
    U2: PolyMatrix2
    deformed: bool

    def flow_matrix(self, k: int) -> PolyMatrix2:
        """U_k, for a k that `_flow_index` takes."""
        return (self.U1, self.U2)[_flow_index(k)]


@lru_cache(maxsize=None)
def recursion_matrix() -> PolyMatrix2:
    """Step matrix of the separable-potential hierarchy: the companion
    matrix [[-b1, 1], [-b2, 0]] of L's upper entry B.

    Built once: every call returns the same shared matrix, as `lax_matrices`
    shares its triple; `PolyMatrix2` entries are read-only.
    """
    return PolyMatrix2(-_B1, 1, -_B2, 0)


@lru_cache(maxsize=None)
def recursion_matrix_inverse() -> PolyMatrix2:
    """Exact inverse adj(R)/det(R); det R = -x2^2/4 is a Laurent unit.

    Built once and shared like `recursion_matrix()`.
    """
    step = recursion_matrix()
    adjugate = PolyMatrix2(step.e22, -step.e12, -step.e21, step.e11)
    return adjugate * step.det().inverse_term()


# The rungs built so far as two prefix lists, _rungs[k < 0][abs(k)]: rungs
# 0, 1, 2, ... and 0, -1, -2, ..., each grown on demand up to |k| =
# _MEMO_LIMIT (the CLI's range).  Deeper rungs grow with |k| and are not stored.
_MEMO_LIMIT = 64
_rungs = ([(LaurentPoly.zero(), LaurentPoly.one())], [(LaurentPoly.zero(), LaurentPoly.one())])


def _potential_vector(k: int) -> tuple[LaurentPoly, LaurentPoly]:
    # Walk outwards from the last stored rung in a loop: no call frame is
    # held per rung, so every k stays inside the recursion limit.
    if type(k) is not int:
        raise TypeError(f"rung index must be an int, got {k!r}")
    rungs, depth = _rungs[k < 0], abs(k)
    if depth < len(rungs):
        return rungs[depth]
    step = recursion_matrix_inverse() if k < 0 else recursion_matrix()
    rung = rungs[-1]
    for built in range(len(rungs), depth + 1):
        rung = step.apply(rung)
        if built <= _MEMO_LIMIT:
            rungs.append(rung)
    return rung


def potential(k: int) -> PotentialPair:
    """k-th separable potential pair, defined for every int k; any other
    k (a float, a bool) is a `TypeError`.

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


def _lax(f0: LaurentPoly) -> PolyMatrix2:
    """L = [[A, B], [C, -A]] for the curve whose part free of the
    Hamiltonians is f0.  One long division in lambda by the monic B writes
    f0 + A^2 = q B + r1 lambda + r0, exact whatever f0's other variables.
    Then C = -q - r0/b2 (b2 is a Laurent unit) gives det L = -A^2 - B C =
    f0 + (r0/b2) lambda^2 + (r0 b1/b2 - r1) lambda: the Hamiltonians fill
    the curve's lambda^2 and lambda^1 slots."""
    rest = (f0 + _A**2).coefficients_in(VarId.LAMBDA)
    quotient = LaurentPoly.zero()
    for n in range(max(rest), 1, -1):
        lead = rest.pop(n, 0)
        quotient = quotient + lead * lam ** (n - 2)
        rest[n - 1] = rest.get(n - 1, 0) - lead * _B1
        rest[n - 2] = rest.get(n - 2, 0) - lead * _B2
    return PolyMatrix2(_A, lam**2 + _B1 * lam + _B2, -quotient - rest[0] / _B2, -_A)


def _polynomial_part(entry: LaurentPoly) -> LaurentPoly:
    """( )_+: the terms of `entry` with a nonnegative power of lambda (0
    when there are none)."""
    return sum(c * lam**n for n, c in entry.coefficients_in(VarId.LAMBDA).items() if n >= 0)


@lru_cache(maxsize=None, typed=True)
def lax_matrices(deformed: bool, /) -> LaxTriple:
    """The Lax matrix L(lambda) = [[A, B], [C, -A]] and flow matrices U1, U2
    of the autonomous model (`False`) or the deformed one (`True`).

    L comes from the curve's H-free part f0 = 2 lambda^5 + 2 c3 lambda^4
    + 2 c2 lambda^3 + alpha/2 by one long division (`_lax`), and
    U_k = (L / (2 lambda^(3-k)))_+ + b_k E21, where ( )_+ keeps the
    nonnegative powers of lambda.  Time enters only through the deformation
    coefficients c2, c3, so at t1 = t2 = 0 the deformed triple is the
    autonomous one.  Built once per model and shared.

    Every model object is derived from L, so the rule of the model flag
    lives here: `deformed`, passed by position, must be a bool, and any
    other value (`1`, `0.0`, `"false"`, `None`) is a `TypeError`.  The
    model caches are typed, so such a value never hits a bool's entry.
    """
    if type(deformed) is not bool:
        raise TypeError(f"model flag must be a bool, got {deformed!r}")
    c2, c3 = deformation_coefficients() if deformed else (0, 0)
    big_l = _lax(2 * lam**5 + 2 * c3 * lam**4 + 2 * c2 * lam**3 + _HALF * alpha)
    shifted = (big_l * (_HALF * lam ** (k - 3)) for k in (1, 2))
    u1, u2 = (u.map(_polynomial_part) + PolyMatrix2(0, 0, b, 0) for u, b in zip(shifted, (_B1, _B2)))
    return LaxTriple(big_l, u1, u2, deformed)


def spectral_curve(deformed: bool, /) -> LaurentPoly:
    """The spectral curve f(lambda) = det L(lambda) of each model:

        2 lambda^5 + 2 c3 lambda^4 + 2 c2 lambda^3 - 2 H1 lambda^2
          - 2 (H2 + kappa) lambda + alpha/2,

    with the deformation coefficients c2 = t1 + 3 t2^2, c3 = 3 t2 and the
    Killing term kappa = p1 for the deformed model, all zero for the
    autonomous one.  Only the H-free part is written down (`lax_matrices`);
    det L supplies the rest.  Not cached: each call takes det L of the
    shared L afresh, and a flag that is not a bool is `lax_matrices`'
    `TypeError`.  Every lambda-coefficient of the autonomous curve
    Poisson-commutes with both Hamiltonians, and the eigenvalue pair of L
    is +-sqrt(-f).
    """
    return lax_matrices(deformed).L.det()


@lru_cache(maxsize=None, typed=True)
def hamiltonians(deformed: bool, /) -> HamiltonianSet:
    """The commuting extended Henon-Heiles pair, autonomous (`False`) or
    deformed (`True`), read off the spectral curve: H1 = -[lambda^2]/2 and
    H2 = -[lambda^1]/2 - kappa, where kappa = p1 is the deformed model's
    Killing term.

    For the autonomous pair this is g + V(4) with the alpha terms; the
    deformation adds c3 V(3) + c2 V(2) and shifts h2 by -p1.  Built once
    per model and shared, from a curve taken of the shared L on the build;
    a flag that is not a bool is `lax_matrices`' `TypeError`.
    """
    coefficients = spectral_curve(deformed).coefficients_in(VarId.LAMBDA)
    killing = p1 if deformed else 0
    return HamiltonianSet(-_HALF * coefficients[2], -_HALF * coefficients[1] - killing, deformed)


def hamiltonian_vector_field(hamiltonian: LaurentPoly) -> VectorField4:
    """Y_H, whose component along coordinate v is {v, H}: the flow of H
    moves every function f as {f, H}.  Built anew on each call; the fields
    of a Hamiltonian pair are kept on it, as `HamiltonianSet.fields`."""
    return VectorField4(tuple(poisson_bracket(v, hamiltonian) for v in (x1, x2, p1, p2)))


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
