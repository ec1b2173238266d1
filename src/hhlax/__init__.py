"""Extended Henon-Heiles system and its Painleve-type deformation.

Exact (rational Laurent-polynomial) verification of the structural
identities of the system — involution, Frobenius compatibility, zero
curvature, isospectral and isomonodromic Lax representations — plus
numerical integration of the autonomous flows and of the multi-time
Pfaffian system with conservation and path-independence diagnostics.
"""

from .algebra import (
    DivisionByZero,
    LaurentPoly,
    PolyMatrix2,
    Rational,
    VarId,
    mat_commutator,
    poisson_bracket,
)
from .model import (
    HamiltonianSet,
    LaxTriple,
    PotentialPair,
    VectorField4,
    hamiltonian_vector_field,
    hamiltonians,
    lax_matrices,
    lie_bracket,
    potential,
)

__version__ = "0.1.0"
