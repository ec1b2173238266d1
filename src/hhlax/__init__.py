"""Extended Henon-Heiles system and its Painleve-type deformation.

Exact (rational Laurent-polynomial) verification of the structural
identities of the system — involution, Frobenius compatibility, zero
curvature, isospectral and isomonodromic Lax representations — plus
numerical integration of the autonomous flows and of the multi-time
Pfaffian system with conservation and path-independence diagnostics.

Importing the package loads no submodule: import the one you use
(`hhlax.algebra`, `hhlax.model`, `hhlax.verify`, `hhlax.dynamics`, ...).
"""

__version__ = "0.1.0"
