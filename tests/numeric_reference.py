"""Reference evaluators for the tests.

The package evaluates polynomials only through the generated kernels of
`hhlax.kernels`.  `substitute_numeric` works differently on purpose (powers
instead of multiply chains, `math.fsum` instead of a left-to-right sum), so
the tests can compare the kernels against it.  `reference_diagnostics` computes a
diagnostics row the way it was computed before one generated function
produced it, so the tests can compare that function bit for bit.
"""

import cmath
import math
from typing import Mapping

from hhlax.algebra import DivisionByZero, LaurentPoly, VarId
from hhlax.kernels import CompiledPolySet


class MissingAssignment(LookupError):
    """A variable occurring in the polynomial was not assigned a value."""


def substitute_numeric(f: LaurentPoly, point: Mapping[VarId, float]) -> float:
    """Evaluate at a float point; exact coefficients are converted last.

    Every variable occurring with nonzero exponent must be assigned, and a
    variable occurring with a negative exponent must be assigned a nonzero
    value.
    """
    contributions = []
    for mono, coeff in f.items():
        product = 1.0
        for var, exp in enumerate(mono):
            if exp == 0:
                continue
            key = VarId(var)
            if key not in point:
                raise MissingAssignment(f"no value assigned to {key.symbol}")
            value = float(point[key])
            if exp < 0 and value == 0.0:
                raise DivisionByZero(f"{key.symbol} = 0 but appears with exponent {exp}")
            product *= value**exp
        contributions.append(float(coeff) * product)
    return math.fsum(contributions)


def reference_diagnostics(h1, h2, det, lambdas):
    """`row(s, t1, t2, y)` -> [s, t1, t2, x1, x2, p1, p2, h1, h2, re_0, im_0, ...]
    from two separate kernels, one for (h1, h2) and one for det L evaluated
    once per lambda, and `cmath.sqrt`: the diagnostics as they were computed
    before one generated function produced the whole row.  The polynomials
    have alpha folded in."""
    hams_kernel = CompiledPolySet([h1, h2]).evaluate
    det_kernel = CompiledPolySet([det]).evaluate

    def row(s, t1, t2, y):
        values = [s, t1, t2, *y, *hams_kernel(*y, t1, t2, 1.0, 0.0)]
        for lam in lambdas:
            root = cmath.sqrt(complex(-det_kernel(*y, t1, t2, lam, 0.0)[0]))
            values.extend((root.real, root.imag))
        return values

    return row
