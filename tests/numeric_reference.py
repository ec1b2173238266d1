"""Reference evaluators for the tests.

The package evaluates polynomials only through the generated kernels of
`hhlax.kernels`.  `substitute_numeric` works differently on purpose (powers
instead of multiply chains, `math.fsum` instead of a left-to-right sum), so
the tests can compare the kernels against it.  `reference_diagnostics` computes a
diagnostics row the way it was computed before one generated function
produced it, so the tests can compare that function bit for bit, and
`reference_summary` computes the drift summary row by row, each eigenvalue
a `complex`, as it was computed before it read the rows by column.  `reference_fields`,
`reference_autonomous_rhs` and `reference_segment_rhs` compute the stepper
right-hand sides the way they were computed before they were generated as
whole functions, with each field a separate kernel called with constant
arguments.
"""

import cmath
import math
from fractions import Fraction
from typing import Mapping

from hhlax.algebra import DivisionByZero, LaurentPoly, VarId
from hhlax.kernels import compile_polys
from hhlax.model import hamiltonian_vector_field, hamiltonians


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


def reference_diagnostics(h1, h2, det, alpha, lambdas):
    """`row(s, t1, t2, y)` -> [s, t1, t2, x1, x2, p1, p2, h1, h2, re_0, im_0, ...]
    from two separate kernels, one for (h1, h2) and one for det L evaluated
    once per lambda, and `cmath.sqrt`: the diagnostics as they were computed
    before one generated function produced the whole row.  The float alpha
    is folded into the polynomials here, by exact substitution."""
    value = Fraction(alpha)
    h1, h2, det = (poly.substitute_rational(VarId.ALPHA, value) for poly in (h1, h2, det))
    hams_kernel = compile_polys([h1, h2])
    det_kernel = compile_polys([det])

    def row(s, t1, t2, y):
        values = [s, t1, t2, *y, *hams_kernel(*y, t1, t2, 1.0, 0.0)]
        for lam in lambdas:
            root = cmath.sqrt(complex(-det_kernel(*y, t1, t2, lam, 0.0)[0]))
            values.extend((root.real, root.imag))
        return values

    return row


def reference_summary(rows):
    """The drift summary of trajectory rows [s, t1, t2, x1, x2, p1, p2, h1,
    h2, re_0, im_0, ...]: the largest abs(value - first value) of h1 and h2,
    and of complex(re_j, im_j) over every row and lambda."""
    first = rows[0]

    def column_drift(column):
        return max(abs(row[column] - first[column]) for row in rows)

    references = [(j, complex(first[j], first[j + 1])) for j in range(9, len(first), 2)]
    return {
        "samples": len(rows),
        "h1_drift": column_drift(7),
        "h2_drift": column_drift(8),
        "eigenvalue_drift": max(
            (abs(complex(row[j], row[j + 1]) - ref) for row in rows for j, ref in references),
            default=0.0,
        ),
    }


def reference_fields(deformed, alpha):
    """Y_1 and Y_2 of one model with alpha folded in, each one kernel
    `field(x1, x2, p1, p2, t1, t2, lam, alpha)`."""
    hams = hamiltonians(deformed)
    value = Fraction(alpha)
    return tuple(
        compile_polys(
            [c.substitute_rational(VarId.ALPHA, value) for c in hamiltonian_vector_field(h).components]
        )
        for h in (hams.h1, hams.h2)
    )


def reference_autonomous_rhs(field):
    """`rhs(s, x1, x2, p1, p2)` of an autonomous flow."""

    def rhs(s, x1, x2, p1, p2):
        return field(x1, x2, p1, p2, 0.0, 0.0, 1.0, 0.0)

    return rhs


def reference_segment_rhs(field1, field2, t1_start, t2_start, w1, w2):
    """w1 * Y_1 + w2 * Y_2 along t = start + s * (w1, w2); zero weights skip their field."""

    def rhs(s, x1, x2, p1, p2):
        t1v = t1_start + w1 * s
        t2v = t2_start + w2 * s
        r1 = r2 = r3 = r4 = 0.0
        if w1:
            f1, f2, f3, f4 = field1(x1, x2, p1, p2, t1v, t2v, 1.0, 0.0)
            r1 += w1 * f1
            r2 += w1 * f2
            r3 += w1 * f3
            r4 += w1 * f4
        if w2:
            f1, f2, f3, f4 = field2(x1, x2, p1, p2, t1v, t2v, 1.0, 0.0)
            r1 += w2 * f1
            r2 += w2 * f2
            r3 += w2 * f3
            r4 += w2 * f4
        return (r1, r2, r3, r4)

    return rhs
