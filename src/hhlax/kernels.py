"""Numeric evaluation kernels for the hot inner loops.

Symbolic vector fields and diagnostics are turned once into straight-line
Python functions and then evaluated many thousands of times per integration
run.  Each polynomial becomes one expression

    r0 = 0.0 + 1.5*x1*x1/x2/x2/x2 + -0.5*p2 + ...

with its terms in the canonical `sorted_terms()` order and every term a
left-to-right chain of multiplications and divisions, one per unit of
exponent, variables in `VarId` order.  The results are therefore fixed bit
for bit by the polynomials alone: the same term-table arithmetic that an
interpreter of (coefficient, exponents) rows performs, without the
interpreter.

The singular set is part of the generated code.  For every variable at a
negative power in any polynomial of the table, the function starts with

    if -1e-12 <= x2 <= 1e-12: raise SingularState(...)

so no evaluation divides by a value within 1e-12 of zero.  Once
alpha is folded in, the deformation's `x2^-2`/`x2^-3` terms are the only
negative powers, and alpha = 0 removes them together with the guard.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .algebra import LaurentPoly

__all__ = ["CompiledPolySet", "SingularState"]

# A variable at a negative power whose value is this close to zero counts as
# sitting on the singular set.
_SINGULAR_TOL = 1e-12

# Parameter names of the generated functions, in VarId order.
_ARGUMENTS = ("x1", "x2", "p1", "p2", "t1", "t2", "lam", "alpha")

# Terms per statement: a longer left-associated sum would nest deeper than
# the bytecode compiler accepts for large tables.
_TERMS_PER_LINE = 64


class SingularState(ZeroDivisionError):
    """A variable at a negative power reached the singular set (for the
    alpha-folded fields and diagnostics: x2 = 0 with alpha != 0)."""


def _term_source(mono: tuple[int, ...], coeff: float) -> str:
    parts = [repr(coeff)]
    for name, exp in zip(_ARGUMENTS, mono):
        op = "*" if exp > 0 else "/"
        parts.extend(f"{op}{name}" for _ in range(abs(exp)))
    return "".join(parts)


def _poly_source(target: str, poly: LaurentPoly) -> list[str]:
    terms = [_term_source(mono, float(coeff)) for mono, coeff in poly.sorted_terms()]
    lines = [f"    {target} = 0.0" + "".join(f" + {t}" for t in terms[:_TERMS_PER_LINE])]
    for start in range(_TERMS_PER_LINE, len(terms), _TERMS_PER_LINE):
        chunk = terms[start:start + _TERMS_PER_LINE]
        lines.append(f"    {target} = {target}" + "".join(f" + {t}" for t in chunk))
    return lines


def _guard_source(polys: Sequence[LaurentPoly]) -> list[str]:
    negative = {
        i for poly in polys for mono, _ in poly.sorted_terms() for i, exp in enumerate(mono) if exp < 0
    }
    lines = []
    for name in (_ARGUMENTS[i] for i in sorted(negative)):
        lines.append(f"    if {-_SINGULAR_TOL!r} <= {name} <= {_SINGULAR_TOL!r}:")
        lines.append(f"        raise SingularState(f'{name} = {{{name}!r}} is on the singular set')")
    return lines


class CompiledPolySet:
    """A stack of Laurent polynomials compiled to one Python function.

    `evaluate(x1, x2, p1, p2, t1, t2, lam, alpha)` returns a tuple with one
    float per polynomial; calling the set with a sequence of the eight
    values does the same.  A variable at a negative power within 1e-12
    of zero raises SingularState.
    """

    def __init__(self, polys: Sequence[LaurentPoly]):
        self.n_polys = len(polys)
        targets = [f"r{i}" for i in range(self.n_polys)]
        lines = [f"def evaluate({', '.join(_ARGUMENTS)}):"]
        lines.extend(_guard_source(polys))
        for target, poly in zip(targets, polys):
            lines.extend(_poly_source(target, poly))
        lines.append(f"    return ({''.join(t + ', ' for t in targets)})")
        namespace: dict = {"SingularState": SingularState}
        exec(compile("\n".join(lines) + "\n", "<hhlax.kernels>", "exec"), namespace)
        self.evaluate: Callable[..., tuple[float, ...]] = namespace["evaluate"]

    def __call__(self, vals: Sequence[float]) -> tuple[float, ...]:
        return self.evaluate(*vals)
