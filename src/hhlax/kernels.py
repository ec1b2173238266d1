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

`compile_diagnostics` emits h1 and h2 once and det L once per
spectral-parameter sample, each under its own parameter name, in one
function that returns a whole diagnostics row.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .algebra import LaurentPoly

__all__ = ["CompiledPolySet", "NonFiniteState", "SingularState", "compile_diagnostics"]

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


class NonFiniteState(RuntimeError):
    """A state or a diagnostic (h1, h2, det L) became infinite or NaN, for
    instance when a fixed step steps through a blow-up."""


def _term_source(mono: tuple[int, ...], coeff: float, names: Sequence[str]) -> str:
    parts = [repr(coeff)]
    for name, exp in zip(names, mono):
        op = "*" if exp > 0 else "/"
        parts.extend(f"{op}{name}" for _ in range(abs(exp)))
    return "".join(parts)


def _poly_source(target: str, poly: LaurentPoly, names: Sequence[str]) -> list[str]:
    terms = [_term_source(mono, float(coeff), names) for mono, coeff in poly.sorted_terms()]
    lines = [f"    {target} = 0.0" + "".join(f" + {t}" for t in terms[:_TERMS_PER_LINE])]
    for start in range(_TERMS_PER_LINE, len(terms), _TERMS_PER_LINE):
        chunk = terms[start:start + _TERMS_PER_LINE]
        lines.append(f"    {target} = {target}" + "".join(f" + {t}" for t in chunk))
    return lines


def _guard_source(named_polys: Sequence[tuple[LaurentPoly, Sequence[str]]]) -> list[str]:
    negative = {
        (i, names[i])
        for poly, names in named_polys
        for mono, _ in poly.sorted_terms()
        for i, exp in enumerate(mono)
        if exp < 0
    }
    lines = []
    for _, name in sorted(negative):
        lines.append(f"    if {-_SINGULAR_TOL!r} <= {name} <= {_SINGULAR_TOL!r}:")
        lines.append(f"        raise SingularState(f'{name} = {{{name}!r}} is on the singular set')")
    return lines


def _compile(lines: list[str], name: str) -> Callable:
    namespace: dict = {"SingularState": SingularState, "NonFiniteState": NonFiniteState}
    exec(compile("\n".join(lines) + "\n", "<hhlax.kernels>", "exec"), namespace)
    # Popped, so that the function and its globals form no reference cycle
    # and a dropped function is freed at once, without a cyclic collection.
    return namespace.pop(name)


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
        lines.extend(_guard_source([(poly, _ARGUMENTS) for poly in polys]))
        for target, poly in zip(targets, polys):
            lines.extend(_poly_source(target, poly, _ARGUMENTS))
        lines.append(f"    return ({''.join(t + ', ' for t in targets)})")
        self.evaluate: Callable[..., tuple[float, ...]] = _compile(lines, "evaluate")

    def __call__(self, vals: Sequence[float]) -> tuple[float, ...]:
        return self.evaluate(*vals)


def compile_diagnostics(
    h1: LaurentPoly, h2: LaurentPoly, det: LaurentPoly, lambdas: Sequence[float]
) -> Callable[..., list]:
    """`diag(s, t1, t2, (x1, x2, p1, p2))` -> the row `[s, t1, t2, x1, x2,
    p1, p2, h1, h2, re_0, im_0, re_1, im_1, ...]` with `re_j + i im_j =
    sqrt(-det L(lambdas[j]))`, for polynomials with alpha folded in.  The
    singular set of all three raises SingularState, and an h1, h2 or
    det L(lambda_j) that is not finite raises NonFiniteState.
    """
    lams = [f"lam{j}" for j in range(len(lambdas))]
    det_names = [_ARGUMENTS[:6] + (lam,) for lam in lams]
    # The generated module imports cmath itself, so that processes that
    # never build diagnostics (the exact checks) do not load it.
    lines = ["from cmath import sqrt", "from math import isfinite"]
    lines.append(f"def diag(s, t1, t2, y{''.join(', ' + lam for lam in lams)}):")
    lines.append("    x1, x2, p1, p2 = y")
    lines += _guard_source([(h1, _ARGUMENTS), (h2, _ARGUMENTS)] + [(det, names) for names in det_names])
    lines += _poly_source("h1", h1, _ARGUMENTS) + _poly_source("h2", h2, _ARGUMENTS)
    lines += [
        "    if not (isfinite(h1) and isfinite(h2)):",
        "        raise NonFiniteState(f'h1 = {h1!r}, h2 = {h2!r} are not finite at s = {s!r}')",
    ]
    row = "s, t1, t2, x1, x2, p1, p2, h1, h2"
    for j, names in enumerate(det_names):
        message = f"det L({{lam{j}!r}}) = {{d{j}!r}} is not finite at state {{y!r}}"
        lines += _poly_source(f"d{j}", det, names) + [
            f"    if not isfinite(d{j}):",
            f"        raise NonFiniteState(f'{message}')",
            f"    e{j} = sqrt(complex(-d{j}))",
        ]
        row += f", e{j}.real, e{j}.imag"
    lines.append(f"    return [{row}]")
    diag = _compile(lines, "diag")
    diag.__defaults__ = tuple(lambdas)
    return diag
