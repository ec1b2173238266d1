"""Numeric evaluation kernels for the hot inner loops.

Symbolic vector fields and diagnostics are turned once into straight-line
Python functions and then evaluated many thousands of times per integration
run.  Each polynomial becomes one expression

    r0 = 0.0 + 1.5*x1*x1/x2/x2/x2 + -0.5*p2 + ...

with its terms in the canonical `sorted_terms()` order and every term a
left-to-right chain of multiplications and divisions, one per unit of
exponent, variables in `VarId` order.  A factor 1.0 is left out of every
chain (`x1*p2`, not `1.0*x1*p2`), since a product with 1.0 is exact.  The
results are therefore fixed bit for bit by the polynomials alone: the same
term-table arithmetic that an interpreter of (coefficient, exponents) rows
performs, without the interpreter.

The singular set is part of the generated code.  For every variable at a
negative power in any polynomial of the table, the function starts with

    if -1e-12 <= x2 <= 1e-12: raise SingularState(...)

so no evaluation divides by a value within 1e-12 of zero.  Every guard tests
a variable of the function, never a literal: `compile_diagnostics` refuses a
det L with a negative power of lambda, whose samples are literals.

Alpha is folded here.  `compile_flows` and `compile_diagnostics` take the
model polynomials with alpha still a variable, and the runtime alpha as a
finite float.  Each folds that float exactly into its polynomials
(`Fraction(alpha)` is exact) before it writes any source, so the
deformation's `x2^-2`/`x2^-3` terms are the only negative powers, and
alpha = 0 removes them together with the guard.  A folded coefficient that
no float can hold is refused where its literal is written, in `_literal`:
`ValueError: alpha = ... is too large for the float kernels`.

`compile_polys` compiles one stack to `evaluate(x1, x2, p1, p2, t1, t2,
lam, alpha)`, which returns one float per polynomial;
`dynamics.check_reparametrization_numeric` evaluates U_k and
2 lambda dU_k/dlambda through it.  Three kinds of generated function make up
an integration run:

- `compile_flows` turns the two Hamiltonian vector fields into the steppers'
  right-hand sides `rhs(s, x1, x2, p1, p2)`: one function per autonomous
  flow, and one closure per Pfaffian path segment with both fields and
  their guards written out inside it.  A stepper stage is one call, with no
  constant arguments passed and no field called through a wrapper.
- `compile_diagnostics` emits h1 and h2 once and det L once per
  spectral-parameter sample in one function that returns a whole
  diagnostics row.  The samples are float literals in its source.  The
  lambda-free prefix `c*x1*p2*p2` of each det L term is computed once per
  row and shared by the samples; lambda comes last in `VarId` order, so
  every chain keeps its order of operations, and the bytecode compiler
  folds a term in lambda alone (`2.0*0.5*0.5*0.5*0.5*0.5`) into its value.
  det L is real, so each eigenvalue +-sqrt(-det L) is real or imaginary:
  its two cells come from `math.sqrt`, and only a det L within 1e-300 of
  zero goes through `cmath.sqrt`, which gives the same bits.
- `compile_steppers` generates classic RK4 and the Dormand-Prince 5(4) pair
  from their coefficients: the DP45 tableau is data, and each stage rule is
  written once and expanded over the components y1 ... y4.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .algebra import LaurentPoly, Rational, VarId

__all__ = [
    "NonFiniteState", "SingularState", "StepSizeUnderflow",
    "compile_diagnostics", "compile_flows", "compile_polys", "compile_steppers",
]

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


class StepSizeUnderflow(RuntimeError):
    """The adaptive integrator could not meet the tolerance with any
    representable step (typically a finite-time blow-up)."""


def _is_finite(number: float) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an int too large for a float
        return False


def _shown(value, numbers: Sequence) -> str:
    """repr(value), or the bit length of the first of `numbers` that is an
    int no float can hold: its digits would fill the message, and past 4300
    of them CPython refuses to write it at all."""
    huge = [number for number in numbers if isinstance(number, int) and not _is_finite(number)]
    return f"an int of {huge[0].bit_length()} bits" if huge else repr(value)


def _finite_floats(what: str, value, numbers: Iterable) -> tuple[float, ...]:
    """`numbers` as floats, once each is found finite; the `ValueError` names
    `what` and `value` as given.  The check comes first, so a str is still
    refused (by `math.isfinite`, with `TypeError`) where `float` takes it.
    The one finiteness rule of the float layer: `hhlax.dynamics` checks its
    inputs with it too."""
    numbers = tuple(numbers)
    if not all(map(_is_finite, numbers)):
        raise ValueError(f"{what} must be finite, got {_shown(value, numbers)}")
    return tuple(map(float, numbers))


def _fold(alpha: float, polys: Iterable[LaurentPoly]) -> list[LaurentPoly]:
    """`polys` with the finite float `alpha` folded in exactly."""
    value = Rational(*_finite_floats("alpha", alpha, [alpha]))
    return [p.substitute_rational(VarId.ALPHA, value) for p in polys]


def _literal(coeff: Rational, alpha: float | None) -> str:
    """The float literal of `coeff`, a coefficient with `alpha` folded in
    (None: with none folded in).  The one float-range check of the fold: a
    folded coefficient that no float can hold refuses alpha.  An unfolded
    one keeps the OverflowError of `float`."""
    try:
        return repr(float(coeff))
    except OverflowError as exc:
        if alpha is None:
            raise
        raise ValueError(f"alpha = {alpha!r} is too large for the float kernels") from exc


def _chain(mono: Sequence[int], names: Sequence[str]) -> str:
    """`*x1*p2*p2`: one multiplication or division per unit of exponent.
    A lambda sample 1.0 is left out, since a product or quotient by 1.0 is
    exact."""
    parts = []
    for name, exp in zip(names, mono):
        if name == "1.0":
            continue
        op = "*" if exp > 0 else "/"
        parts.extend(f"{op}{name}" for _ in range(abs(exp)))
    return "".join(parts)


def _term(factor: str, chain: str) -> str:
    """`c*x1*p2`, and `x1*p2` for the factor `1.0`: a product with 1.0 is exact."""
    if factor == "1.0" and chain.startswith("*"):
        return chain[1:]
    return factor + chain


def _sum_source(target: str, terms: Sequence[str]) -> list[str]:
    lines = [f"    {target} = 0.0" + "".join(f" + {t}" for t in terms[:_TERMS_PER_LINE])]
    for start in range(_TERMS_PER_LINE, len(terms), _TERMS_PER_LINE):
        chunk = terms[start:start + _TERMS_PER_LINE]
        lines.append(f"    {target} = {target}" + "".join(f" + {t}" for t in chunk))
    return lines


def _poly_source(target: str, poly: LaurentPoly, names: Sequence[str], alpha: float | None) -> list[str]:
    terms = [_term(_literal(coeff, alpha), _chain(mono, names)) for mono, coeff in poly.sorted_terms()]
    return _sum_source(target, terms)


def _guard_source(polys: Sequence[LaurentPoly]) -> list[str]:
    """One guard per variable at a negative power in any of `polys`."""
    negative = {i for poly in polys for mono, _ in poly.items() for i, exp in enumerate(mono) if exp < 0}
    lines = []
    for name in (_ARGUMENTS[i] for i in sorted(negative)):
        lines.append(f"    if {-_SINGULAR_TOL!r} <= {name} <= {_SINGULAR_TOL!r}:")
        lines.append(f"        raise SingularState(f'{name} = {{{name}!r}} is on the singular set')")
    return lines


def _stack_source(polys: Sequence[LaurentPoly], prefix: str, alpha: float | None) -> list[str]:
    """The guard of the stack, then `{prefix}i = ...` for polynomial i."""
    lines = _guard_source(polys)
    for i, poly in enumerate(polys):
        lines += _poly_source(f"{prefix}{i}", poly, _ARGUMENTS, alpha)
    return lines


def _compile(lines: list[str], *names: str) -> tuple[Callable, ...]:
    namespace: dict = {error.__name__: error for error in (SingularState, NonFiniteState, StepSizeUnderflow)}
    exec(compile("\n".join(lines) + "\n", "<hhlax.kernels>", "exec"), namespace)
    # Popped, so that the functions and their globals form no reference
    # cycle and a dropped function is freed at once, without a cyclic
    # collection.
    return tuple(namespace.pop(name) for name in names)


def compile_polys(polys: Sequence[LaurentPoly]) -> Callable[..., tuple]:
    """`evaluate(x1, x2, p1, p2, t1, t2, lam, alpha)`, a stack of Laurent
    polynomials compiled to one function that returns a tuple with one float
    per polynomial.  A variable at a negative power within 1e-12 of zero
    raises SingularState.
    """
    lines = [f"def evaluate({', '.join(_ARGUMENTS)}):", *_stack_source(polys, "r", None)]
    lines.append(f"    return ({''.join(f'r{i}, ' for i in range(len(polys)))})")
    return _compile(lines, "evaluate")[0]


def compile_flows(
    field1: Sequence[LaurentPoly], field2: Sequence[LaurentPoly], alpha: float
) -> tuple[Callable[..., tuple], Callable[..., tuple], Callable[..., Callable]]:
    """The stepper right-hand sides of two vector fields (dx1, dx2, dp1, dp2)
    in x1, x2, p1, p2, t1, t2 and alpha, compiled together with the finite
    float `alpha` folded in exactly.  A field that depends on lambda is
    refused with ValueError, and so is an alpha that makes a folded
    coefficient too large for a float.

    Returns `(flow1, flow2, segment)`:

    - `flow_k(s, x1, x2, p1, p2, t1=0.0, t2=0.0)` is field k, with `s`
      ignored, so that it is the right-hand side of the autonomous flow k;
    - `segment(t1_start, t2_start, w1, w2)` returns `rhs(s, x1, x2, p1, p2)`
      = w1 * field1 + w2 * field2 at t = start + s * (w1, w2), summed as
      `r = 0.0; r += w1*f; r += w2*g`.  A zero weight skips its field, and
      with it that field's singular-set guard.
    """
    if any(p.depends_on(VarId.LAMBDA) for p in (*field1, *field2)):
        raise ValueError("a stepper field depends on x, t and alpha only, not on lambda")
    bodies = [_stack_source(_fold(alpha, polys), "f", alpha) for polys in (field1, field2)]
    lines = []
    for k, body in enumerate(bodies, 1):
        lines += [f"def flow{k}(s, x1, x2, p1, p2, t1=0.0, t2=0.0):", *body, "    return (f0, f1, f2, f3)"]
    lines += [
        "def segment(t1_start, t2_start, w1, w2):",
        "    def rhs(s, x1, x2, p1, p2):",
        "        t1 = t1_start + w1 * s",
        "        t2 = t2_start + w2 * s",
        "        r0 = r1 = r2 = r3 = 0.0",
    ]
    for k, body in enumerate(bodies, 1):
        lines.append(f"        if w{k}:")
        lines += ["        " + line for line in body]
        lines += [f"            r{i} += w{k} * f{i}" for i in range(4)]
    lines += ["        return (r0, r1, r2, r3)", "    return rhs"]
    return _compile(lines, "flow1", "flow2", "segment")


def _det_source(det: LaurentPoly, lams: Sequence[str], alpha: float | None) -> tuple[list[str], list[list[str]]]:
    """det L once per lambda sample, sharing each term's lambda-free prefix.

    Every term is a chain `c*x1*...*lam*lam` with lam last, so the prefix
    `q = c*x1*...` is computed once and each `d_j` term is `q*lam_j*...`:
    the same multiplications in the same order as the whole chain.  The
    samples are float literals, so a term free of x and t, such as
    `2.0*0.5*0.5*0.5*0.5*0.5`, is folded by the bytecode compiler into the
    float it evaluates to.
    """
    prefixes: dict[str, str] = {}
    lam_index = VarId.LAMBDA
    terms = []
    for mono, coeff in det.sorted_terms():
        prefix = _term(_literal(coeff, alpha), _chain(mono[:lam_index], _ARGUMENTS))
        if any(mono[:lam_index]):  # a bare coefficient stays a literal
            prefix = prefixes.setdefault(prefix, f"q{len(prefixes)}")
        terms.append((prefix, mono[lam_index]))
    shared = [f"    {name} = {source}" for source, name in prefixes.items()]
    per_lambda = [
        _sum_source(f"d{j}", [_term(prefix, _chain((exp,), (lam,))) for prefix, exp in terms])
        for j, lam in enumerate(lams)
    ]
    return shared, per_lambda


# A det L this far from zero has the square root of its negation computed
# in real arithmetic.  CPython's cmath.sqrt(complex(x)) with |x| >= 8*DBL_MIN
# computes 2*sqrt(|x|/8 + hypot(|x|/8, 0.0)): every step but the square root
# is exact, so it is the correctly rounded math.sqrt(|x|), with +0.0 as the
# other part.  The bound is far above 8*DBL_MIN (about 1.8e-307); zeros and
# subnormals keep cmath.sqrt.
_REAL_SQRT_MIN = 1e-300


def compile_diagnostics(
    h1: LaurentPoly, h2: LaurentPoly, det: LaurentPoly, alpha: float, lambdas: Sequence[float]
) -> Callable[..., list]:
    """`diag(s, t1, t2, (x1, x2, p1, p2))` -> the row `[s, t1, t2, x1, x2,
    p1, p2, h1, h2, re_0, im_0, re_1, im_1, ...]` with `re_j + i im_j =
    sqrt(-det L(lambdas[j]))`, for polynomials in x, t and alpha (det L also
    in lambda), with the finite float `alpha` folded in exactly.  The
    singular set of all three raises SingularState, and an h1, h2 or
    det L(lambda_j) that is not finite raises NonFiniteState.

    The finite lambda samples are written into the function as literals, so
    det L must have no negative power of lambda.  An h1 or h2 that depends
    on lambda is refused with ValueError, as `compile_flows` refuses such a
    field, and so is an alpha that makes a folded coefficient too large for
    a float.
    det L is real, so each eigenvalue cell pair is `(sqrt(-d), 0.0)` or
    `(0.0, sqrt(d))`, computed with `math.sqrt` unless |d| <= 1e-300.
    """
    lambdas = _finite_floats("lambda samples", tuple(lambdas), lambdas)
    h1, h2, det = _fold(alpha, (h1, h2, det))
    if h1.depends_on(VarId.LAMBDA) or h2.depends_on(VarId.LAMBDA):
        raise ValueError("h1 and h2 depend on x, t and alpha only, not on lambda")
    if det.degree_range(VarId.LAMBDA)[0] < 0:
        raise ValueError("det L has a negative power of lambda; the samples need a polynomial in lambda")
    lams = list(map(repr, lambdas))
    # The generated module imports cmath itself, so that processes that
    # never build diagnostics (the exact checks) do not load it.
    lines = ["from cmath import sqrt as csqrt", "from math import isfinite, sqrt", "def diag(s, t1, t2, y):"]
    lines += ["    x1, x2, p1, p2 = y", *_guard_source([h1, h2, det])]
    lines += _poly_source("h1", h1, _ARGUMENTS, alpha) + _poly_source("h2", h2, _ARGUMENTS, alpha)
    lines += [
        "    if not (isfinite(h1) and isfinite(h2)):",
        "        raise NonFiniteState(f'h1 = {h1!r}, h2 = {h2!r} are not finite at s = {s!r}')",
    ]
    row = "s, t1, t2, x1, x2, p1, p2, h1, h2"
    if lams:
        shared, per_lambda = _det_source(det, lams, alpha)
        lines += shared
        for j, (lam, det_lines) in enumerate(zip(lams, per_lambda)):
            lines += det_lines + [
                f"    if not isfinite(d{j}):",
                f"        raise NonFiniteState(f'det L({lam}) = {{d{j}!r}} is not finite at state {{y!r}}')",
                f"    if d{j} < {-_REAL_SQRT_MIN!r}:",
                f"        re{j} = sqrt(-d{j})",
                f"        im{j} = 0.0",
                f"    elif d{j} > {_REAL_SQRT_MIN!r}:",
                f"        re{j} = 0.0",
                f"        im{j} = sqrt(d{j})",
                "    else:",
                f"        e{j} = csqrt(complex(-d{j}))",
                f"        re{j} = e{j}.real",
                f"        im{j} = e{j}.imag",
            ]
            row += f", re{j}, im{j}"
    lines.append(f"    return [{row}]")
    return _compile(lines, "diag")[0]


# -- steppers ------------------------------------------------------------

# Dormand-Prince 5(4) tableau.  The last row of A equals the 5th-order
# weights B5, so the state passed to the seventh stage is the new state and
# that stage doubles as the first stage of the next step (FSAL).
_DP45_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP45_A = (
    (), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP45_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP45_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
# E = B5 - B4 weighs the embedded error estimate.  These are differences of
# the rounded weights: the exact differences round otherwise in four of the
# six nonzero weights, which would move every adaptive step.
_DP45_E = tuple(b5 - b4 for b5, b4 in zip(_DP45_B5, _DP45_B4))

# Names of the stage derivatives, and the phase-space components y1 ... y4.
_STAGES = "abcdefg"
_COMPONENTS = range(1, 5)


def _each(term: Callable[[int], str], sep: str = ", ") -> str:
    """`term(j)` for every component j, joined by `sep`."""
    return sep.join(map(term, _COMPONENTS))


def _vector(name: str) -> str:
    """`y1, y2, y3, y4` for `y`."""
    return _each(lambda j: f"{name}{j}")


def _combination(weights: Sequence[float], j: int) -> str:
    """`0.075*a1 + 0.225*b1`, leaving out zero weights and writing no 1.0."""
    return " + ".join(_term(repr(float(w)), f"*{k}{j}") for w, k in zip(weights, _STAGES) if w)


def _update(step: str, weights: Sequence[float]) -> str:
    """`y1 + h * (...), y2 + h * (...), ...` for the weighted stages."""
    return _each(lambda j: f"y{j} + {step} * ({_combination(weights, j)})")


def compile_steppers() -> tuple[Callable[..., list], Callable[..., list]]:
    """`rk4(rhs, s_end, y0, max_step)`, in ceil(s_end / max_step) equal
    steps, and `dp45(rhs, s_end, y0, tol, max_step)`.  Both
    integrate dy/ds = rhs(s, y1, y2, y3, y4) from s = 0 to s_end > 0 and
    return the accepted samples [(s, (y1, y2, y3, y4)), ...], endpoints
    included; a state that is not finite raises NonFiniteState.

    DP45 uses `tol` as both its absolute and its relative tolerance: each
    component's error is scaled by `tol + tol * max(|y|, |y_new|)`.  The
    sum is kept, since `tol * (1 + max)` rounds otherwise.

    RK4 keeps its own steps h/2, h and h/6 times (a + 2b + 2c + d): a
    tableau's h times weights 1/2 and 1/6 would round otherwise.
    """
    y, a, b, c, d, n, g = map(_vector, "yabcdng")
    finite = _each(lambda j: f"isfinite(y{j})", " and ")
    stages = "\n".join(
        f"        {_vector(k)} = rhs(s + {_term(repr(node), '*h')}, {_update('h', row)})"
        for k, node, row in zip(_STAGES[1:], _DP45_C[1:], _DP45_A[1:])
    )
    errors = _each(
        lambda j: f"h * ({_combination(_DP45_E, j)}) / (tol + tol * (m{j} if m{j} > u{j} else u{j}))"
    )
    source = f"""from math import ceil, isfinite, sqrt

def rk4(rhs, s_end, y0, max_step):
    n_steps = max(1, ceil(s_end / max_step))
    h = s_end / n_steps
    h2, h6 = h / 2, h / 6
    s = 0.0
    {y} = y0
    samples = [(0.0, y0)]
    for i in range(n_steps):
        {a} = rhs(s, {y})
        {b} = rhs(s + h2, {_update("h2", (1.0,))})
        {c} = rhs(s + h2, {_update("h2", (0.0, 1.0))})
        {d} = rhs(s + h, {_update("h", (0.0, 0.0, 1.0))})
        {y} = {_update("h6", (1.0, 2.0, 2.0, 1.0))}
        s = s_end if i == n_steps - 1 else (i + 1) * h
        y = ({y})
        if not ({finite}):
            raise NonFiniteState(f"state {{y!r}} is not finite at s = {{s!r}}")
        samples.append((s, y))
    return samples


def dp45(rhs, s_end, y0, tol, max_step):
    # Step-size control as in Hairer, Norsett & Wanner, Solving ODEs I,
    # section II.4: RMS error norm with mixed absolute/relative scale,
    # safety factor 0.9 and growth limited to [0.2, 5].  `max(a, b)` is
    # written `b if b > a else a` and `min(a, b)` as `b if b < a else a`:
    # the same result, ties and NaN included, without a builtin call.
    # Each stage, solution and error sum starts at its first term c*a: every
    # right-hand side returns +0.0, never -0.0 (its sums start from 0.0), and
    # each first weight (A21 ... A61, B1, E1) is positive, so
    # 0.0 + c*a == c*a, except where c*a underflows to -0.0 (a < 0 with
    # |a| < 2.1e-321); that sign shows only in a zero sum added to a -0.0.
    # A step shorter than 1e-14 of the span (or of 1) aborts the run unless
    # it ends the span: only a span shorter than that floor is one such step.
    h_min = 1e-14 * (s_end if s_end > 1.0 else 1.0)
    s = 0.0
    {y} = y0
    samples = [(0.0, y0)]
    h = max_step  # the clamp and is_last below make the first step
    {a} = rhs(s, {y})
    while s < s_end:
        h = max_step if max_step < h else h
        # A step that would leave less than h_min of the span becomes the
        # last one, instead of leaving a sliver no step can cover.
        is_last = s_end - s - h < h_min
        if is_last:
            h = s_end - s
        if h < h_min and not is_last:
            raise StepSizeUnderflow(f"step {{h!r}} below minimum near s = {{s!r}}")
{stages}
        {n} = {_update("h", _DP45_B5)}
        {g} = rhs(s + h, {n})
        {_vector("u")} = {_each(lambda j: f"abs(y{j})")}
        {_vector("m")} = {_each(lambda j: f"abs(n{j})")}
        {_vector("r")} = {errors}
        norm = sqrt(({_each(lambda j: f"r{j} * r{j}", " + ")}) / {len(_COMPONENTS)})
        if norm <= 1.0:
            s = s_end if is_last else s + h
            {y} = {n}
            if not ({finite}):
                raise NonFiniteState(f"state {{({y})!r}} is not finite at s = {{s!r}}")
            {a} = {g}  # FSAL: g was evaluated at (s, y)
            samples.append((s, ({y})))
            if norm == 0.0:
                factor = 5.0
            else:
                factor = 0.9 * norm**-0.2
                factor = factor if factor < 5.0 else 5.0
        else:
            # a still holds f(s, y); only shrink the step.
            factor = 0.9 * norm**-0.2
            factor = factor if factor > 0.2 else 0.2
            # The retry would leave a sliver (as would its clamp to max_step),
            # so is_last would stretch it back to this rejected step forever.
            if is_last and s_end - s - h * factor < h_min:
                raise StepSizeUnderflow(f"no step covers the last {{s_end - s!r}} of the span at s = {{s!r}}")
        h = h * factor
    return samples
"""
    return _compile([source], "rk4", "dp45")
