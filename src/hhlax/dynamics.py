"""Numerical integration of the autonomous and multi-time flows.

The autonomous flows are integrated in their own time; the non-autonomous
system is integrated as a Pfaffian system along piecewise-linear paths in
the (t1, t2) plane, each segment parameterized by arclength with the two
Hamiltonian fields combined by the segment direction.  Per-sample
diagnostics record the Hamiltonian values and eigenvalues of the Lax matrix
at configurable spectral-parameter samples; a trajectory keeps one row of
floats per sample, in the column order of its CSV/JSON export.

Integrators: classic fixed-step RK4 and an adaptive Dormand-Prince 5(4)
pair, both on plain 4-float tuples with the stage sums written out and the
step-size limits written as comparisons, not `min`/`max` calls.  Each stage
makes one call to a generated right-hand side of `hhlax.kernels`: the
field itself for an autonomous flow, and for a Pfaffian path segment a
closure with both fields written out inside it.  The diagnostics row is
generated as well.  The runtime value of alpha is folded exactly into the
polynomials beforehand.  The right-hand sides of one (model, alpha) and the
diagnostics row of one (model, alpha, lambdas) are compiled when first
asked for, each kept in a cache of at most 64 entries, so a snapshot
compiles no stepper and a sweep over alpha runs in bounded memory.  The
generated code refuses the x2 = 0 singular set itself.  A run keeps no
shared mutable state, so independent integrations may proceed in parallel.

Bad input is a `ValueError` raised where the value is made: `PhaseState`,
`TimePoint` and `IntegratorConfig` hold finite numbers only, so the functions
below check no number again (a raw alpha goes through `IntegratorConfig`).
An int state, time or duration becomes a float where a run starts, so every
cell of a trajectory row is a float.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import sub
from typing import Callable, Iterable, Sequence

from .algebra import LaurentPoly, VarId
from .kernels import CompiledPolySet, NonFiniteState, SingularState, compile_diagnostics, compile_flows
from .model import (
    hamiltonian_vector_field,
    hamiltonians,
    isomonodromy_deformation_term,
    lax_matrices,
)

__all__ = [
    "SingularState",
    "StepSizeUnderflow",
    "NonFiniteState",
    "PhaseState",
    "TimePoint",
    "Path",
    "IntegratorConfig",
    "TrajectorySample",
    "Trajectory",
    "flow_rhs",
    "snapshot",
    "integrate_autonomous",
    "integrate_pfaffian",
    "check_flow_commutation_numeric",
    "eigenvalue_samples",
    "check_reparametrization_numeric",
]

# A step shorter than this fraction of the span aborts the run.
_MIN_STEP_FRACTION = 1e-14
# The most steps one span may need: rk4-fixed takes ceil(span / max_step)
# steps and DP45, whose steps never exceed max_step either, at least as many.
_MAX_STEPS = 10**6
# Step in mu of the central difference in check_reparametrization_numeric.
_FD_STEP = 1e-6


class StepSizeUnderflow(RuntimeError):
    """The adaptive integrator could not meet the tolerance with any
    representable step (typically a finite-time blow-up)."""


# (x1, x2, p1, p2), the stepper's working form of a PhaseState.
State4 = tuple[float, float, float, float]


def _is_finite(number: float) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an int too large for a float
        return False


def _require_finite(what: str, value, numbers: Iterable[float]) -> None:
    if not all(map(_is_finite, numbers)):
        raise ValueError(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True)
class PhaseState:
    """A point (x1, x2, p1, p2) of phase space; every component is finite."""

    x1: float
    x2: float
    p1: float
    p2: float

    def __post_init__(self):
        _require_finite("state", self, vars(self).values())


@dataclass(frozen=True)
class TimePoint:
    """A point (t1, t2) of the time plane; both times are finite."""

    t1: float
    t2: float

    def __post_init__(self):
        _require_finite("time", self, vars(self).values())


@dataclass(frozen=True)
class Path:
    """Piecewise-linear route in the (t1, t2) plane."""

    waypoints: tuple[TimePoint, ...]

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("a path needs at least 2 waypoints")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "Path":
        try:
            return cls(tuple(TimePoint(float(a), float(b)) for a, b in pairs))
        except OverflowError:
            raise ValueError("time must be finite, got a number too large for a float") from None

    def segments(self) -> Iterable[tuple[TimePoint, TimePoint]]:
        return zip(self.waypoints, self.waypoints[1:])


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    `max_step` doubles as the fixed step of the rk4-fixed method.  `lambdas`
    are the spectral-parameter samples for the eigenvalue diagnostics.
    """

    method: str = "rk45-adaptive"
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_step: float = 0.01
    alpha: float = 0.0
    lambdas: tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self):
        if self.method not in ("rk4-fixed", "rk45-adaptive"):
            raise ValueError(f"unknown method {self.method!r}")
        # A NaN max_step never advances the stepper, and an infinite
        # tolerance accepts any step.
        for name in ("abs_tol", "rel_tol", "max_step", "alpha"):
            _require_finite(name, getattr(self, name), [getattr(self, name)])
        _require_finite("lambdas", self.lambdas, self.lambdas)
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")


@dataclass(frozen=True)
class TrajectorySample:
    s: float
    t: TimePoint
    state: PhaseState
    h1: float
    h2: float
    eigenvalues: tuple[complex, ...]


# Row layout: s, t1, t2, x1, x2, p1, p2, h1, h2, then re, im per lambda.
_H1, _H2, _EIG = 7, 8, 9


def _sample(row: list[float]) -> TrajectorySample:
    eigenvalues = tuple(complex(row[j], row[j + 1]) for j in range(_EIG, len(row), 2))
    return TrajectorySample(
        row[0], TimePoint(row[1], row[2]), PhaseState(*row[3:7]), row[_H1], row[_H2], eigenvalues
    )


def _drift(column: tuple[float, ...]) -> float:
    """The largest abs(value - first value) of a column."""
    return max(map(abs, map(sub, column, repeat(column[0]))))


def _eigenvalue_drift(columns: list[tuple[float, ...]]) -> float:
    """The largest abs(complex(re, im) - first) over the eigenvalue columns
    (re, im, re, im, ...), 0.0 with none.

    det L is real, so an eigenvalue is typically real or imaginary all along
    a trajectory, and one of its two columns keeps its first value.  The
    difference in that column is then +-0.0, and abs(complex(delta, +-0.0))
    is abs(delta): the drift of the other column, bit for bit.
    """
    drift = 0.0
    for re, im in zip(columns[::2], columns[1::2]):
        if im.count(im[0]) == len(im):
            pair = _drift(re)
        elif re.count(re[0]) == len(re):
            pair = _drift(im)
        else:
            pair = max(map(abs, map(sub, map(complex, re, im), repeat(complex(re[0], im[0])))))
        drift = pair if pair > drift else drift
    return drift


def _lambda_label(lam: float) -> str:
    """`lam` to 6 significant digits when that reads back as `lam`, else its
    round-trip repr, so that distinct lambdas never share a column name."""
    text = f"{lam:g}"
    return text if float(text) == lam else repr(float(lam))


class _Samples(Sequence[TrajectorySample]):
    """A trajectory's rows as TrajectorySample objects, each built when read."""

    def __init__(self, rows: list[list[float]]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_sample(row) for row in self._rows[index]]
        return _sample(self._rows[index])


@dataclass
class Trajectory:
    """One row per sample, in the column order of `column_names()`."""

    _rows: list[list[float]]
    lambdas: tuple[float, ...] = (0.5, 1.0, 2.0)

    @property
    def samples(self) -> Sequence[TrajectorySample]:
        return _Samples(self._rows)

    def summary(self) -> dict:
        """The sample count and the largest drift of h1, h2 and the
        eigenvalues from their first values."""
        columns = list(zip(*self._rows))
        return {
            "samples": len(self._rows),
            "h1_drift": _drift(columns[_H1]),
            "h2_drift": _drift(columns[_H2]),
            "eigenvalue_drift": _eigenvalue_drift(columns[_EIG:]),
        }

    # -- export ---------------------------------------------------------

    def column_names(self) -> list[str]:
        names = ["s", "t1", "t2", "x1", "x2", "p1", "p2", "h1", "h2"]
        for lam in self.lambdas:
            label = _lambda_label(lam)
            names += [f"eig_re_{label}", f"eig_im_{label}"]
        return names

    def rows(self) -> Sequence[list[float]]:
        """The stored rows themselves (not copies)."""
        return self._rows

    def write_csv(self, stream) -> None:
        import csv

        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(self.column_names())
        for row in self._rows:
            writer.writerow(map(repr, row))

    def write_json(self, stream) -> dict:
        """Writes the columns, the rows (the stored lists themselves) and
        the summary as one JSON object, and returns that dict."""
        import json

        payload = {"columns": self.column_names(), "rows": self._rows, "summary": self.summary()}
        json.dump(payload, stream, indent=1)
        stream.write("\n")
        return payload


# -- generated right-hand sides and diagnostics ---------------------------

# rhs(s, x1, x2, p1, p2) -> (dx1, dx2, dp1, dp2), the stepper's right-hand side
Rhs = Callable[[float, float, float, float, float], State4]
# flow(s, x1, x2, p1, p2, t1=0.0, t2=0.0) -> Y_k, an Rhs of the autonomous flow k
Flow = Callable[..., State4]
# segment(t1_start, t2_start, w1, w2) -> the Rhs w1 * Y_1 + w2 * Y_2 along
# t = start + s * (w1, w2)
Segment = Callable[[float, float, float, float], Rhs]
# diag(s, t1, t2, (x1, x2, p1, p2)) -> one trajectory row
Diagnostics = Callable[..., list]


def _fold(alpha: float, polys: Iterable[LaurentPoly]) -> list[LaurentPoly]:
    # Fraction(float) is exact, so folding loses nothing and alpha = 0
    # removes the singular terms, and with them the generated guard.
    value = Fraction(alpha)
    return [p.substitute_rational(VarId.ALPHA, value) for p in polys]


@contextmanager
def _float_range(alpha: float):
    try:
        yield
    except OverflowError as exc:  # a folded coefficient beyond the float range
        raise ValueError(f"alpha = {alpha!r} is too large for the float kernels") from exc


@lru_cache(maxsize=64)
def _flows(deformed: bool, alpha: float) -> tuple[Flow, Flow, Segment]:
    """The generated right-hand sides of Y_1, Y_2 and of a path segment of
    one model, with alpha (a float) folded in."""
    hams = hamiltonians(deformed)
    with _float_range(alpha):
        return compile_flows(*(_fold(alpha, hamiltonian_vector_field(h).components) for h in (hams.h1, hams.h2)))


@lru_cache(maxsize=64)
def _diagnostics(deformed: bool, alpha: float, lambdas: tuple[float, ...]) -> Diagnostics:
    """The generated diagnostics row of one model, alpha and set of lambda
    samples (floats), with alpha folded in."""
    hams = hamiltonians(deformed)
    with _float_range(alpha):
        return compile_diagnostics(*_fold(alpha, (hams.h1, hams.h2, lax_matrices(deformed).L.det())), lambdas)


def _initial_state(state: PhaseState) -> State4:
    return (float(state.x1), float(state.x2), float(state.p1), float(state.p2))


def _initial_time(t: TimePoint) -> tuple[float, float]:
    return (float(t.t1), float(t.t2))


def flow_rhs(
    deformed: bool, k: int, state: PhaseState, t: TimePoint, alpha: float
) -> tuple[float, float, float, float]:
    """Numeric right-hand side of flow k at (state, t).

    Generated from the symbolic Hamiltonian vector field, so it agrees with
    the model layer by construction.
    """
    if k not in (1, 2):
        raise ValueError("flow index must be 1 or 2")
    flow = _flows(deformed, float(IntegratorConfig(alpha=alpha).alpha))[k - 1]
    return flow(0.0, *_initial_state(state), *_initial_time(t))


# -- steppers ------------------------------------------------------------

# Dormand-Prince 5(4) tableau.  The last row of A equals the 5th-order
# weights B5, so the state passed to the seventh stage is the new state and
# that stage doubles as the first stage of the next step (FSAL).  E = B5 - B4
# weighs the embedded error estimate; B5[1], B5[6] and E[1] are zero and
# their terms are left out of the sums.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    35 / 384 - 5179 / 57600,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 - -92097 / 339200,
    11 / 84 - 187 / 2100,
    0.0 - 1 / 40,
)

def _non_finite(s: float, y: State4) -> NonFiniteState:
    return NonFiniteState(f"state {y!r} is not finite at s = {s!r}")


def _integrate_rk4(rhs: Rhs, s_end: float, y0: State4, max_step: float) -> list[tuple[float, State4]]:
    isfinite = math.isfinite
    n_steps = max(1, math.ceil(s_end / max_step))
    h = s_end / n_steps
    h2, h6 = h / 2, h / 6
    s = 0.0
    y1, y2, y3, y4 = y0
    samples = [(0.0, y0)]
    for i in range(n_steps):
        a1, a2, a3, a4 = rhs(s, y1, y2, y3, y4)
        b1, b2, b3, b4 = rhs(s + h2, y1 + h2 * a1, y2 + h2 * a2, y3 + h2 * a3, y4 + h2 * a4)
        c1, c2, c3, c4 = rhs(s + h2, y1 + h2 * b1, y2 + h2 * b2, y3 + h2 * b3, y4 + h2 * b4)
        d1, d2, d3, d4 = rhs(s + h, y1 + h * c1, y2 + h * c2, y3 + h * c3, y4 + h * c4)
        y1 = y1 + h6 * (a1 + 2 * b1 + 2 * c1 + d1)
        y2 = y2 + h6 * (a2 + 2 * b2 + 2 * c2 + d2)
        y3 = y3 + h6 * (a3 + 2 * b3 + 2 * c3 + d3)
        y4 = y4 + h6 * (a4 + 2 * b4 + 2 * c4 + d4)
        s = s_end if i == n_steps - 1 else (i + 1) * h
        y = (y1, y2, y3, y4)
        if not (isfinite(y1) and isfinite(y2) and isfinite(y3) and isfinite(y4)):
            raise _non_finite(s, y)
        samples.append((s, y))
    return samples


def _integrate_dp45(rhs: Rhs, s_end: float, y0: State4, cfg: IntegratorConfig) -> list[tuple[float, State4]]:
    # Step-size control as in Hairer, Norsett & Wanner, Solving ODEs I,
    # section II.4: RMS error norm with mixed absolute/relative scale,
    # safety factor 0.9 and growth limited to [0.2, 5].  `max(a, b)` is
    # written `b if b > a else a` and `min(a, b)` as `b if b < a else a`:
    # the same result, ties and NaN included, without a builtin call.
    # Each stage, solution and error sum starts at its first term c*a: every
    # right-hand side returns +0.0, never -0.0 (its sums start from 0.0), and
    # each first coefficient (_A21 ... _A61, _B1, _E1) is positive, so
    # 0.0 + c*a == c*a, except where c*a underflows to -0.0 (a < 0 with
    # |a| < 2.1e-321); that sign shows only in a zero sum added to a -0.0.
    isfinite, sqrt = math.isfinite, math.sqrt
    abs_tol, rel_tol, max_step = cfg.abs_tol, cfg.rel_tol, cfg.max_step
    h_min = _MIN_STEP_FRACTION * max(1.0, s_end)
    s = 0.0
    y1, y2, y3, y4 = y0
    samples = [(0.0, y0)]
    h = max_step  # the clamp and is_last below make the first step
    a1, a2, a3, a4 = rhs(s, y1, y2, y3, y4)
    while s < s_end:
        h = max_step if max_step < h else h
        # A step that would leave less than h_min of the span becomes the
        # last one, instead of leaving a sliver no step can cover.
        is_last = s_end - s - h < h_min
        if is_last:
            h = s_end - s
        if h < h_min:
            raise StepSizeUnderflow(f"step {h!r} below minimum near s = {s!r}")
        b1, b2, b3, b4 = rhs(
            s + _C2 * h,
            y1 + h * (_A21 * a1),
            y2 + h * (_A21 * a2),
            y3 + h * (_A21 * a3),
            y4 + h * (_A21 * a4),
        )
        c1, c2, c3, c4 = rhs(
            s + _C3 * h,
            y1 + h * (_A31 * a1 + _A32 * b1),
            y2 + h * (_A31 * a2 + _A32 * b2),
            y3 + h * (_A31 * a3 + _A32 * b3),
            y4 + h * (_A31 * a4 + _A32 * b4),
        )
        d1, d2, d3, d4 = rhs(
            s + _C4 * h,
            y1 + h * (_A41 * a1 + _A42 * b1 + _A43 * c1),
            y2 + h * (_A41 * a2 + _A42 * b2 + _A43 * c2),
            y3 + h * (_A41 * a3 + _A42 * b3 + _A43 * c3),
            y4 + h * (_A41 * a4 + _A42 * b4 + _A43 * c4),
        )
        e1, e2, e3, e4 = rhs(
            s + _C5 * h,
            y1 + h * (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1),
            y2 + h * (_A51 * a2 + _A52 * b2 + _A53 * c2 + _A54 * d2),
            y3 + h * (_A51 * a3 + _A52 * b3 + _A53 * c3 + _A54 * d3),
            y4 + h * (_A51 * a4 + _A52 * b4 + _A53 * c4 + _A54 * d4),
        )
        f1, f2, f3, f4 = rhs(
            s + h,
            y1 + h * (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1 + _A65 * e1),
            y2 + h * (_A61 * a2 + _A62 * b2 + _A63 * c2 + _A64 * d2 + _A65 * e2),
            y3 + h * (_A61 * a3 + _A62 * b3 + _A63 * c3 + _A64 * d3 + _A65 * e3),
            y4 + h * (_A61 * a4 + _A62 * b4 + _A63 * c4 + _A64 * d4 + _A65 * e4),
        )
        n1 = y1 + h * (_B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * f1)
        n2 = y2 + h * (_B1 * a2 + _B3 * c2 + _B4 * d2 + _B5 * e2 + _B6 * f2)
        n3 = y3 + h * (_B1 * a3 + _B3 * c3 + _B4 * d3 + _B5 * e3 + _B6 * f3)
        n4 = y4 + h * (_B1 * a4 + _B3 * c4 + _B4 * d4 + _B5 * e4 + _B6 * f4)
        g1, g2, g3, g4 = rhs(s + h, n1, n2, n3, n4)
        u1, u2, u3, u4 = abs(y1), abs(y2), abs(y3), abs(y4)
        m1, m2, m3, m4 = abs(n1), abs(n2), abs(n3), abs(n4)
        r1 = h * (_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * f1 + _E7 * g1) / (
            abs_tol + rel_tol * (m1 if m1 > u1 else u1)
        )
        r2 = h * (_E1 * a2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * f2 + _E7 * g2) / (
            abs_tol + rel_tol * (m2 if m2 > u2 else u2)
        )
        r3 = h * (_E1 * a3 + _E3 * c3 + _E4 * d3 + _E5 * e3 + _E6 * f3 + _E7 * g3) / (
            abs_tol + rel_tol * (m3 if m3 > u3 else u3)
        )
        r4 = h * (_E1 * a4 + _E3 * c4 + _E4 * d4 + _E5 * e4 + _E6 * f4 + _E7 * g4) / (
            abs_tol + rel_tol * (m4 if m4 > u4 else u4)
        )
        norm = sqrt((r1 * r1 + r2 * r2 + r3 * r3 + r4 * r4) / 4)
        if norm <= 1.0:
            s = s_end if is_last else s + h
            y1, y2, y3, y4 = n1, n2, n3, n4
            if not (isfinite(y1) and isfinite(y2) and isfinite(y3) and isfinite(y4)):
                raise _non_finite(s, (y1, y2, y3, y4))
            a1, a2, a3, a4 = g1, g2, g3, g4  # FSAL: g was evaluated at (s, y)
            samples.append((s, (y1, y2, y3, y4)))
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
                raise StepSizeUnderflow(f"no step covers the last {s_end - s!r} of the span at s = {s!r}")
        h = h * factor
    return samples


def _check_step_budget(span: float, max_step: float) -> None:
    if span / max_step > _MAX_STEPS:
        raise ValueError(f"a span of {span!r} needs more than {_MAX_STEPS} steps of at most {max_step!r}")


def _integrate_ode(rhs: Rhs, s_end: float, y0: State4, cfg: IntegratorConfig) -> list[tuple[float, State4]]:
    """Integrate dy/ds = rhs(s, *y) from s = 0 to s_end >= 0.

    Returns the accepted samples, endpoints included.
    """
    if s_end == 0.0:
        return [(0.0, y0)]
    if cfg.method == "rk4-fixed":
        return _integrate_rk4(rhs, s_end, y0, cfg.max_step)
    return _integrate_dp45(rhs, s_end, y0, cfg)


# -- public integration ---------------------------------------------------


def snapshot(
    deformed: bool, state: PhaseState, t: TimePoint, cfg: IntegratorConfig | None = None
) -> Trajectory:
    """Single-sample trajectory: the diagnostics of one (state, t) point."""
    cfg = cfg or IntegratorConfig()
    diag = _diagnostics(deformed, float(cfg.alpha), tuple(map(float, cfg.lambdas)))
    return Trajectory([diag(0.0, *_initial_time(t), _initial_state(state))], cfg.lambdas)


def integrate_autonomous(
    k: int, state0: PhaseState, duration: float, cfg: IntegratorConfig | None = None
) -> Trajectory:
    """Integrate the autonomous flow k for `duration` (>= 0, finite).

    The trajectory records h1, h2 and the Lax eigenvalue samples at every
    accepted step; for the autonomous system all of them are conserved.
    """
    cfg = cfg or IntegratorConfig()
    if k not in (1, 2):
        raise ValueError("flow index must be 1 or 2")
    if not _is_finite(duration) or duration < 0:
        raise ValueError("duration must be finite and nonnegative")
    y0, duration = _initial_state(state0), float(duration)
    _check_step_budget(duration, cfg.max_step)
    flow1, flow2, _ = _flows(False, float(cfg.alpha))
    diag = _diagnostics(False, float(cfg.alpha), tuple(map(float, cfg.lambdas)))
    steps = _integrate_ode(flow1 if k == 1 else flow2, duration, y0, cfg)
    return Trajectory([diag(s, s if k == 1 else 0.0, s if k == 2 else 0.0, y) for s, y in steps], cfg.lambdas)


def integrate_pfaffian(
    state0: PhaseState,
    t0: TimePoint,
    path: Path,
    cfg: IntegratorConfig | None = None,
    deformed: bool = True,
) -> Trajectory:
    """Integrate d(state) = Y_1 dt1 + Y_2 dt2 along a piecewise-linear path.

    Each segment is one ODE in its arclength, with the combined right-hand
    side weighted by the segment direction.  With `deformed=False` the
    autonomous fields are used instead (their flows commute, so the same
    path independence holds).
    """
    cfg = cfg or IntegratorConfig()
    if path.waypoints[0] != t0:
        raise ValueError("path must start at t0")
    y = _initial_state(state0)
    for start, stop in path.segments():
        _check_step_budget(math.hypot(stop.t1 - start.t1, stop.t2 - start.t2), cfg.max_step)
    segment = _flows(deformed, float(cfg.alpha))[2]
    diag = _diagnostics(deformed, float(cfg.alpha), tuple(map(float, cfg.lambdas)))

    s_offset = 0.0
    raw: list[tuple[float, float, float, State4]] = [(0.0, *_initial_time(t0), y)]
    for start, stop in path.segments():
        d1, d2 = stop.t1 - start.t1, stop.t2 - start.t2
        length = math.hypot(d1, d2)
        steps = _integrate_ode(segment(start.t1, start.t2, d1 / length, d2 / length), length, y, cfg)
        for s, y_step in steps[1:]:
            fraction = s / length
            raw.append((s_offset + s, start.t1 + d1 * fraction, start.t2 + d2 * fraction, y_step))
        y = steps[-1][1]
        s_offset += length
    return Trajectory([diag(s, t1v, t2v, y) for s, t1v, t2v, y in raw], cfg.lambdas)


def check_flow_commutation_numeric(
    state0: PhaseState, s: float, u: float, cfg: IntegratorConfig | None = None
) -> float:
    """Max-norm distance between the two compositions of the autonomous flows."""
    cfg = cfg or IntegratorConfig()
    first = integrate_autonomous(1, state0, s, cfg).samples[-1].state
    one_then_two = integrate_autonomous(2, first, u, cfg).samples[-1].state
    second = integrate_autonomous(2, state0, u, cfg).samples[-1].state
    two_then_one = integrate_autonomous(1, second, s, cfg).samples[-1].state
    a, b = one_then_two, two_then_one
    return max(abs(a.x1 - b.x1), abs(a.x2 - b.x2), abs(a.p1 - b.p1), abs(a.p2 - b.p2))


def eigenvalue_samples(
    deformed: bool,
    state: PhaseState,
    t: TimePoint,
    alpha: float,
    lambdas: Sequence[float],
) -> list[tuple[complex, complex]]:
    """Eigenvalue pairs +-sqrt(-det L(lambda_j)) of the traceless Lax matrix."""
    cfg = IntegratorConfig(alpha=alpha, lambdas=tuple(lambdas))
    roots = snapshot(deformed, state, t, cfg).samples[0].eigenvalues
    return [(root, -root) for root in roots]


def check_reparametrization_numeric(
    k: int,
    state: PhaseState,
    t: TimePoint,
    mu_samples: Sequence[float],
) -> float:
    """Residual of the chain rule under lambda -> exp(2 mu).

    Compares a central finite difference of U_k(exp(2 mu)) in mu against the
    symbolic 2 lambda dU_k/dlambda evaluated at lambda = exp(2 mu); a small
    residual confirms the deformation term turns into a plain mu-derivative
    after the reparametrization.
    """
    u_matrix = lax_matrices(True).flow_matrix(k)
    target_matrix = isomonodromy_deformation_term(u_matrix)
    # U_k is free of alpha and of negative powers, so its kernel has no guard.
    evaluate = CompiledPolySet([*u_matrix.entries(), *target_matrix.entries()]).evaluate
    point = (state.x1, state.x2, state.p1, state.p2, t.t1, t.t2)
    worst = 0.0
    for mu in mu_samples:
        plus = evaluate(*point, math.exp(2 * (mu + _FD_STEP)), 0.0)[:4]
        minus = evaluate(*point, math.exp(2 * (mu - _FD_STEP)), 0.0)[:4]
        exact = evaluate(*point, math.exp(2 * mu), 0.0)[4:]
        for p, m, e in zip(plus, minus, exact):
            worst = max(worst, abs((p - m) / (2 * _FD_STEP) - e))
    return worst
