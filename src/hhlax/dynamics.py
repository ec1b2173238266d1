"""Numerical integration of the autonomous and multi-time flows.

The autonomous flows are integrated in their own time; the non-autonomous
system is integrated as a Pfaffian system along piecewise-linear paths in
the (t1, t2) plane, each segment parameterized by arclength with the two
Hamiltonian fields combined by the segment direction.  Per-sample
diagnostics record the Hamiltonian values and eigenvalues of the Lax matrix
at configurable spectral-parameter samples.

Integrators: classic fixed-step RK4 and an adaptive Dormand-Prince 5(4)
pair, both on plain 4-float tuples with the stage sums written out.
Right-hand sides and diagnostics are the generated functions of
`hhlax.kernels`, with the runtime value of alpha folded exactly into the
polynomials beforehand; the generated code refuses the x2 = 0 singular set
itself.  A run keeps no shared mutable state, so independent integrations
may proceed in parallel.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .algebra import LaurentPoly, VarId, substitute_numeric
from .kernels import CompiledPolySet, SingularState
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


class StepSizeUnderflow(RuntimeError):
    """The adaptive integrator could not meet the tolerance with any
    representable step (typically a finite-time blow-up)."""


class NonFiniteState(RuntimeError):
    """A step was accepted with an infinite or NaN state component
    (a fixed step stepping through a blow-up)."""


# (x1, x2, p1, p2), the stepper's working form of a PhaseState.
State4 = tuple[float, float, float, float]


@dataclass(frozen=True)
class PhaseState:
    x1: float
    x2: float
    p1: float
    p2: float


@dataclass(frozen=True)
class TimePoint:
    t1: float
    t2: float


@dataclass(frozen=True)
class Path:
    """Piecewise-linear route in the (t1, t2) plane."""

    waypoints: tuple[TimePoint, ...]

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("a path needs at least 2 waypoints")
        for point in self.waypoints:
            if not (math.isfinite(point.t1) and math.isfinite(point.t2)):
                raise ValueError(f"waypoints must be finite, got {point}")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "Path":
        return cls(tuple(TimePoint(float(a), float(b)) for a, b in pairs))

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
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not all(math.isfinite(lam) for lam in self.lambdas):
            raise ValueError(f"lambdas must be finite, got {self.lambdas!r}")
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


@dataclass
class Trajectory:
    samples: list[TrajectorySample]
    lambdas: tuple[float, ...] = (0.5, 1.0, 2.0)

    @property
    def final_state(self) -> PhaseState:
        return self.samples[-1].state

    @property
    def final_time(self) -> TimePoint:
        return self.samples[-1].t

    def h1_drift(self) -> float:
        first = self.samples[0].h1
        return max(abs(sample.h1 - first) for sample in self.samples)

    def h2_drift(self) -> float:
        first = self.samples[0].h2
        return max(abs(sample.h2 - first) for sample in self.samples)

    def eigenvalue_drift(self) -> float:
        first = self.samples[0].eigenvalues
        if not first:
            return 0.0
        return max(
            abs(value - ref)
            for sample in self.samples
            for value, ref in zip(sample.eigenvalues, first)
        )

    def summary(self) -> dict:
        return {
            "samples": len(self.samples),
            "h1_drift": self.h1_drift(),
            "h2_drift": self.h2_drift(),
            "eigenvalue_drift": self.eigenvalue_drift(),
        }

    # -- export ---------------------------------------------------------

    def column_names(self) -> list[str]:
        names = ["s", "t1", "t2", "x1", "x2", "p1", "p2", "h1", "h2"]
        for lam in self.lambdas:
            names.append(f"eig_re_{lam:g}")
            names.append(f"eig_im_{lam:g}")
        return names

    def rows(self) -> Iterable[list[float]]:
        for sample in self.samples:
            row = [
                sample.s,
                sample.t.t1,
                sample.t.t2,
                sample.state.x1,
                sample.state.x2,
                sample.state.p1,
                sample.state.p2,
                sample.h1,
                sample.h2,
            ]
            for value in sample.eigenvalues:
                row.append(value.real)
                row.append(value.imag)
            yield row

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(self.column_names())
        for row in self.rows():
            writer.writerow([repr(value) for value in row])

    def to_json_dict(self) -> dict:
        return {
            "columns": self.column_names(),
            "rows": [list(row) for row in self.rows()],
            "summary": self.summary(),
        }

    def write_json(self, stream) -> None:
        json.dump(self.to_json_dict(), stream, indent=1)
        stream.write("\n")


# -- generated right-hand sides and diagnostics ---------------------------

# evaluate(x1, x2, p1, p2, t1, t2, lam, alpha) -> one float per polynomial
Evaluate = Callable[..., tuple[float, ...]]


class _Tables(NamedTuple):
    field1: Evaluate  # Y_1, 4 components
    field2: Evaluate  # Y_2, 4 components
    hamiltonians: Evaluate  # (h1, h2)
    det: Evaluate  # (det L(lambda),)


@lru_cache(maxsize=None)
def _tables(deformed: bool, alpha: float) -> _Tables:
    """The generated functions of one model with alpha folded in."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    # Fraction(float) is exact, so folding loses nothing and alpha = 0
    # removes the singular terms, and with them the generated guard.
    value = Fraction(alpha)

    def compile_folded(polys: Iterable[LaurentPoly]) -> Evaluate:
        return CompiledPolySet([p.substitute_rational(VarId.ALPHA, value) for p in polys]).evaluate

    hams = hamiltonians(deformed)
    try:
        return _Tables(
            compile_folded(hamiltonian_vector_field(hams.h1).components),
            compile_folded(hamiltonian_vector_field(hams.h2).components),
            compile_folded((hams.h1, hams.h2)),
            compile_folded((lax_matrices(deformed).L.det(),)),
        )
    except OverflowError as exc:  # a folded coefficient beyond the float range
        raise ValueError(f"alpha = {alpha!r} is too large for the float kernels") from exc


def _initial_state(state: PhaseState) -> State4:
    y = (float(state.x1), float(state.x2), float(state.p1), float(state.p2))
    if not all(math.isfinite(value) for value in y):
        raise ValueError(f"state must be finite, got {state}")
    return y


def flow_rhs(
    deformed: bool, k: int, state: PhaseState, t: TimePoint, alpha: float
) -> tuple[float, float, float, float]:
    """Numeric right-hand side of flow k at (state, t).

    Generated from the symbolic Hamiltonian vector field, so it agrees with
    the model layer by construction.
    """
    if k not in (1, 2):
        raise ValueError("flow index must be 1 or 2")
    tables = _tables(deformed, float(alpha))
    field = tables.field1 if k == 1 else tables.field2
    return field(state.x1, state.x2, state.p1, state.p2, t.t1, t.t2, 1.0, alpha)


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

# rhs(s, x1, x2, p1, p2) -> (dx1, dx2, dp1, dp2)
Rhs = Callable[[float, float, float, float, float], State4]


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
    # safety factor 0.9 and growth limited to [0.2, 5].
    isfinite, sqrt = math.isfinite, math.sqrt
    abs_tol, rel_tol, max_step = cfg.abs_tol, cfg.rel_tol, cfg.max_step
    h_min = _MIN_STEP_FRACTION * max(1.0, s_end)
    s = 0.0
    y1, y2, y3, y4 = y0
    samples = [(0.0, y0)]
    h = min(max_step, s_end)
    a1, a2, a3, a4 = rhs(s, y1, y2, y3, y4)
    while s < s_end:
        h = min(h, max_step)
        # A step that would leave less than h_min of the span becomes the
        # last one, instead of leaving a sliver no step can cover.
        is_last = s_end - s - h < h_min
        if is_last:
            h = s_end - s
        if h < h_min:
            raise StepSizeUnderflow(f"step {h!r} below minimum near s = {s!r}")
        b1, b2, b3, b4 = rhs(
            s + _C2 * h,
            y1 + h * (0.0 + _A21 * a1),
            y2 + h * (0.0 + _A21 * a2),
            y3 + h * (0.0 + _A21 * a3),
            y4 + h * (0.0 + _A21 * a4),
        )
        c1, c2, c3, c4 = rhs(
            s + _C3 * h,
            y1 + h * (0.0 + _A31 * a1 + _A32 * b1),
            y2 + h * (0.0 + _A31 * a2 + _A32 * b2),
            y3 + h * (0.0 + _A31 * a3 + _A32 * b3),
            y4 + h * (0.0 + _A31 * a4 + _A32 * b4),
        )
        d1, d2, d3, d4 = rhs(
            s + _C4 * h,
            y1 + h * (0.0 + _A41 * a1 + _A42 * b1 + _A43 * c1),
            y2 + h * (0.0 + _A41 * a2 + _A42 * b2 + _A43 * c2),
            y3 + h * (0.0 + _A41 * a3 + _A42 * b3 + _A43 * c3),
            y4 + h * (0.0 + _A41 * a4 + _A42 * b4 + _A43 * c4),
        )
        e1, e2, e3, e4 = rhs(
            s + _C5 * h,
            y1 + h * (0.0 + _A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1),
            y2 + h * (0.0 + _A51 * a2 + _A52 * b2 + _A53 * c2 + _A54 * d2),
            y3 + h * (0.0 + _A51 * a3 + _A52 * b3 + _A53 * c3 + _A54 * d3),
            y4 + h * (0.0 + _A51 * a4 + _A52 * b4 + _A53 * c4 + _A54 * d4),
        )
        f1, f2, f3, f4 = rhs(
            s + h,
            y1 + h * (0.0 + _A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1 + _A65 * e1),
            y2 + h * (0.0 + _A61 * a2 + _A62 * b2 + _A63 * c2 + _A64 * d2 + _A65 * e2),
            y3 + h * (0.0 + _A61 * a3 + _A62 * b3 + _A63 * c3 + _A64 * d3 + _A65 * e3),
            y4 + h * (0.0 + _A61 * a4 + _A62 * b4 + _A63 * c4 + _A64 * d4 + _A65 * e4),
        )
        n1 = y1 + h * (0.0 + _B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * f1)
        n2 = y2 + h * (0.0 + _B1 * a2 + _B3 * c2 + _B4 * d2 + _B5 * e2 + _B6 * f2)
        n3 = y3 + h * (0.0 + _B1 * a3 + _B3 * c3 + _B4 * d3 + _B5 * e3 + _B6 * f3)
        n4 = y4 + h * (0.0 + _B1 * a4 + _B3 * c4 + _B4 * d4 + _B5 * e4 + _B6 * f4)
        g1, g2, g3, g4 = rhs(s + h, n1, n2, n3, n4)
        r1 = h * (0.0 + _E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * f1 + _E7 * g1) / (
            abs_tol + rel_tol * max(abs(y1), abs(n1))
        )
        r2 = h * (0.0 + _E1 * a2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * f2 + _E7 * g2) / (
            abs_tol + rel_tol * max(abs(y2), abs(n2))
        )
        r3 = h * (0.0 + _E1 * a3 + _E3 * c3 + _E4 * d3 + _E5 * e3 + _E6 * f3 + _E7 * g3) / (
            abs_tol + rel_tol * max(abs(y3), abs(n3))
        )
        r4 = h * (0.0 + _E1 * a4 + _E3 * c4 + _E4 * d4 + _E5 * e4 + _E6 * f4 + _E7 * g4) / (
            abs_tol + rel_tol * max(abs(y4), abs(n4))
        )
        norm = sqrt((r1 * r1 + r2 * r2 + r3 * r3 + r4 * r4) / 4)
        if norm <= 1.0:
            s = s_end if is_last else s + h
            y1, y2, y3, y4 = n1, n2, n3, n4
            if not (isfinite(y1) and isfinite(y2) and isfinite(y3) and isfinite(y4)):
                raise _non_finite(s, (y1, y2, y3, y4))
            a1, a2, a3, a4 = g1, g2, g3, g4  # FSAL: g was evaluated at (s, y)
            samples.append((s, (y1, y2, y3, y4)))
            factor = 5.0 if norm == 0.0 else min(5.0, 0.9 * norm**-0.2)
        else:
            # a still holds f(s, y); only shrink the step.
            factor = max(0.2, 0.9 * norm**-0.2)
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


def _eigenvalues(
    det: Evaluate, y: State4, t1v: float, t2v: float, alpha: float, lambdas: Sequence[float]
) -> tuple[complex, ...]:
    """sqrt(-det L(lambda_j)), one branch of each eigenvalue pair."""
    x1, x2, p1, p2 = y
    roots = []
    for lam in lambdas:
        value = det(x1, x2, p1, p2, t1v, t2v, lam, alpha)[0]
        if not math.isfinite(value):
            raise NonFiniteState(f"det L({lam!r}) = {value!r} is not finite at state {y!r}")
        roots.append(cmath.sqrt(complex(-value)))
    return tuple(roots)


def _diagnose(
    raw: list[tuple[float, float, float, State4]],
    deformed: bool,
    cfg: IntegratorConfig,
) -> Trajectory:
    tables = _tables(deformed, cfg.alpha)
    hamiltonian, det = tables.hamiltonians, tables.det
    alpha, lambdas = cfg.alpha, cfg.lambdas
    isfinite = math.isfinite
    samples = []
    for s, t1v, t2v, y in raw:
        x1, x2, p1, p2 = y
        h1v, h2v = hamiltonian(x1, x2, p1, p2, t1v, t2v, 1.0, alpha)
        if not (isfinite(h1v) and isfinite(h2v)):
            raise NonFiniteState(f"h1 = {h1v!r}, h2 = {h2v!r} are not finite at s = {s!r}")
        eigenvalues = _eigenvalues(det, y, t1v, t2v, alpha, lambdas)
        samples.append(
            TrajectorySample(s, TimePoint(t1v, t2v), PhaseState(x1, x2, p1, p2), h1v, h2v, eigenvalues)
        )
    return Trajectory(samples, lambdas)


def snapshot(
    deformed: bool, state: PhaseState, t: TimePoint, cfg: IntegratorConfig | None = None
) -> Trajectory:
    """Single-sample trajectory: the diagnostics of one (state, t) point."""
    cfg = cfg or IntegratorConfig()
    if not (math.isfinite(t.t1) and math.isfinite(t.t2)):
        raise ValueError(f"time must be finite, got {t}")
    return _diagnose([(0.0, t.t1, t.t2, _initial_state(state))], deformed, cfg)


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
    if not math.isfinite(duration) or duration < 0:
        raise ValueError("duration must be finite and nonnegative")
    y0 = _initial_state(state0)
    _check_step_budget(duration, cfg.max_step)
    tables = _tables(False, cfg.alpha)
    field = tables.field1 if k == 1 else tables.field2
    alpha = cfg.alpha

    def rhs(s: float, x1: float, x2: float, p1: float, p2: float) -> State4:
        return field(x1, x2, p1, p2, 0.0, 0.0, 1.0, alpha)

    steps = _integrate_ode(rhs, duration, y0, cfg)
    raw = [
        (s, s if k == 1 else 0.0, s if k == 2 else 0.0, y)
        for s, y in steps
    ]
    return _diagnose(raw, False, cfg)


def _segment_rhs(tables: _Tables, alpha: float, start: TimePoint, w1: float, w2: float) -> Rhs:
    """w1 * Y_1 + w2 * Y_2 along t = start + s * (w1, w2); zero weights skip their field."""
    field1, field2 = tables.field1, tables.field2
    t1_start, t2_start = start.t1, start.t2

    def rhs(s: float, x1: float, x2: float, p1: float, p2: float) -> State4:
        t1v = t1_start + w1 * s
        t2v = t2_start + w2 * s
        r1 = r2 = r3 = r4 = 0.0
        if w1:
            f1, f2, f3, f4 = field1(x1, x2, p1, p2, t1v, t2v, 1.0, alpha)
            r1 += w1 * f1
            r2 += w1 * f2
            r3 += w1 * f3
            r4 += w1 * f4
        if w2:
            f1, f2, f3, f4 = field2(x1, x2, p1, p2, t1v, t2v, 1.0, alpha)
            r1 += w2 * f1
            r2 += w2 * f2
            r3 += w2 * f3
            r4 += w2 * f4
        return (r1, r2, r3, r4)

    return rhs


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
    tables = _tables(deformed, cfg.alpha)

    s_offset = 0.0
    raw: list[tuple[float, float, float, State4]] = [(0.0, t0.t1, t0.t2, y)]
    for start, stop in path.segments():
        d1, d2 = stop.t1 - start.t1, stop.t2 - start.t2
        length = math.hypot(d1, d2)
        rhs = _segment_rhs(tables, cfg.alpha, start, d1 / length, d2 / length)
        steps = _integrate_ode(rhs, length, y, cfg)
        for s, y_step in steps[1:]:
            fraction = s / length
            raw.append(
                (
                    s_offset + s,
                    start.t1 + d1 * fraction,
                    start.t2 + d2 * fraction,
                    y_step,
                )
            )
        y = steps[-1][1]
        s_offset += length
    return _diagnose(raw, deformed, cfg)


def check_flow_commutation_numeric(
    state0: PhaseState, s: float, u: float, cfg: IntegratorConfig | None = None
) -> float:
    """Max-norm distance between the two compositions of the autonomous flows."""
    cfg = cfg or IntegratorConfig()
    first = integrate_autonomous(1, state0, s, cfg).final_state
    one_then_two = integrate_autonomous(2, first, u, cfg).final_state
    second = integrate_autonomous(2, state0, u, cfg).final_state
    two_then_one = integrate_autonomous(1, second, s, cfg).final_state
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
    det = _tables(deformed, float(alpha)).det
    y = (state.x1, state.x2, state.p1, state.p2)
    roots = _eigenvalues(det, y, t.t1, t.t2, alpha, lambdas)
    return [(root, -root) for root in roots]


def check_reparametrization_numeric(
    k: int,
    state: PhaseState,
    t: TimePoint,
    mu_samples: Sequence[float],
    fd_step: float = 1e-6,
) -> float:
    """Residual of the chain rule under lambda -> exp(2 mu).

    Compares a central finite difference of U_k(exp(2 mu)) in mu against the
    symbolic 2 lambda dU_k/dlambda evaluated at lambda = exp(2 mu); a small
    residual confirms the deformation term turns into a plain mu-derivative
    after the reparametrization.
    """
    u_matrix = lax_matrices(True).flow_matrix(k)
    target_matrix = isomonodromy_deformation_term(u_matrix)
    base_point = {
        VarId.X1: state.x1,
        VarId.X2: state.x2,
        VarId.P1: state.p1,
        VarId.P2: state.p2,
        VarId.T1: t.t1,
        VarId.T2: t.t2,
        VarId.ALPHA: 0.0,
    }
    worst = 0.0
    for mu in mu_samples:
        for entry, target in zip(u_matrix.entries(), target_matrix.entries()):
            plus = substitute_numeric(
                entry, {**base_point, VarId.LAMBDA: math.exp(2 * (mu + fd_step))}
            )
            minus = substitute_numeric(
                entry, {**base_point, VarId.LAMBDA: math.exp(2 * (mu - fd_step))}
            )
            difference = (plus - minus) / (2 * fd_step)
            exact = substitute_numeric(
                target, {**base_point, VarId.LAMBDA: math.exp(2 * mu)}
            )
            worst = max(worst, abs(difference - exact))
    return worst
