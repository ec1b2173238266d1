"""Numerical integration of the autonomous and multi-time flows.

The autonomous flows are integrated in their own time; the non-autonomous
system is integrated as a Pfaffian system along piecewise-linear paths in
the (t1, t2) plane, each segment parameterized by arclength with the two
Hamiltonian fields combined by the segment direction.  Per-sample
diagnostics record the Hamiltonian values and eigenvalues of the Lax matrix
at configurable spectral-parameter samples; a trajectory keeps one row of
floats per sample, in the column order of its CSV/JSON export.

Integrators: classic fixed-step RK4 and an adaptive Dormand-Prince 5(4)
pair, generated by `hhlax.kernels` from their coefficients once per process,
when the first integration asks for them.  Each stage makes one call to a
generated right-hand side: the field itself for an autonomous flow, and for
a Pfaffian path segment a closure with both fields written out inside it.
The diagnostics row is generated as well.  `hhlax.kernels` folds the
runtime value of alpha exactly into the model polynomials as it generates
them, and refuses an alpha whose folded coefficients no float can hold;
this module only caches what it compiles.  The right-hand sides of one
(model, alpha) and the diagnostics row of one (model, alpha, lambdas) are
compiled when first asked for, each kept in a cache of at most 64 entries,
so a snapshot compiles no stepper and a sweep over alpha runs in bounded
memory.  The generated code refuses the x2 = 0 singular set
itself.  A run keeps no shared mutable state, so independent integrations
may proceed in parallel.

Bad input is a `ValueError` raised where the value is made: `PhaseState`,
`TimePoint` and `IntegratorConfig` check that each number is finite and then
store it as the float the kernels use, so the functions below neither check
nor convert a number again (a raw alpha goes through `IntegratorConfig`);
`check_reparametrization_numeric` checks its mu samples itself.  A state
or a time point that is not a `PhaseState` or a `TimePoint` is a
`TypeError` that names it.  A number
becomes a float where it is checked, so every cell of a trajectory row is a
float and two lambda samples are distinct exactly when their floats are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import repeat
from operator import sub
from typing import Callable, Iterable, Sequence

from .kernels import (
    NonFiniteState, SingularState, StepSizeUnderflow, _finite_floats, _is_finite, _shown,
    compile_diagnostics, compile_flows, compile_polys, compile_steppers,
)
from .model import (
    _flow_index,
    hamiltonians,
    isomonodromy_deformation_term,
    lax_matrices,
    spectral_curve,
)

__all__ = [
    "SingularState",
    "StepSizeUnderflow",
    "NonFiniteState",
    "PhaseState",
    "TimePoint",
    "Path",
    "METHODS",
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

# The most steps one span may need: rk4-fixed takes ceil(span / max_step)
# steps and DP45, whose steps never exceed max_step either, at least as many.
_MAX_STEPS = 10**6
# Step in mu of the central difference in check_reparametrization_numeric.
_FD_STEP = 1e-6
# The integration methods of IntegratorConfig.
METHODS = ("rk45-adaptive", "rk4-fixed")


# (x1, x2, p1, p2), the stepper's working form of a PhaseState.
State4 = tuple[float, float, float, float]


def _store_floats(what: str, point) -> None:
    """Check every field of the frozen `point` and store it as its float.
    A frozen dataclass refuses setattr, so the floats go into `vars(point)`."""
    vars(point).update(zip(list(vars(point)), _finite_floats(what, point, vars(point).values())))


def _floats(what: str, value, kind: type) -> tuple[float, ...]:
    """The floats of `value`, a `PhaseState` or `TimePoint` as `kind` says;
    anything else is a TypeError that names `what` and `value`."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be a {kind.__name__}, got {value!r}")
    return tuple(vars(value).values())


def _checked_duration(duration: float) -> float:
    """`duration` as a float; a duration must be finite and nonnegative."""
    if not _is_finite(duration) or duration < 0:
        raise ValueError("duration must be finite and nonnegative")
    return float(duration)


@dataclass(frozen=True)
class PhaseState:
    """A point (x1, x2, p1, p2) of phase space; every component is finite."""

    x1: float
    x2: float
    p1: float
    p2: float

    def __post_init__(self):
        _store_floats("state", self)


@dataclass(frozen=True)
class TimePoint:
    """A point (t1, t2) of the time plane; both times are finite."""

    t1: float
    t2: float

    def __post_init__(self):
        _store_floats("time", self)


@dataclass(frozen=True)
class Path:
    """Piecewise-linear route in the (t1, t2) plane, through `TimePoint`s
    stored as a tuple; pairs of numbers go through `from_pairs`."""

    waypoints: tuple[TimePoint, ...]

    def __post_init__(self):
        vars(self)["waypoints"] = tuple(self.waypoints)
        for point in self.waypoints:
            if not isinstance(point, TimePoint):
                raise TypeError(f"a waypoint must be a TimePoint, got {point!r}; pairs go through Path.from_pairs")
        if len(self.waypoints) < 2:
            raise ValueError("a path needs at least 2 waypoints")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "Path":
        return cls(tuple(TimePoint(a, b) for a, b in pairs))

    def segments(self) -> Iterable[tuple[TimePoint, TimePoint]]:
        return zip(self.waypoints, self.waypoints[1:])


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    `tol` is DP45's absolute and relative tolerance alike.  `max_step`
    doubles as the fixed step of the rk4-fixed method.  `lambdas`
    are the spectral-parameter samples for the eigenvalue diagnostics, each
    finite and no two equal as floats.  Every number is stored as its float,
    `lambdas` as a tuple of them.
    """

    method: str = "rk45-adaptive"
    tol: float = 1e-12
    max_step: float = 0.01
    alpha: float = 0.0
    lambdas: tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        # A NaN max_step never advances the stepper, and an infinite
        # tolerance accepts any step.
        for name in ("tol", "max_step", "alpha"):
            (vars(self)[name],) = _finite_floats(name, getattr(self, name), [getattr(self, name)])
        given = self.lambdas
        vars(self)["lambdas"] = lambdas = _finite_floats("lambdas", given, given)
        # Each sample names its own pair of columns; 0.0 and -0.0 are one,
        # and so are two numbers with one float.
        if len(set(lambdas)) != len(lambdas):
            raise ValueError(f"lambda samples must be distinct, got {tuple(given)!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
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
    return text if float(text) == lam else repr(lam)


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
    lambdas: tuple[float, ...]

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
        """One line per row.  Every cell is a float repr and every column
        name plain text, so no cell needs quoting."""
        stream.write(",".join(self.column_names()) + "\n")
        stream.writelines(",".join(map(repr, row)) + "\n" for row in self._rows)

    def write_json(self, stream) -> dict:
        """Writes the columns, the rows (the stored lists themselves) and
        the summary as one JSON object, and returns that dict."""
        import json

        payload = {"columns": self.column_names(), "rows": self._rows, "summary": self.summary()}
        json.dump(payload, stream, indent=1)
        stream.write("\n")
        return payload


# -- generated right-hand sides, diagnostics and steppers -----------------

# rhs(s, x1, x2, p1, p2) -> (dx1, dx2, dp1, dp2), the stepper's right-hand side
Rhs = Callable[[float, float, float, float, float], State4]
# flow(s, x1, x2, p1, p2, t1=0.0, t2=0.0) -> Y_k, an Rhs of the autonomous flow k
Flow = Callable[..., State4]
# segment(t1_start, t2_start, w1, w2) -> the Rhs w1 * Y_1 + w2 * Y_2 along
# t = start + s * (w1, w2)
Segment = Callable[[float, float, float, float], Rhs]
# diag(s, t1, t2, (x1, x2, p1, p2)) -> one trajectory row
Diagnostics = Callable[..., list]


@lru_cache(maxsize=64, typed=True)
def _flows(deformed: bool, alpha: float) -> tuple[Flow, Flow, Segment]:
    """The generated right-hand sides of Y_1, Y_2 and of a path segment of
    one model and alpha (a float)."""
    return compile_flows(*(field.components for field in hamiltonians(deformed).fields), alpha)


@lru_cache(maxsize=64, typed=True)
def _diagnostics(deformed: bool, alpha: float, lambdas: tuple[float, ...]) -> Diagnostics:
    """The generated diagnostics row of one model, alpha and set of lambda
    samples (floats)."""
    hams = hamiltonians(deformed)
    return compile_diagnostics(hams.h1, hams.h2, spectral_curve(deformed), alpha, lambdas)


def flow_rhs(
    deformed: bool, k: int, state: PhaseState, t: TimePoint, alpha: float
) -> tuple[float, float, float, float]:
    """Numeric right-hand side of flow k at (state, t).

    Generated from the symbolic Hamiltonian vector field, so it agrees with
    the model layer by construction.
    """
    index = _flow_index(k)
    flow = _flows(deformed, IntegratorConfig(alpha=alpha).alpha)[index]
    return flow(0.0, *_floats("state", state, PhaseState), *_floats("t", t, TimePoint))


# RK4 and DP45, generated when the first integration asks for them and then
# kept for the life of the process.
_steppers = cache(compile_steppers)


def _check_step_budget(span: float, max_step: float) -> None:
    if span / max_step > _MAX_STEPS:
        raise ValueError(f"a span of {span!r} needs more than {_MAX_STEPS} steps of at most {max_step!r}")


def _integrate_ode(rhs: Rhs, s_end: float, y0: State4, cfg: IntegratorConfig) -> list[tuple[float, State4]]:
    """Integrate dy/ds = rhs(s, *y) from s = 0 to s_end >= 0; returns the
    accepted samples, endpoints included."""
    if s_end == 0.0:
        return [(0.0, y0)]
    rk4, dp45 = _steppers()
    if cfg.method == "rk4-fixed":
        return rk4(rhs, s_end, y0, cfg.max_step)
    return dp45(rhs, s_end, y0, cfg.tol, cfg.max_step)


# -- public integration ---------------------------------------------------


def snapshot(
    deformed: bool, state: PhaseState, t: TimePoint, cfg: IntegratorConfig = IntegratorConfig()
) -> Trajectory:
    """Single-sample trajectory: the diagnostics of one (state, t) point."""
    diag = _diagnostics(deformed, cfg.alpha, cfg.lambdas)
    return Trajectory([diag(0.0, *_floats("t", t, TimePoint), _floats("state", state, PhaseState))], cfg.lambdas)


def integrate_autonomous(
    k: int, state0: PhaseState, duration: float, cfg: IntegratorConfig = IntegratorConfig()
) -> Trajectory:
    """Integrate the autonomous flow k for `duration` (>= 0, finite).

    The trajectory records h1, h2 and the Lax eigenvalue samples at every
    accepted step; for the autonomous system all of them are conserved.
    """
    index = _flow_index(k)
    y0, duration = _floats("state0", state0, PhaseState), _checked_duration(duration)
    _check_step_budget(duration, cfg.max_step)
    flow = _flows(False, cfg.alpha)[index]
    diag = _diagnostics(False, cfg.alpha, cfg.lambdas)
    steps = _integrate_ode(flow, duration, y0, cfg)
    return Trajectory([diag(s, s if k == 1 else 0.0, s if k == 2 else 0.0, y) for s, y in steps], cfg.lambdas)


def integrate_pfaffian(
    state0: PhaseState,
    t0: TimePoint,
    path: Path,
    cfg: IntegratorConfig = IntegratorConfig(),
    deformed: bool = True,
) -> Trajectory:
    """Integrate d(state) = Y_1 dt1 + Y_2 dt2 along a piecewise-linear path.

    Each segment is one ODE in its arclength, with the combined right-hand
    side weighted by the segment direction.  With `deformed=False` the
    autonomous fields are used instead (their flows commute, so the same
    path independence holds).
    """
    y, (t1, t2) = _floats("state0", state0, PhaseState), _floats("t0", t0, TimePoint)
    if path.waypoints[0] != t0:
        raise ValueError("path must start at t0")
    # The budget bounds the whole path, so no number of segments asks for
    # more steps than one span may take.
    _check_step_budget(sum(math.hypot(b.t1 - a.t1, b.t2 - a.t2) for a, b in path.segments()), cfg.max_step)
    segment = _flows(deformed, cfg.alpha)[2]
    diag = _diagnostics(deformed, cfg.alpha, cfg.lambdas)

    s_offset = 0.0
    raw: list[tuple[float, float, float, State4]] = [(0.0, t1, t2, y)]
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
    state0: PhaseState, s: float, u: float, cfg: IntegratorConfig = IntegratorConfig()
) -> float:
    """Max-norm distance between the two compositions of the autonomous flows."""
    first = integrate_autonomous(1, state0, s, cfg).samples[-1].state
    one_then_two = integrate_autonomous(2, first, u, cfg).samples[-1].state
    second = integrate_autonomous(2, state0, u, cfg).samples[-1].state
    two_then_one = integrate_autonomous(1, second, s, cfg).samples[-1].state
    ends = (_floats("state", end, PhaseState) for end in (one_then_two, two_then_one))
    return max(map(abs, map(sub, *ends)))


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
    after the reparametrization.  No samples, a non-finite mu, a mu whose
    exp(2 mu) overflows a float or a residual that is not finite is a
    `ValueError`.
    """
    if not mu_samples or not all(map(_is_finite, mu_samples)):
        raise ValueError(f"mu samples must be finite and not empty, got {_shown(mu_samples, mu_samples)}")
    u_matrix = lax_matrices(True).flow_matrix(k)
    target_matrix = isomonodromy_deformation_term(u_matrix)
    # U_k is free of alpha and of negative powers, so its kernel has no guard.
    kernel = compile_polys([*u_matrix.entries(), *target_matrix.entries()])
    evaluate = partial(kernel, *_floats("state", state, PhaseState), *_floats("t", t, TimePoint))
    worst = 0.0
    for mu in mu_samples:
        try:
            plus, minus, exact = (evaluate(math.exp(2 * (mu + h)), 0.0) for h in (_FD_STEP, -_FD_STEP, 0))
        except OverflowError:
            raise ValueError(f"lambda = exp(2 mu) overflows a float at mu = {mu!r}") from None
        residuals = [abs((p - m) / (2 * _FD_STEP) - e) for p, m, e in zip(plus[:4], minus[:4], exact[4:])]
        _finite_floats(f"the residuals at mu = {mu!r}", residuals, residuals)
        worst = max(worst, *residuals)
    return worst
