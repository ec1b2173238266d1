"""Command-line front end.

Subcommands:
  verify     run the exact identity checks (exit 1 if any fails)
  potential  print one rung of the separable-potential hierarchy
  simulate   integrate an autonomous or deformed flow, export CSV/JSON
  pfaffian   integrate the multi-time system along a waypoint path
  spectral   print the spectral curve and numeric eigenvalue samples

Exit codes: 0 success, 1 verification failure, 2 bad input (a `ValueError`,
raised where the value is made, or an output file that cannot be written),
3 numeric failure (singular state, step-size underflow or non-finite state).
`simulate` and `pfaffian` claim their output files before they integrate; a
run that fails or is interrupted removes the files it created.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from functools import partial
from typing import Callable, Sequence

from .dynamics import (
    METHODS,
    IntegratorConfig,
    NonFiniteState,
    Path,
    PhaseState,
    SingularState,
    StepSizeUnderflow,
    TimePoint,
    Trajectory,
    _checked_duration,
    _lambda_label,
    eigenvalue_samples,
    integrate_autonomous,
    integrate_pfaffian,
    snapshot,
)

_USAGE_ERROR = 2
_RUNTIME_ERROR = 3

# viewBox of the (s, x1) polyline written by --svg
_SVG_WIDTH, _SVG_HEIGHT = 640, 360


def _parse_floats(text: str, count: int | None = None, what: str = "value") -> list[float]:
    try:
        values = [float(item) for item in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed {what} {text!r}") from exc
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} comma-separated values for {what}, got {len(values)}")
    return values


def _parse_state(text: str) -> PhaseState:
    return PhaseState(*_parse_floats(text, 4, "state"))


def _parse_timepoint(text: str) -> TimePoint:
    return TimePoint(*_parse_floats(text, 2, "time point"))


def _parse_waypoints(text: str) -> Path:
    return Path(tuple(_parse_timepoint(chunk) for chunk in text.split(";") if chunk))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _add_integrator_arguments(parser: argparse.ArgumentParser) -> None:
    # No defaults here: a setting left out is IntegratorConfig's default.
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-step", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--lambdas", help="spectral-parameter samples, comma separated")
    parser.add_argument("--out", required=True, help="output file for the trajectory")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--svg", help="also write an SVG polyline of (s, x1)")


def _config_from_args(args: argparse.Namespace) -> IntegratorConfig:
    """The settings given on the command line; IntegratorConfig supplies the rest."""
    names = [field.name for field in fields(IntegratorConfig)]
    given = {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}
    if "lambdas" in given:
        given["lambdas"] = tuple(_parse_floats(given["lambdas"], what="lambdas"))
    return IntegratorConfig(**given)


def _export(args: argparse.Namespace, run: Callable[[], Trajectory]) -> None:
    """Claim the output files, integrate with `run()`, then write them.

    Opening for appending truncates nothing, so a target that cannot be
    opened, or an --out and --svg that name one file, ends the command
    before the integration.  If anything fails or is interrupted once the
    claim has begun, the files made here are removed; a file that was
    already there is written only after the run has succeeded."""
    targets = [args.out, args.svg] if args.svg else [args.out]
    made = [path for path in targets if not os.path.exists(path)]
    try:
        for path in targets:
            open(path, "a").close()
        # Both targets exist now, so links and other spellings compare too.
        if args.svg and os.path.samefile(args.out, args.svg):
            raise ValueError(f"--out and --svg name the same file {args.out!r}")
        trajectory = run()
        with open(args.out, "w", newline="") as stream:
            if args.format == "csv":
                trajectory.write_csv(stream)
                summary = trajectory.summary()
            else:
                summary = trajectory.write_json(stream)["summary"]
        if args.svg:
            _write_svg(trajectory, args.svg)
    except BaseException:
        # A dangling symlink stays; the file the claim made through it goes.
        for path in filter(os.path.exists, made):
            os.remove(os.path.realpath(path))
        raise
    print(f"samples = {summary['samples']}")
    for name in ("h1", "h2", "eigenvalue"):
        print(f"{name} drift = {summary[name + '_drift']:.6e}")
    for path in targets:
        print(f"wrote {path}")


def _write_svg(trajectory: Trajectory, filename: str) -> None:
    s_column, x_column = map(trajectory.column_names().index, ("s", "x1"))
    s_values = [row[s_column] for row in trajectory.rows()]
    x_values = [row[x_column] for row in trajectory.rows()]
    s_min, x_min = min(s_values), min(x_values)
    s_span = (max(s_values) - s_min) or 1.0
    x_span = (max(x_values) - x_min) or 1.0
    pairs = " ".join(
        f"{(s - s_min) / s_span * _SVG_WIDTH:.2f},"
        f"{_SVG_HEIGHT - (x - x_min) / x_span * _SVG_HEIGHT:.2f}"
        for s, x in zip(s_values, x_values)
    )
    with open(filename, "w") as stream:
        stream.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">'
            f'<polyline fill="none" stroke="black" points="{pairs}"/></svg>\n'
        )


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_checks

    reports = run_checks(args.filter)
    if not reports:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return _USAGE_ERROR
    failures = 0
    for report in reports:
        print(report.describe())
        if not report.passed:
            failures += 1
            if report.expected is not None:
                print(f"  expected = {report.expected}")
            if report.intermediate is not None:
                print(f"  intermediate = {report.intermediate}")
    print(f"{len(reports) - failures}/{len(reports)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_potential(args: argparse.Namespace) -> int:
    from .model import _MEMO_LIMIT, potential

    if abs(args.k) > _MEMO_LIMIT:
        raise ValueError(f"k = {args.k} out of range (|k| <= {_MEMO_LIMIT})")
    pair = potential(args.k)
    print(f"v1 = {pair.v1}")
    print(f"v2 = {pair.v2}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    state0 = _parse_state(args.state)
    cfg = _config_from_args(args)
    deformed = _parse_bool(args.deformed)
    if args.t0 is not None and not deformed:
        raise ValueError("--t0 needs --deformed true: an autonomous flow runs in its own time")
    t0 = TimePoint(0.0, 0.0) if args.t0 is None else _parse_timepoint(args.t0)
    k = 1 if args.flow == "t1" else 2
    duration = _checked_duration(args.duration)
    if not deformed:
        run = partial(integrate_autonomous, k, state0, duration, cfg)
    elif duration == 0:
        run = partial(snapshot, True, state0, t0, cfg)
    else:
        end = TimePoint(t0.t1 + (duration if k == 1 else 0.0), t0.t2 + (duration if k == 2 else 0.0))
        if end == t0:
            raise ValueError(f"--duration {duration!r} does not move --t0 {args.t0}: t0 + duration rounds to t0")
        run = partial(integrate_pfaffian, state0, t0, Path((t0, end)), cfg, deformed=True)
    _export(args, run)
    return 0


def _cmd_pfaffian(args: argparse.Namespace) -> int:
    state0 = _parse_state(args.state)
    path = _parse_waypoints(args.waypoints)
    cfg = _config_from_args(args)
    deformed = _parse_bool(args.deformed)
    _export(args, partial(integrate_pfaffian, state0, path.waypoints[0], path, cfg, deformed=deformed))
    return 0


def _cmd_spectral(args: argparse.Namespace) -> int:
    state = _parse_state(args.state)
    t = TimePoint(0.0, 0.0) if args.t is None else _parse_timepoint(args.t)
    cfg = _config_from_args(args)
    deformed = _parse_bool(args.deformed)
    from .algebra import VarId
    from .model import spectral_curve

    # Computed before anything is printed, so a numeric failure leaves no
    # partial output behind.
    samples = eigenvalue_samples(deformed, state, t, cfg.alpha, cfg.lambdas)
    if args.t is not None and not deformed:
        print("note: --t is ignored: the autonomous curve does not depend on t", file=sys.stderr)
    print(f"det L(lambda) coefficients ({'deformed' if deformed else 'autonomous'}):")
    for power, coefficient in spectral_curve(deformed).coefficients_in(VarId.LAMBDA).items():
        print(f"  lambda^{power}: {coefficient}")
    at_t = f"t = ({t.t1:g}, {t.t2:g}), " if deformed else ""
    print(
        f"eigenvalues at state = ({state.x1:g}, {state.x2:g}, {state.p1:g}, {state.p2:g}), "
        f"{at_t}alpha = {cfg.alpha:g}:"
    )
    for lam, (plus, minus) in zip(cfg.lambdas, samples):
        print(
            f"  lambda = {_lambda_label(lam)}: {plus.real:.12g}{plus.imag:+.12g}j, "
            f"{minus.real:.12g}{minus.imag:+.12g}j"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhlax",
        description="Extended Henon-Heiles system and its Painleve-type deformation: "
        "exact identity checks and numeric flows.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("verify", help="run the exact identity checks")
    sub.add_argument("--filter", help="run only checks whose name contains this substring")
    sub.set_defaults(handler=_cmd_verify)

    sub = subparsers.add_parser("potential", help="print one separable potential pair")
    sub.add_argument("--k", type=int, required=True)
    sub.set_defaults(handler=_cmd_potential)

    sub = subparsers.add_parser("simulate", help="integrate one flow")
    sub.add_argument("--flow", choices=["t1", "t2"], required=True)
    sub.add_argument("--deformed", default="false")
    sub.add_argument("--state", default="1,1,0,0")
    sub.add_argument("--duration", type=float, required=True)
    sub.add_argument("--t0", help="start time t1,t2 of a deformed run (default 0,0)")
    _add_integrator_arguments(sub)
    sub.set_defaults(handler=_cmd_simulate)

    sub = subparsers.add_parser("pfaffian", help="integrate the multi-time system along a path")
    sub.add_argument("--waypoints", required=True, help='e.g. "0,0;0.5,0;0.5,0.5"')
    sub.add_argument("--deformed", default="true")
    sub.add_argument("--state", default="1,1,0,0")
    _add_integrator_arguments(sub)
    sub.set_defaults(handler=_cmd_pfaffian)

    sub = subparsers.add_parser("spectral", help="spectral curve and eigenvalue samples")
    sub.add_argument("--state", required=True)
    sub.add_argument("--t", help="time point t1,t2 of a deformed curve (default 0,0)")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--lambdas")
    sub.add_argument("--deformed", default="false")
    sub.set_defaults(handler=_cmd_spectral)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # Bad input, from the parsers here or from the library where the
        # value is made, or an output file that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (SingularState, StepSizeUnderflow, NonFiniteState) as exc:
        # `spectral` evaluates the model at one state; it integrates nothing.
        stage = "evaluation" if args.command == "spectral" else "integration"
        print(f"{stage} aborted: {exc}", file=sys.stderr)
        return _RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
