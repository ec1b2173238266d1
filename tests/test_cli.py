"""Command-line interface: exit codes, golden output, file exports."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import hhlax
from hhlax import cli, dynamics, verify
from hhlax.cli import _write_svg, main
from hhlax.model import LaxTriple, lax_matrices, potential


def run_cli(*args, capsys):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Child interpreters import the same hhlax as this process, installed or not.
_PACKAGE_ROOT = str(pathlib.Path(hhlax.__file__).resolve().parent.parent)
_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_CHILD_ENV
    )


def run_subprocess(*args):
    return run_python("-m", "hhlax", *args)


class TestVerifyCommand:
    def test_all_checks_pass_golden(self, capsys, golden_dir):
        code, out, _ = run_cli("verify", capsys=capsys)
        assert code == 0
        assert out == (golden_dir / "verify.txt").read_text()

    def test_output_is_byte_stable(self, capsys):
        _, first, _ = run_cli("verify", capsys=capsys)
        _, second, _ = run_cli("verify", capsys=capsys)
        assert first == second

    def test_filter_frobenius_golden(self, capsys, golden_dir):
        code, out, _ = run_cli("verify", "--filter", "frobenius", capsys=capsys)
        assert code == 0
        assert out == (golden_dir / "verify_frobenius.txt").read_text()
        assert "-t1 - 3*t2^2" in out

    def test_filter_matching_nothing(self, capsys):
        code, _, err = run_cli("verify", "--filter", "nonsense", capsys=capsys)
        assert code == 2
        assert "no checks match" in err

    def test_subprocess_exit_code(self):
        result = run_subprocess("verify")
        assert result.returncode == 0
        assert "7/7 checks passed" in result.stdout

    def test_failing_check_prints_expected_and_intermediate(self, capsys, monkeypatch):
        # Negative control: the deformed L with the autonomous U1.
        deformed, plain = lax_matrices(True), lax_matrices(False)
        corrupted = LaxTriple(deformed.L, plain.U1, deformed.U2, True)
        check = ("isomonodromic_lax_t1", lambda: verify.check_isomonodromic_lax(1, corrupted))
        monkeypatch.setattr(verify, "CHECKS", (check,))
        code, out, _ = run_cli("verify", capsys=capsys)
        assert code == 1
        assert out == (
            "FAIL isomonodromic_lax_t1: residual = [[-3*x1*t2*lambda - 3/4*x2^2*t2 + 3*t2*lambda^2, 0],"
            " [-3*x2*p2*t2 - 6*p1*t2*lambda, 3*x1*t2*lambda + 3/4*x2^2*t2 - 3*t2*lambda^2]]\n"
            "  expected = [[0, 0], [-2*lambda, 0]]\n"
            "  intermediate = [[-3*x1*t2*lambda - 3/4*x2^2*t2 + 3*t2*lambda^2, 0],"
            " [-2*lambda - 3*x2*p2*t2 - 6*p1*t2*lambda, 3*x1*t2*lambda + 3/4*x2^2*t2 - 3*t2*lambda^2]]\n"
            "0/1 checks passed\n"
        )


class TestPotentialCommand:
    # k = +-64 are the deepest rungs the CLI accepts.
    @pytest.mark.parametrize("k", [3, 64, -64])
    def test_golden(self, k, capsys, golden_dir):
        code, out, _ = run_cli("potential", "--k", str(k), capsys=capsys)
        assert code == 0
        assert out == (golden_dir / f"potential_k{k}.txt").read_text()

    def test_k0(self, capsys):
        code, out, _ = run_cli("potential", "--k", "0", capsys=capsys)
        assert code == 0
        assert out == "v1 = 0\nv2 = 1\n"

    def test_k4_matches_model_rendering(self, capsys):
        code, out, _ = run_cli("potential", "--k", "4", capsys=capsys)
        pair = potential(4)
        assert code == 0
        assert out == f"v1 = {pair.v1}\nv2 = {pair.v2}\n"

    def test_negative_k(self, capsys):
        code, out, _ = run_cli("potential", "--k", "-1", capsys=capsys)
        assert code == 0
        assert out == "v1 = 4*x2^-2\nv2 = -4*x1*x2^-2\n"

    def test_out_of_range_k(self, capsys):
        code, _, err = run_cli("potential", "--k", "65", capsys=capsys)
        assert code == 2
        assert "out of range" in err


class TestSimulateCommand:
    def test_zero_duration_single_row(self, tmp_path, capsys, golden_dir):
        out_file = tmp_path / "zero.csv"
        code, out, _ = run_cli(
            "simulate", "--flow", "t1", "--duration", "0", "--state", "1,1,0,0",
            "--out", str(out_file), capsys=capsys,
        )
        assert code == 0
        assert out_file.read_text() == (golden_dir / "trajectory_zero.csv").read_text()
        assert "samples = 1" in out

    def test_default_run_conserves(self, tmp_path, capsys):
        out_file = tmp_path / "run.csv"
        code, out, _ = run_cli(
            "simulate", "--flow", "t1", "--duration", "2", "--state", "1,1,0,0",
            "--out", str(out_file), capsys=capsys,
        )
        assert code == 0
        summary = {
            line.split(" = ")[0]: line.split(" = ")[1]
            for line in out.splitlines()
            if " = " in line
        }
        assert float(summary["h1 drift"]) < 1e-9
        assert float(summary["h2 drift"]) < 1e-9
        assert float(summary["eigenvalue drift"]) < 1e-8
        with open(out_file) as stream:
            rows = list(csv.reader(stream))
        assert rows[0][:9] == ["s", "t1", "t2", "x1", "x2", "p1", "p2", "h1", "h2"]
        assert len(rows) > 2

    def test_json_format(self, tmp_path, capsys):
        out_file = tmp_path / "run.json"
        code, _, _ = run_cli(
            "simulate", "--flow", "t2", "--duration", "0.5", "--state", "1,1,0,0",
            "--out", str(out_file), "--format", "json", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["columns"][0] == "s"
        assert payload["summary"]["h1_drift"] < 1e-9

    def test_svg_output(self, tmp_path, capsys):
        out_file, svg_file = tmp_path / "run.csv", tmp_path / "run.svg"
        code, _, _ = run_cli(
            "simulate", "--flow", "t1", "--duration", "0.5", "--state", "1,1,0,0",
            "--out", str(out_file), "--svg", str(svg_file), capsys=capsys,
        )
        assert code == 0
        content = svg_file.read_text()
        assert content.startswith("<svg") and "polyline" in content

    def test_svg_points_are_scaled_to_the_view_box(self, tmp_path):
        # Columns s, t1, t2, x1, ...: s spans [0, 1] and x1 spans [0.5, 2].
        rows = [[s, 0.0, 0.0, x1] + [0.0] * 11 for s, x1 in ((0.0, 1.0), (0.5, 2.0), (1.0, 0.5))]
        svg_file = tmp_path / "run.svg"
        _write_svg(dynamics.Trajectory(rows, (0.5, 1.0, 2.0)), str(svg_file))
        assert svg_file.read_text() == (
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 640 360">'
            '<polyline fill="none" stroke="black" points="0.00,240.00 320.00,0.00 640.00,360.00"/>'
            "</svg>\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_summary_computed_once(self, fmt, tmp_path, capsys, monkeypatch):
        calls = []
        summary = dynamics.Trajectory.summary

        def counted(self):
            calls.append(self)
            return summary(self)

        monkeypatch.setattr(dynamics.Trajectory, "summary", counted)
        code, _, _ = run_cli(
            "simulate", "--flow", "t1", "--duration", "0.5", "--state", "1,1,0,0",
            "--out", str(tmp_path / f"run.{fmt}"), "--format", fmt, capsys=capsys,
        )
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "fmt, lambdas, labels",
        [
            ("csv", "1.0000001,1.0000002", ["1.0000001", "1.0000002"]),
            ("json", "1e-7,1.00000001e-7", ["1e-07", "1.00000001e-07"]),
        ],
        ids=["csv", "json"],
    )
    def test_close_lambdas_get_distinct_columns(self, fmt, lambdas, labels, tmp_path, capsys):
        out_file = tmp_path / f"run.{fmt}"
        code, _, _ = run_cli(
            "simulate", "--flow", "t1", "--duration", "0.01", "--lambdas", lambdas,
            "--out", str(out_file), "--format", fmt, capsys=capsys,
        )
        assert code == 0
        if fmt == "csv":
            header = out_file.read_text().splitlines()[0].split(",")
        else:
            header = json.loads(out_file.read_text())["columns"]
        assert header[9:] == [f"eig_{part}_{label}" for label in labels for part in ("re", "im")]

    @pytest.mark.parametrize("command", ["simulate", "spectral"])
    def test_repeated_lambdas_exit_2(self, command, tmp_path, capsys, no_integration):
        # A column reader keyed by name would silently lose one eig pair.
        out_file = tmp_path / "a.csv"
        argv = ["simulate", "--flow", "t1", "--duration", "0.1", "--out", str(out_file)]
        if command == "spectral":
            argv = ["spectral", "--state", "1,1,0,0"]
        code, out, err = run_cli(*argv, "--lambdas", "0.5,0.5", capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == "error: lambda samples must be distinct, got (0.5, 0.5)\n"
        assert not out_file.exists()

    def test_deformed_flow(self, tmp_path, capsys):
        out_file = tmp_path / "deformed.csv"
        code, _, _ = run_cli(
            "simulate", "--flow", "t1", "--deformed", "true", "--duration", "0.3",
            "--state", "1,1,0,0", "--out", str(out_file), capsys=capsys,
        )
        assert code == 0
        with open(out_file) as stream:
            rows = list(csv.reader(stream))
        assert float(rows[-1][1]) == pytest.approx(0.3)  # t1 column tracks the flow

    def test_malformed_state(self, capsys, tmp_path):
        code, _, err = run_cli(
            "simulate", "--flow", "t1", "--duration", "1", "--state", "1,1,0",
            "--out", str(tmp_path / "x.csv"), capsys=capsys,
        )
        assert code == 2
        assert "state" in err

    def test_singular_run_exits_3(self, tmp_path):
        result = run_subprocess(
            "simulate", "--flow", "t1", "--duration", "1", "--state", "1,0.5,0,-1",
            "--alpha", "-0.1", "--out", str(tmp_path / "sing.csv"),
        )
        assert result.returncode == 3
        assert "integration aborted" in result.stderr


    def test_span_capped_by_max_step_ends_exactly(self, tmp_path, capsys):
        # Ten steps of max_step = 0.01 add up to a sliver short of 0.1; the
        # run must still end at s = 0.1 instead of underflowing.
        out_file = tmp_path / "run.csv"
        code, _, err = run_cli(
            "simulate", "--flow", "t1", "--state", "1,1,0,0", "--duration", "0.1",
            "--abs-tol", "1e-6", "--rel-tol", "1e-6", "--out", str(out_file), capsys=capsys,
        )
        assert code == 0, err
        with open(out_file) as stream:
            rows = list(csv.reader(stream))
        assert float(rows[-1][0]) == 0.1
        parameters = [float(row[0]) for row in rows[1:]]
        assert all(a < b for a, b in zip(parameters, parameters[1:]))

    def test_fixed_step_blow_up_exits_3(self, tmp_path, capsys):
        # rk4-fixed steps through the finite-time blow-up near t1 ~ 2.7.
        out_file = tmp_path / "blowup.csv"
        code, _, err = run_cli(
            "simulate", "--flow", "t1", "--method", "rk4-fixed", "--duration", "3",
            "--max-step", "0.01", "--state", "1,1,0,0", "--out", str(out_file),
            capsys=capsys,
        )
        assert code == 3
        assert "not finite" in err
        if out_file.exists():
            with open(out_file) as stream:
                rows = list(csv.reader(stream))[1:]
            assert all(math.isfinite(float(value)) for row in rows for value in row)


SIMULATE = ["simulate", "--flow", "t1", "--state", "1,1,0,0", "--duration", "1"]


@pytest.fixture
def no_integration(monkeypatch):
    """Fail the test if any integration starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(dynamics, "_integrate_ode", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        SIMULATE + ["--max-step", "nan"],
        SIMULATE + ["--max-step", "inf"],
        SIMULATE + ["--abs-tol", "inf"],
        SIMULATE + ["--rel-tol", "nan"],
        SIMULATE + ["--abs-tol", "0"],
        SIMULATE + ["--alpha", "nan"],
        SIMULATE + ["--alpha=-inf"],
        SIMULATE + ["--lambdas", "1,inf"],
        SIMULATE + ["--state", "nan,1,0,0"],
        SIMULATE + ["--state", "1,inf,0,0"],
        SIMULATE + ["--deformed", "true", "--t0", "0,nan"],
        ["simulate", "--flow", "t1", "--duration", "nan"],
        ["simulate", "--flow", "t2", "--deformed", "true", "--duration", "inf"],
        ["simulate", "--flow", "t1", "--deformed", "true", "--duration", "0", "--alpha", "nan"],
        ["pfaffian", "--waypoints", "0,0;nan,0"],
        ["pfaffian", "--waypoints", "0,0;1,0", "--max-step", "nan"],
        ["spectral", "--state", "1,1,0,0", "--alpha", "nan"],
        ["spectral", "--state", "1,1,inf,0"],
        ["spectral", "--state", "1,1,0,0", "--lambdas", "nan"],
        # A folded coefficient beyond the float range.
        SIMULATE + ["--alpha", "1.7e308"],
        ["spectral", "--state", "1,1,0,0", "--alpha", "1.7e308"],
        # Spans that need more steps than the budget allows, for both methods
        # and for a later segment of a path.
        ["simulate", "--flow", "t1", "--duration", "1e10", "--method", "rk4-fixed",
         "--max-step", "1e-300"],
        SIMULATE + ["--duration", "1e5"],
        ["simulate", "--flow", "t2", "--deformed", "true", "--duration", "2e4"],
        ["pfaffian", "--waypoints", "0,0;0.5,0;1e5,0"],
        # Every segment fits the budget; the whole path needs 2.4e6 steps.
        ["pfaffian", "--waypoints", "0,0;6e3,0;0,0;6e3,0;0,0"],
        # An autonomous flow runs in its own time: a start time is refused.
        SIMULATE + ["--t0", "5,7"],
    ],
)
def test_bad_number_exits_2(argv, tmp_path, capsys, no_integration):
    if argv[0] != "spectral":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectral", "--state", "1,0,0,0", "--alpha", "0.1"], "singular set"),
        (SIMULATE + ["--duration", "0", "--state", "1,0,0,0", "--alpha", "0.1"], "singular set"),
        (SIMULATE + ["--duration", "0", "--state", "1e200,1,0,0"], "not finite"),
        (["spectral", "--state", "1e200,1,0,0"], "not finite"),
        (SIMULATE + ["--lambdas", "1,1e100"], "not finite"),
        # A rejected last step that no shrunk step can replace.
        (SIMULATE + ["--duration", "1e-14", "--state", "1,1e100,0,0"], "no step covers the last 1e-14"),
    ],
)
def test_numeric_failure_exits_3(argv, message, tmp_path, capsys):
    if argv[0] != "spectral":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 3
    assert out == ""
    # `spectral` integrates nothing, so its failures are not reported as such.
    prefix = "evaluation aborted: " if argv[0] == "spectral" else "integration aborted: "
    assert err.startswith(prefix) and message in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_unwritable_output_exits_2(flag, tmp_path, capsys, no_integration):
    # An output file that cannot be opened is bad input, not a failed check.
    # It is refused before the run and before either file is written: the
    # other one is neither created nor truncated, and nothing is printed.
    paths = {"--out": tmp_path / "run.csv", "--svg": tmp_path / "run.svg"}
    paths[flag] = tmp_path / "missing" / "run"
    other = paths["--svg" if flag == "--out" else "--out"]
    for existing in (None, "old"):
        if existing is not None:
            other.write_text(existing)
        code, out, err = run_cli(
            "simulate", "--flow", "t1", "--duration", "0.1",
            "--out", str(paths["--out"]), "--svg", str(paths["--svg"]), capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(paths[flag]) in err
        assert (other.read_text() if other.exists() else None) == existing


@pytest.mark.parametrize("svg", ["same.x", "./same.x", "link.x", "hard.x"])
def test_out_and_svg_naming_one_file_exits_2(svg, tmp_path, monkeypatch, capsys, no_integration):
    # The SVG would overwrite the trajectory, so the pair is refused before
    # the run: no file is created or changed and nothing is printed.
    monkeypatch.chdir(tmp_path)
    os.symlink("same.x", "link.x")
    if svg == "hard.x":
        pathlib.Path("same.x").write_text("old")
        os.link("same.x", "hard.x")
    before = sorted(os.listdir(tmp_path))
    code, out, err = run_cli(
        "simulate", "--flow", "t1", "--duration", "0.02", "--out", "same.x", "--svg", svg, capsys=capsys
    )
    assert (code, out) == (2, "")
    assert err == "error: --out and --svg name the same file 'same.x'\n"
    assert sorted(os.listdir(tmp_path)) == before
    if svg == "hard.x":
        assert pathlib.Path("same.x").read_text() == "old"


@pytest.mark.parametrize("svg_kind", ["new", "dangling link"])
@pytest.mark.parametrize("failure", ["exit 3", "interrupt"])
def test_failed_run_removes_only_the_files_it_created(failure, svg_kind, tmp_path, monkeypatch, capsys):
    # Both files are claimed before the run. A run that fails or is
    # interrupted leaves a file that was there as it was and removes the
    # one the claim created, also when it was created through a symlink.
    out_file, svg_file = tmp_path / "run.csv", tmp_path / "run.svg"
    out_file.write_bytes(b"old,run\r\n1,2\n")
    if svg_kind == "dangling link":
        svg_file.symlink_to("target.svg")
    before = sorted(os.listdir(tmp_path))
    argv = ["simulate", "--flow", "t1", "--duration", "1", "--out", str(out_file), "--svg", str(svg_file)]
    if failure == "exit 3":
        code, out, err = run_cli(*argv, "--state", "1,0.5,0,-1", "--alpha", "-0.1", capsys=capsys)
        assert (code, out) == (3, "")
        assert err.startswith("integration aborted: ")
    else:
        def interrupted(*args, **kwargs):
            assert svg_file.exists()
            raise KeyboardInterrupt

        monkeypatch.setattr(dynamics, "_integrate_ode", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert out_file.read_bytes() == b"old,run\r\n1,2\n"
    assert sorted(os.listdir(tmp_path)) == before and not svg_file.exists()


@pytest.mark.parametrize("flow, t0", [("t1", "1e17,0"), ("t2", "0,1e17")])
def test_duration_lost_against_t0_names_both(flow, t0, tmp_path, capsys, no_integration):
    # 1e17 + 1 == 1e17: the run would not move, and no waypoint was given.
    out_file = tmp_path / "x.csv"
    code, out, err = run_cli(
        "simulate", "--flow", flow, "--deformed", "true", "--t0", t0, "--duration", "1",
        "--out", str(out_file), capsys=capsys,
    )
    assert (code, out) == (2, "")
    assert err == f"error: --duration 1.0 does not move --t0 {t0}: t0 + duration rounds to t0\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--flow", "t1", "--duration", "0"],
        ["pfaffian", "--waypoints", "0,0;0.1,0"],
        ["spectral", "--state", "1,1,0,0"],
    ],
    ids=["simulate", "pfaffian", "spectral"],
)
def test_bare_command_uses_library_defaults(argv, tmp_path, monkeypatch, capsys):
    configs = []
    config_from_args = cli._config_from_args

    def recording(args):
        configs.append(config_from_args(args))
        return configs[-1]

    monkeypatch.setattr(cli, "_config_from_args", recording)
    out = [] if argv[0] == "spectral" else ["--out", str(tmp_path / "run.csv")]
    code, _, _ = run_cli(*argv, *out, capsys=capsys)
    assert code == 0
    assert configs == [dynamics.IntegratorConfig()]


# Finite numbers, with zeros, huge values and subnormals drawn often.
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200, -1e200, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _numbers(count: int):
    return st.lists(FINITE, min_size=count, max_size=count).map(
        lambda values: ",".join(repr(value) for value in values)
    )


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    flow=st.sampled_from(["t1", "t2"]),
    deformed=st.sampled_from(["true", "false"]),
    method=st.sampled_from(["rk45-adaptive", "rk4-fixed"]),
    state=_numbers(4),
    t0=_numbers(2),
    # Short spans and coarse steps keep each run to milliseconds; 1e-300
    # exercises the step budget.
    duration=st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(min_value=-0.1, max_value=0.2)),
    max_step=st.sampled_from([0.01, 0.1, 1.0, 1e-300, 0.0]),
    alpha=FINITE,
    lambdas=st.integers(min_value=1, max_value=3).flatmap(_numbers),
)
def test_simulate_finite_input_property(flow, deformed, method, state, t0, duration, max_step, alpha, lambdas):
    with tempfile.TemporaryDirectory() as scratch:
        out_file = f"{scratch}/run.csv"
        # Only a deformed run takes a start time.
        start = [f"--t0={t0}"] if deformed == "true" else []
        code, _ = _run_quietly([
            "simulate", "--flow", flow, f"--deformed={deformed}", f"--method={method}",
            f"--state={state}", *start, f"--duration={duration!r}",
            f"--max-step={max_step!r}", f"--alpha={alpha!r}", f"--lambdas={lambdas}",
            "--out", out_file,
        ])
        assert code in (0, 2, 3)
        if code == 0:
            with open(out_file) as stream:
                rows = list(csv.reader(stream))[1:]
            assert rows
            assert all(math.isfinite(float(cell)) for row in rows for cell in row)


@settings(max_examples=60, deadline=None)
@given(
    deformed=st.sampled_from(["true", "false"]),
    state=_numbers(4),
    t=_numbers(2),
    alpha=FINITE,
    lambdas=st.integers(min_value=1, max_value=3).flatmap(_numbers),
)
def test_spectral_finite_input_property(deformed, state, t, alpha, lambdas):
    code, out = _run_quietly([
        "spectral", f"--deformed={deformed}", f"--state={state}", f"--t={t}",
        f"--alpha={alpha!r}", f"--lambdas={lambdas}",
    ])
    assert code in (0, 2, 3)
    if code == 0:
        lines = [line for line in out.splitlines() if line.strip().startswith("lambda = ")]
        assert len(lines) == len(lambdas.split(","))
        assert not any("inf" in line or "nan" in line for line in lines)


class TestPfaffianCommand:
    def test_rectangle_paths_agree(self, tmp_path, capsys):
        files = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for waypoints, out_file in zip(
            ["0,0;0.5,0;0.5,0.5", "0,0;0,0.5;0.5,0.5"], files
        ):
            code, _, _ = run_cli(
                "pfaffian", "--waypoints", waypoints, "--state", "1,1,0,0",
                "--out", str(out_file), capsys=capsys,
            )
            assert code == 0
        endpoints = []
        for out_file in files:
            with open(out_file) as stream:
                last = list(csv.reader(stream))[-1]
            endpoints.append([float(value) for value in last[3:7]])
        for a, b in zip(*endpoints):
            assert a == pytest.approx(b, abs=1e-7)

    def test_bad_waypoints(self, capsys, tmp_path):
        code, _, err = run_cli(
            "pfaffian", "--waypoints", "0,0", "--state", "1,1,0,0",
            "--out", str(tmp_path / "x.csv"), capsys=capsys,
        )
        assert code == 2


class TestSpectralCommand:
    def test_zero_state(self, capsys):
        code, out, _ = run_cli(
            "spectral", "--state", "0,0,0,0", "--lambdas", "1", capsys=capsys
        )
        assert code == 0
        assert "lambda^5: 2" in out
        assert "1.41421356237j" in out

    def test_pairs_sum_to_zero(self, capsys):
        code, out, _ = run_cli(
            "spectral", "--state", "1,1,0,0", "--lambdas", "1", capsys=capsys
        )
        assert code == 0
        line = [l for l in out.splitlines() if l.strip().startswith("lambda = 1")][0]
        # real eigenvalue pair +-sqrt(1.625) at this state
        assert "lambda = 1: 1.2747548784+0j, -1.2747548784-0j" in line

    def test_close_lambdas_get_distinct_labels(self, capsys):
        code, out, _ = run_cli(
            "spectral", "--state", "1,1,0,0", "--lambdas", "1.0000001,1.0000002", capsys=capsys
        )
        assert code == 0
        labels = [l.split("lambda = ")[1].split(":")[0] for l in out.splitlines() if "lambda = " in l]
        assert len(set(labels)) == 2
        assert [float(label) for label in labels] == [1.0000001, 1.0000002]

    def test_malformed_state(self, capsys):
        code, _, err = run_cli("spectral", "--state", "a,b,c,d", capsys=capsys)
        assert code == 2

    def test_autonomous_curve_notes_an_ignored_t(self, capsys):
        code, plain, quiet = run_cli("spectral", "--state", "1,1,0,0", capsys=capsys)
        assert (code, quiet) == (0, "")
        code, out, err = run_cli("spectral", "--state", "1,1,0,0", "--t", "5,7", capsys=capsys)
        assert code == 0
        assert out == plain
        assert "eigenvalues at state = (1, 1, 0, 0), alpha = 0:" in out.splitlines()
        assert err == "note: --t is ignored: the autonomous curve does not depend on t\n"
        # A given --t is still parsed.
        code, out, err = run_cli("spectral", "--state", "1,1,0,0", "--t", "5,x", capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed time point")

    def test_deformed_curve_starts_at_the_origin(self, capsys):
        code, default, _ = run_cli("spectral", "--state", "1,1,0,0", "--deformed", "true", capsys=capsys)
        assert code == 0
        assert "eigenvalues at state = (1, 1, 0, 0), t = (0, 0), alpha = 0:" in default.splitlines()
        code, out, err = run_cli(
            "spectral", "--state", "1,1,0,0", "--deformed", "true", "--t", "0,0", capsys=capsys
        )
        assert (code, out, err) == (0, default, "")

    @pytest.mark.parametrize(
        "name, extra",
        [
            pytest.param("spectral_autonomous.txt", [], id="autonomous"),
            pytest.param("spectral_deformed.txt", ["--deformed", "true", "--t", "0.3,0.2"], id="deformed"),
        ],
    )
    def test_golden(self, name, extra, capsys, golden_dir):
        code, out, err = run_cli("spectral", "--state", "1,1,0.5,-0.25", "--alpha", "0.05", *extra, capsys=capsys)
        assert (code, err) == (0, "")
        assert out == (golden_dir / name).read_text()


class TestUsage:
    def test_no_command(self):
        result = run_subprocess()
        assert result.returncode == 2

    def test_unknown_command(self):
        result = run_subprocess("frobnicate")
        assert result.returncode == 2

    def test_help_exits_zero(self):
        result = run_subprocess("--help")
        assert result.returncode == 0
        assert "verify" in result.stdout

    def test_import_leaves_numpy_out(self):
        result = run_python("-c", "import sys, hhlax.cli; print('numpy' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


def test_package_import_loads_no_submodule():
    code = "import sys, hhlax\nprint(sorted(m for m in sys.modules if m.startswith('hhlax.')))"
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_import_leaves_subcommand_modules_unloaded():
    # `-S` keeps the host's site hooks from importing json on their own.
    code = (
        "import sys, hhlax.cli\n"
        "print(sorted(m for m in ('hhlax.verify', 'csv', 'json') if m in sys.modules))"
    )
    result = run_python("-S", "-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
