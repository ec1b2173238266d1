"""The three benchmark workloads: seeded inputs, one operation, its gate.

Every workload is a closed loop with one operation in flight.  Operation i
of a run is made by `make_op(seed, i)` alone, so the same seed gives the same
inputs on every run and machine, however many operations a run reaches.  A
gate (`check(op, result)`) returns None for a correct result and a one-line
reason otherwise; the runner counts a rejected or raising operation as failed.

- flow:  in-process batches of integrations (no export).  Kernels, the
         stepper and diagnostics do nearly all the work.
- exact: in-process exact checks on genuine or corrupted inputs plus one
         potential rung rebuilt through the public recursion.  Algebra,
         model and verify do all the work.
- cli:   `python -m hhlax` as a child process, one at a time, writing into a
         temporary directory.  The only workload with cold start and export.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

# Alpha values of the numeric workloads.  Zero removes the singular terms;
# the others fold x2^-2 / x2^-3 terms into the tables.  Set-up builds the
# tables for alpha = 0 only, so the timed operations of `flow` miss the table
# caches once per other value and hit them from then on.
ALPHAS = (0.0, 0.0, 0.05, 0.2)
DEFAULT_LAMBDAS = (0.5, 1.0, 2.0)
MANY_LAMBDAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0)

# Correctness bounds.  Autonomous DP45 runs at tol 1e-12 conserve h1, h2 and
# the Lax eigenvalues to about 3e-11 over duration 2 from this box; closed
# Pfaffian loops return to their start to about 1e-12.
DRIFT_BOUND = 1e-8
CLOSURE_BOUND = 1e-9
# The fixed-step RK4 runs of the cli workload (h = 1e-3, duration <= 0.6)
# conserve to about 1e-14.
RK4_DRIFT_BOUND = 1e-10

CHECK_NAMES = (
    "involution",
    "frobenius",
    "zero_curvature",
    "isospectral_lax_t1",
    "isospectral_lax_t2",
    "isomonodromic_lax_t1",
    "isomonodromic_lax_t2",
)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"hhlax-bench:{workload}:{seed}:{index}")


def _balanced(workload: str, seed: int, index: int, choices: tuple):
    """choices[j] for operation `index`, drawn as a seeded permutation of
    `choices` per block of len(choices) operations, so that every run has
    the same mix up to its last, partial block."""
    block, slot = divmod(index, len(choices))
    order = list(choices)
    random.Random(f"hhlax-bench:{workload}:{seed}:block{block}").shuffle(order)
    return order[slot]


def _state(rng: random.Random) -> tuple[float, float, float, float]:
    """A state in a small box around the reference state (1, 1, 0, 0)."""
    return (
        1.0 + rng.uniform(-0.05, 0.05),
        1.0 + rng.uniform(-0.05, 0.05),
        rng.uniform(-0.05, 0.05),
        rng.uniform(-0.05, 0.05),
    )


def _loop(rng: random.Random, scale: float = 1.0) -> list[tuple[float, float]]:
    """A closed triangle in the (t1, t2) plane whose three edges all move
    both times, so both Hamiltonian fields are evaluated at every stage;
    `scale` shrinks its edges."""
    base = (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
    a = (base[0] + scale * rng.uniform(0.15, 0.35), base[1] + scale * rng.uniform(0.1, 0.3))
    b = (a[0] + scale * rng.uniform(0.1, 0.2), base[1] - scale * rng.uniform(0.1, 0.3))
    return [base, a, b, base]


# -- flow ----------------------------------------------------------------


class Flow:
    name = "flow"

    def __init__(self) -> None:
        from hhlax import dynamics

        self.dyn = dynamics

    # One operation integrates this batch, with durations and loop edges
    # multiplied by one scale per operation.  The scales are spread evenly
    # over SCALE_RANGE in every block of operations, so the cost of an
    # operation varies about fourfold.  With costs in a narrow band, the
    # median latency would jump between the fast and slow spells of a shared
    # host instead of moving in proportion to the time spent in each.
    BATCH = ("t1", "t2", "loop", "t1", "t2", "loop")
    SCALE_RANGE = (0.25, 1.0)
    SCALE_STRATA = 5

    @classmethod
    def make_op(cls, seed: int, index: int) -> dict:
        rng = _rng("flow", seed, index)
        mix = tuple((alpha, stratum) for alpha in ALPHAS for stratum in range(cls.SCALE_STRATA))
        alpha, stratum = _balanced("flow", seed, index, mix)
        low, high = cls.SCALE_RANGE
        scale = low + (high - low) * (stratum + rng.random()) / cls.SCALE_STRATA
        runs = []
        for kind in cls.BATCH:
            if kind == "loop":
                runs.append({"kind": kind, "state": _state(rng), "waypoints": _loop(rng, scale)})
            else:
                runs.append({"kind": kind, "state": _state(rng), "duration": scale * rng.uniform(1.6, 2.0)})
        return {"alpha": alpha, "runs": runs}

    def setup(self) -> None:
        """Build the symbolic model and the alpha = 0 tables."""
        op = self.make_op(0, 0)
        op["alpha"] = 0.0
        op["runs"] = op["runs"][:3]
        op["runs"][0]["duration"] = op["runs"][1]["duration"] = 0.05
        self.run(op)

    def run(self, op: dict) -> list:
        dyn = self.dyn
        cfg = dyn.IntegratorConfig(alpha=op["alpha"])
        results = []
        for spec in op["runs"]:
            state = dyn.PhaseState(*spec["state"])
            if spec["kind"] == "loop":
                path = dyn.Path.from_pairs(spec["waypoints"])
                trajectory = dyn.integrate_pfaffian(state, path.waypoints[0], path, cfg, deformed=True)
            else:
                k = 1 if spec["kind"] == "t1" else 2
                trajectory = dyn.integrate_autonomous(k, state, spec["duration"], cfg)
            first, last = trajectory.samples[0], trajectory.samples[-1]
            results.append((trajectory.summary(), first.state, last.state, last.t))
        return results

    @staticmethod
    def check(op: dict, result: list) -> str | None:
        for spec, (summary, first, last, end) in zip(op["runs"], result, strict=True):
            kind = spec["kind"]
            if summary["samples"] < 2:
                return f"{kind} run recorded no steps"
            if kind == "loop":
                start = spec["waypoints"][0]
                if abs(end.t1 - start[0]) > 1e-12 or abs(end.t2 - start[1]) > 1e-12:
                    return f"loop ended at t = ({end.t1!r}, {end.t2!r}), not at its start"
                closure = max(
                    abs(a - b)
                    for a, b in zip(
                        (first.x1, first.x2, first.p1, first.p2), (last.x1, last.x2, last.p1, last.p2)
                    )
                )
                if not closure <= CLOSURE_BOUND:
                    return f"Pfaffian loop closure {closure!r} > {CLOSURE_BOUND}"
                continue
            reached = end.t1 if kind == "t1" else end.t2
            if reached != spec["duration"]:
                return f"{kind} flow ended at {reached!r}, not {spec['duration']!r}"
            for drift in ("h1_drift", "h2_drift", "eigenvalue_drift"):
                if not summary[drift] <= DRIFT_BOUND:
                    return f"{kind} flow {drift} = {summary[drift]!r} > {DRIFT_BOUND}"
        return None


# -- exact ---------------------------------------------------------------


def _corruption(rng: random.Random, with_lambda: bool):
    """A seeded term c * v^n added to one polynomial: v is a phase variable
    (or lambda, for matrix entries), n in 1..3, c a nonzero rational."""
    from hhlax.algebra import LaurentPoly, VarId

    variables = [VarId.X1, VarId.X2, VarId.P1, VarId.P2]
    if with_lambda:
        variables.append(VarId.LAMBDA)
    var = rng.choice(variables)
    numerator = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    coeff = Fraction(numerator, rng.randint(1, 4))
    return coeff * LaurentPoly.variable(var) ** rng.randint(1, 3)


class Exact:
    name = "exact"

    def __init__(self) -> None:
        from hhlax import algebra, model, verify

        self.alg, self.model, self.verify = algebra, model, verify

    @staticmethod
    def make_op(seed: int, index: int) -> dict:
        rng = _rng("exact", seed, index)
        op = {"k": rng.randint(-64, 64), "corrupt": _balanced("exact", seed, index, (False, True))}
        if op["corrupt"]:
            check = rng.choice(CHECK_NAMES)
            lax = check.startswith("iso")
            op["check"] = check
            # Lax checks get a corrupted triple or Hamiltonian, the others a
            # corrupted Hamiltonian pair.
            op["target"] = rng.choice(["L", "U", "h"]) if lax else rng.choice(["h1", "h2"])
            op["entry"] = rng.randrange(4)
            op["term_seed"] = rng.getrandbits(32)
        return op

    def setup(self) -> None:
        """Build the Hamiltonians, Lax triples and every rung |k| <= 64."""
        self.verify.run_checks()
        for k in range(-64, 65):
            self.model.potential(k)

    def _corrupted_inputs(self, op: dict):
        model = self.model
        check = op["check"]
        deformed = check in ("frobenius", "zero_curvature") or check.startswith("isomonodromic")
        k = 2 if check.endswith("t2") else 1
        hams = model.hamiltonians(deformed)
        triple = model.lax_matrices(deformed)
        term = _corruption(random.Random(op["term_seed"]), op["target"] in ("L", "U"))
        target = op["target"]
        if target == "h":
            target = "h1" if k == 1 else "h2"
        if target in ("h1", "h2"):
            h1, h2 = hams.h1, hams.h2
            if target == "h1":
                h1 = h1 + term
            else:
                h2 = h2 + term
            hams = model.HamiltonianSet(h1, h2, hams.deformed)
        else:
            name = "L" if target == "L" else f"U{k}"
            entries = list(getattr(triple, name).entries())
            entries[op["entry"]] = entries[op["entry"]] + term
            fields = {"L": triple.L, "U1": triple.U1, "U2": triple.U2, name: self.alg.PolyMatrix2(*entries)}
            triple = model.LaxTriple(fields["L"], fields["U1"], fields["U2"], triple.deformed)
        return hams, triple, k

    def run(self, op: dict) -> dict:
        verify, model = self.verify, self.model
        if op["corrupt"]:
            hams, triple, k = self._corrupted_inputs(op)
            check = op["check"]
            if check == "involution":
                reports = [verify.check_involution(hams)]
            elif check == "frobenius":
                reports = [verify.check_frobenius(hams)]
            elif check == "zero_curvature":
                reports = [verify.check_zero_curvature(hams)]
            elif check.startswith("isospectral"):
                reports = [verify.check_isospectral_lax(k, triple, hams)]
            else:
                reports = [verify.check_isomonodromic_lax(k, triple, hams)]
        else:
            reports = verify.run_checks()
        k = op["k"]
        step = model.recursion_matrix() if k >= 0 else model.recursion_matrix_inverse()
        rung = (self.alg.LaurentPoly.zero(), self.alg.LaurentPoly.one())
        for _ in range(abs(k)):
            rung = step.apply(rung)
        expected = model.potential(k)
        return {
            "verdicts": [(report.name, report.passed) for report in reports],
            "rung": rung,
            "rung_expected": (expected.v1, expected.v2),
        }

    @staticmethod
    def check(op: dict, result: dict) -> str | None:
        verdicts = result["verdicts"]
        if op["corrupt"]:
            if len(verdicts) != 1 or verdicts[0][1]:
                return f"corrupted {op['check']} input ({op['target']}) was not rejected: {verdicts}"
        elif [name for name, _ in verdicts] != list(CHECK_NAMES) or not all(p for _, p in verdicts):
            return f"genuine model failed its checks: {verdicts}"
        if tuple(result["rung"]) != tuple(result["rung_expected"]):
            return f"rebuilt rung k = {op['k']} differs from potential(k)"
        return None


# -- cli -----------------------------------------------------------------

_SAMPLES = re.compile(r"^samples = (\d+)$", re.M)
_DRIFT = re.compile(r"^(h1|h2|eigenvalue) drift = (\S+)$", re.M)
_EIGEN = re.compile(r"^  lambda = (\S+): (\S+)j, (\S+)j$", re.M)


def child_env(root: str) -> dict:
    """The environment of a child process that imports hhlax from root/src."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def expected_columns(lambdas) -> list[str]:
    names = ["s", "t1", "t2", "x1", "x2", "p1", "p2", "h1", "h2"]
    for lam in lambdas:
        names += [f"eig_re_{lam:g}", f"eig_im_{lam:g}"]
    return names


class Cli:
    name = "cli"
    KINDS = ("verify", "potential", "simulate_dp45_csv", "simulate_rk4_json", "pfaffian", "spectral")

    def __init__(self, root: str) -> None:
        from hhlax import dynamics, model

        self.dyn, self.model = dynamics, model
        self.root = root
        self.python = sys.executable
        self.env = child_env(root)
        self.scratch = os.path.join(root, "perfbench", "out", "tmp")

    @classmethod
    def make_op(cls, seed: int, index: int) -> dict:
        rng = _rng("cli", seed, index)
        kind = _balanced("cli", seed, index, cls.KINDS)
        op = {"kind": kind}
        if kind == "verify":
            op["argv"] = ["verify"]
        elif kind == "potential":
            op["k"] = rng.randint(-64, 64)
            op["argv"] = ["potential", "--k", str(op["k"])]
        elif kind == "simulate_dp45_csv":
            op["lambdas"] = DEFAULT_LAMBDAS
            op["argv"] = [
                "simulate", "--flow", rng.choice(["t1", "t2"]),
                f"--state={_floats(_state(rng))}",
                "--duration", repr(rng.uniform(0.5, 2.0)),
                "--alpha", repr(rng.choice(ALPHAS)),
                "--format", "csv", "--out", "out.csv",
            ]
        elif kind == "simulate_rk4_json":
            op["lambdas"] = MANY_LAMBDAS
            op["argv"] = [
                "simulate", "--flow", rng.choice(["t1", "t2"]),
                f"--state={_floats(_state(rng))}",
                "--duration", repr(rng.uniform(0.2, 0.6)),
                "--method", "rk4-fixed", "--max-step", "1e-3",
                "--lambdas", _floats(MANY_LAMBDAS),
                "--format", "json", "--out", "out.json",
            ]
        elif kind == "pfaffian":
            op["lambdas"] = DEFAULT_LAMBDAS
            op["waypoints"] = _loop(rng)
            op["argv"] = [
                "pfaffian",
                "--waypoints=" + ";".join(f"{a!r},{b!r}" for a, b in op["waypoints"]),
                f"--state={_floats(_state(rng))}",
                "--alpha", repr(rng.choice(ALPHAS)),
                "--format", "csv", "--out", "out.csv",
            ]
        else:
            op["state"] = _state(rng)
            op["t"] = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            op["alpha"] = rng.choice(ALPHAS)
            op["deformed"] = rng.random() < 0.5
            op["argv"] = [
                # "--flag=value" keeps argparse from reading "-0.1,..." as a flag.
                "spectral", f"--state={_floats(op['state'])}", f"--t={_floats(op['t'])}",
                "--alpha", repr(op["alpha"]), "--deformed", str(op["deformed"]).lower(),
                "--lambdas", _floats(DEFAULT_LAMBDAS),
            ]
        return op

    def setup(self) -> None:
        """Create the scratch root and run one child, so that byte-code
        caches exist before timing, as they do after an install."""
        os.makedirs(self.scratch, exist_ok=True)
        op = self.make_op(0, 0)
        op["argv"] = ["verify"]
        self.cleanup(self.run(op))

    def command(self, op: dict, spans: str | None = None) -> list[str]:
        if spans is None:
            return [self.python, "-m", "hhlax", *op["argv"]]
        child = os.path.join(self.root, "perfbench", "cli_child.py")
        return [self.python, child, spans, *op["argv"]]

    def run(self, op: dict, traced: bool = False) -> dict:
        """Run one child in a fresh directory; with `traced`, under
        cli_child.py, which leaves its spans in the directory."""
        workdir = tempfile.mkdtemp(dir=self.scratch)
        spans = os.path.join(workdir, "spans.json") if traced else None
        completed = subprocess.run(
            self.command(op, spans), cwd=workdir, env=self.env,
            capture_output=True, text=True, timeout=60,
        )
        return {
            "workdir": workdir,
            "spans": spans,
            "returncode": completed.returncode,
            "stdout": completed.stdout,
            "stderr": completed.stderr,
        }

    @staticmethod
    def cleanup(result: dict) -> None:
        shutil.rmtree(result["workdir"], ignore_errors=True)

    def check(self, op: dict, result: dict) -> str | None:
        if result["returncode"] != 0:
            return f"exit code {result['returncode']}: {result['stderr'].strip()[-200:]}"
        out = result["stdout"]
        kind = op["kind"]
        if kind == "verify":
            if "7/7 checks passed" not in out.splitlines():
                return "verify did not report 7/7 checks passed"
            return None
        if kind == "potential":
            pair = self.model.potential(op["k"])
            if out != f"v1 = {pair.v1}\nv2 = {pair.v2}\n":
                return f"potential --k {op['k']} printed another rung"
            return None
        if kind == "spectral":
            return self._check_spectral(op, out)
        return self._check_trajectory(op, result)

    def _check_spectral(self, op: dict, out: str) -> str | None:
        dyn = self.dyn
        printed = _EIGEN.findall(out)
        if len(printed) != len(DEFAULT_LAMBDAS):
            return f"spectral printed {len(printed)} eigenvalue lines"
        expected = dyn.eigenvalue_samples(
            op["deformed"], dyn.PhaseState(*op["state"]), dyn.TimePoint(*op["t"]),
            op["alpha"], DEFAULT_LAMBDAS,
        )
        for (_, plus, minus), (want_plus, want_minus) in zip(printed, expected):
            for text, want in ((plus, want_plus), (minus, want_minus)):
                got = complex(text + "j")
                if abs(got - want) > 1e-10 * max(1.0, abs(want)):
                    return f"spectral eigenvalue {got!r} differs from {want!r}"
        return None

    def _check_trajectory(self, op: dict, result: dict) -> str | None:
        out = result["stdout"]
        match = _SAMPLES.search(out)
        if not match:
            return "no 'samples = N' line"
        samples = int(match.group(1))
        columns = expected_columns(op["lambdas"])
        path = os.path.join(result["workdir"], op["argv"][op["argv"].index("--out") + 1])
        try:
            with open(path, newline="") as stream:
                if path.endswith(".json"):
                    payload = json.load(stream)
                    header, rows = payload["columns"], payload["rows"]
                else:
                    reader = csv.reader(stream)
                    header = next(reader)
                    rows = [[float(v) for v in row] for row in reader]
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            return f"unreadable output file: {exc}"
        if header != columns:
            return f"column header {header[:12]} is not the fixed header"
        if len(rows) != samples:
            return f"{len(rows)} rows written, but samples = {samples}"
        if any(len(row) != len(columns) or not all(map(math.isfinite, row)) for row in rows):
            return "a row is short or not finite"
        if op["kind"] == "pfaffian":
            closure = max(abs(a - b) for a, b in zip(rows[0][3:7], rows[-1][3:7]))
            if not closure <= CLOSURE_BOUND:
                return f"Pfaffian loop closure {closure!r} > {CLOSURE_BOUND}"
        else:
            bound = RK4_DRIFT_BOUND if op["kind"] == "simulate_rk4_json" else DRIFT_BOUND
            drifts = dict(_DRIFT.findall(out))
            if len(drifts) != 3:
                return "drift lines missing"
            for name, value in drifts.items():
                if not float(value) <= bound:
                    return f"{name} drift {value} > {bound}"
        return None


def make(name: str, root: str):
    if name == "flow":
        return Flow()
    if name == "exact":
        return Exact()
    if name == "cli":
        return Cli(root)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("flow", "exact", "cli")
# The workloads that BENCHMARK.json lists.  A cli operation is mostly a cold
# interpreter start and import, whose speed on a shared host drifts between
# runs by more than the end-to-end bounds allow; cli stays runnable by hand,
# and its layer is measured by the sweep of every traced run.
BENCHMARKED = ("flow", "exact")
