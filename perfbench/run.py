"""hhlax benchmark: one seeded workload per run, end to end or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {flow,exact,cli} --seed N --seconds S --trace {0,1}

The package is imported from `src/` of the checkout, as installed without the
optional compiled kernel; HHLAX_PURE_PYTHON is never set.  Each run is a
closed loop with one operation in flight, for at least S seconds and at
least MIN_OPS operations, and every operation passes its workload's
correctness gate or counts as failed (see workloads.py).

--trace 0  reports the end-to-end metrics, measured with no tracing:
           setup_s, ops_per_s, op_p50_ms, op_p90_ms, peak_rss_mb.
--trace 1  runs each operation twice, untraced and traced, in alternating
           order; the traced copies record spans (tracing.py), a fixed layer
           sweep (sweep.py) follows, and the per-layer metrics are derived
           from both.  The difference between the copies is the tracing
           overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give the
environment and every metric by name, unit and (for per-layer metrics) the
end-to-end metric and workload it should move.  A result file with the same
data, and for --trace 1 the spans, is written under perfbench/out/.  The exit
code is 0 only when every operation passed its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_OPS = 100  # so that p90 has at least 10 samples beyond it
MAX_LOOP_S = 120.0  # a run stops here even below MIN_OPS, to end within 180 s
SETUP_REPEATS = 9

_clock = time.perf_counter


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_package():
    """Import hhlax from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "hhlax" / "__init__.py").is_file():
        raise ImportError(f"no hhlax package under {src}")
    sys.path.insert(0, str(src))
    import hhlax

    if Path(hhlax.__file__).resolve().parent != (src / "hhlax").resolve():
        raise ImportError(f"hhlax imported from {hhlax.__file__}, not from {src}")
    return hhlax


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        from hhlax.kernels import active_backend

        backend = active_backend()
    except ImportError:
        backend = "n/a"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "hhlax_backend": backend,
        "HHLAX_PURE_PYTHON": os.environ.get("HHLAX_PURE_PYTHON"),
        "git_sha": _git_sha(),
        "seed": args.seed,
        "command": [sys.executable, *sys.argv],
    }


# -- operations --------------------------------------------------------------


class Loop:
    """Runs operations one at a time and keeps latencies and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def run_one(self, index: int, op: dict, tracer=None) -> float:
        """Run operation `index` and gate it; returns its latency in seconds.

        With a tracer, the operation runs inside a "bench.op" span with the
        package instrumented (cli: the child process traces itself).
        """
        workload = self.workload
        result = None
        start = _clock()
        try:
            if tracer is None:
                start = _clock()
                result = workload.run(op)
                latency = _clock() - start
            elif workload.name == "cli":
                with tracer.span("bench.op") as root:
                    start = _clock()
                    result = workload.run(op, traced=True)
                    latency = _clock() - start
                _graft_child_spans(tracer, root, result)
            else:
                from tracing import instrument

                restore = instrument(tracer)
                try:
                    with tracer.span("bench.op"):
                        start = _clock()
                        result = workload.run(op)
                        latency = _clock() - start
                finally:
                    restore()
            reason = workload.check(op, result)
        except Exception as exc:  # the gate counts any error as a failed operation
            latency = _clock() - start
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            if result is not None and hasattr(workload, "cleanup"):
                workload.cleanup(result)
        self.latencies.append(latency)
        if reason is not None:
            self.failures.append(f"op {index}: {reason}")
        return latency


def _graft_child_spans(tracer, root: int, result: dict) -> None:
    spans_path = result.get("spans")
    if not spans_path or not os.path.exists(spans_path):
        return
    with open(spans_path) as stream:
        payload = json.load(stream)
    tracer.merge(payload["spans"], root)


def _quantiles(values: list[float]) -> tuple[float, float]:
    cuts = statistics.quantiles(values, n=10)
    return statistics.median(values), cuts[8]


def _setup_probe(args) -> float:
    """Time one fresh process from start until the workload is set up."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    start = _clock()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = _clock()
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return ready - start


END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


# -- per-layer metrics ---------------------------------------------------------

# The end-to-end metric and workload that a change in each layer should move;
# on every other workload the prediction is no change.
LAYER_MOVES = {
    "kernels": "ops_per_s and op_p50_ms on flow; a little of op_p50_ms on cli",
    "dynamics": "ops_per_s and op_p50_ms on flow (stepper, diagnostics)",
    "export": "op_p50_ms and op_p90_ms on cli",
    "algebra": "ops_per_s on exact; setup_s on flow",
    "model": "ops_per_s and op_p90_ms on exact; setup_s on every workload",
    "verify": "ops_per_s and op_p90_ms on exact; the verify operations of cli",
    "cli": "op_p50_ms on cli; nothing elsewhere",
    "other": "op_p50_ms on cli (interpreter start and exit)",
    "trace": "none: the cost of tracing itself",
}

# name -> (unit, better)
PER_LAYER = {
    "kernels.rhs_calls": ("count/op", "lower"),
    "kernels.rhs_call_us": ("us", "lower"),
    "kernels.diag_calls": ("count/op", "lower"),
    "kernels.det_call_us": ("us", "lower"),
    "kernels.ham_call_us": ("us", "lower"),
    "kernels.table_builds": ("count/op", "lower"),
    "kernels.table_build_ms": ("ms", "lower"),
    "kernels.table_cache_hit_ratio": ("ratio", "higher"),
    "dynamics.integrate_ms": ("ms", "lower"),
    "dynamics.self_ms": ("ms", "lower"),
    "dynamics.accepted_steps": ("count", "lower"),
    "dynamics.accept_ratio": ("ratio", "higher"),
    "dynamics.diagnose_sample_us": ("us", "lower"),
    "dynamics.write_csv_ms_per_krow": ("ms/krow", "lower"),
    "dynamics.write_json_ms_per_krow": ("ms/krow", "lower"),
    "dynamics.export_bytes": ("bytes/op", "lower"),
    "algebra.poisson_bracket_us": ("us", "lower"),
    "algebra.substitute_rational_us": ("us", "lower"),
    "algebra.residual_terms": ("count/op", "lower"),
    "model.potential_rung_ms": ("ms", "lower"),
    "model.potential_terms": ("count", "lower"),
    "model.hamiltonians_cold_ms": ("ms", "lower"),
    "model.lax_matrices_cold_ms": ("ms", "lower"),
    "verify.involution_ms": ("ms", "lower"),
    "verify.frobenius_ms": ("ms", "lower"),
    "verify.zero_curvature_ms": ("ms", "lower"),
    "verify.isospectral_lax_t1_ms": ("ms", "lower"),
    "verify.isospectral_lax_t2_ms": ("ms", "lower"),
    "verify.isomonodromic_lax_t1_ms": ("ms", "lower"),
    "verify.isomonodromic_lax_t2_ms": ("ms", "lower"),
    "verify.run_checks_ms": ("ms", "lower"),
    "verify.corrupted_check_ms": ("ms", "lower"),
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_ms.verify": ("ms", "lower"),
    "cli.main_ms.potential": ("ms", "lower"),
    "cli.main_ms.simulate": ("ms", "lower"),
    "cli.main_ms.pfaffian": ("ms", "lower"),
    "cli.main_ms.spectral": ("ms", "lower"),
    "kernels.op_share_pct": ("%", "lower"),
    "dynamics.op_share_pct": ("%", "lower"),
    "algebra.op_share_pct": ("%", "lower"),
    "model.op_share_pct": ("%", "lower"),
    "verify.op_share_pct": ("%", "lower"),
    "cli.op_share_pct": ("%", "lower"),
    "other.op_share_pct": ("%", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.spans_per_op": ("count/op", "lower"),
}


def moves(name: str) -> str:
    layer = name.split(".", 1)[0]
    if name.startswith(("dynamics.write_", "dynamics.export_")):
        layer = "export"
    return LAYER_MOVES[layer]


INTEGRATE = ("dynamics.integrate_autonomous", "dynamics.integrate_pfaffian")
DYNAMICS_ENTRY = INTEGRATE + ("dynamics.snapshot", "dynamics.flow_rhs", "dynamics.eigenvalue_samples")


class SpanIndex:
    """Per-name statistics of one tracer, for the spans under chosen roots."""

    def __init__(self, tracer, roots) -> None:
        self.tracer = tracer
        names = tracer.names
        n = len(tracer)
        top = [0] * n
        integ = [-1] * n
        entry = [-1] * n
        keep_roots = {i for i in range(n) if tracer.parent[i] < 0 and roots(names[tracer.name_id[i]])}
        self.by_name: dict[str, list[int]] = {}
        self.roots = sorted(keep_roots)
        # Per integrate span: 4-poly calls and time spent in other layers.
        self.rhs_calls: dict[int, int] = {}
        self.foreign: dict[int, float] = {}
        # Per top-level dynamics entry: table serials used and tables built.
        self.requested: dict[int, set] = {}
        self.built: dict[int, int] = {}
        for i in range(n):
            p = tracer.parent[i]
            name = names[tracer.name_id[i]]
            top[i] = i if p < 0 else top[p]
            if top[i] not in keep_roots:
                continue
            self.by_name.setdefault(name, []).append(i)
            parent_integ = integ[p] if p >= 0 else -1
            integ[i] = i if name in INTEGRATE else parent_integ
            parent_entry = entry[p] if p >= 0 else -1
            entry[i] = i if (name in DYNAMICS_ENTRY and parent_entry < 0) else parent_entry
            # Outermost spans of other layers inside an integrate call.
            if (parent_integ >= 0 and not name.startswith("dynamics.")
                    and names[tracer.name_id[p]].startswith("dynamics.")):
                self.foreign[parent_integ] = self.foreign.get(parent_integ, 0.0) + tracer.duration(i)
            if name == "kernels.call.4" and parent_integ >= 0:
                self.rhs_calls[parent_integ] = self.rhs_calls.get(parent_integ, 0) + 1
            if parent_entry >= 0:
                if name.startswith("kernels.call."):
                    self.requested.setdefault(parent_entry, set()).add(tracer.tag[i])
                elif name.startswith("kernels.build."):
                    self.built[parent_entry] = self.built.get(parent_entry, 0) + 1

    def spans(self, *names: str, prefix: bool = False) -> list[int]:
        if prefix:
            return [i for name, idx in self.by_name.items() if name.startswith(names) for i in idx]
        return [i for name in names for i in self.by_name.get(name, ())]

    def mean_ms(self, spans: list[int]) -> float | None:
        if not spans:
            return None
        return 1e3 * sum(self.tracer.duration(i) for i in spans) / len(spans)

    def attr_sum(self, spans: list[int], key: str) -> float:
        return sum((self.tracer.attrs.get(i) or {}).get(key) or 0 for i in spans)

    def mean_attr(self, spans: list[int], key: str) -> float | None:
        return self.attr_sum(spans, key) / len(spans) if spans else None

    # -- derived quantities, each None when the spans it needs are absent --

    def integrate_self_ms(self) -> float | None:
        spans = self.spans(*INTEGRATE)
        if not spans:
            return None
        tracer = self.tracer
        return 1e3 * sum(tracer.duration(i) - self.foreign.get(i, 0.0) for i in spans) / len(spans)

    def accepted_steps(self) -> float | None:
        spans = self.spans(*INTEGRATE)
        samples = self.mean_attr(spans, "samples")
        return None if samples is None else samples - 1

    def accept_ratio(self) -> float | None:
        accepted = attempted = 0.0
        for i in self.spans(*INTEGRATE):
            attrs = self.tracer.attrs[i]
            if attrs["method"] != "rk45-adaptive" or not attrs["fields"] or i not in self.rhs_calls:
                continue
            evaluations = self.rhs_calls[i] / attrs["fields"]
            accepted += attrs["samples"] - 1
            attempted += (evaluations - attrs["segments"]) / 6
        return accepted / attempted if attempted else None

    def cache_hit_ratio(self) -> float | None:
        requested = sum(len(tables) for tables in self.requested.values())
        if not requested:
            return None
        return 1.0 - sum(self.built.values()) / requested

    def export_ms_per_krow(self, name: str) -> float | None:
        spans = self.spans(name)
        rows = self.attr_sum(spans, "rows")
        if not rows:
            return None
        return 1e3 * sum(self.tracer.duration(i) for i in spans) / rows * 1000

    def direct_checks(self) -> list[int]:
        """Check calls made directly, not through the registry."""
        tracer = self.tracer
        return [
            i for i in self.spans("verify.check_", prefix=True)
            if tracer.parent[i] < 0 or not tracer.name(tracer.parent[i]).startswith("verify.registry.")
        ]

    def residual_terms(self) -> float:
        spans = self.spans("verify.registry.", prefix=True) + self.direct_checks()
        return self.attr_sum(spans, "residual_terms")

    def layer_shares(self) -> dict[str, float]:
        tracer = self.tracer
        total = sum(tracer.duration(i) for i in self.roots)
        shares = {layer: 0.0 for layer in ("kernels", "dynamics", "algebra", "model", "verify", "cli", "other")}
        for name, spans in self.by_name.items():
            layer = name.split(".", 1)[0]
            layer = layer if layer in shares else "other"
            shares[layer] += sum(tracer.self_time(i) for i in spans)
        return {layer: 100.0 * value / total for layer, value in shares.items()} if total else shares


def per_layer_metrics(tracer, sweep, probes: dict, pairs: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The per-layer metrics and, for each, whether the workload or the sweep gave it."""
    ops = SpanIndex(tracer, lambda name: name == "bench.op")
    whole = SpanIndex(tracer, lambda name: True)
    n_ops = max(1, len(ops.roots))

    def sweep_step(step: str) -> SpanIndex:
        return SpanIndex(sweep, lambda name: name == f"sweep.{step}")

    reference = sweep_step("reference")
    values: dict[str, float] = {}
    source: dict[str, str] = {}

    def put(name: str, workload_value, sweep_value=None) -> None:
        if workload_value is not None:
            values[name], source[name] = workload_value, "workload"
        else:
            values[name], source[name] = (sweep_value if sweep_value is not None else 0.0), "sweep"

    def us(index: SpanIndex, *names: str):
        ms = index.mean_ms(index.spans(*names))
        return None if ms is None else 1e3 * ms

    def per_op(count: float) -> float:
        return count / n_ops

    put("kernels.rhs_calls", per_op(len(ops.spans("kernels.call.4"))))
    put("kernels.rhs_call_us", us(ops, "kernels.call.4"), us(reference, "kernels.call.4"))
    put("kernels.diag_calls", per_op(len(ops.spans("kernels.call.1", "kernels.call.2"))))
    put("kernels.det_call_us", us(ops, "kernels.call.1"), us(reference, "kernels.call.1"))
    put("kernels.ham_call_us", us(ops, "kernels.call.2"), us(reference, "kernels.call.2"))
    put("kernels.table_builds", per_op(len(ops.spans("kernels.build.", prefix=True))))
    builds = whole.spans("kernels.build.", prefix=True)
    fold = sweep_step("fold")
    put("kernels.table_build_ms", whole.mean_ms(builds),
        fold.mean_ms(fold.spans("kernels.build.", prefix=True)))
    put("kernels.table_cache_hit_ratio", ops.cache_hit_ratio(), reference.cache_hit_ratio())

    put("dynamics.integrate_ms", ops.mean_ms(ops.spans(*INTEGRATE)), reference.mean_ms(reference.spans(*INTEGRATE)))
    put("dynamics.self_ms", ops.integrate_self_ms(), reference.integrate_self_ms())
    put("dynamics.accepted_steps", ops.accepted_steps(), reference.accepted_steps())
    put("dynamics.accept_ratio", ops.accept_ratio(), reference.accept_ratio())
    snapshot = sweep_step("snapshot")
    put("dynamics.diagnose_sample_us", us(ops, "dynamics.snapshot"), us(snapshot, "dynamics.snapshot"))
    export = sweep_step("export")
    for fmt in ("csv", "json"):
        put(f"dynamics.write_{fmt}_ms_per_krow", ops.export_ms_per_krow(f"dynamics.write_{fmt}"),
            export.export_ms_per_krow(f"dynamics.write_{fmt}"))
    put("dynamics.export_bytes", per_op(ops.attr_sum(ops.spans("dynamics.write_csv", "dynamics.write_json"), "bytes")))

    bracket = sweep_step("poisson_bracket")
    put("algebra.poisson_bracket_us", None, us(bracket, "algebra.poisson_bracket"))
    put("algebra.substitute_rational_us", None, us(fold, "algebra.substitute_rational"))
    put("algebra.residual_terms", per_op(ops.residual_terms()))

    rung = sweep_step("rung")
    put("model.potential_rung_ms", None, rung.mean_ms(rung.spans("model.rung_rebuild")))
    put("model.potential_terms", ops.mean_attr(ops.spans("model.potential"), "terms"),
        rung.mean_attr(rung.spans("model.potential"), "terms"))
    cold = sweep_step("cold_model")
    put("model.hamiltonians_cold_ms", None, cold.mean_ms(cold.spans("model.hamiltonians")))
    put("model.lax_matrices_cold_ms", None, cold.mean_ms(cold.spans("model.lax_matrices")))

    checks = sweep_step("checks")
    from workloads import CHECK_NAMES

    for check in CHECK_NAMES:
        name = f"verify.registry.{check}"
        put(f"verify.{check}_ms", ops.mean_ms(ops.spans(name)), checks.mean_ms(checks.spans(name)))
    put("verify.run_checks_ms", ops.mean_ms(ops.spans("verify.run_checks")),
        checks.mean_ms(checks.spans("verify.run_checks")))
    corrupted = sweep_step("corrupted")
    put("verify.corrupted_check_ms", ops.mean_ms(ops.direct_checks()), corrupted.mean_ms(corrupted.direct_checks()))

    put("cli.interpreter_s", None, probes["cli.interpreter_s"])
    put("cli.import_s", None, probes["cli.import_s"])
    for sub in ("verify", "potential", "simulate", "pfaffian", "spectral"):
        step = sweep_step(f"cli.{sub}")
        spans = step.spans(f"cli.main.{sub}")
        put(f"cli.main_ms.{sub}", None, statistics.median(sweep.duration(i) for i in spans) * 1e3)

    for layer, share in ops.layer_shares().items():
        put(f"{layer}.op_share_pct", share)

    untraced = sum(u for u, _ in pairs)
    put("trace.overhead_pct", 100.0 * (sum(t for _, t in pairs) / untraced - 1.0) if untraced else 0.0)
    put("trace.overhead_ms", 1e3 * statistics.median(t - u for u, t in pairs) if pairs else 0.0)
    put("trace.spans_per_op", sum(len(spans) for spans in ops.by_name.values()) / n_ops)
    return values, source


# -- runs ------------------------------------------------------------------------


def _loop_done(start: float, count: int, seconds: float) -> bool:
    elapsed = _clock() - start
    return (elapsed >= seconds and count >= MIN_OPS) or elapsed >= MAX_LOOP_S


def run_untraced(workload, args) -> tuple[Loop, dict]:
    """The timed loop, with the set-up probes spread over it.

    Probe j runs once the loop has spent j/SETUP_REPEATS of --seconds, so
    set-up is timed in the same stretches of host speed as the operations;
    the time spent in probes does not count towards --seconds.  On `cli` the
    probes follow the loop, since their peak memory would otherwise count as
    that of the workload's children.
    """
    loop = Loop(workload)
    spread = workload.name != "cli"
    setup: list[float] = []
    probing = 0.0
    start = _clock()
    index = 0
    while not _loop_done(start + probing, index, args.seconds):
        if spread and len(setup) < SETUP_REPEATS and (
                _clock() - start - probing >= args.seconds * len(setup) / SETUP_REPEATS):
            before = _clock()
            setup.append(_setup_probe(args))
            probing += _clock() - before
        loop.run_one(index, workload.make_op(args.seed, index))
        index += 1
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    while len(setup) < SETUP_REPEATS:
        setup.append(_setup_probe(args))
    p50, p90 = _quantiles(loop.latencies)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(loop.latencies) / sum(loop.latencies),
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    details = {
        "samples": len(loop.latencies),
        "setup_samples_s": setup,
        "failed_ratio": len(loop.failures) / len(loop.latencies),
        "latencies_ms": [round(1e3 * latency, 4) for latency in loop.latencies],
    }
    return loop, {"metrics": metrics, "details": details}


def run_traced(workload, args, tracer) -> tuple[Loop, dict]:
    from sweep import run_sweep
    from workloads import child_env

    loop = Loop(workload)
    pairs = []
    start = _clock()
    index = 0
    # Half the time on each copy, so the pairs reach the usual run length.
    while not _loop_done(start, 2 * index, args.seconds) or index < 2:
        op = workload.make_op(args.seed, index)
        if index % 2:
            traced = loop.run_one(index, op, tracer=tracer)
            untraced = loop.run_one(index, op)
        else:
            untraced = loop.run_one(index, op)
            traced = loop.run_one(index, op, tracer=tracer)
        pairs.append((untraced, traced))
        index += 1
    sweep, probes = run_sweep(sys.executable, child_env(str(ROOT)), str(OUT / "tmp"))
    values, source = per_layer_metrics(tracer, sweep, probes, pairs)
    metrics = {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
    details = {
        "pairs": len(pairs),
        "source": source,
        "moves": {name: moves(name) for name in PER_LAYER},
        "failed_ratio": len(loop.failures) / len(loop.latencies),
    }
    return loop, {"metrics": metrics, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["flow", "exact", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        return _fail("--seconds must be positive")
    try:
        _import_package()
    except ImportError as exc:
        return _fail(f"cannot import the package from this checkout: {exc}")

    import workloads

    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    workload = workloads.make(args.workload, str(ROOT))
    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        return 0

    env = _environment(args)
    tracer = None
    if args.trace:
        from tracing import Tracer, instrument

        tracer = Tracer()
        restore = instrument(tracer)
        try:
            with tracer.span("bench.setup"):
                workload.setup()
        finally:
            restore()
        loop, report = run_traced(workload, args, tracer)
    else:
        workload.setup()
        loop, report = run_untraced(workload, args)

    attempted, failed = len(loop.latencies), len(loop.failures)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "failures": loop.failures[:20],
        **report["details"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in report["metrics"].items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.json.gz", workload=args.workload, seed=args.seed)

    print(f"# environment: {json.dumps(env)}")
    print(f"# workload {args.workload}, seed {args.seed}: {attempted} operations, {failed} failed,"
          f" failed_ratio {failed / attempted:.4g}")
    for reason in loop.failures[:5]:
        print(f"# FAILED {reason}")
    moved_by = report["details"].get("moves", {})
    for name, (value, unit) in report["metrics"].items():
        tail = f"  [{report['details']['source'][name]}; moves {moved_by[name]}]" if moved_by else ""
        print(f"# {name:34s} {value:14.6g} {unit}{tail}")
    if not args.trace:
        print(f"# op_p50_ms and op_p90_ms over {attempted} operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in report["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
