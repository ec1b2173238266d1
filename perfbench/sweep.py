"""The layer sweep: fixed calls into every layer, run at the end of a traced run.

Per-layer costs that the workload itself did not exercise (kernel calls on
`exact`, rung rebuilds on `flow`, ...) and the costs the benchmark defines on
fixed inputs (the Poisson bracket of the deformed pair, alpha folding, cold
model builds, the CLI probes) are read from these calls.  Each step runs
under its own root span "sweep.<step>", so a metric can be restricted to the
step that defines it.  Inputs do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import time
from fractions import Fraction

from tracing import Tracer, instrument
from workloads import CHECK_NAMES, Exact

REFERENCE_STATE = (1.0, 1.0, 0.0, 0.0)
REFERENCE_LOOP = [(0.0, 0.0), (0.3, 0.2), (0.5, -0.1), (0.0, 0.0)]
FOLD_ALPHA = Fraction(1, 10)
PROBE_REPEATS = 5

# In-process argv of each subcommand for cli.main_ms.<subcommand>.
CLI_ARGV = {
    "verify": ["verify"],
    "potential": ["potential", "--k", "32"],
    "simulate": ["simulate", "--flow", "t1", "--duration", "1", "--out", "{dir}/sim.csv"],
    "pfaffian": [
        "pfaffian", "--waypoints=0,0;0.3,0.2;0.5,-0.1;0,0", "--format", "json",
        "--out", "{dir}/loop.json",
    ],
    "spectral": ["spectral", "--state", "1,1,0,0", "--lambdas", "0.5,1,2"],
}


def _child_seconds(argv: list[str], env: dict) -> float:
    """Median wall time of a child process, over PROBE_REPEATS runs."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_sweep(python: str, env: dict, scratch: str) -> tuple[Tracer, dict]:
    """Returns the sweep's spans and the child-process probe times."""
    import hhlax.cli
    from hhlax import algebra, dynamics, model, verify

    try:
        from hhlax.kernels import CompiledPolySet
    except ImportError:
        CompiledPolySet = None

    probes = {
        "cli.interpreter_s": _child_seconds([python, "-c", "pass"], env),
        "cli.import_s": _child_seconds([python, "-c", "import hhlax.cli"], env),
    }
    clear_hamiltonians = getattr(model.hamiltonians, "cache_clear", None)
    clear_lax = getattr(model.lax_matrices, "cache_clear", None)

    tracer = Tracer()
    restore = instrument(tracer)
    try:
        state = dynamics.PhaseState(*REFERENCE_STATE)
        cfg = dynamics.IntegratorConfig()
        loop = dynamics.Path.from_pairs(REFERENCE_LOOP)
        # Once outside any step, so that the steps see warm table caches.
        dynamics.integrate_autonomous(1, state, 0.01, cfg)
        dynamics.integrate_pfaffian(state, loop.waypoints[0], loop, cfg, deformed=True)
        with tracer.span("sweep.reference"):
            reference = dynamics.integrate_autonomous(1, state, 2.0, cfg)
            dynamics.integrate_pfaffian(state, loop.waypoints[0], loop, cfg, deformed=True)
        with tracer.span("sweep.snapshot"):
            for _ in range(200):
                dynamics.snapshot(False, state, dynamics.TimePoint(0.0, 0.0), cfg)
        with tracer.span("sweep.export"):
            for _ in range(3):
                reference.write_csv(io.StringIO())
                reference.write_json(io.StringIO())

        hams = model.hamiltonians(True)
        with tracer.span("sweep.poisson_bracket"):
            for _ in range(20):
                algebra.poisson_bracket(hams.h1, hams.h2)
        with tracer.span("sweep.fold"):
            for _ in range(3):
                fields = [
                    [c.substitute_rational(algebra.VarId.ALPHA, FOLD_ALPHA)
                     for c in model.hamiltonian_vector_field(h).components]
                    for h in (hams.h1, hams.h2)
                ]
                diagnostics = [
                    [h.substitute_rational(algebra.VarId.ALPHA, FOLD_ALPHA) for h in (hams.h1, hams.h2)],
                    [model.lax_matrices(True).L.det().substitute_rational(algebra.VarId.ALPHA, FOLD_ALPHA)],
                ]
                if CompiledPolySet is not None:
                    for polys in fields + diagnostics:
                        CompiledPolySet(polys)
        with tracer.span("sweep.rung"):
            for k in (64, -64, 64, -64):
                step = model.recursion_matrix() if k > 0 else model.recursion_matrix_inverse()
                with tracer.span("model.rung_rebuild"):
                    rung = (algebra.LaurentPoly.zero(), algebra.LaurentPoly.one())
                    for _ in range(abs(k)):
                        rung = step.apply(rung)
                model.potential(k)
        with tracer.span("sweep.checks"):
            for _ in range(3):
                verify.run_checks()
        with tracer.span("sweep.corrupted"):
            exact = Exact()
            for check in CHECK_NAMES:
                op = {"k": 0, "corrupt": True, "check": check, "entry": 1, "term_seed": 7,
                      "target": "L" if check.startswith("iso") else "h2"}
                exact.run(op)
        for name, argv in CLI_ARGV.items():
            argv = [arg.format(dir=scratch) for arg in argv]
            with tracer.span(f"sweep.cli.{name}"):
                for _ in range(3):
                    with contextlib.redirect_stdout(io.StringIO()):
                        with tracer.span(f"cli.main.{name}"):
                            code = hhlax.cli.main(argv)
                    if code != 0:
                        raise RuntimeError(f"hhlax {' '.join(argv)} exited with {code}")
        # Last, because it leaves the model caches cold.
        with tracer.span("sweep.cold_model"):
            for _ in range(5):
                for deformed in (False, True):
                    if clear_hamiltonians:
                        clear_hamiltonians()
                    model.hamiltonians(deformed)
                    if clear_lax:
                        clear_lax()
                    model.lax_matrices(deformed)
        for name in ("sim.csv", "loop.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(scratch, name))
    finally:
        restore()
    return tracer, probes
