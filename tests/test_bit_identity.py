"""Every float of the float layer, pinned by one hash.

The rows and summaries of many runs (Pfaffian loops on both models,
snapshots and autonomous t1/t2 runs, for three alphas, three sets of lambda
samples, both methods and three states with signed zeros), then `flow_rhs`
and `eigenvalue_samples` at 300 seeded points with signed zeros, are hashed
as float.hex; a run that raises enters the hash as its error type and
message.  This is the grid part of the `bit_identity_script` recorded in
`BENCH_stepper_rhs.json`, without its benchmark operations.

A mismatch means the float operations changed: a refactor of the steppers,
the generated kernels or the diagnostics that should leave every result
alone did not.  A second hash pins the generated sources themselves, so a
change to the exact model objects behind them shows even where no float
of the grid moves.
"""

import hashlib
import random

from hhlax import dynamics as d

ENTRIES = 5724
SHA256 = "dd318c06c6d5a940487437c6dd530f6b41f99d4c59dc055acef5c8b23b37fcb9"


def test_float_layer_is_bit_identical():
    digest = hashlib.sha256()
    entries = 0

    def feed(tag, value):
        nonlocal entries
        digest.update(repr((tag, value)).encode())
        entries += 1

    def run(tag, fn):
        try:
            trajectory = fn()
            rows = [[x.hex() if isinstance(x, float) else repr(x) for x in row] for row in trajectory.rows()]
            feed(tag, (rows, trajectory.summary()))
        except Exception as exc:
            feed(tag, (type(exc).__name__, str(exc)))

    rng = random.Random(5)
    eight = tuple(round(rng.uniform(-2, 3), 3) for _ in range(8))
    loop = d.Path.from_pairs([(0, 0), (0.4, 0), (0.4, 0.3), (-0.2, 0.1), (0, 0)])
    origin, snap_t = d.TimePoint(0.0, 0.0), d.TimePoint(0.3, -0.2)
    states = [
        d.PhaseState(1.0, 1.0, 0.0, 0.0), d.PhaseState(-0.3, 0.7, 0.2, -0.0), d.PhaseState(0.5, -0.0, 0.1, 0.2)
    ]
    for alpha in (0.0, 0.05, -0.3):
        for lambdas in ((), eight, (-1.0, 0.0)):
            for method in ("rk45-adaptive", "rk4-fixed"):
                cfg = d.IntegratorConfig(method=method, alpha=alpha, lambdas=lambdas, max_step=0.02)
                for state in states:
                    tag = (alpha, lambdas, method, tuple(vars(state).values()))
                    for deformed in (True, False):
                        run(
                            tag + ("loop", deformed),
                            lambda: d.integrate_pfaffian(state, origin, loop, cfg, deformed=deformed),
                        )
                        run(tag + ("snap", deformed), lambda: d.snapshot(deformed, state, snap_t, cfg))
                    for k in (1, 2):
                        run(tag + ("auto", k), lambda: d.integrate_autonomous(k, state, 0.6, cfg))

    for i in range(300):
        state = d.PhaseState(*(rng.choice((rng.uniform(-2, 2), 0.0, -0.0)) for _ in range(4)))
        t = d.TimePoint(rng.choice((rng.uniform(-1, 1), -0.0, 0.0)), rng.choice((rng.uniform(-1, 1), -0.0, 0.0)))
        for alpha in (0.0, 0.05, -0.3):
            for deformed in (True, False):
                for k in (1, 2):
                    try:
                        rates = d.flow_rhs(deformed, k, state, t, alpha)
                        feed(("rhs", i, alpha, deformed, k), [x.hex() for x in rates])
                    except Exception as exc:
                        feed(("rhs", i), (type(exc).__name__, str(exc)))
                try:
                    pairs = d.eigenvalue_samples(deformed, state, t, alpha, eight)
                    cells = [(a.real.hex(), a.imag.hex(), b.real.hex(), b.imag.hex()) for a, b in pairs]
                    feed(("eig", i, alpha, deformed), cells)
                except Exception as exc:
                    feed(("eig", i), (type(exc).__name__, str(exc)))

    assert (entries, digest.hexdigest()) == (ENTRIES, SHA256)


# Count and sha256 of the generated sources hashed below.  A refactor of the
# model or of the code generators that should leave the generated code
# alone leaves both.
SOURCES = 19
SOURCES_SHA256 = "28ed63b18b10db4c4eff5d096b4accbcedada73fa767088bff59985e99f6d3ca"


def test_generated_sources_are_byte_identical(monkeypatch):
    # Every source `kernels._compile` receives for the steppers, and for the
    # right-hand sides and diagnostics rows of both models at three alphas,
    # with the default lambdas and the eight samples of the test above.
    from hhlax import kernels

    sources = []
    compile_source = kernels._compile

    def recording(lines, *names):
        sources.append("\n".join(lines))
        return compile_source(lines, *names)

    monkeypatch.setattr(kernels, "_compile", recording)
    caches = (d._steppers, d._flows, d._diagnostics)
    for cache in caches:
        cache.cache_clear()
    rng = random.Random(5)
    eight = tuple(round(rng.uniform(-2, 3), 3) for _ in range(8))
    try:
        d._steppers()
        for deformed in (False, True):
            for alpha in (0.0, 0.05, -0.3):
                d._flows(deformed, alpha)
                for lambdas in ((0.5, 1.0, 2.0), eight):
                    d._diagnostics(deformed, alpha, lambdas)
    finally:
        # Later tests get functions compiled without the recording wrapper.
        for cache in caches:
            cache.cache_clear()
    digest = hashlib.sha256("\0".join(sources).encode()).hexdigest()
    assert (len(sources), digest) == (SOURCES, SOURCES_SHA256)
