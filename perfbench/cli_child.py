"""Run `hhlax` under the span tracer, as one traced operation of the cli workload.

Usage: python perfbench/cli_child.py SPANS.json HHLAX-ARGS...

Imports `hhlax.cli` inside a "cli.import" span, wraps the package's entry
points (see tracing.py), runs `hhlax.cli.main(HHLAX-ARGS)` inside a "cli.main"
span, writes the spans to SPANS.json and exits with main's exit code.  The
parent process grafts the spans under its own span of the operation; both
sides read the same monotonic clock.
"""

import json
import sys

from tracing import Tracer, instrument  # sibling module: this directory is sys.path[0]


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import hhlax.cli
    instrument(tracer)
    with tracer.span("cli.main"):
        code = hhlax.cli.main(argv)
    with open(spans_path, "w") as stream:
        json.dump({"spans": tracer.to_records()}, stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
