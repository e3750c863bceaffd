"""Run one vagueq command line the way ``python -m vagueq`` does, timing
each stage of the cold start and recording layer spans.

Usage: cli_child.py REPORT.json ARGV...

Stdout and the exit code are those of ``vagueq.cli.main(ARGV)``.  The
report holds monotonic-clock stamps (start of this script, after
``import numpy``, after ``import vagueq.cli``, before and after
``main``) and the span aggregates of ``tracing.Tracer``; the parent
subtracts its own spawn stamp from ``start`` to get the interpreter
start-up time.
"""

import sys
import time

start = time.monotonic_ns()
import numpy  # noqa: E402,F401

after_numpy = time.monotonic_ns()
import vagueq.cli  # noqa: E402

after_vagueq = time.monotonic_ns()
import tracing  # noqa: E402

tracer = tracing.Tracer()
tracing.install(tracer)
before_main = time.monotonic_ns()
code = vagueq.cli.main(sys.argv[2:])
end = time.monotonic_ns()
sys.stdout.flush()

import json  # noqa: E402

with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(
        {
            "stamps": {
                "start": start,
                "numpy": after_numpy,
                "vagueq": after_vagueq,
                "main": before_main,
                "end": end,
            },
            "spans": tracer.to_json(),
        },
        fh,
    )
sys.exit(code)
