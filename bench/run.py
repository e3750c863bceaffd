"""vagueq benchmark: three seeded closed-loop workloads, one client each.

Run from the root of a checkout (the directory holding ``src/vagueq``):

    python3 bench/run.py --workload grid-query --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1 --out F.json

Workloads (see ``workloads.py``): ``grid-build`` (a fresh ``localize`` at
2e4 points per operation), ``grid-query`` (measure, alpha-cut and Sugeno
queries on a pre-built 1e5-point density), and ``finite-sugeno`` (finite
fuzzy sets, measures and Sugeno integrals at 10 and 300 labels).

``--trace 0`` prints the end-to-end metrics: set-up time (the median
import of numpy and vagueq in fresh interpreters, timed between the
loop's segments, plus the median of repeated input generation and
pre-built structures); p50 and p90 latency over the operations run
(see ``best_latencies``); operations per second at those latencies; and
this process's peak RSS.  ``--trace 1`` prints the per-layer metrics:
the loop runs half its time untraced and half traced, in alternating
quarters (the difference is the tracing overhead); then a fixed pass
runs the workload's first pool operations and each documented CLI
command once, each command in a fresh ``python -m vagueq``-like child,
traced, and the layer calls, self times and per-call counts come from
that pass, so the counts repeat exactly for a seed; the CLI children
also time their cold-start stages; last, the cases of ``sizes.py`` time
layers at the ROADMAP baseline sizes, untraced.

Every output is checked against a reference computed without vagueq,
after the timed loop.  A failed check or an exception counts as a
failed operation and makes the exit code 1.  The last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one thread per library in this process and every child it starts
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = ("grid-build", "grid-query", "finite-sugeno")
SETUP_REPEATS = 7
CLI_STAGES = ("python_start_ms", "numpy_import_ms", "vagueq_import_ms", "main_ms")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--tiny", action="store_true", help="shrink every input (self-check only)"
    )
    p.add_argument("--out", help="with --workload all: write every result here")
    return p.parse_args(argv)


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, vagueq, vagueq.cli; "
    "print(time.perf_counter() - t)"
)


def load_vagueq(root: str):
    """Import vagueq from ``root/src`` and return it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vagueq", "__init__.py")):
        sys.exit(f"error: no vagueq sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import vagueq
    import vagueq.cli  # noqa: F401

    if not os.path.abspath(vagueq.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported vagueq from {vagueq.__file__}, not {src}")
    return vagueq


def import_seconds(root: str) -> float:
    """Time to import numpy and vagueq in a fresh interpreter.

    One in-process import cannot be repeated, so the import is timed
    inside a child interpreter; interpreter start is excluded.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


class Failed:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.message = f"{type(exc).__name__}: {exc}"


def closed_loop(run, pool_size: int, seconds: float, start_op: int = 0):
    """One client: issue pool operations back to back for ``seconds``,
    starting at the ``start_op``-th operation of the cycling pool.

    Returns per-operation latencies (ns), (pool index, output) pairs and
    the loop's wall time.
    """
    latencies: list[int] = []
    results: list[tuple[int, object]] = []
    clock = time.perf_counter_ns
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        k = (start_op + i) % pool_size
        t0 = clock()
        try:
            out = run(k)
        except Exception as exc:  # any library error is a failed operation
            out = Failed(exc)
        latencies.append(clock() - t0)
        results.append((k, out))
        i += 1
        if time.perf_counter() >= deadline:
            break
    return latencies, results, time.perf_counter() - start


def verify(workload, results) -> list[str]:
    """Check each distinct operation's output against its reference once;
    a repeat of an operation must return an output equal to the checked
    one.  Returns one message per failed operation."""
    failures: list[str] = []
    checked: dict[int, tuple[object, str | None]] = {}
    for k, out in results:
        if isinstance(out, Failed):
            failures.append(f"op {k}: {out.message}")
            continue
        if k not in checked:
            try:
                problem = workload.check(k, out)
            except Exception as exc:  # a malformed output fails its check
                problem = f"check raised {type(exc).__name__}: {exc}"
            checked[k] = (out, problem)
        first, problem = checked[k]
        if problem is None and out != first:
            problem = "output differs from an earlier run of the same operation"
        if problem is not None:
            failures.append(f"op {k}: {problem}")
    return failures


def digest(workload) -> str:
    return hashlib.sha256(repr(workload.inputs()).encode()).hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup(cls, vq, seed: int, tiny: bool, repeats: int):
    """Build the workload ``repeats`` times; return the last one and the
    median build time."""
    times = []
    workload = None
    for _ in range(repeats):
        if workload is not None and hasattr(workload, "close"):
            workload.close()
        start = time.perf_counter()
        workload = cls(vq, seed, tiny)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def best_latencies(latencies, results) -> list[float]:
    """Each operation's latency (ms) replaced by the best over every run of
    the same pool operation in the loop.

    Every pool operation takes at most some 30 ms and runs some 35 to 175
    times in a 36-second run, spread over the loop.  On a shared 2-vCPU virtual machine the
    speed was seen to drift by up to 2x over seconds to minutes (CPU time
    drifting with wall time, so contention rather than preemption).
    Interference only ever adds time, so the best of an operation's runs
    is its steadiest estimate; the ROADMAP baseline table is best-of-3
    for the same reason.
    """
    runs: dict[int, int] = {}
    for (k, _), ns in zip(results, latencies):
        runs[k] = min(ns, runs.get(k, ns))
    return [runs[k] / 1e6 for k, _ in results]


def end_to_end(workload, setup_s, seconds, root, repeats):
    # the loop runs in ``repeats`` segments with an import probe before
    # each, so the import time samples the host across the whole run
    lat, results, imports = [], [], []
    for _ in range(repeats):
        imports.append(import_seconds(root))
        seg = closed_loop(workload.run, len(workload.pool), seconds / repeats, len(lat))
        lat += seg[0]
        results += seg[1]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = verify(workload, results)
    lat_ms = best_latencies(lat, results)
    metrics = {
        "setup_s": metric(setup_s + statistics.median(imports), "s"),
        "ops_per_s": metric(1e3 * len(lat_ms) / sum(lat_ms), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "latency_p90_ms": metric(_p90(lat_ms), "ms"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }
    return metrics, len(lat), failures


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def per_layer(workload, vq, seed, tiny, seconds):
    import sizes
    from tracing import LAYERS, Tracer, install
    from workloads import CliCommands

    # half the loop untraced, half traced, in alternating quarters so host
    # drift falls on both halves alike: the difference is the overhead
    pool = len(workload.pool)
    lat_u, res_u, lat_t, res_t = [], [], [], []
    loop = Tracer()
    for _ in range(2):
        seg = closed_loop(workload.run, pool, seconds / 4, len(lat_u))
        lat_u += seg[0]
        res_u += seg[1]
        uninstall = install(loop)
        try:
            seg = closed_loop(workload.run, pool, seconds / 4, len(lat_t))
        finally:
            uninstall()
        lat_t += seg[0]
        res_t += seg[1]
    untraced, traced_rate = (
        1e3 * len(lat) / sum(best_latencies(lat, res))
        for lat, res in ((lat_u, res_u), (lat_t, res_t))
    )

    # the fixed pass, the same work for a seed: the workload's first pool
    # operations, then every CLI command once
    cli = CliCommands(seed)
    fixed = Tracer()
    uninstall = install(fixed)
    try:
        first = range(min(workload.fixed_ops, pool))
        pass_results = [(k, workload.run(k)) for k in first]
        cli_results = [(k, cli.run_traced(k, fixed)) for k in range(len(cli.commands))]
    finally:
        uninstall()
        cli.close()
    failures = verify(workload, res_u + res_t + pass_results) + verify(cli, cli_results)
    attempted = len(lat_u) + len(lat_t) + len(pass_results) + len(cli_results)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = metric(fixed.calls.get(layer, 0), "count")
        metrics[f"{layer}.self_ms"] = metric(fixed.self_ns.get(layer, 0) / 1e6, "ms")
    builds = fixed.calls.get("fuzzy.grid_build", 0)
    metrics["fuzzy.grid_build.points"] = metric(
        fixed.counts.get("fuzzy.grid_build.points", 0) / builds if builds else 0.0,
        "count",
    )
    metrics["integrals.sugeno_grid.alpha_cuts_per_call"] = metric(
        fixed.per_call("integrals.sugeno_grid", "integrals.alpha_cut"), "count"
    )
    metrics["integrals.sugeno_finite.measure_calls_per_call"] = metric(
        fixed.per_call("integrals.sugeno_finite", "measures.measure_of"), "count"
    )
    for stage in CLI_STAGES:
        metrics[f"cli.{stage}"] = metric(
            statistics.median(t[stage] for t in cli.timings), "ms"
        )
    metrics["trace.ops_per_s_untraced"] = metric(untraced, "1/s")
    metrics["trace.ops_per_s_traced"] = metric(traced_rate, "1/s")
    metrics["trace.overhead_pct"] = metric(
        100.0 * (untraced - traced_rate) / untraced, "%"
    )

    # layer timings at the baseline sizes, untraced
    for name, call, check, per in sizes.cases(vq, seed):
        value, out = sizes.best_ms(call, 1 if tiny else 3, per)
        metrics[name] = metric(value, "ms")
        attempted += 1
        problem = check(out)
        if problem:
            failures.append(f"{name}: {problem}")
    return metrics, attempted, failures


def run_one(args) -> int:
    root = os.getcwd()
    vq = load_vagueq(root)
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    repeats = 2 if args.tiny else SETUP_REPEATS
    workload, setup_s = setup(cls, vq, args.seed, args.tiny, repeats)
    try:
        if args.trace:
            metrics, attempted, failures = per_layer(
                workload, vq, args.seed, args.tiny, args.seconds
            )
        else:
            metrics, attempted, failures = end_to_end(
                workload, setup_s, args.seconds, root, repeats
            )
    finally:
        if hasattr(workload, "close"):
            workload.close()
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload = {args.workload}")
    print(f"seed = {args.seed}")
    print(f"inputs_sha256 = {digest(workload)}")
    print(f"samples = {attempted}")
    print(f"fail_ratio = {len(failures) / attempted:.6f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    record = {
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    code = 0
    for name in NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        info = dict(line.split(" = ", 1) for line in lines[:-1] if " = " in line)
        record["workloads"][name] = {"inputs_sha256": info.get("inputs_sha256"), **result}
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = m
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
