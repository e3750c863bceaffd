"""Quick self-check of the benchmark: a tiny-size run of every workload,
untraced and traced, from the root of a checkout:

    python3 bench/selfcheck.py

Asserts that each run exits 0, reports ``correct`` with no failed
operation, prints exactly the metric names and units BENCHMARK.json
declares (end-to-end untraced, per-layer traced), and that the untraced
and traced runs of one seed generated the same inputs.  A second traced
run of one workload must repeat the per-call counts exactly.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = (
    "fuzzy.grid_build.points",
    "integrals.sugeno_grid.alpha_cuts_per_call",
    "integrals.sugeno_finite.measure_calls_per_call",
)


def run(workload: str, trace: int, seed: int = 3):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    info = dict(line.split(" = ", 1) for line in lines[:-1] if " = " in line)
    return info, json.loads(lines[-1])


def check(workload: str, trace: int, declared: list[dict], result: dict) -> None:
    where = f"{workload} trace={trace}"
    assert result["correct"] is True, f"{where}: not correct"
    assert result["failed"] == 0, f"{where}: fail_ratio {result['failed']}/{result['attempted']}"
    assert result["attempted"] >= 1, f"{where}: nothing attempted"
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(metrics) == set(want), (
        f"{where}: missing {sorted(set(want) - set(metrics))}, "
        f"extra {sorted(set(metrics) - set(want))}"
    )
    for name, m in metrics.items():
        assert m["unit"] == want[name], f"{where}: {name} unit {m['unit']} != {want[name]}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (
            f"{where}: {name} = {m['value']!r}"
        )


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    counts = None
    for w in spec["workloads"]:
        name = w["name"]
        info0, result0 = run(name, 0)
        check(name, 0, spec["end_to_end"], result0)
        info1, result1 = run(name, 1)
        check(name, 1, spec["per_layer"], result1)
        assert info0["inputs_sha256"] == info1["inputs_sha256"], f"{name}: inputs differ"
        if counts is None:
            _, again = run(name, 1)
            counts = {k: result1["metrics"][k]["value"] for k in COUNTS}
            repeat = {k: again["metrics"][k]["value"] for k in COUNTS}
            assert counts == repeat, f"{name}: counts {counts} != {repeat}"
        print(f"ok {name}: {result0['attempted']} + {result1['attempted']} operations")
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
