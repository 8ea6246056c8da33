"""Tiny-size smoke test of every workload.

    python3 perfbench/smoke.py

Runs each workload at 1% of its Monte Carlo sample sizes (at least
``workloads.MIN_SAMPLES`` per call) with the minimum number of passes,
untraced and traced.  It checks that every metric ``BENCHMARK.json`` names is
reported with its unit (and, traced, the layer detail of ``spans.py``), and
that the error rate is 0.  Exits 1 on failure.
"""

from __future__ import annotations

import json
import sys

import run
import spans

SCALE = 0.01
SEED = 1


def check(workload: str, trace: bool, spec: dict) -> list[str]:
    result = run.run_benchmark(workload, SEED, 0, trace, scale=SCALE)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if got != expected:
        problems.append(f"metrics {sorted(got.items())} != {sorted(expected.items())}")
    detail = {name: m["unit"] for name, m in result["layer_detail"].items()}
    if trace and detail != dict(spans.DETAIL_METRICS):
        problems.append(f"layer detail {sorted(detail.items())}")
    if result["info"]["error_rate"] != 0:
        problems.append(f"error_rate {result['info']['error_rate']}: {result['info']['failures']}")
    return [f"{workload} trace={int(trace)}: {p}" for p in problems]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            found = check(workload, trace, spec)
            print(f"{workload} trace={int(trace)}: {'FAIL' if found else 'ok'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
