"""sineq benchmark: one workload, run as a closed loop for a fixed time.

    python3 perfbench/run.py --workload gauss_sweep --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ``sineq`` from ``src/``.  The
workloads and their gates are described in ``workloads.py``.

The timed loop runs the workload's operation list ("passes") until
``--seconds`` have gone by, with at least ``MIN_PASSES`` passes.  Pass ``k``
runs variant ``k`` of the list: the same operation kinds and sizes, with
fresh inputs from the seed, so every pass measures inputs that no earlier
pass has seen and a run averages over many of them.  Gates run between
passes, outside the timed operations.  After the loop a fixed subset of the
first pass's operations is re-run with ``workers=1`` and with ``workers=2``,
and both must give records bit-identical to the first pass.

Set-up (timed as ``setup_s``) is a fresh interpreter importing ``sineq``,
then building the first ``SETUP_VARIANTS`` variants of the operation list
from the seed, validating the bodies and computing the closed-form
references.  It is repeated ``SETUP_REPEATS`` times, spread evenly over the
timed loop (between passes), and the median is reported: the host's speed
drifts over seconds, and repeats spread over the run see that drift the way
the passes do.  Later variants are built between passes, untimed.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``wall_s`` (the
mean time of a pass, as the sum of its operations' latencies, so that every
input counts at its cost), ``op_ms_p50`` / ``op_ms_p95`` and
``peak_rss_mb``.  The percentiles are taken over the operations of the
list, each at its median latency over the passes, so that each is a
latency of a fixed kind and size of call: pooled over calls, a percentile
falls wherever the modes of the mix (the sizes n of the batch workloads,
the annulus calls of ``interactive``) happen to meet in a run.

``--trace 1`` alternates untraced and traced passes of variant 0 only, so
that the traced work is the same whatever the run length, and reports the
per-layer metrics of ``spans.py`` and the tracing overhead (median over
the traced passes of the traced minus the preceding untraced pass time, on
the same inputs).  The last line of
stdout is the JSON result; a copy with provenance, per-operation latencies
and (traced) the spans is written to ``perfbench/out/``.

The BLAS/OpenMP pools are pinned to one thread before numpy is imported and
every engine keeps ``workers=1``, which keeps run-to-run spread small.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
SETUP_VARIANTS = 7
MIN_PASSES = 2

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_ms_p50", "ms"),
              ("op_ms_p95", "ms"), ("peak_rss_mb", "MB")]


LAYERS = ("measures", "bodies", "integrate", "entropy", "moments", "verify", "cli")


def _import_sineq() -> SimpleNamespace:
    """Import the package's modules from this checkout's ``src`` and nowhere
    else.  They are returned by name because ``sineq.entropy`` is shadowed
    by the function of that name in the package namespace."""
    if not (SRC / "sineq" / "__init__.py").is_file():
        raise ImportError(f"no sineq package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"sineq.{name}") for name in LAYERS}
    where = Path(mods["cli"].__file__).resolve().parent
    if where != (SRC / "sineq").resolve():
        raise ImportError(f"sineq imported from {where}, not {SRC}")
    return SimpleNamespace(**mods)


def _fresh_import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import sineq, sineq.cli"],
                   env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


def _git_commit() -> str:
    # the ceiling keeps git from taking the commit of an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: float = 1.0) -> dict:
    """Run one workload and return the result with its provenance.

    ``scale`` multiplies the Monte Carlo sample counts (the smoke test runs
    tiny sizes); the benchmark itself always runs at scale 1.
    """
    sineq = _import_sineq()
    build = workloads.WORKLOADS[workload]
    identity = lambda body: body  # noqa: E731

    def make(v: int, wrap=identity) -> list[workloads.Op]:
        return build(sineq, seed, v, scale, wrap)[0]

    setups: list[float] = []

    def set_up() -> list[tuple[list[workloads.Op], list[int]]]:
        import_s = _fresh_import_seconds()
        t0 = perf_counter()
        made = [build(sineq, seed, v, scale, identity) for v in range(SETUP_VARIANTS)]
        setups.append(import_s + perf_counter() - t0)
        return made

    built = set_up()
    first, repro = built[0]
    built = [ops for ops, _ in built]
    repeats = 1 if trace else SETUP_REPEATS

    tracer = spans.Tracer() if trace else None
    if trace:
        traced_ops = make(0, tracer.wrap_body)
        patches = tracer.patches(sineq)

    attempted = failed = 0
    failures: list[str] = []
    # digest of each operation's records in pass 0, the reference for every
    # later run of variant 0
    reference: list[str | None] = [None] * len(first)
    # (variant, per-operation latencies) of each pass, untraced (False) and
    # traced (True)
    passes: dict[bool, list[tuple[int, list[float]]]] = {False: [], True: []}
    traced_spans: list[list[list]] = []

    gc.collect()
    start = perf_counter()
    k = 0
    while True:
        is_traced = trace and k % 2 == 1
        v = 0 if trace else k
        if is_traced:
            pass_ops = traced_ops
        elif v == 0:
            pass_ops = first
        else:
            pass_ops = built[v] if v < len(built) else make(v)
        outputs = []
        times = []
        with spans.Patched(patches) if is_traced else nullcontext():
            for i, op in enumerate(pass_ops):
                if is_traced:
                    tracer.op = k * len(pass_ops) + i
                t0 = perf_counter()
                try:
                    out, err = op.run(1), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    out, err = None, f"{type(exc).__name__}: {exc}"
                times.append(perf_counter() - t0)
                outputs.append((out, err))
        for i, (op, (out, err)) in enumerate(zip(pass_ops, outputs)):
            attempted += 1
            problems = [err] if err else []
            if not err:
                if k == 0 or v != 0:
                    problems = op.check(out)
                if v == 0:
                    d = _digest(op.records(out))
                    if k == 0:
                        reference[i] = d
                    elif d != reference[i]:
                        problems.append("records differ from pass 0 on the same inputs")
            if problems:
                failed += 1
                failures.append(f"pass {k} op {i} ({op.kind}): {'; '.join(problems)}")
        passes[is_traced].append((v, times))
        if is_traced:
            traced_spans.append(tracer.take())
        k += 1
        elapsed = perf_counter() - start
        if len(setups) < repeats and elapsed >= len(setups) * seconds / repeats:
            set_up()
        if (elapsed >= seconds and len(passes[False]) >= (1 if trace else MIN_PASSES)
                and len(passes[True]) >= trace):
            break
    while len(setups) < repeats:
        set_up()

    for i in repro:
        for workers in (1, 2):
            attempted += 1
            try:
                same = _digest(first[i].records(first[i].run(workers))) == reference[i]
            except Exception as exc:
                same = False
                failures.append(f"repro op {i}: {type(exc).__name__}: {exc}")
            if not same:
                failed += 1
                failures.append(f"repro op {i} ({first[i].kind}): records differ "
                                f"with workers={workers}")

    untraced = [t for _, t in passes[False]]
    # each operation of the list: its median latency over the passes' inputs
    slots = [statistics.median(col) for col in zip(*untraced)]
    detail = {}
    if trace:
        metrics, unsteady = spans.layer_report(
            traced_spans, [sum(t) for _, t in passes[True]], [sum(t) for t in untraced])
        attempted += 1
        if unsteady:
            failed += 1
            failures.append(f"traced counts {unsteady} differ between traced passes")
        units = dict(spans.LAYER_METRICS)
        detail = {name: metrics.pop(name) for name, _ in spans.DETAIL_METRICS}
    else:
        units = dict(END_TO_END)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.mean(sum(t) for t in untraced),
            "op_ms_p50": 1e3 * statistics.median(slots),
            "op_ms_p95": 1e3 * _p95(slots),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    samples = {}
    for op in first:
        samples.setdefault(op.kind, set()).add(op.samples)
    by_kind: dict[str, list[float]] = {}
    for t in untraced:
        for op, x in zip(first, t):
            by_kind.setdefault(op.kind, []).append(x)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "layer_detail": {name: {"value": v, "unit": units[name]} for name, v in detail.items()},
        "info": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "scale": scale,
            "passes": len(passes[False]) + len(passes[True]),
            "traced_passes": len(passes[True]),
            "ops_per_pass": len(first),
            "operations_timed": len(untraced) * len(first),
            "error_rate": failed / attempted,
            "failures": failures[:20],
            "records_digest": _digest(reference)[:16],
            "setup_s_repeats": setups,
            "pass_latencies_s": passes[False],
            "traced_pass_latencies_s": passes[True],
            "op_ms_median_by_kind": {kind: 1e3 * statistics.median(x)
                                     for kind, x in sorted(by_kind.items())},
            "samples_per_op": {kind: sorted(v) for kind, v in sorted(samples.items())},
            "sigma_gate": workloads.SIGMA_GATE,
            "note": spans.MEASURES_NOTE,
        },
        "provenance": {
            "chunk": sineq.integrate.CHUNK,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "workers": 1,
        },
        "spans": traced_spans,
    }


def _write(result: dict) -> Path:
    info = result["info"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{info['workload']}-seed{info['seed']}-trace{info['trace']}.json"
    path.write_text(json.dumps(result))
    return path


def _summary(result: dict) -> list[str]:
    info = result["info"]
    lines = [
        f"# {info['workload']} seed={info['seed']} trace={info['trace']}: "
        f"{info['passes']} passes of {info['ops_per_pass']} ops, "
        f"error_rate {info['error_rate']} ({result['failed']}/{result['attempted']}), "
        f"records digest {info['records_digest']} (information, not a gate)",
    ]
    for name, m in {**result["metrics"], **result["layer_detail"]}.items():
        lines.append(f"# {name} = {m['value']:.6g} {m['unit']}")
    if not info["trace"]:
        lines.append(f"# op_ms percentiles over the {info['ops_per_pass']} operations of the "
                     f"list, each its median latency over {info['passes']} passes on fresh "
                     f"inputs; samples per operation {info['samples_per_op']}")
    lines.append(f"# {info['note']}")
    lines += [f"# failure: {f}" for f in info["failures"]]
    lines.append("# provenance " + json.dumps(result["provenance"], sort_keys=True))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    path = _write(result)
    for line in _summary(result):
        print(line)
    print(f"# full result: {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
