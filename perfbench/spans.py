"""Span tracing of the sineq layers, recorded from outside the package.

The modules of ``sineq`` look their collaborators up at call time
(``_integ.run_chunked``, ``_verify.full_check``, ``_bodies.parse_descriptor``,
module globals such as ``draw_points``), so replacing those attributes with
timing wrappers records a span at every layer boundary without touching the
package.  Names imported into another module's namespace
(``cli.check_lemma_multidim``) are patched at that lookup site too.

A span is ``[name, start_ns, end_ns, parent, op, rows]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the index of the
benchmark operation that caused it (the request identifier), and ``rows``
the number of points handled where that applies.  Spans stay in memory and
are written out when the benchmark ends.

Every metric is taken per pass over the workload's operation list.  The
traced passes all run variant 0 of the list, so their counts are the same
in every pass and every run with the same seed; the report gives the counts
of the first traced pass and the median over traced passes of each time.
``verify.recheck_passes`` counts the ``body_statistics`` passes of each
operation beyond its first (18 for every annulus call of ``interactive``,
4 such calls a pass; 0 on the batch workloads, whose criteria hold at the
first pass).

``measures`` gets no span: callers import its closed forms by name and each
call costs microseconds, so its time lands in the caller's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
from collections import Counter
from time import perf_counter_ns

MEASURES_NOTE = (
    "measures has no span of its own: its closed forms are imported by name "
    "and cost microseconds per call, so their time is counted in the calling "
    "layer's self time"
)

# (name, unit) of every per-layer metric, in report order.  The metrics of
# layers that some workload never enters (entropy, moments, cli) are
# ``DETAIL_METRICS``: the result carries them beside the per-layer metrics,
# since on such a workload they are 0 on every run.
LAYER_METRICS = [
    ("integrate.run_chunked.calls", "count"),
    ("integrate.run_chunked.s", "s"),
    ("integrate.draw_points.calls", "count"),
    ("integrate.draw_points.rows", "count"),
    ("integrate.draw_points.s", "s"),
    ("integrate.draw_ns_per_row", "ns/row"),
    ("integrate.integrand.s", "s"),
    ("integrate.integrand.self_s", "s"),
    ("integrate.reduce.s", "s"),
    ("integrate.self_s", "s"),
    ("bodies.predicate.calls", "count"),
    ("bodies.predicate.rows", "count"),
    ("bodies.predicate.s", "s"),
    ("bodies.predicate_calls_per_chunk", "calls/chunk"),
    ("verify.s", "s"),
    ("verify.body_statistics.calls", "count"),
    ("verify.recheck_passes", "count"),
    ("verify.self_s", "s"),
    ("entropy.check_subadditivity.s", "s"),
    ("entropy.check_lemma_multidim.s", "s"),
    ("entropy.self_s", "s"),
    ("moments.moment_ratio.s", "s"),
    ("moments.norm.s", "s"),
    ("moments.norm_predicate_calls", "count"),
    ("moments.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

COUNT_UNITS = ("count", "calls/chunk")

DETAIL_METRICS = [(name, unit) for name, unit in LAYER_METRICS
                  if name.split(".")[0] in ("entropy", "moments", "cli")]

_NORM_FACTORIES = ("linf_norm", "l1_norm", "lp_norm", "coordinate_norm", "gauge_norm")
_VERIFY_ENTRIES = ("full_check", "body_statistics", "check_derivative_criterion",
                   "check_moment_criterion_gaussian", "check_moment_criterion_exponential")


def _first_arg_rows(args, _out) -> int:
    return len(args[0])


def _result_rows(_args, out) -> int:
    return len(out)


class Tracer:
    """In-memory span recorder for one thread (the benchmark keeps workers=1
    while tracing)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, rows=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if rows is not None:
                rec[5] = rows(args, out)
            return out

        return traced

    def wrap_body(self, body):
        """Copy of ``body`` whose membership predicate records spans."""
        return dataclasses.replace(
            body, base=self.wrap("bodies.predicate", body.base, _first_arg_rows)
        )

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and empty the list."""
        out = self.spans[:]
        self.spans.clear()
        return out

    def patches(self, sineq) -> list[tuple[object, str, object]]:
        """(owner, attribute, traced replacement) for every layer boundary."""
        integ, verify, entropy, moments, bodies, cli = (
            sineq.integrate, sineq.verify, sineq.entropy, sineq.moments,
            sineq.bodies, sineq.cli,
        )
        run_chunked = integ.run_chunked

        def run_chunked_traced(measure, samples, seed, stream, columns, ncols, workers=1):
            columns = self.wrap("integrate.integrand", columns)
            return run_chunked(measure, samples, seed, stream, columns, ncols, workers)

        parse = bodies.parse_descriptor
        depth = [0]

        def parse_traced(text, family=None):
            # products parse their parts recursively through this attribute;
            # only the outermost body gets a traced predicate
            depth[0] += 1
            try:
                body = parse(text, family)
            finally:
                depth[0] -= 1
            return body if depth[0] else self.wrap_body(body)

        def norm_factory(factory):
            @functools.wraps(factory)
            def make(*args, **kwargs):
                return self.wrap("moments.norm", factory(*args, **kwargs))

            return make

        w = self.wrap
        out = [
            (integ, "run_chunked", w("integrate.run_chunked", run_chunked_traced)),
            (integ, "draw_points", w("integrate.draw_points", integ.draw_points, _result_rows)),
            (integ.SampleMoments, "add_chunk", w("integrate.reduce", integ.SampleMoments.add_chunk)),
            (integ.SampleMoments, "finalize", w("integrate.reduce", integ.SampleMoments.finalize)),
            (bodies, "parse_descriptor", parse_traced),
            (moments, "moment_ratio", w("moments.moment_ratio", moments.moment_ratio)),
            (cli, "main", w("cli.main", cli.main)),
        ]
        for name in ("check_subadditivity", "check_lemma_multidim"):
            traced = w(f"entropy.{name}", getattr(entropy, name))
            out += [(entropy, name, traced), (cli, name, traced)]
        out += [(verify, name, w(f"verify.{name}", getattr(verify, name)))
                for name in _VERIFY_ENTRIES]
        out += [(moments, name, norm_factory(getattr(moments, name))) for name in _NORM_FACTORIES]
        return out


class Patched:
    """Context manager that installs attribute replacements and restores
    the originals on exit."""

    def __init__(self, patches) -> None:
        self._patches = patches
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, new in self._patches:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()


def _has_ancestor(spans, i: int, prefix: str) -> bool:
    """Whether a span enclosing span ``i`` has a name starting with ``prefix``."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0].startswith(prefix):
            return True
        p = spans[p][3]
    return False


def pass_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (indices are local)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls, total, self_ns, rows = Counter(), Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        total[name] += dur[i]
        self_ns[name] += dur[i] - child[i]
        rows[name] += s[5]

    def sec(counter, *names) -> float:
        return sum(counter[k] for k in names) / 1e9

    pred = [i for i, s in enumerate(spans) if s[0] == "bodies.predicate"]
    chunk_preds = sum(_has_ancestor(spans, i, "integrate.integrand") for i in pred)
    norm_preds = sum(_has_ancestor(spans, i, "moments.norm") for i in pred)
    stats_per_op = Counter(s[4] for s in spans if s[0] == "verify.body_statistics")
    rechecks = sum(max(k - 1, 0) for k in stats_per_op.values())
    verify = [i for i, s in enumerate(spans) if s[0].startswith("verify.")]
    verify_top = [i for i in verify if not _has_ancestor(spans, i, "verify.")]
    chunks = calls["integrate.integrand"]
    drawn = rows["integrate.draw_points"]
    return {
        "integrate.run_chunked.calls": calls["integrate.run_chunked"],
        "integrate.run_chunked.s": sec(total, "integrate.run_chunked"),
        "integrate.draw_points.calls": calls["integrate.draw_points"],
        "integrate.draw_points.rows": drawn,
        "integrate.draw_points.s": sec(total, "integrate.draw_points"),
        "integrate.draw_ns_per_row": total["integrate.draw_points"] / drawn if drawn else 0.0,
        "integrate.integrand.s": sec(total, "integrate.integrand"),
        "integrate.integrand.self_s": sec(self_ns, "integrate.integrand"),
        "integrate.reduce.s": sec(total, "integrate.reduce"),
        "integrate.self_s": sec(self_ns, "integrate.run_chunked"),
        "bodies.predicate.calls": calls["bodies.predicate"],
        "bodies.predicate.rows": rows["bodies.predicate"],
        "bodies.predicate.s": sec(total, "bodies.predicate"),
        "bodies.predicate_calls_per_chunk": chunk_preds / chunks if chunks else 0.0,
        "verify.s": sum(dur[i] for i in verify_top) / 1e9,
        "verify.body_statistics.calls": calls["verify.body_statistics"],
        "verify.recheck_passes": rechecks,
        "verify.self_s": sum(dur[i] - child[i] for i in verify) / 1e9,
        "entropy.check_subadditivity.s": sec(total, "entropy.check_subadditivity"),
        "entropy.check_lemma_multidim.s": sec(total, "entropy.check_lemma_multidim"),
        "entropy.self_s": sec(self_ns, "entropy.check_subadditivity", "entropy.check_lemma_multidim"),
        "moments.moment_ratio.s": sec(total, "moments.moment_ratio"),
        "moments.norm.s": sec(total, "moments.norm"),
        "moments.norm_predicate_calls": norm_preds,
        "moments.self_s": sec(self_ns, "moments.moment_ratio", "moments.norm"),
        "cli.main.calls": calls["cli.main"],
        "cli.main.s": sec(total, "cli.main"),
        "cli.self_s": sec(self_ns, "cli.main"),
    }


def layer_report(traced_passes: list[list[list]], traced_walls: list[float],
                 untraced_walls: list[float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over traced passes that all run the same inputs,
    and the names of the counts that differ between those passes (none, for
    a deterministic program).  Counts are taken from the first traced pass,
    times are medians over the traced passes; the tracing overhead is the
    median, over the traced passes, of a traced pass's time minus that of
    the untraced pass run just before it on the same inputs, so that slow
    drift of the host's speed cancels."""
    units = dict(LAYER_METRICS)
    per_pass = [pass_metrics(spans) for spans in traced_passes]
    out, unsteady = {}, []
    for k in per_pass[0]:
        values = [p[k] for p in per_pass]
        if units[k] in COUNT_UNITS:
            out[k] = values[0]
            if any(x != values[0] for x in values):
                unsteady.append(k)
        else:
            out[k] = statistics.median(values)
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced_walls, untraced_walls))
    return out, unsteady
