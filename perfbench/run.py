"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the inputs; the program under test is built from the
``src/`` tree next to this directory.  After the timed run the outputs
are checked bitwise against a reference engine; a mismatch fails the run
(exit 1, no numbers), and so does a served run whose paced phase fell
behind its schedule.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

End-to-end metrics, all measured with tracing off:

* ``setup_s`` — median time to build the engine or service and publish
  its first fold (engine: first ``sample()``; process mode includes
  worker boot);
* ``ingest_items_per_s`` — engine: items over time spent in
  ``ingest``; served: items over the saturate phases' submit→``flush()``
  wall time;
* ``query_mean_us`` / ``query_p90_us`` — ``sample()`` latency (served:
  the reader's lock-free reads during the paced phases);
* ``visible_mean_ms`` / ``visible_p90_ms`` — from the due time of the
  newest write before a read-your-writes probe until the probe's
  ``sample()`` returns (engine: from the start of a write until the
  first ``sample()`` after it returns);
* ``rss_peak_mb`` — peak resident set of this process plus its worker
  processes.

Engine workloads time their calls in process CPU time (see
:func:`perfbench.workloads.run_engine`), served ones in wall time.
Each latency is reported as its mean and its p90, not its median and
p99: on a shared host the CPU alternates between a fast and a slow
state (engine-fold queries take about 1.25 or 1.85 ms), for stretches
of seconds to many minutes.  The median of a run jumps from one state
to the other with the share of time spent in each, while the mean
moves in proportion; and when the host is mostly fast, the p95 and
beyond fall among the queries of its brief slow stretches.  Over five
seeds of 30 s, engine-fold's query p99 spread 0.25 of its median and
its p90 0.05.  The report lines give the median and the p99 too.
Percentiles follow :meth:`perfbench.workloads.Timing.at`; the report
lines give each timing's sample count.  Operations that raise or time
out are counted in ``failed`` (the per-layer ``error_rate``).

``--trace 1`` spends half its time on an untraced pass (for
``trace.overhead``, the traced over untraced value of each end-to-end
metric) and half on a pass with the layer shims of
:mod:`perfbench.tracing` installed, writes the spans to
``perfbench/out/<workload>.spans.jsonl`` and a Chrome trace to
``perfbench/out/<workload>.trace.json``, and prints each layer's self
time next to what the workload is expected to do to it.  Every run
appends one record to ``perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics (name → unit), measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "ingest_items_per_s": "items/s",
    "query_mean_us": "us",
    "query_p90_us": "us",
    "visible_mean_ms": "ms",
    "visible_p90_ms": "ms",
    "rss_peak_mb": "MB",
}

#: What each workload should do to each layer: "work" (called; for
#: engine.compact, bytes reclaimed), "idle" (about no work: under 5% of
#: the traced self time; for engine.compact, no bytes reclaimed) or
#: "zero" (never called).  Unlisted pairs carry no prediction.
SERVED = ("serve-thread", "serve-window-process")
ENGINES = ("engine-fold", "engine-wide")
ALL = ENGINES + SERVED
EXPECT = {
    "engine.ingest": {w: "work" for w in ENGINES},
    "engine.partition": {"engine-wide": "work", "serve-window-process": "work",
                         "engine-fold": "idle"},
    "core.pool.plan": {"engine-fold": "work", "engine-wide": "idle"},
    "core.timeline.index": {"engine-fold": "work", "engine-wide": "zero"},
    "core.timeline.digest": {"engine-wide": "work", "engine-fold": "zero"},
    "engine.batch.apply": {w: "work" for w in ALL},
    "engine.fold": {"engine-fold": "work", "engine-wide": "idle",
                    **{w: "work" for w in SERVED}},
    "engine.draw": {w: "work" for w in ALL},
    "engine.compact": {"serve-window-process": "work", "engine-fold": "idle",
                       "engine-wide": "idle", "serve-thread": "idle"},
    "engine.state": {w: "work" for w in ALL},
    **{
        layer: {**{w: "work" for w in SERVED}, **{w: "zero" for w in ENGINES}}
        for layer in ("serving.submit", "serving.router", "serving.admission",
                      "serving.queue", "serving.refresh")
    },
    "serving.flush": {w: "work" for w in SERVED},
    "serving.views": {w: "work" for w in SERVED},
    "serving.transport": {"serve-window-process": "work", "serve-thread": "zero"},
    **{
        layer: {"serve-window-process": "work", "serve-thread": "zero"}
        for layer in ("serving.collect", "engine.restore", "lifecycle.codec")
    },
    "loadgen": {w: "work" for w in ALL},
}
IDLE_SHARE = 0.05


def _import_program() -> bool:
    """Put this checkout's ``src`` first on the path and make sure the
    program imported from there and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    if ROOT not in sys.path:
        sys.path.insert(1, ROOT)
    try:
        import repro
    except ImportError:
        return False
    origin = os.path.dirname(os.path.abspath(repro.__file__))
    return origin.startswith(os.path.join(src, ""))


def end_to_end(res) -> dict:
    """``name → (value, unit, samples, note)`` for every end-to-end metric."""
    out = {}
    setup = res.setup.samples
    out["setup_s"] = (statistics.median(setup), len(setup), "median")
    out["ingest_items_per_s"] = (
        res.ingest_items / res.ingest_seconds if res.ingest_seconds else float("nan"),
        res.ingest_items, "items",
    )
    for name, timing, unit, scale in (
        ("query", res.query, "us", 1e6), ("visible", res.visible, "ms", 1e3),
    ):
        median, _, n = timing.at(0.5)
        mean = statistics.fmean(timing.samples) if n else float("nan")
        out[f"{name}_mean_{unit}"] = (
            mean * scale, n, f"mean; median {median * scale:.6g}"
        )
        p90, q_used, n = timing.at(0.90)
        p99, q99_used, _ = timing.at(0.99)
        out[f"{name}_p90_{unit}"] = (
            p90 * scale, n,
            f"p{q_used * 100:.4g}; p{q99_used * 100:.4g} {p99 * scale:.6g}",
        )
    out["rss_peak_mb"] = (res.rss_peak_mb, 1, "peak")
    return {k: (v, END_TO_END[k], n, note) for k, (v, n, note) in out.items()}


def per_layer(res, tracer) -> dict:
    """``name → (value, unit)`` for every layer metric of a traced run."""
    from perfbench.tracing import LAYERS
    from perfbench.workloads import Timing

    busy, calls, counts = tracer.totals()
    extra = dict(res.layer_counts)
    waits = Timing(list(tracer.queue_waits_ms()))

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer, extras in LAYERS.items():
        n = extra.get((layer, "calls"), calls.get(layer, 0))
        out[f"{layer}.calls"] = (n, "count")
        out[f"{layer}.busy_ms"] = (
            extra.get((layer, "busy_ms"), busy.get(layer, 0) / 1e6), "ms"
        )
        for key, unit in extras.items():
            if (layer, key) in extra:
                value = extra[(layer, key)]
            elif key == "items_per_call":
                value = ratio(extra.get((layer, "items"), counts[(layer, "items")]), n)
            elif key == "hit_ratio":
                value = ratio(extra[(layer, "hits")], extra[(layer, "lookups")])
            elif key == "fail_ratio":
                value = ratio(counts[(layer, "fails")], n)
            elif key == "published_ratio":
                value = ratio(counts[(layer, "published")], n)
            elif key in ("wait_p50_ms", "wait_p90_ms"):
                value = _finite(waits.at(0.5 if key == "wait_p50_ms" else 0.9)[0])
            elif key == "depth_max":
                value = tracer.depth_max
            elif key == "lag_p99_ms":
                value = _finite(res.lag.at(0.99)[0] * 1e3)
            elif key == "backlog_items":
                value = res.backlog_items
            else:
                value = counts[(layer, key)]
            out[f"{layer}.{key}"] = (value, unit)
    out["error_rate"] = (ratio(res.failed, res.attempted), "ratio")
    return out


def layer_table(workload: str, layers: dict) -> list[str]:
    """The self-time table, each row judged against :data:`EXPECT`."""
    from perfbench.tracing import LAYERS

    total = sum(layers[f"{layer}.busy_ms"][0] for layer in LAYERS) or 1.0
    lines = [f"{'layer':<22}{'calls':>10}{'self_ms':>12}{'share':>8}  "
             f"{'expected':<9}{'verdict':<9}counts"]
    for layer, extras in LAYERS.items():
        calls = layers[f"{layer}.calls"][0]
        self_ms = layers[f"{layer}.busy_ms"][0]
        share = self_ms / total
        expected = EXPECT.get(layer, {}).get(workload, "-")
        if expected == "zero":
            ok = calls == 0
        elif layer == "engine.compact" and expected != "-":
            ok = (layers["engine.compact.bytes_reclaimed"][0] > 0) == (expected == "work")
        elif expected == "work":
            ok = calls > 0
        elif expected == "idle":
            ok = share < IDLE_SHARE
        else:
            ok = True
        verdict = "ok" if ok else "MISMATCH"
        shown = " ".join(f"{k}={_fmt(layers[f'{layer}.{k}'][0])}" for k in extras)
        lines.append(f"{layer:<22}{_fmt(calls):>10}{self_ms:>12.1f}{share:>8.1%}  "
                     f"{expected:<9}{verdict:<9}{shown}")
    return lines


def _fmt(v) -> str:
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.4g}"
    return str(int(v))


def _finite(v: float) -> float:
    return float(v) if math.isfinite(v) else 0.0


class CheckFailed(Exception):
    """The run's outputs differ from the reference engine's, or its
    paced phase could not keep its rate."""


def run(w, seed: int, seconds: float, trace: bool, out_dir: str = HERE):
    """Run workload ``w`` (untraced, then traced when ``trace``), check
    its outputs, append the history record under ``out_dir`` and write
    the spans to ``out_dir/out``.  Returns ``(metrics, report lines,
    last RunResult)`` where ``metrics`` maps name → ``(value, unit)``;
    raises :class:`CheckFailed` on an output mismatch."""
    from perfbench.meta import run_metadata
    from perfbench.workloads import make_inputs, run_workload

    meta = run_metadata(ROOT, seed)
    inputs = make_inputs(w, seed)
    # A traced run splits its time between the untraced and traced pass.
    share = seconds / 2 if trace else seconds
    runs = [run_workload(w, inputs, seed, share)]
    tracer = None
    if trace:
        from perfbench.tracing import SpanTracer, install_shims

        tracer = SpanTracer()
        uninstall = install_shims(tracer)
        try:
            runs.append(run_workload(w, inputs, seed, share, tracer))
        finally:
            uninstall()
    for res in runs:
        if res.paced_sustainable is False:
            raise CheckFailed(
                f"{w.name} seed {seed}: the paced phase fell behind its "
                f"{w.paced_rate:g} items/s schedule (backlog or generator lag grew)"
            )
        bad = res.check()
        if bad:
            raise CheckFailed(
                f"{w.name} seed {seed}: {', '.join(bad)} differ from the "
                "reference engine"
            )
        res.check = res.output = None

    e2e = [end_to_end(res) for res in runs]
    res = runs[-1]
    lines = [f"{w.name} seed={seed} seconds={seconds:g} trace={int(trace)} "
             f"sha={meta['git_sha'][:12]} nproc={meta['nproc']} "
             f"effective_parallelism={meta['effective_parallelism']}"]
    for name, (value, unit, n, note) in e2e[0].items():
        lines.append(f"  {name:<20} {value:>14.6g} {unit:<8} n={n} ({note})")
    if res.paced_sustainable is not None:
        lag, q, n = res.lag.at(0.99)
        lines.append(
            f"  paced: {res.paced_batches} sends, generator lag "
            f"p{q * 100:g}={lag * 1e3:.3f} ms (n={n}), backlog at end="
            f"{res.backlog_items} items, sustainable"
        )
    lines.append(f"  operations: {res.attempted} attempted, {res.failed} failed")

    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": w.name, "seconds": seconds, "trace": int(trace),
        **meta,
        "attempted": res.attempted, "failed": res.failed,
        "paced_sustainable": res.paced_sustainable,
        "end_to_end": {k: {"value": v, "unit": u, "n": n, "note": note}
                       for k, (v, u, n, note) in e2e[0].items()},
    }
    if tracer is None:
        metrics = {k: (v, u) for k, (v, u, n, note) in e2e[0].items()}
    else:
        metrics = per_layer(res, tracer)
        for name in END_TO_END:
            base, traced = e2e[0][name][0], e2e[1][name][0]
            metrics[f"trace.overhead.{name}"] = (traced / base if base else 0.0, "ratio")
        spans_dir = os.path.join(out_dir, "out")
        os.makedirs(spans_dir, exist_ok=True)
        kept = tracer.export(
            os.path.join(spans_dir, f"{w.name}.spans.jsonl"),
            os.path.join(spans_dir, f"{w.name}.trace.json"),
        )
        lines.append(f"  traced run: {kept} spans written to {spans_dir}/{w.name}.*")
        lines.extend("  " + line for line in layer_table(w.name, metrics))
        lines.extend(
            f"  trace.overhead.{name:<20} {metrics[f'trace.overhead.{name}'][0]:.3f}"
            for name in END_TO_END
        )
        record["per_layer"] = {k: v for k, (v, u) in metrics.items()}
    with open(os.path.join(out_dir, "history.jsonl"), "a") as fh:
        fh.write(json.dumps(record, default=float) + "\n")
    return metrics, lines, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        print(f"cannot import the program from {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        metrics, lines, res = run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps({
        "correct": True,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": _finite(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
