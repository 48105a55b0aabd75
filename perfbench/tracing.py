"""Per-layer spans for the traced run.

The traced run installs shims from this file around the public calls of
each layer, patching the attribute where its caller looks it up (for
example ``repro.engine.shard.merged``, not ``repro.engine.state.merged``).
Nothing in the program changes; the shims are removed when the run ends.

Each span records its layer name, start, end, parent span and operation
id; spans of one operation (one write batch or one query, opened by the
load generator with :meth:`SpanTracer.op`) share the id, and a root span
on a background thread (worker apply, ticker refresh) starts its own.
Self time is a span's duration minus what its child spans on the same
thread cover, accumulated online per thread.  Times are wall clock, so
a thread waiting for the interpreter lock inside a span counts the wait
as that span's own time.  Raw spans are kept in
memory (up to :data:`MAX_RAW_SPANS`) and exported when the run ends.
A layer called from inside the same layer (``send`` → ``encode_frame``)
is one span, so ``calls`` counts outermost entries only.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

__all__ = ["LAYERS", "SpanTracer", "install_shims"]

#: Raw spans kept for export; aggregates keep counting past the cap.
MAX_RAW_SPANS = 250_000

#: Every layer the traced run reports, in table order, with its extra
#: counts beyond ``calls`` and ``busy_ms`` (name → unit).
LAYERS: dict[str, dict[str, str]] = {
    "loadgen": {"lag_p99_ms": "ms", "backlog_items": "items"},
    "engine.ingest": {"items": "items"},
    "engine.partition": {},
    "core.pool.plan": {"events": "count"},
    "core.timeline.index": {"candidates": "count"},
    "core.timeline.digest": {},
    "engine.batch.apply": {"items": "items", "items_per_call": "items"},
    "engine.fold": {"hit_ratio": "ratio", "rebases": "count"},
    "engine.draw": {"fail_ratio": "ratio"},
    "engine.compact": {"bytes_reclaimed": "bytes"},
    "engine.state": {"state_bytes": "bytes"},
    "serving.submit": {},
    "serving.router": {},
    "serving.admission": {},
    "serving.queue": {
        "wait_p50_ms": "ms", "wait_p90_ms": "ms", "depth_max": "items",
    },
    "serving.refresh": {"published_ratio": "ratio"},
    "serving.flush": {},
    "serving.views": {"views_copied": "count", "views_leased": "count"},
    "serving.transport": {"bytes": "bytes"},
    "serving.collect": {"shards_moved": "count"},
    "engine.restore": {"bytes": "bytes"},
    "lifecycle.codec": {"bytes": "bytes"},
}


class _ThreadState:
    __slots__ = ("tid", "stack", "busy", "calls", "counts")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        # Open spans: [layer, start_ns, child_ns, span_id, op_id, parent].
        self.stack: list[list] = []
        self.busy: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)


class SpanTracer:
    """In-memory span recorder with online per-layer self time."""

    def __init__(self) -> None:
        self.active = False
        self._tls = threading.local()
        self._ids = itertools.count()
        self._ops = itertools.count(1)
        self._threads: list[_ThreadState] = []
        self._reg_lock = threading.Lock()
        self._origin_ns = time.perf_counter_ns()
        self.spans: list[tuple] = []
        # Per-shard FIFO bookkeeping for queue waits: (items, t_ns).
        self.puts: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self.applies: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self.depth_max = 0
        # A forked shard worker inherits the shims; it must not record.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            with self._reg_lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._tls.st = st
        return st

    # -- spans ----------------------------------------------------------
    def _open(self, layer: str, new_op: bool) -> list:
        st = self._state()
        stack = st.stack
        if stack and not new_op:
            parent, op = stack[-1][3], stack[-1][4]
        else:
            parent, op = (stack[-1][3] if stack else -1), next(self._ops)
        frame = [layer, 0, 0, next(self._ids), op, parent]
        stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list) -> None:
        t1 = time.perf_counter_ns()
        st = self._state()
        st.stack.pop()
        layer, t0, child, sid, op, parent = frame
        dur = t1 - t0
        st.busy[layer] += dur - child
        st.calls[layer] += 1
        if st.stack:
            st.stack[-1][2] += dur
        if sid < MAX_RAW_SPANS:
            self.spans.append((sid, layer, t0, t1, parent, op, st.tid))

    def op(self):
        """Context manager for one load-generator operation: a root
        ``loadgen`` span with a fresh operation id."""
        return _Op(self)

    def wrap(self, fn, layer: str, hook=None):
        """``fn`` wrapped in a ``layer`` span.  ``hook(st, args, result,
        t0_ns)`` runs after every call made while tracing,
        including calls collapsed into an enclosing span of the same
        layer, so work counts are taken exactly once at the call that
        knows them."""
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            if st.stack and st.stack[-1][0] == layer:
                t0 = time.perf_counter_ns()
                result = fn(*args, **kwargs)
            else:
                frame = tracer._open(layer, False)
                t0 = frame[1]
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(frame)
            if hook is not None:
                hook(st, args, result, t0)
            return result

        return shim

    # -- results --------------------------------------------------------
    def totals(self) -> tuple[dict, dict, dict]:
        busy: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[tuple[str, str], float] = defaultdict(float)
        for st in list(self._threads):
            for k, v in st.busy.items():
                busy[k] += v
            for k, v in st.calls.items():
                calls[k] += v
            for k, v in st.counts.items():
                counts[k] += v
        return busy, calls, counts

    def queue_waits_ms(self) -> np.ndarray:
        """Submit-return → start of the apply that consumes each routed
        part, matched per shard by FIFO item offset."""
        waits = []
        for shard, puts in self.puts.items():
            applies = self.applies.get(shard)
            if not applies or not puts:
                continue
            put_n = np.array([n for n, _ in puts], dtype=np.int64)
            put_t = np.array([t for _, t in puts], dtype=np.int64)
            app_n = np.array([n for n, _ in applies], dtype=np.int64)
            app_t = np.array([t for _, t in applies], dtype=np.int64)
            starts = np.concatenate(([0], np.cumsum(put_n)[:-1]))
            app_starts = np.concatenate(([0], np.cumsum(app_n)[:-1]))
            app_end = int(app_n.sum())
            seen = starts < app_end
            idx = np.searchsorted(app_starts, starts[seen], side="right") - 1
            waits.append(np.maximum(app_t[idx] - put_t[seen], 0) / 1e6)
        return np.concatenate(waits) if waits else np.empty(0)

    def export(self, jsonl_path: str, chrome_path: str) -> int:
        """Write the kept spans as JSONL and as a Chrome trace; returns
        the number written."""
        spans = sorted(self.spans, key=lambda s: s[2])
        origin = self._origin_ns
        pid = os.getpid()
        with open(jsonl_path, "w") as out:
            for sid, layer, t0, t1, parent, op, tid in spans:
                out.write(json.dumps({
                    "id": sid, "name": layer, "parent": parent, "op": op,
                    "thread": tid, "start_us": (t0 - origin) / 1e3,
                    "end_us": (t1 - origin) / 1e3,
                }) + "\n")
        events = [
            {
                "name": layer, "cat": layer.split(".")[0], "ph": "X",
                "ts": (t0 - origin) / 1e3, "dur": (t1 - t0) / 1e3,
                "pid": pid, "tid": tid,
                "args": {"id": sid, "parent": parent, "op": op},
            }
            for sid, layer, t0, t1, parent, op, tid in spans
        ]
        with open(chrome_path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
        return len(spans)


class _Op:
    __slots__ = ("_tracer", "_frame")

    def __init__(self, tracer: SpanTracer) -> None:
        self._tracer = tracer
        self._frame = None

    def __enter__(self):
        if self._tracer.active:
            self._frame = self._tracer._open("loadgen", True)
        return self

    def __exit__(self, *exc) -> None:
        if self._frame is not None:
            self._tracer._close(self._frame)
            self._frame = None


def _size(x) -> int:
    n = getattr(x, "size", None)
    return int(n) if n is not None else len(x)


def install_shims(tracer: SpanTracer):
    """Wrap every layer's public calls; returns a function that puts the
    originals back."""
    from repro.core.g_sampler import SamplerPool
    from repro.core.timeline import ChunkDigest, PositionIndex
    from repro.engine import shard as engine_shard
    from repro.engine.partition import UniversePartitioner
    from repro.engine.shard import ShardedSamplerEngine
    from repro.lifecycle import envelope
    from repro.serving import transport
    from repro.serving.executor import QueryExecutor
    from repro.serving.procplane import ProcessPlane
    from repro.serving.router import ShardRouter, TenantRateLimiter
    from repro.serving.service import SamplerService
    from repro.serving.workers import ShardQueues

    def count(layer, key, fn):
        def hook(st, args, result, t0):
            st.counts[(layer, key)] += fn(args, result)
        return hook

    def note_put(st, args, result, t0):
        t = time.perf_counter_ns()
        for part in args[1]:
            tracer.puts[part.shard].append((len(part), t))
        tracer.depth_max = max(tracer.depth_max, max(args[0].depths()))

    def note_apply(st, args, result, t0):
        tracer.applies[int(args[1])].append((_size(args[2]), t0))

    def note_send(st, args, result, t0):
        frame = args[1]
        if frame.get("type") == "ingest":
            tracer.applies[int(frame["shard"])].append((_size(frame["items"]), t0))

    def fail(layer):
        return count(layer, "fails", lambda a, r: int(r.is_fail))

    patches = [
        (ShardedSamplerEngine, "ingest", "engine.ingest",
         count("engine.ingest", "items", lambda a, r: r)),
        (UniversePartitioner, "split", "engine.partition", None),
        (UniversePartitioner, "split_indices", "engine.partition", None),
        (UniversePartitioner, "value_shards", "engine.partition", None),
        (UniversePartitioner, "assign", "engine.partition", None),
        (SamplerPool, "plan_batch", "core.pool.plan",
         count("core.pool.plan", "events", lambda a, r: len(r[0]))),
        (SamplerPool, "tracked_values", "core.pool.plan", None),
        (PositionIndex, "__init__", "core.timeline.index",
         count("core.timeline.index", "candidates", lambda a, r: _size(a[2]))),
        (PositionIndex, "rank_many", "core.timeline.index", None),
        (ChunkDigest, "__init__", "core.timeline.digest", None),
        (engine_shard, "ingest", "engine.batch.apply",
         count("engine.batch.apply", "items", lambda a, r: r)),
        (ShardedSamplerEngine, "ingest_shard", "engine.batch.apply", note_apply),
        (engine_shard, "merged", "engine.fold", None),
        (ShardedSamplerEngine, "acquire_fold", "engine.fold", None),
        (ShardedSamplerEngine, "sample", "engine.draw", fail("engine.draw")),
        (QueryExecutor, "sample", "engine.draw", fail("engine.draw")),
        (ShardedSamplerEngine, "compact_shard", "engine.compact",
         count("engine.compact", "bytes_reclaimed", lambda a, r: r)),
        (ProcessPlane, "compact", "engine.compact",
         count("engine.compact", "bytes_reclaimed", lambda a, r: r)),
        (SamplerService, "submit", "serving.submit", None),
        (ShardRouter, "route_normalized", "serving.router", None),
        (TenantRateLimiter, "admit", "serving.admission", None),
        (ShardQueues, "put", "serving.queue", note_put),
        (QueryExecutor, "refresh", "serving.refresh",
         count("serving.refresh", "published", lambda a, r: int(r))),
        (SamplerService, "flush", "serving.flush", None),
        (QueryExecutor, "lease_view", "serving.views", None),
        (QueryExecutor, "return_view", "serving.views", None),
        (transport, "encode_frame", "serving.transport",
         count("serving.transport", "bytes", lambda a, r: len(r))),
        (transport, "decode_frame", "serving.transport",
         count("serving.transport", "bytes", lambda a, r: len(a[0]))),
        (transport.FrameConnection, "send", "serving.transport", note_send),
        (transport.FrameConnection, "recv", "serving.transport", None),
        (ProcessPlane, "collect", "serving.collect",
         count("serving.collect", "shards_moved", lambda a, r: r)),
        (ShardedSamplerEngine, "restore_shard", "engine.restore",
         count("engine.restore", "bytes", lambda a, r: (
             len(a[2]) if isinstance(a[2], (bytes, bytearray, memoryview)) else 0
         ))),
        (envelope, "state_to_bytes", "lifecycle.codec",
         count("lifecycle.codec", "bytes", lambda a, r: len(r))),
        (envelope, "state_from_bytes", "lifecycle.codec",
         count("lifecycle.codec", "bytes", lambda a, r: len(a[0]))),
    ]
    saved = []
    for owner, attr, layer, hook in patches:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, layer, hook))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
