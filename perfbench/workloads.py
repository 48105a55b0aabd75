"""The benchmark's workloads, their inputs and their output checks.

Every workload runs K=8 shards over a zipf(α=1.2) stream of 2^14 ids,
generated from the seed before any timing; the program only ever sees
the arrays.  The stream is one cycle of :data:`STREAM_LEN` items that
write batches walk through in order, wrapping around (timestamps of a
later cycle are shifted by the cycle's span, so time never goes back).

Load comes from this process with at most two load threads (the host
has two cores): engine workloads run one closed loop; served workloads
run one writer plus, during the paced phase, one reader.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

SHARDS = 8
UNIVERSE = 1 << 14
ZIPF_ALPHA = 1.2
STREAM_LEN = 1 << 22
WIDE_UNIVERSE = 1 << 24
G_CONFIG = {"kind": "g", "measure": {"name": "huber"}, "instances": 64}
TW_G_CONFIG = {**G_CONFIG, "kind": "tw_g", "horizon": 4.0}
ARRIVAL_RATE = 200_000.0

#: Constructions timed per run (engine runs time at most one per write);
#: ``setup_s`` is their median.
SETUP_REPS = 40
#: Items per reference-engine ingest call in the output checks.
CHECK_CHUNK = 1 << 20
#: Upper bound on any single flush, so a wedged service fails the run
#: instead of hanging it.
FLUSH_TIMEOUT_S = 60.0
#: Served workloads alternate SEGMENTS saturate and paced phases, so a
#: slow stretch of the shared host does not land on one phase only;
#: SATURATE_SHARE of the run saturates.
SEGMENTS = 6
SATURATE_SHARE = 0.5
#: The paced-phase reader: think time between reads, and every n-th
#: read is a visibility probe.
THINK_S = 0.002
PROBE_EVERY = 20
#: Growth, over a paced phase, of its backlog (as input time) or of its
#: generator lag that marks the paced rate as unsustainable.
GROWTH_SLACK_S = 0.05
INGEST_WORKERS = 2

_NULL = contextlib.nullcontext()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    batch: int
    served: bool = False
    wide: bool = False
    timestamps: bool = False
    workers_mode: str = "thread"
    queries_per_batch: int = 1
    stream_len: int = STREAM_LEN
    paced_rate: float = 2_000_000.0
    #: Engine runs: write batches after which the run starts over on a
    #: fresh engine (None: one engine for the whole run).  Every episode
    #: ends in the same state, so the output check replays one episode
    #: however long the run is.
    episode: int | None = None
    #: Whether BENCHMARK.json lists the workload; the others run by
    #: name only.
    gated: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "engine-fold",
            "direct engine, 2^14-item writes each followed by one query, so "
            "query latency is fold cost and ingest runs the shared-index "
            "kernel; bypasses partitioner split, digest and all serving layers",
            G_CONFIG, batch=1 << 14,
        ),
        Workload(
            "engine-wide",
            "ids spread over [0, 2^24) in 2^20-item writes with 1000 queries "
            "each, a fresh engine every 16 writes: ingest takes the "
            "digest/split path, queries are cache hits; bypasses shared "
            "index, plan, fold",
            G_CONFIG, batch=1 << 20, wide=True, queries_per_batch=1000,
            episode=16,
        ),
        Workload(
            "serve-thread",
            "thread-mode service saturated, then paced at 2M items/s on "
            "engine-fold's stream with a probing reader; no IPC, so "
            "transport, collect and restore are bypassed",
            G_CONFIG, batch=1 << 14, served=True,
            # Its query p99 and visibility p90 spread 0.23-0.29 of their
            # median over five seeds of 30 s on a shared two-core host:
            # the reads wait for the interpreter lock held by the writer
            # and the two ingest workers, and for the vCPU when the
            # hypervisor runs other tenants on it.
            gated=False,
        ),
        Workload(
            "serve-window-process",
            "process-mode tw_g service, bursty timestamps, saturated then "
            "paced at 1M items/s: the only run of transport, collect/restore, "
            "timed split and compaction; bypasses the shared index",
            TW_G_CONFIG, batch=1 << 14, served=True, timestamps=True,
            workers_mode="process",
            # At 2M items/s the generator lagged 26-41 ms at p99 and
            # visibility p50 ranged 50-69 ms over three seeds.
            paced_rate=1_000_000.0,
            # Its query p99 and visibility spread 0.27-0.81 of their median
            # over ten seeds on a shared two-core host: two worker
            # processes, the writer, the reader and the collector contend
            # for the cores, so the figures follow the host's scheduler.
            gated=False,
        ),
    )
}


@dataclass
class Inputs:
    """One stream cycle; batch ``j`` of size ``b`` is items
    ``[j·b, (j+1)·b)`` of the endless repetition of the cycle."""

    items: np.ndarray
    ts: np.ndarray | None
    period: float

    def batch(self, j: int, size: int, count: int = 1):
        """``(items, timestamps)`` of batches ``j .. j+count-1``, which
        must lie in one cycle."""
        cycle, lo = divmod(j * size, self.items.size)
        hi = lo + count * size
        items = self.items[lo:hi]
        if self.ts is None:
            return items, None
        ts = self.ts[lo:hi]
        return items, ts + cycle * self.period if cycle else ts

    def replay(self, batches, size: int, chunk: int = CHECK_CHUNK):
        """The concatenation of the given batch indices (ascending), in
        chunks of at most ``chunk`` items — what a reference engine is
        fed to reproduce a run."""
        per = max(1, chunk // size)
        run: list[int] = []
        for j in batches:
            if run and (j != run[-1] + 1 or len(run) == per or
                        (j * size) % self.items.size == 0):
                yield self.batch(run[0], size, len(run))
                run = []
            run.append(j)
        if run:
            yield self.batch(run[0], size, len(run))


def make_inputs(w: Workload, seed: int) -> Inputs:
    from repro.streams.generators import zipf_stream
    from repro.streams.timestamped import with_arrivals

    rng = np.random.default_rng(seed)
    stream = zipf_stream(UNIVERSE, w.stream_len, alpha=ZIPF_ALPHA, seed=rng)
    items = np.asarray(stream.items, dtype=np.int64)
    if w.wide:
        ids = rng.choice(WIDE_UNIVERSE, size=UNIVERSE, replace=False)
        items = ids.astype(np.int64)[items]
    ts, period = None, 0.0
    if w.timestamps:
        ts = with_arrivals(
            stream, process="bursty", rate=ARRIVAL_RATE, seed=rng
        ).timestamps
        period = float(ts[-1])
    return Inputs(items, ts, period)


# -- results ---------------------------------------------------------------
@dataclass
class Timing:
    """Latency samples in seconds."""

    samples: list = field(default_factory=list)

    def at(self, q: float) -> tuple[float, float, int]:
        """``(value, quantile used, samples)``: the ``q`` quantile, lowered
        to the highest one with at least ten samples beyond it (never
        below the median)."""
        n = len(self.samples)
        if n == 0:
            return float("nan"), q, 0
        q_used = min(q, max(0.5, 1.0 - 10.0 / n))
        return float(np.quantile(np.asarray(self.samples), q_used)), q_used, n


@dataclass
class RunResult:
    workload: Workload
    seed: int
    setup: Timing
    ingest_items: int
    ingest_seconds: float
    query: Timing
    visible: Timing
    rss_peak_mb: float
    attempted: int
    failed: int
    # Traced-run inputs and loader facts.
    lag: Timing = field(default_factory=Timing)
    backlog_items: int = 0
    paced_sustainable: bool | None = None
    paced_batches: int = 0
    layer_counts: dict = field(default_factory=dict)
    # What the check compares: the engine (engine workloads) or the
    # per-shard snapshot bytes taken after the final flush (served),
    # and (shard snapshots, next sample) of each finished episode.
    output: object = None
    episodes: list = field(default_factory=list)
    check: object = None  # zero-argument callable → list of mismatches


class _Ops:
    """Attempted/failed operation tally (an op that raises or times out
    is failed; a FAIL sample outcome is not)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def run(self, fn, *args, **kwargs):
        with self._lock:
            self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            with self._lock:
                self.failed += 1
            return None


def _vm_hwm_kb(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(worker_pids=()) -> float:
    """Peak resident set of this process plus the given workers."""
    own = _vm_hwm_kb("self")
    if own == 0:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_vm_hwm_kb(pid) for pid in worker_pids)) / 1024.0


def shard_blobs(engine) -> list[bytes]:
    from repro.engine import save_state

    return [save_state(s) for s in engine.samplers]


def diff_shards(got: list[bytes], want: list[bytes]) -> list[str]:
    """Names of the shards whose snapshot bytes differ."""
    if len(got) != len(want):
        return [f"shard count {len(got)} != {len(want)}"]
    return [f"shard {i} snapshot" for i, (a, b) in enumerate(zip(got, want))
            if a != b]


@contextlib.contextmanager
def _untraced(tracer):
    """Pause ``tracer`` (if any) around work that is no measured
    operation, such as timed set-up; it is active again afterwards."""
    if tracer is not None:
        tracer.active = False
    try:
        yield
    finally:
        if tracer is not None:
            tracer.active = True


def _same_sample(a, b) -> bool:
    return (a.outcome, a.item, repr(a.metadata)) == (b.outcome, b.item, repr(b.metadata))


# -- engine workloads ------------------------------------------------------
def run_engine(w: Workload, inputs: Inputs, seed: int, seconds: float, tracer=None):
    from repro.engine import ShardedSamplerEngine

    pc = time.perf_counter
    # Calls are timed by the CPU time the process spends in them: they
    # run on this thread and no other thread of the process works
    # meanwhile, so that is their latency on an unshared core.  The wall
    # clock would also count the milliseconds at a time for which a
    # shared host's hypervisor runs other tenants on this vCPU (steal),
    # and those set the p99.
    cpu = time.process_time

    def build():
        engine = ShardedSamplerEngine(w.config, shards=SHARDS, seed=seed)
        engine.sample()
        return engine

    engine = build()
    op = tracer.op if tracer is not None else (lambda: _NULL)
    ops = _Ops()
    setup, query, visible = Timing(), Timing(), Timing()
    items = 0
    ingest_s = 0.0
    j = 0
    start = pc()
    deadline = start + seconds
    next_setup = start
    finished = []
    if tracer is not None:
        tracer.active = True
    while pc() < deadline:
        if pc() >= next_setup:
            # Set-up is timed throughout the run, so that it meets the
            # same mix of host speeds as the rest of the run.
            with _untraced(tracer):
                t0 = cpu()
                build()
                t1 = cpu()
            setup.samples.append(t1 - t0)
            next_setup += seconds / SETUP_REPS
        if j == w.episode:
            with _untraced(tracer):
                finished.append((shard_blobs(engine), engine.sample()))
                engine = build()
            j = 0
        batch, _ = inputs.batch(j, w.batch)
        t0 = cpu()
        with op():
            ops.run(engine.ingest, batch)
        t1 = cpu()
        ingest_s += t1 - t0
        items += batch.size
        j += 1
        for q in range(w.queries_per_batch):
            tq = cpu()
            with op():
                ops.run(engine.sample)
            te = cpu()
            query.samples.append(te - tq)
            if q == 0:
                visible.samples.append(te - t0)
    if tracer is not None:
        tracer.active = False
    rss = peak_rss_mb()
    t0 = pc()
    state_bytes = engine.approx_size_bytes()
    state_ms = (pc() - t0) * 1e3
    cache = engine.cache_info()
    last = j

    def check() -> list[str]:
        # The reference stops at the run's last batch count and, if any
        # episode finished, at the episode length: there it takes the
        # shard snapshots and the sample after the run's queries.
        ref = ShardedSamplerEngine(w.config, shards=SHARDS, seed=seed)
        ref.sample()
        want, done = {}, 0
        for mark in sorted({last, w.episode} if res.episodes else {last}):
            for chunk, _ in inputs.replay(range(done, mark), w.batch):
                ref.ingest(chunk, shared_index=False)
            done = mark
            for _ in range(w.queries_per_batch):
                ref.sample()
            want[mark] = (shard_blobs(ref), ref.sample())
        got = res.output
        ends = [("", shard_blobs(got), got.sample(), *want[last])]
        ends += [(f"episode {k} ", *end, *want[w.episode])
                 for k, end in enumerate(res.episodes)]
        bad = []
        for label, got_blobs, got_sample, blobs, sample in ends:
            bad += [label + name for name in diff_shards(got_blobs, blobs)]
            if not _same_sample(got_sample, sample):
                bad.append(label + "next sample()")
        return bad

    res = RunResult(
        w, seed, setup, items, ingest_s, query, visible, rss,
        ops.attempted, ops.failed,
        layer_counts={
            ("engine.state", "calls"): 1,
            ("engine.state", "busy_ms"): state_ms,
            ("engine.state", "state_bytes"): state_bytes,
            ("engine.fold", "hits"): cache["hits"],
            ("engine.fold", "lookups"): cache["hits"] + cache["misses"] + cache["rebases"],
            ("engine.fold", "rebases"): cache["rebases"],
        },
        output=engine, episodes=finished, check=check,
    )
    return res


# -- served workloads ------------------------------------------------------
def run_service(w: Workload, inputs: Inputs, seed: int, seconds: float, tracer=None):
    from repro.engine import ShardedSamplerEngine
    from repro.serving import SamplerService

    pc = time.perf_counter
    setup = Timing()
    svc = None
    for _ in range(SETUP_REPS):
        if svc is not None:
            svc.close()
        t0 = pc()
        svc = SamplerService(
            w.config, shards=SHARDS, seed=seed,
            ingest_workers=INGEST_WORKERS, workers_mode=w.workers_mode,
        )
        svc.refresh()
        setup.samples.append(pc() - t0)

    op = tracer.op if tracer is not None else (lambda: _NULL)
    ops = _Ops()
    accepted: list[int] = []
    watermark = float("-inf")

    def submit(j: int) -> None:
        nonlocal watermark
        items, ts = inputs.batch(j, w.batch)
        with op():
            ok = ops.run(svc.submit, items, ts)
        if ok:
            accepted.append(j)
            if ts is not None:
                watermark = max(watermark, float(ts[-1]))

    def flush() -> None:
        with op():
            ops.run(svc.flush, timeout=FLUSH_TIMEOUT_S)

    # Probe: read-your-writes round trip.
    def probe() -> None:
        svc.flush(timeout=FLUSH_TIMEOUT_S)
        svc.refresh()
        svc.sample()

    query, visible, lag = Timing(), Timing(), Timing()
    dues: list[float] = []
    growth: list[bool] = []
    ingest_s = 0.0
    ingest_items = 0
    j = 0
    try:
        if tracer is not None:
            tracer.active = True
        for _ in range(SEGMENTS):
            # Saturate: back-to-back submits under block backpressure,
            # timed from the first submit until flush() returns.
            t0 = pc()
            before = len(accepted)
            while pc() - t0 < seconds * SATURATE_SHARE / SEGMENTS:
                submit(j)
                j += 1
            flush()
            ingest_s += pc() - t0
            ingest_items += (len(accepted) - before) * w.batch
            # Paced: open loop at a fixed rate, each send timed from its
            # due time; one lock-free reader whose every n-th iteration
            # is a visibility probe.
            stop = threading.Event()

            def reader() -> None:
                k = 0
                while not stop.is_set():
                    time.sleep(THINK_S)
                    k += 1
                    if k % PROBE_EVERY == 0 and dues:
                        due = dues[-1]
                        with op():
                            ops.run(probe)
                        visible.samples.append(pc() - due)
                    else:
                        tq = pc()
                        with op():
                            ops.run(svc.sample)
                        query.samples.append(pc() - tq)

            thread = threading.Thread(target=reader, name="perfbench-reader")
            period = w.batch / w.paced_rate
            paced_s = seconds * (1.0 - SATURATE_SHARE) / SEGMENTS
            backlog: list[int] = []
            first, lag_from = j, len(lag.samples)
            thread.start()
            try:
                start = pc() + period
                while True:
                    due = start + (j - first) * period
                    if due - start >= paced_s or pc() - start >= paced_s:
                        break
                    now = pc()
                    if now < due:
                        time.sleep(due - now)
                    lag.samples.append(pc() - due)
                    submit(j)
                    dues.append(due)
                    j += 1
                    backlog.append(len(accepted) * w.batch - svc.position)
            finally:
                stop.set()
                thread.join()
            # The phase fell behind if, in its last quarter against its
            # first, the backlog doubled by more than GROWTH_SLACK_S of
            # input (which covers the collect cadence), or the generator
            # (blocked by backpressure) lagged GROWTH_SLACK_S further.
            quarter = max(1, len(backlog) // 4)
            lags = lag.samples[lag_from:]
            growth.append(
                float(np.median(backlog[-quarter:]))
                > 2 * float(np.median(backlog[:quarter])) + GROWTH_SLACK_S * w.paced_rate
                or float(np.median(lags[-quarter:]))
                > float(np.median(lags[:quarter])) + GROWTH_SLACK_S
            )
        backlog_end = len(accepted) * w.batch - svc.position
        flush()
        if tracer is not None:
            tracer.active = False

        stats = svc.stats()
        pids = [p["pid"] for p in stats["ingest"].get("worker_processes", [])]
        rss = peak_rss_mb(pids)
        t0 = pc()
        state_bytes = svc.engine.approx_size_bytes()
        state_ms = (pc() - t0) * 1e3
        cache = svc.engine.cache_info()
        apply_calls = apply_s = 0.0
        if w.workers_mode == "process":
            # Worker-side applies are not traced; their own histogram,
            # shipped to this process, gives count and total time.
            fam = svc.metrics.render_json().get("repro_serving_ingest_apply_seconds", {})
            for sample in fam.get("samples", []):
                if "worker" in sample["labels"]:
                    apply_calls += sample["count"]
                    apply_s += sample["sum"]
        blobs = svc.snapshot_shards_bytes()
    finally:
        svc.close()

    def check() -> list[str]:
        got = ShardedSamplerEngine(w.config, shards=SHARDS, seed=seed)
        for shard, blob in enumerate(res.output):
            got.restore_shard(shard, blob)
        ref = ShardedSamplerEngine(w.config, shards=SHARDS, seed=seed)
        for chunk, ts in inputs.replay(accepted, w.batch):
            ref.ingest(chunk, timestamps=ts)
        if w.timestamps:
            got.compact(now=watermark)
            ref.compact(now=watermark)
        return diff_shards(shard_blobs(got), shard_blobs(ref))

    counts = {
        ("engine.state", "calls"): 1,
        ("engine.state", "busy_ms"): state_ms,
        ("engine.state", "state_bytes"): state_bytes,
        ("engine.fold", "hits"): cache["hits"],
        ("engine.fold", "lookups"): cache["hits"] + cache["misses"] + cache["rebases"],
        ("engine.fold", "rebases"): cache["rebases"],
        ("serving.views", "views_copied"): stats["query"]["views_copied"],
        ("serving.views", "views_leased"): stats["query"]["views_leased"],
    }
    if w.workers_mode == "process":
        counts.update({
            ("engine.batch.apply", "calls"): apply_calls,
            ("engine.batch.apply", "busy_ms"): apply_s * 1e3,
            ("engine.batch.apply", "items"): stats["ingest"]["applied_items"],
        })
    res = RunResult(
        w, seed, setup, ingest_items, ingest_s, query, visible, rss,
        ops.attempted, ops.failed,
        lag=lag, backlog_items=backlog_end, paced_sustainable=not any(growth),
        paced_batches=len(lag.samples), layer_counts=counts, output=blobs,
        check=check,
    )
    return res


def run_workload(w: Workload, inputs: Inputs, seed: int, seconds: float, tracer=None) -> RunResult:
    runner = run_service if w.served else run_engine
    return runner(w, inputs, seed, seconds, tracer)
