"""The two-phase shared-index ingest kernel (PR 9).

The contract under test: the engine's batched ingest — phase-1 heap
events pre-simulated per shard (``plan_batch``), one candidate-limited
:class:`PositionIndex` shared by every shard, data applied through
:class:`ShardView` position views — is *bitwise identical* to the
scalar ``update()`` loop, across every pool-backed registry kind and
across the whole lifecycle (snapshot/restore, merge, compact).  The
perf story in ``benchmarks/perf_suite.py`` (scenario ``ingest_kernel``)
rides entirely on this equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.g_sampler import SamplerPool
from repro.core.reservoir import skip_next_replacement, skip_next_replacements
from repro.core.timeline import ChunkDigest, PositionIndex, ShardView
from repro.engine import ShardedSamplerEngine
from repro.obs import MetricsRegistry, use_registry


def norm(state):
    """Normalize a snapshot tree (numpy arrays → lists) so bitwise-equal
    states compare equal regardless of container type."""
    if isinstance(state, dict):
        return {k: norm(v) for k, v in state.items()}
    if isinstance(state, (list, tuple)):
        return [norm(v) for v in state]
    if isinstance(state, np.ndarray):
        return [norm(v) for v in state.tolist()]
    if isinstance(state, np.generic):
        return state.item()
    return state


#: Every registry kind whose ingest path bottoms out in SamplerPool's
#: batched kernel.  ``lp`` is pinned to p=1 here: for p > 1 the
#: Misra–Gries normalizer's batched update is documented as
#: distribution-preserving but not bitwise (only the pool half is), so
#: bitwise parity is asserted exactly where the contract promises it.
POOL_BACKED = [
    ("g", {"kind": "g", "measure": {"name": "huber"}, "instances": 24}),
    ("lp-p1", {"kind": "lp", "p": 1.0, "n": 1 << 12, "instances": 24}),
    ("pool", {"kind": "pool", "instances": 16}),
]


def _assert_same_sample(kind, a: ShardedSamplerEngine, b: ShardedSamplerEngine):
    if kind == "pool":  # the raw pool is query-less substrate
        return
    assert a.sample() == b.sample()


def _zipf(m: int, top: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (np.minimum(rng.zipf(1.3, size=m), top) - 1).astype(np.int64)


def _feed_scalar(engine: ShardedSamplerEngine, items: np.ndarray) -> None:
    for item in items.tolist():
        engine.update(item)


@pytest.mark.parametrize("kind,config", POOL_BACKED, ids=[k for k, _ in POOL_BACKED])
@pytest.mark.parametrize("shards", [2, 8])
class TestEngineScalarParity:
    def test_batched_ingest_matches_scalar_loop(self, kind, config, shards):
        items = _zipf(3000, 400, seed=17)
        batched = ShardedSamplerEngine(dict(config), shards=shards, seed=5)
        scalar = ShardedSamplerEngine(dict(config), shards=shards, seed=5)
        # Uneven chunking: batch boundaries must not be observable.
        batched.ingest(items[:1100], chunk_size=257)
        batched.ingest(items[1100:], chunk_size=1 << 16)
        _feed_scalar(scalar, items)
        assert norm(batched.snapshot()) == norm(scalar.snapshot())
        _assert_same_sample(kind, batched, scalar)

    def test_parity_survives_lifecycle(self, kind, config, shards):
        """compact → merge → snapshot/restore, then keep ingesting:
        the batched and scalar paths must stay bitwise locked through
        every lifecycle edge, not just on a fresh sampler."""
        s1, s2, s3 = (_zipf(1200, 300, seed=s) for s in (21, 22, 23))
        s2 = s2 + 300  # the merged-in site owns a disjoint id range
        batched = ShardedSamplerEngine(dict(config), shards=shards, seed=9)
        scalar = ShardedSamplerEngine(dict(config), shards=shards, seed=9)
        # Same seed: engine merge demands an identical partition layout
        # (the real deployment — one config fed from two sites).
        other_b = ShardedSamplerEngine(dict(config), shards=shards, seed=9)
        other_s = ShardedSamplerEngine(dict(config), shards=shards, seed=9)
        batched.ingest(s1, chunk_size=389)
        _feed_scalar(scalar, s1)
        other_b.ingest(s2, chunk_size=389)
        _feed_scalar(other_s, s2)
        batched.compact()
        scalar.compact()
        batched.merge(other_b)
        scalar.merge(other_s)
        snap = batched.snapshot()
        assert norm(snap) == norm(scalar.snapshot())
        # Replica boot: same config/seed (restore demands the layout),
        # state then overwritten wholesale by the snapshot.
        restored = ShardedSamplerEngine(dict(config), shards=shards, seed=9)
        restored.restore(snap)
        batched.ingest(s3, chunk_size=1 << 16)
        _feed_scalar(restored, s3)
        assert norm(batched.snapshot()) == norm(restored.snapshot())
        _assert_same_sample(kind, batched, restored)


ADVERSARIAL = {
    # Heap events pile onto a single shard; every settle hits one value.
    "all-one-item": np.full(4000, 7, dtype=np.int64),
    # No item repeats: the index's heavy side is all singletons.
    "all-distinct": np.arange(4000, dtype=np.int64),
    # Values straddle the 16-bit index gate mid-stream: the engine must
    # mix shared-index chunks with fallback chunks without drifting.
    "mixed-range": np.concatenate(
        [_zipf(1500, 200, seed=3), _zipf(1500, 200, seed=4) + (1 << 17),
         _zipf(1000, 200, seed=5)]
    ),
    # Negative ids are never indexable — pure fallback, still batched.
    "negative-ids": _zipf(2000, 300, seed=6) - 150,
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_chunks_match_scalar(name):
    items = ADVERSARIAL[name]
    config = {"kind": "g", "measure": {"name": "lp", "p": 2.0}, "instances": 16}
    scalar = ShardedSamplerEngine(dict(config), shards=4, seed=2)
    _feed_scalar(scalar, items)
    want = norm(scalar.snapshot())
    # chunk_size=1 puts every heap event on a chunk boundary; the shared
    # index covers whole batches, so boundary handling lives in the
    # reference path and in the batched kernel's flush-at-end.
    for chunk_size, shared_index in [(1, False), (7, True), (997, True), (1 << 16, True)]:
        engine = ShardedSamplerEngine(dict(config), shards=4, seed=2)
        engine.ingest(items, chunk_size=chunk_size, shared_index=shared_index)
        assert norm(engine.snapshot()) == want, (
            f"{name}: chunk_size={chunk_size} shared_index={shared_index}"
        )


class TestPositionIndex:
    def _check(self, base, cand, queries, bounds):
        index = PositionIndex(base, cand)
        got = index.rank_many(queries, bounds)
        for j, (v, g) in enumerate(zip(queries.tolist(), bounds.tolist())):
            if 0 <= v <= 0xFFFF and v in set(cand.tolist()):
                assert got[j] == int(np.sum(base[:g] == v)), (v, g)
            else:
                assert got[j] == 0, (v, g)
        tot = index.totals(queries)
        for j, v in enumerate(queries.tolist()):
            want = int(np.sum(base == v)) if 0 <= v <= 0xFFFF else 0
            assert tot[j] == want

    def test_rank_many_heavy_and_light(self):
        # >255 candidates forces the heavy/light split: the 255 largest
        # by batch mass take the uint8 radix side, the rest the encoded
        # mini-index over the sentinel tail.
        rng = np.random.default_rng(31)
        base = _zipf(5000, 450, seed=31)
        cand = np.unique(rng.choice(450, size=320, replace=False)).astype(np.int64)
        queries = rng.choice(cand, size=600).astype(np.int64)
        bounds = rng.integers(0, base.size + 1, size=600)
        self._check(base, cand, queries, bounds)

    def test_rank_many_all_heavy(self):
        rng = np.random.default_rng(32)
        base = _zipf(2000, 90, seed=32)
        cand = np.arange(90, dtype=np.int64)  # ≤255: no light side at all
        queries = rng.choice(cand, size=300).astype(np.int64)
        bounds = rng.integers(0, base.size + 1, size=300)
        self._check(base, cand, queries, bounds)

    def test_out_of_range_and_non_candidate_queries_rank_zero(self):
        base = _zipf(1000, 100, seed=33)
        cand = np.arange(0, 50, dtype=np.int64)
        queries = np.array([-3, 1 << 17, 0xFFFF, 60, 5], dtype=np.int64)
        bounds = np.full(queries.size, base.size, dtype=np.int64)
        index = PositionIndex(base, cand)
        got = index.rank_many(queries, bounds)
        assert got[0] == 0 and got[1] == 0  # outside the 16-bit gate
        assert got[2] == 0  # in range, absent from the chunk
        assert got[3] == 0  # in range, not a candidate (contract: 0)
        assert got[4] == int(np.sum(base == 5))

    def test_shard_view_materializes_subchunk(self):
        base = np.array([5, 9, 5, 3, 9, 9], dtype=np.int64)
        positions = np.array([0, 2, 3], dtype=np.int64)
        view = ShardView(base, positions, PositionIndex(base, np.unique(base)))
        assert view.size == 3
        np.testing.assert_array_equal(view.values(), [5, 5, 3])


class TestChunkDigestHeavyHitters:
    @pytest.mark.parametrize("seed", range(8))
    def test_mg_aux_answers_every_heavy_hitter_exactly(self, seed):
        # Values far above the dense-regime bound force the sorted +
        # Misra–Gries side.  MG property: every item with
        # f > n/(capacity+1) survives the pass, so after the exactify
        # step its *true* count sits in the O(1) heavy dict.
        capacity = 64
        rng = np.random.default_rng(seed)
        items = (_zipf(3000, 500, seed=seed) + (1 << 40)).astype(np.int64)
        digest = ChunkDigest(items, heavy_capacity=capacity)
        assert not digest.dense
        uniq, counts = np.unique(items, return_counts=True)
        threshold = items.size / (capacity + 1)
        for value, count in zip(uniq.tolist(), counts.tolist()):
            if count > threshold:
                assert digest.heavy.get(value) == count
            assert digest.count(value) == count
        absent = int(uniq.max()) + 1
        assert digest.count(absent) == 0
        assert digest.count(int(rng.integers(0, 100))) == 0

    def test_dense_regime_is_exact(self):
        items = _zipf(2000, 300, seed=40)
        digest = ChunkDigest(items)
        assert digest.dense
        uniq, counts = np.unique(items, return_counts=True)
        for value, count in zip(uniq.tolist(), counts.tolist()):
            assert digest.count(value) == count
        assert digest.count(301) == 0
        assert digest.count(-1) == 0


class TestScalarKernelContracts:
    def test_skip_next_replacements_bitwise(self):
        # The vectorized skip helper must consume the RNG stream exactly
        # as the scalar helper would — same jumps, same end state.
        for seed in range(6):
            times = np.random.default_rng(100 + seed).integers(
                1, 10_000, size=257
            )
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            scalar = [skip_next_replacement(int(t), rng_a) for t in times]
            batched = skip_next_replacements(times, rng_b)
            assert list(batched) == scalar
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_plan_batch_then_view_matches_scalar_updates(self):
        # The engine-internal pairing contract: plan_batch pre-simulates
        # phase 1 (mutating heap + RNG), and the one matching ShardView
        # application must land the exact scalar end state.
        items_a = _zipf(500, 60, seed=50)
        items_b = _zipf(400, 60, seed=51)
        scalar = SamplerPool(instances=8, seed=13)
        pool = SamplerPool(instances=8, seed=13)
        for items in (items_a, items_b):  # second round: tracked ≠ ∅
            for item in items.tolist():
                scalar.update(int(item))
            tracked = pool.tracked_values()
            t0 = pool.position  # plan_batch leaves the position untouched
            plan = pool.plan_batch(items.size)
            parts = [tracked] if tracked.size else []
            if plan[0]:
                offs = np.asarray(plan[0], dtype=np.int64)
                offs -= t0 + 1
                parts.append(items[offs])
            cand = (
                np.unique(np.concatenate(parts))
                if parts
                else np.empty(0, dtype=np.int64)
            )
            view = ShardView(
                items, np.arange(items.size, dtype=np.int64),
                PositionIndex(items, cand), events=plan,
            )
            pool.update_batch(view)
            assert norm(pool.snapshot()) == norm(scalar.snapshot())


def test_ingest_kernel_counters_exposed():
    reg = MetricsRegistry()
    with use_registry(reg):
        engine = ShardedSamplerEngine(
            {"kind": "pool", "instances": 16}, shards=2, seed=3
        )
    engine.ingest(_zipf(20_000, 500, seed=60))
    text = reg.render_prometheus()
    events = settles = None
    for line in text.splitlines():
        if line.startswith("repro_ingest_heap_events_total "):
            events = float(line.split()[-1])
        if line.startswith("repro_ingest_settle_scans_total "):
            settles = float(line.split()[-1])
    assert events is not None and events > 0
    assert settles is not None and settles >= 0
