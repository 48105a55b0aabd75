"""The one-pass K-way pool fold and the cheap pool clone.

``SamplerPool.merge(*others)`` must be bitwise the fold the pairwise
merge made one input at a time — same snapshot bytes, same RNG end
state.  The pairwise merge is kept here, verbatim, as the oracle; the
oracle fold clones its first input through a snapshot round trip, so it
shares no code with ``SamplerPool.__deepcopy__`` either.
"""

import copy
import heapq

import numpy as np
import pytest

from repro.core.g_sampler import SamplerPool, TrulyPerfectGSampler
from repro.core.lp_sampler import TrulyPerfectLpSampler
from repro.core.measures import HuberMeasure
from repro.core.reservoir import skip_next_replacements
from repro.engine import ShardedSamplerEngine
from repro.engine.state import load_state, merged, save_state
from repro.lifecycle import Snapshot
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.windows import TimeWindowGSampler

R = 16


def pairwise_merge(self, other):
    """The pre-kernel ``SamplerPool.merge`` (one input per call)."""
    if not isinstance(other, SamplerPool):
        raise TypeError(f"cannot merge SamplerPool with {type(other).__name__}")
    if other._r != self._r:
        raise ValueError(f"instance counts differ: {self._r} vs {other._r}")
    m1, m2 = self._t, other._t
    if m2 == 0:
        return [True] * self._r
    total = m1 + m2
    mine = self.finalize()
    theirs = other.finalize()
    kept_self = []
    picks = []
    for k in range(self._r):
        if m1 > 0 and self._rng.random() < m1 / total:
            kept_self.append(True)
            picks.append(mine[k])
        else:
            kept_self.append(False)
            item, count, ts = theirs[k]
            picks.append((item, count, m1 + ts))
    counts = {}
    refs = {}
    for item, count, __ in picks:
        refs[item] = refs.get(item, 0) + 1
        counts[item] = max(counts.get(item, 0), count)
    for k, (item, count, ts) in enumerate(picks):
        self._items[k] = item
        self._offsets[k] = counts[item] - count
        self._timestamps[k] = ts
    self._counts = counts
    self._refs = refs
    self._t = total
    jumps = skip_next_replacements([total] * self._r, self._rng)
    self._heap = list(zip(jumps, range(self._r)))
    heapq.heapify(self._heap)
    self._heap_events += other._heap_events
    return kept_self


def _clone(sampler, build):
    """Independent copy of ``sampler``: a fresh build restored from its
    snapshot bytes (no ``deepcopy`` involved)."""
    twin = build(0)
    load_state(twin, save_state(sampler))
    return twin


def oracle_fold(samplers, build):
    """``merged`` as it was: clone the first, absorb the rest pairwise."""
    out = _clone(samplers[0], build)
    for other in samplers[1:]:
        if isinstance(out, SamplerPool):
            pairwise_merge(out, other)
        else:
            pairwise_merge(out._pool, other._pool)
            mg = getattr(out, "_mg", None)
            if mg is not None:
                mg.merge(other._mg)
    return out


def _rng_of(sampler):
    return sampler if isinstance(sampler, np.random.Generator) else sampler._rng


BUILDERS = {
    "pool": lambda seed: SamplerPool(R, seed=seed),
    "g": lambda seed: TrulyPerfectGSampler(HuberMeasure(), instances=R, seed=seed),
    "lp": lambda seed: TrulyPerfectLpSampler(2.0, n=1 << 12, instances=R, seed=seed),
}

#: Stream length per shard (0 = an empty shard).
LAYOUTS = {
    "k1": [400],
    "k1-empty": [0],
    "k2": [300, 120],
    "empty-first": [0, 250, 90, 400],
    "empty-middle": [200, 0, 0, 310, 1],
    "empty-last": [150, 260, 0],
    "all-empty": [0, 0, 0],
    "k8": [500, 80, 0, 640, 3, 220, 90, 410],
}


def _shards(kind, sizes, base=0, seed=5):
    """Shards over disjoint id ranges (shard ``i`` owns ids
    ``base + 1000·i + [0, 64)``), each fed a zipf-ish stream."""
    rng = np.random.default_rng(seed)
    shards = []
    for i, size in enumerate(sizes):
        s = BUILDERS[kind](seed + 31 * i)
        if size:
            items = base + 1000 * i + (rng.zipf(1.3, size) % 64)
            s.update_batch(items.astype(np.int64))
        shards.append(s)
    return shards


class TestKernelParity:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_fold_bitwise_equals_pairwise(self, kind, layout):
        shards = _shards(kind, LAYOUTS[layout])
        before = [save_state(s) for s in shards]
        fold = merged(shards)
        want = oracle_fold(shards, BUILDERS[kind])
        assert save_state(fold) == save_state(want)
        assert np.array_equal(_rng_of(fold).random(8), _rng_of(want).random(8))
        # the inputs are untouched
        assert [save_state(s) for s in shards] == before

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_negative_ids(self, kind):
        shards = _shards(kind, [120, 0, 340, 77], base=-(1 << 40))
        fold = merged(shards)
        want = oracle_fold(shards, BUILDERS[kind])
        assert save_state(fold) == save_state(want)
        assert min(fold.tracked_values()) < 0

    def test_samples_after_fold_match(self):
        shards = _shards("g", LAYOUTS["k8"])
        fold = merged(shards)
        want = oracle_fold(shards, BUILDERS["g"])
        assert [fold.sample() for __ in range(50)] == [
            want.sample() for __ in range(50)
        ]

    def test_kept_self_mask_matches_pairwise(self):
        for sizes in ([300, 120], [0, 120], [300, 0]):
            a, b = _shards("pool", sizes)
            twin = _clone(a, BUILDERS["pool"])
            assert a.merge(b) == pairwise_merge(twin, b)
            assert save_state(a) == save_state(twin)

    def test_k_way_kept_self_is_survival(self):
        shards = _shards("pool", [400, 100, 250])
        out = _clone(shards[0], BUILDERS["pool"])
        first = pairwise_merge(out, shards[1])
        second = pairwise_merge(out, shards[2])
        kernel = _clone(shards[0], BUILDERS["pool"])
        assert kernel.merge(*shards[1:]) == [a and b for a, b in zip(first, second)]

    def test_mismatched_instances_raise_before_any_change(self):
        shards = _shards("pool", [100, 80])
        odd = SamplerPool(R + 1, seed=1)
        odd.update_batch(np.arange(5000, 5010))
        before = save_state(shards[0])
        with pytest.raises(ValueError, match="instance counts differ"):
            shards[0].merge(shards[1], odd)
        with pytest.raises(TypeError):
            shards[0].merge(shards[1], object())
        assert save_state(shards[0]) == before

    def test_wrappers_check_every_input_first(self):
        g = _shards("g", [100, 80])
        other = TrulyPerfectGSampler(HuberMeasure(tau=2.0), instances=R, seed=3)
        before = save_state(g[0])
        with pytest.raises(ValueError, match="measures differ"):
            g[0].merge(g[1], other)
        assert save_state(g[0]) == before
        lp = _shards("lp", [100, 80])
        p1 = TrulyPerfectLpSampler(1.0, n=1 << 12, instances=R, seed=3)
        before = save_state(lp[0])
        with pytest.raises(ValueError, match="p differs"):
            lp[0].merge(lp[1], p1)
        narrow = TrulyPerfectLpSampler(2.0, n=100, instances=R, seed=4)
        narrow.update_batch(np.arange(7000, 7050))
        with pytest.raises(ValueError, match="capacities differ"):
            lp[0].merge(lp[1], narrow)
        assert save_state(lp[0]) == before


class _TinyUniforms:
    """A stand-in generator replaying fixed uniforms (the scalar and
    batched draws of one stream)."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        out, self._values = self._values[:size], self._values[size:]
        return np.array(out, dtype=np.float64)


def _pool_state(pool):
    return (
        pool._t,
        pool._items,
        pool._offsets,
        pool._timestamps,
        sorted(pool._heap),
        list(pool._counts.items()),
        list(pool._refs.items()),
    )


class TestJumpFallback:
    def _fold_both(self, uniforms):
        shards = _shards("pool", [60, 0, 40, 25])
        kernel = _clone(shards[0], BUILDERS["pool"])
        oracle = _clone(shards[0], BUILDERS["pool"])
        kernel._rng = _TinyUniforms(uniforms)
        oracle._rng = _TinyUniforms(uniforms)
        return shards, kernel, oracle

    def test_astronomical_jumps_match_python_ints(self):
        # 2 non-empty steps x (R coins + R jumps); the last jumps mix
        # tiny, zero and ordinary uniforms, so the jumps need Python ints.
        rng = np.random.default_rng(0)
        last = [1e-300, 0.0, 1e-17, 0.5] * (R // 4)
        uniforms = rng.random(3 * R).tolist() + last
        shards, kernel, oracle = self._fold_both(uniforms)
        kernel.merge(*shards[1:])
        for other in shards[1:]:
            pairwise_merge(oracle, other)
        assert _pool_state(kernel) == _pool_state(oracle)
        jumps = [t for t, __ in kernel._heap]
        assert max(jumps) > 2**1000  # exact Python ints, not int64
        assert kernel._t + 1 in jumps  # the u == 0 guard

    def test_subnormal_uniform_raises_like_scalar(self):
        uniforms = [0.5] * (3 * R) + [5e-324] * R
        shards, kernel, oracle = self._fold_both(uniforms)
        with pytest.raises(OverflowError):
            for other in shards[1:]:
                pairwise_merge(oracle, other)
        before = _pool_state(kernel)
        with pytest.raises(OverflowError):
            kernel.merge(*shards[1:])
        assert _pool_state(kernel) == before  # jumps are drawn before state moves


class TestTimeWindowFold:
    def _tw(self, seed, lo):
        tw = TimeWindowGSampler(HuberMeasure(), horizon=5.0, instances=R, seed=seed)
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.uniform(0.0, 12.0, 300))
        tw.update_batch(lo + (rng.zipf(1.3, 300) % 64), ts)
        return tw

    def test_tw_g_fold_bitwise_equals_pairwise(self, monkeypatch):
        shards = [self._tw(seed, 1000 * seed) for seed in range(1, 6)]
        fold = merged(shards)
        monkeypatch.setattr(SamplerPool, "merge", pairwise_merge)
        monkeypatch.setattr(
            SamplerPool, "__deepcopy__", lambda self, memo: _clone(
                self, lambda seed: SamplerPool(self._r, seed=seed)
            ),
        )
        want = merged(shards)
        assert save_state(fold) == save_state(want)
        assert fold.sample(now=12.0) == want.sample(now=12.0)

    def test_tw_g_generation_deepcopy_round_trips(self):
        tw = self._tw(7, 0)
        gen = tw._generations[-1]
        twin = copy.deepcopy(gen)
        assert twin.pool is not gen.pool
        assert save_state(twin.pool) == save_state(gen.pool)
        assert twin.wall == gen.wall and twin.wall is not gen.wall
        clone = copy.deepcopy(tw)
        assert Snapshot.capture(clone).to_bytes() == Snapshot.capture(tw).to_bytes()


class TestPoolClone:
    def test_mutating_clone_leaves_original(self):
        (pool,) = _shards("pool", [300])
        before = save_state(pool)
        twin = copy.deepcopy(pool)
        assert save_state(twin) == before
        twin.update_batch(np.arange(9000, 9400))
        twin.merge(*_shards("pool", [0, 50])[1:])
        assert save_state(pool) == before
        assert save_state(twin) != before

    def test_clone_rng_is_a_copy(self):
        (pool,) = _shards("pool", [100])
        twin = copy.deepcopy(pool)
        assert twin._rng is not pool._rng
        assert np.array_equal(twin._rng.random(4), pool._rng.random(4))

    def test_wrapper_and_pool_share_one_copied_rng(self):
        for kind in ("g", "lp"):
            (s,) = _shards(kind, [200])
            assert s._rng is s._pool._rng
            twin = copy.deepcopy(s)
            assert twin._rng is twin._pool._rng
            assert twin._rng is not s._rng

    def test_metric_instruments_stay_shared(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            pool = SamplerPool(R, seed=1)
        twin = copy.deepcopy(pool)
        assert twin._m_heap_events is pool._m_heap_events
        assert twin._m_settle_scans is pool._m_settle_scans
        seen = registry.get("repro_ingest_heap_events_total").total()
        twin.update_batch(np.arange(500))
        assert registry.get("repro_ingest_heap_events_total").total() > seen

    def test_engine_fold_reads_like_merged(self):
        engine = ShardedSamplerEngine(
            {"kind": "g", "measure": {"name": "huber"}, "instances": R},
            shards=8,
            seed=11,
        )
        engine.ingest(np.random.default_rng(2).zipf(1.2, 4000) % (1 << 10))
        want = oracle_fold(engine.samplers, BUILDERS["g"])
        assert engine.sample() == want.sample()
