"""Sharded engine: partition determinism, routed ingestion, and — the
point of it all — merged shard output matching the single-sampler target
distribution exactly."""

import numpy as np
import pytest

from helpers import assert_matches_distribution
from repro.engine import ShardedSamplerEngine, UniversePartitioner
from repro.engine.state import state_from_bytes, state_to_bytes
from repro.stats import f0_target, lp_target
from repro.streams import zipf_stream


class TestUniversePartitioner:
    def test_assignment_deterministic_and_total(self):
        part = UniversePartitioner(8, seed=3)
        items = np.arange(10_000)
        ids = part.assign(items)
        assert np.array_equal(ids, part.assign(items))
        assert ids.min() >= 0 and ids.max() < 8
        # hash strategy should spread a structured id space roughly evenly
        counts = np.bincount(ids, minlength=8)
        assert counts.min() > 10_000 / 8 / 2

    def test_split_preserves_order_and_mass(self):
        part = UniversePartitioner(4, seed=1)
        items = np.asarray(zipf_stream(100, 5000, alpha=1.2, seed=0).items)
        chunks = part.split(items)
        assert sum(c.size for c in chunks) == 5000
        ids = part.assign(items)
        for k, chunk in enumerate(chunks):
            assert np.array_equal(chunk, items[ids == k])

    def test_modulo_strategy(self):
        part = UniversePartitioner(4, strategy="modulo")
        assert np.array_equal(part.assign(np.arange(8)), np.arange(8) % 4)

    def test_equality_is_layout_equality(self):
        assert UniversePartitioner(4, seed=1) == UniversePartitioner(4, seed=1)
        assert UniversePartitioner(4, seed=1) != UniversePartitioner(4, seed=2)
        assert UniversePartitioner(4, seed=1) != UniversePartitioner(8, seed=1)

    def test_validates(self):
        with pytest.raises(ValueError):
            UniversePartitioner(0)
        with pytest.raises(ValueError):
            UniversePartitioner(4, strategy="round-robin")


class TestShardedEngineBasics:
    CONFIG = {"kind": "g", "measure": {"name": "lp", "p": 1.0}, "instances": 16}

    def test_ingest_routes_everything(self):
        engine = ShardedSamplerEngine(self.CONFIG, shards=4, seed=0)
        stream = zipf_stream(64, 3000, alpha=1.1, seed=1)
        assert engine.ingest(stream.items) == 3000
        assert engine.position == 3000
        assert all(s.position > 0 for s in engine.samplers)

    def test_scalar_update_routes_consistently(self):
        engine = ShardedSamplerEngine(self.CONFIG, shards=4, seed=0)
        for item in [3, 3, 3, 17]:
            engine.update(item)
        shard = engine.shard_of(3)
        assert engine.samplers[shard].position == 3

    def test_requires_mergeable_kind(self):
        with pytest.raises(ValueError):
            ShardedSamplerEngine({"kind": "sw-f0", "n": 64, "window": 10}, shards=2)

    def test_single_shard_degenerates_gracefully(self):
        engine = ShardedSamplerEngine(self.CONFIG, shards=1, seed=0)
        stream = zipf_stream(32, 1000, alpha=1.0, seed=2)
        engine.ingest(stream.items)
        assert engine.position == 1000
        assert engine.sample().outcome is not None

    def test_snapshot_restore_roundtrip(self):
        engine = ShardedSamplerEngine(self.CONFIG, shards=3, seed=4)
        stream = zipf_stream(48, 2000, alpha=1.2, seed=3)
        engine.ingest(stream.items[:1200])
        buf = state_to_bytes(engine.snapshot())
        twin = ShardedSamplerEngine(self.CONFIG, shards=3, seed=4)
        twin.restore(state_from_bytes(buf))
        engine.ingest(stream.items[1200:])
        twin.ingest(stream.items[1200:])
        assert twin.position == engine.position == 2000
        assert twin.sample().item == engine.sample().item

    def test_restore_rejects_layout_mismatch(self):
        engine = ShardedSamplerEngine(self.CONFIG, shards=3, seed=4)
        other = ShardedSamplerEngine(self.CONFIG, shards=3, seed=5)
        with pytest.raises(ValueError):
            other.restore(engine.snapshot())

    def test_cross_engine_merge(self):
        stream = zipf_stream(48, 2000, alpha=1.2, seed=6)
        site_a = ShardedSamplerEngine(self.CONFIG, shards=4, seed=7)
        site_b = ShardedSamplerEngine(
            self.CONFIG, shards=4, seed=8, partitioner=site_a.partitioner
        )
        # The sites own disjoint id ranges: shard i of both engines covers
        # the same hash partition, so overlapping ids would bias the merge.
        site_a.ingest(stream.items[:1000])
        site_b.ingest(np.asarray(stream.items[1000:]) + 48)
        site_a.merge(site_b)
        assert site_a.position == 2000

    def test_cross_engine_merge_rejects_overlapping_ids(self):
        site_a = ShardedSamplerEngine(self.CONFIG, shards=4, seed=7)
        site_b = ShardedSamplerEngine(
            self.CONFIG, shards=4, seed=8, partitioner=site_a.partitioner
        )
        # Pools fed [5, 5, 7] and [5, 7, 5] never give 5 a count above 2;
        # one pool over the concatenation does — so overlap must raise.
        site_a.ingest(np.array([5, 5, 7]))
        site_b.ingest(np.array([5, 7, 5]))
        shards = site_a.partitioner.assign(np.array([5, 7])).tolist()
        shard, item = min(zip(shards, [5, 7]))  # the first overlap checked
        epochs = site_a.mutation_epochs()
        with pytest.raises(ValueError, match=f"shard {shard}: id {item} "):
            site_a.merge(site_b)
        # rejected before any shard moved
        assert site_a.position == 3
        assert site_a.mutation_epochs() == epochs

    def test_merge_rejects_different_layouts(self):
        a = ShardedSamplerEngine(self.CONFIG, shards=4, seed=1)
        b = ShardedSamplerEngine(self.CONFIG, shards=4, seed=2)
        with pytest.raises(ValueError):
            a.merge(b)


class TestShardedExactness:
    def test_sharded_g_sampler_matches_single_target(self):
        stream = zipf_stream(48, 2000, alpha=1.2, seed=10)
        target = lp_target(stream.frequencies(), 1.0)

        def run(seed):
            engine = ShardedSamplerEngine(
                {"kind": "g", "measure": {"name": "lp", "p": 1.0}, "instances": 24},
                shards=4,
                seed=seed,
            )
            engine.ingest(stream.items)
            return engine.sample()

        assert_matches_distribution(run, target, trials=350)

    def test_sharded_lp2_k8_matches_single_target(self):
        """The acceptance-criteria configuration: K = 8, p = 2."""
        stream = zipf_stream(32, 1600, alpha=1.2, seed=11)
        target = lp_target(stream.frequencies(), 2.0)

        def run(seed):
            engine = ShardedSamplerEngine(
                {"kind": "lp", "p": 2.0, "n": 32, "instances": 64},
                shards=8,
                seed=seed,
            )
            engine.ingest(stream.items)
            return engine.sample()

        assert_matches_distribution(run, target, trials=300)

    def test_f0_engine_position_counts_updates(self):
        stream = zipf_stream(80, 500, alpha=1.1, seed=14)
        for kind in ("f0", "oracle-f0", "algorithm5-f0"):
            engine = ShardedSamplerEngine({"kind": kind, "n": 80}, shards=4, seed=1)
            engine.ingest(stream.items)
            assert engine.position == 500, kind

    def test_sharded_f0_matches_single_target(self):
        stream = zipf_stream(80, 1500, alpha=1.1, seed=12)
        target = f0_target(stream.frequencies())

        def run(seed):
            engine = ShardedSamplerEngine({"kind": "f0", "n": 80}, shards=4, seed=seed)
            engine.ingest(stream.items)
            return engine.sample()

        assert_matches_distribution(run, target, trials=350)

    def test_sharded_oracle_f0_matches_single_target(self):
        stream = zipf_stream(80, 1500, alpha=1.1, seed=13)
        target = f0_target(stream.frequencies())

        def run(seed):
            engine = ShardedSamplerEngine(
                {"kind": "oracle-f0", "n": 80}, shards=3, seed=seed
            )
            engine.ingest(stream.items)
            return engine.sample()

        assert_matches_distribution(run, target, trials=350)
