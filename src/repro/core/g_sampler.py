"""Framework 1.3 — truly perfect G-sampling on insertion-only streams.

The construction (Algorithms 1 and 2, Theorem 3.1):

1. run a single-slot reservoir over stream *positions*; remember the held
   item ``s`` and the count ``c`` of its occurrences from the sampling
   position onward;
2. at query time, accept ``s`` with probability ``(G(c) − G(c−1))/ζ``.

Telescoping over the ``f_i`` possible sampled positions of item ``i``
gives ``P(output = i) = G(f_i)/(ζm)`` exactly — so *conditioned on
accepting*, the output distribution is exactly ``G(f_i)/F_G``: truly
perfect.  Repeating ``R = O((ζm/F_G)·log(1/δ))`` independent instances
bounds the FAIL probability by δ.

``SamplerPool`` implements the paper's O(1)-update-time data structure: a
shared hash table mapping each currently tracked item to a running
occurrence count, with each instance holding only an *offset* into that
count; replacement times are drawn directly via skip-ahead jumps and kept
in a min-heap, so an update touches one counter plus an amortized-O(1)
number of heap events.
"""

from __future__ import annotations

import copy
import heapq
import math

import numpy as np

from repro.core.measures import Measure
from repro.core.rejection import rejection_many
from repro.core.reservoir import skip_next_replacement, skip_next_replacements
from repro.core.timeline import ChunkDigest, ShardView, simulate_events
from repro.core.types import SampleResult, as_item_array
from repro.lifecycle.memory import (
    INSTANCE_BYTES,
    RNG_STATE_BYTES,
    mapping_bytes,
    sequence_bytes,
)
from repro.lifecycle.protocol import StaticLifecycleMixin
from repro.obs.catalog import CATALOG_HELP
from repro.obs.metrics import current_registry

__all__ = ["SingleGSampler", "SamplerPool", "TrulyPerfectGSampler"]


class SingleGSampler:
    """One literal instance of Algorithm 2 (reference implementation).

    Kept deliberately naive — one coin per update — as the ground truth the
    optimized pool is tested against.
    """

    __slots__ = ("_measure", "_item", "_count", "_t", "_rng")

    def __init__(self, measure: Measure, seed: int | np.random.Generator | None = None) -> None:
        self._measure = measure
        self._item: int | None = None
        self._count = 0
        self._t = 0
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )

    @property
    def position(self) -> int:
        return self._t

    def update(self, item: int) -> None:
        self._t += 1
        if self._rng.random() < 1.0 / self._t:
            self._item = item
            self._count = 0
        if item == self._item:
            self._count += 1

    def extend(self, items) -> None:
        for item in items:
            self.update(item)

    def sample(self, zeta: float | None = None) -> SampleResult:
        """Run the rejection step; EMPTY on an empty stream."""
        if self._t == 0:
            return SampleResult.empty()
        if zeta is None:
            zeta = self._measure.zeta(None)
        weight = self._measure.increment(self._count)
        if weight > zeta * (1.0 + 1e-12):
            raise ValueError(
                f"invalid zeta {zeta}: increment at c={self._count} is {weight}"
            )
        if self._rng.random() < weight / zeta:
            return SampleResult.of(self._item, count=self._count, zeta=zeta)
        return SampleResult.fail()


class SamplerPool(StaticLifecycleMixin):
    """``R`` parallel Algorithm-1 instances with shared counters.

    State per instance: ``(item, offset, timestamp, next replacement
    time)``.  Shared: ``counts[i]`` — occurrences of item ``i`` since it
    was first adopted by any instance; ``refs[i]`` — how many instances
    hold ``i``.  The final forward count of an instance is
    ``counts[item] − offset`` (≥ 1, includes its sampled occurrence).
    """

    #: The engine may pass a shared whole-chunk ChunkDigest to
    #: :meth:`update_batch` (see :func:`repro.engine.batch.ingest`).
    accepts_digest = True
    #: :meth:`update_batch` also consumes position views of a shared
    #: indexed chunk (:class:`~repro.core.timeline.ShardView`) — the
    #: sharded engine's zero-materialization ingest path.
    accepts_index = True
    #: :meth:`merge` folds any number of pools in one pass
    #: (see :func:`repro.engine.state.merged`).
    merges_many = True

    __slots__ = ("_r", "_items", "_offsets", "_timestamps", "_heap", "_counts",
                 "_refs", "_t", "_rng", "_heap_events", "_settle_scans",
                 "_m_heap_events", "_m_settle_scans")

    def __init__(self, instances: int, seed: int | np.random.Generator | None = None) -> None:
        if instances < 1:
            raise ValueError(f"need at least one instance, got {instances}")
        self._r = instances
        self._items: list[int | None] = [None] * instances
        self._offsets = [0] * instances
        self._timestamps = [0] * instances
        # Every instance replaces at position 1.
        self._heap: list[tuple[int, int]] = [(1, idx) for idx in range(instances)]
        heapq.heapify(self._heap)
        self._counts: dict[int, int] = {}
        self._refs: dict[int, int] = {}
        self._t = 0
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        self._heap_events = 0
        self._settle_scans = 0
        registry = current_registry()
        self._m_heap_events = registry.counter(
            "repro_ingest_heap_events_total",
            CATALOG_HELP["repro_ingest_heap_events_total"],
        )
        self._m_settle_scans = registry.counter(
            "repro_ingest_settle_scans_total",
            CATALOG_HELP["repro_ingest_settle_scans_total"],
        )

    def __deepcopy__(self, memo) -> "SamplerPool":
        """Copy the containers (their leaves are immutable ints and
        tuples) and the RNG state — a fold's clone without the generic
        per-element recursion.  Honors ``memo``, so a wrapper holding the
        same generator as its pool still shares one copied generator;
        metric instruments stay shared, as in every sampler copy."""
        clone = copy.copy(self)
        memo[id(self)] = clone
        clone._items = list(self._items)
        clone._offsets = list(self._offsets)
        clone._timestamps = list(self._timestamps)
        clone._heap = list(self._heap)
        clone._counts = dict(self._counts)
        clone._refs = dict(self._refs)
        rng = memo.get(id(self._rng))
        if rng is None:
            bits = self._rng.bit_generator
            twin = type(bits)(0)
            twin.state = bits.state
            rng = memo[id(self._rng)] = np.random.Generator(twin)
        clone._rng = rng
        return clone

    @property
    def instances(self) -> int:
        return self._r

    @property
    def position(self) -> int:
        return self._t

    @property
    def tracked_items(self) -> int:
        """Number of distinct items currently referenced (space accounting)."""
        return len(self._counts)

    @property
    def heap_events(self) -> int:
        """Total replacements processed — O(R log m) in expectation."""
        return self._heap_events

    @property
    def settle_scans(self) -> int:
        """Full-chunk position scans taken by the batched kernel — the
        only data-dependent work that is not O(1) per heap event.
        Diagnostic, not state: excluded from snapshots so batch- and
        scalar-built pools stay bitwise comparable."""
        return self._settle_scans

    def approx_size_bytes(self) -> int:
        """Approximate resident bytes: per-instance slots, the heap, and
        the shared counter tables (see :mod:`repro.lifecycle.memory`)."""
        return (
            INSTANCE_BYTES
            + RNG_STATE_BYTES
            + 3 * sequence_bytes(self._r)  # items / offsets / timestamps
            + sequence_bytes(len(self._heap)) + 72 * len(self._heap)  # 2-tuples
            + mapping_bytes(len(self._counts))
            + mapping_bytes(len(self._refs))
        )

    def replacement_positions(self) -> list[int]:
        """Per-instance position (1-based) of the currently sampled
        occurrence — the third component of :meth:`finalize`, exposed
        separately so wrappers (the time-window samplers) can map
        positions to wall-clock timestamps right after an ingest step."""
        return list(self._timestamps)

    def update(self, item: int) -> None:
        self._t += 1
        t = self._t
        heap = self._heap
        while heap and heap[0][0] == t:
            __, idx = heapq.heappop(heap)
            self._heap_events += 1
            old = self._items[idx]
            if old is not None:
                self._refs[old] -= 1
                if self._refs[old] == 0:
                    del self._refs[old]
                    del self._counts[old]
            self._items[idx] = item
            if item in self._refs:
                self._refs[item] += 1
            else:
                self._refs[item] = 1
                self._counts.setdefault(item, 0)
            self._offsets[idx] = self._counts[item]
            self._timestamps[idx] = t
            heapq.heappush(heap, (skip_next_replacement(t, self._rng), idx))
        if item in self._counts:
            self._counts[item] += 1

    def extend(self, items) -> None:
        """Delegates to :meth:`update_batch` (bitwise identical to the
        scalar loop for a fixed seed)."""
        self.update_batch(as_item_array(items))

    def update_batch(self, items, digest: ChunkDigest | None = None) -> None:
        """Timeline-precomputed ingestion of a whole chunk of items.

        The heap-event schedule is *data-independent* — an instance's
        next replacement time depends only on the stream position and
        the RNG — so phase 1 (:func:`repro.core.timeline.simulate_events`)
        replays the entire pop order for the chunk up front, drawing the
        skip-ahead jumps in exactly the scalar order.  Phase 2 applies
        the data: one vectorized gather fetches the item at every event
        position, shared-counter settles become binary searches on lazily
        built per-item position indexes (at most one full-chunk scan per
        settled item), and the end-of-chunk flush counts every untouched
        tracked item in one ``bincount``/``searchsorted`` pass — or in
        O(1) dict lookups when the caller supplies a shared
        :class:`~repro.core.timeline.ChunkDigest`.  For a fixed seed the
        post-batch state is *bitwise identical* to the scalar
        ``update()`` loop.

        ``digest`` must report, for every item tracked by this pool or
        present in ``items``, the exact occurrence count of that item in
        ``items`` (the sharded engine's whole-batch digest qualifies
        because a value partition routes all of an item's occurrences to
        one shard).

        ``items`` may also be a :class:`~repro.core.timeline.ShardView`
        — this pool's positions in a larger indexed chunk.  That path
        (same bitwise contract) does O(events) work: every settle and
        flush count is answered by the shared position index, and the
        subchunk is never materialized.
        """
        if isinstance(items, ShardView):
            self._update_batch_view(items)
            return
        arr = np.ascontiguousarray(np.asarray(items, dtype=np.int64))
        if arr.ndim != 1:
            raise ValueError("update_batch expects a 1-d sequence of items")
        length = int(arr.size)
        if length == 0:
            return
        t0 = self._t
        end = t0 + length
        counts = self._counts
        refs = self._refs
        # accrued[i]: chunk offset up to which occurrences of i are
        # already reflected in counts[i]; ranks[i]: occurrences of i at
        # offsets < accrued[i] (a cursor into the position index, so
        # successive settles of one item cost binary searches, not a
        # rescan).
        accrued = dict.fromkeys(counts, 0)
        ranks: dict[int, int] = {}
        positions: dict[int, np.ndarray] = {}
        scans = 0

        # Phase 1 — the data-independent timeline: pop order, event
        # positions, instance ids, and next wakeups, with batched draws.
        ev_times, ev_slots = simulate_events(
            self._heap, end, self._rng, expect=2 * self._r
        )
        nev = len(ev_times)
        if nev:
            self._heap_events += nev
            # Phase 2 — apply the data: which item sits at each event.
            ev_offs_np = np.asarray(ev_times, dtype=np.int64)
            ev_offs_np -= t0 + 1  # chunk offsets of the replacement positions
            ev_items_np = arr[ev_offs_np]
            ev_items = ev_items_np.tolist()
            ev_offs = ev_offs_np.tolist()
            # Every mid-chunk settle bound is an event offset, so position
            # indexes only ever need the chunk prefix up to the last event
            # (event times pop in nondecreasing order).
            off_last = ev_offs[-1] + 1
            prefix = arr[:off_last]
            # Candidate items a settle can touch: everything tracked on
            # entry (all slot occupants are tracked) plus the event items.
            n_tracked = len(counts)
            if n_tracked:
                cand = np.unique(
                    np.concatenate(
                        (
                            np.fromiter(
                                counts.keys(), dtype=np.int64, count=n_tracked
                            ),
                            ev_items_np,
                        )
                    )
                )
            else:
                cand = np.unique(ev_items_np)
            # Fast path: when every value in play fits a 16-bit table, all
            # settle ranks are precomputed in one vectorized pass and the
            # event loop below degenerates to dict arithmetic.
            fast = (
                cand.size <= 0xFFFF
                and int(cand[0]) >= 0
                and int(cand[-1]) <= 0xFFFF
                and int(prefix.min()) >= 0
                and int(prefix.max()) <= 0xFFFF
            )
            slots = self._items
            offsets = self._offsets
            timestamps = self._timestamps
            if fast:
                # One combined position-index pass: group every candidate
                # occurrence in the prefix by candidate id.
                lut = np.full(1 << 16, -1, dtype=np.int32)
                lut[cand] = np.arange(cand.size, dtype=np.int32)
                ci = lut[prefix]
                hit = np.flatnonzero(ci >= 0)
                cid = ci[hit]
                horder = np.argsort(cid.astype(np.uint16), kind="stable")
                gpos = hit[horder]
                gcid = cid[horder].astype(np.int64)
                starts = np.zeros(cand.size + 1, dtype=np.int64)
                np.cumsum(np.bincount(cid, minlength=cand.size), out=starts[1:])
                # Previous occupant of each event's slot (the item a
                # settle targets), recovered without running the loop:
                # within a slot, it is the prior event's item; for a
                # slot's first event, the pre-chunk occupant.
                ev_slots_np = np.asarray(ev_slots, dtype=np.int64)
                sarg = (
                    np.argsort(ev_slots_np.astype(np.uint16), kind="stable")
                    if self._r <= 0xFFFF
                    else np.argsort(ev_slots_np, kind="stable")
                )
                ss = ev_slots_np[sarg]
                sit = ev_items_np[sarg]
                prev_sorted = np.empty(nev, dtype=np.int64)
                prev_sorted[1:] = sit[:-1]
                firsts = np.empty(nev, dtype=bool)
                firsts[0] = True
                np.not_equal(ss[1:], ss[:-1], out=firsts[1:])
                # Empty slots never settle; any in-range stand-in works.
                stand_in = int(cand[0])
                init_vals = np.fromiter(
                    (stand_in if x is None else x for x in slots),
                    dtype=np.int64,
                    count=self._r,
                )
                prev_sorted[firsts] = init_vals[ss[firsts]]
                old_vals = np.empty(nev, dtype=np.int64)
                old_vals[sarg] = prev_sorted
                # Each settle bound is an event offset, so every rank the
                # loop can ask for — outgoing occupant and adopted item,
                # at that event's offset — is one encoded searchsorted:
                # candidate groups are disjoint blocks of the key space.
                qi = lut[np.concatenate((old_vals, ev_items_np))].astype(np.int64)
                stride = np.int64(off_last + 1)
                gkey = gcid * stride
                gkey += gpos
                qkey = qi * stride
                qkey[:nev] += ev_offs_np
                qkey[nev:] += ev_offs_np
                qrank = gkey.searchsorted(qkey)
                qrank -= starts[qi]
                old_rank = qrank[:nev].tolist()
                new_rank = qrank[nev:].tolist()
                scans += 1
                for item in counts:
                    ranks[item] = 0
                for j in range(nev):
                    time = ev_times[j]
                    off = ev_offs[j]
                    item = ev_items[j]
                    idx = ev_slots[j]
                    old = slots[idx]
                    if old is not None:
                        if refs[old] == 1:
                            # Last holder: the shared counter dies with it.
                            del refs[old]
                            del counts[old]
                            del accrued[old]
                            del ranks[old]
                        else:
                            if accrued[old] < off:
                                r1 = old_rank[j]
                                r0 = ranks[old]
                                if r1 > r0:
                                    counts[old] += r1 - r0
                                ranks[old] = r1
                                accrued[old] = off
                            refs[old] -= 1
                    slots[idx] = item
                    if item in refs:
                        refs[item] += 1
                        if accrued[item] < off:
                            r1 = new_rank[j]
                            r0 = ranks[item]
                            if r1 > r0:
                                counts[item] += r1 - r0
                            ranks[item] = r1
                            accrued[item] = off
                    else:
                        refs[item] = 1
                        counts[item] = 0
                        accrued[item] = off  # the occurrence at `off` accrues later
                        ranks[item] = new_rank[j]
                    offsets[idx] = counts[item]
                    timestamps[idx] = time
            else:
                # General path: lazily built per-item position indexes
                # (at most one prefix scan per settled item).
                def settle(item: int, upto: int) -> None:
                    nonlocal scans
                    start = accrued[item]
                    if start >= upto:
                        return
                    pos = positions.get(item)
                    if pos is None:
                        pos = np.flatnonzero(prefix == item)
                        positions[item] = pos
                        scans += 1
                    r0 = ranks.get(item)
                    if r0 is None:
                        r0 = pos.searchsorted(start) if start else 0
                    r1 = pos.searchsorted(upto)
                    if r1 > r0:
                        counts[item] += int(r1 - r0)
                    ranks[item] = r1
                    accrued[item] = upto

                for j in range(nev):
                    time = ev_times[j]
                    off = ev_offs[j]
                    item = ev_items[j]
                    idx = ev_slots[j]
                    old = slots[idx]
                    if old is not None:
                        if refs[old] == 1:
                            # Last holder: the shared counter dies with it, so
                            # the settle (and its occurrence scan) is skipped.
                            del refs[old]
                            del counts[old]
                            del accrued[old]
                            ranks.pop(old, None)
                        else:
                            settle(old, off)
                            refs[old] -= 1
                    slots[idx] = item
                    if item in refs:
                        refs[item] += 1
                        settle(item, off)
                    else:
                        refs[item] = 1
                        counts[item] = 0
                        accrued[item] = off  # the occurrence at `off` accrues later
                        ranks.pop(item, None)
                    offsets[idx] = counts[item]
                    timestamps[idx] = time
        # Final flush: every tracked item still owes its occurrences from
        # accrued (0 for items no event touched — the common case in
        # steady state) to the end of the chunk.  Whole-chunk totals come
        # from the shared digest when one is supplied, else from one
        # bincount pass (or a searchsorted pass when the universe is too
        # large to bincount); partially settled items subtract their
        # position-index rank at `accrued` instead of rescanning.
        whole: list[int] = []
        partial: list[int] = []
        for item, a in accrued.items():
            (whole if a == 0 else partial).append(item)
        if whole or partial:
            if digest is not None:
                count_of = digest.count
            else:
                top = int(arr.max())
                if 0 <= int(arr.min()) and top < max(1 << 20, 4 * length):
                    occ_all = np.bincount(arr, minlength=top + 1)

                    def count_of(item: int) -> int:
                        # Items adopted in earlier chunks may lie outside
                        # this chunk's value range.
                        return int(occ_all[item]) if 0 <= item <= top else 0

                else:
                    tracked = np.array(whole + partial, dtype=np.int64)
                    tracked.sort()
                    slot = tracked.searchsorted(arr)
                    np.minimum(slot, tracked.size - 1, out=slot)
                    occ = np.bincount(
                        slot[tracked[slot] == arr], minlength=tracked.size
                    )
                    table = {
                        item: int(occ[j])
                        for j, item in enumerate(tracked.tolist())
                    }

                    def count_of(item: int) -> int:
                        return table.get(item, 0)

            for item in whole:
                hits = count_of(item)
                if hits:
                    counts[item] += hits
            for item in partial:
                a = accrued[item]
                r0 = ranks.get(item)
                if r0 is None:
                    pos = positions.get(item)
                    if pos is None:
                        pos = np.flatnonzero(prefix == item)
                        positions[item] = pos
                        scans += 1
                    r0 = pos.searchsorted(a) if a else 0
                hits = count_of(item) - int(r0)
                if hits:
                    counts[item] += hits
        self._t = end
        if scans:
            self._settle_scans += scans
            self._m_settle_scans.add(scans)
        if nev:
            self._m_heap_events.add(nev)

    def _update_batch_view(self, view: ShardView) -> None:
        """Ingest this pool's positions of a shared indexed chunk.

        Identical two-phase structure to the array path, but every
        occurrence-count question — the settle ranks at event offsets
        and the end-of-chunk flush — is answered by the chunk-wide
        position index (``view.index.rank_many``), so the per-call cost
        is O(events · log), independent of the subchunk length.

        The trick that makes global answers locally correct: the value
        partition routes *all* occurrences of an owned item into
        ``view.positions``, so a global prefix rank at an owned position
        is the local one plus a constant (the occurrences before the
        view).  Every rank this kernel uses is a *difference* of two
        global ranks at bounds inside the view, so the constant cancels
        — ``ranks[item]`` holds global ranks throughout, seeded at the
        view's start bound for items tracked on entry.

        When the engine already hoisted phase 1 (``plan_batch``) the
        view carries the event schedule and no simulation happens here.
        """
        length = view.size
        if length == 0:
            return
        t0 = self._t
        end = t0 + length
        counts = self._counts
        refs = self._refs
        index = view.index
        base_pos = view.positions
        scans = 0

        if view.events is not None:
            ev_times, ev_slots = view.events
        else:
            ev_times, ev_slots = simulate_events(
                self._heap, end, self._rng, expect=2 * self._r
            )
        nev = len(ev_times)

        # ranks[i]: global prefix rank of i at the offset up to which
        # counts[i] is settled.  The ownership contract (see ShardView)
        # puts every occurrence of a tracked item inside the view, so
        # the settled rank of an untouched item is 0 — no seeding pass.
        ranks: dict[int, int] = dict.fromkeys(counts, 0)
        accrued = dict.fromkeys(counts, 0)

        if nev:
            self._heap_events += nev
            ev_offs_np = np.asarray(ev_times, dtype=np.int64)
            ev_offs_np -= t0 + 1  # view-local offsets of the events
            gpos = base_pos[ev_offs_np]  # global positions of the events
            ev_items_np = view.base[gpos]
            ev_items = ev_items_np.tolist()
            ev_offs = ev_offs_np.tolist()
            slots = self._items
            offsets = self._offsets
            timestamps = self._timestamps
            # Previous occupant of each event's slot, recovered without
            # running the loop (same recurrence as the array fast path).
            ev_slots_np = np.asarray(ev_slots, dtype=np.int64)
            sarg = (
                np.argsort(ev_slots_np.astype(np.uint16), kind="stable")
                if self._r <= 0xFFFF
                else np.argsort(ev_slots_np, kind="stable")
            )
            ss = ev_slots_np[sarg]
            sit = ev_items_np[sarg]
            prev_sorted = np.empty(nev, dtype=np.int64)
            prev_sorted[1:] = sit[:-1]
            firsts = np.empty(nev, dtype=bool)
            firsts[0] = True
            np.not_equal(ss[1:], ss[:-1], out=firsts[1:])
            # Empty slots never settle; -1 ranks as 0 and is unused.
            init_vals = np.fromiter(
                (-1 if x is None else x for x in slots),
                dtype=np.int64,
                count=self._r,
            )
            prev_sorted[firsts] = init_vals[ss[firsts]]
            old_vals = np.empty(nev, dtype=np.int64)
            old_vals[sarg] = prev_sorted
            qrank = index.rank_many(
                np.concatenate((old_vals, ev_items_np)),
                np.concatenate((gpos, gpos)),
            )
            old_rank = qrank[:nev].tolist()
            new_rank = qrank[nev:].tolist()
            scans += 1
            for j in range(nev):
                time = ev_times[j]
                off = ev_offs[j]
                item = ev_items[j]
                idx = ev_slots[j]
                old = slots[idx]
                if old is not None:
                    if refs[old] == 1:
                        # Last holder: the shared counter dies with it.
                        del refs[old]
                        del counts[old]
                        del accrued[old]
                        del ranks[old]
                    else:
                        if accrued[old] < off:
                            r1 = old_rank[j]
                            r0 = ranks[old]
                            if r1 > r0:
                                counts[old] += r1 - r0
                            ranks[old] = r1
                            accrued[old] = off
                        refs[old] -= 1
                slots[idx] = item
                if item in refs:
                    refs[item] += 1
                    if accrued[item] < off:
                        r1 = new_rank[j]
                        r0 = ranks[item]
                        if r1 > r0:
                            counts[item] += r1 - r0
                        ranks[item] = r1
                        accrued[item] = off
                else:
                    refs[item] = 1
                    counts[item] = 0
                    accrued[item] = off  # the occurrence at `off` accrues later
                    ranks[item] = new_rank[j]
                offsets[idx] = counts[item]
                timestamps[idx] = time
        # Flush: owed occurrences of item = whole-batch total (the
        # histogram gather — an owned item's global count is its shard
        # count) minus the settled global rank — uniform for touched and
        # untouched items alike.
        if counts:
            titems = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
            tot = index.totals(titems)
            scans += 1
            for item, t in zip(titems.tolist(), tot.tolist()):
                hits = t - ranks[item]
                if hits:
                    counts[item] += hits
        self._t = end
        if scans:
            self._settle_scans += scans
            self._m_settle_scans.add(scans)
        if nev:
            self._m_heap_events.add(nev)

    def tracked_values(self) -> np.ndarray:
        """The items this pool currently tracks (shared-counter keys) —
        the engine's candidate seed for the shared position index."""
        return np.fromiter(
            self._counts.keys(), dtype=np.int64, count=len(self._counts)
        )

    def plan_batch(self, length: int) -> tuple[list[int], list[int]]:
        """Hoisted phase 1: advance the heap and the RNG through the
        event schedule of the next ``length`` items and return
        ``(times, slots)``.

        Engine-internal protocol: a plan MUST be followed by exactly one
        ``update_batch`` of a :class:`~repro.core.timeline.ShardView` of
        the same length carrying these events — the heap and RNG have
        already moved, only the data application is pending.  Chunked
        and whole-batch simulation are bitwise identical (same pop
        order, same draws), so hoisting preserves the scalar-parity
        contract.
        """
        return simulate_events(
            self._heap, self._t + length, self._rng, expect=2 * self._r
        )

    def snapshot(self) -> dict:
        """Checkpoint the full pool state as a dict of arrays + scalars.

        The layout is plain (NumPy arrays, ints, and the RNG state dict)
        so :mod:`repro.engine.state` can serialize it to bytes without
        pickling.  Includes the RNG state: a restored pool continues the
        stream bitwise-identically.
        """
        heap = sorted(self._heap)
        n_tracked = len(self._counts)
        return {
            "kind": "sampler_pool",
            "instances": self._r,
            "position": self._t,
            "heap_events": self._heap_events,
            "items": np.array(
                [-1 if x is None else x for x in self._items], dtype=np.int64
            ),
            # Empty slots, explicitly: the -1 placeholder in "items" is
            # ambiguous once negative item ids flow (they are legal), so
            # restore consults this mask when present.
            "items_live": np.array(
                [0 if x is None else 1 for x in self._items], dtype=np.int64
            ),
            "offsets": np.asarray(self._offsets, dtype=np.int64),
            "timestamps": np.asarray(self._timestamps, dtype=np.int64),
            "heap_times": np.array([h[0] for h in heap], dtype=np.int64),
            "heap_slots": np.array([h[1] for h in heap], dtype=np.int64),
            "count_keys": np.fromiter(self._counts.keys(), dtype=np.int64, count=n_tracked),
            "count_vals": np.fromiter(self._counts.values(), dtype=np.int64, count=n_tracked),
            "ref_keys": np.fromiter(self._refs.keys(), dtype=np.int64, count=len(self._refs)),
            "ref_vals": np.fromiter(self._refs.values(), dtype=np.int64, count=len(self._refs)),
            "rng_state": self._rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        """Overwrite this pool's state from a :meth:`snapshot` dict."""
        if state.get("kind") != "sampler_pool":
            raise ValueError(f"not a sampler_pool snapshot: {state.get('kind')!r}")
        self._r = int(state["instances"])
        self._t = int(state["position"])
        self._heap_events = int(state["heap_events"])
        live = state.get("items_live")
        if live is not None:
            self._items = [
                int(x) if keep else None
                for x, keep in zip(state["items"], live)
            ]
        else:
            # Legacy snapshots (no liveness mask) used -1 as the only
            # empty marker; negative ids were unrepresentable there.
            self._items = [None if x < 0 else int(x) for x in state["items"]]
        self._offsets = [int(x) for x in state["offsets"]]
        self._timestamps = [int(x) for x in state["timestamps"]]
        heap = [
            (int(t), int(i))
            for t, i in zip(state["heap_times"], state["heap_slots"])
        ]
        heapq.heapify(heap)
        self._heap = heap
        self._counts = {
            int(k): int(v) for k, v in zip(state["count_keys"], state["count_vals"])
        }
        self._refs = {
            int(k): int(v) for k, v in zip(state["ref_keys"], state["ref_vals"])
        }
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng_state"]
        self._rng = rng

    @classmethod
    def from_snapshot(cls, state: dict) -> "SamplerPool":
        pool = cls(int(state["instances"]))
        pool.restore(state)
        return pool

    def merge(self, *others: "SamplerPool") -> list[bool]:
        """Absorb pools that each ingested a *disjoint* partition of the
        universe (no item may occur in two substreams — a hash partition
        guarantees this; overlapping supports silently break the
        forward-count semantics).

        The fold is the left-to-right sequence of pairwise steps: at
        each non-empty input of length ``m₂``, merged instance ``k``
        keeps the running fold's ``k``-th instance with probability
        ``m₁/(m₁+m₂)``, else adopts the input's — i.e. a uniform position
        over the concatenated stream.  Because item supports are
        disjoint, a kept instance's forward count in its own substream
        *is* its forward count in any interleaving, so the merged pool is
        distributed exactly as one pool run over the concatenation (the
        mergeability behind the sharded engine).  Replacement times are
        redrawn at the merged length — valid since a reservoir's
        next-replacement law depends only on its position.

        The steps run as one pass: each instance ends on the last input
        that adopted it (one vectorized pass over a block of keep-coins),
        and its count is its picked count (counts take the max, offsets
        are max − count), so only the ``R`` picked entries are read and
        the shared tables and the heap are built once.  The RNG draws are
        the pairwise steps' — per non-empty input, ``R`` keep-coins when
        ``m₁ > 0``, then ``R`` jumps of which only the last step's are
        kept — so ``merge(a, b)`` is bitwise ``merge(a)`` then
        ``merge(b)``.  Inputs at position 0 are skipped without a draw.

        Returns the per-instance pick mask (``True`` where this pool's
        own instance survived the whole fold) so wrappers carrying
        side-channel per-instance state (e.g. wall-clock adoption times)
        can merge it consistently.
        """
        for other in others:
            if not isinstance(other, SamplerPool):
                raise TypeError(
                    f"cannot merge SamplerPool with {type(other).__name__}"
                )
            if other._r != self._r:
                raise ValueError(
                    f"instance counts differ: {self._r} vs {other._r}"
                )
        r = self._r
        steps = [other for other in others if other._t > 0]
        if not steps:
            return [True] * r
        # One row per pool that holds a stream, this one first; row i
        # sits after the ``starts[i]`` positions folded before it.
        pools = ([self] if self._t > 0 else []) + steps
        starts = [0]
        for pool in pools:
            starts.append(starts[-1] + pool._t)
        total = starts.pop()
        # The pairwise steps' draws: R jumps per step, each preceded by R
        # keep-coins unless the fold so far is empty — so row i ≥ 1 draws
        # coins, and a leading empty fold does not.  All but the last
        # step's jumps come as one block; those are drawn last, before
        # any state moves.
        lead = r if self._t == 0 else 0
        n = len(pools) - 1
        drawn = self._rng.random(lead + 2 * r * n - r)
        coins = drawn[lead + 2 * r * np.arange(n).reshape(-1, 1) + np.arange(r)]
        jumps = skip_next_replacements([total] * r, self._rng)
        thresholds = [
            starts[i] / (starts[i] + pools[i]._t) for i in range(1, len(pools))
        ]
        # adopt[i, k]: row i's instance k replaced the fold's (row 0 is
        # the base).  Each instance ends on the last row that adopted it.
        adopt = np.ones((len(pools), r), dtype=bool)
        adopt[1:] = coins >= np.array(thresholds).reshape(-1, 1)
        src = (len(pools) - 1 - np.argmax(adopt[::-1], axis=0)).tolist()
        heap = list(zip(jumps, range(r)))
        heapq.heapify(heap)
        # Gather the R picks; the shared tables fill in first-occurrence
        # instance order (the order the snapshot's keys serialize in).
        items, picked, stamps = [], [], []
        counts: dict[int, int] = {}
        refs: dict[int, int] = {}
        for k, row in enumerate(src):
            pool = pools[row]
            item = pool._items[k]
            count = pool._counts[item] - pool._offsets[k]
            items.append(item)
            picked.append(count)
            stamps.append(starts[row] + pool._timestamps[k])
            refs[item] = refs.get(item, 0) + 1
            counts[item] = max(counts.get(item, 0), count)
        kept = [row == 0 and self._t > 0 for row in src]
        self._items = items
        self._offsets = [counts[item] - count for item, count in zip(items, picked)]
        self._timestamps = stamps
        self._counts = counts
        self._refs = refs
        self._t = total
        self._heap = heap
        self._heap_events += sum(other._heap_events for other in steps)
        return kept

    def finalize(self) -> list[tuple[int, int, int]]:
        """Per-instance ``(item, count, timestamp)`` triples.

        ``count`` includes the sampled occurrence (≥ 1).  Empty when the
        stream was empty.
        """
        if self._t == 0:
            return []
        out = []
        for idx in range(self._r):
            item = self._items[idx]
            count = self._counts[item] - self._offsets[idx]
            out.append((item, count, self._timestamps[idx]))
        return out


class TrulyPerfectGSampler(StaticLifecycleMixin):
    """Truly perfect G-sampler for insertion-only streams (Theorem 3.1).

    Parameters
    ----------
    measure:
        The measure ``G``; must have globally bounded increments
        (``measure.zeta(None)`` must not raise).  Lp with ``p > 1`` needs
        the Misra-Gries normalizer — use
        :class:`repro.core.lp_sampler.TrulyPerfectLpSampler`.
    instances:
        Explicit pool size ``R``; default sizes the pool from the
        certified ``F_G`` lower bound to reach FAIL probability ≤ δ.
    delta:
        FAIL probability target when ``instances`` is not given.
    m_hint:
        Expected stream length, used only to size the pool for measures
        whose certified acceptance bound depends on ``m`` (concave
        measures); over-estimates are safe.

    Notes
    -----
    Every downstream guarantee is *distributional*: conditioned on the
    sampler returning an index, that index is exactly ``G(f_i)/F_G``
    distributed, with zero additive error — including when ``instances``
    is too small (only the FAIL rate suffers).
    """

    #: The engine may pass a shared whole-chunk ChunkDigest to
    #: :meth:`update_batch` (see :func:`repro.engine.batch.ingest`).
    accepts_digest = True
    #: … or a :class:`~repro.core.timeline.ShardView` of a shared
    #: indexed chunk (forwarded to the pool untouched).
    accepts_index = True
    #: :meth:`merge` folds any number of samplers in one pass.
    merges_many = True

    def __init__(
        self,
        measure: Measure,
        instances: int | None = None,
        delta: float = 0.05,
        m_hint: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        self._measure = measure
        rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        if instances is None:
            instances = self.default_instances(measure, delta, m_hint)
        # Bound before ``_rng``, so a deep copy reaches the pool's cheap
        # generator copy first and resolves ``_rng`` through the memo.
        self._pool = SamplerPool(instances, rng)
        self._rng = rng
        self._delta = delta

    @staticmethod
    def default_instances(
        measure: Measure, delta: float = 0.05, m_hint: int | None = None
    ) -> int:
        """``R = ⌈ln(1/δ) / acceptance lower bound⌉`` (Theorem 3.1).

        The acceptance bound is ``F̂_G/(ζ·m)``; for convex measures it is
        independent of ``m``, for concave ones it degrades with ``m`` so a
        conservative default horizon of 10^6 is used when no hint is given.
        """
        zeta = measure.zeta(None)  # raises for measures needing ‖f‖∞
        m = m_hint if m_hint is not None else 10**6
        acceptance = measure.fg_lower_bound(m) / (zeta * m)
        if acceptance <= 0:
            raise ValueError(f"measure {measure.name} certifies no acceptance bound")
        return max(1, math.ceil(math.log(1.0 / delta) / acceptance))

    @property
    def measure(self) -> Measure:
        return self._measure

    @property
    def instances(self) -> int:
        return self._pool.instances

    @property
    def position(self) -> int:
        return self._pool.position

    @property
    def space_words(self) -> int:
        """Machine words of sampler state: 4 per instance + 2 per tracked
        item (the paper counts bits; we count words)."""
        return 4 * self._pool.instances + 2 * self._pool.tracked_items

    def approx_size_bytes(self) -> int:
        return INSTANCE_BYTES + self._pool.approx_size_bytes()

    def update(self, item: int) -> None:
        self._pool.update(item)

    def extend(self, items) -> None:
        self._pool.extend(items)

    def update_batch(self, items, digest: ChunkDigest | None = None) -> None:
        """Vectorized ingestion — see :meth:`SamplerPool.update_batch`."""
        self._pool.update_batch(items, digest=digest)

    def tracked_values(self) -> np.ndarray:
        """See :meth:`SamplerPool.tracked_values`."""
        return self._pool.tracked_values()

    def plan_batch(self, length: int) -> tuple[list[int], list[int]]:
        """See :meth:`SamplerPool.plan_batch` (engine-internal)."""
        return self._pool.plan_batch(length)

    def snapshot(self) -> dict:
        """Checkpoint pool + RNG state (the measure is construction-time
        configuration, not state — rebuild via the engine registry; its
        name is recorded so a mismatched restore fails loudly)."""
        return {
            "kind": "truly_perfect_g",
            "measure": self._measure.name,
            "delta": self._delta,
            "pool": self._pool.snapshot(),
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "truly_perfect_g":
            raise ValueError(f"not a truly_perfect_g snapshot: {state.get('kind')!r}")
        if state.get("measure") != self._measure.name:
            raise ValueError(
                f"snapshot is for measure {state.get('measure')!r}, sampler "
                f"has {self._measure.name!r}"
            )
        self._delta = float(state["delta"])
        self._pool.restore(state["pool"])
        self._rng = self._pool._rng

    def merge(self, *others: "TrulyPerfectGSampler") -> None:
        """Absorb samplers run over disjoint universe partitions.

        Exact under the same contract as :meth:`SamplerPool.merge` (one
        pass over all inputs, bitwise equal to merging them one at a
        time); every input must use the same measure, and all are
        checked before any state moves.
        """
        for other in others:
            if not isinstance(other, TrulyPerfectGSampler):
                raise TypeError(
                    f"cannot merge TrulyPerfectGSampler with {type(other).__name__}"
                )
            if type(other._measure) is not type(self._measure) or (
                other._measure.name != self._measure.name
            ):
                raise ValueError(
                    f"measures differ: {self._measure.name} vs {other._measure.name}"
                )
        self._pool.merge(*(other._pool for other in others))

    def _zeta(self) -> float:
        return self._measure.zeta(None)

    def sample(self) -> SampleResult:
        """Finalize all instances and return the first acceptor.

        Truly perfect: each instance's accepted index is exactly
        target-distributed and independent of *which* instances accept, so
        taking the first acceptor preserves the distribution.
        """
        finals = self._pool.finalize()
        if not finals:
            return SampleResult.empty()
        zeta = self._zeta()
        measure = self._measure
        # One vectorized batch of acceptance coins.
        coins = self._rng.random(len(finals))
        for (item, count, ts), coin in zip(finals, coins):
            weight = measure.increment(count)
            if weight > zeta * (1.0 + 1e-12):
                raise ValueError(
                    f"invalid zeta {zeta}: increment at c={count} is {weight}"
                )
            if coin < weight / zeta:
                return SampleResult.of(item, count=count, timestamp=ts, zeta=zeta)
        return SampleResult.fail(zeta=zeta)

    def sample_many(self, k: int) -> list[SampleResult]:
        """``k`` independent samples from one finalize + one batched coin
        block — bitwise identical to ``k`` back-to-back :meth:`sample`
        calls, amortizing the per-query instance scan."""
        finals = self._pool.finalize()
        if not finals:
            if k < 0:
                raise ValueError(f"need a non-negative draw count, got {k}")
            return [SampleResult.empty() for __ in range(k)]
        zeta = self._zeta()
        measure = self._measure
        weights = [measure.increment(c) for __, c, __ in finals]

        def make(j: int) -> SampleResult:
            item, count, ts = finals[j]
            return SampleResult.of(item, count=count, timestamp=ts, zeta=zeta)

        return rejection_many(
            self._rng,
            k,
            weights,
            zeta,
            make,
            lambda: SampleResult.fail(zeta=zeta),
            describe=lambda j: (
                f"invalid zeta {zeta}: increment at c={finals[j][1]} is "
                f"{weights[j]}"
            ),
        )

    def run(self, stream) -> SampleResult:
        """Convenience: replay a whole stream then sample."""
        self.extend(stream)
        return self.sample()
