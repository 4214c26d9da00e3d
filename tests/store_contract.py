"""The reusable behavioural contract every :class:`CacheStore` obeys.

One suite, every store: :mod:`test_store_contract` binds these tests
to the memory, file and SQLite stores, and any future implementation
(a distributed backend's store, say) gets the whole contract by
subclassing :class:`StoreContract` and filling in the factory hooks.

The hooks keep store-specific mechanics (how to corrupt an entry on
disk, how to reopen a store in a "fresh process") out of the tests
themselves; capabilities a store cannot offer (corrupting an
in-memory dict from outside, reopening a process-local store) are
declared via the ``supports_*`` flags and those tests skip.
"""

import math

import pytest

from repro.errors import ReproError
from repro.exec import EntryMeta, GCBudget, MemoryStore, collect
from repro.exec.lifecycle import merge_stores


class StoreContract:
    """Subclass per store kind; provide the hooks, inherit the tests."""

    #: the store survives close + reopen (``reopen`` hook available).
    supports_persistence = False
    #: entries can be corrupted behind the store's back
    #: (``corrupt_entry`` / ``write_version_mismatch`` hooks available).
    supports_corruption = False
    #: the store maintains per-entry hit counts.
    counts_hits = True
    #: ``stats.round_trips`` moves by exactly one per batched call.
    #: Retry wrappers re-issue a faulted batch, so the masking
    #: bindings relax this to "at least one, far fewer than one per
    #: entry".
    counts_round_trips_exactly = True

    # -- hooks -----------------------------------------------------------------

    def make_store(self, tmp_path):
        raise NotImplementedError

    def reopen(self, tmp_path):
        """A *new* store instance over the same persisted state."""
        raise NotImplementedError

    def corrupt_entry(self, store, tmp_path, fingerprint):
        """Make the stored blob for ``fingerprint`` unparsable."""
        raise NotImplementedError

    def write_version_mismatch(self, store, tmp_path, fingerprint):
        """Re-stamp the stored blob with a wrong schema version."""
        raise NotImplementedError

    @pytest.fixture
    def store(self, tmp_path):
        built = self.make_store(tmp_path)
        yield built
        built.close()

    # -- the blob-map contract -------------------------------------------------

    def test_roundtrip_and_len(self, store):
        assert store.load("fp1") is None
        store.persist("fp1", {"y": 1.5, "z": -2.0})
        store.persist("fp2", {"y": 0.25})
        assert store.load("fp1") == {"y": 1.5, "z": -2.0}
        assert len(store) == 2
        assert "fp1" in store and "missing" not in store
        assert store.stats.persists == 2
        assert store.stats.loads == 1

    def test_persist_overwrites(self, store):
        store.persist("fp", {"y": 1.0})
        store.persist("fp", {"y": 1.0})
        assert len(store) == 1
        assert store.load("fp") == {"y": 1.0}

    def test_discard_and_clear(self, store):
        store.persist("fp1", {"y": 1.0})
        store.persist("fp2", {"y": 2.0})
        assert store.discard("fp1") is True
        assert store.discard("fp1") is False
        assert len(store) == 1
        store.clear()
        assert len(store) == 0
        assert store.stats.invalidations == 2

    def test_items_iterates_everything(self, store):
        entries = {f"fp{i}": {"y": float(i)} for i in range(4)}
        for fingerprint, responses in entries.items():
            store.persist(fingerprint, responses)
        assert dict(store.items()) == entries

    def test_values_survive_bit_exactly(self, store):
        # Shortest-repr JSON roundtrips doubles exactly; the store
        # must preserve that (the cross-backend bit-identity contract
        # depends on it).
        values = {
            "tiny": 5e-324,
            "pi": math.pi,
            "third": 1.0 / 3.0,
            "big": 1.7976931348623157e308,
            "neg": -0.0,
        }
        store.persist("fp", values)
        loaded = store.load("fp")
        for name, value in values.items():
            assert loaded[name] == value
            assert math.copysign(1.0, loaded[name]) == math.copysign(
                1.0, value
            )

    def test_describe_names_the_store(self, store):
        assert store.describe()["store"] == store.name

    # -- metadata --------------------------------------------------------------

    def test_persist_stamps_metadata(self, store):
        store.persist("fp", {"y": 1.0})
        meta = store.entry_meta("fp")
        assert meta is not None
        assert meta.fingerprint == "fp"
        assert meta.created_at is not None
        assert meta.last_used_at is not None
        assert meta.last_used_at >= meta.created_at - 1e-6
        assert meta.size_bytes > 0
        assert store.entry_meta("absent") is None

    def test_entries_cover_every_fingerprint(self, store):
        for i in range(5):
            store.persist(f"fp{i}", {"y": float(i)})
        metas = {meta.fingerprint: meta for meta in store.entries()}
        assert sorted(metas) == [f"fp{i}" for i in range(5)]
        assert store.total_bytes() == sum(
            meta.size_bytes for meta in metas.values()
        )

    def test_load_refreshes_last_use(self, store):
        stamped = EntryMeta(
            fingerprint="fp", created_at=1000.0, last_used_at=1000.0
        )
        store.persist("fp", {"y": 1.0}, meta=stamped)
        before = store.entry_meta("fp")
        assert store.load("fp") == {"y": 1.0}
        after = store.entry_meta("fp")
        # The load happened *now*, far after the pinned 1970s stamp.
        assert after.last_used_at > before.last_used_at
        if self.counts_hits:
            assert after.hits == (before.hits or 0) + 1

    def test_persist_with_meta_preserves_provenance(self, store):
        # Export/merge ship entries with their history; a copied
        # entry must not look freshly created to TTL GC.
        meta = EntryMeta(
            fingerprint="fp",
            created_at=5000.0,
            last_used_at=6000.0,
            hits=7,
        )
        store.persist("fp", {"y": 1.0}, meta=meta)
        stored = store.entry_meta("fp")
        assert stored.created_at == pytest.approx(5000.0, abs=1.0)
        assert stored.last_used_at == pytest.approx(6000.0, abs=1.0)
        if self.counts_hits:
            assert stored.hits == 7

    def test_peek_reads_without_side_effects(self, store):
        stamped = EntryMeta(
            fingerprint="fp", created_at=1000.0, last_used_at=1000.0
        )
        store.persist("fp", {"y": 1.0}, meta=stamped)
        before = store.entry_meta("fp")
        loads_before = store.stats.loads
        assert store.peek("fp") == {"y": 1.0}
        assert store.peek("absent") is None
        after = store.entry_meta("fp")
        # No usage tracking: an inspected entry must not outlive a
        # genuinely hotter one under LRU GC.
        assert after.last_used_at == pytest.approx(
            before.last_used_at, abs=1.0
        )
        if self.counts_hits:
            assert after.hits == before.hits
        assert store.stats.loads == loads_before

    def test_peek_leaves_corrupt_entries_in_place(self, store, tmp_path):
        if not self.supports_corruption:
            pytest.skip("store state not reachable from outside")
        store.persist("fp", {"y": 1.0})
        self.corrupt_entry(store, tmp_path, "fp")
        assert store.peek("fp") is None
        # The evidence is still there for verify to report.
        assert len(store) == 1
        assert store.stats.invalidations == 0

    # -- single forms are one-entry batches ------------------------------------

    def test_load_is_a_one_entry_load_many(self, store):
        store.persist("fp", {"y": 1.0})
        for fingerprint in ("fp", "absent"):
            assert store.load(fingerprint) == store.load_many(
                [fingerprint]
            ).get(fingerprint)

    def test_single_calls_are_one_round_trip_each(self, store):
        for call in (
            lambda: store.persist("fp", {"y": 1.0}),
            lambda: store.load("fp"),
            lambda: store.load("absent"),
        ):
            before = store.stats.round_trips
            call()
            self._round_trip_delta(store, before)

    def test_persist_many_meta_preserves_provenance(self, store):
        meta = EntryMeta(
            fingerprint="old", created_at=5000.0, last_used_at=6000.0, hits=7
        )
        store.persist_many(
            [("old", {"y": 1.0}), ("new", {"y": 2.0})], meta={"old": meta}
        )
        old = store.entry_meta("old")
        assert old.created_at == pytest.approx(5000.0, abs=1.0)
        assert old.last_used_at == pytest.approx(6000.0, abs=1.0)
        # An entry the mapping does not name is stamped afresh.
        assert store.entry_meta("new").created_at > 1e9
        if self.counts_hits:
            assert old.hits == 7
            assert store.entry_meta("new").hits == 0

    # -- batched I/O (the amortized-substrate contract) ------------------------

    def _round_trip_delta(self, store, before):
        delta = store.stats.round_trips - before
        if self.counts_round_trips_exactly:
            assert delta == 1
        else:
            # A retry wrapper may re-issue the faulted batch, but the
            # cost must stay O(1) in the batch size.
            assert 1 <= delta <= 3

    def test_load_many_empty_touches_nothing(self, store):
        before = store.stats.round_trips
        assert store.load_many([]) == {}
        assert store.stats.round_trips == before
        assert store.stats.loads == 0

    def test_load_many_partial_hits_in_first_occurrence_order(self, store):
        store.persist("fp2", {"y": 2.0})
        store.persist("fp0", {"y": 0.0})
        found = store.load_many(["fp0", "absent", "fp2", "ghost"])
        # Misses are absent (never None); order follows the input.
        assert list(found) == ["fp0", "fp2"]
        assert found == {"fp0": {"y": 0.0}, "fp2": {"y": 2.0}}

    def test_load_many_collapses_duplicates(self, store):
        store.persist("fp", {"y": 1.0})
        before_hits = store.entry_meta("fp").hits or 0
        found = store.load_many(["fp", "fp", "fp"])
        assert found == {"fp": {"y": 1.0}}
        if self.counts_hits and self.counts_round_trips_exactly:
            # One lookup, not three.
            assert (store.entry_meta("fp").hits or 0) == before_hits + 1

    def test_load_many_is_one_round_trip(self, store):
        for i in range(4):
            store.persist(f"fp{i}", {"y": float(i)})
        before = store.stats.round_trips
        found = store.load_many([f"fp{i}" for i in range(4)])
        assert len(found) == 4
        self._round_trip_delta(store, before)

    def test_load_many_refreshes_usage_like_load(self, store):
        stamped = EntryMeta(
            fingerprint="fp", created_at=1000.0, last_used_at=1000.0
        )
        store.persist("fp", {"y": 1.0}, meta=stamped)
        before = store.entry_meta("fp")
        assert store.load_many(["fp"]) == {"fp": {"y": 1.0}}
        after = store.entry_meta("fp")
        assert after.last_used_at > before.last_used_at

    def test_persist_many_empty_touches_nothing(self, store):
        before = store.stats.round_trips
        store.persist_many([])
        assert store.stats.round_trips == before
        assert len(store) == 0

    def test_persist_many_is_one_round_trip(self, store):
        before = store.stats.round_trips
        store.persist_many(
            [(f"fp{i}", {"y": float(i)}) for i in range(3)]
        )
        self._round_trip_delta(store, before)
        assert store.load_many([f"fp{i}" for i in range(3)]) == {
            f"fp{i}": {"y": float(i)} for i in range(3)
        }

    def test_persist_many_duplicate_fingerprint_last_wins(self, store):
        store.persist_many(
            [("fp", {"y": 1.0}), ("other", {"y": 5.0}), ("fp", {"y": 2.0})]
        )
        assert len(store) == 2
        assert store.load("fp") == {"y": 2.0}

    def test_persist_many_entries_survive_reopen(self, store, tmp_path):
        if not self.supports_persistence:
            pytest.skip("process-local store")
        store.persist_many([("fp0", {"y": 0.5}), ("fp1", {"y": 1.5})])
        store.close()
        fresh = self.reopen(tmp_path)
        try:
            assert fresh.load_many(["fp0", "fp1"]) == {
                "fp0": {"y": 0.5},
                "fp1": {"y": 1.5},
            }
        finally:
            fresh.close()

    def test_load_many_skips_corrupt_entries(self, store, tmp_path):
        if not self.supports_corruption:
            pytest.skip("store state not reachable from outside")
        store.persist("good", {"y": 1.0})
        store.persist("bad", {"y": 2.0})
        self.corrupt_entry(store, tmp_path, "bad")
        assert store.load_many(["good", "bad"]) == {"good": {"y": 1.0}}

    # -- lifecycle hooks -------------------------------------------------------

    def test_verify_clean_store(self, store):
        for i in range(3):
            store.persist(f"fp{i}", {"y": float(i)})
        report = store.verify()
        assert report.clean
        assert report.scanned == 3 and report.valid == 3
        assert report.invalid == 0 and report.partials == 0
        assert report.total_bytes == store.total_bytes()

    def test_compact_runs_and_counts(self, store):
        store.persist("fp", {"y": 1.0})
        report = store.compact(grace_seconds=0.0)
        assert report.store == store.name
        assert store.stats.compactions == 1
        # Compaction never loses live entries.
        assert store.load("fp") == {"y": 1.0}

    def test_gc_count_budget_lru_order(self, store):
        for i in range(6):
            store.persist(
                f"fp{i}",
                {"y": float(i)},
                meta=EntryMeta(
                    fingerprint=f"fp{i}",
                    created_at=1000.0 + i,
                    last_used_at=1000.0 + i,
                ),
            )
        report = collect(store, GCBudget(max_entries=2, policy="lru"))
        assert report.evicted == 4 and report.budget_evicted == 4
        assert len(store) == 2
        assert "fp4" in store and "fp5" in store
        assert store.stats.gc_evictions == 4
        assert report.victims == [f"fp{i}" for i in range(4)]

    def test_gc_ttl(self, store):
        store.persist(
            "old",
            {"y": 1.0},
            meta=EntryMeta(fingerprint="old", created_at=1000.0),
        )
        store.persist("fresh", {"y": 2.0})
        report = collect(
            store, GCBudget(max_age_seconds=3600.0)
        )
        assert report.ttl_evicted == 1
        assert "old" not in store and "fresh" in store

    def test_gc_byte_budget(self, store):
        for i in range(8):
            store.persist(f"fp{i}", {"y": float(i), "pad": 1.0 / 3.0})
        cap = store.total_bytes() // 2
        report = collect(store, GCBudget(max_bytes=cap))
        assert report.evicted > 0
        assert store.total_bytes() <= cap
        assert report.bytes_after == store.total_bytes()

    def test_gc_dry_run_touches_nothing(self, store):
        for i in range(4):
            store.persist(f"fp{i}", {"y": float(i)})
        report = collect(store, GCBudget(max_entries=1), dry_run=True)
        assert report.dry_run and report.evicted == 3
        assert len(report.victims) == 3
        assert len(store) == 4
        assert store.stats.gc_evictions == 0

    def test_gc_unbounded_budget_is_noop(self, store):
        store.persist("fp", {"y": 1.0})
        report = collect(store, GCBudget())
        assert report.evicted == 0 and len(store) == 1

    def test_gc_unknown_policy_rejected(self, store):
        store.persist("fp", {"y": 1.0})
        with pytest.raises(ReproError):
            collect(store, GCBudget(max_entries=1, policy="mystery"))

    def test_merge_into_and_from_memory(self, store):
        # Export into a scratch store, wipe, merge back: a full
        # shipping round trip preserving payloads and provenance.
        for i in range(3):
            store.persist(
                f"fp{i}",
                {"y": float(i)},
                meta=EntryMeta(fingerprint=f"fp{i}", created_at=2000.0 + i),
            )
        scratch = MemoryStore()
        report = store.export_to(scratch)
        assert report.copied == 3 and report.skipped == 0
        store.clear()
        back = store.merge_from(scratch)
        assert back.copied == 3
        assert dict(store.items()) == dict(scratch.items())
        meta = store.entry_meta("fp1")
        assert meta.created_at == pytest.approx(2001.0, abs=1.0)
        # Second merge: everything collides at equal age, local wins.
        again = store.merge_from(scratch)
        assert again.copied == 0 and again.skipped == 3

    def test_merge_newest_wins(self, store):
        scratch = MemoryStore()
        store.persist(
            "fp",
            {"y": 1.0},
            meta=EntryMeta(fingerprint="fp", created_at=1000.0),
        )
        scratch.persist(
            "fp",
            {"y": 1.0},
            meta=EntryMeta(fingerprint="fp", created_at=9000.0, hits=3),
        )
        report = merge_stores(store, scratch)
        assert report.copied == 1 and report.skipped == 0
        assert store.entry_meta("fp").created_at == pytest.approx(
            9000.0, abs=1.0
        )

    def test_merge_self_rejected(self, store):
        with pytest.raises(ReproError):
            merge_stores(store, store)

    # -- durability and corruption (capability-gated) --------------------------

    def test_entries_survive_reopen(self, store, tmp_path):
        if not self.supports_persistence:
            pytest.skip("process-local store")
        store.persist("fp", {"y": 4.25})
        store.close()
        fresh = self.reopen(tmp_path)
        try:
            assert fresh.load("fp") == {"y": 4.25}
        finally:
            fresh.close()

    def test_corrupt_entry_is_a_miss_not_an_error(self, store, tmp_path):
        if not self.supports_corruption:
            pytest.skip("store state not reachable from outside")
        store.persist("fp", {"y": 1.0})
        self.corrupt_entry(store, tmp_path, "fp")
        assert store.load("fp") is None
        assert store.stats.invalidations == 1

    def test_version_mismatch_is_a_miss_not_an_error(
        self, store, tmp_path
    ):
        if not self.supports_corruption:
            pytest.skip("store state not reachable from outside")
        store.persist("fp", {"y": 1.0})
        self.write_version_mismatch(store, tmp_path, "fp")
        assert store.load("fp") is None
        assert store.stats.invalidations == 1

    def test_verify_flags_and_repairs_corruption(self, store, tmp_path):
        if not self.supports_corruption:
            pytest.skip("store state not reachable from outside")
        store.persist("good", {"y": 1.0})
        store.persist("bad", {"y": 2.0})
        self.corrupt_entry(store, tmp_path, "bad")
        report = store.verify()
        assert not report.clean
        assert report.valid == 1 and report.invalid == 1
        # Non-destructive by default: the corpse is still there.
        assert len(store) == 2
        repaired = store.verify(repair=True)
        assert repaired.repaired == 1
        assert store.verify().clean
        assert store.load("good") == {"y": 1.0}
