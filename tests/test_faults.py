"""The fault-injection harness itself: plans, schedules, wrappers.

The harness is only as good as its own determinism — a chaos failure
nobody can replay is a flake, not a finding — so the pins here are
mostly about scheduling: same seed, same plan; Nth-operation
semantics exact; each fault fires exactly once and is logged.
"""

import sqlite3

import pytest

from repro.errors import (
    ReproError,
    TransientQueueError,
    TransientStoreError,
    is_transient,
)
from repro.exec import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    FaultyQueue,
    FaultyStore,
    FileStore,
    Job,
    MemoryStore,
    ResilientQueue,
    ResilientStore,
    RetryPolicy,
    SQLiteStore,
    SQLiteWorkQueue,
)
from repro.exec.faults import FAULT_OPS

#: Instant retries — these tests must not sleep.
_FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.0, max_delay=0.0, max_elapsed=None
)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ReproError, match="target"):
            FaultSpec("disk", "persist_many", 1, "transient")
        with pytest.raises(ReproError, match="kind"):
            FaultSpec("store", "persist_many", 1, "gremlins")
        with pytest.raises(ReproError, match="index"):
            FaultSpec("store", "persist_many", 0, "transient")

    @pytest.mark.parametrize(
        "target, op",
        [
            ("store", "lod"),
            ("store", "load"),
            ("store", "persist"),
            ("queue", "complete"),
            ("queue", "fail"),
            ("queue", "heartbeat_many"),
            ("worker", "lease"),
        ],
    )
    def test_unknown_op_raises(self, target, op):
        # A misspelt or retired op would never fire; refuse it.
        with pytest.raises(ReproError, match="op"):
            FaultSpec(target, op, 1, "transient")

    def test_as_dict_roundtrips_the_schedule(self):
        spec = FaultSpec("queue", "lease", 3, "expire_lease")
        assert spec.as_dict() == {
            "target": "queue", "op": "lease", "at": 3, "kind": "expire_lease",
        }


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.aggressive(1234, worker_kills=2)
        b = FaultPlan.aggressive(1234, worker_kills=2)
        assert a.schedule() == b.schedule()
        assert a.seed == 1234

    def test_different_seed_different_schedule(self):
        assert (
            FaultPlan.aggressive(1).schedule()
            != FaultPlan.aggressive(2).schedule()
        )

    def test_fires_on_the_nth_op_exactly_once(self):
        plan = FaultPlan([FaultSpec("store", "persist_many", 2, "transient")])
        assert plan.tick("store", "persist_many") is None
        fired = plan.tick("store", "persist_many")
        assert fired is not None and fired.kind == "transient"
        assert plan.tick("store", "persist_many") is None  # spent
        assert plan.fired == [
            {
                "target": "store", "op": "persist_many", "at": 2,
                "kind": "transient", "on_op": "persist_many",
            }
        ]
        assert plan.remaining() == 0

    def test_ops_are_counted_per_operation(self):
        plan = FaultPlan([FaultSpec("store", "load_many", 2, "transient")])
        # Interleaved persists must not advance the load counter.
        assert plan.tick("store", "persist_many") is None
        assert plan.tick("store", "load_many") is None
        assert plan.tick("store", "persist_many") is None
        assert plan.tick("store", "load_many") is not None

    def test_wildcard_op_counts_everything_on_the_target(self):
        plan = FaultPlan([FaultSpec("store", "*", 3, "locked")])
        assert plan.tick("store", "persist_many") is None
        assert plan.tick("store", "load_many") is None
        assert plan.tick("queue", "lease") is None  # other target
        fired = plan.tick("store", "discard")
        assert fired is not None
        assert plan.fired[0]["on_op"] == "discard"

    def test_kill_points_are_markers_not_exceptions(self):
        plan = FaultPlan.aggressive(9, worker_kills=2)
        kills = plan.kill_points()
        assert len(kills) == 2
        assert all(s.kind == "kill_worker" for s in kills)
        # remaining() tracks only wrapper-raisable faults.
        assert plan.remaining() == len(plan.specs) - 2
        assert plan.describe()["seed"] == 9

    def test_identical_plans_replay_identical_firings(self):
        ops = [
            "persist_many", "load_many", "persist_many",
            "peek", "persist_many", "load_many",
        ]
        logs = []
        for _ in range(2):
            plan = FaultPlan.aggressive(77, store_ops=3, queue_ops=0,
                                        torn_writes=0, lease_expiries=0,
                                        horizon=5)
            for op in ops:
                plan.tick("store", op)
            logs.append(plan.fired)
        assert logs[0] == logs[1]


class TestFaultyStore:
    def _store(self, specs):
        return FaultyStore(MemoryStore(), FaultPlan(specs))

    def test_transient_kind(self):
        store = self._store([FaultSpec("store", "persist_many", 1, "transient")])
        with pytest.raises(TransientStoreError, match="injected"):
            store.persist("fp", {"y": 1.0})
        # The op was lost, as with a real error...
        assert len(store) == 0
        # ...and the retry succeeds.
        store.persist("fp", {"y": 1.0})
        assert store.load("fp") == {"y": 1.0}

    def test_locked_kind_is_a_real_sqlite_shape(self):
        store = self._store([FaultSpec("store", "load_many", 1, "locked")])
        with pytest.raises(sqlite3.OperationalError) as excinfo:
            store.load("fp")
        assert is_transient(excinfo.value)

    def test_terminal_kind(self):
        store = self._store([FaultSpec("store", "clear", 1, "terminal")])
        with pytest.raises(OSError):
            store.clear()

    def test_torn_write_leaves_a_distrusted_corpse(self, tmp_path):
        inner = FileStore(tmp_path / "s")
        store = FaultyStore(
            inner, FaultPlan([FaultSpec("store", "persist_many", 1, "torn")])
        )
        with pytest.raises(TransientStoreError, match="torn"):
            store.persist("fp", {"y": 1.0, "z": 2.0})
        # Half a blob is on disk at the real path...
        path = inner._path("fp")
        assert path.exists() and path.stat().st_size > 0
        # ...and the store refuses to trust it.
        assert store.load("fp") is None
        # The retry overwrites the corpse and service resumes.
        store.persist("fp", {"y": 1.0, "z": 2.0})
        assert store.load("fp") == {"y": 1.0, "z": 2.0}

    def test_torn_batch_leaves_a_blob_load_misses_and_verify_flags(
        self, tmp_path
    ):
        inner = FileStore(tmp_path / "s")
        store = FaultyStore(
            inner, FaultPlan([FaultSpec("store", "persist_many", 1, "torn")])
        )
        entries = [(f"fp{i}", {"y": float(i), "z": 0.5}) for i in range(3)]
        with pytest.raises(TransientStoreError, match="torn"):
            store.persist_many(entries)
        # The first half landed, the next entry is a torn corpse and
        # the rest never started.
        assert inner.peek("fp0") == {"y": 0.0, "z": 0.5}
        assert inner._path("fp1").stat().st_size > 0
        assert not inner._path("fp2").exists()
        report = inner.verify()
        assert report.valid == 1 and report.invalid == 1
        assert store.load("fp1") is None

    def test_delegation_and_describe(self, tmp_path):
        inner = SQLiteStore(tmp_path / "s.sqlite")
        store = FaultyStore(inner, FaultPlan())
        store.persist("fp", {"y": 1.0})
        assert store.path == inner.path
        assert store.stats is inner.stats
        described = store.describe()
        assert described["faulty"] is True
        assert described["fault_plan"]["specs"] == 0
        assert described["store"] == store.name == f"faulty[{inner.name}]"
        store.close()


class TestFaultyQueue:
    def test_expire_lease_grants_a_lease_born_dead(self, tmp_path):
        plan = FaultPlan([FaultSpec("queue", "lease", 1, "expire_lease")])
        queue = FaultyQueue(SQLiteWorkQueue(tmp_path / "q.sqlite"), plan)
        queue.submit([Job("fp", {"a": 1.0})])
        leased = queue.lease("victim", n=1, lease_seconds=60.0)
        assert [job.job_id for job in leased] == ["fp"]
        # The victim believes it holds 60 s; the lease is already gone.
        assert queue.stats().expired == 1
        survivor = queue.lease("survivor", n=1, lease_seconds=60.0)
        assert [job.job_id for job in survivor] == ["fp"]
        assert queue.job("fp").worker_id == "survivor"
        # The victim's late completion is rejected: no double credit.
        assert queue.complete("victim", "fp") is False
        assert queue.complete("survivor", "fp") is True
        queue.close()

    def test_transient_kinds_raise_before_delegation(self, tmp_path):
        plan = FaultPlan(
            [
                FaultSpec("queue", "submit", 1, "transient"),
                FaultSpec("queue", "heartbeat", 1, "locked"),
            ]
        )
        queue = FaultyQueue(SQLiteWorkQueue(tmp_path / "q.sqlite"), plan)
        with pytest.raises(TransientQueueError):
            queue.submit([Job("fp", {"a": 1.0})])
        assert len(queue) == 0  # the op was lost
        with pytest.raises(sqlite3.OperationalError):
            queue.heartbeat("w1")
        queue.submit([Job("fp", {"a": 1.0})])
        assert len(queue) == 1
        assert queue.describe()["faulty"] is True
        queue.close()

    def test_every_kind_is_constructible(self):
        for kind in FAULT_KINDS:
            target = "queue" if kind == "expire_lease" else (
                "worker" if kind == "kill_worker" else "store"
            )
            FaultSpec(target, "*", 1, kind)


#: One call per vocabulary op, driven through the faulty wrappers.
_STORE_CALLS = {
    "peek": lambda store: store.peek("fp"),
    "load_many": lambda store: store.load_many(["fp"]),
    "persist_many": lambda store: store.persist_many([("fp", {"y": 1.0})]),
    "discard": lambda store: store.discard("fp"),
    "clear": lambda store: store.clear(),
}
_QUEUE_CALLS = {
    "submit": lambda queue: queue.submit([Job("fp", {"a": 1.0})]),
    "lease": lambda queue: queue.lease("w1"),
    "complete_many": lambda queue: queue.complete_many("w1", [("fp", 0.0)]),
    "fail_many": lambda queue: queue.fail_many("w1", [("fp", "boom")]),
    "heartbeat": lambda queue: queue.heartbeat("w1"),
    "reclaim": lambda queue: queue.reclaim(),
    "requeue": lambda queue: queue.requeue("fp"),
    "purge": lambda queue: queue.purge(),
}


class TestEveryVocabularyOpFires:
    """Each op a spec may name is one the wrappers actually count."""

    def test_drivers_cover_the_vocabulary(self):
        assert set(_STORE_CALLS) == set(FAULT_OPS["store"])
        assert set(_QUEUE_CALLS) == set(FAULT_OPS["queue"])

    @pytest.mark.parametrize("op", FAULT_OPS["store"])
    def test_store_op_fires(self, op):
        plan = FaultPlan([FaultSpec("store", op, 1, "transient")])
        store = FaultyStore(MemoryStore(), plan)
        with pytest.raises(TransientStoreError):
            _STORE_CALLS[op](store)
        assert [fired["on_op"] for fired in plan.fired] == [op]

    @pytest.mark.parametrize("op", FAULT_OPS["queue"])
    def test_queue_op_fires(self, op, tmp_path):
        plan = FaultPlan([FaultSpec("queue", op, 1, "transient")])
        queue = FaultyQueue(SQLiteWorkQueue(tmp_path / "q.sqlite"), plan)
        with pytest.raises(TransientQueueError):
            _QUEUE_CALLS[op](queue)
        assert [fired["on_op"] for fired in plan.fired] == [op]
        queue.close()

    @pytest.mark.parametrize(
        "call, op",
        [
            (lambda store: store.load("fp"), "load_many"),
            (lambda store: store.persist("fp", {"y": 1.0}), "persist_many"),
        ],
    )
    def test_single_store_forms_tick_their_batched_op(self, call, op):
        plan = FaultPlan([FaultSpec("store", op, 1, "transient")])
        with pytest.raises(TransientStoreError):
            call(FaultyStore(MemoryStore(), plan))
        assert plan.fired[0]["on_op"] == op

    @pytest.mark.parametrize(
        "call, op",
        [
            (lambda queue: queue.complete("w1", "fp"), "complete_many"),
            (lambda queue: queue.fail("w1", "fp"), "fail_many"),
        ],
    )
    def test_single_queue_forms_tick_their_batched_op(
        self, call, op, tmp_path
    ):
        plan = FaultPlan([FaultSpec("queue", op, 1, "transient")])
        queue = FaultyQueue(SQLiteWorkQueue(tmp_path / "q.sqlite"), plan)
        with pytest.raises(TransientQueueError):
            call(queue)
        assert plan.fired[0]["on_op"] == op
        queue.close()


class TestMidBatchFaults:
    """A fault inside a batched call neither loses nor double-applies.

    The faulty wrappers apply the *first half* of a batch before
    raising — the nastiest shape a real mid-transaction crash can
    leave behind.  Idempotent application (INSERT OR REPLACE; a spent
    lease rejects a second completion) plus the retry layer must
    converge on exactly the full batch, applied once.
    """

    def test_persist_many_partial_then_retry_converges(self, tmp_path):
        inner = SQLiteStore(tmp_path / "s.sqlite")
        store = FaultyStore(
            inner,
            FaultPlan(
                [FaultSpec("store", "persist_many", 1, "transient")]
            ),
        )
        entries = [(f"fp{i}", {"y": float(i)}) for i in range(4)]
        with pytest.raises(TransientStoreError):
            store.persist_many(entries)
        # The injected crash left the first half behind...
        assert len(inner) == 2
        # ...and the bare retry lands the whole batch exactly once.
        store.persist_many(entries)
        assert dict(inner.items()) == dict(entries)
        inner.close()

    def test_resilient_store_masks_the_partial_batch(self, tmp_path):
        inner = SQLiteStore(tmp_path / "s.sqlite")
        store = ResilientStore(
            FaultyStore(
                inner,
                FaultPlan(
                    [FaultSpec("store", "persist_many", 1, "locked")]
                ),
            ),
            retry=_FAST_RETRY,
            sleep=lambda _: None,
        )
        entries = [(f"fp{i}", {"y": float(i)}) for i in range(5)]
        store.persist_many(entries)  # one call; the fault is invisible
        assert dict(inner.items()) == dict(entries)
        assert store.resilience.retried == 1
        store.close()

    def test_complete_many_partial_then_retry_completes_once(
        self, tmp_path
    ):
        inner = SQLiteWorkQueue(tmp_path / "q.sqlite")
        queue = ResilientQueue(
            FaultyQueue(
                inner,
                FaultPlan(
                    [FaultSpec("queue", "complete_many", 1, "transient")]
                ),
            ),
            retry=_FAST_RETRY,
            sleep=lambda _: None,
        )
        queue.submit([Job(f"fp{i}", {"a": float(i)}) for i in range(4)])
        queue.lease("w1", n=4)
        done = queue.complete_many(
            "w1", [(f"fp{i}", 0.5) for i in range(4)]
        )
        # The first half landed before the fault, so the retried
        # batch only finds two live leases left — the return value
        # reports the retry's coverage, never a double count.
        assert done == 2
        assert queue.resilience.retried == 1
        stats = inner.stats()
        assert stats.done == 4 and stats.failed == 0
        for i in range(4):
            record = inner.job(f"fp{i}")
            assert record.status == "done"
            assert record.attempts == 1  # completed once, not twice
            assert record.seconds == pytest.approx(0.5)
        queue.close()
