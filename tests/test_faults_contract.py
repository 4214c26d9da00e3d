"""The fault-injection wrappers, held to the full substrate contracts.

Two claims underwrite the chaos harness, and both are pinned here by
re-running the existing behavioural suites through the wrappers:

* **Transparency** — :class:`FaultyStore` / :class:`FaultyQueue` with
  an *empty* :class:`FaultPlan` are behaviourally invisible: the whole
  store contract (:mod:`store_contract`) and queue contract
  (:class:`test_exec_queue.TestWorkQueueContract`) pass unchanged.
* **Masking** — with a *transient* plan injecting faults into the
  stream of operations, wrapping in :class:`ResilientStore` /
  :class:`ResilientQueue` restores the exact same contracts: the
  retry layer absorbs every injected failure without changing any
  observable behaviour (including the stores' stats counters, which
  must not double-count retried operations).
"""

from pathlib import Path

import pytest

import repro
from repro.exec import (
    CacheStore,
    FaultPlan,
    FaultSpec,
    FaultyQueue,
    FaultyStore,
    FileStore,
    FileWorkQueue,
    ResilientQueue,
    MemoryStore,
    ResilientStore,
    RetryPolicy,
    SQLiteStore,
    SQLiteWorkQueue,
    WorkQueue,
)

from store_contract import StoreContract
from test_exec_queue import TestWorkQueueContract as _WorkQueueContract
from test_store_contract import (
    TestFileStoreContract as _FileStoreContract,
    TestSQLiteStoreContract as _SQLiteStoreContract,
)

#: Instant, budget-free retries — contract runs should not sleep.
FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.0, max_delay=0.0, max_elapsed=None
)


def _transient_store_plan():
    # The 2nd and 5th store operations of any kind fail transiently —
    # early enough that every contract test trips at least one.
    return FaultPlan(
        [
            FaultSpec("store", "*", 2, "transient"),
            FaultSpec("store", "*", 5, "locked"),
        ]
    )


def _transient_queue_plan():
    return FaultPlan(
        [
            FaultSpec("queue", "*", 2, "transient"),
            FaultSpec("queue", "*", 5, "locked"),
        ]
    )


# -- transparency: empty plan, wrappers invisible ------------------------------


class TestFaultyFileStoreTransparent(_FileStoreContract):
    def make_store(self, tmp_path):
        return FaultyStore(FileStore(tmp_path / "file-store"), FaultPlan())

    def reopen(self, tmp_path):
        return FaultyStore(FileStore(tmp_path / "file-store"), FaultPlan())


class TestFaultySQLiteStoreTransparent(_SQLiteStoreContract):
    def make_store(self, tmp_path):
        return FaultyStore(SQLiteStore(tmp_path / "store.sqlite"), FaultPlan())

    def reopen(self, tmp_path):
        return FaultyStore(SQLiteStore(tmp_path / "store.sqlite"), FaultPlan())


class TestFaultyQueueTransparent(_WorkQueueContract):
    @pytest.fixture(params=["sqlite", "file"])
    def queue(self, request, tmp_path):
        if request.param == "sqlite":
            inner = SQLiteWorkQueue(tmp_path / "queue.sqlite")
        else:
            inner = FileWorkQueue(tmp_path / "queue")
        built = FaultyQueue(inner, FaultPlan())
        yield built
        built.close()


# -- masking: transient plan + resilient wrapper, contract restored ------------


class TestResilientFileStoreMasksTransients(_FileStoreContract):
    def make_store(self, tmp_path):
        return ResilientStore(
            FaultyStore(
                FileStore(tmp_path / "file-store"), _transient_store_plan()
            ),
            retry=FAST_RETRY,
            sleep=lambda _: None,
        )

    def reopen(self, tmp_path):
        return ResilientStore(
            FaultyStore(FileStore(tmp_path / "file-store"), FaultPlan()),
            retry=FAST_RETRY,
            sleep=lambda _: None,
        )


class TestResilientSQLiteStoreMasksTransients(_SQLiteStoreContract):
    def make_store(self, tmp_path):
        return ResilientStore(
            FaultyStore(
                SQLiteStore(tmp_path / "store.sqlite"),
                _transient_store_plan(),
            ),
            retry=FAST_RETRY,
            sleep=lambda _: None,
        )

    def reopen(self, tmp_path):
        return ResilientStore(
            FaultyStore(SQLiteStore(tmp_path / "store.sqlite"), FaultPlan()),
            retry=FAST_RETRY,
            sleep=lambda _: None,
        )


class TestResilientQueueMasksTransients(_WorkQueueContract):
    @pytest.fixture(params=["sqlite", "file"])
    def queue(self, request, tmp_path):
        if request.param == "sqlite":
            inner = SQLiteWorkQueue(tmp_path / "queue.sqlite")
        else:
            inner = FileWorkQueue(tmp_path / "queue")
        built = ResilientQueue(
            FaultyQueue(inner, _transient_queue_plan()),
            retry=FAST_RETRY,
            sleep=lambda _: None,
        )
        yield built
        built.close()


# -- the masking runs really did inject --------------------------------------


class TestInjectionActuallyHappens:
    def test_store_contract_traffic_trips_the_plan(self, tmp_path):
        plan = _transient_store_plan()
        store = ResilientStore(
            FaultyStore(FileStore(tmp_path / "s"), plan),
            retry=FAST_RETRY,
            sleep=lambda _: None,
        )
        for i in range(6):
            store.persist(f"fp{i}", {"y": float(i)})
        assert len(plan.fired) == 2
        assert store.resilience.retried == 2
        assert plan.remaining() == 0
        assert len(store) == 6  # nothing lost to the injected faults

    def test_queue_contract_traffic_trips_the_plan(self, tmp_path):
        plan = _transient_queue_plan()
        queue = ResilientQueue(
            FaultyQueue(SQLiteWorkQueue(tmp_path / "q.sqlite"), plan),
            retry=FAST_RETRY,
            sleep=lambda _: None,
        )
        from repro.exec import Job

        queue.submit([Job(f"fp{i}", {"a": float(i)}) for i in range(3)])
        for job in queue.lease("w1", n=3):
            queue.complete("w1", job.job_id)
        queue.stats()
        queue.reclaim()
        assert len(plan.fired) == 2
        assert queue.resilience.retried == 2
        assert queue.stats().done == 3
        queue.close()

    def test_checked_suites_inherit_everything(self):
        # Guard against the reuse silently breaking: the bound classes
        # must still carry the full inherited contract.
        assert len(
            [n for n in dir(TestFaultyQueueTransparent) if n.startswith("test_")]
        ) >= 12
        assert len(
            [
                n
                for n in dir(TestResilientFileStoreMasksTransients)
                if n.startswith("test_")
            ]
        ) >= 20


# -- one form per operation ----------------------------------------------------


def _program_subclasses(base):
    found, pending = [], [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return found


class TestOneFormPerOperation:
    """Single forms live only on the ABCs, as one-entry batches of the
    batched primitives every store, queue and wrapper implements."""

    def test_no_program_class_defines_a_single_form(self):
        classes = _program_subclasses(CacheStore) + _program_subclasses(
            WorkQueue
        )
        assert {
            MemoryStore,
            FileStore,
            SQLiteStore,
            ResilientStore,
            FaultyStore,
            SQLiteWorkQueue,
            FileWorkQueue,
            ResilientQueue,
            FaultyQueue,
        } <= set(classes)
        for cls in classes:
            defined = {"load", "persist", "complete", "fail"} & set(vars(cls))
            assert not defined, (cls.__name__, defined)

    def test_heartbeat_many_is_gone_from_the_source(self):
        source = Path(repro.__file__).parent
        assert [
            path.name
            for path in source.rglob("*.py")
            if "heartbeat_many" in path.read_text(encoding="utf-8")
        ] == []
