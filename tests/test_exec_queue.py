"""The durable work queue and the store-leased distributed backend.

Covers the queue contract both implementations (SQLite table, file
directory) must obey — atomic leasing, lease TTL and reclamation,
completion gated on the lease holder, terminal failure after
``max_attempts``, operator requeue/purge — plus the distributed
backend's acceptance properties: cooperative completion, work-sharing
between concurrent submitters, and the kill-a-worker guarantee that a
reclaimed lease loses no points.
"""

import json
import math
import time

import pytest

from backend_contract import make_points, synthetic_evaluate

from repro.errors import ReproError
from repro.exec import (
    DistributedBackend,
    EvalCache,
    EvaluationEngine,
    FaultPlan,
    FaultSpec,
    FaultyQueue,
    FileStore,
    FileWorkQueue,
    Job,
    MemoryStore,
    SQLiteStore,
    SQLiteWorkQueue,
    SerialBackend,
    queue_for_store,
    resolve_backend,
    resolve_queue,
)
from repro.exec.queue import QUEUE_SCHEMA_VERSION


def _jobs(n=4):
    return [
        Job(f"fp{i:02d}", {"a": float(i), "b": 1.0 + i}) for i in range(n)
    ]


@pytest.fixture(params=["sqlite", "file"])
def queue(request, tmp_path):
    if request.param == "sqlite":
        built = SQLiteWorkQueue(tmp_path / "queue.sqlite")
    else:
        built = FileWorkQueue(tmp_path / "queue")
    yield built
    built.close()


class TestWorkQueueContract:
    def test_submit_dedupes_and_counts(self, queue):
        assert queue.submit(_jobs(3)) == 3
        assert queue.submit(_jobs(4)) == 1  # three already known
        assert len(queue) == 4
        stats = queue.stats()
        assert stats.pending == 4 and stats.outstanding == 4
        assert stats.done == stats.failed == stats.leased == 0

    def test_lease_claims_in_order_and_increments_attempts(self, queue):
        queue.submit(_jobs(4))
        leased = queue.lease("w1", n=2, lease_seconds=60.0)
        assert [job.job_id for job in leased] == ["fp00", "fp01"]
        assert leased[0].point == {"a": 0.0, "b": 1.0}
        record = queue.job("fp00")
        assert record.status == "leased"
        assert record.worker_id == "w1"
        assert record.attempts == 1
        assert record.lease_expires_at is not None
        # A held lease is not re-leasable.
        again = queue.lease("w2", n=4, lease_seconds=60.0)
        assert [job.job_id for job in again] == ["fp02", "fp03"]

    def test_lease_size_validated(self, queue):
        with pytest.raises(ReproError):
            queue.lease("w1", n=0)

    def test_complete_requires_the_lease_holder(self, queue):
        queue.submit(_jobs(1))
        queue.lease("w1", n=1)
        assert queue.complete("intruder", "fp00") is False
        assert queue.complete("w1", "fp00", seconds=0.25) is True
        record = queue.job("fp00")
        assert record.status == "done"
        assert record.seconds == pytest.approx(0.25)
        assert record.completed_at is not None
        # Completing twice is a no-op (the lease is gone).
        assert queue.complete("w1", "fp00") is False

    def test_expired_lease_is_reclaimed_by_next_lease(self, queue):
        queue.submit(_jobs(1))
        queue.lease("dead-worker", n=1, lease_seconds=0.01)
        time.sleep(0.05)
        leased = queue.lease("survivor", n=1, lease_seconds=60.0)
        assert [job.job_id for job in leased] == ["fp00"]
        record = queue.job("fp00")
        assert record.worker_id == "survivor"
        assert record.attempts == 2
        # The dead worker's late completion is rejected.
        assert queue.complete("dead-worker", "fp00") is False
        assert queue.complete("survivor", "fp00") is True

    def test_explicit_reclaim(self, queue):
        queue.submit(_jobs(2))
        queue.lease("dead", n=2, lease_seconds=0.01)
        time.sleep(0.05)
        assert queue.stats().expired == 2
        assert queue.reclaim() == 2
        stats = queue.stats()
        assert stats.pending == 2 and stats.leased == 0

    def test_heartbeat_extends_leases(self, queue):
        queue.submit(_jobs(2))
        queue.lease("w1", n=2, lease_seconds=0.2)
        assert queue.heartbeat("w1", lease_seconds=120.0) == 2
        time.sleep(0.3)
        # Without the heartbeat these would have expired.
        assert queue.reclaim() == 0
        assert queue.job("fp00").status == "leased"

    # -- batched transactions (the amortized-substrate contract) -------------

    def test_complete_many_empty_is_free(self, queue):
        before = queue.transactions
        assert queue.complete_many("w1", []) == 0
        assert queue.transactions == before

    def test_complete_many_folds_one_transaction(self, queue):
        queue.submit(_jobs(3))
        queue.lease("w1", n=3)
        before = queue.transactions
        done = queue.complete_many(
            "w1", [("fp00", 0.5), ("fp01", 0.25), ("fp02", 1.0)]
        )
        assert done == 3
        assert queue.transactions == before + 1
        record = queue.job("fp00")
        assert record.status == "done"
        assert record.seconds == pytest.approx(0.5)
        assert queue.stats().done == 3

    def test_complete_many_covers_only_held_leases(self, queue):
        queue.submit(_jobs(2))
        queue.lease("w1", n=1)
        done = queue.complete_many("w1", [("fp00", 0.1), ("fp01", 0.1)])
        assert done == 1  # fp01 was never leased to w1
        assert queue.job("fp00").status == "done"
        assert queue.job("fp01").status == "pending"

    def test_complete_many_duplicates_apply_once_in_order(self, queue):
        queue.submit(_jobs(1))
        queue.lease("w1", n=1)
        done = queue.complete_many("w1", [("fp00", 0.1), ("fp00", 0.2)])
        assert done == 1
        record = queue.job("fp00")
        assert record.status == "done"
        # The first pair won; the duplicate hit a spent lease.
        assert record.seconds == pytest.approx(0.1)

    def test_fail_many_requeues_in_one_transaction(self, queue):
        queue.submit(_jobs(2))
        queue.lease("w1", n=2)
        before = queue.transactions
        failed = queue.fail_many(
            "w1", [("fp00", "boom"), ("fp01", "bang")]
        )
        assert failed == 2
        assert queue.transactions == before + 1
        stats = queue.stats()
        assert stats.pending == 2 and stats.leased == 0
        assert queue.job("fp00").error == "boom"

    def test_fail_requeues_then_goes_terminal(self, queue):
        queue.submit(_jobs(1))
        for attempt in range(1, queue.max_attempts + 1):
            leased = queue.lease("w1", n=1)
            assert [job.job_id for job in leased] == ["fp00"], attempt
            assert queue.fail("w1", "fp00", error="sim exploded") is True
        record = queue.job("fp00")
        assert record.status == "failed"
        assert record.error == "sim exploded"
        assert queue.lease("w1", n=1) == []
        assert queue.stats().failed == 1

    def test_expired_lease_with_spent_attempts_goes_terminal(self, queue):
        queue.submit(_jobs(1))
        for _ in range(queue.max_attempts):
            queue.lease("dead", n=1, lease_seconds=0.01)
            time.sleep(0.03)
            queue.reclaim()
        # All attempts burned by kills: the next claim fails it
        # terminally instead of cycling forever.
        assert queue.lease("w1", n=1) == []
        assert queue.job("fp00").status == "failed"

    def test_requeue_resets_a_failed_job(self, queue):
        queue.submit(_jobs(1))
        queue.lease("w1", n=1)
        for _ in range(queue.max_attempts):
            queue.fail("w1", "fp00", error="boom")
            queue.lease("w1", n=1)
        queue.fail("w1", "fp00", error="boom")
        assert queue.job("fp00").status == "failed"
        assert queue.requeue("fp00") is True
        record = queue.job("fp00")
        assert record.status == "pending"
        assert record.attempts == 0 and record.error is None
        assert queue.requeue("fp00") is False  # already pending
        assert queue.requeue("missing") is False

    def test_purge_drops_finished_rows(self, queue):
        queue.submit(_jobs(3))
        queue.lease("w1", n=2)
        queue.complete("w1", "fp00")
        queue.complete("w1", "fp01")
        assert queue.purge(older_than_seconds=3600.0) == 0  # too young
        assert queue.purge(older_than_seconds=0.0) == 2
        assert len(queue) == 1
        assert queue.job("fp02").status == "pending"

    def test_jobs_iterates_every_record(self, queue):
        queue.submit(_jobs(3))
        records = {record.job_id: record for record in queue.jobs()}
        assert sorted(records) == ["fp00", "fp01", "fp02"]
        assert all(r.status == "pending" for r in records.values())
        assert records["fp01"].point == {"a": 1.0, "b": 2.0}
        assert queue.job("absent") is None

    def test_describe_names_the_queue(self, queue):
        described = queue.describe()
        assert described["queue"] == queue.name
        assert described["max_attempts"] == queue.max_attempts

    def test_float_payloads_survive_bit_exactly(self, queue):
        values = {"tiny": 5e-324, "third": 1.0 / 3.0, "pi": math.pi}
        queue.submit([Job("fp-bits", values)])
        leased = queue.lease("w1", n=1)
        assert leased[0].point == values


class TestLeaseExpiryIndex:
    """The covering index behind lease reclamation, pinned in place.

    Reclamation's predicate (``status = 'leased' AND
    lease_expires_at < now``) must stay index-served as done rows
    accumulate; these tests fail if the index is renamed, dropped
    from the DDL, or the query drifts off it.
    """

    def test_reclaim_predicate_uses_the_covering_index(self, tmp_path):
        queue = SQLiteWorkQueue(tmp_path / "queue.sqlite")
        try:
            queue.submit(_jobs(4))
            queue.lease("w1", n=4, lease_seconds=60.0)
            plan = " ".join(
                str(row[3])
                for row in queue._conn.execute(
                    "EXPLAIN QUERY PLAN SELECT job_id FROM queue_jobs"
                    " WHERE status = 'leased' AND lease_expires_at < ?",
                    (time.time(),),
                )
            )
            assert "queue_jobs_lease_expiry" in plan
            assert "SCAN queue_jobs" not in plan
        finally:
            queue.close()

    def test_index_migrates_in_place_on_reopen(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        first = SQLiteWorkQueue(path)
        first.submit(_jobs(2))
        first.lease("w1", n=1, lease_seconds=60.0)
        # Simulate a database created before the index existed.
        first._conn.execute("DROP INDEX queue_jobs_lease_expiry")
        first.close()
        reopened = SQLiteWorkQueue(path)
        try:
            names = {
                row[0]
                for row in reopened._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                )
            }
            assert "queue_jobs_lease_expiry" in names
            # The migration touched nothing else: rows and leases
            # survive the reopen intact.
            assert reopened.job("fp00").status == "leased"
            assert reopened.job("fp01").status == "pending"
        finally:
            reopened.close()


class TestQueuePersistence:
    @pytest.mark.parametrize("kind", ["sqlite", "file"])
    def test_jobs_survive_reopen(self, kind, tmp_path):
        spec = (
            tmp_path / "queue.sqlite" if kind == "sqlite" else tmp_path / "q"
        )
        first = (
            SQLiteWorkQueue(spec) if kind == "sqlite" else FileWorkQueue(spec)
        )
        first.submit(_jobs(2))
        first.lease("w1", n=1)
        first.close()
        fresh = (
            SQLiteWorkQueue(spec) if kind == "sqlite" else FileWorkQueue(spec)
        )
        try:
            stats = fresh.stats()
            assert stats.pending == 1 and stats.leased == 1
            assert fresh.job("fp00").worker_id == "w1"
        finally:
            fresh.close()

    def test_sqlite_queue_pickles_by_path(self, tmp_path):
        import pickle

        queue = SQLiteWorkQueue(tmp_path / "queue.sqlite")
        queue.submit(_jobs(1))
        clone = pickle.loads(pickle.dumps(queue))
        try:
            assert clone.job("fp00").status == "pending"
        finally:
            clone.close()
            queue.close()

    def test_corrupt_payload_is_failed_not_served(self, tmp_path):
        queue = SQLiteWorkQueue(tmp_path / "queue.sqlite")
        queue.submit(_jobs(1))
        queue._conn.execute(
            "UPDATE queue_jobs SET payload = '{oops' WHERE job_id = 'fp00'"
        )
        assert queue.lease("w1", n=1) == []
        assert queue.job("fp00").status == "failed"
        queue.close()

    def test_file_corrupt_payload_is_failed_not_served(self, tmp_path):
        queue = FileWorkQueue(tmp_path / "q")
        queue.submit(_jobs(1))
        (queue.directory / "fp00.pending.json").write_text(
            "{not json", encoding="utf-8"
        )
        assert queue.lease("w1", n=1) == []
        assert queue.job("fp00").status == "failed"

    def test_file_version_mismatch_is_failed(self, tmp_path):
        queue = FileWorkQueue(tmp_path / "q")
        queue.submit(_jobs(1))
        path = queue.directory / "fp00.pending.json"
        blob = json.loads(path.read_text())
        blob["schema"] = QUEUE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert queue.lease("w1", n=1) == []
        assert queue.job("fp00").status == "failed"

    def test_file_heals_crashed_transition(self, tmp_path):
        # Simulate a worker killed between the payload rewrite and
        # the rename: content says done, filename says leased.
        queue = FileWorkQueue(tmp_path / "q")
        queue.submit(_jobs(1))
        queue.lease("w1", n=1)
        path = queue.directory / "fp00.leased.json"
        blob = json.loads(path.read_text())
        blob["status"] = "done"
        blob["completed_at"] = time.time()
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert queue.stats().done == 1  # content status wins
        queue.reclaim()
        assert (queue.directory / "fp00.done.json").exists()

    def test_file_reclaims_stale_claim_files(self, tmp_path):
        queue = FileWorkQueue(tmp_path / "q")
        queue.submit(_jobs(1))
        pending = queue.directory / "fp00.pending.json"
        claim = queue.directory / "fp00.claim.json"
        pending.rename(claim)
        old = time.time() - 3600.0
        import os

        os.utime(claim, times=(old, old))
        assert queue.reclaim() == 1
        assert queue.job("fp00").status == "pending"


class TestResolveQueue:
    def test_path_conventions(self, tmp_path):
        sqlite_queue = resolve_queue(tmp_path / "evals.sqlite")
        assert isinstance(sqlite_queue, SQLiteWorkQueue)
        sqlite_queue.close()
        dir_queue = resolve_queue(tmp_path / "evals")
        assert isinstance(dir_queue, FileWorkQueue)
        assert dir_queue.directory == tmp_path / "evals" / ".queue"
        ready = FileWorkQueue(tmp_path / "explicit")
        assert resolve_queue(ready) is ready

    def test_queue_for_store(self, tmp_path):
        file_store = FileStore(tmp_path / "evals")
        assert isinstance(queue_for_store(file_store), FileWorkQueue)
        sqlite_store = SQLiteStore(tmp_path / "evals.sqlite")
        queue = queue_for_store(sqlite_store)
        assert isinstance(queue, SQLiteWorkQueue)
        assert queue.path == sqlite_store.path
        queue.close()
        sqlite_store.close()
        with pytest.raises(ReproError):
            queue_for_store(MemoryStore())

    def test_queue_shares_sqlite_file_with_store(self, tmp_path):
        path = tmp_path / "substrate.sqlite"
        store = SQLiteStore(path)
        queue = SQLiteWorkQueue(path)
        store.persist("fp", {"y": 1.0})
        queue.submit(_jobs(2))
        # Both halves of the substrate live in one database file and
        # neither corrupts the other's view.
        assert store.load("fp") == {"y": 1.0}
        assert store.verify().clean
        assert len(store) == 1 and len(queue) == 2
        queue.close()
        store.close()

    def test_file_queue_invisible_to_file_store(self, tmp_path):
        store = FileStore(tmp_path / "evals")
        queue = queue_for_store(store)
        store.persist("fp", {"y": 1.0})
        queue.submit(_jobs(3))
        # Queue rows live under .queue/ and never read as cache
        # blobs, partials or sweepable debris.
        assert len(store) == 1
        assert store.partial_files() == []
        assert store.verify().clean
        store.compact(grace_seconds=0.0)
        assert len(queue) == 3

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            SQLiteWorkQueue(tmp_path / "q.sqlite", max_attempts=0)
        store = FileStore(tmp_path / "evals")
        with pytest.raises(ReproError):
            DistributedBackend(store, batch=0)
        with pytest.raises(ReproError):
            DistributedBackend(store, lease_seconds=0.0)
        with pytest.raises(ReproError):
            DistributedBackend(MemoryStore())


class TestDistributedBackend:
    def test_resolve_backend_requires_a_store(self):
        with pytest.raises(ReproError, match="persistent cache store"):
            resolve_backend("distributed")

    def test_engine_spec_builds_distributed_over_cache_store(self, tmp_path):
        engine = EvaluationEngine(
            synthetic_evaluate,
            backend="distributed",
            cache=SQLiteStore(tmp_path / "evals.sqlite"),
        )
        try:
            assert engine.backend.name == "distributed"
            assert engine.backend.store is engine.cache.store
            points = make_points(6)
            out = engine.map_points(points)
            reference = SerialBackend().run(synthetic_evaluate, points)
            assert [e.responses for e in out] == [r for r, _ in reference]
        finally:
            engine.close()

    def test_results_resolve_from_store_published_by_workers(self, tmp_path):
        # cooperate=False: the submitter never evaluates; a "worker"
        # (here: direct queue/store traffic) must finish the batch.
        store = FileStore(tmp_path / "evals")
        backend = DistributedBackend(
            store, cooperate=False, poll_interval=0.01, timeout=30.0
        )
        points = make_points(3)
        handle = backend.submit(
            synthetic_evaluate, points, fingerprints=["f0", "f1", "f2"]
        )
        assert not handle.done()
        queue = queue_for_store(store)
        while True:
            jobs = queue.lease("external-worker", n=2)
            if not jobs:
                break
            for job in jobs:
                store.persist(job.job_id, synthetic_evaluate(job.point))
                queue.complete("external-worker", job.job_id, seconds=0.5)
        results = handle.result()
        reference = SerialBackend().run(synthetic_evaluate, points)
        assert [r for r, _ in results] == [r for r, _ in reference]
        # Wall seconds travel back through the queue's done records.
        assert [s for _, s in results] == [0.5, 0.5, 0.5]
        backend.close()

    def test_replicates_collapse_to_one_job(self, tmp_path):
        store = FileStore(tmp_path / "evals")
        backend = DistributedBackend(store, timeout=30.0)
        point = {"a": 0.25, "b": 1.5}
        results = backend.run(
            synthetic_evaluate,
            [point, dict(point), point],
            fingerprints=["same", "same", "same"],
        )
        assert len(results) == 3
        assert results[0][0] == results[1][0] == results[2][0]
        queue = queue_for_store(store)
        assert len(queue) == 1  # one job served all three slots
        backend.close()

    def test_store_hits_skip_the_queue(self, tmp_path):
        store = FileStore(tmp_path / "evals")
        point = make_points(1)[0]
        store.persist("known", synthetic_evaluate(point))
        backend = DistributedBackend(store, timeout=30.0)
        results = backend.run(
            synthetic_evaluate, [point], fingerprints=["known"]
        )
        assert results[0][0] == synthetic_evaluate(point)
        assert len(queue_for_store(store)) == 0
        backend.close()

    def test_prefetch_enqueues_only_misses(self, tmp_path):
        store = FileStore(tmp_path / "evals")
        points = make_points(3)
        store.persist("hit", synthetic_evaluate(points[0]))
        backend = DistributedBackend(store, timeout=30.0)
        started = backend.prefetch(
            synthetic_evaluate,
            points,
            fingerprints=["hit", "miss-a", "miss-b"],
        )
        assert started == 2
        assert len(queue_for_store(store)) == 2
        # Re-prefetching is free: everything is queued or stored.
        again = backend.prefetch(
            synthetic_evaluate,
            points,
            fingerprints=["hit", "miss-a", "miss-b"],
        )
        assert again == 0
        # The warmed queue then serves the real submission.
        results = backend.run(
            synthetic_evaluate,
            points,
            fingerprints=["hit", "miss-a", "miss-b"],
        )
        reference = SerialBackend().run(synthetic_evaluate, points)
        assert [r for r, _ in results] == [r for r, _ in reference]
        backend.close()

    def test_prefetch_computes_fingerprints_when_omitted(self, tmp_path):
        store = FileStore(tmp_path / "evals")
        backend = DistributedBackend(store, timeout=30.0)
        points = make_points(2)
        assert backend.prefetch(synthetic_evaluate, points) == 2
        results = backend.run(synthetic_evaluate, points)
        assert len(queue_for_store(store)) == 2  # prefetch jobs reused
        reference = SerialBackend().run(synthetic_evaluate, points)
        assert [r for r, _ in results] == [r for r, _ in reference]
        backend.close()

    def test_adaptive_poll_backs_off_while_idle(self, tmp_path):
        import threading

        store = FileStore(tmp_path / "evals")
        backend = DistributedBackend(
            store, cooperate=False, poll_interval=0.005, timeout=30.0
        )
        points = make_points(2)
        handle = backend.submit(
            synthetic_evaluate, points, fingerprints=["p0", "p1"]
        )

        def finish():
            queue = queue_for_store(store)
            time.sleep(0.05)
            for job in queue.lease("w", n=2):
                store.persist(job.job_id, synthetic_evaluate(job.point))
                queue.complete("w", job.job_id, seconds=0.1)
            queue.close()

        worker = threading.Thread(target=finish)
        worker.start()
        try:
            results = handle.result()
        finally:
            worker.join()
        assert len(results) == 2
        # The idle wait was spent in counted, capped sleeps.
        assert backend.poll_sleeps > 0
        assert backend.poll_max <= 1.0
        described = backend.describe()
        assert described["poll_sleeps"] == backend.poll_sleeps
        assert described["queue_transactions"] > 0
        assert backend.queue_transactions == described["queue_transactions"]
        backend.close()

    def test_two_submitters_share_one_study(self, tmp_path):
        # Two engines over one substrate: the second resolves every
        # point the first already published, evaluating nothing new.
        path = tmp_path / "evals.sqlite"
        points = make_points(8)
        calls_a, calls_b = [], []

        def eval_a(point):
            calls_a.append(1)
            return synthetic_evaluate(point)

        def eval_b(point):
            calls_b.append(1)
            return synthetic_evaluate(point)

        engine_a = EvaluationEngine(
            eval_a, backend="distributed", cache=SQLiteStore(path)
        )
        out_a = engine_a.map_points(points)
        engine_a.close()
        engine_b = EvaluationEngine(
            eval_b, backend="distributed", cache=SQLiteStore(path)
        )
        out_b = engine_b.map_points(points)
        engine_b.close()
        assert len(calls_a) == 8 and len(calls_b) == 0
        assert [e.responses for e in out_a] == [e.responses for e in out_b]

    def test_killed_worker_loses_no_points(self, tmp_path):
        # The acceptance property: a worker dies holding leases; the
        # survivor reclaims them after the TTL and the batch still
        # completes with every point accounted for.
        store = FileStore(tmp_path / "evals")
        backend = DistributedBackend(
            store,
            batch=2,
            lease_seconds=30.0,
            poll_interval=0.01,
            timeout=60.0,
        )
        points = make_points(6)
        fingerprints = [f"kill{i}" for i in range(6)]
        handle = backend.submit(
            synthetic_evaluate, points, fingerprints=fingerprints
        )
        # A doomed worker grabs half the queue with a tiny TTL and is
        # "SIGKILLed" (never completes, never heartbeats).
        queue = queue_for_store(store)
        doomed = queue.lease("doomed-worker", n=3, lease_seconds=0.05)
        assert len(doomed) == 3
        time.sleep(0.1)
        results = handle.result()
        reference = SerialBackend().run(synthetic_evaluate, points)
        assert [r for r, _ in results] == [r for r, _ in reference]
        stats = queue.stats()
        assert stats.done == 6 and stats.outstanding == 0
        # The doomed worker's jobs show the reclaimed second attempt.
        reclaimed = [
            queue.job(job.job_id).attempts for job in doomed
        ]
        assert all(attempts == 2 for attempts in reclaimed)
        assert all(
            queue.job(job.job_id).worker_id == backend.worker_id
            for job in doomed
        )
        backend.close()

    def test_terminally_failed_job_raises(self, tmp_path):
        store = FileStore(tmp_path / "evals")
        backend = DistributedBackend(
            store, cooperate=False, poll_interval=0.01, timeout=30.0
        )
        point = make_points(1)[0]
        handle = backend.submit(
            synthetic_evaluate, [point], fingerprints=["doomed"]
        )
        queue = queue_for_store(store)
        for _ in range(queue.max_attempts):
            jobs = queue.lease("worker", n=1)
            assert jobs
            queue.fail("worker", "doomed", error="sim exploded")
        with pytest.raises(ReproError, match="sim exploded"):
            handle.result()
        backend.close()

    def test_cooperating_submitter_failure_propagates_and_requeues(
        self, tmp_path
    ):
        store = FileStore(tmp_path / "evals")
        backend = DistributedBackend(store, timeout=30.0)

        def broken(point):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            backend.run(broken, make_points(1), fingerprints=["f0"])
        # The failed attempt went back to pending for other workers.
        record = queue_for_store(store).job("f0")
        assert record.status == "pending"
        assert record.error == "boom"
        backend.close()

    def test_timeout_bounds_stalls_not_total_time(self, tmp_path):
        # A long study with steady progress must never trip the
        # timeout: it re-arms on every point that lands.
        import threading

        store = FileStore(tmp_path / "evals")
        backend = DistributedBackend(
            store, cooperate=False, poll_interval=0.02, timeout=0.3
        )
        points = make_points(6)
        fingerprints = [f"slow{i}" for i in range(6)]
        handle = backend.submit(
            synthetic_evaluate, points, fingerprints=fingerprints
        )
        queue = queue_for_store(store)

        def slow_worker():
            # One job every 0.15s: total wall time (~0.9s) is far
            # past the 0.3s stall timeout, but no stall ever lasts
            # that long.
            while True:
                jobs = queue.lease("slow-but-steady", n=1)
                if not jobs:
                    return
                time.sleep(0.15)
                for job in jobs:
                    store.persist(job.job_id, synthetic_evaluate(job.point))
                    queue.complete("slow-but-steady", job.job_id)

        thread = threading.Thread(target=slow_worker)
        thread.start()
        results = handle.result()
        thread.join()
        assert len(results) == 6
        backend.close()

    def test_engine_skips_redundant_persist_of_published_results(
        self, tmp_path
    ):
        # The distributed backend already routed every result through
        # the cache's store; a second engine-side persist would be a
        # byte-identical duplicate write per point.
        store = SQLiteStore(tmp_path / "evals.sqlite")
        engine = EvaluationEngine(
            synthetic_evaluate, backend="distributed", cache=store
        )
        engine.map_points(make_points(5))
        assert len(store) == 5
        assert store.stats.persists == 5  # one write per point, not two
        engine.close()

    def test_timeout_names_the_missing_points(self, tmp_path):
        store = FileStore(tmp_path / "evals")
        backend = DistributedBackend(
            store, cooperate=False, poll_interval=0.01, timeout=0.1
        )
        with pytest.raises(ReproError, match="stalled"):
            backend.run(
                synthetic_evaluate, make_points(2), fingerprints=["a", "b"]
            )
        backend.close()

    def test_vanished_job_is_re_enqueued(self, tmp_path):
        store = FileStore(tmp_path / "evals")
        backend = DistributedBackend(
            store, cooperate=False, poll_interval=0.01, timeout=30.0
        )
        point = make_points(1)[0]
        handle = backend.submit(
            synthetic_evaluate, [point], fingerprints=["gone"]
        )
        queue = queue_for_store(store)
        # An over-eager operator purges the pending row out from
        # under the batch; the handle must put it back, after which a
        # worker completes it normally.
        assert queue.requeue("gone") is False
        (queue.directory / "gone.pending.json").unlink()
        resolver = {"done": False}

        import threading

        def finish():
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                jobs = queue.lease("late-worker", n=1)
                for job in jobs:
                    store.persist(job.job_id, synthetic_evaluate(job.point))
                    queue.complete("late-worker", job.job_id)
                    resolver["done"] = True
                    return
                time.sleep(0.01)

        thread = threading.Thread(target=finish)
        thread.start()
        results = handle.result()
        thread.join()
        assert resolver["done"]
        assert results[0][0] == synthetic_evaluate(point)
        backend.close()

    def test_describe_reports_the_substrate(self, tmp_path):
        store = SQLiteStore(tmp_path / "evals.sqlite")
        backend = DistributedBackend(store, cooperate=False)
        described = backend.describe()
        assert described["backend"] == "distributed"
        assert described["store"]["store"] == "sqlite"
        assert described["queue"]["queue"] == "sqlite"
        assert described["cooperate"] is False
        backend.close()
        store.close()

    def test_path_spec_store_is_owned_and_closed(self, tmp_path):
        backend = DistributedBackend(str(tmp_path / "evals.sqlite"))
        results = backend.run(
            synthetic_evaluate, make_points(2), fingerprints=["x", "y"]
        )
        assert len(results) == 2
        backend.close()
        # Closed store: a fresh one still sees the published entries.
        fresh = SQLiteStore(tmp_path / "evals.sqlite")
        assert fresh.peek("x") is not None
        fresh.close()


class TestDegradedFallback:
    """The substrate dies; the study does not."""

    def _dead_queue(self, tmp_path):
        # The first queue operation of any kind fails terminally — as
        # an unplugged NFS mount or deleted database would.
        plan = FaultPlan([FaultSpec("queue", "*", 1, "terminal")])
        return FaultyQueue(SQLiteWorkQueue(tmp_path / "queue.sqlite"), plan)

    def test_unreachable_queue_falls_back_in_process(self, tmp_path):
        store = SQLiteStore(tmp_path / "evals.sqlite")
        backend = DistributedBackend(
            store,
            queue=self._dead_queue(tmp_path),
            cooperate=False,
            timeout=30.0,
        )
        points = make_points(4)
        with pytest.warns(RuntimeWarning, match="degraded"):
            results = backend.run(
                synthetic_evaluate,
                points,
                fingerprints=[f"d{i}" for i in range(4)],
            )
        assert backend.queue_down is True
        assert backend.degraded_evaluations == 4
        for point, (responses, _) in zip(points, results):
            assert responses == synthetic_evaluate(point)
        # Degraded results still land in the store: a recovered
        # substrate (and every other submitter) reuses them.
        assert len(store) == 4
        backend.close()
        store.close()

    def test_fallback_disabled_propagates_the_queue_error(self, tmp_path):
        store = SQLiteStore(tmp_path / "evals.sqlite")
        backend = DistributedBackend(
            store,
            queue=self._dead_queue(tmp_path),
            cooperate=False,
            timeout=30.0,
            fallback=False,
        )
        with pytest.raises(OSError, match="injected terminal fault"):
            backend.run(
                synthetic_evaluate, make_points(2), fingerprints=["a", "b"]
            )
        backend.close()
        store.close()

    def test_no_progress_deadline_falls_back(self, tmp_path):
        # Healthy queue, but nobody is working it: after
        # ``fallback_after`` seconds without a single point landing
        # the submitter evaluates the remainder itself.
        store = SQLiteStore(tmp_path / "evals.sqlite")
        backend = DistributedBackend(
            store,
            cooperate=False,
            poll_interval=0.01,
            timeout=30.0,
            fallback_after=0.2,
        )
        points = make_points(3)
        with pytest.warns(RuntimeWarning, match="degraded"):
            results = backend.run(
                synthetic_evaluate,
                points,
                fingerprints=[f"n{i}" for i in range(3)],
            )
        assert backend.degraded_evaluations == 3
        for point, (responses, _) in zip(points, results):
            assert responses == synthetic_evaluate(point)
        backend.close()
        store.close()

    def test_stall_error_carries_a_queue_snapshot(self, tmp_path):
        store = FileStore(tmp_path / "evals")
        backend = DistributedBackend(
            store, cooperate=False, poll_interval=0.01, timeout=0.1
        )
        with pytest.raises(ReproError, match=r"queue snapshot: pending="):
            backend.run(
                synthetic_evaluate, make_points(2), fingerprints=["a", "b"]
            )
        backend.close()

    def test_engine_surfaces_degraded_evaluations(self, tmp_path):
        store = SQLiteStore(tmp_path / "evals.sqlite")
        backend = DistributedBackend(
            store,
            queue=self._dead_queue(tmp_path),
            cooperate=False,
            timeout=30.0,
        )
        engine = EvaluationEngine(
            synthetic_evaluate, backend=backend, cache=store
        )
        before = engine.stats_snapshot()
        assert before["degraded_evaluations"] == 0
        with pytest.warns(RuntimeWarning, match="degraded"):
            engine.map_points(make_points(3))
        stats = engine.stats()
        assert stats["degraded_evaluations"] == 3
        assert engine.stats_snapshot()["degraded_evaluations"] == 3
        engine.close()


class TestExplorerDistributed:
    def test_explorer_backend_param(self, tmp_path):
        import numpy as np

        from repro.core.doe.lhs import latin_hypercube
        from repro.core.explorer import DesignExplorer
        from repro.core.factors import DesignSpace, Factor

        space = DesignSpace(
            [Factor("a", -1.0, 1.0), Factor("b", 0.5, 4.0)]
        )
        design = latin_hypercube(8, 2, seed=3)
        serial = DesignExplorer(
            space, synthetic_evaluate, ["y1", "y2"]
        ).run_design(design)
        distributed = DesignExplorer(
            space,
            synthetic_evaluate,
            ["y1", "y2"],
            cache_store=str(tmp_path / "evals.sqlite"),
            backend="distributed",
        )
        result = distributed.run_design(design)
        for name in ("y1", "y2"):
            assert np.array_equal(
                serial.responses[name], result.responses[name]
            )
        assert result.exec_stats["backend"] == "distributed"
        distributed.close()

    def test_explorer_rejects_backend_with_ready_engine(self):
        from repro.core.explorer import DesignExplorer
        from repro.core.factors import DesignSpace, Factor
        from repro.errors import DesignError

        space = DesignSpace([Factor("a", -1.0, 1.0)])
        engine = EvaluationEngine(synthetic_evaluate, cache=False)
        with pytest.raises(DesignError):
            DesignExplorer(
                space,
                synthetic_evaluate,
                ["y1"],
                engine=engine,
                backend="thread",
            )
