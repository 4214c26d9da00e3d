"""A model-based oracle for the work-queue contract.

A Hypothesis :class:`RuleBasedStateMachine` drives every queue stack
at once — :class:`SQLiteWorkQueue` and :class:`FileWorkQueue`, each
plain, under an empty-plan :class:`FaultyQueue` and under a
:class:`ResilientQueue` — through random sequences of submit, lease,
complete (single and batched), fail (single and batched), heartbeat,
reclaim and requeue calls, with the clock injected through ``now=``.
A pure dict model predicts every return value and every job record,
so after each step:

* no job is lost (every submitted job is still in every queue);
* no job is completed twice (between requeues);
* ``attempts <= max_attempts`` everywhere;
* both backends, under every wrapper, agree with the model and so
  with each other;
* ``transactions`` equals the model's count of public calls.

Two places where the backends are known to differ are steered around
rather than modelled, so the oracle checks their shared contract:

* a SQLite lease claims at most ``n`` runnable rows and an exhausted
  row spends one of them, while a file lease first reclaims *every*
  expired lease and keeps walking until ``n`` jobs are granted.  When
  an expired lease or an exhausted job is runnable, the ``lease`` rule
  asks for enough jobs to cover every runnable one, where both agree.
* a file lease runs a full :meth:`~FileWorkQueue.reclaim` first, which
  ticks its own transaction, so a file-queue lease costs two.
"""

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.exec import (
    FaultPlan,
    FaultyQueue,
    FileWorkQueue,
    Job,
    ResilientQueue,
    RetryPolicy,
    SQLiteWorkQueue,
)

MAX_ATTEMPTS = 2
WORKERS = ("w1", "w2")
FAST_RETRY = RetryPolicy(
    max_attempts=2, base_delay=0.0, max_delay=0.0, max_elapsed=None
)


@dataclass
class ModelJob:
    status: str = "pending"
    worker: str | None = None
    attempts: int = 0
    expires: float | None = None
    error: str | None = None
    seconds: float | None = None
    completed_at: float | None = None

    def observed(self) -> tuple:
        """The record fields every backend reports identically."""
        return (
            self.status,
            self.worker,
            self.attempts,
            self.error,
            self.expires if self.status == "leased" else None,
            self.seconds if self.status == "done" else None,
            self.completed_at if self.status == "done" else None,
        )


def _observed(record) -> tuple:
    return (
        record.status,
        record.worker_id,
        record.attempts,
        record.error,
        record.lease_expires_at if record.status == "leased" else None,
        record.seconds if record.status == "done" else None,
        record.completed_at if record.status == "done" else None,
    )


class QueueOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="queue-oracle-"))
        self.queues = {}
        for backend in ("sqlite", "file"):
            for wrapper in ("plain", "faulty", "resilient"):
                if backend == "sqlite":
                    inner = SQLiteWorkQueue(
                        self.root / f"{wrapper}.sqlite",
                        max_attempts=MAX_ATTEMPTS,
                    )
                else:
                    inner = FileWorkQueue(
                        self.root / f"{wrapper}-queue",
                        max_attempts=MAX_ATTEMPTS,
                    )
                if wrapper == "faulty":
                    queue = FaultyQueue(inner, FaultPlan())
                elif wrapper == "resilient":
                    queue = ResilientQueue(
                        inner, retry=FAST_RETRY, sleep=lambda _: None
                    )
                else:
                    queue = inner
                self.queues[(backend, wrapper)] = queue
        self.model: dict[str, ModelJob] = {}
        self.order: list[str] = []
        self.completions: dict[str, int] = {}
        self.now = 1000.0
        self.calls = 0
        self.leases = 0

    def teardown(self):
        for queue in self.queues.values():
            queue.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # -- helpers ---------------------------------------------------------------

    def _each(self, call):
        """Apply one call to every queue stack."""
        return {key: call(queue) for key, queue in self.queues.items()}

    def _job_ids(self):
        return st.sampled_from(self.order + ["ghost"])

    def _held(self, worker, job_id):
        job = self.model.get(job_id)
        return (
            job is not None
            and job.status == "leased"
            and job.worker == worker
        )

    def _complete(self, worker, job_id, seconds):
        if not self._held(worker, job_id):
            return False
        job = self.model[job_id]
        job.status = "done"
        job.completed_at = self.now
        job.seconds = seconds
        job.expires = None
        job.error = None
        self.completions[job_id] = self.completions.get(job_id, 0) + 1
        return True

    def _fail(self, worker, job_id, error):
        if not self._held(worker, job_id):
            return False
        job = self.model[job_id]
        job.status = "failed" if job.attempts >= MAX_ATTEMPTS else "pending"
        job.worker = None
        job.expires = None
        job.error = error or None
        return True

    # -- rules -----------------------------------------------------------------

    @rule(fresh=st.integers(1, 3), resubmit=st.booleans())
    def submit(self, fresh, resubmit):
        ids = [f"j{len(self.order) + i:03d}" for i in range(fresh)]
        if resubmit and self.order:
            ids.append(self.order[0])
        jobs = [Job(job_id, {"x": float(len(job_id))}) for job_id in ids]
        results = self._each(lambda q: q.submit(jobs))
        added = 0
        for job_id in ids:
            if job_id not in self.model:
                self.model[job_id] = ModelJob()
                self.order.append(job_id)
                added += 1
        self.calls += 1
        assert set(results.values()) == {added}, results

    @rule(
        worker=st.sampled_from(WORKERS),
        n=st.integers(1, 3),
        lease_seconds=st.sampled_from([0.0, 5.0, 50.0]),
    )
    def lease(self, worker, n, lease_seconds):
        runnable = [
            job_id
            for job_id in self.order
            if self.model[job_id].status == "pending"
            or (
                self.model[job_id].status == "leased"
                and self.model[job_id].expires < self.now
            )
        ]
        if any(
            self.model[job_id].status == "leased"
            or self.model[job_id].attempts >= MAX_ATTEMPTS
            for job_id in runnable
        ):
            n = max(n, len(runnable))
        claimed = []
        for job_id in runnable:
            if len(claimed) >= n:
                break
            job = self.model[job_id]
            if job.attempts >= MAX_ATTEMPTS:
                job.status = "failed"
                job.worker = None
                job.expires = None
                job.error = job.error or "lease attempts exhausted"
                continue
            job.status = "leased"
            job.worker = worker
            job.attempts += 1
            job.expires = self.now + lease_seconds
            claimed.append(job_id)
        results = self._each(
            lambda q: [
                job.job_id
                for job in q.lease(worker, n, lease_seconds, now=self.now)
            ]
        )
        self.calls += 1
        self.leases += 1
        for key, got in results.items():
            assert got == claimed, (key, got, claimed)

    @rule(data=st.data(), worker=st.sampled_from(WORKERS))
    def complete(self, data, worker):
        job_id = data.draw(self._job_ids())
        expected = self._complete(worker, job_id, 0.25)
        results = self._each(
            lambda q: q.complete(worker, job_id, seconds=0.25, now=self.now)
        )
        self.calls += 1
        assert set(results.values()) == {expected}, results

    @rule(data=st.data(), worker=st.sampled_from(WORKERS))
    def complete_many(self, data, worker):
        ids = data.draw(st.lists(self._job_ids(), min_size=1, max_size=4))
        pairs = [(job_id, 0.5 + i) for i, job_id in enumerate(ids)]
        expected = sum(
            self._complete(worker, job_id, seconds) for job_id, seconds in pairs
        )
        results = self._each(
            lambda q: q.complete_many(worker, pairs, now=self.now)
        )
        self.calls += 1
        assert set(results.values()) == {expected}, results

    @rule(
        data=st.data(),
        worker=st.sampled_from(WORKERS),
        error=st.sampled_from(["", "boom"]),
    )
    def fail(self, data, worker, error):
        job_id = data.draw(self._job_ids())
        expected = self._fail(worker, job_id, error)
        results = self._each(
            lambda q: q.fail(worker, job_id, error, now=self.now)
        )
        self.calls += 1
        assert set(results.values()) == {expected}, results

    @rule(data=st.data(), worker=st.sampled_from(WORKERS))
    def fail_many(self, data, worker):
        ids = data.draw(st.lists(self._job_ids(), min_size=1, max_size=3))
        pairs = [(job_id, f"err{i}") for i, job_id in enumerate(ids)]
        expected = sum(
            self._fail(worker, job_id, error) for job_id, error in pairs
        )
        results = self._each(
            lambda q: q.fail_many(worker, pairs, now=self.now)
        )
        self.calls += 1
        assert set(results.values()) == {expected}, results

    @rule(
        worker=st.sampled_from(WORKERS),
        lease_seconds=st.sampled_from([5.0, 50.0]),
    )
    def heartbeat(self, worker, lease_seconds):
        extended = 0
        for job in self.model.values():
            if job.status == "leased" and job.worker == worker:
                job.expires = self.now + lease_seconds
                extended += 1
        results = self._each(
            lambda q: q.heartbeat(worker, lease_seconds, now=self.now)
        )
        self.calls += 1
        assert set(results.values()) == {extended}, results

    @rule()
    def reclaim(self):
        reclaimed = 0
        for job in self.model.values():
            if job.status == "leased" and job.expires < self.now:
                job.status = "pending"
                job.worker = None
                job.expires = None
                reclaimed += 1
        results = self._each(lambda q: q.reclaim(now=self.now))
        self.calls += 1
        assert set(results.values()) == {reclaimed}, results

    @precondition(lambda self: bool(self.order))
    @rule(data=st.data())
    def requeue(self, data):
        job_id = data.draw(self._job_ids())
        job = self.model.get(job_id)
        expected = job is not None and job.status != "pending"
        if expected:
            self.model[job_id] = ModelJob()
            self.completions[job_id] = 0
        results = self._each(lambda q: q.requeue(job_id, now=self.now))
        self.calls += 1
        assert set(results.values()) == {expected}, results

    @rule(dt=st.sampled_from([1.0, 10.0, 60.0]))
    def advance_clock(self, dt):
        self.now += dt

    # -- invariants ------------------------------------------------------------

    @invariant()
    def transactions_count_public_calls(self):
        for (backend, wrapper), queue in self.queues.items():
            expected = self.calls + (self.leases if backend == "file" else 0)
            assert queue.transactions == expected, (
                backend, wrapper, queue.transactions, expected,
            )

    @invariant()
    def every_queue_matches_the_model(self):
        want = {job_id: job.observed() for job_id, job in self.model.items()}
        for key, queue in self.queues.items():
            records = list(queue.jobs())
            got = {record.job_id: _observed(record) for record in records}
            # No job lost, none invented, every record as modelled.
            assert got == want, key
            assert all(r.attempts <= MAX_ATTEMPTS for r in records), key
        # The jobs() scan above is one public call per queue.
        self.calls += 1

    @invariant()
    def no_job_completed_twice(self):
        assert all(count <= 1 for count in self.completions.values())


QueueOracle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestQueueOracle = QueueOracle.TestCase
