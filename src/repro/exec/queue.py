"""Durable work queues and the store-leased distributed backend.

A :class:`WorkQueue` is the dispatch half of the shared substrate the
persistent :class:`~repro.exec.store.CacheStore` began: submitters
enqueue design points as durable *jobs*, any number of workers —
other processes, other hosts — atomically :meth:`~WorkQueue.lease`
them, publish responses into the shared store, and
:meth:`~WorkQueue.complete` the job.  Leases carry a TTL and can be
:meth:`~WorkQueue.heartbeat`-extended; a worker that dies mid-lease
simply stops renewing, and its jobs are reclaimed for the survivors —
no point is ever lost, because every state transition is atomic and
evaluations are deterministic (the worst crash window duplicates an
evaluation whose payload is identical, never corrupts one).

Two implementations mirror the store pair:

* :class:`SQLiteWorkQueue` — a ``queue_jobs`` table in a WAL-mode
  database, which may be *the same file* as a
  :class:`~repro.exec.store.SQLiteStore`: one ``.sqlite`` path then
  carries both halves of the substrate.  Leasing is a single
  ``BEGIN IMMEDIATE`` transaction, and an expired lease is reclaimed
  by the next lease call automatically.
* :class:`FileWorkQueue` — one JSON file per job whose *filename*
  carries the status (``<job>.pending.json`` → ``.leased`` → ``.done``
  / ``.failed``); claims are exclusive because ``os.rename`` has
  exactly one winner.  Inside a store directory it lives in the
  ``.queue/`` subdirectory (dot-prefixed, so the file store never
  mistakes queue rows for cache blobs).

:func:`resolve_queue` maps one path spec to the right queue the same
way :func:`~repro.exec.store.resolve_store` does for stores, and
:func:`queue_for_store` derives the queue co-located with a store —
the topology every worker and submitter shares by just pointing at
one path.

:class:`DistributedBackend` is the execution side: ``submit`` checks
the shared store, enqueues the misses, and the returned handle
assembles ordered results as they appear in the store — optionally
*cooperating* (leasing and evaluating jobs itself while it waits), so
one process completes alone, and N processes running the same study
against one path split the work between them.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import time
import uuid
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.resilience import RetryPolicy

from repro.errors import ReproError
from repro.exec.backends import (
    EvaluationBackend,
    Evaluator,
    JobHandle,
    PointResult,
)
from repro.exec.sqlite_util import connect_wal
from repro.exec.store import CacheStore, FileStore, SQLiteStore, resolve_store
from repro.obs.catalog import track_queue
from repro.obs.events import emit_event

#: On-disk schema version of queue rows/files; a mismatched job is
#: marked failed (never silently evaluated under stale semantics).
QUEUE_SCHEMA_VERSION = 1

#: Subdirectory a file queue occupies inside a store directory.
QUEUE_SUBDIR = ".queue"

#: Every status a job can be in.  pending -> leased -> done, with
#: failed as the terminal state after ``max_attempts`` leases.
JOB_STATUSES = ("pending", "leased", "done", "failed")

#: Lease horizon assumed for a leased job whose record predates its
#: worker writing the lease stamp (a claim crashed mid-transition).
_FALLBACK_LEASE_SECONDS = 60.0


@dataclass
class Job:
    """One unit of work: evaluate a physical design point.

    ``job_id`` is the submitter's content-addressed identity for the
    point (the cache fingerprint), so the queue deduplicates
    concurrent submitters for free and workers publish results under
    exactly the key the submitter polls.
    """

    job_id: str
    point: dict[str, float]


@dataclass
class JobRecord:
    """One job's queue row, for inspection and the CLI.

    Attributes:
        job_id: content hash the job is filed under.
        status: one of :data:`JOB_STATUSES`.
        point: the payload (None when unreadable).
        worker_id: current/last lease holder.
        attempts: leases taken so far.
        enqueued_at / lease_expires_at / completed_at: epoch stamps.
        leased_at: when the current lease was granted (None on rows
            written before the column existed).
        heartbeat_at: the lease's most recent extension (falls back to
            ``leased_at`` when the worker has not heartbeat yet).
        seconds: evaluation wall time reported on completion.
        error: last failure message, if any.
    """

    job_id: str
    status: str
    point: dict[str, float] | None = None
    worker_id: str | None = None
    attempts: int = 0
    enqueued_at: float | None = None
    lease_expires_at: float | None = None
    completed_at: float | None = None
    seconds: float | None = None
    error: str | None = None
    leased_at: float | None = None
    heartbeat_at: float | None = None

    def as_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "status": self.status,
            "point": self.point,
            "worker_id": self.worker_id,
            "attempts": self.attempts,
            "enqueued_at": self.enqueued_at,
            "lease_expires_at": self.lease_expires_at,
            "completed_at": self.completed_at,
            "seconds": self.seconds,
            "error": self.error,
            "leased_at": self.leased_at,
            "heartbeat_at": self.heartbeat_at,
        }


@dataclass
class QueueStats:
    """Occupancy of one queue, by status.

    ``expired`` counts the subset of leased jobs whose lease has
    lapsed (reclaimable by the next lease/reclaim call); ``invalid``
    counts rows whose payload no longer decodes.
    """

    pending: int = 0
    leased: int = 0
    done: int = 0
    failed: int = 0
    expired: int = 0
    invalid: int = 0

    @property
    def total(self) -> int:
        return self.pending + self.leased + self.done + self.failed

    @property
    def outstanding(self) -> int:
        """Jobs not yet finished (pending + leased)."""
        return self.pending + self.leased

    def as_dict(self) -> dict:
        return {
            "pending": self.pending,
            "leased": self.leased,
            "done": self.done,
            "failed": self.failed,
            "expired": self.expired,
            "invalid": self.invalid,
            "total": self.total,
            "outstanding": self.outstanding,
        }


def _validate_point(payload: object) -> dict[str, float] | None:
    """A job's point from its decoded payload, or None."""
    if not isinstance(payload, dict):
        return None
    out: dict[str, float] = {}
    for name, value in payload.items():
        if not isinstance(name, str) or not isinstance(value, (int, float)):
            return None
        out[name] = float(value)
    return out


def default_worker_id() -> str:
    """A worker identity unique across hosts and processes."""
    import socket

    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class WorkQueue(ABC):
    """Durable, multi-process job queue over design points.

    The contract: :meth:`submit` deduplicates on ``job_id`` (a job
    already known in any status is not re-added), :meth:`lease`
    atomically claims up to ``n`` runnable jobs (pending ones plus
    leased ones whose TTL lapsed — reclamation is built into the
    claim), :meth:`complete`/:meth:`fail` only honour the current
    lease holder (a late call from a worker whose lease was reclaimed
    is a no-op returning False), and every transition is atomic, so a
    killed worker can delay a point but never lose one.

    Each queue implements the batched transitions
    (:meth:`complete_many` / :meth:`fail_many`), which fold a worker
    batch into one substrate round trip (one SQLite transaction) under
    the same laws everywhere: empty input touches nothing, each pair
    applies in order, and the return value counts transitions that
    actually happened.  :meth:`complete` and :meth:`fail` are
    one-job batches of them.

    Args:
        max_attempts: leases after which a job goes terminally
            ``failed`` instead of back to pending.

    Attributes:
        transactions: queue API round trips this instance issued —
            every public read or write call (a batched call counts 1
            however many jobs it carries).  Monotonic, surfaced as
            ``queue_transactions`` in engine/report stats so the
            amortization is observable.
        lease_grants: jobs handed out by :meth:`lease` calls on this
            instance (mirrored as ``repro_lease_grants_total``).
        lease_reclaims: expired leases this instance returned to
            pending — via :meth:`reclaim` or folded into a
            :meth:`lease` claim (``repro_lease_reclaims_total``).
    """

    name: str = "abstract"

    def __init__(self, max_attempts: int = 3):
        if max_attempts < 1:
            raise ReproError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.max_attempts = max_attempts
        self.transactions = 0
        self.lease_grants = 0
        self.lease_reclaims = 0
        track_queue(self)

    @abstractmethod
    def submit(self, jobs: Sequence[Job]) -> int:
        """Enqueue jobs; returns how many were actually new."""

    @abstractmethod
    def lease(
        self,
        worker_id: str,
        n: int = 1,
        lease_seconds: float = 60.0,
        now: float | None = None,
    ) -> list[Job]:
        """Atomically claim up to ``n`` runnable jobs for a worker."""

    @abstractmethod
    def heartbeat(
        self,
        worker_id: str,
        lease_seconds: float = 60.0,
        now: float | None = None,
    ) -> int:
        """Extend every lease a worker holds; returns how many."""

    # -- batched transitions ---------------------------------------------------

    @abstractmethod
    def complete_many(
        self,
        worker_id: str,
        completions: Sequence[tuple[str, float]],
        *,
        now: float | None = None,
    ) -> int:
        """Mark many leased jobs done in one call.

        ``completions`` is ``(job_id, seconds)`` pairs, applied in
        order; returns how many transitions the worker's lease still
        covered (a job whose lease the worker does not hold is left
        alone).
        """

    @abstractmethod
    def fail_many(
        self,
        worker_id: str,
        failures: Sequence[tuple[str, str]],
        now: float | None = None,
    ) -> int:
        """Record many failed attempts (``(job_id, error)`` pairs) in
        one call — each job back to pending, or terminally failed once
        ``max_attempts`` leases are spent; returns how many the
        worker's lease still covered."""

    def complete(
        self,
        worker_id: str,
        job_id: str,
        *,
        seconds: float = 0.0,
        now: float | None = None,
    ) -> bool:
        """Mark a leased job done; False if the lease is not held."""
        return self.complete_many(worker_id, [(job_id, seconds)], now=now) > 0

    def fail(
        self,
        worker_id: str,
        job_id: str,
        error: str = "",
        now: float | None = None,
    ) -> bool:
        """Record a failed attempt; False if the lease is not held."""
        return self.fail_many(worker_id, [(job_id, error)], now) > 0

    @abstractmethod
    def reclaim(self, now: float | None = None) -> int:
        """Return expired leases to pending; returns how many."""

    @abstractmethod
    def requeue(self, job_id: str, now: float | None = None) -> bool:
        """Force a non-pending job back to pending with fresh
        attempts (operator override; False if absent or pending)."""

    @abstractmethod
    def purge(
        self,
        statuses: Sequence[str] = ("done", "failed"),
        older_than_seconds: float = 0.0,
        now: float | None = None,
    ) -> int:
        """Drop finished rows older than a horizon; returns count."""

    @abstractmethod
    def job(self, job_id: str) -> JobRecord | None:
        """One job's record, or None."""

    @abstractmethod
    def jobs(self) -> Iterator[JobRecord]:
        """Iterate every job record."""

    @abstractmethod
    def __len__(self) -> int:
        """Total rows, all statuses."""

    def stats(self, now: float | None = None) -> QueueStats:
        """Occupancy by status (one scan)."""
        clock = time.time() if now is None else now
        stats = QueueStats()
        for record in self.jobs():
            if record.status == "pending":
                stats.pending += 1
            elif record.status == "leased":
                stats.leased += 1
                expiry = record.lease_expires_at
                if expiry is not None and expiry < clock:
                    stats.expired += 1
            elif record.status == "done":
                stats.done += 1
            elif record.status == "failed":
                stats.failed += 1
            if record.point is None:
                stats.invalid += 1
        return stats

    def worker_stats(
        self, now: float | None = None
    ) -> dict[str, dict[str, float | int | None]]:
        """Per-worker lease health, from one :meth:`jobs` scan.

        Returns ``{worker_id: {jobs_held, oldest_lease_age,
        last_heartbeat_age, next_expiry_in}}`` for every worker
        currently holding a lease.  Ages are seconds relative to
        ``now``; ``None`` where a row predates the ``leased_at`` /
        ``heartbeat_at`` stamps (queues written by older code).  A
        worker with a large ``last_heartbeat_age`` and small
        ``next_expiry_in`` is wedged and about to be reclaimed.
        """
        clock = time.time() if now is None else now
        out: dict[str, dict[str, float | int | None]] = {}
        for record in self.jobs():
            if record.status != "leased" or not record.worker_id:
                continue
            info = out.setdefault(
                record.worker_id,
                {
                    "jobs_held": 0,
                    "oldest_lease_age": None,
                    "last_heartbeat_age": None,
                    "next_expiry_in": None,
                },
            )
            info["jobs_held"] = int(info["jobs_held"] or 0) + 1
            if record.leased_at is not None:
                age = clock - record.leased_at
                prior = info["oldest_lease_age"]
                if prior is None or age > prior:
                    info["oldest_lease_age"] = age
            beat = (
                record.heartbeat_at
                if record.heartbeat_at is not None
                else record.leased_at
            )
            if beat is not None:
                beat_age = clock - beat
                prior = info["last_heartbeat_age"]
                if prior is None or beat_age < prior:
                    info["last_heartbeat_age"] = beat_age
            if record.lease_expires_at is not None:
                remaining = record.lease_expires_at - clock
                prior = info["next_expiry_in"]
                if prior is None or remaining < prior:
                    info["next_expiry_in"] = remaining
        return out

    def describe(self) -> dict:
        """Queue parameters for reports and manifests."""
        return {"queue": self.name, "max_attempts": self.max_attempts}

    def close(self) -> None:
        """Release held resources (connections); idempotent."""


class SQLiteWorkQueue(WorkQueue):
    """Job rows in a WAL-mode SQLite database.

    The ``queue_jobs`` table happily shares a database file with
    :class:`~repro.exec.store.SQLiteStore`'s ``evaluations`` table —
    one ``.sqlite`` path is then the whole distributed substrate
    (results + work).  Unlike the store, the queue never deletes a
    corrupt database (it may hold a healthy evaluations table it has
    no right to destroy); open errors propagate.

    Args:
        path: database file; parent directories are created.
        timeout: seconds a writer waits on a locked database.
        max_attempts: see :class:`WorkQueue`.
    """

    name = "sqlite"

    def __init__(
        self,
        path: str | os.PathLike,
        timeout: float = 30.0,
        max_attempts: int = 3,
    ):
        super().__init__(max_attempts=max_attempts)
        self.path = Path(path)
        self.timeout = float(timeout)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ReproError(
                f"cannot create queue directory {self.path.parent}: {error}"
            ) from error
        self._closed = False
        self._conn = self._open()

    def _open(self) -> sqlite3.Connection:
        # Autocommit mode: leasing needs an explicit BEGIN IMMEDIATE,
        # and sqlite3's implicit transactions would fight it.
        conn = connect_wal(
            self.path, timeout=self.timeout, autocommit=True
        )
        try:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS queue_jobs ("
                " job_id TEXT PRIMARY KEY,"
                " schema_version INTEGER NOT NULL,"
                " payload TEXT NOT NULL,"
                " status TEXT NOT NULL DEFAULT 'pending',"
                " worker_id TEXT,"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " enqueued_at REAL NOT NULL,"
                " lease_expires_at REAL,"
                " completed_at REAL,"
                " seconds REAL,"
                " error TEXT,"
                " leased_at REAL,"
                " heartbeat_at REAL)"
            )
            # In-place migration for databases created before the
            # lease-lifecycle stamps existed: ALTER TABLE is cheap
            # (no rewrite) and old rows read back as NULL.
            present = {
                row[1]
                for row in conn.execute("PRAGMA table_info(queue_jobs)")
            }
            for column in ("leased_at", "heartbeat_at"):
                if column not in present:
                    conn.execute(
                        f"ALTER TABLE queue_jobs ADD COLUMN {column} REAL"
                    )
            conn.execute(
                "CREATE INDEX IF NOT EXISTS queue_jobs_status"
                " ON queue_jobs (status, enqueued_at)"
            )
            # Covering index for the reclamation predicate
            # (status = 'leased' AND lease_expires_at < ?): without
            # it, every lease()/reclaim() walks the whole table once
            # done rows accumulate.  CREATE IF NOT EXISTS doubles as
            # the in-place migration for pre-existing queues.
            conn.execute(
                "CREATE INDEX IF NOT EXISTS queue_jobs_lease_expiry"
                " ON queue_jobs (status, lease_expires_at)"
            )
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def submit(self, jobs: Sequence[Job]) -> int:
        if not jobs:
            return 0
        self.transactions += 1
        now = time.time()
        rows = [
            (
                job.job_id,
                QUEUE_SCHEMA_VERSION,
                json.dumps(dict(job.point), sort_keys=True),
                now,
            )
            for job in jobs
        ]
        # One transaction for the whole batch (the connection is in
        # autocommit mode, which would otherwise commit per row);
        # INSERT OR IGNORE keeps submit idempotent per job_id, and
        # executemany's rowcount sums only the rows actually inserted.
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            cursor = self._conn.executemany(
                "INSERT OR IGNORE INTO queue_jobs"
                " (job_id, schema_version, payload, status, enqueued_at)"
                " VALUES (?, ?, ?, 'pending', ?)",
                rows,
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return max(cursor.rowcount, 0)

    def lease(
        self,
        worker_id: str,
        n: int = 1,
        lease_seconds: float = 60.0,
        now: float | None = None,
    ) -> list[Job]:
        if n < 1:
            raise ReproError(f"lease size must be >= 1, got {n}")
        self.transactions += 1
        clock = time.time() if now is None else now
        claimed: list[Job] = []
        reclaimed: list[tuple[str, str | None]] = []
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            rows = self._conn.execute(
                "SELECT job_id, schema_version, payload, attempts,"
                " status, worker_id"
                " FROM queue_jobs"
                " WHERE status = 'pending'"
                "    OR (status = 'leased' AND lease_expires_at < ?)"
                " ORDER BY enqueued_at, job_id LIMIT ?",
                (clock, n),
            ).fetchall()
            for job_id, schema_version, payload, attempts, status, holder in rows:
                if status == "leased":
                    # Claiming an expired lease *is* the reclamation.
                    reclaimed.append((job_id, holder))
                point = self._decode_payload(schema_version, payload)
                if point is None:
                    # Unreadable work is unrunnable work: fail it in
                    # place so it cannot wedge a drain loop.
                    self._conn.execute(
                        "UPDATE queue_jobs SET status = 'failed',"
                        " worker_id = NULL, lease_expires_at = NULL,"
                        " error = 'corrupt or mis-versioned payload'"
                        " WHERE job_id = ?",
                        (job_id,),
                    )
                    continue
                if attempts >= self.max_attempts:
                    # An expired lease that already spent its attempts
                    # goes terminal instead of cycling forever.
                    self._conn.execute(
                        "UPDATE queue_jobs SET status = 'failed',"
                        " worker_id = NULL, lease_expires_at = NULL,"
                        " error = COALESCE(error, 'lease attempts exhausted')"
                        " WHERE job_id = ?",
                        (job_id,),
                    )
                    continue
                self._conn.execute(
                    "UPDATE queue_jobs SET status = 'leased',"
                    " worker_id = ?, lease_expires_at = ?,"
                    " leased_at = ?, heartbeat_at = ?,"
                    " attempts = attempts + 1 WHERE job_id = ?",
                    (worker_id, clock + lease_seconds, clock, clock, job_id),
                )
                claimed.append(Job(job_id=job_id, point=point))
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        # Telemetry only after the transaction holds: the event log
        # must never record a claim that rolled back.
        self.lease_reclaims += len(reclaimed)
        for job_id, holder in reclaimed:
            emit_event(
                "lease_reclaim",
                queue=self.name,
                job_id=job_id,
                from_worker=holder,
                to_worker=worker_id,
            )
        if claimed:
            self.lease_grants += len(claimed)
            emit_event(
                "lease_grant",
                queue=self.name,
                worker=worker_id,
                jobs=len(claimed),
                reclaimed=len(reclaimed),
                lease_seconds=lease_seconds,
            )
        return claimed

    @staticmethod
    def _decode_payload(
        schema_version: int, payload: str
    ) -> dict[str, float] | None:
        if schema_version != QUEUE_SCHEMA_VERSION:
            return None
        try:
            decoded = json.loads(payload)
        except ValueError:
            return None
        return _validate_point(decoded)

    _COMPLETE_SQL = (
        "UPDATE queue_jobs SET status = 'done', completed_at = ?,"
        " seconds = ?, lease_expires_at = NULL, error = NULL"
        " WHERE job_id = ? AND status = 'leased' AND worker_id = ?"
    )

    _FAIL_SQL = (
        "UPDATE queue_jobs SET"
        " status = CASE WHEN attempts >= ? THEN 'failed'"
        "               ELSE 'pending' END,"
        " worker_id = NULL, lease_expires_at = NULL,"
        " leased_at = NULL, heartbeat_at = NULL, error = ?"
        " WHERE job_id = ? AND status = 'leased' AND worker_id = ?"
    )

    def complete_many(
        self,
        worker_id: str,
        completions: Sequence[tuple[str, float]],
        *,
        now: float | None = None,
    ) -> int:
        if not completions:
            return 0
        self.transactions += 1
        clock = time.time() if now is None else now
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            done = 0
            for job_id, seconds in completions:
                cursor = self._conn.execute(
                    self._COMPLETE_SQL, (clock, seconds, job_id, worker_id)
                )
                done += max(cursor.rowcount, 0)
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return done

    def fail_many(
        self,
        worker_id: str,
        failures: Sequence[tuple[str, str]],
        now: float | None = None,
    ) -> int:
        if not failures:
            return 0
        self.transactions += 1
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            failed = 0
            for job_id, error in failures:
                cursor = self._conn.execute(
                    self._FAIL_SQL,
                    (self.max_attempts, error or None, job_id, worker_id),
                )
                failed += max(cursor.rowcount, 0)
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return failed

    def heartbeat(
        self,
        worker_id: str,
        lease_seconds: float = 60.0,
        now: float | None = None,
    ) -> int:
        self.transactions += 1
        clock = time.time() if now is None else now
        cursor = self._conn.execute(
            "UPDATE queue_jobs SET lease_expires_at = ?, heartbeat_at = ?"
            " WHERE status = 'leased' AND worker_id = ?",
            (clock + lease_seconds, clock, worker_id),
        )
        return max(cursor.rowcount, 0)

    def reclaim(self, now: float | None = None) -> int:
        self.transactions += 1
        clock = time.time() if now is None else now
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            expired = self._conn.execute(
                "SELECT job_id, worker_id FROM queue_jobs"
                " WHERE status = 'leased' AND lease_expires_at < ?",
                (clock,),
            ).fetchall()
            self._conn.execute(
                "UPDATE queue_jobs SET status = 'pending',"
                " worker_id = NULL, lease_expires_at = NULL,"
                " leased_at = NULL, heartbeat_at = NULL"
                " WHERE status = 'leased' AND lease_expires_at < ?",
                (clock,),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self.lease_reclaims += len(expired)
        for job_id, holder in expired:
            emit_event(
                "lease_reclaim",
                queue=self.name,
                job_id=job_id,
                from_worker=holder,
                to_worker=None,
            )
        return len(expired)

    def requeue(self, job_id: str, now: float | None = None) -> bool:
        self.transactions += 1
        cursor = self._conn.execute(
            "UPDATE queue_jobs SET status = 'pending', worker_id = NULL,"
            " lease_expires_at = NULL, completed_at = NULL,"
            " seconds = NULL, error = NULL, attempts = 0,"
            " leased_at = NULL, heartbeat_at = NULL"
            " WHERE job_id = ? AND status != 'pending'",
            (job_id,),
        )
        return cursor.rowcount > 0

    def purge(
        self,
        statuses: Sequence[str] = ("done", "failed"),
        older_than_seconds: float = 0.0,
        now: float | None = None,
    ) -> int:
        self.transactions += 1
        clock = time.time() if now is None else now
        cutoff = clock - max(older_than_seconds, 0.0)
        marks = ",".join("?" for _ in statuses)
        cursor = self._conn.execute(
            f"DELETE FROM queue_jobs WHERE status IN ({marks})"
            " AND COALESCE(completed_at, enqueued_at) < ?",
            (*statuses, cutoff),
        )
        return max(cursor.rowcount, 0)

    _ROW_COLUMNS = (
        "job_id, schema_version, payload, status, worker_id, attempts,"
        " enqueued_at, lease_expires_at, completed_at, seconds, error,"
        " leased_at, heartbeat_at"
    )

    def _record(self, row: tuple) -> JobRecord:
        (
            job_id,
            schema_version,
            payload,
            status,
            worker_id,
            attempts,
            enqueued_at,
            lease_expires_at,
            completed_at,
            seconds,
            error,
            leased_at,
            heartbeat_at,
        ) = row
        return JobRecord(
            job_id=job_id,
            status=status,
            point=self._decode_payload(schema_version, payload),
            worker_id=worker_id,
            attempts=int(attempts or 0),
            enqueued_at=enqueued_at,
            lease_expires_at=lease_expires_at,
            completed_at=completed_at,
            seconds=seconds,
            error=error,
            leased_at=leased_at,
            heartbeat_at=heartbeat_at,
        )

    def job(self, job_id: str) -> JobRecord | None:
        self.transactions += 1
        row = self._conn.execute(
            f"SELECT {self._ROW_COLUMNS} FROM queue_jobs"
            " WHERE job_id = ?",
            (job_id,),
        ).fetchone()
        return self._record(row) if row is not None else None

    def jobs(self) -> Iterator[JobRecord]:
        self.transactions += 1
        rows = self._conn.execute(
            f"SELECT {self._ROW_COLUMNS} FROM queue_jobs"
            " ORDER BY enqueued_at, job_id"
        ).fetchall()
        for row in rows:
            yield self._record(row)

    def __len__(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM queue_jobs"
        ).fetchone()
        return int(row[0])

    def describe(self) -> dict:
        return {
            "queue": self.name,
            "path": str(self.path),
            "max_attempts": self.max_attempts,
        }

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._conn.close()

    # Mirror SQLiteStore: connections cannot pickle, paths can.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_conn"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._closed = False
        self._conn = self._open()


class FileWorkQueue(WorkQueue):
    """One JSON file per job; the filename carries the status.

    A job lives at ``<dir>/<job_id>.<status>.json`` and moves between
    statuses by ``os.rename`` — atomic on POSIX, with exactly one
    winner, which is the whole claim protocol: the worker that renames
    ``.pending`` to ``.claim`` owns the job, stamps its lease into the
    payload and renames on to ``.leased``.  A crash between those
    steps leaves a single file whose *content* status is ahead of its
    *name*; :meth:`reclaim` heals such strays (content wins), so the
    worst a kill can do is hand a deterministic evaluation to two
    workers — never lose it.

    Args:
        directory: queue root; created if absent.
        max_attempts: see :class:`WorkQueue`.
    """

    name = "file"

    def __init__(self, directory: str | os.PathLike, max_attempts: int = 3):
        super().__init__(max_attempts=max_attempts)
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ReproError(
                f"cannot create queue directory {self.directory}: {error}"
            ) from error

    # -- paths ---------------------------------------------------------------

    def _path(self, job_id: str, status: str) -> Path:
        return self.directory / f"{job_id}.{status}.json"

    @staticmethod
    def _parse_name(name: str) -> tuple[str, str] | None:
        if not name.endswith(".json") or name.startswith("."):
            return None
        stem = name[: -len(".json")]
        job_id, dot, status = stem.rpartition(".")
        if not dot or status not in (*JOB_STATUSES, "claim"):
            return None
        return job_id, status

    def _job_files(self) -> list[tuple[str, str, Path]]:
        out = []
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:  # pragma: no cover - directory raced away
            return []
        for name in names:
            parsed = self._parse_name(name)
            if parsed is not None:
                out.append((*parsed, self.directory / name))
        return out

    def _read(self, path: Path) -> dict | None:
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            not isinstance(blob, dict)
            or blob.get("schema") != QUEUE_SCHEMA_VERSION
        ):
            return None
        return blob

    def _write(self, path: Path, blob: Mapping) -> None:
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".write-", suffix=".part"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(blob, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _record_from(self, job_id: str, status: str, blob: dict | None) -> JobRecord:
        if blob is None:
            return JobRecord(job_id=job_id, status=status, point=None)
        return JobRecord(
            job_id=job_id,
            # Content status is the truth when a rename crashed
            # between the payload rewrite and the move.
            status=blob.get("status", status),
            point=_validate_point(blob.get("point")),
            worker_id=blob.get("worker_id"),
            attempts=int(blob.get("attempts") or 0),
            enqueued_at=blob.get("enqueued_at"),
            lease_expires_at=blob.get("lease_expires_at"),
            completed_at=blob.get("completed_at"),
            seconds=blob.get("seconds"),
            error=blob.get("error"),
            leased_at=blob.get("leased_at"),
            heartbeat_at=blob.get("heartbeat_at"),
        )

    # -- the queue contract --------------------------------------------------

    def submit(self, jobs: Sequence[Job]) -> int:
        if not jobs:
            return 0
        self.transactions += 1
        now = time.time()
        added = 0
        known = {job_id for job_id, _, _ in self._job_files()}
        for job in jobs:
            if job.job_id in known:
                continue
            self._write(
                self._path(job.job_id, "pending"),
                {
                    "schema": QUEUE_SCHEMA_VERSION,
                    "job_id": job.job_id,
                    "status": "pending",
                    "point": dict(job.point),
                    "attempts": 0,
                    "enqueued_at": now,
                },
            )
            known.add(job.job_id)
            added += 1
        return added

    def _transition(
        self, path_from: Path, blob: Mapping, status_to: str, job_id: str
    ) -> None:
        """Rewrite the payload in place, then rename to the new
        status.  A crash in between leaves content ahead of the name;
        reclaim() heals it by trusting the content."""
        self._write(path_from, blob)
        os.rename(path_from, self._path(job_id, status_to))

    def lease(
        self,
        worker_id: str,
        n: int = 1,
        lease_seconds: float = 60.0,
        now: float | None = None,
    ) -> list[Job]:
        if n < 1:
            raise ReproError(f"lease size must be >= 1, got {n}")
        self.transactions += 1
        clock = time.time() if now is None else now
        self.reclaim(now=clock)
        claimed: list[Job] = []
        for job_id, status, path in self._job_files():
            if len(claimed) >= n:
                break
            if status != "pending":
                continue
            claim_path = self._path(job_id, "claim")
            try:
                os.rename(path, claim_path)
            except OSError:
                continue  # another worker won this job
            try:
                os.utime(claim_path, times=(clock, clock))
            except OSError:  # pragma: no cover - claim raced away
                pass
            blob = self._read(claim_path)
            point = _validate_point(blob.get("point")) if blob else None
            if blob is None or point is None:
                self._transition(
                    claim_path,
                    {
                        **(blob or {"schema": QUEUE_SCHEMA_VERSION}),
                        "job_id": job_id,
                        "status": "failed",
                        "worker_id": None,
                        "lease_expires_at": None,
                        "error": "corrupt or mis-versioned payload",
                    },
                    "failed",
                    job_id,
                )
                continue
            attempts = int(blob.get("attempts") or 0)
            if attempts >= self.max_attempts:
                self._transition(
                    claim_path,
                    {
                        **blob,
                        "status": "failed",
                        "worker_id": None,
                        "lease_expires_at": None,
                        "error": blob.get("error")
                        or "lease attempts exhausted",
                    },
                    "failed",
                    job_id,
                )
                continue
            self._transition(
                claim_path,
                {
                    **blob,
                    "status": "leased",
                    "worker_id": worker_id,
                    "attempts": attempts + 1,
                    "lease_expires_at": clock + lease_seconds,
                    "leased_at": clock,
                    "heartbeat_at": clock,
                },
                "leased",
                job_id,
            )
            claimed.append(Job(job_id=job_id, point=point))
        if claimed:
            self.lease_grants += len(claimed)
            emit_event(
                "lease_grant",
                queue=self.name,
                worker=worker_id,
                jobs=len(claimed),
                lease_seconds=lease_seconds,
            )
        return claimed

    def _complete_one(
        self, worker_id: str, job_id: str, seconds: float, clock: float
    ) -> bool:
        path = self._path(job_id, "leased")
        blob = self._read(path)
        if blob is None or blob.get("worker_id") != worker_id:
            return False
        try:
            self._transition(
                path,
                {
                    **blob,
                    "status": "done",
                    "completed_at": clock,
                    "seconds": seconds,
                    "lease_expires_at": None,
                    "error": None,
                },
                "done",
                job_id,
            )
        except OSError:  # pragma: no cover - lease reclaimed mid-write
            return False
        return True

    def complete_many(
        self,
        worker_id: str,
        completions: Sequence[tuple[str, float]],
        *,
        now: float | None = None,
    ) -> int:
        # No transactions on a filesystem — the batch is still one
        # queue API round trip applied as per-job atomic renames.
        if not completions:
            return 0
        self.transactions += 1
        clock = time.time() if now is None else now
        done = 0
        for job_id, seconds in completions:
            if self._complete_one(worker_id, job_id, seconds, clock):
                done += 1
        return done

    def _fail_one(self, worker_id: str, job_id: str, error: str) -> bool:
        path = self._path(job_id, "leased")
        blob = self._read(path)
        if blob is None or blob.get("worker_id") != worker_id:
            return False
        attempts = int(blob.get("attempts") or 0)
        status = "failed" if attempts >= self.max_attempts else "pending"
        try:
            self._transition(
                path,
                {
                    **blob,
                    "status": status,
                    "worker_id": None,
                    "lease_expires_at": None,
                    "leased_at": None,
                    "heartbeat_at": None,
                    "error": error or None,
                },
                status,
                job_id,
            )
        except OSError:  # pragma: no cover - lease reclaimed mid-write
            return False
        return True

    def fail_many(
        self,
        worker_id: str,
        failures: Sequence[tuple[str, str]],
        now: float | None = None,
    ) -> int:
        if not failures:
            return 0
        self.transactions += 1
        failed = 0
        for job_id, error in failures:
            if self._fail_one(worker_id, job_id, error):
                failed += 1
        return failed

    def heartbeat(
        self,
        worker_id: str,
        lease_seconds: float = 60.0,
        now: float | None = None,
    ) -> int:
        self.transactions += 1
        clock = time.time() if now is None else now
        return self._extend_leases(worker_id, lease_seconds, clock)

    def _extend_leases(
        self, worker_id: str, lease_seconds: float, clock: float
    ) -> int:
        """One directory scan extending every lease the worker holds."""
        extended = 0
        for _job_id, status, path in self._job_files():
            if status != "leased":
                continue
            blob = self._read(path)
            if blob is None or blob.get("worker_id") != worker_id:
                continue
            self._write(
                path,
                {
                    **blob,
                    "lease_expires_at": clock + lease_seconds,
                    "heartbeat_at": clock,
                },
            )
            extended += 1
        return extended

    def reclaim(self, now: float | None = None) -> int:
        self.transactions += 1
        clock = time.time() if now is None else now
        reclaimed = 0
        for job_id, status, path in self._job_files():
            if status == "claim":
                # A claim older than the fallback lease belongs to a
                # worker that died between rename and stamp.
                try:
                    if path.stat().st_mtime < clock - _FALLBACK_LEASE_SECONDS:
                        os.rename(path, self._path(job_id, "pending"))
                        reclaimed += 1
                except OSError:  # pragma: no cover - claim resolved
                    pass
                continue
            if status != "leased":
                continue
            blob = self._read(path)
            if blob is None:
                continue  # unreadable; lease() will fail it on claim
            content_status = blob.get("status", status)
            if content_status in ("done", "failed", "pending"):
                # Heal a crashed transition: the content got ahead of
                # the filename; finish the rename it was owed.
                try:
                    os.rename(path, self._path(job_id, content_status))
                except OSError:  # pragma: no cover - raced away
                    pass
                continue
            expiry = blob.get("lease_expires_at")
            if expiry is None:
                try:
                    expiry = path.stat().st_mtime + _FALLBACK_LEASE_SECONDS
                except OSError:  # pragma: no cover - raced away
                    continue
            if expiry < clock:
                holder = blob.get("worker_id")
                try:
                    self._transition(
                        path,
                        {
                            **blob,
                            "status": "pending",
                            "worker_id": None,
                            "lease_expires_at": None,
                            "leased_at": None,
                            "heartbeat_at": None,
                        },
                        "pending",
                        job_id,
                    )
                except OSError:  # pragma: no cover - raced away
                    continue
                reclaimed += 1
                emit_event(
                    "lease_reclaim",
                    queue=self.name,
                    job_id=job_id,
                    from_worker=holder,
                    to_worker=None,
                )
        self.lease_reclaims += reclaimed
        return reclaimed

    def requeue(self, job_id: str, now: float | None = None) -> bool:
        self.transactions += 1
        for known_id, status, path in self._job_files():
            if known_id != job_id or status in ("pending", "claim"):
                continue
            blob = self._read(path)
            if blob is None:
                continue
            try:
                self._transition(
                    path,
                    {
                        **blob,
                        "status": "pending",
                        "worker_id": None,
                        "lease_expires_at": None,
                        "leased_at": None,
                        "heartbeat_at": None,
                        "completed_at": None,
                        "seconds": None,
                        "error": None,
                        "attempts": 0,
                    },
                    "pending",
                    job_id,
                )
            except OSError:  # pragma: no cover - raced away
                continue
            return True
        return False

    def purge(
        self,
        statuses: Sequence[str] = ("done", "failed"),
        older_than_seconds: float = 0.0,
        now: float | None = None,
    ) -> int:
        self.transactions += 1
        clock = time.time() if now is None else now
        cutoff = clock - max(older_than_seconds, 0.0)
        removed = 0
        for job_id, status, path in self._job_files():
            if status not in statuses:
                continue
            blob = self._read(path)
            stamp = None
            if blob is not None:
                stamp = blob.get("completed_at") or blob.get("enqueued_at")
            if stamp is None:
                try:
                    stamp = path.stat().st_mtime
                except OSError:  # pragma: no cover - raced away
                    continue
            if stamp >= cutoff:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced away
                continue
            removed += 1
        return removed

    def job(self, job_id: str) -> JobRecord | None:
        self.transactions += 1
        for known_id, status, path in self._job_files():
            if known_id == job_id:
                return self._record_from(job_id, status, self._read(path))
        return None

    def jobs(self) -> Iterator[JobRecord]:
        self.transactions += 1
        for job_id, status, path in self._job_files():
            yield self._record_from(job_id, status, self._read(path))

    def __len__(self) -> int:
        return len(self._job_files())

    def describe(self) -> dict:
        return {
            "queue": self.name,
            "directory": str(self.directory),
            "max_attempts": self.max_attempts,
        }


#: File suffixes that make :func:`resolve_queue` pick SQLite.
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def resolve_queue(
    spec: "WorkQueue | str | os.PathLike",
    max_attempts: int = 3,
) -> WorkQueue:
    """Build a queue from a path spec, or pass a ready one through.

    The spec convention mirrors :func:`~repro.exec.store.resolve_store`
    so *one path* names the whole substrate: a ``.sqlite``/``.db``
    path keeps queue rows in that database (beside the store's
    ``evaluations`` table), any other path is treated as a store
    directory whose queue lives in its ``.queue/`` subdirectory.
    """
    if isinstance(spec, WorkQueue):
        return spec
    path = Path(spec)
    if path.suffix.lower() in _SQLITE_SUFFIXES:
        return SQLiteWorkQueue(path, max_attempts=max_attempts)
    return FileWorkQueue(path / QUEUE_SUBDIR, max_attempts=max_attempts)


def queue_for_store(store: CacheStore, max_attempts: int = 3) -> WorkQueue:
    """The work queue co-located with a persistent store."""
    # Look through resilient/faulty wrappers: co-location is decided
    # by the real files underneath.
    while isinstance(getattr(store, "inner", None), CacheStore):
        store = store.inner
    if isinstance(store, SQLiteStore):
        return SQLiteWorkQueue(store.path, max_attempts=max_attempts)
    if isinstance(store, FileStore):
        return FileWorkQueue(
            store.directory / QUEUE_SUBDIR, max_attempts=max_attempts
        )
    raise ReproError(
        f"no work queue can be co-located with a {store.name!r} store; "
        "distributed evaluation needs a persistent (file or SQLite) store"
    )


class DistributedJobHandle(JobHandle):
    """A submitted batch resolving through the shared store.

    ``result()`` polls the store for the batch's fingerprints and, in
    cooperate mode, leases and evaluates queued jobs while it waits —
    the submitter is then just another worker, so a study completes
    even with zero external workers attached, and N submitters of the
    same study split its points between them.
    """

    def __init__(
        self,
        backend: "DistributedBackend",
        evaluate: Evaluator,
        fingerprints: Sequence[str],
        points: Sequence[Mapping[str, float]],
    ):
        self._backend = backend
        self._evaluate = evaluate
        self._fingerprints = list(fingerprints)
        self._point_for = {
            fp: dict(point)
            for fp, point in zip(self._fingerprints, points)
        }
        self._resolved: dict[str, PointResult] = {}
        self._results: list[PointResult] | None = None

    def done(self) -> bool:
        return self._results is not None

    def collected(self) -> bool:
        return self._results is not None

    def result(self) -> list[PointResult]:
        if self._results is not None:
            return self._results
        backend = self._backend
        unresolved = set(self._point_for) - set(self._resolved)
        deadline = (
            time.monotonic() + backend.timeout
            if backend.timeout is not None
            else None
        )
        fallback_at = (
            time.monotonic() + backend.fallback_after
            if backend.fallback_after is not None
            else None
        )
        idle_sleeps = 0
        while unresolved:
            if backend.queue_down:
                # The queue proved unreachable (here or at submit):
                # there is nothing to wait on — evaluate locally.
                self._evaluate_degraded(unresolved)
                break
            progress = self._poll_store(unresolved)
            if not unresolved:
                break
            if backend.cooperate:
                progress |= self._work_one_lease(unresolved)
            else:
                backend._queue_call(backend.queue.reclaim)
            if progress:
                # The timeout bounds *stalls*, not total study time:
                # as long as points keep landing, a long study must
                # not trip it — re-arm on every bit of progress.
                idle_sleeps = 0
                now = time.monotonic()
                if backend.timeout is not None:
                    deadline = now + backend.timeout
                if backend.fallback_after is not None:
                    fallback_at = now + backend.fallback_after
                continue
            # Only stalled ticks pay for the failure scan; a steadily
            # progressing batch never touches it, and a terminally
            # failed job stalls its fingerprint so the scan is
            # guaranteed to see it eventually.
            self._check_failures(unresolved)
            now = time.monotonic()
            if fallback_at is not None and now > fallback_at:
                # Nobody — local or remote — is moving the batch.
                # Unattended completion was asked for: stop waiting
                # on the fleet and finish the points ourselves.
                backend._warn_degraded(
                    f"no progress for {backend.fallback_after:.0f}s"
                )
                self._evaluate_degraded(unresolved)
                break
            if deadline is not None and now > deadline:
                missing = sorted(fp[:16] for fp in unresolved)
                raise ReproError(
                    f"distributed evaluation stalled for "
                    f"{backend.timeout:.0f}s with {len(unresolved)} "
                    f"points unresolved ({missing[:4]}...); are any "
                    f"repro-worker processes attached to the queue? "
                    f"[{backend.queue_snapshot()}]"
                )
            # Adaptive backoff: poll fast while points are landing
            # (idle_sleeps resets on progress), double the sleep per
            # idle tick up to poll_max so a quiet wait stops burning
            # store reads without missing a late worker by much.
            backend.poll_sleeps += 1
            time.sleep(
                min(
                    backend.poll_interval * (2.0 ** min(idle_sleeps, 16)),
                    backend.poll_max,
                )
            )
            idle_sleeps += 1
        self._results = [
            self._resolved[fp] for fp in self._fingerprints
        ]
        return self._results

    def _evaluate_degraded(self, unresolved: set[str]) -> None:
        """Finish the batch in-process: the distributed substrate is
        unavailable, but the evaluator is right here and results must
        not be.  Store persists stay best-effort (shared-cache
        citizenship); queue bookkeeping is skipped — a pending job a
        recovered worker later evaluates just persists an identical
        payload, which is the substrate's normal dedup story."""
        backend = self._backend
        for fp in list(unresolved):
            responses = backend._store_peek(fp)
            seconds = 0.0
            if responses is None:
                started = time.perf_counter()
                responses = dict(self._evaluate(self._point_for[fp]))
                seconds = time.perf_counter() - started
                backend.degraded_evaluations += 1
                backend._store_persist(fp, responses)
            self._resolved[fp] = (responses, seconds)
            unresolved.discard(fp)

    def _poll_store(self, unresolved: set[str]) -> bool:
        """Collect the fingerprints the store can now answer.

        One batched ``load_many`` answers the whole unresolved set —
        a peek per fingerprint would cost O(unresolved) store round
        trips per poll tick.  The per-point ``job()`` lookup for
        evaluation seconds happens once per point, on the tick it
        lands, never per poll.
        """
        backend = self._backend
        landed = backend._store_load_many(list(unresolved))
        seconds_for: dict[str, float] = {}
        if len(landed) > 1:
            # Several points landed on one tick: one jobs() scan
            # answers every seconds lookup instead of a queue round
            # trip per landed fingerprint.
            listed = backend._queue_call(
                lambda: list(backend.queue.jobs())
            )
            for record in listed or []:
                if record.seconds is not None:
                    seconds_for[record.job_id] = record.seconds
        elif landed:
            (fp,) = landed
            record = backend._queue_call(backend.queue.job, fp)
            if record is not None and record.seconds is not None:
                seconds_for[fp] = record.seconds
        for fp, responses in landed.items():
            self._resolved[fp] = (responses, seconds_for.get(fp, 0.0))
            unresolved.discard(fp)
        return bool(landed)

    def _work_one_lease(self, unresolved: set[str]) -> bool:
        """Lease and evaluate a batch of jobs (cooperate mode)."""
        backend = self._backend
        jobs = backend._queue_call(
            backend.queue.lease,
            backend.worker_id,
            n=backend.batch,
            lease_seconds=backend.lease_seconds,
        )
        if jobs is None:
            return False
        # A reclaimed lease may hand us jobs somebody already
        # finished (their lease expired *after* they persisted).
        # The store is the source of truth: one batched read answers
        # the whole lease, and nothing is ever evaluated twice.
        known = backend._store_load_many([job.job_id for job in jobs])
        done: list[tuple[str, float]] = []
        to_persist: list[tuple[str, Mapping[str, float]]] = []
        for job in jobs:
            responses = known.get(job.job_id)
            if responses is not None:
                done.append((job.job_id, 0.0))
                if job.job_id in unresolved:
                    self._resolved[job.job_id] = (responses, 0.0)
                    unresolved.discard(job.job_id)
                continue
            started = time.perf_counter()
            try:
                responses = dict(self._evaluate(job.point))
            except Exception as error:
                # Land the siblings evaluated so far before surfacing
                # the failure: their results exist and the store is
                # the substrate's source of truth for dedup.
                backend._store_persist_many(to_persist)
                backend._queue_call(
                    backend.queue.fail,
                    backend.worker_id,
                    job.job_id,
                    error=str(error),
                )
                raise
            seconds = time.perf_counter() - started
            to_persist.append((job.job_id, responses))
            done.append((job.job_id, seconds))
            if job.job_id in unresolved:
                self._resolved[job.job_id] = (responses, seconds)
                unresolved.discard(job.job_id)
        # One batched persist lands the whole lease — the per-job
        # variant cost one store round trip per evaluated point.
        backend._store_persist_many(to_persist)
        if done:
            backend._queue_call(
                backend.queue.complete_many,
                backend.worker_id,
                done,
            )
        return bool(jobs)

    def _check_failures(self, unresolved: set[str]) -> None:
        """Surface terminally failed jobs; re-enqueue vanished ones.

        One ``jobs()`` scan answers every unresolved fingerprint —
        per-fingerprint ``job()`` lookups would make each stalled
        tick O(queue size x unresolved) directory/table scans.
        """
        backend = self._backend
        listed = backend._queue_call(
            lambda: list(backend.queue.jobs())
        )
        if listed is None:
            return
        records = {record.job_id: record for record in listed}
        for fp in list(unresolved):
            record = records.get(fp)
            if record is None:
                # Purged (or never landed): the batch still owns the
                # point, so put it back rather than wait forever.
                backend._queue_call(
                    backend.queue.submit, [Job(fp, self._point_for[fp])]
                )
                continue
            if record.status == "failed":
                raise ReproError(
                    f"distributed job {fp[:16]}... failed after "
                    f"{record.attempts} attempts: "
                    f"{record.error or 'unknown error'}"
                )


class DistributedBackend(EvaluationBackend):
    """Evaluate through a shared store + durable work queue.

    ``submit`` answers what the store already knows, enqueues the
    misses (deduplicated against concurrent submitters by job id),
    and returns a handle that assembles ordered, bit-identical
    results as workers publish them.  Workers are plain
    ``repro-worker`` processes (:mod:`repro.exec.worker`) pointed at
    the same path — or, in cooperate mode (the default), the
    submitting process itself.

    Args:
        store: the shared :class:`~repro.exec.store.CacheStore`
            results travel through — a ready instance (caller-owned)
            or a path spec (resolved and owned here).  Must be
            persistent (file or SQLite).
        queue: the work queue — a ready instance (caller-owned), a
            path spec, or None to co-locate one with the store.
        cooperate: lease and evaluate jobs locally while waiting, so
            the submitter is itself a worker.  Set False to make the
            submitter wait purely on external workers.
        lease_seconds: lease TTL for cooperative/recovered leases.
        poll_interval: seconds between store polls when idle.
        timeout: give up after this many seconds *without progress*
            — the deadline re-arms every time a point lands, so it
            bounds stalls, never total study time (None waits
            forever).
        batch: jobs per cooperative lease.
        worker_id: identity for cooperative leases (default: a
            host/pid-unique string).
        max_attempts: lease attempts before a job fails terminally.
        retry: :class:`~repro.exec.resilience.RetryPolicy` applied to
            every queue operation (None: the default policy).
        fallback: degrade to *in-process* evaluation instead of
            raising when the queue is unreachable (submit or lease
            keeps failing past the retry budget).  The study then
            completes without distribution and reports how many
            points took that path in :attr:`degraded_evaluations`.
        fallback_after: seconds without *any* progress (no point
            landing in the store, no cooperative lease) before the
            handle stops waiting on workers and evaluates the
            remaining points in-process.  None (default) keeps the
            classic behaviour: wait until ``timeout`` and raise a
            stall error.  Set it when unattended completion matters
            more than distribution — e.g. an overnight campaign that
            must survive its whole worker fleet dying.
    """

    name = "distributed"

    #: Results come back already persisted in :attr:`store` (workers
    #: and cooperative leases publish through it); an engine caching
    #: into the same store can skip its own persist.
    publishes_results = True

    def __init__(
        self,
        store: CacheStore | str | os.PathLike,
        queue: WorkQueue | str | os.PathLike | None = None,
        *,
        cooperate: bool = True,
        lease_seconds: float = 60.0,
        poll_interval: float = 0.05,
        timeout: float | None = 600.0,
        batch: int = 1,
        worker_id: str | None = None,
        max_attempts: int = 3,
        retry: "RetryPolicy | None" = None,
        fallback: bool = True,
        fallback_after: float | None = None,
    ):
        super().__init__()
        if batch < 1:
            raise ReproError(f"batch must be >= 1, got {batch}")
        if lease_seconds <= 0:
            raise ReproError(
                f"lease_seconds must be > 0, got {lease_seconds}"
            )
        if fallback_after is not None and fallback_after <= 0:
            raise ReproError(
                f"fallback_after must be > 0, got {fallback_after}"
            )
        self._owns_store = not isinstance(store, CacheStore)
        self.store = resolve_store(store)
        # Resilient/faulty wrappers expose the wrapped store as
        # .inner — persistence is a property of what is underneath.
        innermost = self.store
        while isinstance(getattr(innermost, "inner", None), CacheStore):
            innermost = innermost.inner
        if not isinstance(innermost, (FileStore, SQLiteStore)):
            raise ReproError(
                "the distributed backend needs a persistent store "
                f"(file or SQLite), got {self.store.name!r}"
            )
        self._owns_queue = not isinstance(queue, WorkQueue)
        if queue is None:
            self.queue = queue_for_store(
                self.store, max_attempts=max_attempts
            )
        else:
            self.queue = resolve_queue(queue, max_attempts=max_attempts)
        self.cooperate = cooperate
        self.lease_seconds = float(lease_seconds)
        self.poll_interval = float(poll_interval)
        #: Ceiling for the adaptive idle backoff: polls start at
        #: ``poll_interval`` and double while nothing lands, capped
        #: here so a worker finishing late is still noticed quickly.
        self.poll_max = max(
            self.poll_interval, min(self.poll_interval * 20.0, 1.0)
        )
        self.timeout = timeout
        self.batch = batch
        self.worker_id = worker_id or default_worker_id()
        if retry is None:
            from repro.exec.resilience import DEFAULT_RETRY

            retry = DEFAULT_RETRY
        self.retry = retry
        self.fallback = fallback
        self.fallback_after = fallback_after
        #: Points evaluated in-process because the substrate was
        #: unavailable (queue unreachable, or no progress within
        #: ``fallback_after``).  Zero on a healthy run.
        self.degraded_evaluations = 0
        #: Idle sleeps taken while waiting for results to land — the
        #: per-layer cost of polling, made observable so benchmarks
        #: can gate the adaptive backoff.
        self.poll_sleeps = 0
        #: Latched once the queue proves unreachable; every handle
        #: then degrades immediately instead of re-paying the retry
        #: budget per call.
        self.queue_down = False
        self._warned_degraded = False
        self._warned_store = False

    # -- guarded substrate access ----------------------------------------------

    def _warn_degraded(self, why: str) -> None:
        if self._warned_degraded:
            return
        self._warned_degraded = True
        warnings.warn(
            f"distributed substrate degraded ({why}); evaluating "
            "remaining points in-process — results are unaffected, "
            "but this submitter is no longer distributing work",
            RuntimeWarning,
            stacklevel=3,
        )

    def _queue_call(self, fn, *args, **kwargs):
        """One queue op under the retry policy.

        Returns None — after latching :attr:`queue_down` — when the
        queue stays unreachable and :attr:`fallback` allows degrading;
        re-raises otherwise.
        """
        if self.queue_down:
            return None
        try:
            return self.retry.call(fn, *args, **kwargs)
        except (ReproError, sqlite3.Error, OSError) as error:
            if not self.fallback:
                raise
            self.queue_down = True
            self._warn_degraded(f"queue unreachable: {error}")
            return None

    def _store_peek(self, fingerprint: str):
        """Best-effort store peek: an unreadable store is a miss."""
        try:
            return self.retry.call(self.store.peek, fingerprint)
        # repro-lint: allow[REP105] best-effort peek; transients already retried by RetryPolicy, an unreadable store is a cache miss
        except Exception:
            return None

    def _store_load_many(
        self, fingerprints: Sequence[str]
    ) -> dict[str, dict[str, float]]:
        """Best-effort batched read: an unreadable store answers
        nothing and the caller treats every fingerprint as a miss."""
        if not fingerprints:
            return {}
        try:
            return self.retry.call(self.store.load_many, list(fingerprints))
        # repro-lint: allow[REP105] best-effort batched read; transients already retried by RetryPolicy, an unreadable store is a cache miss
        except Exception:
            return {}

    def _store_persist_many(
        self, entries: Sequence[tuple[str, Mapping[str, float]]]
    ) -> None:
        """Best-effort batched persist: one store round trip lands a
        whole lease of results.  A failing batch falls back to
        per-entry persists so one unlandable payload never costs the
        durability of its siblings."""
        if not entries:
            return
        try:
            self.retry.call(self.store.persist_many, entries)
            return
        # repro-lint: allow[REP105] batch persist transients already retried by RetryPolicy; residual failure falls back to per-entry persists, which carry their own one-time warning
        except Exception:
            pass
        for fingerprint, responses in entries:
            self._store_persist(fingerprint, responses)

    def _store_persist(self, fingerprint: str, responses) -> None:
        """Best-effort persist: the caller holds the responses, so a
        failing store costs durability, never the result."""
        try:
            self.retry.call(self.store.persist, fingerprint, responses)
        # repro-lint: allow[REP105] persist transients already retried by RetryPolicy; residual failure degrades durability with a one-time warning, the caller still holds the responses
        except Exception as error:
            if not self._warned_store:
                self._warned_store = True
                warnings.warn(
                    f"cache store persist failing ({error}); results "
                    "are held in memory for this study but are not "
                    "being shared through the store",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def queue_snapshot(self) -> str:
        """One-line queue state for stall post-mortems."""
        try:
            stats = self.queue.stats()
            now = time.time()
            oldest: float | None = None
            for record in self.queue.jobs():
                if record.status != "leased":
                    continue
                expires = record.lease_expires_at
                if expires is None:
                    continue
                # A lease's age is measured against its horizon:
                # negative margin means it has already expired.
                age = now - expires
                if oldest is None or age > oldest:
                    oldest = age
            lease = (
                "no leases outstanding"
                if oldest is None
                else (
                    f"oldest lease expired {oldest:.1f}s ago"
                    if oldest >= 0
                    else f"oldest lease expires in {-oldest:.1f}s"
                )
            )
            return (
                f"queue snapshot: pending={stats.pending} "
                f"leased={stats.leased} failed={stats.failed}, {lease}"
            )
        # repro-lint: allow[REP105] diagnostics only; a stall post-mortem snapshot must never raise over the stall it is describing
        except Exception as error:  # pragma: no cover - diagnostics only
            return f"queue snapshot unavailable: {error}"

    def _enqueue_misses(
        self,
        fingerprints: Sequence[str],
        points: Sequence[Mapping[str, float]],
    ) -> int:
        """Enqueue what the store cannot already answer.

        One batched ``load_many`` replaces a peek per fingerprint;
        the queue's job-id dedup absorbs concurrent submitters racing
        the same study.  Returns how many jobs were newly enqueued.
        """
        known = self._store_load_many(list(dict.fromkeys(fingerprints)))
        to_enqueue: dict[str, Mapping[str, float]] = {}
        for fp, point in zip(fingerprints, points):
            if fp in to_enqueue or fp in known:
                continue
            to_enqueue[fp] = point
        if not to_enqueue:
            return 0
        submitted = self._queue_call(
            self.queue.submit,
            [Job(fp, dict(point)) for fp, point in to_enqueue.items()],
        )
        return submitted if submitted is not None else 0

    def _submit(
        self,
        evaluate: Evaluator,
        points: Sequence[Mapping[str, float]],
        *,
        fingerprints: Sequence[str] | None = None,
    ) -> JobHandle:
        if fingerprints is None:
            from repro.exec.cache import point_fingerprint

            fingerprints = [point_fingerprint(point) for point in points]
        self._enqueue_misses(fingerprints, points)
        return DistributedJobHandle(self, evaluate, fingerprints, points)

    def prefetch(
        self,
        evaluate: Evaluator,
        points: Sequence[Mapping[str, float]],
        *,
        fingerprints: Sequence[str] | None = None,
    ) -> int:
        """Enqueue store-misses without tracking a handle.

        Fire-and-forget speculation: workers (or a later cooperating
        submit of the same points) evaluate and publish through the
        store, and whoever submits the points for real collects them
        from there.  Returns how many jobs were newly enqueued.
        """
        if fingerprints is None:
            from repro.exec.cache import point_fingerprint

            fingerprints = [point_fingerprint(point) for point in points]
        return self._enqueue_misses(fingerprints, points)

    @property
    def queue_transactions(self) -> int:
        """Queue API calls issued against this backend's queue."""
        return int(getattr(self.queue, "transactions", 0))

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "cooperate": self.cooperate,
            "lease_seconds": self.lease_seconds,
            "batch": self.batch,
            "worker_id": self.worker_id,
            "fallback": self.fallback,
            "fallback_after": self.fallback_after,
            "degraded_evaluations": self.degraded_evaluations,
            "poll_sleeps": self.poll_sleeps,
            "queue_transactions": self.queue_transactions,
            "queue_down": self.queue_down,
            "retry": self.retry.describe(),
            "store": self.store.describe(),
            "queue": self.queue.describe(),
        }

    def close(self) -> None:
        if self._owns_queue:
            self.queue.close()
        if self._owns_store:
            self.store.close()
