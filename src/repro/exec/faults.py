"""Deterministic fault injection for the store/queue substrate.

Resilience claims are worthless until something actually goes wrong,
and production faults refuse to show up on schedule.  This module
makes them show up on schedule: a :class:`FaultPlan` is a *seeded,
deterministic* list of faults ("the 3rd store persist raises
``database is locked``", "the 2nd queue lease is born expired"), and
:class:`FaultyStore` / :class:`FaultyQueue` are transparent wrappers
that execute the plan against a real store/queue while delegating
everything else untouched.

Two properties make the harness trustworthy:

* **Transparency** — with an empty plan the wrappers are behaviourally
  invisible, pinned by re-running the full store/queue contract suites
  through them (``tests/test_faults_contract.py``).
* **Determinism** — the schedule is a pure function of the plan's
  specs, and :meth:`FaultPlan.aggressive` derives its specs from a
  seed alone, so a chaos run can be replayed fault-for-fault.  The
  plan records everything it fires in :attr:`FaultPlan.fired` so a
  test can assert the chaos actually happened.

Fault kinds (:data:`FAULT_KINDS`):

``transient``
    Raise :class:`~repro.errors.TransientStoreError` /
    :class:`~repro.errors.TransientQueueError` — the substrate's own
    retryable taxonomy.
``locked``
    Raise ``sqlite3.OperationalError("database is locked")`` — the
    classic busy-SQLite shape, transient by message classification.
``terminal``
    Raise :class:`OSError` — a non-retryable failure, for exercising
    circuit breakers and store degradation.
``torn``
    Partial write on ``persist_many``: the first half of the batch
    lands, half the payload bytes of the next entry are written to its
    real blob path, then a transient error is raised as a real torn
    write would.  Stores already treat truncated blobs as misses, so
    the entry is re-persisted on retry or re-simulated on miss —
    never trusted.
``expire_lease``
    The lease is granted already expired (``lease_seconds=0``), so a
    reclaim immediately hands the same job to someone else — the
    double-evaluation hazard the store-peek guard must absorb.
``kill_worker``
    A marker for process-level harnesses (``benchmarks/chaos_smoke``):
    the wrappers never raise it; the harness reads it from the plan
    and SIGKILLs a live worker at that point.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass, replace
from random import Random
from typing import Iterator, Mapping, Sequence

from repro.errors import (
    ReproError,
    TransientQueueError,
    TransientStoreError,
)
from repro.exec.store import CacheStore, EntryMeta, VerifyReport
from repro.exec.queue import Job, JobRecord, WorkQueue

#: Everything a :class:`FaultSpec` may inject.
FAULT_KINDS = (
    "transient",
    "locked",
    "terminal",
    "torn",
    "expire_lease",
    "kill_worker",
)

#: Wrapper targets a spec can aim at.
FAULT_TARGETS = ("store", "queue", "worker")

#: The operations each target counts — what :class:`FaultyStore` and
#: :class:`FaultyQueue` tick, and the worker-kill marker's
#: ``evaluate``.  A spec may also name ``"*"`` (any operation).
FAULT_OPS = {
    "store": ("peek", "load_many", "persist_many", "discard", "clear"),
    "queue": (
        "submit",
        "lease",
        "complete_many",
        "fail_many",
        "heartbeat",
        "reclaim",
        "requeue",
        "purge",
    ),
    "worker": ("evaluate",),
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        target: ``"store"``, ``"queue"`` or ``"worker"``.
        op: operation name the fault rides on, one of the target's
            :data:`FAULT_OPS` (``"persist_many"``, ``"lease"``, ...);
            ``"*"`` matches any operation on the target.
        at: fire on the Nth matching call, 1-based, counted per
            ``(target, op)`` pattern.
        kind: one of :data:`FAULT_KINDS`.
    """

    target: str
    op: str
    at: int
    kind: str

    def __post_init__(self) -> None:
        if self.target not in FAULT_TARGETS:
            raise ReproError(
                f"unknown fault target {self.target!r}; "
                f"expected one of {FAULT_TARGETS}"
            )
        if self.op != "*" and self.op not in FAULT_OPS[self.target]:
            raise ReproError(
                f"unknown {self.target} fault op {self.op!r}; "
                f"expected '*' or one of {FAULT_OPS[self.target]}"
            )
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.at < 1:
            raise ReproError(f"fault index must be >= 1, got {self.at}")

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "op": self.op,
            "at": self.at,
            "kind": self.kind,
        }


class FaultPlan:
    """A deterministic schedule of faults.

    The plan counts operations per ``(target, op)`` as the wrappers
    report them; when a spec's index comes up the fault fires (each
    spec fires exactly once) and is logged in :attr:`fired`.  The
    plan is thread-safe — cooperating submitters and in-process
    worker threads may share one.

    Args:
        specs: the schedule.  An empty plan injects nothing, which is
            exactly as boring as it sounds — and proved so by the
            contract suites.
        seed: recorded provenance for plans built by
            :meth:`aggressive`.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int | None = None):
        self.specs = tuple(specs)
        self.seed = seed
        self.fired: list[dict] = []
        self._counts: dict[tuple[str, str], int] = {}
        self._spent: set[FaultSpec] = set()
        self._lock = threading.Lock()

    @classmethod
    def aggressive(
        cls,
        seed: int,
        *,
        store_ops: int = 6,
        queue_ops: int = 4,
        torn_writes: int = 1,
        lease_expiries: int = 1,
        worker_kills: int = 0,
        horizon: int = 40,
    ) -> "FaultPlan":
        """A seeded, hostile-but-survivable schedule.

        Scatters transient/locked faults over the first ``horizon``
        store and queue calls, plus torn writes, born-expired leases
        and optional worker-kill markers.  Same seed, same schedule —
        the chaos smoke's reproducibility assertion rests on this.
        """
        rng = Random(seed)
        specs: list[FaultSpec] = []
        for _ in range(store_ops):
            specs.append(
                FaultSpec(
                    "store",
                    rng.choice(("peek", "load_many", "persist_many")),
                    rng.randint(1, horizon),
                    rng.choice(("transient", "locked")),
                )
            )
        for _ in range(torn_writes):
            specs.append(
                FaultSpec(
                    "store", "persist_many", rng.randint(1, horizon), "torn"
                )
            )
        for _ in range(queue_ops):
            specs.append(
                FaultSpec(
                    "queue",
                    rng.choice(
                        ("submit", "lease", "complete_many", "heartbeat")
                    ),
                    rng.randint(1, horizon),
                    rng.choice(("transient", "locked")),
                )
            )
        for _ in range(lease_expiries):
            specs.append(
                FaultSpec(
                    "queue", "lease", rng.randint(1, horizon), "expire_lease"
                )
            )
        for _ in range(worker_kills):
            specs.append(
                FaultSpec(
                    "worker", "evaluate", rng.randint(1, horizon), "kill_worker"
                )
            )
        return cls(specs, seed=seed)

    def tick(self, target: str, op: str) -> FaultSpec | None:
        """Count one operation; return the spec that fires, if any."""
        with self._lock:
            for pattern in ((target, op), (target, "*")):
                self._counts[pattern] = self._counts.get(pattern, 0) + 1
            for spec in self.specs:
                if spec in self._spent or spec.target != target:
                    continue
                if spec.op not in (op, "*"):
                    continue
                if self._counts[(target, spec.op)] == spec.at:
                    self._spent.add(spec)
                    self.fired.append({**spec.as_dict(), "on_op": op})
                    return spec
            return None

    def kill_points(self) -> list[FaultSpec]:
        """The worker-kill markers, for process-level harnesses."""
        return [s for s in self.specs if s.kind == "kill_worker"]

    def remaining(self) -> int:
        """Specs that have not fired yet (kill markers excluded)."""
        return sum(
            1
            for s in self.specs
            if s not in self._spent and s.kind != "kill_worker"
        )

    def schedule(self) -> list[dict]:
        """The full schedule as data — two plans built from the same
        seed compare equal here."""
        return [s.as_dict() for s in self.specs]

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "specs": len(self.specs),
            "fired": len(self.fired),
        }


def _raise_store_fault(spec: FaultSpec, op: str) -> None:
    if spec.kind in ("transient", "torn"):
        raise TransientStoreError(
            f"injected {spec.kind} fault on store.{op} (#{spec.at})"
        )
    if spec.kind == "locked":
        raise sqlite3.OperationalError("database is locked")
    if spec.kind == "terminal":
        raise OSError(f"injected terminal fault on store.{op} (#{spec.at})")


def _raise_queue_fault(spec: FaultSpec, op: str) -> None:
    if spec.kind == "transient":
        raise TransientQueueError(
            f"injected transient fault on queue.{op} (#{spec.at})"
        )
    if spec.kind == "locked":
        raise sqlite3.OperationalError("database is locked")
    if spec.kind == "terminal":
        raise OSError(f"injected terminal fault on queue.{op} (#{spec.at})")


class FaultyStore(CacheStore):
    """A :class:`CacheStore` that executes a :class:`FaultPlan`.

    Faults fire *before* the delegated call (the operation is lost,
    as with a real error), except on ``persist_many``, where the first
    half of the batch lands before the error.  ``torn`` then also
    leaves a half-written blob for the next entry when the wrapped
    store is file-backed — the nastier failure, because a corpse is
    left on disk for ``load``/``verify`` to distrust.
    """

    def __init__(self, inner: CacheStore, plan: FaultPlan):
        super().__init__()
        self._inner = inner
        self.plan = plan
        self.name = f"faulty[{inner.name}]"
        self.stats = inner.stats

    @property
    def inner(self) -> CacheStore:
        return self._inner

    def __getattr__(self, name: str):
        # Store-specific surface (directory, path, _conn, ...) passes
        # through so contract-suite corruption hooks keep working.
        return getattr(self._inner, name)

    def _fault(self, op: str) -> None:
        spec = self.plan.tick("store", op)
        if spec is not None:
            _raise_store_fault(spec, op)

    # -- CacheStore contract, fault check first, then delegate -----------------

    def peek(self, fingerprint: str):
        self._fault("peek")
        return self._inner.peek(fingerprint)

    def load_many(
        self, fingerprints: Sequence[str]
    ) -> dict[str, dict[str, float]]:
        self._fault("load_many")
        return self._inner.load_many(fingerprints)

    def persist_many(
        self,
        entries: Sequence[tuple[str, Mapping[str, float]]],
        *,
        meta: Mapping[str, EntryMeta] | None = None,
    ) -> None:
        entries = list(entries)
        spec = self.plan.tick("store", "persist_many")
        if spec is not None:
            # A mid-batch failure: the first half of the batch
            # genuinely lands before the error surfaces, so retries
            # must be idempotent to neither lose nor double-apply.
            landed = len(entries) // 2
            self._inner.persist_many(entries[:landed], meta=meta)
            if (
                spec.kind == "torn"
                and landed < len(entries)
                and hasattr(self._inner, "_path")
            ):
                # Leave a genuinely torn blob behind before failing.
                fingerprint, responses = entries[landed]
                payload = json.dumps(
                    {"fingerprint": fingerprint, "responses": dict(responses)}
                )
                self._inner._path(fingerprint).write_text(
                    payload[: max(len(payload) // 2, 1)]
                )
            _raise_store_fault(spec, "persist_many")
        self._inner.persist_many(entries, meta=meta)

    def discard(self, fingerprint: str) -> bool:
        self._fault("discard")
        return self._inner.discard(fingerprint)

    def clear(self) -> None:
        self._fault("clear")
        self._inner.clear()

    def __len__(self) -> int:
        return len(self._inner)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._inner

    def items(self):
        yield from self._inner.items()

    def entries(self):
        yield from self._inner.entries()

    def entry_meta(self, fingerprint: str):
        return self._inner.entry_meta(fingerprint)

    def total_bytes(self) -> int:
        return self._inner.total_bytes()

    def verify(self, repair: bool = False) -> VerifyReport:
        return self._inner.verify(repair=repair)

    def compact(self, *, grace_seconds: float = 60.0):
        report = self._inner.compact(grace_seconds=grace_seconds)
        return replace(report, store=self.name)

    def describe(self) -> dict:
        return {
            **self._inner.describe(),
            "store": self.name,
            "faulty": True,
            "fault_plan": self.plan.describe(),
        }

    def close(self) -> None:
        self._inner.close()


class FaultyQueue(WorkQueue):
    """A :class:`WorkQueue` that executes a :class:`FaultPlan`.

    ``expire_lease`` is special-cased on :meth:`lease`: instead of
    raising, the call succeeds with ``lease_seconds=0`` — the caller
    believes it holds a lease that any reclaim will immediately
    revoke, which is precisely how a stalled worker looks from the
    outside.
    """

    def __init__(self, inner: WorkQueue, plan: FaultPlan):
        # WorkQueue.__init__ is deliberately not called: its counters
        # would shadow __getattr__ delegation, and its metrics
        # registration would scrape the inner queue's work twice.
        # max_attempts and the counters read through to the inner queue.
        self._inner = inner
        self.plan = plan
        self.name = f"faulty[{inner.name}]"

    @property
    def inner(self) -> WorkQueue:
        return self._inner

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def _fault(self, op: str) -> FaultSpec | None:
        spec = self.plan.tick("queue", op)
        if spec is None:
            return None
        if spec.kind == "expire_lease":
            return spec
        _raise_queue_fault(spec, op)
        return None

    def submit(self, jobs: Sequence[Job]) -> int:
        self._fault("submit")
        return self._inner.submit(jobs)

    def lease(
        self,
        worker_id: str,
        n: int = 1,
        lease_seconds: float = 60.0,
        now: float | None = None,
    ) -> list[Job]:
        spec = self._fault("lease")
        if spec is not None and spec.kind == "expire_lease":
            lease_seconds = 0.0
        return self._inner.lease(worker_id, n, lease_seconds, now)

    def heartbeat(
        self,
        worker_id: str,
        lease_seconds: float = 60.0,
        now: float | None = None,
    ) -> int:
        self._fault("heartbeat")
        return self._inner.heartbeat(worker_id, lease_seconds, now)

    def complete_many(
        self,
        worker_id: str,
        completions: Sequence[tuple[str, float]],
        *,
        now: float | None = None,
    ) -> int:
        completions = list(completions)
        spec = self.plan.tick("queue", "complete_many")
        if spec is not None and spec.kind != "expire_lease":
            # Mid-batch failure: the first half genuinely completes
            # before the error, exercising idempotent re-application.
            self._inner.complete_many(
                worker_id, completions[: len(completions) // 2], now=now
            )
            _raise_queue_fault(spec, "complete_many")
        return self._inner.complete_many(worker_id, completions, now=now)

    def fail_many(
        self,
        worker_id: str,
        failures: Sequence[tuple[str, str]],
        now: float | None = None,
    ) -> int:
        self._fault("fail_many")
        return self._inner.fail_many(worker_id, failures, now)

    def reclaim(self, now: float | None = None) -> int:
        self._fault("reclaim")
        return self._inner.reclaim(now)

    def requeue(self, job_id: str, now: float | None = None) -> bool:
        self._fault("requeue")
        return self._inner.requeue(job_id, now)

    def purge(
        self,
        statuses: Sequence[str] = ("done", "failed"),
        older_than_seconds: float = 0.0,
        now: float | None = None,
    ) -> int:
        self._fault("purge")
        return self._inner.purge(statuses, older_than_seconds, now)

    def job(self, job_id: str) -> JobRecord | None:
        return self._inner.job(job_id)

    def jobs(self) -> Iterator[JobRecord]:
        yield from self._inner.jobs()

    def __len__(self) -> int:
        return len(self._inner)

    def stats(self, now: float | None = None):
        return self._inner.stats(now)

    def describe(self) -> dict:
        return {
            **self._inner.describe(),
            "queue": self.name,
            "faulty": True,
            "fault_plan": self.plan.describe(),
        }

    def close(self) -> None:
        self._inner.close()
