"""Resilience primitives for the store/queue/worker substrate.

Fault handling used to be scattered — lease TTLs in the queue, busy
timeouts in the store, ad-hoc ``try/except`` in the worker.  This
module centralizes the three primitives everything else composes:

* :class:`RetryPolicy` — exponential backoff with *seeded,
  deterministic* jitter and max-attempts / max-elapsed budgets.
  Transient failures (see :func:`repro.errors.is_transient`) are
  retried; terminal ones propagate immediately.  Determinism matters
  here the same way it does for simulations: a chaos run under a
  seeded :class:`~repro.exec.faults.FaultPlan` must replay its retry
  schedule exactly.
* :class:`CircuitBreaker` — a per-component trip switch.  After
  ``failure_threshold`` consecutive terminal failures the breaker
  opens and calls fail fast with
  :class:`~repro.errors.CircuitOpenError` instead of each paying the
  full failure latency; after ``reset_after`` seconds one probe call
  is allowed through (half-open) and a success closes it again.
* :class:`ResilientStore` / :class:`ResilientQueue` — transparent
  wrappers that apply a retry policy (and, for the store, a breaker
  plus graceful degradation) to every substrate call.  A persistently
  failing store degrades to a warn-once **memory overlay** mid-study
  instead of aborting: every persist lands in the overlay, loads are
  answered from it, and when the breaker's probe finds the real store
  healthy again the overlay is flushed back — results are never lost,
  only their persistence is deferred.

The wrappers delegate unknown attributes to the wrapped object, so
store-specific surface (``directory``, ``path``, ``partial_files``)
keeps working and the whole store/queue behavioural contract holds
through them (pinned by the fault-injection contract suites).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Iterator, Mapping, Sequence

from repro.errors import (
    CircuitOpenError,
    ReproError,
    is_transient,
)
from repro.exec.store import CacheStore, EntryMeta, MemoryStore, VerifyReport
from repro.exec.queue import Job, JobRecord, WorkQueue
from repro.obs.catalog import track_resilience
from repro.obs.events import emit_event


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded deterministic jitter.

    Attributes:
        max_attempts: total tries (first call included); 1 disables
            retrying.
        base_delay: sleep after the first failed attempt, seconds.
        multiplier: backoff growth per further attempt.
        max_delay: ceiling on any single sleep.
        max_elapsed: budget on *total* time spent inside
            :meth:`call` (sleeps included); once exceeded the last
            error propagates even if attempts remain.  None = no
            time budget.
        jitter: fraction of each delay randomized away (0.25 means
            each sleep is uniform in ``[0.75 d, d]``).  Jitter is
            drawn from a :class:`random.Random` seeded per
            :meth:`call`, so identical seeds replay identical
            schedules — chaos runs are reproducible.
        seed: jitter seed.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    max_elapsed: float | None = 30.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ReproError("retry delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError(
                f"jitter must be within [0, 1], got {self.jitter}"
            )

    def delays(self) -> Iterator[float]:
        """The deterministic sleep schedule between attempts."""
        rng = Random(self.seed)
        delay = self.base_delay
        for _ in range(max(self.max_attempts - 1, 0)):
            capped = min(delay, self.max_delay)
            yield capped * (1.0 - self.jitter * rng.random())
            delay *= self.multiplier

    def call(
        self,
        fn: Callable,
        *args,
        classify: Callable[[BaseException], bool] = is_transient,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        on_retry: Callable[[int, BaseException], None] | None = None,
        **kwargs,
    ):
        """Run ``fn``, retrying transient failures on the schedule.

        ``classify`` decides retryability (default
        :func:`repro.errors.is_transient`); terminal errors propagate
        from the failing attempt untouched.  ``on_retry(attempt,
        error)`` is invoked before each sleep — wrappers use it to
        count masked transients.
        """
        started = clock()
        schedule = self.delays()
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as error:
                if not classify(error):
                    raise
                delay = next(schedule, None)
                if delay is None:
                    raise
                if (
                    self.max_elapsed is not None
                    and clock() - started + delay > self.max_elapsed
                ):
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                sleep(delay)

    def describe(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "multiplier": self.multiplier,
            "max_delay": self.max_delay,
            "max_elapsed": self.max_elapsed,
            "jitter": self.jitter,
            "seed": self.seed,
        }


#: Retry policy for substrate traffic on the hot path: a few quick
#: attempts, bounded well under any lease TTL.
DEFAULT_RETRY = RetryPolicy()

#: Breaker states, in the conventional nomenclature.
BREAKER_STATES = ("closed", "open", "half-open")


class CircuitBreaker:
    """Trip switch over one failing component.

    Closed (normal): calls flow, consecutive failures are counted.
    Open: calls raise :class:`~repro.errors.CircuitOpenError`
    immediately.  Half-open: after ``reset_after`` seconds one probe
    call is allowed; success closes the breaker, failure re-opens it
    for another ``reset_after``.

    Args:
        failure_threshold: consecutive failures that open the breaker.
        reset_after: seconds the breaker stays open before a probe.
        name: label used in error messages.
        clock: time source (injectable for tests).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: float = 30.0,
        name: str = "component",
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ReproError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after < 0:
            raise ReproError(
                f"reset_after must be >= 0, got {reset_after}"
            )
        self.failure_threshold = failure_threshold
        self.reset_after = float(reset_after)
        self.name = name
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False
        self.trips = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.reset_after:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In the half-open state exactly one caller is admitted as the
        probe; others keep failing fast until it reports back.
        """
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._failures += 1
        self._probing = False
        if self._opened_at is not None or (
            self._failures >= self.failure_threshold
        ):
            if self._opened_at is None:
                self.trips += 1
                emit_event(
                    "breaker_trip",
                    component=self.name,
                    failures=self._failures,
                )
            self._opened_at = self._clock()

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` under the breaker's supervision."""
        if not self.allow():
            retry_at = (
                self._opened_at + self.reset_after
                if self._opened_at is not None
                else None
            )
            raise CircuitOpenError(
                f"{self.name} circuit is open after "
                f"{self._failures} consecutive failures",
                retry_at=retry_at,
            )
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.record_failure()
            raise
        self.record_success()
        return result

    def describe(self) -> dict:
        return {
            "state": self.state,
            "failures": self._failures,
            "failure_threshold": self.failure_threshold,
            "reset_after": self.reset_after,
            "trips": self.trips,
        }


@dataclass
class ResilienceStats:
    """What a resilient wrapper absorbed on behalf of its caller.

    Attributes:
        retried: transient failures masked by a successful retry.
        degraded_ops: operations served by the degraded path (the
            store's memory overlay) instead of the real component.
        recoveries: times the component came back and, for stores,
            the overlay was flushed into it.
        flushed: overlay entries written back on recovery.
    """

    retried: int = 0
    degraded_ops: int = 0
    recoveries: int = 0
    flushed: int = 0

    def as_dict(self) -> dict:
        return {
            "retried": self.retried,
            "degraded_ops": self.degraded_ops,
            "recoveries": self.recoveries,
            "flushed": self.flushed,
        }


class _ResilientBase:
    """Shared retry/delegation plumbing for the wrappers."""

    def __init__(
        self,
        inner,
        retry: RetryPolicy | None,
        sleep: Callable[[float], None],
    ):
        self._inner = inner
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self._sleep = sleep
        self.resilience = ResilienceStats()
        # Label the wrapper's telemetry by what it protects.
        self.component = getattr(inner, "name", type(inner).__name__)
        track_resilience(self)

    @property
    def inner(self):
        """The wrapped component (for tests and diagnostics)."""
        return self._inner

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        self.resilience.retried += 1

    def _retry_call(self, fn: Callable, *args, **kwargs):
        return self.retry.call(
            fn,
            *args,
            sleep=self._sleep,
            on_retry=self._count_retry,
            **kwargs,
        )

    def __getattr__(self, name: str):
        # Implementation-specific surface (directory, path,
        # partial_files, ...) passes straight through, so the wrapper
        # is drop-in anywhere the wrapped type was.
        return getattr(self._inner, name)


class ResilientStore(_ResilientBase, CacheStore):
    """A :class:`CacheStore` that retries, breaks and degrades.

    Every call is retried under ``retry``; terminal failures feed the
    breaker.  When the breaker opens the store *degrades* instead of
    aborting the study: a warning is emitted once, persists land in a
    process-local :class:`MemoryStore` overlay (so results are never
    lost — only their durability is deferred), and loads are answered
    from the overlay.  Once ``breaker.reset_after`` passes, the next
    call probes the real store; on success the overlay is flushed
    into it and normal service resumes.

    Args:
        inner: the real store.
        retry: transient-retry policy (default :data:`DEFAULT_RETRY`).
        breaker: trip switch (default: 5 failures / 30 s reset).
        sleep: injectable sleep for the retry schedule.
    """

    def __init__(
        self,
        inner: CacheStore,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        _ResilientBase.__init__(self, inner, retry, sleep)
        CacheStore.__init__(self)
        self.name = f"resilient[{inner.name}]"
        self.breaker = breaker or CircuitBreaker(name=f"{inner.name} store")
        self._overlay = MemoryStore()
        self._warned = False
        # Mirror the wrapped store's stats object so traffic counted
        # by the inner store is what callers (EvalCache) observe.
        self.stats = inner.stats

    # -- the degradation machinery ---------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether calls are currently served by the memory overlay."""
        return self.breaker.state != "closed"

    def overlay_entries(self) -> int:
        """Entries waiting in the overlay for the store to recover."""
        return len(self._overlay)

    def _warn_once(self, error: BaseException) -> None:
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"cache store {self._inner.name!r} is failing "
                f"({error}); degrading to a memory-only cache — "
                "results are preserved in process but will not "
                "persist until the store recovers",
                RuntimeWarning,
                stacklevel=3,
            )

    def _flush_overlay(self) -> None:
        if not len(self._overlay):
            return
        for fingerprint, responses in list(self._overlay.items()):
            meta = self._overlay.entry_meta(fingerprint)
            try:
                self._inner.persist(fingerprint, responses, meta=meta)
            # repro-lint: allow[REP105] flush is opportunistic; whatever failed stays in the overlay and persists are idempotent, so the next recovery retries it
            except BaseException:
                # The store flaked again mid-flush.  Whatever made it
                # across is durable; the rest stays in the overlay for
                # the next recovery — persists are idempotent, so a
                # partially flushed overlay is always safe to retry.
                return
            self._overlay.discard(fingerprint)
            self.resilience.flushed += 1
        self.resilience.recoveries += 1
        emit_event(
            "recovery",
            component=self.component,
            flushed=self.resilience.flushed,
        )

    def _guarded(self, fn: Callable, *args, fallback=None, **kwargs):
        """Run one store op under retry + breaker; on terminal
        failure degrade and return/execute the overlay fallback."""
        try:
            result = self.breaker.call(
                self._retry_call, fn, *args, **kwargs
            )
        except CircuitOpenError:
            self.resilience.degraded_ops += 1
            emit_event(
                "degraded_op",
                component=self.component,
                op=getattr(fn, "__name__", "?"),
                reason="circuit-open",
            )
            return fallback() if callable(fallback) else fallback
        # repro-lint: allow[REP105] degradation is the contract here: retry+breaker already classified via is_transient, terminal failures fall back to the overlay
        except BaseException as error:
            self._warn_once(error)
            self.resilience.degraded_ops += 1
            emit_event(
                "degraded_op",
                component=self.component,
                op=getattr(fn, "__name__", "?"),
                reason="store-failure",
            )
            return fallback() if callable(fallback) else fallback
        self._flush_overlay()
        return result

    # -- the CacheStore contract -----------------------------------------------

    def peek(self, fingerprint: str):
        overlaid = self._overlay.peek(fingerprint)
        result = self._guarded(
            self._inner.peek, fingerprint, fallback=None
        )
        return result if result is not None else overlaid

    def load_many(
        self, fingerprints: Sequence[str]
    ) -> dict[str, dict[str, float]]:
        if not fingerprints:
            return {}
        # Snapshot the overlay first: a half-open probe reads the
        # inner store *before* the recovery flush lands these entries,
        # so an overlay hit must win over an inner miss.
        overlaid = self._overlay.load_many(fingerprints)
        result = self._guarded(
            self._inner.load_many, fingerprints, fallback=None
        )
        if result is None:
            return overlaid
        if not overlaid:
            return result
        out: dict[str, dict[str, float]] = {}
        for fingerprint in dict.fromkeys(fingerprints):
            if fingerprint in result:
                out[fingerprint] = result[fingerprint]
            elif fingerprint in overlaid:
                out[fingerprint] = overlaid[fingerprint]
        return out

    def persist_many(
        self,
        entries: Sequence[tuple[str, Mapping[str, float]]],
        *,
        meta: Mapping[str, EntryMeta] | None = None,
    ) -> None:
        if not entries:
            return
        # Retry re-runs the whole batch; persists are idempotent
        # (INSERT OR REPLACE / atomic rename), so a mid-batch
        # transient neither loses nor double-applies entries.
        entries = list(entries)
        self._guarded(
            self._inner.persist_many,
            entries,
            meta=meta,
            fallback=lambda: self._overlay.persist_many(entries, meta=meta),
        )

    def discard(self, fingerprint: str) -> bool:
        overlaid = self._overlay.discard(fingerprint)
        dropped = self._guarded(
            self._inner.discard, fingerprint, fallback=False
        )
        return bool(dropped or overlaid)

    def clear(self) -> None:
        self._overlay.clear()
        self._guarded(self._inner.clear, fallback=None)

    def __len__(self) -> int:
        inner = self._guarded(self._inner.__len__, fallback=0)
        return int(inner) + (
            len(self._overlay) if self.degraded else 0
        )

    def __contains__(self, fingerprint: str) -> bool:
        if self.degraded and fingerprint in self._overlay:
            return True
        return bool(
            self._guarded(
                self._inner.__contains__, fingerprint, fallback=False
            )
        )

    def items(self):
        if self.degraded:
            yield from self._overlay.items()
            return
        yield from self._inner.items()

    def entries(self):
        if self.degraded:
            yield from self._overlay.entries()
            return
        yield from self._inner.entries()

    def entry_meta(self, fingerprint: str):
        if self.degraded:
            return self._overlay.entry_meta(fingerprint)
        return self._inner.entry_meta(fingerprint)

    def total_bytes(self) -> int:
        if self.degraded:
            return self._overlay.total_bytes()
        return self._inner.total_bytes()

    def verify(self, repair: bool = False) -> VerifyReport:
        if self.degraded:
            return self._overlay.verify(repair=repair)
        return self._inner.verify(repair=repair)

    def compact(self, *, grace_seconds: float = 60.0):
        report = self._inner.compact(grace_seconds=grace_seconds)
        return replace(report, store=self.name)

    def describe(self) -> dict:
        return {
            **self._inner.describe(),
            "store": self.name,
            "resilient": True,
            "degraded": self.degraded,
            "overlay_entries": self.overlay_entries(),
            "breaker": self.breaker.describe(),
            "resilience": self.resilience.as_dict(),
        }

    def close(self) -> None:
        self._inner.close()


class ResilientQueue(_ResilientBase, WorkQueue):
    """A :class:`WorkQueue` whose every call retries transients.

    The queue does not degrade the way the store does — work
    dispatch has no meaningful memory-only fallback (the
    :class:`~repro.exec.queue.DistributedBackend` owns that decision
    and falls back to in-process *evaluation* instead).  What the
    wrapper guarantees is that a briefly-locked database or a flaky
    filesystem never turns one lease/complete/heartbeat into a
    worker crash.
    """

    def __init__(
        self,
        inner: WorkQueue,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        # WorkQueue.__init__ is deliberately not called: its counters
        # would shadow __getattr__ delegation, and its metrics
        # registration would scrape the inner queue's work twice.
        # max_attempts and the counters read through to the inner queue.
        _ResilientBase.__init__(self, inner, retry, sleep)
        self.name = f"resilient[{inner.name}]"

    def submit(self, jobs: Sequence[Job]) -> int:
        return self._retry_call(self._inner.submit, jobs)

    def lease(
        self,
        worker_id: str,
        n: int = 1,
        lease_seconds: float = 60.0,
        now: float | None = None,
    ) -> list[Job]:
        return self._retry_call(
            self._inner.lease, worker_id, n, lease_seconds, now
        )

    def heartbeat(
        self,
        worker_id: str,
        lease_seconds: float = 60.0,
        now: float | None = None,
    ) -> int:
        return self._retry_call(
            self._inner.heartbeat, worker_id, lease_seconds, now
        )

    def complete_many(
        self,
        worker_id: str,
        completions: Sequence[tuple[str, float]],
        *,
        now: float | None = None,
    ) -> int:
        # A retried batch re-applies idempotently: jobs already
        # completed in the first attempt stay done and report False,
        # so the batch is neither lost nor double-applied.
        return self._retry_call(
            self._inner.complete_many, worker_id, list(completions), now=now
        )

    def fail_many(
        self,
        worker_id: str,
        failures: Sequence[tuple[str, str]],
        now: float | None = None,
    ) -> int:
        return self._retry_call(
            self._inner.fail_many, worker_id, list(failures), now
        )

    def reclaim(self, now: float | None = None) -> int:
        return self._retry_call(self._inner.reclaim, now)

    def requeue(self, job_id: str, now: float | None = None) -> bool:
        return self._retry_call(self._inner.requeue, job_id, now)

    def purge(
        self,
        statuses: Sequence[str] = ("done", "failed"),
        older_than_seconds: float = 0.0,
        now: float | None = None,
    ) -> int:
        return self._retry_call(
            self._inner.purge, statuses, older_than_seconds, now
        )

    def job(self, job_id: str) -> JobRecord | None:
        return self._retry_call(self._inner.job, job_id)

    def jobs(self):
        yield from self._retry_call(
            lambda: list(self._inner.jobs())
        )

    def __len__(self) -> int:
        return self._retry_call(self._inner.__len__)

    def stats(self, now: float | None = None):
        return self._retry_call(self._inner.stats, now)

    def describe(self) -> dict:
        return {
            **self._inner.describe(),
            "queue": self.name,
            "resilient": True,
            "resilience": self.resilience.as_dict(),
        }

    def close(self) -> None:
        self._inner.close()
