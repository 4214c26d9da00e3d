"""The resilience primitives: retry, breaker, degrading wrappers.

Everything here runs on injected clocks and sleeps — the suite never
actually waits.  Determinism of the retry schedule matters beyond
test hygiene: the chaos harness replays runs fault-for-fault, and a
nondeterministic backoff would make "same seed, same outcome"
unprovable.
"""

import sqlite3
import warnings

import pytest

from repro.errors import (
    CircuitOpenError,
    ReproError,
    TransientQueueError,
    TransientStoreError,
    is_transient,
)
from repro.exec import (
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
    SQLiteWorkQueue,
)
from repro.exec.resilience import DEFAULT_RETRY, CircuitBreaker

FAST = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0, max_elapsed=None)


class _Clock:
    """A hand-cranked monotonic clock."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class _Breakable(MemoryStore):
    """A store with an off switch, for exercising degradation."""

    def __init__(self):
        super().__init__()
        self.broken = False
        self.fail_fingerprint = None

    def _check(self):
        if self.broken:
            raise OSError("disk on fire")

    def peek(self, fingerprint):
        self._check()
        return super().peek(fingerprint)

    def load_many(self, fingerprints):
        self._check()
        return super().load_many(fingerprints)

    def persist_many(self, entries, *, meta=None):
        self._check()
        for fingerprint, _ in entries:
            if fingerprint == self.fail_fingerprint:
                raise OSError(f"cannot write {fingerprint}")
        return super().persist_many(entries, meta=meta)

    def __len__(self):
        self._check()
        return super().__len__()

    def __contains__(self, fingerprint):
        self._check()
        return super().__contains__(fingerprint)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ReproError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError, match="delays"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ReproError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_schedule_is_deterministic(self):
        policy = RetryPolicy(max_attempts=6, seed=42)
        assert list(policy.delays()) == list(policy.delays())
        assert list(policy.delays()) != list(
            RetryPolicy(max_attempts=6, seed=43).delays()
        )

    def test_schedule_shape_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0,
            max_delay=0.5, jitter=0.0,
        )
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.4, 0.5])

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(max_attempts=8, base_delay=1.0, multiplier=1.0,
                             max_delay=1.0, jitter=0.25, seed=7)
        for delay in policy.delays():
            assert 0.75 <= delay <= 1.0

    def test_transients_retried_until_success(self):
        attempts = []
        retried = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientStoreError("busy")
            return "ok"

        slept = []
        result = FAST.call(
            flaky,
            sleep=slept.append,
            on_retry=lambda n, e: retried.append((n, str(e))),
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert len(slept) == 2
        assert [n for n, _ in retried] == [1, 2]

    def test_attempts_exhausted_raises_the_last_error(self):
        calls = []

        def always_busy():
            calls.append(1)
            raise TransientQueueError("still busy")

        with pytest.raises(TransientQueueError, match="still busy"):
            FAST.call(always_busy, sleep=lambda _: None)
        assert len(calls) == FAST.max_attempts

    def test_terminal_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            FAST.call(broken, sleep=lambda _: None)
        assert len(calls) == 1

    def test_max_elapsed_budget_cuts_retries_short(self):
        clock = _Clock()
        policy = RetryPolicy(
            max_attempts=10, base_delay=5.0, multiplier=1.0,
            max_delay=5.0, max_elapsed=12.0, jitter=0.0,
        )
        calls = []

        def busy():
            calls.append(1)
            raise TransientStoreError("busy")

        with pytest.raises(TransientStoreError):
            policy.call(busy, sleep=clock.advance, clock=clock)
        # 5 s + 5 s fits the 12 s budget; a third sleep would not.
        assert len(calls) == 3

    def test_classify_overrides_the_taxonomy(self):
        calls = []

        def odd_failure():
            calls.append(1)
            if len(calls) < 2:
                raise KeyError("transient in this domain")
            return "ok"

        result = FAST.call(
            odd_failure,
            classify=lambda e: isinstance(e, KeyError),
            sleep=lambda _: None,
        )
        assert result == "ok"

    def test_default_policy_is_bounded_below_lease_ttls(self):
        assert DEFAULT_RETRY.max_attempts == 4
        assert sum(DEFAULT_RETRY.delays()) < 10.0
        assert set(DEFAULT_RETRY.describe()) == {
            "max_attempts", "base_delay", "multiplier", "max_delay",
            "max_elapsed", "jitter", "seed",
        }

    def test_sqlite_lock_markers_classified_transient(self):
        assert is_transient(sqlite3.OperationalError("database is locked"))
        assert is_transient(TransientStoreError("x"))
        assert not is_transient(OSError("disk on fire"))
        assert not is_transient(ValueError("nope"))


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ReproError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ReproError):
            CircuitBreaker(reset_after=-1.0)

    def test_opens_after_threshold_and_fails_fast(self):
        clock = _Clock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_after=10.0, name="store", clock=clock
        )

        def boom():
            raise OSError("down")

        for _ in range(2):
            with pytest.raises(OSError):
                breaker.call(boom)
        assert breaker.state == "closed"
        with pytest.raises(OSError):
            breaker.call(boom)
        assert breaker.state == "open"
        assert breaker.trips == 1
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.call(lambda: "never runs")
        assert excinfo.value.retry_at == pytest.approx(10.0)

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=_Clock())
        with pytest.raises(OSError):
            breaker.call(lambda: (_ for _ in ()).throw(OSError("x")))
        assert breaker.call(lambda: "fine") == "fine"
        with pytest.raises(OSError):
            breaker.call(lambda: (_ for _ in ()).throw(OSError("x")))
        assert breaker.state == "closed"  # the streak was broken

    def test_half_open_admits_one_probe(self):
        clock = _Clock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else keeps failing fast

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = _Clock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        with pytest.raises(OSError):
            breaker.call(lambda: (_ for _ in ()).throw(OSError("still down")))
        assert breaker.state == "open"  # re-armed for another reset_after
        clock.advance(5.0)
        assert breaker.call(lambda: "recovered") == "recovered"
        assert breaker.state == "closed"
        assert breaker.describe()["state"] == "closed"


class TestResilientStore:
    def _store(self, inner=None, threshold=1):
        clock = _Clock()
        breaker = CircuitBreaker(
            failure_threshold=threshold, reset_after=10.0,
            name="test store", clock=clock,
        )
        store = ResilientStore(
            inner if inner is not None else _Breakable(),
            retry=FAST,
            breaker=breaker,
            sleep=lambda _: None,
        )
        return store, clock

    def test_transients_are_masked_invisibly(self):
        plan = FaultPlan(
            [
                FaultSpec("store", "persist_many", 1, "transient"),
                FaultSpec("store", "load_many", 1, "locked"),
            ]
        )
        store, _ = self._store(FaultyStore(MemoryStore(), plan))
        store.persist("fp", {"y": 1.0})
        assert store.load("fp") == {"y": 1.0}
        assert store.resilience.retried == 2
        assert not store.degraded
        assert store.breaker.trips == 0

    def test_terminal_failure_degrades_to_the_overlay(self):
        store, _ = self._store()
        store.persist("fp1", {"y": 1.0})
        store.inner.broken = True
        with pytest.warns(RuntimeWarning, match="memory-only"):
            store.persist("fp2", {"y": 2.0})
        assert store.degraded
        assert store.overlay_entries() == 1
        # Loads, membership and len are answered from the overlay.
        assert store.load("fp2") == {"y": 2.0}
        assert "fp2" in store
        assert len(store) == 1
        assert dict(store.items()) == {"fp2": {"y": 2.0}}
        assert store.resilience.degraded_ops >= 2

    def test_degraded_batches_answer_from_the_overlay(self):
        store, _ = self._store()
        store.persist("fp1", {"y": 1.0})
        store.inner.broken = True
        with pytest.warns(RuntimeWarning, match="memory-only"):
            store.persist_many(
                [("fp2", {"y": 2.0}), ("fp3", {"y": 3.0})]
            )
        assert store.degraded
        assert store.overlay_entries() == 2
        # fp1 is stranded behind the broken inner; the overlay serves
        # the rest of the batch without touching it.
        assert store.load_many(["fp1", "fp2", "fp3"]) == {
            "fp2": {"y": 2.0},
            "fp3": {"y": 3.0},
        }

    def test_load_many_merges_overlay_over_inner(self):
        store, clock = self._store()
        store.persist("fp1", {"y": 1.0})
        store.inner.broken = True
        with pytest.warns(RuntimeWarning, match="memory-only"):
            store.persist_many([("fp2", {"y": 2.0})])
        store.inner.broken = False
        clock.advance(60.0)  # past the breaker's reset window
        # The inner store answers fp1, the (not yet flushed or just
        # flushed) overlay answered fp2 — one call, both present, in
        # input order.
        found = store.load_many(["fp1", "fp2"])
        assert list(found) == ["fp1", "fp2"]
        assert found == {"fp1": {"y": 1.0}, "fp2": {"y": 2.0}}

    def test_degradation_warns_exactly_once(self):
        store, _ = self._store()
        store.inner.broken = True
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store.persist("fp1", {"y": 1.0})
            store.persist("fp2", {"y": 2.0})
            store.load("fp1")
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1

    def test_recovery_flushes_the_overlay(self):
        store, clock = self._store()
        store.inner.broken = True
        with pytest.warns(RuntimeWarning):
            store.persist("fpA", {"y": 1.0})
            store.persist("fpB", {"y": 2.0})
        assert store.overlay_entries() == 2
        store.inner.broken = False
        clock.advance(10.0)  # breaker half-open: next call probes
        assert store.load("fpA") == {"y": 1.0}
        assert store.overlay_entries() == 0
        assert not store.degraded
        assert store.inner.load("fpB") == {"y": 2.0}  # durable now
        assert store.resilience.recoveries == 1
        assert store.resilience.flushed == 2

    def test_partial_flush_keeps_the_remainder_safe(self):
        store, clock = self._store()
        store.inner.broken = True
        with pytest.warns(RuntimeWarning):
            store.persist("fpA", {"y": 1.0})
            store.persist("fpB", {"y": 2.0})
        store.inner.broken = False
        store.inner.fail_fingerprint = "fpB"  # recovery is itself flaky
        clock.advance(10.0)
        store.peek("fpA")
        assert store.resilience.flushed == 1
        assert store.resilience.recoveries == 0
        assert store.overlay_entries() == 1
        store.inner.fail_fingerprint = None
        store.peek("fpA")  # any successful op retries the flush
        assert store.overlay_entries() == 0
        assert store.resilience.recoveries == 1
        assert store.inner.load("fpB") == {"y": 2.0}

    def test_open_breaker_short_circuits_without_warning_again(self):
        store, _ = self._store()
        store.inner.broken = True
        with pytest.warns(RuntimeWarning):
            store.persist("fp", {"y": 1.0})
        calls_before = store.resilience.degraded_ops
        store.load("fp")  # breaker open: inner never touched
        assert store.resilience.degraded_ops == calls_before + 1

    def test_describe_reports_the_resilience_state(self):
        store, _ = self._store()
        described = store.describe()
        assert described["resilient"] is True
        assert described["degraded"] is False
        assert described["overlay_entries"] == 0
        assert described["breaker"]["state"] == "closed"
        assert described["resilience"]["retried"] == 0
        assert described["store"] == store.name

    def test_delegates_store_specific_surface(self, tmp_path):
        inner = FileStore(tmp_path / "s")
        store = ResilientStore(inner, retry=FAST, sleep=lambda _: None)
        assert store.directory == inner.directory
        assert store.stats is inner.stats
        store.close()


class TestResilientQueue:
    def test_transients_are_masked(self, tmp_path):
        plan = FaultPlan(
            [
                FaultSpec("queue", "submit", 1, "transient"),
                FaultSpec("queue", "lease", 1, "locked"),
                FaultSpec("queue", "complete_many", 1, "transient"),
            ]
        )
        queue = ResilientQueue(
            FaultyQueue(SQLiteWorkQueue(tmp_path / "q.sqlite"), plan),
            retry=FAST,
            sleep=lambda _: None,
        )
        assert queue.submit([Job("fp", {"a": 1.0})]) == 1
        leased = queue.lease("w1", n=1)
        assert [job.job_id for job in leased] == ["fp"]
        assert queue.complete("w1", "fp") is True
        assert queue.resilience.retried == 3
        assert queue.stats().done == 1
        assert queue.describe()["resilient"] is True
        queue.close()

    def test_exhausted_retries_propagate(self, tmp_path):
        plan = FaultPlan(
            [
                FaultSpec("queue", "submit", n, "transient")
                for n in range(1, 10)
            ]
        )
        queue = ResilientQueue(
            FaultyQueue(SQLiteWorkQueue(tmp_path / "q.sqlite"), plan),
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0,
                              max_elapsed=None),
            sleep=lambda _: None,
        )
        with pytest.raises(TransientQueueError):
            queue.submit([Job("fp", {"a": 1.0})])
        queue.close()
