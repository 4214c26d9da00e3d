"""The ``repro-worker`` loop and CLI.

In-process tests drive :class:`repro.exec.worker.Worker` and
:func:`repro.exec.worker.main` directly (fast, coverage-friendly);
the subprocess tests start *real* ``python -m repro.exec.worker``
processes against a shared substrate — including one that is
SIGKILLed mid-lease to prove reclamation hands its points to the
survivor with nothing lost.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from backend_contract import make_points, synthetic_evaluate

from repro.errors import ReproError
from repro.exec import (
    DistributedBackend,
    FaultPlan,
    FaultSpec,
    FaultyStore,
    FileStore,
    Job,
    SQLiteStore,
    Worker,
    queue_for_store,
)
from repro.exec.worker import (
    EXIT_CRASH_LOOP,
    EXIT_EVALUATOR_CONFIG,
    Supervisor,
    _child_argv,
    load_evaluator,
    main,
)

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"


def _jobs(n=6):
    return [
        Job(f"fp{i:02d}", point)
        for i, point in enumerate(make_points(n))
    ]


def _substrate(tmp_path, kind="sqlite"):
    if kind == "sqlite":
        store = SQLiteStore(tmp_path / "evals.sqlite")
    else:
        store = FileStore(tmp_path / "evals")
    return store, queue_for_store(store)


class TestLoadEvaluator:
    def test_plain_factory(self):
        evaluate, batch = load_evaluator(
            "worker_eval_fixtures:make_synthetic"
        )
        assert batch is None
        point = make_points(1)[0]
        assert evaluate(point) == synthetic_evaluate(point)

    def test_toolkit_shaped_factory(self):
        evaluate, batch = load_evaluator("worker_eval_fixtures:make_batched")
        assert batch is not None
        point = make_points(1)[0]
        assert evaluate(point) == synthetic_evaluate(point)
        [(responses, seconds)] = batch([point])
        assert responses == synthetic_evaluate(point)
        assert seconds >= 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            "not-a-spec",
            "worker_eval_fixtures:absent",
            "no_such_module_xyz:factory",
            "worker_eval_fixtures:_synthetic",  # evaluator, not factory
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises((ReproError, TypeError)):
            load_evaluator(spec)


class TestWorkerLoop:
    @pytest.mark.parametrize("kind", ["sqlite", "file"])
    def test_drains_queue_and_publishes(self, kind, tmp_path):
        store, queue = _substrate(tmp_path, kind)
        jobs = _jobs(6)
        queue.submit(jobs)
        worker = Worker(
            store, queue, synthetic_evaluate, drain=True, batch=2
        )
        report = worker.run()
        assert report.jobs_completed == 6
        assert report.jobs_failed == 0
        assert report.leases == 3
        stats = queue.stats()
        assert stats.done == 6 and stats.outstanding == 0
        for job in jobs:
            assert store.peek(job.job_id) == synthetic_evaluate(job.point)

    def test_max_jobs_bounds_the_run(self, tmp_path):
        store, queue = _substrate(tmp_path)
        queue.submit(_jobs(6))
        report = Worker(
            store, queue, synthetic_evaluate, max_jobs=3, batch=1
        ).run()
        assert report.jobs_completed == 3
        assert queue.stats().pending == 3

    def test_idle_timeout_expires_on_an_empty_queue(self, tmp_path):
        store, queue = _substrate(tmp_path)
        started = time.perf_counter()
        report = Worker(
            store,
            queue,
            synthetic_evaluate,
            idle_timeout=0.2,
            poll_interval=0.02,
        ).run()
        assert report.jobs_completed == 0
        assert 0.15 < time.perf_counter() - started < 5.0

    def test_drain_with_idle_timeout_waits_for_work(self, tmp_path):
        # A worker started before the submitter must not mistake a
        # not-yet-fed queue for a drained one.
        import threading

        store, queue = _substrate(tmp_path)

        def feed_late():
            time.sleep(0.15)
            queue_for_store(store).submit(_jobs(2))

        thread = threading.Thread(target=feed_late)
        thread.start()
        report = Worker(
            store,
            queue,
            synthetic_evaluate,
            drain=True,
            idle_timeout=5.0,
            poll_interval=0.02,
        ).run()
        thread.join()
        assert report.jobs_completed == 2

    def test_evaluator_failure_fails_the_lease(self, tmp_path):
        store, queue = _substrate(tmp_path)
        queue.submit(_jobs(2))

        def broken(point):
            raise ValueError("synthetic failure")

        report = Worker(
            store, queue, broken, drain=True, batch=2
        ).run()
        # max_attempts leases, every one failing, then terminal.
        assert report.jobs_completed == 0
        assert report.jobs_failed == 2 * queue.max_attempts
        stats = queue.stats()
        assert stats.failed == 2 and stats.outstanding == 0
        assert queue.job("fp00").error == "synthetic failure"

    def test_poison_point_does_not_fail_its_batch_mates(self, tmp_path):
        # One always-failing point leased alongside a good one: the
        # batch falls back to per-job evaluation, the good point
        # completes, and only the poison one fails terminally.
        store, queue = _substrate(tmp_path)
        jobs = _jobs(2)
        queue.submit(jobs)
        poison_id = jobs[0].job_id

        def sometimes(point):
            if point == jobs[0].point:
                raise ValueError("poison")
            return synthetic_evaluate(point)

        report = Worker(
            store, queue, sometimes, drain=True, batch=2
        ).run()
        assert report.jobs_completed == 1
        assert report.jobs_failed == queue.max_attempts
        assert queue.job(poison_id).status == "failed"
        assert queue.job(jobs[1].job_id).status == "done"
        assert store.peek(jobs[1].job_id) == synthetic_evaluate(
            jobs[1].point
        )

    def test_persist_many_failure_falls_back_to_per_entry(self, tmp_path):
        # A dead batched publish must not fail jobs whose results can
        # still land one by one.
        inner = SQLiteStore(tmp_path / "evals.sqlite")
        store = FaultyStore(
            inner,
            FaultPlan([FaultSpec("store", "persist_many", 1, "terminal")]),
        )
        queue = queue_for_store(inner)
        jobs = _jobs(2)
        queue.submit(jobs)
        report = Worker(
            store, queue, synthetic_evaluate, drain=True, batch=2
        ).run()
        assert report.jobs_completed == 2
        assert report.jobs_failed == 0
        assert queue.stats().done == 2
        for job in jobs:
            assert inner.peek(job.job_id) == synthetic_evaluate(job.point)

    def test_unlandable_result_fails_only_its_own_job(self, tmp_path):
        # Batched publish dead AND one per-entry persist dead: the
        # healthy result completes, the stuck job goes back to
        # pending and heals on the next lease.
        inner = SQLiteStore(tmp_path / "evals.sqlite")
        store = FaultyStore(
            inner,
            FaultPlan(
                [
                    FaultSpec("store", "persist_many", 1, "terminal"),
                    # The first per-entry persist is a one-entry batch.
                    FaultSpec("store", "persist_many", 2, "terminal"),
                ]
            ),
        )
        queue = queue_for_store(inner)
        jobs = _jobs(2)
        queue.submit(jobs)
        report = Worker(
            store, queue, synthetic_evaluate, drain=True, batch=2
        ).run()
        # One failed attempt recorded; on the re-lease the batched
        # store read finds the half-batch the faulted persist_many
        # left behind and the job resolves as a skip — the store is
        # authoritative, nothing is evaluated or published twice.
        assert report.jobs_failed == 1
        assert report.jobs_completed + report.jobs_skipped == 2
        stats = queue.stats()
        assert stats.done == 2 and stats.failed == 0
        for job in jobs:
            assert inner.peek(job.job_id) == synthetic_evaluate(job.point)

    def test_drain_waits_despite_finished_rows_from_older_studies(
        self, tmp_path
    ):
        # A long-lived substrate holds yesterday's done rows; a
        # worker started before today's submitter must still wait
        # out its idle timeout for the new work.
        import threading

        store, queue = _substrate(tmp_path)
        queue.submit(_jobs(1))
        queue.lease("old-worker", n=1)
        queue.complete("old-worker", "fp00")  # stale history

        def feed_late():
            time.sleep(0.15)
            queue_for_store(store).submit(
                [Job("fresh", make_points(1)[0])]
            )

        thread = threading.Thread(target=feed_late)
        thread.start()
        report = Worker(
            store,
            queue,
            synthetic_evaluate,
            drain=True,
            idle_timeout=5.0,
            poll_interval=0.02,
        ).run()
        thread.join()
        assert report.jobs_completed == 1
        assert queue.job("fresh").status == "done"

    def test_batched_path_matches_per_point(self, tmp_path):
        store, queue = _substrate(tmp_path)
        jobs = _jobs(4)
        queue.submit(jobs)

        def batch(points):
            out = []
            for point in points:
                out.append((synthetic_evaluate(point), 0.125))
            return out

        report = Worker(
            store,
            queue,
            synthetic_evaluate,
            batch_evaluate=batch,
            drain=True,
            batch=4,
        ).run()
        assert report.jobs_completed == 4
        assert report.eval_seconds == pytest.approx(0.5)
        for job in jobs:
            assert store.peek(job.job_id) == synthetic_evaluate(job.point)

    def test_bad_batch_rejected(self, tmp_path):
        store, queue = _substrate(tmp_path)
        with pytest.raises(ReproError):
            Worker(store, queue, synthetic_evaluate, batch=0)


class _EpochClock:
    """A settable ``time.time`` stand-in anchored to real epoch time."""

    def __init__(self):
        self._now = time.time()

    def now(self):
        return self._now

    def advance(self, seconds):
        self._now += seconds


class TestLeaseHeartbeat:
    """A working worker's leases must outlive a slow batch.

    Regression: jobs were completed only at batch end with no
    heartbeat in between, so a batch slower than the lease TTL was
    reclaimed mid-flight — a second worker re-leased and re-evaluated
    points the first worker was actively integrating.
    """

    def test_lease_survives_batch_slower_than_ttl(self, tmp_path):
        store, queue = _substrate(tmp_path)
        jobs = _jobs(4)
        queue.submit(jobs)
        ttl = 10.0
        clock = _EpochClock()
        stolen = []

        def slow_batch(points, progress=None):
            # Each point takes 0.6 TTL: the whole batch takes 2.4x
            # the TTL.  A rival tries to lease after every point;
            # with heartbeats riding the progress hook it must never
            # get anything.
            out = []
            for point in points:
                clock.advance(0.6 * ttl)
                if progress is not None:
                    progress()
                stolen.extend(
                    queue.lease(
                        "rival", n=8, lease_seconds=ttl, now=clock.now()
                    )
                )
                out.append((synthetic_evaluate(point), 0.0))
            return out

        report = Worker(
            store,
            queue,
            synthetic_evaluate,
            batch_evaluate=slow_batch,
            batch=4,
            lease_seconds=ttl,
            clock=clock.now,
            max_jobs=4,
        ).run()
        assert stolen == []
        assert report.jobs_completed == 4
        for job in jobs:
            record = queue.job(job.job_id)
            assert record.status == "done"
            assert record.attempts == 1

    def test_per_point_path_heartbeats_between_points(self, tmp_path):
        store, queue = _substrate(tmp_path)
        jobs = _jobs(3)
        queue.submit(jobs)
        ttl = 10.0
        clock = _EpochClock()

        def slow_evaluate(point):
            clock.advance(0.6 * ttl)
            return synthetic_evaluate(point)

        report = Worker(
            store,
            queue,
            slow_evaluate,
            batch=3,
            lease_seconds=ttl,
            clock=clock.now,
            max_jobs=3,
        ).run()
        assert report.jobs_completed == 3
        for job in jobs:
            record = queue.job(job.job_id)
            assert record.status == "done"
            assert record.attempts == 1

    def test_heartbeat_is_throttled(self, tmp_path):
        store, queue = _substrate(tmp_path)
        queue.submit(_jobs(4))
        clock = _EpochClock()
        beats = []
        real_heartbeat = queue.heartbeat

        def counting_heartbeat(*args, **kwargs):
            beats.append(kwargs.get("now"))
            return real_heartbeat(*args, **kwargs)

        queue.heartbeat = counting_heartbeat
        Worker(
            store,
            queue,
            synthetic_evaluate,
            batch=4,
            lease_seconds=60.0,
            clock=clock.now,
            max_jobs=4,
        ).run()
        # Four instant points, fresh lease: no interval ever elapses.
        assert beats == []


class TestThrottleBeforeLease:
    """``--throttle`` must sleep *before* leasing, not after.

    Regression: the sleep sat between ``lease()`` and the evaluation,
    burning lease TTL doing nothing — with a throttle longer than the
    TTL, every lease expired before its batch started and rival
    workers (or the reclaimer) stole jobs from a perfectly healthy
    worker.
    """

    def test_throttled_leases_are_never_reclaimed(self, tmp_path):
        store, queue = _substrate(tmp_path)
        jobs = _jobs(2)
        queue.submit(jobs)
        ttl = 0.5
        stolen = []

        def spying_evaluate(point):
            # Runs right after the lease.  Had the 0.8s throttle
            # burned the 0.5s TTL first, this rival lease would
            # reclaim the whole batch.
            stolen.extend(
                queue.lease("rival", n=8, lease_seconds=60.0)
            )
            return synthetic_evaluate(point)

        report = Worker(
            store,
            queue,
            spying_evaluate,
            batch=2,
            lease_seconds=ttl,
            throttle=0.8,
            max_jobs=2,
        ).run()
        assert stolen == []
        assert report.jobs_completed == 2
        for job in jobs:
            record = queue.job(job.job_id)
            assert record.status == "done"
            assert record.attempts == 1


class TestWorkerCli:
    def test_main_drains_in_process(self, tmp_path, capsys):
        store, queue = _substrate(tmp_path)
        queue.submit(_jobs(3))
        store.close()
        queue.close()
        rc = main(
            [
                str(tmp_path / "evals.sqlite"),
                "--evaluator",
                "worker_eval_fixtures:make_synthetic",
                "--drain",
                "--batch",
                "2",
                "--json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["jobs_completed"] == 3
        fresh = SQLiteStore(tmp_path / "evals.sqlite")
        assert len(fresh) == 3
        fresh.close()

    def test_main_human_output_and_worker_id(self, tmp_path, capsys):
        store, queue = _substrate(tmp_path, "file")
        queue.submit(_jobs(1))
        rc = main(
            [
                str(tmp_path / "evals"),
                "--evaluator",
                "worker_eval_fixtures:make_batched",
                "--drain",
                "--worker-id",
                "w-test",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "w-test completed 1 jobs" in out
        assert queue_for_store(store).job("fp00").worker_id == "w-test"

    def test_main_separate_queue_path(self, tmp_path, capsys):
        from repro.exec import FileWorkQueue

        queue = FileWorkQueue(tmp_path / "standalone-queue")
        queue.submit(_jobs(2))
        rc = main(
            [
                str(tmp_path / "evals.sqlite"),
                "--evaluator",
                "worker_eval_fixtures:make_synthetic",
                "--queue",
                str(tmp_path / "standalone-queue"),
                "--drain",
                "--json",
            ]
        )
        assert rc == 0
        # --queue on a directory resolves its .queue/ subdirectory —
        # the same convention submitters use for store directories.
        inner = FileWorkQueue(tmp_path / "standalone-queue" / ".queue")
        assert inner.stats().done == 0
        report = json.loads(capsys.readouterr().out)
        assert report["jobs_completed"] == 0

    def test_main_bad_evaluator_is_an_operator_error(self, tmp_path, capsys):
        rc = main(
            [
                str(tmp_path / "evals.sqlite"),
                "--evaluator",
                "no_such_module_xyz:factory",
            ]
        )
        # Config errors get their own exit code and a one-line
        # structured reason, so supervisors never restart-loop a
        # worker that can never start.
        assert rc == EXIT_EVALUATOR_CONFIG
        err = capsys.readouterr().err
        assert "repro-worker:" in err
        line = err.splitlines()[0]
        payload = json.loads(line.split("repro-worker: ", 1)[1])
        assert payload["error"] == "evaluator-config"
        assert "no_such_module_xyz" in payload["reason"]


def _spawn_worker(store_path, *extra, evaluator="make_synthetic"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), str(TESTS_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.exec.worker",
            str(store_path),
            "--evaluator",
            f"worker_eval_fixtures:{evaluator}",
            "--json",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestWorkerSubprocess:
    def test_two_real_workers_drain_one_queue(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        store = SQLiteStore(path)
        queue = queue_for_store(store)
        jobs = _jobs(8)
        queue.submit(jobs)
        workers = [
            _spawn_worker(path, "--drain", "--batch", "1", "--poll", "0.05")
            for _ in range(2)
        ]
        reports = []
        for proc in workers:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            reports.append(json.loads(out))
        assert sum(r["jobs_completed"] for r in reports) == 8
        stats = queue.stats()
        assert stats.done == 8 and stats.outstanding == 0
        for job in jobs:
            assert store.peek(job.job_id) == synthetic_evaluate(job.point)
        queue.close()
        store.close()

    def test_sigkilled_worker_is_reclaimed_by_survivor(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        store = SQLiteStore(path)
        queue = queue_for_store(store)
        jobs = _jobs(4)
        queue.submit(jobs)
        # The victim leases with a short TTL and an evaluator that
        # sleeps far past it; SIGKILL leaves its leases orphaned.
        victim = _spawn_worker(
            path,
            "--batch",
            "2",
            "--lease-seconds",
            "1",
            "--poll",
            "0.05",
            evaluator="make_slow",
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if queue.stats().leased > 0:
                break
            time.sleep(0.05)
        else:
            victim.kill()
            pytest.fail("victim worker never leased")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=10)
        # The survivor drains everything, reclaimed leases included.
        survivor = _spawn_worker(
            path,
            "--drain",
            "--batch",
            "1",
            "--poll",
            "0.05",
            "--idle-timeout",
            "30",
        )
        out, err = survivor.communicate(timeout=60)
        assert survivor.returncode == 0, err
        report = json.loads(out)
        assert report["jobs_completed"] == 4
        stats = queue.stats()
        assert stats.done == 4 and stats.outstanding == 0
        # Nothing lost: every point's responses are in the store,
        # bit-identical to an in-process evaluation.
        for job in jobs:
            assert store.peek(job.job_id) == synthetic_evaluate(job.point)
        records = [queue.job(job.job_id) for job in jobs]
        assert any(record.attempts >= 2 for record in records)
        queue.close()
        store.close()

    def test_distributed_submitter_with_external_worker(self, tmp_path):
        # cooperate=False: the submitting backend waits purely on a
        # real repro-worker process.
        path = tmp_path / "evals.sqlite"
        worker = _spawn_worker(
            path,
            "--drain",
            "--idle-timeout",
            "30",
            "--poll",
            "0.05",
        )
        store = SQLiteStore(path)
        backend = DistributedBackend(
            store, cooperate=False, poll_interval=0.05, timeout=60.0
        )
        points = make_points(5)
        try:
            results = backend.run(
                synthetic_evaluate,
                points,
                fingerprints=[f"ext{i}" for i in range(5)],
            )
        finally:
            out, err = worker.communicate(timeout=60)
        assert worker.returncode == 0, err
        assert json.loads(out)["jobs_completed"] == 5
        for point, (responses, _) in zip(points, results):
            assert responses == synthetic_evaluate(point)
        backend.close()
        store.close()


class _FakeProc:
    """A poll()/terminate() stand-in for a worker child process."""

    def __init__(self, codes):
        # ``codes``: successive poll() results; the last one repeats.
        self._codes = list(codes)
        self.terminated = False

    def poll(self):
        if self.terminated:
            return -signal.SIGTERM
        if len(self._codes) > 1:
            return self._codes.pop(0)
        return self._codes[0]

    def terminate(self):
        self.terminated = True


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestSupervisor:
    def _supervisor(self, spawn, workers=1, **kw):
        clock = _FakeClock()
        sleeps = []

        def sleep(dt):
            sleeps.append(dt)
            clock.advance(dt)

        events = []
        sup = Supervisor(
            spawn,
            workers,
            clock=clock,
            sleep=sleep,
            on_event=events.append,
            **kw,
        )
        return sup, clock, sleeps, events

    def test_validation(self):
        with pytest.raises(ReproError):
            Supervisor(lambda i: _FakeProc([0]), 0)
        with pytest.raises(ReproError):
            Supervisor(lambda i: _FakeProc([0]), 1, max_restarts=-1)

    def test_clean_fleet_drains_without_restarts(self):
        sup, _, _, events = self._supervisor(
            lambda i: _FakeProc([None, 0]), workers=3
        )
        report = sup.run()
        assert report.exit_code == 0
        assert report.restarts == 0
        assert report.reason == ""
        assert events[-1]["event"] == "drained"

    def test_crashed_child_is_restarted_with_backoff(self):
        spawned = []

        def spawn(index):
            # First child of the fleet crashes once; its replacement
            # finishes cleanly.
            proc = _FakeProc([1] if not spawned else [0])
            spawned.append(proc)
            return proc

        sup, _, sleeps, events = self._supervisor(spawn, backoff=0.5)
        report = sup.run()
        assert report.exit_code == 0
        assert report.restarts == 1
        assert sleeps[0] == pytest.approx(0.5)  # first-crash backoff
        kinds = [e["event"] for e in events]
        assert "crashed" in kinds and "restarted" in kinds

    def test_backoff_grows_per_recent_crash_and_is_capped(self):
        crashes = 4

        def spawn(index):
            spawn.count += 1
            return _FakeProc([1] if spawn.count <= crashes else [0])

        spawn.count = 0
        sup, _, sleeps, _ = self._supervisor(
            spawn, max_restarts=10, window=1e9, backoff=1.0, backoff_max=3.0
        )
        report = sup.run()
        assert report.restarts == crashes
        backoffs = [s for s in sleeps if s != sup.poll_interval]
        assert backoffs == pytest.approx([1.0, 2.0, 3.0, 3.0])  # capped

    def test_crash_loop_gives_up_with_a_structured_reason(self):
        sup, _, _, _ = self._supervisor(
            lambda i: _FakeProc([1]), max_restarts=2, window=1e9
        )
        report = sup.run()
        assert report.exit_code == EXIT_CRASH_LOOP
        assert report.restarts == 2  # the tolerated ones
        reason = json.loads(report.reason)
        assert reason["error"] == "crash-loop"
        assert reason["restarts"] == 3
        assert reason["last_exit_code"] == 1

    def test_crashes_outside_the_window_are_forgiven(self):
        crashes = 4

        def spawn(index):
            spawn.count += 1
            return _FakeProc([1] if spawn.count <= crashes else [0])

        spawn.count = 0
        # Each backoff sleep advances the fake clock far past the
        # window, so the sliding count never exceeds max_restarts.
        sup, _, _, _ = self._supervisor(
            spawn, max_restarts=1, window=10.0, backoff=100.0,
            backoff_max=100.0,
        )
        report = sup.run()
        assert report.exit_code == 0
        assert report.restarts == crashes

    def test_evaluator_config_exit_stops_the_fleet(self):
        procs = []

        def spawn(index):
            proc = _FakeProc(
                [EXIT_EVALUATOR_CONFIG] if index == 0 else [None]
            )
            procs.append(proc)
            return proc

        sup, _, _, _ = self._supervisor(spawn, workers=3)
        report = sup.run()
        assert report.exit_code == EXIT_EVALUATOR_CONFIG
        assert report.restarts == 0
        reason = json.loads(report.reason)
        assert reason["error"] == "evaluator-config"
        # The healthy siblings were told to stand down.
        assert all(p.terminated for p in procs if p is not procs[0])


class TestChildArgv:
    def test_supervision_flags_are_stripped(self):
        argv = [
            "store.sqlite", "--evaluator", "pkg.mod:make", "--drain",
            "--supervise", "4", "--max-restarts", "7",
            "--restart-window=30", "--worker-id", "parent", "--json",
        ]
        assert _child_argv(argv) == [
            "store.sqlite", "--evaluator", "pkg.mod:make", "--drain",
            "--json",
        ]

    def test_equals_form_is_stripped_too(self):
        argv = ["s", "--supervise=2", "--worker-id=w", "--max-jobs", "5"]
        assert _child_argv(argv) == ["s", "--max-jobs", "5"]


class TestSupervisedCli:
    def test_supervised_fleet_drains_a_real_queue(self, tmp_path, capsys):
        store, queue = _substrate(tmp_path)
        queue.submit(_jobs(6))
        queue.close()
        store.close()
        env_tweak = {"PYTHONPATH": f"{SRC_DIR}{os.pathsep}{TESTS_DIR}"}
        old = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = env_tweak["PYTHONPATH"]
        try:
            rc = main(
                [
                    str(tmp_path / "evals.sqlite"),
                    "--evaluator",
                    "worker_eval_fixtures:make_synthetic",
                    "--supervise",
                    "2",
                    "--drain",
                    "--json",
                ]
            )
        finally:
            if old is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = old
        assert rc == 0
        store = SQLiteStore(tmp_path / "evals.sqlite")
        assert len(store) == 6
        assert queue_for_store(store).stats().done == 6
        store.close()
