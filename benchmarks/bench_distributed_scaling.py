"""R-X2 — distributed evaluation scaling: points/sec vs worker count.

One LHS design over the 2-factor smoke space is completed through the
job-queue architecture by fleets of 1, 2 (and, outside smoke mode, 4)
*real* ``repro-worker`` subprocesses draining one shared SQLite
substrate, with the submitter in pure assembly mode
(``cooperate=False``).  Every fleet's responses must be bit-identical
to the serial reference; the recorded series is wall-clock points/sec
per worker count, plus the dispatch overhead of the one-worker fleet
against the serial baseline (queue round-trips + store polling).

Numbers land in ``results/BENCH_distributed_scaling.json``.  As with
the process backend, parallel *speedup* needs real CPUs — the JSON
records ``cpu_count`` so single-core CI runs are read as overhead
measurements, not scaling claims.  Worker start-up (interpreter +
per-process charging-map warm-up) is measured separately via a
one-point barrier batch; fleet members that join after the barrier
amortize their own map warm-up into the first timed batch, which is
exactly what a real elastic fleet pays.

A final **warm-daemon** scenario prices the alternative: a
``--supervise N --warm`` fleet forked from one prewarmed parent
(evaluator built once, charging maps preloaded from the shared
store).  Two gates close the "distributed loses to serial on small
studies" gap from the cold numbers above: per-worker spawn must be
under 0.5 s (it is forks, so milliseconds — vs the 2–3.7 s cold
barrier), and the standing fleet must finish the smoke study faster
than a cold serial process (interpreter + toolkit + map build +
evaluation) answering it from scratch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from benchmarks.conftest import SMOKE, print_banner
from benchmarks.distributed_smoke import (
    MISSION_TIME,
    REPO_ROOT,
    _space,
    make_evaluator,
    spawn_worker,
)
from repro.analysis.io import ensure_results_dir
from repro.fsutil import atomic_write_json
from repro.analysis.tables import format_table
from repro.core.doe.lhs import latin_hypercube
from repro.exec import (
    DistributedBackend,
    EvaluationEngine,
    SQLiteStore,
    SQLiteWorkQueue,
    queue_for_store,
)
from repro.sim.envelope import (
    attach_map_store,
    clear_charging_cache,
    detach_map_store,
)

N_POINTS = 8 if SMOKE else 24
WORKER_COUNTS = [1, 2] if SMOKE else [1, 2, 4]

#: End-to-end script a *cold* serial answer to the study costs: a
#: fresh interpreter imports the stack, builds the toolkit, builds
#: every charging map and only then evaluates.  This is what the warm
#: standing fleet is raced against.
_COLD_SERIAL_SCRIPT = """\
import json, sys, time
started = time.perf_counter()
from benchmarks.distributed_smoke import _space, make_evaluator
from repro.core.doe.lhs import latin_hypercube
n = int(sys.argv[1])
space = _space()
design = latin_hypercube(n, 2, seed=31)
points = [space.point_to_dict(row) for row in design.matrix]
toolkit = make_evaluator()
toolkit.evaluate_points_timed(points)
print(json.dumps({"seconds": time.perf_counter() - started}))
"""


def _serial_cold_process(n_points: int) -> float:
    """Wall seconds for a fresh process to answer the study serially."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_SERIAL_SCRIPT, str(n_points)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["seconds"])


class _PerOpStore(SQLiteStore):
    """SQLite store forced back to per-operation wire discipline.

    Every ``load_many``/``persist_many`` decomposes into one
    single-entry primitive call — one store round trip — per entry:
    the pre-amortization cost model, with SQLite semantics (and
    isinstance checks) intact.
    """

    def load_many(self, fingerprints):
        found = {}
        for fingerprint in dict.fromkeys(fingerprints):
            found.update(super().load_many([fingerprint]))
        return found

    def persist_many(self, entries, *, meta=None):
        for entry in entries:
            super().persist_many([entry], meta=meta)


class _PerOpQueue(SQLiteWorkQueue):
    """SQLite queue forced back to one transaction per job transition."""

    def complete_many(self, worker_id, completions, *, now=None):
        done = 0
        for completion in completions:
            done += super().complete_many(worker_id, [completion], now=now)
        return done

    def fail_many(self, worker_id, failures, now=None):
        failed = 0
        for failure in failures:
            failed += super().fail_many(worker_id, [failure], now)
        return failed


def _measure_substrate_ops(
    store_cls, queue_cls, evaluate, points, db_dir, tag
) -> dict:
    """Substrate round trips one cooperative engine run costs.

    A fresh store guarantees every point misses, so the run pays the
    full submit/lease/evaluate/persist/assemble cycle; the engine's
    per-layer counters (``store_round_trips``, ``queue_transactions``)
    are read as a delta across exactly that cycle.
    """
    store = store_cls(db_dir / f"ops-{tag}-store.sqlite")
    queue = queue_cls(db_dir / f"ops-{tag}-queue.sqlite")
    backend = DistributedBackend(
        store,
        queue,
        cooperate=True,
        batch=len(points),
        poll_interval=0.01,
        timeout=900.0,
    )
    engine = EvaluationEngine(evaluate, backend=backend, cache=store)
    snapshot = engine.stats()
    engine.map_points(points)
    delta = engine.stats(since=snapshot)
    backend.close()
    queue.close()
    store.close()
    ops = {
        "store_round_trips": delta["store_round_trips"],
        "queue_transactions": delta["queue_transactions"],
        "poll_sleeps": delta["poll_sleeps"],
    }
    total = ops["store_round_trips"] + ops["queue_transactions"]
    ops["total"] = total
    ops["per_point"] = total / len(points)
    return ops


def _supervisor_report(stdout: str) -> dict:
    """The supervisor's JSON report, fished out of a shared stdout.

    Warm-mode children inherit the supervisor's stdout, so the stream
    carries N worker reports plus the supervisor's own — and child
    writes racing at exit can concatenate objects on one line.  Decode
    every JSON object wherever it starts and keep the supervisor's
    (the only one carrying ``exit_code``).
    """
    decoder = json.JSONDecoder()
    report = None
    for line in stdout.splitlines():
        idx = 0
        while idx < len(line):
            try:
                obj, idx = decoder.raw_decode(line, idx)
            except ValueError:
                idx += 1
                continue
            if isinstance(obj, dict) and "exit_code" in obj:
                report = obj
    assert report is not None, stdout
    return report


def test_distributed_scaling(tmp_path):
    print_banner("R-X2: distributed scaling (points/sec vs workers)")
    space = _space()
    design = latin_hypercube(N_POINTS, 2, seed=31)
    points = [space.point_to_dict(row) for row in design.matrix]

    # Serial reference in this process, on the same batched path the
    # workers use, with charging maps prewarmed outside the timing —
    # so the per-fleet overhead numbers compare like with like.
    toolkit = make_evaluator()
    toolkit.evaluate_point(points[0])
    started = time.perf_counter()
    reference = [
        responses
        for responses, _ in toolkit.evaluate_points_timed(points)
    ]
    t_serial = time.perf_counter() - started

    series = {}
    for workers in WORKER_COUNTS:
        store_path = tmp_path / f"scaling-{workers}.sqlite"
        store = SQLiteStore(store_path)
        backend = DistributedBackend(
            store, cooperate=False, poll_interval=0.02, timeout=900.0
        )
        fingerprints = [f"scale-{i:03d}" for i in range(N_POINTS)]
        # Spawn the fleet first and use a one-point warm-up batch as
        # the "fleet is live" barrier, so the timed study measures
        # queue throughput rather than interpreter start-up.  The
        # fleet exits on idleness (not --drain): between the warm-up
        # and the timed batch the queue is momentarily empty, and a
        # draining worker would mistake that for the end of the study.
        fleet = [
            spawn_worker(
                str(store_path),
                "--idle-timeout",
                "8",
                "--batch",
                "1",
                "--poll",
                "0.02",
            )
            for _ in range(workers)
        ]
        warm_started = time.perf_counter()
        backend.run(
            toolkit.evaluate_point,
            [points[0]],
            fingerprints=["warmup"],
        )
        t_startup = time.perf_counter() - warm_started

        started = time.perf_counter()
        results = backend.run(
            toolkit.evaluate_point, points, fingerprints=fingerprints
        )
        elapsed = time.perf_counter() - started
        for proc in fleet:
            out, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err

        # Bit-identity against serial, whichever worker evaluated.
        for i, ((responses, _), expected) in enumerate(
            zip(results, reference)
        ):
            assert responses == expected, f"divergence at point {i}"
        queue = queue_for_store(store)
        stats = queue.stats()
        assert stats.outstanding == 0 and stats.failed == 0
        completed_by = {
            record.worker_id
            for record in queue.jobs()
            if record.status == "done"
        }
        series[str(workers)] = {
            "seconds": elapsed,
            "points_per_sec": N_POINTS / elapsed,
            "startup_seconds": t_startup,
            "distinct_workers": len(completed_by),
            "speedup_vs_serial": t_serial / elapsed,
        }
        backend.close()
        store.close()

    # What the warm fleet is raced against: a cold serial process
    # paying interpreter + toolkit + map build before the first point.
    t_serial_cold = _serial_cold_process(N_POINTS)

    # Warm-daemon fleet: one supervisor builds the evaluator and
    # preloads the store-persisted charging maps, then forks the
    # whole fleet warm.  Per-child spawn latency comes back in the
    # supervisor's JSON report; the one-point barrier makes the fleet
    # provably live before the timed study.
    warm_workers = max(WORKER_COUNTS)
    warm_store_path = tmp_path / "scaling-warm.sqlite"
    warm_store = SQLiteStore(warm_store_path)
    clear_charging_cache()
    attach_map_store(warm_store)
    try:
        # Rebuild the study's charging maps with the store attached so
        # the grids persist; the supervisor preloads them pre-fork.
        toolkit.evaluate_point(points[0])
    finally:
        detach_map_store()
    backend = DistributedBackend(
        warm_store, cooperate=False, poll_interval=0.02, timeout=900.0
    )
    # Leases of >1 job ride the vectorized batch core inside each
    # worker — the composition this PR exists for.
    warm_batch = max(1, N_POINTS // (2 * warm_workers))
    spawn_started = time.perf_counter()
    supervisor = spawn_worker(
        str(warm_store_path),
        "--supervise",
        str(warm_workers),
        "--warm",
        "--idle-timeout",
        "6",
        "--batch",
        str(warm_batch),
        "--poll",
        "0.02",
    )
    backend.run(
        toolkit.evaluate_point, [points[0]], fingerprints=["warmup"]
    )
    t_fleet_live = time.perf_counter() - spawn_started

    started = time.perf_counter()
    warm_results = backend.run(
        toolkit.evaluate_point,
        points,
        fingerprints=[f"warm-{i:03d}" for i in range(N_POINTS)],
    )
    t_warm = time.perf_counter() - started
    sup_out, sup_err = supervisor.communicate(timeout=600)
    assert supervisor.returncode == 0, sup_err
    sup_report = _supervisor_report(sup_out)
    assert sup_report["exit_code"] == 0 and sup_report["restarts"] == 0
    spawn_seconds = sup_report["warm"]["spawn_seconds"]
    assert len(spawn_seconds) >= warm_workers

    for i, ((responses, _), expected) in enumerate(
        zip(warm_results, reference)
    ):
        assert responses == expected, f"warm divergence at point {i}"
    warm_queue = queue_for_store(warm_store)
    warm_stats = warm_queue.stats()
    assert warm_stats.outstanding == 0 and warm_stats.failed == 0
    warm_distinct = {
        record.worker_id
        for record in warm_queue.jobs()
        if record.status == "done"
    }
    warm = {
        "workers": warm_workers,
        "batch": warm_batch,
        "seconds": t_warm,
        "points_per_sec": N_POINTS / t_warm,
        "fleet_live_seconds": t_fleet_live,
        "prepare_seconds": sup_report["warm"]["prepare_seconds"],
        "spawn_seconds_per_worker": spawn_seconds,
        "startup_seconds_per_worker": max(spawn_seconds),
        "distinct_workers": len(warm_distinct),
        "speedup_vs_serial_cold": t_serial_cold / t_warm,
    }
    backend.close()
    warm_store.close()

    # Substrate ops per point: the amortized wire discipline (batched
    # store/queue transactions, adaptive assembly) against the same
    # engine forced back to one round trip per operation.  Wall time
    # is noise at this scale — round trips are the honest currency.
    ops_amortized = _measure_substrate_ops(
        SQLiteStore,
        SQLiteWorkQueue,
        toolkit.evaluate_point,
        points,
        tmp_path,
        "amortized",
    )
    ops_per_op = _measure_substrate_ops(
        _PerOpStore, _PerOpQueue, toolkit.evaluate_point, points, tmp_path, "per-op"
    )
    ops_per_point = {
        "batch": N_POINTS,
        "amortized": ops_amortized,
        "per_op_baseline": ops_per_op,
        "reduction_factor": ops_per_op["total"] / ops_amortized["total"],
    }

    payload = {
        "benchmark": "distributed_scaling",
        "smoke": SMOKE,
        "n_points": N_POINTS,
        "mission_time_s": MISSION_TIME,
        "cpu_count": os.cpu_count(),
        "serial": {
            "seconds": t_serial,
            "points_per_sec": N_POINTS / t_serial,
        },
        "serial_cold_process": {
            "seconds": t_serial_cold,
            "points_per_sec": N_POINTS / t_serial_cold,
        },
        "workers": series,
        "warm": warm,
        "ops_per_point": ops_per_point,
        "dispatch_overhead_one_worker": (
            series["1"]["seconds"] - t_serial
        ),
    }
    path = os.path.join(
        ensure_results_dir(), "BENCH_distributed_scaling.json"
    )
    atomic_write_json(path, payload, indent=2, sort_keys=True)

    rows = [
        ["serial (hot)", t_serial, N_POINTS / t_serial, 1.0, "-"],
        [
            "serial (cold process)",
            t_serial_cold,
            N_POINTS / t_serial_cold,
            t_serial / t_serial_cold,
            "-",
        ],
    ]
    for workers in WORKER_COUNTS:
        entry = series[str(workers)]
        rows.append(
            [
                f"{workers} worker(s)",
                entry["seconds"],
                entry["points_per_sec"],
                entry["speedup_vs_serial"],
                entry["distinct_workers"],
            ]
        )
    rows.append(
        [
            f"warm fleet ({warm_workers})",
            t_warm,
            N_POINTS / t_warm,
            t_serial / t_warm,
            warm["distinct_workers"],
        ]
    )
    print(
        format_table(
            ["fleet", "wall [s]", "points/s", "vs serial", "workers used"],
            rows,
            title=(
                f"{N_POINTS}-point LHS, {MISSION_TIME:.0f} s missions, "
                f"on {os.cpu_count()} CPU(s); JSON: {path}"
            ),
        )
    )

    # Multi-worker fleets must actually split the work when there is
    # work to split (every fleet member completed at least one job is
    # too strict under OS scheduling; two distinct workers is the
    # cooperative floor).
    if max(WORKER_COUNTS) >= 2:
        top = series[str(max(WORKER_COUNTS))]
        assert top["distinct_workers"] >= 2
    # Parallel speedup needs real CPUs; gate only where they exist.
    if (os.cpu_count() or 1) >= 4 and not SMOKE:
        assert series["2"]["seconds"] < t_serial

    m = np.asarray([series[str(w)]["points_per_sec"] for w in WORKER_COUNTS])
    assert np.all(m > 0.0)

    # The warm-daemon gates.  Per-worker spawn is a fork from the
    # prewarmed parent: must be far under the 2-3.7 s cold barrier.
    assert warm["startup_seconds_per_worker"] < 0.5, warm
    print(
        f"warm fleet: {warm_workers} workers forked in "
        f"{warm['startup_seconds_per_worker'] * 1e3:.1f} ms/worker "
        f"(cold barrier was "
        f"{series[str(max(WORKER_COUNTS))]['startup_seconds']:.2f} s); "
        f"study {t_warm:.2f} s vs cold serial process "
        f"{t_serial_cold:.2f} s"
    )
    # A standing warm fleet must beat a cold serial process on the
    # small study — the exact case the cold numbers above lose.
    assert t_warm < t_serial_cold, (t_warm, t_serial_cold)

    # The amortized-substrate gate: batched store/queue transactions
    # must cut the round trips the study costs by at least 5x against
    # the per-operation baseline.
    print(
        format_table(
            ["discipline", "store ops", "queue txns", "total", "ops/point"],
            [
                [
                    "amortized",
                    ops_amortized["store_round_trips"],
                    ops_amortized["queue_transactions"],
                    ops_amortized["total"],
                    ops_amortized["per_point"],
                ],
                [
                    "per-op baseline",
                    ops_per_op["store_round_trips"],
                    ops_per_op["queue_transactions"],
                    ops_per_op["total"],
                    ops_per_op["per_point"],
                ],
            ],
            title=(
                f"substrate round trips, {N_POINTS}-point study, "
                f"batch={N_POINTS}: "
                f"{ops_per_point['reduction_factor']:.1f}x reduction"
            ),
        )
    )
    assert ops_per_point["reduction_factor"] >= 5.0, ops_per_point
