"""One fresh process of the benchmark.

``python perfbench/workload.py '<json spec>'`` runs the mode the spec
names and writes a JSON result to ``spec["out"]``.  Timestamps are
``time.monotonic()`` readings, which on Linux share one clock across
processes, so the launching parent can subtract its own launch time.

Modes:

* ``cold_study`` — default toolkit, in-memory store, ``run_study()``
  then ``report()``.
* ``fleet_submitter`` — default ``run_campaign()`` on the distributed
  backend, cooperating with one external ``repro.exec.worker``.
* ``serial_campaign`` — the single-process reference campaign the
  fleet result must equal.
* ``prep`` — builds the SQLite store, holding only the charging-map
  grid and the sentinel job, that every fleet repetition copies.

Everything after the final answer (checks, the accuracy probe) runs
outside the timed window.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import sys
import time

#: Queue job that keeps the fleet worker in ``--drain`` mode alive
#: between campaign rounds: it is leased by a holder that never works
#: it, and completed once the campaign has answered.
SENTINEL_JOB = "perfbench-sentinel"
SENTINEL_HOLDER = "perfbench-holder"


def _write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _bad_points(rows, responses) -> int:
    """Points missing a response or carrying a non-finite one."""
    bad = 0
    for row in rows:
        if row is None or any(
            name not in row or not math.isfinite(float(row[name]))
            for name in responses
        ):
            bad += 1
    return bad


def _columns_rows(columns: dict, n: int) -> list[dict]:
    return [{name: columns[name][i] for name in columns} for i in range(n)]


def _surrogate_error(spec, toolkit, study) -> dict:
    """``surrogate_error`` of a fitted study: the largest normalized RMSE
    over the responses at the fixed held-out points.

    Each response's RMSE against reference simulations there is divided
    by the range the response spans over the fitted and held-out
    points.  A response with zero range has no defined error and is
    skipped and counted.  Only the first repetition measures it.
    """
    import numpy as np
    from repro.core.doe.lhs import latin_hypercube

    x_coded = latin_hypercube(
        spec["heldout_points"], toolkit.space.k, seed=spec["heldout_seed"]
    ).matrix
    report = toolkit.explorer.validate(study.surfaces, x_coded=x_coded)
    errors = []
    for name, surface in study.surfaces.items():
        reference = report.reference[name]
        fitted = study.exploration.responses[name]
        spread = (max(fitted.max(), reference.max())
                  - min(fitted.min(), reference.min()))
        if spread > 0:
            residual = surface.predict(x_coded) - reference
            errors.append(float(np.sqrt(np.mean(residual**2))) / spread)
    return {"error": max(errors), "skipped": len(study.surfaces) - len(errors)}


class Probe:
    """Counter snapshots around the timed window, plus the tracer."""

    def __init__(self, toolkit, tracer):
        from repro.sim.envelope import charging_cache_stats

        self._map_stats = charging_cache_stats
        self.toolkit = toolkit
        self.tracer = tracer
        self.engine_before = toolkit.exec_engine.stats_snapshot()
        self.maps_before = charging_cache_stats()
        queue = getattr(toolkit.exec_engine.backend, "queue", None)
        self.queue = queue
        self.tx_before = queue.transactions if queue is not None else 0
        if tracer is not None:
            import layers

            layers.install(tracer)

    def finish(self) -> dict:
        """Stop tracing; return the window's counters (and spans)."""
        engine = self.toolkit.exec_engine.stats(since=self.engine_before)
        maps = self._map_stats()
        out = {
            "points_simulated": int(engine.get("points_evaluated", 0)),
            "engine": {
                "points_evaluated": engine.get("points_evaluated", 0),
                "batches": engine.get("batches_dispatched", 0),
                "replicate_hits": engine.get("replicate_hits", 0),
                "cache_hits": (engine.get("cache") or {}).get("hits", 0),
                "cache_misses": (engine.get("cache") or {}).get("misses", 0),
            },
            "maps": {
                key: maps[key] - self.maps_before[key]
                for key in ("hits", "misses", "built", "loaded")
            },
            "queue_transactions": (
                self.queue.transactions - self.tx_before
                if self.queue is not None
                else 0
            ),
        }
        if self.tracer is not None:
            self.tracer.stop()
            out["spans"] = self.tracer.spans()
            out["counts"] = dict(self.tracer.counts)
        return out


def cold_study(spec, tracer):
    from repro.core.toolkit import SensorNodeDesignToolkit

    imported = time.monotonic()
    toolkit = SensorNodeDesignToolkit()
    ready = time.monotonic()
    probe = Probe(toolkit, tracer)
    study = toolkit.run_study(validation_seed=spec["validation_seed"])
    text = study.report()
    answer = time.monotonic()
    rss = _peak_rss_mb()
    result = probe.finish()

    responses = toolkit.responses
    rows = _columns_rows(study.exploration.responses, study.exploration.n_runs)
    rows += _columns_rows(
        study.validation.reference, study.validation.x_coded.shape[0]
    )
    problems = []
    if not text:
        problems.append("empty study report")
    # Bit-identity contract: the scalar engine must reproduce the
    # lockstep batch results exactly.  Every repetition runs the same
    # CCD, so the first one alone checks it.
    if spec["reference"]:
        scalar = SensorNodeDesignToolkit(batch_simulation=False)
        runs = random.Random(spec["identity_seed"]).sample(
            range(study.exploration.n_runs), spec["identity_points"]
        )
        for run in runs:
            point = toolkit.space.point_to_dict(study.exploration.x_coded[run])
            reference = scalar.evaluate_point(point)
            for name in responses:
                lockstep = study.exploration.responses[name][run]
                if reference[name] != lockstep:
                    problems.append(
                        f"run {run} {name}: scalar {reference[name]!r} != "
                        f"lockstep {lockstep!r}"
                    )
    result.update(
        imported=imported, ready=ready, answer=answer, peak_rss_mb=rss,
        accuracy=(
            _surrogate_error(spec, toolkit, study) if spec["reference"] else {}
        ),
        attempted=len(rows), bad_points=_bad_points(rows, responses),
        failed=0, problems=problems,
    )
    return result


def _wait_for(path: str, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"worker never became ready ({path})")
        time.sleep(0.002)


def _campaign_summary(result) -> dict:
    return {
        "best": result.best,
        "simulated": result.evaluations["simulated"],
        "total_points": result.evaluations["total_points"],
        "rounds": result.n_rounds,
    }


def _optimum_errors(spec, toolkit, campaign) -> dict:
    """``surrogate_error`` of a campaign: the mean |predicted - simulated|
    composite desirability over the optima it reported, one per round
    (rounds that fell back to the relaxed objective are skipped)."""
    if not spec["reference"]:
        return {}
    from repro.core.toolkit import standard_desirability

    rounds = [entry for entry in campaign.history if not entry["relaxed"]]
    points = [
        toolkit.space.point_to_dict(entry["optimum_coded"])
        for entry in rounds
    ]
    simulated = toolkit.evaluate_points(points)
    desirability = standard_desirability()
    errors = [
        abs(entry["optimum_value"] - desirability(responses))
        for entry, responses in zip(rounds, simulated)
    ]
    return {"error": sum(errors) / len(errors), "skipped": 0}


def _campaign_config(spec) -> dict:
    # Patience equal to the round ceiling can never be reached, so
    # every campaign runs all its rounds and does the same amount of
    # surrogate work whatever its seed.
    rounds = spec["max_rounds"]
    return {"seed": spec["campaign_seed"], "max_rounds": rounds,
            "patience": rounds}


def fleet_submitter(spec, tracer):
    from repro.core.toolkit import SensorNodeDesignToolkit
    import repro.campaign  # noqa: F401 - campaign import is set-up cost
    from repro.sim.envelope import attach_map_store

    imported = time.monotonic()
    toolkit = SensorNodeDesignToolkit(
        cache_dir=spec["store"], backend="distributed"
    )
    store = toolkit.exec_engine.cache.store
    attach_map_store(store)
    _wait_for(spec["worker_ready"], timeout=120.0)
    ready = time.monotonic()
    probe = Probe(toolkit, tracer)
    campaign = toolkit.run_campaign(config=_campaign_config(spec))
    answer = time.monotonic()
    rss = _peak_rss_mb()
    result = probe.finish()

    queue = toolkit.exec_engine.backend.queue
    queue.complete(SENTINEL_HOLDER, SENTINEL_JOB)
    # A worker publishes a result before completing its job: wait for
    # the queue to settle before reading final job states.
    deadline = time.monotonic() + 60.0
    while queue.stats().outstanding and time.monotonic() < deadline:
        time.sleep(0.01)
    records = [r for r in queue.jobs() if r.job_id != SENTINEL_JOB]
    landed = store.load_many([r.job_id for r in records])
    rows = [landed.get(r.job_id) for r in records]
    failed_jobs = sum(r.status != "done" for r in records)
    reclaimed = sum(max(r.attempts - 1, 0) for r in records)
    result.update(
        imported=imported, ready=ready, answer=answer, peak_rss_mb=rss,
        accuracy=_optimum_errors(spec, toolkit, campaign),
        attempted=len(records),
        bad_points=_bad_points(rows, toolkit.responses),
        failed=failed_jobs + reclaimed, problems=[],
        campaign=_campaign_summary(campaign),
        queue_jobs={
            "leased": sum(r.attempts for r in records),
            "done": sum(r.status == "done" for r in records),
            "reclaims": reclaimed,
        },
    )
    toolkit.close()
    return result


def serial_campaign(spec, tracer):
    from repro.core.toolkit import SensorNodeDesignToolkit
    from repro.exec.store import resolve_store
    from repro.sim.envelope import attach_map_store

    store = resolve_store(spec["store"])
    attach_map_store(store)
    toolkit = SensorNodeDesignToolkit()
    campaign = toolkit.run_campaign(config=_campaign_config(spec))
    store.close()
    return {"campaign": _campaign_summary(campaign)}


def prep(spec, tracer):
    # Importing everything a repetition imports writes the bytecode and
    # reads the files into the page cache before any timing starts.
    import repro.campaign  # noqa: F401
    from repro.core.toolkit import SensorNodeDesignToolkit
    from repro.exec.queue import Job, queue_for_store
    from repro.exec.store import resolve_store
    from repro.sim.envelope import attach_map_store, detach_map_store

    if not spec.get("store"):
        return {}
    store = resolve_store(spec["store"])
    attach_map_store(store)
    toolkit = SensorNodeDesignToolkit()
    centre = toolkit.space.point_to_dict([0.0] * toolkit.space.k)
    toolkit.prewarm(centre)
    detach_map_store()
    queue = queue_for_store(store)
    queue.submit([Job(SENTINEL_JOB, centre)])
    leased = queue.lease(SENTINEL_HOLDER, n=1, lease_seconds=86400.0)
    if [job.job_id for job in leased] != [SENTINEL_JOB]:
        raise RuntimeError(f"sentinel lease failed: {leased}")
    queue.close()
    store.close()
    return {}


MODES = {
    "cold_study": cold_study,
    "fleet_submitter": fleet_submitter,
    "serial_campaign": serial_campaign,
    "prep": prep,
}


def main(argv) -> int:
    spec = json.loads(argv[1])
    tracer = None
    if spec.get("trace"):
        from layers import Tracer

        tracer = Tracer()
    result = MODES[spec["mode"]](spec, tracer)
    if "answer" in result:
        # The checks and reference simulations after the final answer.
        result["untimed_s"] = time.monotonic() - result["answer"]
    _write_json(spec["out"], result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
