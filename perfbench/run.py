"""The repository benchmark: time the DoE/RSM flow end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_study --seed 1 \
        --seconds 50 --trace 0

Each workload repetition runs in fresh interpreters launched from this
process, so every timing starts at the interpreter launch:

* ``cold_study`` — the default ``SensorNodeDesignToolkit().run_study()``
  and ``report()`` with empty caches and the in-memory store.
* ``fleet_campaign`` — the default ``run_campaign()`` on the
  distributed backend, the submitter cooperating with one external
  ``repro.exec.worker`` process.

Repetitions repeat until ``--seconds`` have been measured; end-to-end
timings are means over them (see ``end_to_end``), read at a reference
speed (see ``CONTROL_REFERENCE_S``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints per-layer metrics,
attributing wall time to layers by wrapping their public functions
(see ``layers.py``).  Outputs are checked outside the timed window;
the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` shrinks every
workload for the self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

from layers import layer_self_times

WORKLOADS = ("cold_study", "fleet_campaign")

#: End-to-end metrics, printed with ``--trace 0``.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "study_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "surrogate_error": "ratio",
}

#: Per-layer metrics, printed with ``--trace 1``: unit, which direction
#: is better, and the end-to-end metric each is predicted to move.
PER_LAYER = {
    "import.s": ("s", "lower",
        "setup_s on all workloads, most on cold_study"),
    "import.scipy_s": ("s", "lower",
        "setup_s on all workloads, most on cold_study"),
    "setup.toolkit_s": ("s", "lower",
        "setup_s; on fleet_campaign it holds the wait for the worker"),
    "map.build_s": ("s", "lower",
        "study_s and wall_s on cold_study; none on fleet_campaign"),
    "map.built": ("count", "lower",
        "study_s on cold_study; 0 on fleet_campaign"),
    "map.loaded": ("count", "lower",
        "study_s on fleet_campaign (loads, not builds)"),
    "map.hit_ratio": ("ratio", "higher",
        "study_s on cold_study"),
    "lockstep.s": ("s", "lower",
        "study_s and points_per_s on cold_study"),
    "lockstep.points": ("count", "higher",
        "points_per_s on cold_study"),
    "lockstep.width_mean": ("count", "higher",
        "points_per_s on cold_study"),
    "scalar.s": ("s", "lower",
        "study_s on fleet_campaign; 0 on cold_study"),
    "scalar.points": ("count", "lower",
        "study_s on fleet_campaign; 0 on cold_study"),
    "indicators.s": ("s", "lower",
        "guard only: small on every workload"),
    "indicators.calls": ("count", "lower",
        "guard only: small on every workload"),
    "fit.s": ("s", "lower",
        "study_s on cold_study"),
    "validate.s": ("s", "lower",
        "study_s on cold_study"),
    "rsm.predict_s": ("s", "lower",
        "study_s on cold_study; on fleet_campaign, optimize"),
    "rsm.predict_calls": ("count", "lower",
        "study_s on fleet_campaign"),
    "optimize.s": ("s", "lower",
        "study_s on fleet_campaign"),
    "optimize.objective_calls": ("count", "lower",
        "study_s on fleet_campaign"),
    "campaign.rounds": ("count", "lower",
        "study_s on fleet_campaign"),
    "campaign.evaluations": ("count", "lower",
        "study_s on fleet_campaign"),
    "campaign.acquire_s": ("s", "lower",
        "study_s on fleet_campaign"),
    "campaign.journal_s": ("s", "lower",
        "study_s on fleet_campaign"),
    "engine.self_s": ("s", "lower",
        "study_s on every workload"),
    "engine.points_evaluated": ("count", "lower",
        "points_per_s on every workload"),
    "engine.batches": ("count", "lower",
        "study_s on every workload"),
    "engine.replicate_hits": ("count", "higher",
        "study_s on cold_study"),
    "store.read_s": ("s", "lower",
        "study_s on fleet_campaign (lease peeks and result assembly)"),
    "store.write_s": ("s", "lower",
        "study_s on fleet_campaign (result persists)"),
    "store.round_trips": ("count", "lower",
        "study_s on fleet_campaign"),
    "store.hit_ratio": ("ratio", "higher",
        "study_s on fleet_campaign"),
    "queue.s": ("s", "lower",
        "wall_s on fleet_campaign; 0 elsewhere"),
    "queue.transactions": ("count", "lower",
        "wall_s on fleet_campaign; 0 elsewhere"),
    "queue.leases": ("count", "lower",
        "wall_s on fleet_campaign; 0 elsewhere"),
    "queue.reclaims": ("count", "lower",
        "wall_s on fleet_campaign; 0 elsewhere"),
    "queue.useful_ratio": ("ratio", "higher",
        "wall_s on fleet_campaign; 0 elsewhere"),
    "wait.poll_s": ("s", "lower",
        "wall_s on fleet_campaign"),
    "wait.poll_sleeps": ("count", "lower",
        "wall_s on fleet_campaign"),
    "worker.startup_s": ("s", "lower",
        "setup_s on fleet_campaign"),
    "worker.points": ("count", "higher",
        "points_per_s on fleet_campaign"),
    "trace.coverage": ("ratio", "higher",
        "none: share of traced wall_s the layers explain"),
    "trace.overhead": ("ratio", "lower",
        "none: traced over untraced wall_s"),
    "failed_fraction": ("ratio", "lower",
        "every workload: failed over attempted operations"),
    "surrogate.skipped_responses": ("count", "lower",
        "surrogate_error on cold_study"),
}

#: Workload sizes: the benchmark's own, and the reduced self-test one.
SIZES = {
    "full": {"identity_points": 3, "max_rounds": 3,
             "heldout_points": 96},
    "smoke": {"identity_points": 1, "max_rounds": 2,
              "heldout_points": 8},
}

#: The held-out points ``surrogate_error`` is measured at are a fixed
#: test set, not drawn from ``--seed``: a few points with brownout
#: downtime dominate the RMSE, so a test set redrawn every run would
#: move the error more than any change to the surrogate does.
HELDOUT_SEED = 2013

#: Every run makes at least this many repetitions.
MIN_REPS = 3

#: The host's speed shifts by 20-40% between regimes that last
#: minutes, so end-to-end times are read at a reference speed: a fixed
#: control (``control.py``, no repository code) runs before the first
#: repetition and after each one, and the run's mean times are
#: multiplied by this over the control's mean time.  It is about the
#: control's time on a 2-vCPU cloud VM, so scaled times stay close to
#: that VM's real ones.
CONTROL_REFERENCE_S = 0.7

CHILD_TIMEOUT = 150.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_EVENT_LOG"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    # Every workload process computes on one BLAS thread, so a fleet
    # of two processes never oversubscribes two cores.
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Launcher:
    """Starts child processes and guarantees they are gone on exit."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.env = child_env()
        self.live: list[subprocess.Popen] = []
        self._n = 0

    def start(self, argv, name: str, extra_env=None) -> subprocess.Popen:
        self._n += 1
        log = open(
            os.path.join(self.workdir, f"{self._n:03d}-{name}.log"), "wb"
        )
        env = dict(self.env, **(extra_env or {}))
        try:
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
        finally:
            log.close()
        proc.log_path = log.name
        self.live.append(proc)
        return proc

    def wait(self, proc, timeout: float) -> int:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(
                f"{proc.args[1:3]} exceeded {timeout:.0f}s; see "
                f"{proc.log_path}"
            ) from None
        finally:
            if proc.poll() is not None and proc in self.live:
                self.live.remove(proc)
        return code

    def stop_all(self) -> None:
        for proc in self.live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.live.clear()

    def control_seconds(self) -> float:
        """Run the control once; the seconds its work took."""
        proc = self.start(
            [sys.executable, os.path.join(BENCH_DIR, "control.py")],
            "control",
        )
        if self.wait(proc, 60.0) != 0:
            raise BenchError("the control failed")
        with open(proc.log_path, encoding="utf-8") as fh:
            return float(fh.read())

    def workload(self, spec: dict, name: str):
        """Launch one workload process; returns (launch time, process)."""
        argv = [sys.executable, os.path.join(BENCH_DIR, "workload.py"),
                json.dumps(spec)]
        launched = time.monotonic()
        return launched, self.start(argv, name)

    def finish(self, proc, spec: dict) -> dict:
        code = self.wait(proc, CHILD_TIMEOUT)
        if code != 0:
            with open(proc.log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"{spec['mode']} exited {code}:\n{tail}")
        with open(spec["out"], encoding="utf-8") as fh:
            return json.load(fh)


def derive_inputs(seed: int, rep: int, size: dict) -> dict:
    """Every input repetition ``rep`` gives the program, generated from
    ``--seed``.  Each repetition draws its own inputs, so a run's
    means average over several seeded designs and campaigns."""
    rng = random.Random(seed * 1000 + rep)
    return {
        "validation_seed": rng.randrange(2**31),
        "campaign_seed": rng.randrange(1, 2**31),
        "identity_seed": rng.randrange(2**31),
        "heldout_seed": HELDOUT_SEED,
        "heldout_points": size["heldout_points"],
        "identity_points": size["identity_points"],
        "max_rounds": size["max_rounds"],
    }


class Bench:
    def __init__(self, workload, seed, size, launcher, workdir):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.launcher = launcher
        self.workdir = workdir
        self.pristine = None
        self._rep = 0

    def _spec(self, mode, tag, rep=1, **extra) -> dict:
        return dict(
            derive_inputs(self.seed, rep, self.size), mode=mode,
            out=os.path.join(self.workdir, f"{tag}.json"), **extra,
        )

    def prepare(self) -> None:
        """Untimed: compile bytecode and, for the fleet, build the store
        holding only the charging-map grid and the sentinel job."""
        store = None
        if self.workload == "fleet_campaign":
            store = os.path.join(self.workdir, "pristine.sqlite")
        spec = self._spec("prep", "prep", store=store)
        _, proc = self.launcher.workload(spec, "prep")
        self.launcher.finish(proc, spec)
        self.pristine = store

    def _copy_store(self, tag: str) -> str:
        path = os.path.join(self.workdir, f"{tag}.sqlite")
        shutil.copyfile(self.pristine, path)
        return path

    def rep(self, traced: bool) -> dict:
        """One repetition on its own seeded inputs."""
        self._rep += 1
        tag = f"rep{self._rep}"
        # The first repetition alone pays for the untimed reference
        # simulations the output checks and ``surrogate_error`` need.
        extra = {"trace": traced, "rep": self._rep,
                 "reference": self._rep == 1}
        if self.workload == "fleet_campaign":
            return self._fleet_rep(tag, extra)
        spec = self._spec(self.workload, tag, **extra)
        launched, proc = self.launcher.workload(spec, tag)
        result = self.launcher.finish(proc, spec)
        result["launched"] = launched
        return result

    def _fleet_rep(self, tag: str, extra: dict) -> dict:
        store = self._copy_store(tag)
        ready_file = os.path.join(self.workdir, f"{tag}.worker-ready")
        report_dir = os.path.join(self.workdir, f"{tag}.reports")
        spec = self._spec(
            "fleet_submitter", tag, store=store, worker_ready=ready_file,
            **extra,
        )
        worker_argv = [
            sys.executable, "-m", "repro.exec.worker", store,
            "--evaluator", "fleet_worker:make_toolkit",
            "--worker-id", "perfbench-worker", "--drain",
            "--idle-timeout", "120", "--report-dir", report_dir,
        ]
        launched, submitter = self.launcher.workload(spec, tag)
        worker = self.launcher.start(
            worker_argv, f"{tag}-worker",
            {"PERFBENCH_WORKER_READY": ready_file},
        )
        result = self.launcher.finish(submitter, spec)
        code = self.launcher.wait(worker, 60.0)
        result["launched"] = launched
        result["attempted"] += 1
        if code != 0:
            result["failed"] += 1
        with open(ready_file, encoding="utf-8") as fh:
            result["worker_startup_s"] = json.load(fh)["ready"] - launched
        reports = [
            name for name in os.listdir(report_dir)
            if name.endswith(".json")
        ] if os.path.isdir(report_dir) else []
        points = 0
        for name in reports:
            with open(os.path.join(report_dir, name), encoding="utf-8") as fh:
                points += int(json.load(fh)["jobs_completed"])
        result["worker_points"] = points
        return result

    def serial_reference(self) -> dict:
        spec = self._spec(
            "serial_campaign", "serial", store=self._copy_store("serial")
        )
        _, proc = self.launcher.workload(spec, "serial")
        return self.launcher.finish(proc, spec)["campaign"]


def scipy_import_seconds(launcher: Launcher) -> float:
    """Self time of every ``scipy`` module in ``-X importtime``."""
    log_name = "importtime"
    proc = launcher.start(
        [sys.executable, "-X", "importtime", "-c",
         "import repro.core.toolkit"],
        log_name,
    )
    if launcher.wait(proc, 60.0) != 0:
        raise BenchError("import repro.core.toolkit failed")
    total_us = 0
    with open(proc.log_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name == "scipy" or name.startswith("scipy."):
                total_us += int(fields[0])
    return total_us / 1e6


def end_to_end(reps, surrogate_error: float, speed: float = 1.0) -> dict:
    """A run's end-to-end metrics from its untraced repetitions ``reps``,
    times multiplied by ``speed``.

    Times are means over the repetitions, not medians: a run holds only
    a handful, and on a shared host their mean moved less from run to
    run than their median did.
    """
    wall = statistics.fmean(r["answer"] - r["launched"] for r in reps) * speed
    setup = statistics.fmean(r["ready"] - r["launched"] for r in reps) * speed
    study = wall - setup
    return {
        "wall_s": wall,
        "setup_s": setup,
        "study_s": study,
        "points_per_s": statistics.fmean(
            r["points_simulated"] for r in reps
        ) / study,
        "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in reps),
        "surrogate_error": surrogate_error,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rep: dict, wall_untraced: float, scipy_s: float,
              skipped: int) -> dict:
    spans = rep["spans"]
    own = layer_self_times(spans)
    counts = rep["counts"]
    engine = rep["engine"]
    maps = rep["maps"]
    wall = rep["answer"] - rep["launched"]
    store_calls = sum(
        1 for layer, _s, _e, parent in spans
        if layer.startswith("store.")
        and (parent < 0 or not spans[parent][0].startswith("store."))
    )
    campaign = rep.get("campaign") or {}
    jobs = rep.get("queue_jobs") or {}
    lockstep_points = counts.get("lockstep.points", 0)
    return {
        "import.s": rep["imported"] - rep["launched"],
        "import.scipy_s": scipy_s,
        "setup.toolkit_s": rep["ready"] - rep["imported"],
        "map.build_s": own.get("sim.envelope", 0.0),
        "map.built": maps["built"],
        "map.loaded": maps["loaded"],
        "map.hit_ratio": _ratio(maps["hits"], maps["hits"] + maps["misses"]),
        "lockstep.s": own.get("sim.batch", 0.0),
        "lockstep.points": lockstep_points,
        "lockstep.width_mean": _ratio(
            lockstep_points, counts.get("sim.batch.calls", 0)
        ),
        "scalar.s": own.get("sim.runner", 0.0),
        "scalar.points": counts.get("sim.runner.calls", 0),
        "indicators.s": own.get("indicators", 0.0),
        "indicators.calls": counts.get("indicators.calls", 0),
        "fit.s": own.get("fit", 0.0),
        "validate.s": own.get("validate", 0.0),
        "rsm.predict_s": own.get("rsm.predict", 0.0),
        "rsm.predict_calls": counts.get("rsm.predict.calls", 0),
        "optimize.s": own.get("core.optimize", 0.0),
        "optimize.objective_calls": counts.get("optimize.objective_calls", 0),
        "campaign.rounds": campaign.get("rounds", 0),
        "campaign.evaluations": campaign.get("simulated", 0),
        "campaign.acquire_s": own.get("campaign.acquire", 0.0),
        "campaign.journal_s": own.get("campaign.journal", 0.0),
        "engine.self_s": own.get("exec.engine", 0.0),
        "engine.points_evaluated": engine["points_evaluated"],
        "engine.batches": engine["batches"],
        "engine.replicate_hits": engine["replicate_hits"],
        "store.read_s": own.get("store.read", 0.0),
        "store.write_s": own.get("store.write", 0.0),
        "store.round_trips": store_calls,
        "store.hit_ratio": _ratio(
            engine["cache_hits"], engine["cache_hits"] + engine["cache_misses"]
        ),
        "queue.s": own.get("queue", 0.0),
        "queue.transactions": rep["queue_transactions"],
        "queue.leases": jobs.get("leased", 0),
        "queue.reclaims": jobs.get("reclaims", 0),
        "queue.useful_ratio": _ratio(
            jobs.get("done", 0), jobs.get("leased", 0)
        ),
        "wait.poll_s": own.get("wait", 0.0),
        "wait.poll_sleeps": counts.get("wait.calls", 0),
        "worker.startup_s": rep.get("worker_startup_s", 0.0),
        "worker.points": rep.get("worker_points", 0),
        "trace.coverage": (
            (rep["ready"] - rep["launched"]) + sum(own.values())
        ) / wall,
        "trace.overhead": wall / wall_untraced,
        "failed_fraction": _ratio(
            rep["failed"] + rep["bad_points"], rep["attempted"]
        ),
        "surrogate.skipped_responses": skipped,
    }


def check(reps, reference) -> list[str]:
    problems = []
    for i, rep in enumerate(reps, 1):
        problems += [f"rep {i}: {p}" for p in rep["problems"]]
        if rep["bad_points"]:
            problems.append(
                f"rep {i}: {rep['bad_points']} points missing a response "
                "or non-finite"
            )
    # The serial reference replays the first repetition's inputs.
    if reference is not None and reps[0]["campaign"] != reference:
        problems.append(
            f"rep 1: fleet campaign {reps[0]['campaign']} differs from "
            f"the serial campaign {reference}"
        )
    return problems


def measure(bench: Bench, seconds: float,
            trace: bool) -> tuple[list[dict], list[float]]:
    """Repeat fresh-process repetitions while another one still fits in
    ``seconds`` (not counting the untimed checks and reference
    simulations after each answer), and at least ``MIN_REPS`` times
    (a traced run alternates untraced and traced repetitions).  The
    control runs before the first repetition and after each one.
    Returns the repetitions and the control's times."""
    reps, controls = [], []
    started = time.monotonic()
    controls.append(bench.launcher.control_seconds())
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = bench.rep(traced)
        rep["traced"] = traced
        reps.append(rep)
        controls.append(bench.launcher.control_seconds())
        elapsed = time.monotonic() - started - sum(
            r["untimed_s"] for r in reps
        )
        if (elapsed * (len(reps) + 1) / len(reps) > seconds
                and len(reps) >= MIN_REPS):
            return reps, controls


def write_trace(workload: str, seed: int, reps) -> str:
    directory = os.path.join(WORK, "traces")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-seed{seed}.json")
    payload = [
        {"launched": rep["launched"], "spans": rep["spans"]}
        for rep in reps if rep["traced"]
    ]
    with open(f"{path}.tmp", "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(f"{path}.tmp", path)
    return path


def run(args) -> dict:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no repro package under {SRC}")
    size = SIZES["smoke" if args.smoke else "full"]
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    launcher = Launcher(workdir)
    try:
        bench = Bench(args.workload, args.seed, size, launcher, workdir)
        bench.prepare()
        scipy_s = scipy_import_seconds(launcher) if args.trace else 0.0
        reps, controls = measure(bench, args.seconds, bool(args.trace))
        reference = (
            bench.serial_reference()
            if args.workload == "fleet_campaign" else None
        )
    finally:
        launcher.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    problems = check(reps, reference)
    # The first repetition measures ``surrogate_error`` and how many
    # zero-spread responses it skipped (``workload._surrogate_error``,
    # ``workload._optimum_errors``).
    surrogate_error = reps[0]["accuracy"]["error"]
    skipped = reps[0]["accuracy"]["skipped"]
    untraced = [rep for rep in reps if not rep["traced"]]
    if args.trace:
        wall_untraced = end_to_end(untraced, surrogate_error)["wall_s"]
        samples = [
            per_layer(rep, wall_untraced, scipy_s, skipped)
            for rep in reps if rep["traced"]
        ]
        metrics = {}
        for name, (unit, _, mover) in PER_LAYER.items():
            values = [sample[name] for sample in samples]
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(
                f"{name:28s} {value:14.6g} {unit:6s} (median of "
                f"{len(values)}: {min(values):.4g}..{max(values):.4g}) "
                f"{mover}"
            )
        path = write_trace(args.workload, args.seed, reps)
        print(f"trace written to {path}")
    else:
        speed = CONTROL_REFERENCE_S / statistics.fmean(controls)
        values = end_to_end(untraced, surrogate_error, speed)
        per_rep = [
            end_to_end([rep], surrogate_error, speed) for rep in untraced
        ]
        metrics = {}
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            low = min(m[name] for m in per_rep)
            high = max(m[name] for m in per_rep)
            print(
                f"{name:28s} {values[name]:14.6g} {unit:6s} (mean of "
                f"{len(per_rep)}: {low:.4g}..{high:.4g})"
            )
        print("repetitions (wall_s/setup_s): " + ", ".join(
            f"{m['wall_s']:.3f}/{m['setup_s']:.3f}" for m in per_rep
        ))
        unscaled = end_to_end(untraced, surrogate_error)
        print("unscaled: " + ", ".join(
            f"{name} {unscaled[name]:.6g}"
            for name in ("wall_s", "setup_s", "study_s", "points_per_s")
        ) + f"; control mean {statistics.fmean(controls):.4g} s over "
            f"{len(controls)} runs (reference {CONTROL_REFERENCE_S} s)")
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] + rep["bad_points"] for rep in reps)
    print(
        f"failed_fraction {failed}/{attempted}; surrogate_error skips "
        f"{skipped} zero-spread response(s)"
    )
    for i, rep in enumerate(reps, 1):
        if "worker_points" in rep:
            print(
                f"rep {i}: worker ready after {rep['worker_startup_s']:.3f} s,"
                f" evaluated {rep['worker_points']} of "
                f"{rep['points_simulated']} points"
            )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size workloads (self-tests)")
    args = parser.parse_args(argv)
    # A terminated run still stops its children (``run``'s finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        result = run(args)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
