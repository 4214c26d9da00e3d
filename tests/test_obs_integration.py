"""The observability layer wired into the real platform.

End-to-end acceptance for the tentpole: live components (engine,
store, queue, resilience wrapper, worker) mirror onto the default
registry through pull-time collectors, the ``repro-metrics`` CLI
exports a scrape-able view of a study substrate, the queue-stats CLI
reports per-worker lease state, and the docs metric catalog stays in
lockstep with :mod:`repro.obs.catalog`.
"""

import json
import math
import re
import urllib.request
from pathlib import Path

import pytest

import repro.exec.cli as cache_cli
import repro.obs.cli as metrics_cli
from repro.exec import EvaluationEngine, Job
from repro.exec.faults import FaultPlan, FaultSpec, FaultyQueue
from repro.exec.queue import SQLiteWorkQueue, resolve_queue
from repro.exec.resilience import ResilientQueue
from repro.exec.store import MemoryStore, resolve_store
from repro.exec.worker import Worker, main as worker_main
from repro.obs import catalog
from repro.obs.catalog import SPECS, ensure_registered, instrument
from repro.obs.events import read_events, set_event_log
from repro.obs.export import parse_prometheus, render_prometheus, serve_metrics
from repro.obs.metrics import MetricsRegistry, default_registry


@pytest.fixture(autouse=True)
def _unbound_event_log():
    set_event_log(None)
    yield
    set_event_log(None)


def _synthetic(point):
    return {"y": math.sin(point["a"]) + point["b"]}


def _registry_text():
    return render_prometheus(registry=default_registry())


class TestCatalogBridge:
    def test_engine_and_cache_counters_mirror_onto_registry(self):
        engine = EvaluationEngine(_synthetic, backend="serial", cache=True)
        before = parse_prometheus(_registry_text())
        points = [{"a": 0.1, "b": 1.0}, {"a": 0.2, "b": 2.0}]
        engine.map_points(points)
        engine.map_points(points)  # second pass: pure cache hits
        after = parse_prometheus(_registry_text())

        def delta(key):
            return after.get(key, 0.0) - before.get(key, 0.0)

        assert delta("repro_points_evaluated_total") == 2.0
        assert delta("repro_cache_hits_total") == 2.0
        assert delta("repro_cache_misses_total") == 2.0
        # Spans around evaluate/persist landed in the histogram.
        assert delta('repro_span_seconds_count{span="evaluate",status="ok"}') >= 1.0

    def test_dead_components_vanish_from_the_registry(self):
        engine = EvaluationEngine(_synthetic, backend="serial", cache=True)
        engine.map_points([{"a": 0.5, "b": 0.5}])
        del engine
        # The weakref bridge prunes: no stale engine contributes now,
        # so two registry pulls in a row agree (nothing double counts).
        assert parse_prometheus(_registry_text()) == parse_prometheus(
            _registry_text()
        )

    def test_queue_counters_and_events(self, tmp_path):
        events = tmp_path / "events.jsonl"
        set_event_log(events)
        queue = SQLiteWorkQueue(tmp_path / "q.sqlite")
        try:
            queue.submit([Job("ab" * 30, {"a": 1.0}), Job("cd" * 30, {"a": 2.0})])
            leased = queue.lease("w1", n=2, lease_seconds=0.01)
            assert len(leased) == 2
            import time as _time

            _time.sleep(0.05)
            reclaimed = queue.lease("w2", n=2, lease_seconds=60.0)
            assert len(reclaimed) == 2
            # Counters count *jobs*: 2 granted to w1, then the same 2
            # reclaimed from it and granted again to w2.
            assert queue.lease_grants == 4
            assert queue.lease_reclaims == 2
            snap = parse_prometheus(_registry_text())
            key = 'repro_lease_reclaims_total{queue="%s"}' % queue.name
            assert snap[key] >= 2.0
            grants = read_events(events, event="lease_grant")
            assert [g["worker"] for g in grants] == ["w1", "w2"]
            reclaim_events = read_events(events, event="lease_reclaim")
            assert len(reclaim_events) == 2
            assert {r["from_worker"] for r in reclaim_events} == {"w1"}
            assert {r["to_worker"] for r in reclaim_events} == {"w2"}
        finally:
            queue.close()

    @pytest.mark.parametrize(
        "stack", ["plain", "faulty", "resilient", "faulty_under_resilient"]
    )
    def test_wrapper_stacks_scrape_each_transaction_once(
        self, tmp_path, stack
    ):
        inner = SQLiteWorkQueue(tmp_path / "q.sqlite")
        # A label of its own, so other live queues cannot blur the sums.
        label = inner.name = f"stack-{stack}"
        transient = FaultPlan([FaultSpec("queue", "lease", 1, "transient")])
        queue = {
            "plain": lambda: inner,
            "faulty": lambda: FaultyQueue(inner, FaultPlan()),
            "resilient": lambda: ResilientQueue(inner),
            "faulty_under_resilient": lambda: ResilientQueue(
                FaultyQueue(inner, transient), sleep=lambda _: None
            ),
        }[stack]()
        try:
            queue.submit([Job("ab" * 30, {"a": 1.0}), Job("cd" * 30, {"a": 2.0})])
            assert len(queue.lease("w1", n=2)) == 2
            assert queue.complete("w1", "ab" * 30) is True
            snap = parse_prometheus(_registry_text())
            # Wrapper-labelled series (``resilient[...]``) would match too.
            series = {
                key: value
                for key, value in snap.items()
                if "{queue=" in key and label in key
            }
            assert series == {
                'repro_queue_transactions_total{queue="%s"}' % label:
                    float(inner.transactions),
                'repro_lease_grants_total{queue="%s"}' % label:
                    float(inner.lease_grants),
                'repro_lease_reclaims_total{queue="%s"}' % label:
                    float(inner.lease_reclaims),
            }
            assert inner.transactions == 3 and inner.lease_grants == 2
            # The wrapper reads the inner queue's live counters.
            assert queue.transactions == inner.transactions
            assert queue.lease_grants == inner.lease_grants
        finally:
            queue.close()

    def test_worker_report_mirrors_and_worker_events_flow(self, tmp_path):
        events = tmp_path / "events.jsonl"
        set_event_log(events)
        store = resolve_store(str(tmp_path / "s.sqlite"))
        queue = resolve_queue(str(tmp_path / "s.sqlite"))
        try:
            queue.submit([Job("ab" * 30, {"a": 0.3, "b": 1.0})])
            worker = Worker(
                store, queue, _synthetic, worker_id="wx", drain=True
            )
            report = worker.run()
            assert report.jobs_completed == 1
            snap = parse_prometheus(_registry_text())
            assert snap['repro_jobs_completed_total{worker="wx"}'] == 1.0
            kinds = [r["event"] for r in read_events(events)]
            assert "worker_start" in kinds
            assert "worker_exit" in kinds
            assert "metrics_flush" in kinds
            flush = read_events(events, event="metrics_flush")[-1]
            assert flush["source"] == "wx"
            assert any(
                "repro_jobs_completed_total" in key
                for key in flush["counters"]
            )
        finally:
            queue.close()
            store.close()

    def test_instrument_accessor_matches_catalog(self):
        gc_runs = instrument("repro_gc_runs_total")
        before = gc_runs.value()
        gc_runs.inc()
        assert gc_runs.value() == before + 1
        with pytest.raises(KeyError):
            instrument("repro_not_in_catalog_total")

    def test_ensure_registered_creates_every_instrument(self):
        reg = MetricsRegistry()
        ensure_registered(reg)
        for spec in SPECS:
            if spec.source == "instrument":
                assert reg.get(spec.name) is not None, spec.name


class TestDocsContract:
    """`docs/observability.md` is a contract over the catalog."""

    DOC = Path(__file__).resolve().parent.parent / "docs" / "observability.md"

    def test_every_spec_is_documented_with_kind_and_source(self):
        text = self.DOC.read_text(encoding="utf-8")
        rows = {}
        for line in text.splitlines():
            match = re.match(r"\| `([a-z_]+)` \| (\w+) \|.*\| (\w+) \|", line)
            if match:
                rows[match.group(1)] = (match.group(2), match.group(3))
        for spec in SPECS:
            assert spec.name in rows, f"{spec.name} missing from docs table"
            kind, source = rows[spec.name]
            assert kind == spec.kind, f"{spec.name} documented as {kind}"
            assert source == spec.source, f"{spec.name} documented as {source}"

    def test_docs_do_not_document_ghost_metrics(self):
        text = self.DOC.read_text(encoding="utf-8")
        known = {spec.name for spec in SPECS}
        for line in text.splitlines():
            match = re.match(r"\| `(repro_[a-z_]+)` \|", line)
            if match:
                assert match.group(1) in known, f"{match.group(1)} not in catalog"


def _seed_substrate(tmp_path, completed=1, pending=1):
    spec = str(tmp_path / "study.sqlite")
    store = resolve_store(spec)
    queue = resolve_queue(spec)
    jobs = [
        Job(f"{i:02d}" * 30, {"a": 0.1 * i, "b": 1.0})
        for i in range(completed + pending)
    ]
    queue.submit(jobs)
    if completed:
        worker = Worker(
            store, queue, _synthetic, worker_id="w-done", batch=1,
            max_jobs=completed, drain=False, idle_timeout=0.0,
        )
        worker.run()
    queue.lease("w-live", n=pending, lease_seconds=120.0)
    queue.close()
    store.close()
    return spec


class TestMetricsCli:
    def test_exposition_dump(self, tmp_path, capsys):
        spec = _seed_substrate(tmp_path)
        assert metrics_cli.main([spec]) == 0
        parsed = parse_prometheus(capsys.readouterr().out)
        assert parsed['repro_queue_depth{status="done"}'] == 1.0
        assert parsed['repro_queue_depth{status="leased"}'] == 1.0
        assert parsed['repro_worker_jobs_held{worker="w-live"}'] == 1.0
        assert parsed["repro_fleet_workers"] == 1.0

    def test_json_sample(self, tmp_path, capsys):
        spec = _seed_substrate(tmp_path)
        assert metrics_cli.main([spec, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queue"]["done"] == 1
        assert "w-live" in payload["workers"]
        assert payload["workers"]["w-live"]["jobs_held"] == 1

    def test_textfile_once(self, tmp_path):
        spec = _seed_substrate(tmp_path)
        out = tmp_path / "repro.prom"
        assert metrics_cli.main([spec, "--textfile", str(out), "--once"]) == 0
        parsed = parse_prometheus(out.read_text())
        assert parsed['repro_queue_depth{status="pending"}'] == 0.0

    def test_serve_scrapes_fresh_fleet_samples(self, tmp_path):
        from repro.obs.fleet import sample_fleet

        spec = _seed_substrate(tmp_path)
        server = serve_metrics(
            port=0,
            extra_samples=lambda: sample_fleet(spec).samples(),
        )
        try:
            body = urllib.request.urlopen(server.url, timeout=5).read().decode()
        finally:
            server.stop()
        parsed = parse_prometheus(body)
        assert parsed['repro_worker_jobs_held{worker="w-live"}'] == 1.0

    def test_watch_once_renders_dashboard(self, tmp_path, capsys):
        spec = _seed_substrate(tmp_path)
        assert metrics_cli.main([spec, "--watch", "--once"]) == 0
        out = capsys.readouterr().out
        assert "fleet" in out
        assert "w-live" in out


class TestQueueStatsWorkers:
    def test_json_includes_per_worker_lease_state(self, tmp_path, capsys):
        spec = _seed_substrate(tmp_path)
        assert cache_cli.main(["queue", "stats", spec, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        held = payload["workers"]["w-live"]
        assert held["jobs_held"] == 1
        assert held["oldest_lease_age"] >= 0.0
        assert held["last_heartbeat_age"] >= 0.0

    def test_text_lists_workers_holding_leases(self, tmp_path, capsys):
        spec = _seed_substrate(tmp_path)
        assert cache_cli.main(["queue", "stats", spec]) == 0
        out = capsys.readouterr().out
        assert "w-live" in out
        assert "holds 1" in out


class TestSupervisedJsonMetrics:
    def test_supervise_json_embeds_fleet_metrics(self, tmp_path, capsys):
        import os

        tests_dir = Path(__file__).resolve().parent
        src_dir = tests_dir.parent / "src"
        spec = str(tmp_path / "study.sqlite")
        queue = resolve_queue(spec)
        queue.submit(
            [Job(f"{i:02d}" * 30, {"a": float(i), "b": 1.0}) for i in range(4)]
        )
        queue.close()
        old = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = f"{src_dir}{os.pathsep}{tests_dir}"
        try:
            code = worker_main([
                spec,
                "--evaluator", "worker_eval_fixtures:make_synthetic",
                "--supervise", "2", "--drain", "--json",
            ])
        finally:
            if old is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = old
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        metrics = payload["metrics"]
        assert metrics["jobs_completed"] == 4
        assert metrics["restarts"] == 0
        assert metrics["uptime_seconds"] > 0.0
        assert sum(
            w["jobs_completed"] for w in metrics["workers"].values()
        ) == 4
