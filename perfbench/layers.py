"""Layer attribution from outside the program.

A :class:`Tracer` wraps public entry points of the ``repro`` layers
(module functions as their callers look them up, and class methods),
records one span per call in memory — layer name, start, end and the
span that was open when the call began — and restores every original
when stopped.  Nothing under ``src/`` is modified on disk; the wrappers
live only in the traced process.

Self time of a span is its duration minus the part of that interval
its child spans cover (:func:`self_times`).  Summed per layer, self
times are the part of the traced window the named layers explain,
which is what ``trace.coverage`` reports.  No span wraps a whole
workload (such as ``Campaign.run``): its self time would absorb every
unwrapped call and hide it as covered.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: Store methods timed as reads / writes (the batched and single-point
#: forms of each; ``peek`` is the non-promoting read).
STORE_READS = ("load", "load_many", "peek")
STORE_WRITES = ("persist", "persist_many")

#: The public :class:`repro.exec.queue.WorkQueue` surface, less the
#: ``jobs`` generator (wrapped apart, see :meth:`Tracer.wrap`).
QUEUE_METHODS = (
    "submit", "lease", "complete", "fail", "heartbeat",
    "complete_many", "fail_many", "heartbeat_many", "reclaim",
    "requeue", "purge", "job", "stats", "worker_stats",
)

#: Journal writes a campaign makes.
JOURNAL_WRITES = (
    "create", "begin_round", "complete_round", "advance_round", "finish",
)


class _Frame:
    __slots__ = ("layer", "start", "end", "parent", "kept")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.kept = True
        self.start = 0.0
        self.end = 0.0


class Tracer:
    """In-memory span recorder over monkeypatched layer boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.counts: Counter = Counter()
        self._frames: list[_Frame] = []
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, layer, original, args, kwargs, keep=None,
              materialize=False):
        stack = self._stack
        frame = _Frame(layer, stack[-1] if stack else None)
        stack.append(frame)
        probe = keep() if keep is not None else None
        frame.start = self.clock()
        try:
            result = original(*args, **kwargs)
            if materialize:
                # A generator method does its work while iterated:
                # consume it inside the span so the span times the work.
                result = iter(list(result))
        finally:
            frame.end = self.clock()
            stack.pop()
            if keep is not None and keep() == probe:
                frame.kept = False
            else:
                self._frames.append(frame)
        return result

    def wrap(self, owner, name, layer, *, on_result=None, keep=None,
             materialize=False):
        """Replace ``owner.name`` with a span-recording wrapper.

        ``on_result(counts, args, kwargs, result)`` updates counters;
        ``keep()`` returns a value sampled before and after the call —
        when unchanged, the span is dropped (its time stays with its
        parent) so hot calls that did no layer work leave no record.
        """
        if isinstance(owner, type) and name not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} defines no {name}")
        original = getattr(owner, name)
        if getattr(original, "__isabstractmethod__", False):
            return
        call = self._call
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = call(layer, original, args, kwargs, keep, materialize)
            counts[layer + ".calls"] += 1
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def wrap_defined(self, classes, names, layer, **options):
        """Wrap each of ``names`` a class in ``classes`` defines itself."""
        for cls in classes:
            for name in names:
                if name in cls.__dict__:
                    self.wrap(cls, name, layer, **options)

    def patch(self, owner, name, replacement):
        """Swap an attribute for the tracer's lifetime."""
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def stop(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- export ------------------------------------------------------------

    def spans(self) -> list[list]:
        """Kept spans as ``[layer, start, end, parent_index]`` rows.

        A dropped span's children are re-parented to its nearest kept
        ancestor; the parent index is -1 for top-level spans.
        """
        index = {id(frame): i for i, frame in enumerate(self._frames)}
        rows = []
        for frame in self._frames:
            parent = frame.parent
            while parent is not None and not parent.kept:
                parent = parent.parent
            rows.append(
                [frame.layer, frame.start, frame.end,
                 index[id(parent)] if parent is not None else -1]
            )
        return rows


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus its children's cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _layer, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(i, ()), start, end)
        for i, (_layer, start, end, _parent) in enumerate(spans)
    ]


def layer_self_times(spans) -> dict[str, float]:
    """Per-layer sums of :func:`self_times`."""
    totals: dict[str, float] = {}
    for (layer, *_rest), seconds in zip(spans, self_times(spans)):
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


class _TimedSleep:
    """Stand-in for the ``time`` module seen by one module: every
    attribute is the real one except ``sleep``, which is recorded as
    a ``wait`` span."""

    def __init__(self, tracer: Tracer):
        real = time

        def sleep(seconds):
            tracer.counts["wait.calls"] += 1
            return tracer._call("wait", real.sleep, (seconds,), {})

        self.sleep = sleep
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


def _count_batch(counts, args, kwargs, result):
    counts["lockstep.points"] += len(args[0])


def _count_optimize(counts, args, kwargs, result):
    counts["optimize.objective_calls"] += int(result.evaluations)


def install(tracer: Tracer) -> None:
    """Wrap every workload layer's public boundary.

    Campaign layers are wrapped only when ``repro.campaign`` is
    already imported, so tracing never changes what a workload
    imports.
    """
    import repro.core.toolkit as toolkit
    from repro.core.explorer import DesignExplorer
    from repro.core.rsm.surface import ResponseSurface
    from repro.exec import queue as queue_mod
    from repro.exec import store as store_mod
    from repro.exec.engine import EvaluationEngine
    from repro.sim.envelope import ChargingMap, charging_cache_stats

    def map_work():
        stats = charging_cache_stats()
        return stats["built"], stats["loaded"]

    tracer.wrap(ChargingMap, "resolve", "sim.envelope", keep=map_work)
    tracer.wrap(toolkit, "simulate_batch", "sim.batch",
                on_result=_count_batch)
    tracer.wrap(toolkit, "simulate", "sim.runner")
    tracer.wrap(toolkit, "evaluate_indicators", "indicators")
    tracer.wrap(DesignExplorer, "fit_surfaces", "fit")
    tracer.wrap(DesignExplorer, "anova", "fit")
    tracer.wrap(DesignExplorer, "validate", "validate")
    tracer.wrap(ResponseSurface, "predict", "rsm.predict")
    tracer.wrap(toolkit, "optimize_desirability", "core.optimize",
                on_result=_count_optimize)
    tracer.wrap(EvaluationEngine, "map_points", "exec.engine")
    stores = (store_mod.CacheStore, store_mod.MemoryStore,
              store_mod.FileStore, store_mod.SQLiteStore)
    tracer.wrap_defined(stores, STORE_READS, "store.read")
    tracer.wrap_defined(stores, STORE_WRITES, "store.write")
    queues = (queue_mod.WorkQueue, queue_mod.SQLiteWorkQueue,
              queue_mod.FileWorkQueue)
    tracer.wrap_defined(queues, QUEUE_METHODS, "queue")
    tracer.wrap_defined(queues, ("jobs",), "queue", materialize=True)
    tracer.patch(queue_mod, "time", _TimedSleep(tracer))
    if "repro.campaign" in sys.modules:
        import repro.campaign.campaign as campaign_mod
        from repro.campaign import acquisition, journal

        tracer.wrap(campaign_mod, "optimize_desirability", "core.optimize",
                    on_result=_count_optimize)
        strategies = [
            cls for cls in vars(acquisition).values()
            if isinstance(cls, type)
            and issubclass(cls, acquisition.AcquisitionStrategy)
        ]
        tracer.wrap_defined(strategies, ("propose",), "campaign.acquire")
        journals = [
            cls for cls in vars(journal).values()
            if isinstance(cls, type)
            and issubclass(cls, journal.CampaignJournal)
        ]
        tracer.wrap_defined(journals, JOURNAL_WRITES, "campaign.journal")
