"""Lifecycle management for evaluation stores.

A long-lived deployment accumulates persisted evaluations forever:
every study appends blobs, nothing ever removes them.  This module is
the store-level lifecycle layer the ROADMAP names — garbage collection
under explicit budgets, compaction of the space dead entries leave
behind, integrity verification, and store-to-store transfer so caches
can be shipped between hosts and unioned.

Everything here works through the generic
:class:`~repro.exec.store.CacheStore` metadata surface
(:meth:`~repro.exec.store.CacheStore.entries`,
:meth:`~repro.exec.store.CacheStore.verify`,
:meth:`~repro.exec.store.CacheStore.compact`), so any future store —
a distributed backend leasing work against a shared cache — inherits
GC, ``repro-cache`` tooling and the contract tests for free.

Dropping an entry is always *safe* (evaluations are deterministic;
the engine re-simulates a miss), so eviction policy is purely an
efficiency question: :data:`POLICIES` maps policy names to sort keys
over :class:`~repro.exec.store.EntryMeta`, and
:func:`register_policy` accepts new ones.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import ReproError
from repro.exec.store import (
    CacheStore,
    CompactionReport,
    EntryMeta,
    VerifyReport,
    resolve_store,
)
from repro.obs.catalog import instrument
from repro.obs.events import emit_event

__all__ = [
    "GCBudget",
    "GCReport",
    "TransferReport",
    "POLICIES",
    "register_policy",
    "collect",
    "compact",
    "verify",
    "merge_stores",
    "export_store",
]


def _age_reference(meta: EntryMeta) -> float:
    """The timestamp TTL and LRU ordering reason about: last use,
    falling back to creation; entries with neither (a store that
    cannot say) look infinitely old, so bounded deployments converge
    instead of hoarding unaccountable blobs."""
    stamp = meta.last_used_at or meta.created_at
    return stamp if stamp is not None else 0.0


#: Eviction policies: name -> sort key over :class:`EntryMeta`.
#: Lower keys evict first.  ``lru`` orders by last use (falling back
#: to creation), ``oldest`` strictly by creation time.
POLICIES: dict[str, Callable[[EntryMeta], float]] = {
    "lru": _age_reference,
    "oldest": lambda meta: meta.created_at or 0.0,
}


def register_policy(
    name: str, key: Callable[[EntryMeta], float]
) -> None:
    """Add an eviction policy (sort key over entry metadata; lower
    evicts first)."""
    POLICIES[name] = key


@dataclass
class GCBudget:
    """What a store is allowed to hold.

    Any combination of bounds may be set; GC enforces the TTL first,
    then evicts by ``policy`` until the count and byte budgets hold.
    A budget with no bounds set is legal and collects nothing.

    Attributes:
        max_bytes: approximate byte ceiling over all entries.
        max_age_seconds: TTL — entries unused for longer are dropped
            (age counts from last use, falling back to creation).
        max_entries: entry-count ceiling.
        policy: eviction order for the size/count budgets — a key of
            :data:`POLICIES` (``"lru"`` or ``"oldest"`` out of the
            box).
    """

    max_bytes: int | None = None
    max_age_seconds: float | None = None
    max_entries: int | None = None
    policy: str = "lru"

    def __post_init__(self) -> None:
        for name in ("max_bytes", "max_entries"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ReproError(f"{name} must be >= 0, got {value}")
        if self.max_age_seconds is not None and self.max_age_seconds < 0:
            raise ReproError(
                f"max_age_seconds must be >= 0, got {self.max_age_seconds}"
            )

    @property
    def bounded(self) -> bool:
        """Whether any limit is actually set."""
        return (
            self.max_bytes is not None
            or self.max_age_seconds is not None
            or self.max_entries is not None
        )

    @classmethod
    def of(cls, spec: "GCBudget | Mapping | None") -> "GCBudget | None":
        """Coerce a budget spec — a ready budget, a kwargs mapping
        (handy at API boundaries like ``cache_gc={"max_bytes": ...}``),
        or None."""
        if spec is None or isinstance(spec, GCBudget):
            return spec
        if isinstance(spec, Mapping):
            return cls(**spec)
        raise ReproError(
            f"cache_gc must be a GCBudget, a mapping of its fields, "
            f"or None; got {type(spec)!r}"
        )


@dataclass
class GCReport:
    """What one garbage-collection pass did.

    Attributes:
        scanned: entries examined.
        ttl_evicted: entries dropped by the age bound.
        budget_evicted: entries dropped to satisfy the byte/count
            bounds.
        bytes_reclaimed: approximate bytes freed.
        entries_after / bytes_after: store occupancy when the pass
            finished.
        victims: evicted fingerprints, in eviction order (populated
            on dry runs too, where nothing was actually dropped).
        dry_run: planned only; the store was not modified.
    """

    policy: str
    scanned: int = 0
    ttl_evicted: int = 0
    budget_evicted: int = 0
    bytes_reclaimed: int = 0
    entries_after: int = 0
    bytes_after: int = 0
    victims: list[str] = field(default_factory=list)
    dry_run: bool = False

    @property
    def evicted(self) -> int:
        return self.ttl_evicted + self.budget_evicted

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "scanned": self.scanned,
            "evicted": self.evicted,
            "ttl_evicted": self.ttl_evicted,
            "budget_evicted": self.budget_evicted,
            "bytes_reclaimed": self.bytes_reclaimed,
            "entries_after": self.entries_after,
            "bytes_after": self.bytes_after,
            "dry_run": self.dry_run,
            # The whole point of --dry-run --json is reviewing the
            # eviction plan, so the victims ride along.
            "victims": list(self.victims),
        }


def collect(
    store: CacheStore,
    budget: GCBudget | Mapping | None,
    *,
    now: float | None = None,
    dry_run: bool = False,
) -> GCReport:
    """Garbage-collect a store down to a budget.

    TTL eviction runs first (an expired entry is dead regardless of
    space), then the byte/count budgets evict in policy order until
    both hold.  Evictions are issued through ``store.discard`` —
    loads never race a half-deleted entry — and are counted in
    ``store.stats.gc_evictions`` / ``bytes_reclaimed`` (on top of the
    ``invalidations`` every discard records).

    Args:
        store: the store to collect.
        budget: bounds to enforce (None or an unbounded budget is a
            no-op).
        now: clock override for tests.
        dry_run: plan only — report victims without dropping them.
    """
    budget = GCBudget.of(budget)
    report = GCReport(policy=budget.policy if budget else "lru")
    metas = list(store.entries()) if budget and budget.bounded else []
    report.scanned = len(metas)
    if budget is None or not budget.bounded:
        report.entries_after = len(store)
        report.bytes_after = store.total_bytes()
        return report
    if budget.policy not in POLICIES:
        raise ReproError(
            f"unknown eviction policy {budget.policy!r}; "
            f"pick from {sorted(POLICIES)} or register_policy() it"
        )
    key = POLICIES[budget.policy]
    clock = time.time() if now is None else now
    report.dry_run = dry_run

    survivors: list[EntryMeta] = []
    ttl_victims: list[EntryMeta] = []
    if budget.max_age_seconds is not None:
        cutoff = clock - budget.max_age_seconds
        for meta in metas:
            if _age_reference(meta) < cutoff:
                ttl_victims.append(meta)
            else:
                survivors.append(meta)
    else:
        survivors = list(metas)

    # Policy order, oldest-key first; then pop from the front until
    # the count and byte ceilings both hold.
    survivors.sort(key=key)
    budget_victims: list[EntryMeta] = []
    remaining_bytes = sum(meta.size_bytes for meta in survivors)
    remaining = len(survivors)
    index = 0
    while index < len(survivors) and (
        (budget.max_entries is not None and remaining > budget.max_entries)
        or (budget.max_bytes is not None and remaining_bytes > budget.max_bytes)
    ):
        victim = survivors[index]
        budget_victims.append(victim)
        remaining -= 1
        remaining_bytes -= victim.size_bytes
        index += 1

    for group, counter in ((ttl_victims, "ttl"), (budget_victims, "budget")):
        for meta in group:
            report.victims.append(meta.fingerprint)
            if not dry_run and store.discard(meta.fingerprint):
                report.bytes_reclaimed += meta.size_bytes
            if counter == "ttl":
                report.ttl_evicted += 1
            else:
                report.budget_evicted += 1
    if not dry_run:
        store.stats.gc_evictions += report.evicted
        store.stats.bytes_reclaimed += report.bytes_reclaimed
        report.entries_after = len(store)
        report.bytes_after = store.total_bytes()
        instrument("repro_gc_runs_total").inc()
        emit_event(
            "gc",
            store=store.name,
            policy=report.policy,
            evicted=report.evicted,
            bytes_reclaimed=report.bytes_reclaimed,
        )
    else:
        report.entries_after = remaining
        report.bytes_after = remaining_bytes
    return report


def compact(
    store: CacheStore, *, grace_seconds: float = 60.0
) -> CompactionReport:
    """Reclaim dead space: VACUUM + WAL checkpoint for SQLite, sweep
    of stale temp/partial files and zero-byte orphans for the file
    store, a no-op for memory.  Thin functional wrapper over
    :meth:`CacheStore.compact` for symmetry with :func:`collect`."""
    return store.compact(grace_seconds=grace_seconds)


def verify(store: CacheStore, *, repair: bool = False) -> VerifyReport:
    """Integrity-scan a store; see :meth:`CacheStore.verify`."""
    return store.verify(repair=repair)


@dataclass
class TransferReport:
    """What a merge/export moved.

    Attributes:
        scanned: valid source entries considered.
        copied: entries written into the destination (new entries
            plus newest-wins overwrites).
        skipped: collisions where the destination entry was at least
            as new (left untouched).
        bytes_copied: approximate bytes written.
    """

    scanned: int = 0
    copied: int = 0
    skipped: int = 0
    bytes_copied: int = 0

    def as_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "copied": self.copied,
            "skipped": self.skipped,
            "bytes_copied": self.bytes_copied,
        }


def merge_stores(dest: CacheStore, source: CacheStore) -> TransferReport:
    """Union a source store's valid entries into a destination.

    Collisions resolve newest-wins on creation time (ties keep the
    destination — re-writing an identical deterministic payload buys
    nothing).  Only entries the source itself validates are copied —
    ``items()`` already refuses corrupt, mis-versioned or mismatched
    blobs, so a bad source entry can never be laundered into a
    destination that would then serve it.  Entry metadata (creation
    time, last use, hit counts) travels with the blob, so TTL GC on
    the destination still sees the entry's true age.  The copies land
    in one ``persist_many`` round trip.
    """
    if dest is source:
        raise ReproError("cannot merge a store into itself")
    report = TransferReport()
    copies: list[tuple[str, dict[str, float]]] = []
    metas: dict[str, EntryMeta] = {}
    for fingerprint, responses in source.items():
        report.scanned += 1
        meta = source.entry_meta(fingerprint)
        if fingerprint in dest:
            existing = dest.entry_meta(fingerprint)
            if (existing.created_at or 0.0) >= (
                (meta.created_at or 0.0) if meta else 0.0
            ):
                report.skipped += 1
                continue
        copies.append((fingerprint, responses))
        if meta is not None:
            metas[fingerprint] = meta
        report.copied += 1
        report.bytes_copied += meta.size_bytes if meta else 0
    dest.persist_many(copies, meta=metas)
    return report


def export_store(
    source: CacheStore, dest: CacheStore | str | os.PathLike
) -> TransferReport:
    """Copy every valid entry of ``source`` into ``dest`` (a ready
    store or a path spec); see :meth:`CacheStore.export_to`."""
    return source.export_to(dest)
