"""Content-addressed cache for design-point evaluations.

A design point is identified by the *canonical hash* of its physical
factor dictionary plus an evaluation-context fingerprint (mission
length, engine choice, envelope options, system overrides — anything
that changes the mapping from factors to responses).  CCD axial/centre
replicates, validation points revisiting study points, and repeated
studies over the same configuration therefore share one simulation.

Where the entries live is pluggable (:mod:`repro.exec.store`): the
default :class:`~repro.exec.store.MemoryStore` keeps the cache
process-local exactly as before, while a
:class:`~repro.exec.store.FileStore` or
:class:`~repro.exec.store.SQLiteStore` shares evaluations across
processes, CI runs and hosts.  Evaluations are deterministic, so a
lost or invalidated entry is never a correctness problem — the engine
simply re-simulates.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ReproError
from repro.exec.store import (
    MIRRORED_COUNTERS,
    CacheStore,
    MemoryStore,
    resolve_store,
)


def _canonical_key(key: object) -> str:
    """Type-tagged string form of a mapping key.

    ``{1: x}`` and ``{"1": x}`` are different contexts, so keys carry
    their type in the canonical form instead of collapsing through
    ``str``.  The tags also keep marker keys like ``__type__`` (used
    for attribute-bag objects) out of the user-key namespace: a real
    string key canonicalizes to ``s:__type__``, never ``__type__``.
    """
    if isinstance(key, str):
        return f"s:{key}"
    # numpy scalars first: np.float64 *subclasses* float, and its repr
    # ("np.float64(1.5)") is numpy-version-dependent — normalize to
    # the Python scalar so persisted fingerprints match across hosts.
    if isinstance(key, (np.floating, np.integer)):
        return _canonical_key(key.item())
    if isinstance(key, np.bool_):
        return _canonical_key(bool(key))
    if isinstance(key, bool):  # before int: bool subclasses int
        return f"b:{key!r}"
    if isinstance(key, int):
        return f"i:{key!r}"
    if isinstance(key, float):
        return f"f:{key!r}"
    if isinstance(key, tuple):
        # Recurse instead of repr-ing, so numpy scalars inside tuple
        # keys normalize like every other scalar; length-prefix each
        # element so payloads containing the delimiter cannot make
        # ('a,s:b',) collide with ('a', 'b').
        parts = [_canonical_key(v) for v in key]
        joined = ",".join(f"{len(p)}~{p}" for p in parts)
        return f"t:({joined})"
    return f"{type(key).__name__}:{key!r}"


def _canonical(obj: object, depth: int = 0) -> object:
    """Reduce an object to a JSON-stable structure.

    Floats go through ``repr`` so the key reflects the exact bit
    pattern handed to the evaluator (1.0 and 1.0000000000000002 are
    different design points); containers and plain attribute-bag
    objects (vibration sources, option dataclasses) are recursed;
    anything else falls back to ``repr`` of its type and value.
    Mapping keys, set elements, strings and floats are type-tagged so
    values that merely print alike (``1`` vs ``"1"``, ``1.5`` vs
    ``"1.5"``) cannot share a fingerprint, and sets are marked
    distinct from lists.
    """
    if depth > 8:
        return f"{type(obj).__name__}:{obj!r}"
    # numpy scalars before the Python branches: np.float64 subclasses
    # float and np.bool_ prints like bool, but their reprs vary with
    # the numpy version — persisted fingerprints must not.
    if isinstance(obj, (np.floating, np.integer)):
        return _canonical(obj.item(), depth)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if obj is None or isinstance(obj, (bool, int)):
        return obj
    # Strings and floats are both tagged: a float canonicalizes via
    # repr, so an untagged 1.5 would be indistinguishable from the
    # *string* "1.5" (and an untagged string could forge any tagged
    # form).  None/bool/int stay native — JSON already separates them
    # from strings.
    if isinstance(obj, str):
        return f"s:{obj}"
    if isinstance(obj, float):
        return f"f:{obj!r}"
    if isinstance(obj, np.ndarray):
        return [_canonical(v, depth + 1) for v in obj.tolist()]
    if isinstance(obj, Mapping):
        return {
            _canonical_key(k): _canonical(obj[k], depth + 1)
            for k in sorted(obj, key=_canonical_key)
        }
    if isinstance(obj, (set, frozenset)):
        # Ordered by the tagged key, so mixed-type contents sort
        # deterministically without repr collisions; the marker key
        # cannot clash with a real mapping (those keys are tagged).
        items = sorted(obj, key=_canonical_key)
        return {"__set__": [_canonical(v, depth + 1) for v in items]}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v, depth + 1) for v in obj]
    attrs = getattr(obj, "__dict__", None)
    if attrs:
        return {
            "__type__": type(obj).__name__,
            **{
                _canonical_key(k): _canonical(v, depth + 1)
                for k, v in sorted(
                    attrs.items(), key=lambda kv: _canonical_key(kv[0])
                )
            },
        }
    return f"{type(obj).__name__}:{obj!r}"


def point_fingerprint(
    point: Mapping[str, float], context: object = None
) -> str:
    """Canonical hash of a physical factor dict within a context."""
    payload = json.dumps(
        {"point": _canonical(point), "context": _canonical(context)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss and store-traffic accounting for the study reports.

    All counters are *this cache's* traffic: the store-level ones
    (``loads``, ``persists``, ``invalidations``, ``evictions``, and
    the GC/compaction family ``gc_evictions`` / ``bytes_reclaimed`` /
    ``compactions``) count only operations issued through this cache,
    so per-study deltas stay clean even when several caches share one
    store.  The store's own lifetime totals live on
    ``EvalCache.store.stats``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    loads: int = 0
    persists: int = 0
    invalidations: int = 0
    gc_evictions: int = 0
    bytes_reclaimed: int = 0
    compactions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }
        for name in MIRRORED_COUNTERS:
            out[name] = getattr(self, name)
        return out


class EvalCache:
    """Map from point fingerprints to response dictionaries.

    Args:
        max_entries: LRU bound for the default in-memory store; None
            keeps every entry.  Rejected alongside an explicit
            ``store`` — bound the store itself instead.
        store: where entries live — a ready
            :class:`~repro.exec.store.CacheStore`, a directory path
            (file store), a ``.sqlite``/``.db`` path (SQLite store),
            or None for the process-local memory store.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        store: CacheStore | str | os.PathLike | None = None,
    ):
        self.store = resolve_store(store, max_entries=max_entries)
        self.stats = CacheStats()

    def _store_counters(self) -> tuple[int, ...]:
        stats = self.store.stats
        return tuple(getattr(stats, name) for name in MIRRORED_COUNTERS)

    def _absorb_store_delta(self, before: tuple[int, ...]) -> None:
        """Credit this cache with the store traffic it just caused."""
        after = self._store_counters()
        for name, was, now in zip(MIRRORED_COUNTERS, before, after):
            setattr(self.stats, name, getattr(self.stats, name) + now - was)

    @property
    def max_entries(self) -> int | None:
        return getattr(self.store, "max_entries", None)

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.store

    def get(self, fingerprint: str) -> dict[str, float] | None:
        """Responses for a fingerprint, or None (counts hit/miss)."""
        return self.get_many([fingerprint]).get(fingerprint)

    def put(self, fingerprint: str, responses: Mapping[str, float]) -> None:
        """Store an evaluation (refreshes recency on overwrite)."""
        self.put_many([(fingerprint, responses)])

    def get_many(
        self, fingerprints: Sequence[str]
    ) -> dict[str, dict[str, float]]:
        """Responses for many fingerprints: one store round trip.

        Counts one hit per unique found fingerprint and one miss per
        unique absent one — identical totals to a ``get`` loop, for
        one ``load_many`` instead of N loads.
        """
        if not fingerprints:
            return {}
        unique = list(dict.fromkeys(fingerprints))
        before = self._store_counters()
        found = self.store.load_many(unique)
        self._absorb_store_delta(before)
        self.stats.hits += len(found)
        self.stats.misses += len(unique) - len(found)
        return {fp: dict(entry) for fp, entry in found.items()}

    def put_many(
        self, entries: Sequence[tuple[str, Mapping[str, float]]]
    ) -> None:
        """Store many evaluations: one store round trip for the lot."""
        if not entries:
            return
        rows: list[tuple[str, Mapping[str, float]]] = []
        for fingerprint, responses in entries:
            if not isinstance(fingerprint, str):
                raise ReproError(
                    f"fingerprint must be a string, got {type(fingerprint)!r}"
                )
            rows.append((fingerprint, dict(responses)))
        before = self._store_counters()
        self.store.persist_many(rows)
        self._absorb_store_delta(before)

    def discard(self, fingerprint: str) -> bool:
        """Drop one entry; True if it existed."""
        before = self._store_counters()
        existed = self.store.discard(fingerprint)
        self._absorb_store_delta(before)
        return existed

    def items(self) -> Iterator[tuple[str, dict[str, float]]]:
        """Iterate stored ``(fingerprint, responses)`` pairs."""
        return self.store.items()

    def clear(self) -> None:
        """Drop all entries (lookup statistics are kept)."""
        before = self._store_counters()
        self.store.clear()
        self._absorb_store_delta(before)

    # -- lifecycle passthroughs (traffic credited to this cache) ---------------

    def collect(self, budget) -> "object":
        """Garbage-collect the backing store to a budget; see
        :func:`repro.exec.lifecycle.collect`."""
        from repro.exec.lifecycle import collect

        before = self._store_counters()
        report = collect(self.store, budget)
        self._absorb_store_delta(before)
        return report

    def compact(self, *, grace_seconds: float = 60.0) -> "object":
        """Compact the backing store; see
        :meth:`repro.exec.store.CacheStore.compact`."""
        before = self._store_counters()
        report = self.store.compact(grace_seconds=grace_seconds)
        self._absorb_store_delta(before)
        return report

    def verify(self, repair: bool = False) -> "object":
        """Integrity-scan the backing store; see
        :meth:`repro.exec.store.CacheStore.verify`."""
        before = self._store_counters()
        report = self.store.verify(repair=repair)
        self._absorb_store_delta(before)
        return report

    def close(self) -> None:
        """Close the backing store (idempotent)."""
        self.store.close()

    def describe(self) -> dict:
        """Store parameters for reports and manifests."""
        return self.store.describe()


# Re-exported for callers that treated this module as the cache API.
__all__ = [
    "CacheStats",
    "EvalCache",
    "MemoryStore",
    "point_fingerprint",
]
