"""Pluggable storage behind the evaluation cache.

:class:`~repro.exec.cache.EvalCache` fronts a :class:`CacheStore` — the
seam the ROADMAP names for sharing evaluations beyond one process.
Three stores ship:

* :class:`MemoryStore` — the process-local ``OrderedDict`` semantics
  the cache has always had (LRU-bounded when asked); the default.
* :class:`FileStore` — one JSON blob per fingerprint in a directory,
  written via atomic rename, so independent processes (CI jobs, hosts
  sharing a network mount) can populate and read one store without
  coordination.
* :class:`SQLiteStore` — a single-file database in WAL mode with a
  busy timeout, safe for concurrent writers on one filesystem.

Every persisted blob is versioned (:data:`SCHEMA_VERSION`) and
self-identifying (it records its own fingerprint).  Loads are
corruption-tolerant: an unreadable, mis-versioned or mismatched entry
is dropped and counted as an invalidation, never raised — evaluations
are deterministic, so re-simulating a lost point is always correct.

Entries carry *lifecycle metadata* (:class:`EntryMeta`): creation and
last-use timestamps, approximate byte size, and hit counts where they
are cheap to maintain (memory and SQLite; the file store would have to
rewrite a blob per hit, so it reports None).  The metadata feeds
:mod:`repro.exec.lifecycle` — garbage collection under size/age/count
budgets, compaction, verification and store-to-store transfer — and
the ``repro-cache`` CLI (:mod:`repro.exec.cli`).

Store traffic (loads, persists, invalidations, evictions, GC and
compaction work) is tracked in :class:`StoreStats` and mirrored into
the fronting cache's :class:`~repro.exec.cache.CacheStats`, so
``study.report()`` and the benchmark manifests see one merged picture.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.errors import ReproError, TransientStoreError, is_transient
from repro.exec.sqlite_util import connect_wal
from repro.obs.catalog import track_store

#: On-disk schema version shared by every persistent store.  Bump it
#: whenever the fingerprint canonicalization or the blob layout
#: changes; old entries then invalidate themselves on load instead of
#: serving stale responses.
SCHEMA_VERSION = 1

#: Counters mirrored from :class:`StoreStats` into the fronting
#: cache's :class:`~repro.exec.cache.CacheStats` as per-cache deltas.
MIRRORED_COUNTERS = (
    "loads",
    "persists",
    "invalidations",
    "evictions",
    "gc_evictions",
    "bytes_reclaimed",
    "compactions",
)


@dataclass
class StoreStats:
    """Traffic counters of one store (store-lifetime, monotonic).

    Attributes:
        loads: lookups answered from storage.
        persists: evaluations written to storage.
        invalidations: entries dropped — corrupt payloads, schema
            mismatches, explicit discards and clears (GC evictions
            included; ``gc_evictions`` counts that subset separately).
        evictions: entries displaced by a capacity bound (memory
            store only).
        gc_evictions: entries removed by lifecycle garbage collection
            (:func:`repro.exec.lifecycle.collect`).
        bytes_reclaimed: approximate bytes freed by GC and compaction.
        compactions: ``compact()`` passes run against this store.
        round_trips: hot-path store API calls (``peek`` /
            ``load_many`` / ``persist_many``, and ``load`` / ``persist``
            as one-entry batches) — each is one client<->substrate
            round trip, so a batched call that serves N entries still
            counts 1.  ``loads - round_trips`` therefore measures how
            much traffic batching amortized.
        stats_saved: filesystem ``stat`` calls the file store avoided
            by reusing its directory-scan metadata in ``load_many``
            (other stores never tick it).
    """

    loads: int = 0
    persists: int = 0
    invalidations: int = 0
    evictions: int = 0
    gc_evictions: int = 0
    bytes_reclaimed: int = 0
    compactions: int = 0
    round_trips: int = 0
    stats_saved: int = 0

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in MIRRORED_COUNTERS}
        out["round_trips"] = self.round_trips
        out["stats_saved"] = self.stats_saved
        return out


@dataclass
class EntryMeta:
    """Lifecycle metadata of one stored entry.

    Attributes:
        fingerprint: the entry's content hash.
        created_at: epoch seconds the entry was persisted (None when
            the backing store cannot say).
        last_used_at: epoch seconds of the last successful load
            (falls back to ``created_at`` for never-loaded entries).
        size_bytes: approximate stored size of the entry's blob.
        hits: loads served from this entry, where counting is cheap
            (memory/SQLite); None for the file store, which would
            have to rewrite the blob per hit.
    """

    fingerprint: str
    created_at: float | None = None
    last_used_at: float | None = None
    size_bytes: int = 0
    hits: int | None = None

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "created_at": self.created_at,
            "last_used_at": self.last_used_at,
            "size_bytes": self.size_bytes,
            "hits": self.hits,
        }


@dataclass
class VerifyReport:
    """Outcome of a full store integrity scan.

    Attributes:
        scanned: raw slots examined (valid + invalid entries).
        valid: entries whose blob decoded, matched the schema version
            and carried the fingerprint they are filed under.
        invalid: entries that failed any of those checks.
        partials: leftover temp/partial writer files (file store).
        repaired: invalid entries dropped because ``repair`` was set.
        total_bytes: approximate bytes held by valid entries.
    """

    store: str
    scanned: int = 0
    valid: int = 0
    invalid: int = 0
    partials: int = 0
    repaired: int = 0
    total_bytes: int = 0

    @property
    def clean(self) -> bool:
        """No invalid entries and no partial files left behind."""
        return self.invalid - self.repaired == 0 and self.partials == 0

    def as_dict(self) -> dict:
        return {
            "store": self.store,
            "scanned": self.scanned,
            "valid": self.valid,
            "invalid": self.invalid,
            "partials": self.partials,
            "repaired": self.repaired,
            "total_bytes": self.total_bytes,
            "clean": self.clean,
        }


@dataclass
class CompactionReport:
    """Outcome of one ``compact()`` pass.

    Attributes:
        partials_removed: temp/partial files swept (file store).
        orphans_removed: structurally hopeless blobs swept without a
            full read — today, zero-byte files (file store).
        bytes_reclaimed: approximate bytes freed (for SQLite, the
            database file shrink achieved by checkpoint + VACUUM).
    """

    store: str
    partials_removed: int = 0
    orphans_removed: int = 0
    bytes_reclaimed: int = 0

    def as_dict(self) -> dict:
        return {
            "store": self.store,
            "partials_removed": self.partials_removed,
            "orphans_removed": self.orphans_removed,
            "bytes_reclaimed": self.bytes_reclaimed,
        }


def _validate_blob(blob: object, fingerprint: str) -> dict[str, float] | None:
    """Responses from a persisted blob, or None if it cannot be trusted."""
    if not isinstance(blob, dict):
        return None
    if blob.get("schema") != SCHEMA_VERSION:
        return None
    if blob.get("fingerprint") != fingerprint:
        return None
    responses = blob.get("responses")
    if not isinstance(responses, dict):
        return None
    out: dict[str, float] = {}
    for name, value in responses.items():
        if not isinstance(name, str) or not isinstance(value, (int, float)):
            return None
        out[name] = float(value)
    return out


def _encode_blob(fingerprint: str, responses: Mapping[str, float]) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "responses": {str(k): float(v) for k, v in responses.items()},
    }


def _encode_payload(fingerprint: str, responses: Mapping[str, float]) -> str:
    return json.dumps(_encode_blob(fingerprint, responses), sort_keys=True)


class CacheStore(ABC):
    """Where evaluation-cache entries live.

    The contract is a string-keyed blob map with deterministic values:
    a fingerprint may be persisted repeatedly (always with an
    identical payload, evaluations being pure), a load answers nothing
    for anything absent or untrustworthy, and no method raises for
    data-level problems — a store that cannot answer simply misses and
    the engine re-simulates.

    Each store implements the batched primitives :meth:`load_many`
    and :meth:`persist_many`; :meth:`load` and :meth:`persist` are
    one-entry batches of them, so every store and wrapper has exactly
    one code path per operation.

    On top of the map, every store exposes the lifecycle surface that
    :mod:`repro.exec.lifecycle` and the ``repro-cache`` CLI build on:
    per-entry metadata (:meth:`entries` / :meth:`entry_meta` /
    :meth:`total_bytes`), integrity scanning (:meth:`verify`),
    space reclamation (:meth:`compact`) and store-to-store transfer
    (:meth:`export_to` / :meth:`merge_from`).
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = StoreStats()
        # Pull-time metrics mirror: the registry reads ``self.stats``
        # only when scraped, so the store's hot path pays nothing.
        track_store(self)

    # -- the batched primitives ------------------------------------------------

    @abstractmethod
    def load_many(
        self, fingerprints: Sequence[str]
    ) -> dict[str, dict[str, float]]:
        """Responses for many fingerprints in one round trip.

        The contract every store honours:

        * misses are simply absent — never None values;
        * duplicate fingerprints in the input collapse to one lookup;
        * result insertion order is the input's first-occurrence order
          (so ``zip``-style reassembly stays deterministic);
        * an empty input returns ``{}`` without touching the store.
        """

    @abstractmethod
    def persist_many(
        self,
        entries: Sequence[tuple[str, Mapping[str, float]]],
        *,
        meta: Mapping[str, EntryMeta] | None = None,
    ) -> None:
        """Durably store ``(fingerprint, responses)`` pairs in one
        round trip.

        Duplicate fingerprints are legal and resolve last-wins (the
        pairs apply in order); an empty input touches nothing.
        ``meta`` maps fingerprints to the timestamps/hits to preserve
        when entries are copied between stores (export/merge); plain
        evaluation traffic leaves it None and the store stamps each
        entry itself.
        """

    def load(self, fingerprint: str) -> dict[str, float] | None:
        """Responses persisted under a fingerprint, or None."""
        return self.load_many([fingerprint]).get(fingerprint)

    def persist(
        self,
        fingerprint: str,
        responses: Mapping[str, float],
        *,
        meta: EntryMeta | None = None,
    ) -> None:
        """Durably associate responses with a fingerprint."""
        self.persist_many(
            [(fingerprint, responses)],
            meta=None if meta is None else {fingerprint: meta},
        )

    @abstractmethod
    def peek(self, fingerprint: str) -> dict[str, float] | None:
        """Read an entry with *no side effects at all*.

        Unlike :meth:`load`, peeking never counts as a use (no hit
        counter, no recency bump — an entry an operator inspected
        must not outlive hotter ones under LRU GC), never drops an
        invalid entry (it just returns None, leaving the evidence in
        place for ``verify``), and touches no statistics.
        """

    @abstractmethod
    def discard(self, fingerprint: str) -> bool:
        """Drop one entry; True if it existed."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every entry (counted as invalidations)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    @abstractmethod
    def __contains__(self, fingerprint: str) -> bool:
        """Entry presence without counting a load."""

    @abstractmethod
    def items(self) -> Iterator[tuple[str, dict[str, float]]]:
        """Iterate valid ``(fingerprint, responses)`` pairs.

        Used for inspection and store-to-store migration (e.g. seeding
        a :class:`SQLiteStore` from a :class:`FileStore` directory).
        """

    # -- lifecycle surface -----------------------------------------------------

    @abstractmethod
    def entries(self) -> Iterator[EntryMeta]:
        """Iterate metadata for every stored entry."""

    def entry_meta(self, fingerprint: str) -> EntryMeta | None:
        """Metadata for one entry, or None if absent."""
        for meta in self.entries():
            if meta.fingerprint == fingerprint:
                return meta
        return None

    def total_bytes(self) -> int:
        """Approximate bytes held by all entries."""
        return sum(meta.size_bytes for meta in self.entries())

    @abstractmethod
    def verify(self, repair: bool = False) -> VerifyReport:
        """Scan every entry for integrity without serving any of them.

        Unlike :meth:`load`, verification is non-destructive by
        default: invalid entries are *reported*, and only dropped when
        ``repair`` is set.
        """

    def compact(self, *, grace_seconds: float = 60.0) -> CompactionReport:
        """Reclaim dead space; see each store for what that means.

        Args:
            grace_seconds: minimum age of a temp/partial file before
                the file store sweeps it (a younger one may belong to
                a live writer); ignored by other stores.
        """
        report = self._compact(grace_seconds=grace_seconds)
        self.stats.compactions += 1
        self.stats.bytes_reclaimed += max(report.bytes_reclaimed, 0)
        return report

    def _compact(self, *, grace_seconds: float) -> CompactionReport:
        return CompactionReport(store=self.name)

    def export_to(
        self, dest: "CacheStore | str | os.PathLike"
    ) -> "object":
        """Copy every valid entry into another store (newest wins).

        ``dest`` may be a ready store or a path spec for
        :func:`resolve_store`; a store built here from a path spec is
        closed before returning (its entries are durable).  Returns a
        :class:`repro.exec.lifecycle.TransferReport`.
        """
        from repro.exec.lifecycle import merge_stores

        dest_store = resolve_store(dest)
        try:
            return merge_stores(dest_store, self)
        finally:
            if not isinstance(dest, CacheStore):
                dest_store.close()

    def merge_from(
        self, source: "CacheStore | str | os.PathLike"
    ) -> "object":
        """Union another store's valid entries into this one.

        Fingerprint collisions resolve newest-wins by creation time;
        a mismatched or corrupt source blob is never copied (the
        source's own validation filters it out).  Returns a
        :class:`repro.exec.lifecycle.TransferReport`.
        """
        from repro.exec.lifecycle import merge_stores

        source_store = resolve_store(source)
        try:
            return merge_stores(self, source_store)
        finally:
            if not isinstance(source, CacheStore):
                source_store.close()

    def describe(self) -> dict:
        """Store parameters for reports and benchmark manifests."""
        return {"store": self.name}

    def close(self) -> None:
        """Release held resources (connections); idempotent."""


class MemoryStore(CacheStore):
    """Process-local dict store — today's cache semantics, the default.

    Args:
        max_entries: optional LRU bound; None keeps every entry
            (study-scale workloads are thousands of points of a few
            floats each, so unbounded is the sensible default).
    """

    name = "memory"

    def __init__(self, max_entries: int | None = None):
        super().__init__()
        if max_entries is not None and max_entries < 1:
            raise ReproError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        self.max_entries = max_entries
        from collections import OrderedDict

        self._entries: OrderedDict[str, dict[str, float]] = OrderedDict()
        self._meta: dict[str, EntryMeta] = {}

    def _load_entry(self, fingerprint: str) -> dict[str, float] | None:
        entry = self._entries.get(fingerprint)
        if entry is None:
            return None
        self._entries.move_to_end(fingerprint)
        meta = self._meta[fingerprint]
        meta.last_used_at = time.time()
        meta.hits = (meta.hits or 0) + 1
        self.stats.loads += 1
        return dict(entry)

    def load_many(
        self, fingerprints: Sequence[str]
    ) -> dict[str, dict[str, float]]:
        if not fingerprints:
            return {}
        self.stats.round_trips += 1
        out: dict[str, dict[str, float]] = {}
        for fingerprint in fingerprints:
            if fingerprint in out:
                continue
            responses = self._load_entry(fingerprint)
            if responses is not None:
                out[fingerprint] = responses
        return out

    def peek(self, fingerprint: str) -> dict[str, float] | None:
        self.stats.round_trips += 1
        entry = self._entries.get(fingerprint)
        return dict(entry) if entry is not None else None

    def persist_many(
        self,
        entries: Sequence[tuple[str, Mapping[str, float]]],
        *,
        meta: Mapping[str, EntryMeta] | None = None,
    ) -> None:
        if not entries:
            return
        self.stats.round_trips += 1
        metas = meta or {}
        for fingerprint, responses in entries:
            self._persist_entry(
                fingerprint, responses, meta=metas.get(fingerprint)
            )

    def _persist_entry(
        self,
        fingerprint: str,
        responses: Mapping[str, float],
        *,
        meta: EntryMeta | None,
    ) -> None:
        responses = dict(responses)
        self._entries[fingerprint] = responses
        self._entries.move_to_end(fingerprint)
        now = time.time()
        size = len(_encode_payload(fingerprint, responses))
        self._meta[fingerprint] = EntryMeta(
            fingerprint=fingerprint,
            created_at=meta.created_at if meta else now,
            last_used_at=(meta.last_used_at or meta.created_at)
            if meta
            else now,
            size_bytes=size,
            hits=(meta.hits or 0) if meta else 0,
        )
        self.stats.persists += 1
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self._meta.pop(evicted, None)
                self.stats.evictions += 1

    def discard(self, fingerprint: str) -> bool:
        existed = self._entries.pop(fingerprint, None) is not None
        self._meta.pop(fingerprint, None)
        if existed:
            self.stats.invalidations += 1
        return existed

    def clear(self) -> None:
        self.stats.invalidations += len(self._entries)
        self._entries.clear()
        self._meta.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def items(self) -> Iterator[tuple[str, dict[str, float]]]:
        for fingerprint, responses in list(self._entries.items()):
            yield fingerprint, dict(responses)

    def entries(self) -> Iterator[EntryMeta]:
        for meta in list(self._meta.values()):
            yield EntryMeta(**meta.as_dict())

    def entry_meta(self, fingerprint: str) -> EntryMeta | None:
        meta = self._meta.get(fingerprint)
        return EntryMeta(**meta.as_dict()) if meta else None

    def verify(self, repair: bool = False) -> VerifyReport:
        # In-memory entries can only hold what persist() accepted, so
        # the scan reduces to counting them.
        report = VerifyReport(store=self.name)
        for meta in self._meta.values():
            report.scanned += 1
            report.valid += 1
            report.total_bytes += meta.size_bytes
        return report

    def describe(self) -> dict:
        return {"store": self.name, "max_entries": self.max_entries}


class FileStore(CacheStore):
    """One JSON blob per fingerprint under a directory.

    Writes go to a temporary file in the same directory and land via
    ``os.replace``, so a reader never observes a half-written blob and
    concurrent writers of the same fingerprint (which, evaluations
    being deterministic, carry identical payloads) simply race to an
    equivalent rename.  Loads tolerate corruption: an unparsable,
    mis-versioned or mismatched file is unlinked and treated as a
    miss.

    Metadata maps onto the filesystem: creation time is the blob's
    mtime (pinned via ``os.utime`` so export/merge can preserve it),
    last use is the atime (bumped explicitly on every served load —
    relatime mounts would otherwise freeze it), size is ``st_size``.
    Hit counts would need a write per hit, so they are None.

    A writer killed mid-``persist`` leaves a ``.write-*.part`` temp
    file behind.  Those are never entries: :meth:`items` and
    ``len()`` skip them, :meth:`partial_files` counts them, and
    :meth:`compact` sweeps the stale ones.

    Args:
        directory: store root; created if absent.
    """

    name = "file"
    _SUFFIX = ".json"
    _PART_SUFFIX = ".part"

    def __init__(self, directory: str | os.PathLike):
        super().__init__()
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ReproError(
                f"cannot create cache store directory {self.directory}: {error}"
            ) from error
        # mkstemp creates 0600 files; on a shared mount other users
        # must be able to read the blobs, so persisted entries get
        # ordinary umask-honouring permissions instead.
        umask = os.umask(0)
        os.umask(umask)
        self._blob_mode = 0o666 & ~umask

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}{self._SUFFIX}"

    @classmethod
    def _is_blob_name(cls, name: str) -> bool:
        return name.endswith(cls._SUFFIX) and not name.startswith(".")

    def load_many(
        self, fingerprints: Sequence[str]
    ) -> dict[str, dict[str, float]]:
        if not fingerprints:
            return {}
        self.stats.round_trips += 1
        wanted: dict[str, str] = {}  # blob filename -> fingerprint
        order: list[str] = []
        for fingerprint in fingerprints:
            name = f"{fingerprint}{self._SUFFIX}"
            if name not in wanted:
                wanted[name] = fingerprint
                order.append(fingerprint)
        # One directory scan answers existence *and* metadata for the
        # whole batch: each hit below reuses the scan's cached stat
        # for its atime bump instead of re-statting the blob.
        found: dict[str, os.stat_result] = {}
        with os.scandir(self.directory) as dir_entries:
            for entry in dir_entries:
                fingerprint = wanted.get(entry.name)
                if fingerprint is None:
                    continue
                try:
                    found[fingerprint] = entry.stat()
                except OSError:  # pragma: no cover - raced away
                    continue
        out: dict[str, dict[str, float]] = {}
        for fingerprint in order:
            stat = found.get(fingerprint)
            if stat is None:
                continue
            path = self._path(fingerprint)
            try:
                raw = path.read_text(encoding="utf-8")
            except OSError:
                # Any unreadable entry — permissions, transient I/O —
                # is a plain miss: evaluations are deterministic, so
                # the engine just re-simulates.
                continue
            try:
                blob = json.loads(raw)
            except ValueError:
                blob = None
            responses = _validate_blob(blob, fingerprint)
            if responses is None:
                self._drop(path)
                continue
            # Record the load as the entry's last use (atime), keeping
            # mtime — the creation stamp — intact.
            try:
                os.utime(path, times=(time.time(), stat.st_mtime))
            except OSError:  # pragma: no cover - raced away
                pass
            self.stats.loads += 1
            self.stats.stats_saved += 1
            out[fingerprint] = responses
        return out

    def peek(self, fingerprint: str) -> dict[str, float] | None:
        self.stats.round_trips += 1
        path = self._path(fingerprint)
        try:
            stat = path.stat()
            raw = path.read_text(encoding="utf-8")
            # The read itself bumps atime on relatime mounts, and
            # atime *is* this store's last-used stamp — put it back
            # so inspection never counts as use.
            os.utime(path, times=(stat.st_atime, stat.st_mtime))
        except OSError:
            return None
        try:
            blob = json.loads(raw)
        except ValueError:
            return None
        return _validate_blob(blob, fingerprint)

    def _drop(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing unlink is fine
            pass
        self.stats.invalidations += 1

    def persist_many(
        self,
        entries: Sequence[tuple[str, Mapping[str, float]]],
        *,
        meta: Mapping[str, EntryMeta] | None = None,
    ) -> None:
        # Files have no transactions — the batch is still one round
        # trip of the store API, applied as per-entry atomic renames.
        if not entries:
            return
        self.stats.round_trips += 1
        metas = meta or {}
        for fingerprint, responses in entries:
            self._persist_entry(
                fingerprint, responses, meta=metas.get(fingerprint)
            )

    def _persist_entry(
        self,
        fingerprint: str,
        responses: Mapping[str, float],
        *,
        meta: EntryMeta | None,
    ) -> None:
        blob = _encode_blob(fingerprint, responses)
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".write-", suffix=self._PART_SUFFIX
            )
        except OSError as error:
            # Writes hit the filesystem's bad moods (ENOSPC, EIO, a
            # vanished mount) in a way reads never surface — reads
            # just miss.  Classify the failure as transient so retry
            # layers re-attempt it; the entry is re-simulable either
            # way, so nothing is ever lost to a dropped persist.
            raise TransientStoreError(
                f"cannot stage cache entry in {self.directory}: {error}"
            ) from error
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(blob, handle, sort_keys=True)
            os.chmod(tmp_name, self._blob_mode)
            if meta is not None and meta.created_at is not None:
                os.utime(
                    tmp_name,
                    times=(
                        meta.last_used_at or meta.created_at,
                        meta.created_at,
                    ),
                )
            os.replace(tmp_name, self._path(fingerprint))
        except BaseException as error:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            if isinstance(error, OSError):
                raise TransientStoreError(
                    f"cannot persist cache entry to {self.directory}: "
                    f"{error}"
                ) from error
            raise
        self.stats.persists += 1

    def discard(self, fingerprint: str) -> bool:
        try:
            self._path(fingerprint).unlink()
        except FileNotFoundError:
            return False
        self.stats.invalidations += 1
        return True

    def _blob_paths(self) -> list[Path]:
        return sorted(
            path
            for path in self.directory.iterdir()
            if self._is_blob_name(path.name)
        )

    @classmethod
    def _is_partial_name(cls, name: str) -> bool:
        # Only *writer debris* counts: our own mkstemp pattern and
        # anything ending in .part.  A foreign file in the directory
        # (a README, a .gitignore) is neither an entry nor ours to
        # sweep — it is ignored, never deleted.
        return name.endswith(cls._PART_SUFFIX) or name.startswith(".write-")

    def partial_files(self) -> list[Path]:
        """Temp/partial files left by killed writers — never served,
        never counted by ``len()``/``items()``, swept by
        :meth:`compact` once past the grace period."""
        return sorted(
            path
            for path in self.directory.iterdir()
            if path.is_file() and self._is_partial_name(path.name)
        )

    def clear(self) -> None:
        for path in self._blob_paths():
            self._drop(path)

    def __len__(self) -> int:
        # Unsorted scandir: len() runs on every stats() call, so keep
        # it one directory pass (the sort only matters for items()).
        count = 0
        with os.scandir(self.directory) as entries:
            for entry in entries:
                if self._is_blob_name(entry.name):
                    count += 1
        return count

    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).exists()

    def items(self) -> Iterator[tuple[str, dict[str, float]]]:
        fingerprints = [
            path.name[: -len(self._SUFFIX)] for path in self._blob_paths()
        ]
        yield from self.load_many(fingerprints).items()

    def entries(self) -> Iterator[EntryMeta]:
        for path in self._blob_paths():
            meta = self._stat_meta(path)
            if meta is not None:
                yield meta

    def entry_meta(self, fingerprint: str) -> EntryMeta | None:
        return self._stat_meta(self._path(fingerprint))

    def _stat_meta(self, path: Path) -> EntryMeta | None:
        try:
            stat = path.stat()
        except OSError:
            return None
        return EntryMeta(
            fingerprint=path.name[: -len(self._SUFFIX)],
            created_at=stat.st_mtime,
            # A fresh blob's atime can trail its mtime (utime in
            # persist writes them together, but copies may not);
            # last use is never before creation.
            last_used_at=max(stat.st_atime, stat.st_mtime),
            size_bytes=stat.st_size,
            hits=None,
        )

    def verify(self, repair: bool = False) -> VerifyReport:
        report = VerifyReport(store=self.name)
        for path in self._blob_paths():
            report.scanned += 1
            fingerprint = path.name[: -len(self._SUFFIX)]
            try:
                blob = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                blob = None
            if _validate_blob(blob, fingerprint) is None:
                report.invalid += 1
                if repair:
                    self._drop(path)
                    report.repaired += 1
            else:
                report.valid += 1
                try:
                    report.total_bytes += path.stat().st_size
                except OSError:  # pragma: no cover - raced away
                    pass
        report.partials = len(self.partial_files())
        return report

    def _compact(self, *, grace_seconds: float) -> CompactionReport:
        """Sweep leftovers a crashed writer cannot reclaim itself:
        temp/partial files and zero-byte blobs older than the grace
        period (younger ones may belong to a live writer).  Files
        matching neither the blob nor the partial pattern are foreign
        and left strictly alone."""
        report = CompactionReport(store=self.name)
        cutoff = time.time() - max(grace_seconds, 0.0)
        for path in self.partial_files():
            try:
                stat = path.stat()
                if stat.st_mtime > cutoff:
                    continue
                path.unlink()
            except OSError:  # pragma: no cover - raced away
                continue
            report.partials_removed += 1
            report.bytes_reclaimed += stat.st_size
        for path in self._blob_paths():
            try:
                stat = path.stat()
                if stat.st_size > 0 or stat.st_mtime > cutoff:
                    continue
                path.unlink()
            except OSError:  # pragma: no cover - raced away
                continue
            report.orphans_removed += 1
            self.stats.invalidations += 1
        return report

    def describe(self) -> dict:
        return {"store": self.name, "directory": str(self.directory)}


class SQLiteStore(CacheStore):
    """Single-file SQLite store, WAL mode, safe for concurrent writers.

    WAL journaling lets readers proceed under a writer; the busy
    timeout makes simultaneous commits from several processes queue
    instead of erroring.  A *corrupt* database (SQLite header present
    but unreadable) is deleted and recreated — the store holds
    nothing that cannot be re-simulated — but a foreign file at the
    path (no SQLite header) is refused, never deleted: that is a
    mistyped path, not a cache artefact.

    Rows carry lifecycle columns (created/last-used timestamps, hit
    count, payload size); databases written before those columns
    existed are migrated in place on open.  Served loads bump the hit
    count and last-use stamp best-effort — a locked database never
    turns a hit into a failure.

    Args:
        path: database file; parent directories are created.
        timeout: seconds a writer waits on a locked database.
    """

    name = "sqlite"

    _SQLITE_MAGIC = b"SQLite format 3\x00"

    #: Lifecycle columns added to databases created before they
    #: existed (PRAGMA table_info drives the in-place migration).
    _LIFECYCLE_COLUMNS = (
        ("created_at", "REAL NOT NULL DEFAULT 0"),
        ("last_used_at", "REAL NOT NULL DEFAULT 0"),
        ("hits", "INTEGER NOT NULL DEFAULT 0"),
        ("size_bytes", "INTEGER NOT NULL DEFAULT 0"),
    )

    def __init__(self, path: str | os.PathLike, timeout: float = 30.0):
        super().__init__()
        self.path = Path(path)
        self.timeout = float(timeout)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ReproError(
                f"cannot create cache store directory "
                f"{self.path.parent}: {error}"
            ) from error
        self._closed = False
        try:
            self._conn = self._open()
        except sqlite3.OperationalError:
            # Environmental, not corruption: locked past the busy
            # timeout, permissions, disk full.  The database may be
            # live under another process — never delete it for this.
            raise
        except sqlite3.DatabaseError as error:
            if not self._is_rebuildable():
                raise ReproError(
                    f"{self.path} exists but is not a SQLite database "
                    f"({error}); refusing to replace a file this store "
                    "did not create — point the store elsewhere or "
                    "remove the file yourself"
                ) from error
            # Corrupt database: rebuild from nothing rather than fail
            # the study over a cache artefact.
            self._remove_database_files()
            self.stats.invalidations += 1
            self._conn = self._open()

    def _is_rebuildable(self) -> bool:
        """Only ever delete what was plausibly this store's own file:
        an empty/absent file or one carrying the SQLite header."""
        try:
            with open(self.path, "rb") as handle:
                header = handle.read(len(self._SQLITE_MAGIC))
        except FileNotFoundError:
            return True
        except OSError:
            return False
        return header == b"" or header == self._SQLITE_MAGIC

    def _open(self) -> sqlite3.Connection:
        conn = connect_wal(self.path, timeout=self.timeout)
        try:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS evaluations ("
                " fingerprint TEXT PRIMARY KEY,"
                " schema_version INTEGER NOT NULL,"
                " payload TEXT NOT NULL,"
                + ", ".join(
                    f" {name} {spec}"
                    for name, spec in self._LIFECYCLE_COLUMNS
                )
                + ")"
            )
            self._migrate_lifecycle_columns(conn)
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _migrate_lifecycle_columns(self, conn: sqlite3.Connection) -> None:
        """Bring a pre-lifecycle database up to the current table
        shape without invalidating its (perfectly good) entries."""
        present = {
            row[1]
            for row in conn.execute("PRAGMA table_info(evaluations)")
        }
        migrated = False
        for name, spec in self._LIFECYCLE_COLUMNS:
            if name not in present:
                conn.execute(
                    f"ALTER TABLE evaluations ADD COLUMN {name} {spec}"
                )
                migrated = True
        if migrated:
            conn.execute(
                "UPDATE evaluations SET created_at = ?,"
                " last_used_at = ?, size_bytes = length(payload)"
                " WHERE created_at = 0",
                (time.time(), time.time()),
            )

    def _remove_database_files(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass

    def load_many(
        self, fingerprints: Sequence[str]
    ) -> dict[str, dict[str, float]]:
        if not fingerprints:
            return {}
        self.stats.round_trips += 1
        order = list(dict.fromkeys(fingerprints))
        rows: dict[str, tuple[int, str]] = {}
        # Chunk the IN list well under SQLite's host-parameter cap.
        for start in range(0, len(order), 500):
            chunk = order[start : start + 500]
            marks = ",".join("?" * len(chunk))
            for fingerprint, schema_version, payload in self._conn.execute(
                "SELECT fingerprint, schema_version, payload"
                f" FROM evaluations WHERE fingerprint IN ({marks})",
                chunk,
            ):
                rows[fingerprint] = (schema_version, payload)
        out: dict[str, dict[str, float]] = {}
        for fingerprint in order:
            row = rows.get(fingerprint)
            if row is None:
                continue
            responses = self._decode_row(fingerprint, row)
            if responses is None:
                self.discard(fingerprint)
                continue
            out[fingerprint] = responses
        if out:
            # Usage tracking is best-effort and must never stall a
            # hit: a writer holding the database for longer than a
            # blink (batch persist, VACUUM from another process)
            # forfeits this bump rather than blocking the read path
            # for the full busy timeout.
            try:
                self._conn.execute("PRAGMA busy_timeout=100")
                try:
                    now = time.time()
                    with self._conn:
                        self._conn.executemany(
                            "UPDATE evaluations SET last_used_at = ?,"
                            " hits = hits + 1 WHERE fingerprint = ?",
                            [(now, fingerprint) for fingerprint in out],
                        )
                finally:
                    self._conn.execute(
                        f"PRAGMA busy_timeout={int(self.timeout * 1000)}"
                    )
            except sqlite3.Error:  # pragma: no cover - best-effort
                pass
            self.stats.loads += len(out)
        return out

    def peek(self, fingerprint: str) -> dict[str, float] | None:
        self.stats.round_trips += 1
        row = self._conn.execute(
            "SELECT schema_version, payload FROM evaluations"
            " WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if row is None:
            return None
        return self._decode_row(fingerprint, row)

    @staticmethod
    def _decode_row(
        fingerprint: str, row: tuple[int, str]
    ) -> dict[str, float] | None:
        schema_version, payload = row
        if schema_version != SCHEMA_VERSION:
            return None
        try:
            blob = json.loads(payload)
        except ValueError:
            return None
        return _validate_blob(blob, fingerprint)

    _INSERT_SQL = (
        "INSERT OR REPLACE INTO evaluations"
        " (fingerprint, schema_version, payload, created_at,"
        "  last_used_at, hits, size_bytes)"
        " VALUES (?, ?, ?, ?, ?, ?, ?)"
    )

    @staticmethod
    def _encode_row(
        fingerprint: str,
        responses: Mapping[str, float],
        meta: EntryMeta | None,
    ) -> tuple:
        payload = _encode_payload(fingerprint, responses)
        now = time.time()
        created = meta.created_at if meta and meta.created_at else now
        last_used = (
            meta.last_used_at or meta.created_at
            if meta
            else now
        ) or now
        hits = (meta.hits or 0) if meta else 0
        return (
            fingerprint,
            SCHEMA_VERSION,
            payload,
            created,
            last_used,
            hits,
            len(payload),
        )

    def persist_many(
        self,
        entries: Sequence[tuple[str, Mapping[str, float]]],
        *,
        meta: Mapping[str, EntryMeta] | None = None,
    ) -> None:
        if not entries:
            return
        self.stats.round_trips += 1
        metas = meta or {}
        rows = [
            self._encode_row(fingerprint, responses, metas.get(fingerprint))
            for fingerprint, responses in entries
        ]
        # One transaction for the whole batch; INSERT OR REPLACE
        # applies rows in order, so duplicate fingerprints resolve
        # last-wins.
        with self._write_guard("persist_many"), self._conn:
            self._conn.executemany(self._INSERT_SQL, rows)
        self.stats.persists += len(rows)

    @contextmanager
    def _write_guard(self, op: str):
        """Reclassify lock contention that outlasts the busy timeout
        as :class:`TransientStoreError` — the database is healthy,
        another writer is just holding it, and retry layers should
        treat the write as re-attemptable rather than fatal."""
        try:
            yield
        except sqlite3.OperationalError as error:
            if is_transient(error):
                raise TransientStoreError(
                    f"sqlite store busy during {op} on {self.path}: "
                    f"{error}"
                ) from error
            raise

    def discard(self, fingerprint: str) -> bool:
        with self._write_guard("discard"), self._conn:
            cursor = self._conn.execute(
                "DELETE FROM evaluations WHERE fingerprint = ?",
                (fingerprint,),
            )
        if cursor.rowcount > 0:
            self.stats.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        with self._write_guard("clear"), self._conn:
            cursor = self._conn.execute("DELETE FROM evaluations")
        self.stats.invalidations += max(cursor.rowcount, 0)

    def __len__(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM evaluations"
        ).fetchone()
        return int(row[0])

    def __contains__(self, fingerprint: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM evaluations WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        return row is not None

    def items(self) -> Iterator[tuple[str, dict[str, float]]]:
        rows = self._conn.execute(
            "SELECT fingerprint, schema_version, payload FROM evaluations"
            " ORDER BY fingerprint"
        ).fetchall()
        for fingerprint, schema_version, payload in rows:
            responses = self._decode_row(
                fingerprint, (schema_version, payload)
            )
            if responses is not None:
                yield fingerprint, responses

    def entries(self) -> Iterator[EntryMeta]:
        rows = self._conn.execute(
            "SELECT fingerprint, created_at, last_used_at, hits,"
            " size_bytes FROM evaluations ORDER BY fingerprint"
        ).fetchall()
        for fingerprint, created, last_used, hits, size in rows:
            yield EntryMeta(
                fingerprint=fingerprint,
                created_at=created or None,
                last_used_at=(last_used or created) or None,
                size_bytes=int(size or 0),
                hits=int(hits or 0),
            )

    def entry_meta(self, fingerprint: str) -> EntryMeta | None:
        row = self._conn.execute(
            "SELECT created_at, last_used_at, hits, size_bytes"
            " FROM evaluations WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if row is None:
            return None
        created, last_used, hits, size = row
        return EntryMeta(
            fingerprint=fingerprint,
            created_at=created or None,
            last_used_at=(last_used or created) or None,
            size_bytes=int(size or 0),
            hits=int(hits or 0),
        )

    def total_bytes(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(SUM(size_bytes), 0) FROM evaluations"
        ).fetchone()
        return int(row[0])

    def verify(self, repair: bool = False) -> VerifyReport:
        report = VerifyReport(store=self.name)
        rows = self._conn.execute(
            "SELECT fingerprint, schema_version, payload, size_bytes"
            " FROM evaluations"
        ).fetchall()
        for fingerprint, schema_version, payload, size in rows:
            report.scanned += 1
            if self._decode_row(fingerprint, (schema_version, payload)) is None:
                report.invalid += 1
                if repair and self.discard(fingerprint):
                    report.repaired += 1
            else:
                report.valid += 1
                report.total_bytes += int(size or len(payload))
        return report

    def _compact(self, *, grace_seconds: float) -> CompactionReport:
        """Checkpoint the WAL and VACUUM the database back to its
        live size (deleted rows only return pages to SQLite's free
        list; the file itself shrinks here)."""
        report = CompactionReport(store=self.name)
        before = self._database_bytes()
        self._conn.commit()
        previous = self._conn.isolation_level
        try:
            # VACUUM refuses to run inside a transaction; autocommit
            # mode for the duration keeps sqlite3 from opening one.
            self._conn.isolation_level = None
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            self._conn.execute("VACUUM")
        finally:
            self._conn.isolation_level = previous
        report.bytes_reclaimed = max(before - self._database_bytes(), 0)
        return report

    def _database_bytes(self) -> int:
        total = 0
        for suffix in ("", "-wal"):
            try:
                total += os.stat(f"{self.path}{suffix}").st_size
            except OSError:
                pass
        return total

    def describe(self) -> dict:
        return {
            "store": self.name,
            "path": str(self.path),
            "timeout": self.timeout,
        }

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._conn.close()

    # sqlite3 connections cannot pickle, but the store must: spawn
    # start methods pickle the evaluator graph (toolkit -> engine ->
    # cache -> store) into every worker.  Ship the path, reconnect on
    # arrival.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_conn"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._closed = False
        self._conn = self._open()


#: File suffixes that make :func:`resolve_store` pick SQLite for a path.
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def resolve_store(
    spec: CacheStore | str | os.PathLike | None,
    max_entries: int | None = None,
) -> CacheStore:
    """Build a store from a spec, or pass a ready one through.

    * None — a :class:`MemoryStore` (honouring ``max_entries``).
    * A path ending in ``.sqlite`` / ``.sqlite3`` / ``.db`` — a
      :class:`SQLiteStore` on that file.
    * Any other path — a :class:`FileStore` on that directory (no
      string is treated as a sentinel: ``"memory"`` is the directory
      ``./memory``, construct :class:`MemoryStore` explicitly for the
      in-memory behaviour).
    """
    if isinstance(spec, CacheStore):
        if max_entries is not None:
            raise ReproError(
                "max_entries cannot be applied to a ready store; "
                "bound the store itself"
            )
        return spec
    if spec is None:
        return MemoryStore(max_entries=max_entries)
    if max_entries is not None:
        raise ReproError(
            "max_entries applies to the in-memory store only; "
            f"got a persistent store spec {spec!r}"
        )
    path = Path(spec)
    if path.suffix.lower() in _SQLITE_SUFFIXES:
        return SQLiteStore(path)
    return FileStore(path)
