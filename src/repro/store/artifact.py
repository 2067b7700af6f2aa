"""Artifact stores: in-memory LRU and a durable content-addressed disk store.

An :class:`ArtifactStore` maps canonical content-hash keys (strings built
from :mod:`repro.store.hashing` digests) to analysis artifacts.  Three
implementations:

* :class:`MemoryStore` — an LRU with an optional byte budget, the warm
  in-process cache.  ``get`` returns the *same object* that was put.
* :class:`DiskStore` — durable blobs under a root directory (the
  ``REPRO_STORE`` knob).  Writes are atomic (temp file + ``os.replace``)
  and every blob carries a versioned envelope with a payload checksum, so
  a truncated, corrupted or format-incompatible blob is *detected*, not
  deserialized into a wrong answer: the damage surfaces as an ``STO0xx``
  diagnostic through :func:`repro.diagnostics.run_with_fallback`, the blob
  is discarded, and the caller recomputes — fatal under ``REPRO_STRICT=1``
  (honesty under damage, in the spirit of the robust-code literature in
  PAPERS.md).
* :class:`TieredStore` — memory over disk: gets promote disk hits into
  memory (one deserialization per process per artifact), puts pickle once
  and feed both tiers.

``None`` is not a storable value — every store uses it as the miss
sentinel — and no analysis artifact is ``None``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.diagnostics import (
    Diagnostic,
    DiagnosticError,
    Severity,
    run_with_fallback,
)
from repro.runtime import gc_paused

__all__ = [
    "ArtifactStore",
    "MemoryStore",
    "DiskStore",
    "TieredStore",
    "StoreCorruption",
    "StoreFormatMismatch",
    "default_store",
    "DEFAULT_MEMORY_BUDGET",
]

#: Envelope format version: bumped on any change to the blob layout or the
#: hashing scheme's meaning; mismatching blobs are recomputed, never read.
STORE_FORMAT = 1

_MAGIC = b"RSTO1\n"

#: Default byte budget of the in-memory tier (the on-disk tier is bounded
#: only by :meth:`DiskStore.gc`).
DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024


class StoreCorruption(DiagnosticError, ValueError):
    """A stored blob failed verification (magic, checksum, truncation)."""

    default_code = "STO001"


class StoreFormatMismatch(DiagnosticError, ValueError):
    """A stored blob has an incompatible envelope format version."""

    default_code = "STO002"


def _store_error(cls, code: str, message: str):
    return cls(message, Diagnostic(Severity.ERROR, code, message,
                                   None, None, "store"))


def _stated_weight(value) -> Optional[int]:
    """``value.weight()`` — the analysis artifacts' own estimate of their
    pickled size — or ``None`` for a value that has none."""
    weigh = getattr(value, "weight", None)
    return None if weigh is None else weigh()


class ArtifactStore:
    """Interface of every artifact store (see the module docstring)."""

    def get(self, key: str):
        """The stored value, or ``None`` on a miss."""
        raise NotImplementedError

    def put(self, key: str, value) -> int:
        """Store ``value`` under ``key`` (``None`` is not storable).

        Returns the bytes the store accounted for it: the payload length
        where it serialised, the value's own estimate where it did not.
        """
        raise NotImplementedError

    def evict(self, key: str) -> bool:
        """Drop one entry (memory tiers only); True if it existed."""
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        """Hit/miss/put counters plus occupancy."""
        raise NotImplementedError

    def gc(self, keep: Iterable[str]) -> int:
        """Drop every entry whose key is not in ``keep``; returns count."""
        raise NotImplementedError


class MemoryStore(ArtifactStore):
    """In-process LRU over live objects, optionally byte-budgeted.

    The budget counts *estimated* bytes.  An analysis artifact says what it
    weighs (``value.weight()``: a few multiplications over lengths it
    already holds, within 2x of its pickled size), so a put costs no
    serialisation — a memory-only sign-off pickles nothing but its smallest
    results.  Only a value without ``weight()`` (violation tuples, area
    dicts, extents) is pickled to be measured, and a caller that already
    knows the size (:class:`TieredStore`: the payload it wrote) passes it.
    The hit path never measures.  When a budget is set, least-recently-used
    entries are dropped until the store fits — except the entry just
    inserted, which always survives its own put.
    """

    def __init__(self, budget_bytes: Optional[int] = DEFAULT_MEMORY_BUDGET):
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[str, Tuple[object, int]]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0

    def get(self, key: str):
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return entry[0]

    def _measure(self, value) -> int:
        if self.budget_bytes is None:
            return 0
        size = _stated_weight(value)
        if size is not None:
            return size
        try:
            return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:            # unpicklable: budget cannot see it
            return 0

    def put(self, key: str, value, size: Optional[int] = None) -> int:
        assert value is not None, "None is the miss sentinel, not a value"
        if size is None:
            size = self._measure(value)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._entries[key] = (value, size)
        self._bytes += size
        self._puts += 1
        if self.budget_bytes is not None:
            while self._bytes > self.budget_bytes and len(self._entries) > 1:
                victim, (_, victim_size) = self._entries.popitem(last=False)
                if victim == key:    # never evict the entry just inserted
                    self._entries[victim] = (value, size)
                    self._entries.move_to_end(victim, last=False)
                    break
                self._bytes -= victim_size
                self._evictions += 1
        return size

    def evict(self, key: str) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._bytes -= entry[1]
        self._evictions += 1
        return True

    def gc(self, keep: Iterable[str]) -> int:
        keep_set = set(keep)
        doomed = [key for key in self._entries if key not in keep_set]
        for key in doomed:
            self.evict(key)
        return len(doomed)

    def stats(self) -> Dict[str, object]:
        return {"hits": self._hits, "misses": self._misses,
                "puts": self._puts, "evictions": self._evictions,
                "entries": len(self._entries), "bytes": self._bytes}

    def __len__(self) -> int:
        return len(self._entries)


class DiskStore(ArtifactStore):
    """Durable blobs under ``root`` (see the module docstring).

    Blob layout: ``objects/<hh>/<sha256-of-key>.blob`` where ``hh`` is the
    first two hex digits (git-style fan-out).  Envelope::

        b"RSTO1\\n" + "%08x" % header_len + b"\\n" + header_json + payload

    with ``header_json`` carrying the format version, the full key, the
    payload length and its SHA-256.  Reads verify all of it before
    unpickling; writes go through a temp file and ``os.replace`` so a
    crashed writer leaves either the old blob or the new one, never a
    torn one.
    """

    def __init__(self, root: str):
        self.root = root
        self._objects = os.path.join(root, "objects")
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._corrupt = 0
        self._bytes_written = 0
        # [entries, bytes]: the last directory walk, kept current by this
        # object's own writes and removals; None: walk on the next stats().
        self._occupancy: Optional[List[int]] = None

    # -- paths ---------------------------------------------------------------

    def _path(self, key: str) -> str:
        name = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self._objects, name[:2], name + ".blob")

    # -- reading -------------------------------------------------------------

    @staticmethod
    def _parse_header(blob: bytes) -> Dict[str, object]:
        if not blob.startswith(_MAGIC):
            raise _store_error(StoreCorruption, "STO001",
                               "artifact blob has a bad magic header")
        rest = blob[len(_MAGIC):]
        if len(rest) < 9 or rest[8:9] != b"\n":
            raise _store_error(StoreCorruption, "STO001",
                               "artifact blob header length is truncated")
        try:
            header_len = int(rest[:8], 16)
            header = json.loads(rest[9:9 + header_len])
        except (ValueError, UnicodeDecodeError):
            raise _store_error(StoreCorruption, "STO001",
                               "artifact blob header is unreadable")
        if not isinstance(header, dict):
            raise _store_error(StoreCorruption, "STO001",
                               "artifact blob header is not an object")
        header["_payload_start"] = len(_MAGIC) + 9 + header_len
        return header

    def _parse_payload(self, blob: bytes, header: Dict[str, object], key: str):
        payload = blob[header["_payload_start"]:]
        if header.get("key") != key:
            raise _store_error(StoreCorruption, "STO001",
                               "artifact blob key does not match its path")
        if len(payload) != header.get("payload_len"):
            raise _store_error(
                StoreCorruption, "STO001",
                f"artifact blob payload is truncated "
                f"({len(payload)} of {header.get('payload_len')} bytes)")
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("payload_sha256"):
            raise _store_error(StoreCorruption, "STO001",
                               "artifact blob payload checksum mismatch")
        try:
            # Every object a load allocates survives it (they are the value)
            # and none is in a cycle: a collection mid-load scans them for
            # nothing, and in a process holding few objects it can be a
            # full one.
            with gc_paused():
                value = pickle.loads(payload)
        except Exception as exc:
            raise _store_error(StoreCorruption, "STO001",
                               f"artifact blob payload failed to "
                               f"deserialize ({type(exc).__name__}: {exc})")
        if value is None:
            raise _store_error(StoreCorruption, "STO001",
                               "artifact blob deserialized to None")
        return value

    def get(self, key: str):
        found = self.get_sized(key)
        return None if found is None else found[0]

    def get_sized(self, key: str):
        """Like :meth:`get`, but returns ``(value, payload_len)`` on a hit.

        The payload length is the honest pickled size of the value;
        :class:`TieredStore` promotes with it so a multi-megabyte artifact
        is never re-pickled just to be measured.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except (FileNotFoundError, NotADirectoryError):
            self._misses += 1
            return None
        label = f"artifact store blob for {key!r}"

        def discard():
            """Serial-recompute fallback: drop the bad blob, report a miss."""
            self._corrupt += 1
            self._remove(path)
            return None

        header = run_with_fallback(label, lambda: self._parse_header(blob),
                                   discard, code="STO001")
        if header is None:
            self._misses += 1
            return None
        if header.get("format") != STORE_FORMAT:
            def mismatch():
                raise _store_error(
                    StoreFormatMismatch, "STO002",
                    f"artifact blob format {header.get('format')!r} does "
                    f"not match this toolchain's format {STORE_FORMAT}")

            run_with_fallback(label, mismatch, discard, code="STO002")
            self._misses += 1
            return None
        value = run_with_fallback(
            label, lambda: self._parse_payload(blob, header, key),
            discard, code="STO001")
        if value is None:
            self._misses += 1
            return None
        self._hits += 1
        return value, len(blob) - header["_payload_start"]

    # -- writing -------------------------------------------------------------

    def put(self, key: str, value) -> int:
        assert value is not None, "None is the miss sentinel, not a value"
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self.put_payload(key, payload)
        return len(payload)

    def put_payload(self, key: str, payload: bytes) -> None:
        """Store an already-pickled payload (one pickling for both tiers)."""

        def write() -> bool:
            header = json.dumps({
                "format": STORE_FORMAT,
                "key": key,
                "payload_len": len(payload),
                "payload_sha256": hashlib.sha256(payload).hexdigest(),
            }, sort_keys=True).encode("utf-8")
            blob = _MAGIC + b"%08x\n" % len(header) + header + payload
            path = self._path(key)
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            handle, temp_path = tempfile.mkstemp(dir=directory,
                                                 suffix=".tmp")
            replaced = self._size(path)
            try:
                with os.fdopen(handle, "wb") as stream:
                    stream.write(blob)
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.remove(temp_path)
                except OSError:
                    pass
                raise
            self._bytes_written += len(blob)
            if self._occupancy is not None:
                if replaced is None:
                    self._occupancy[0] += 1
                self._occupancy[1] += len(blob) - (replaced or 0)
            return True

        # A write failure (full disk, permissions) degrades to "not
        # persisted" with a warning — the in-memory tier still has the
        # artifact — and is fatal under REPRO_STRICT=1 like every other
        # guarded fallback.
        if run_with_fallback(f"artifact store write for {key!r}", write,
                             lambda: False, code="STO003"):
            self._puts += 1

    # -- maintenance ---------------------------------------------------------

    def _blob_paths(self) -> List[str]:
        paths: List[str] = []
        if not os.path.isdir(self._objects):
            return paths
        for shard in sorted(os.listdir(self._objects)):
            shard_dir = os.path.join(self._objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".blob"):
                    paths.append(os.path.join(shard_dir, name))
        return paths

    def evict(self, key: str) -> bool:
        return self._remove(self._path(key))

    def _size(self, path: str) -> Optional[int]:
        """The size of the blob at ``path`` (``None``: there is none), read
        only while the occupancy is kept."""
        if self._occupancy is None:
            return None
        try:
            return os.stat(path).st_size
        except OSError:
            return None

    def _remove(self, path: str) -> bool:
        """Delete one blob, taking it off the kept occupancy."""
        size = self._size(path)
        try:
            os.remove(path)
        except OSError:
            return False
        if self._occupancy is not None and size is not None:
            self._occupancy[0] -= 1
            self._occupancy[1] -= size
        return True

    def keys(self) -> List[str]:
        """Keys of every readable blob (corrupt blobs are skipped)."""
        found: List[str] = []
        for path in self._blob_paths():
            try:
                with open(path, "rb") as handle:
                    header = self._parse_header(handle.read())
                found.append(header["key"])
            except (OSError, StoreCorruption, KeyError):
                continue
        return found

    def gc(self, keep: Iterable[str]) -> int:
        """Delete every blob whose key is not in ``keep``; returns count.

        Unreadable blobs are deleted too: they can never serve a hit.
        """
        keep_paths = {self._path(key) for key in keep}
        removed = 0
        self._occupancy = None
        for path in self._blob_paths():
            if path not in keep_paths:
                try:
                    os.remove(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, object]:
        """Counters plus occupancy (``entries``, ``bytes`` on disk).

        Occupancy is one ``os.scandir`` walk of the blob directory, taken on
        the first call and again only after :meth:`gc`.  In between, this
        object's own puts (a replaced blob's old size taken off), evictions
        and discarded corrupt blobs keep it current, so a sign-off that
        writes does not pay a walk of a store that grows with every edit.
        Writes and removals by anyone else on the same directory — another
        process, or another ``DiskStore`` object — are not seen until this
        object next collects.
        """
        if self._occupancy is None:
            self._occupancy = self._walk()
        entries, on_disk = self._occupancy
        return {"hits": self._hits, "misses": self._misses,
                "puts": self._puts, "corrupt": self._corrupt,
                "entries": entries, "bytes": on_disk,
                "bytes_written": self._bytes_written}

    def _walk(self) -> List[int]:
        """``[entries, bytes]`` of the blobs on disk, in one scandir pass."""
        entries = on_disk = 0
        try:
            shards = os.scandir(self._objects)
        except OSError:
            return [0, 0]
        with shards:
            for shard in shards:
                if not shard.is_dir():
                    continue
                with os.scandir(shard.path) as blobs:
                    for blob in blobs:
                        if blob.name.endswith(".blob"):
                            entries += 1
                            try:
                                on_disk += blob.stat().st_size
                            except OSError:
                                pass
        return [entries, on_disk]


class TieredStore(ArtifactStore):
    """Memory over disk: promote on disk hit, pickle once on put."""

    def __init__(self, memory: MemoryStore, disk: DiskStore):
        self.memory = memory
        self.disk = disk
        self._hits = 0
        self._misses = 0
        self._puts = 0

    def get(self, key: str):
        value = self.memory.get(key)
        if value is None:
            found = self.disk.get_sized(key)
            if found is not None:
                # Promote using the blob's payload length as the size —
                # never re-pickle a multi-megabyte artifact just to
                # measure it.
                value, size = found
                self.memory.put(key, value, size=size)
        if value is None:
            self._misses += 1
            return None
        self._hits += 1
        return value

    def put(self, key: str, value) -> int:
        assert value is not None, "None is the miss sentinel, not a value"
        self._puts += 1
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Unpicklable artifacts stay in-memory only, at the weight they
            # state (if none, the budget cannot see them).
            return self.memory.put(key, value,
                                   size=_stated_weight(value) or 0)
        size = self.memory.put(key, value, size=len(payload))
        self.disk.put_payload(key, payload)
        return size

    def evict(self, key: str) -> bool:
        """Drop from the *memory* tier only (disk cleanup is gc's job)."""
        return self.memory.evict(key)

    def gc(self, keep: Iterable[str]) -> int:
        keep_list = list(keep)
        return self.memory.gc(keep_list) + self.disk.gc(keep_list)

    def stats(self) -> Dict[str, object]:
        return {"hits": self._hits, "misses": self._misses,
                "puts": self._puts,
                "memory": self.memory.stats(), "disk": self.disk.stats()}


def default_store() -> ArtifactStore:
    """The store a fresh analyzer uses: memory, plus disk under REPRO_STORE.

    Always a *fresh* memory tier (sharing live objects between analyzers
    is the caller's explicit choice, made by passing one store around);
    the disk tier, when configured, is what different analyzers — and
    different processes — share.
    """
    from repro import config

    directory = config.store_dir()
    memory = MemoryStore()
    if directory is None:
        return memory
    return TieredStore(memory, DiskStore(directory))
