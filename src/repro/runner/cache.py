"""Content-addressed on-disk cache of simulation results.

Layout::

    <root>/
        ab/
            ab3f...e1.pkl     # pickled report, sha256-named
        cd/
            cd90...77.pkl
        traces/               # ProgramSet build cache (run-all default;
            ...               #   see repro.workloads.trace_cache)

The key of an entry is ``sha256("repro-cache/<schema>/<salt>/" +
spec.canonical())``. The *salt* defaults to the package version
(:data:`repro._version.__version__`): bumping the version after a
behaviour-affecting code change orphans every old entry rather than
serving stale results. Orphans are harmless; ``prune(keep_specs)``
deletes **everything** not addressed by ``keep_specs`` under the
current salt — orphans and unlisted current entries alike — so pass
the full grid you intend to keep.

Writes are atomic (temp file + ``os.replace``) so concurrent runner
processes sharing a cache directory never observe torn entries; a
corrupt or unreadable entry is treated as a miss and deleted.

Entries are written through a pluggable codec (:mod:`repro.codecs`):
``none`` keeps the legacy raw-pickle format, ``zlib`` compresses.
Reads are codec-transparent — whatever codec wrote an entry
(including the pre-codec format) any ``ResultCache`` decodes it, and
:meth:`ResultCache.migrate` re-encodes a directory in place.

Every :meth:`ResultCache.put` additionally upserts a row into the
sqlite :class:`repro.store.index.ResultIndex` beside the blobs
(``<root>/index.sqlite``) so the corpus is queryable without
unpickling (``repro query``). The index write is advisory — it never
fails the publish — and ``cache reindex`` rebuilds it from the blobs.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Tuple

from repro._fsutil import atomic_write_bytes
from repro._version import __version__
from repro.codecs import get_codec, migrate_files, pack, unpack
from repro.runner.spec import JobSpec

#: bump to orphan every existing cache entry on a layout change
CACHE_SCHEMA = 1


def spec_digest(spec: JobSpec, salt: str) -> str:
    """The content address of ``spec`` under ``salt`` — the vocabulary
    shared between blob filenames and the sqlite index."""
    payload = f"repro-cache/{CACHE_SCHEMA}/{salt}/{spec.canonical()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Aggregate on-disk accounting for one cache directory."""

    entries: int
    total_bytes: int
    #: seconds since the least-recently-written entry; 0.0 when empty
    oldest_age: float
    #: seconds since the most-recently-written entry; 0.0 when empty
    newest_age: float


def prune_files(
    paths: Iterable[Path],
    max_age: Optional[float] = None,
    max_bytes: Optional[float] = None,
    now: Optional[float] = None,
) -> int:
    """Generic retention sweep over a set of files.

    Deletes every file older (by mtime) than ``max_age`` seconds, then
    — if the survivors still exceed ``max_bytes`` in total — deletes
    oldest-first until under budget. Returns the number removed. Files
    that vanish mid-sweep (a concurrent prune) are skipped silently.
    """
    now = time.time() if now is None else now
    entries = []
    for path in paths:
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
    entries.sort()
    removed = 0
    kept = []
    for mtime, size, path in entries:
        if max_age is not None and now - mtime > max_age:
            path.unlink(missing_ok=True)
            removed += 1
        else:
            kept.append((mtime, size, path))
    if max_bytes is not None:
        total = sum(size for _, size, _ in kept)
        for _, size, path in kept:
            if total <= max_bytes:
                break
            path.unlink(missing_ok=True)
            removed += 1
            total -= size
    return removed


class ResultCache:
    """Spec-hash -> pickled report store under one directory."""

    def __init__(
        self, root, salt: Optional[str] = None, codec="none",
        index: bool = True,
    ) -> None:
        self.root = Path(root)
        self.salt = __version__ if salt is None else salt
        self.codec = get_codec(codec)
        self._index_enabled = index
        self._index = None

    @property
    def index(self):
        """The sqlite :class:`repro.store.index.ResultIndex` beside
        the blobs, or ``None`` when indexing is disabled. Lazy so
        importing the cache never drags sqlite in."""
        if not self._index_enabled:
            return None
        if self._index is None:
            from repro.store.index import ResultIndex

            self._index = ResultIndex(self.root)
        return self._index

    def key(self, spec: JobSpec) -> str:
        return spec_digest(spec, self.salt)

    def path(self, spec: JobSpec) -> Path:
        key = self.key(spec)
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, spec: JobSpec) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; corrupt entries count as misses."""
        path = self.path(spec)
        try:
            with open(path, "rb") as handle:
                return True, pickle.loads(unpack(handle.read()))
        except FileNotFoundError:
            return False, None
        except Exception:
            # torn/corrupt/incompatible entry: drop it, recompute
            path.unlink(missing_ok=True)
            return False, None

    def put(
        self, spec: JobSpec, value: Any, holder: Optional[str] = None
    ) -> Path:
        """Publish one result; ``holder`` labels who computed it in
        the index (a worker name when the broker publishes, None for a
        plain local run)."""
        raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        packed = pack(raw, self.codec)
        path = atomic_write_bytes(self.path(spec), packed)
        index = self.index
        if index is not None:
            try:
                index.record(
                    self.key(spec),
                    value,
                    spec=spec,
                    salt=self.salt,
                    codec=self.codec.name,
                    size_bytes=len(packed),
                    holder=holder,
                )
            except Exception:
                pass  # advisory: cache reindex reconciles
        return path

    def migrate(self, codec):
        """Re-encode every entry under ``codec`` in place; returns
        ``(examined, changed, bytes_before, bytes_after)``. Safe while
        readers are live — rewrites are atomic and reads decode any
        codec."""
        return migrate_files(self.entry_paths(), codec)

    def entries(self) -> int:
        """Number of stored results (any salt)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def entry_paths(self):
        """Every stored result file (any salt)."""
        if not self.root.is_dir():
            return
        yield from self.root.glob("*/*.pkl")

    def stats(self, now: Optional[float] = None) -> CacheStats:
        """On-disk accounting over every entry (any salt)."""
        now = time.time() if now is None else now
        count = 0
        total = 0
        oldest = newest = None
        for path in self.entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            count += 1
            total += stat.st_size
            if oldest is None or stat.st_mtime < oldest:
                oldest = stat.st_mtime
            if newest is None or stat.st_mtime > newest:
                newest = stat.st_mtime
        return CacheStats(
            entries=count,
            total_bytes=total,
            oldest_age=max(0.0, now - oldest) if oldest else 0.0,
            newest_age=max(0.0, now - newest) if newest else 0.0,
        )

    def prune_by(
        self,
        max_age: Optional[float] = None,
        max_bytes: Optional[float] = None,
        now: Optional[float] = None,
    ) -> int:
        """Retention sweep: drop entries older than ``max_age`` seconds
        and/or oldest-first down to ``max_bytes``. Returns the number
        removed. Complements :meth:`prune`, which keeps an explicit
        grid."""
        return prune_files(
            self.entry_paths(), max_age=max_age, max_bytes=max_bytes,
            now=now,
        )

    def prune(self, keep_specs=()) -> int:
        """Delete entries not addressed by ``keep_specs`` under the
        current salt. Returns the number removed."""
        keep = {self.path(spec) for spec in keep_specs}
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*/*.pkl"):
            if path not in keep:
                path.unlink(missing_ok=True)
                removed += 1
        return removed
