"""Persistent build cache for workload :class:`ProgramSet` traces.

Building a ``ProgramSet`` is pure — the generator is fully determined
by the workload name, its :class:`~repro.workloads.base.WorkloadParams`
(which fold in the size preset, the seed, and any overrides), and the
generator *code* itself. The first two are captured by
:meth:`Workload.fingerprint`; the third by the per-class
``builder_version`` counter that workload authors bump whenever
``_generate`` changes the emitted steps. Hashing the fingerprint gives
a content address under which the built trace can be pickled once and
reloaded by every later process::

    <root>/
        v2/                   # TRACE_SCHEMA: the live entries
            ab/
                ab3f...e1.pkl # pickled ProgramSet (optionally packed
                              #   through repro.codecs)

Everything else under the root is orphaned: entries of another schema
(``v1/``, or the unversioned ``<root>/ab/`` layout written before the
schema got its own directory) that no current key can address.
:meth:`TraceCache.entries` and :meth:`~TraceCache.total_bytes` count
the live directory only, :meth:`~TraceCache.orphan_paths` lists the
rest for ``cache stats``, and ``cache prune`` deletes orphans whatever
its limits say. A ``builder_version`` bump still orphans entries inside
the live directory, where they look live until pruned by age or size.

Layout and atomicity mirror :class:`repro.runner.cache.ResultCache`
(temp file + ``os.replace``; corrupt entries degrade to misses), so a
trace cache can safely live inside a shared result-cache directory —
``repro run-all`` defaults it to ``<cache-dir>/traces``. Worker
processes on large grids then deserialize traces instead of
re-synthesizing them at start-up.

A build constructs each distinct step once and puts that one object
wherever the step recurs (:class:`~repro.trace.program.ProgramBuilder`),
and pickle's memo keeps that sharing in the entry, so an entry holds
each distinct step once (the nine ``small`` traces pickle to 1.7 MB
and load in about 0.01 s on a 2-vCPU host). Entries written before
builds shared their steps held one object per step and loaded 40x
slower; ``TRACE_SCHEMA`` 2 orphans them, so each is rebuilt once,
shared (and entries of the unversioned layout are rebuilt once more
into ``v2/``).

Entries are written through a pluggable codec (``none`` keeps the
legacy raw-pickle format; ``zlib`` shrinks a ``paper``-size ``em3d``
trace 33.5x). Reads are codec-transparent: whatever codec wrote an
entry — including the pre-codec format — any ``TraceCache`` decodes
it, and :meth:`migrate` re-encodes a directory in place.
"""

from __future__ import annotations

import hashlib
import mmap
import pickle
from pathlib import Path
from typing import Iterator, Optional, Tuple

from repro._fsutil import atomic_write_bytes
from repro.codecs import BLOB_MAGIC, get_codec, migrate_files, pack, unpack
from repro.trace.program import ProgramSet
from repro.workloads.base import Workload

#: bump to orphan every existing trace entry on a layout change; 2
#: orphaned the entries written before builds shared equal steps
TRACE_SCHEMA = 2


def trace_key(workload: Workload) -> str:
    """Content address of a workload's built trace: the sha256 of its
    :meth:`~repro.workloads.base.Workload.fingerprint`. Equal keys
    mean byte-identical builds."""
    payload = f"repro-trace/{TRACE_SCHEMA}/{workload.fingerprint()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TraceCache:
    """Workload-fingerprint -> pickled :class:`ProgramSet` store.

    ``hits`` / ``builds`` count this process's cache outcomes (pool
    worker processes keep their own counters). ``codec`` selects the
    entry compression for *writes*; reads decode any codec.
    """

    def __init__(self, root, codec="none") -> None:
        self.root = Path(root)
        self.codec = get_codec(codec)
        self.hits = 0
        self.builds = 0

    def key(self, workload: Workload) -> str:
        return trace_key(workload)

    @property
    def live_root(self) -> Path:
        """The directory of the current schema's entries."""
        return self.root / f"v{TRACE_SCHEMA}"

    def path(self, workload: Workload) -> Path:
        key = self.key(workload)
        return self.live_root / key[:2] / f"{key}.pkl"

    def get(self, workload: Workload) -> Tuple[bool, Optional[ProgramSet]]:
        """Return ``(hit, program_set)``; corrupt entries are misses.

        Raw (``none``-codec) entries deserialize straight out of a
        read-only ``mmap`` of the file: every pool worker loading the
        same trace then reads one shared page-cache copy of the bytes
        instead of materializing a private heap buffer first. Packed
        entries decompress into a private buffer regardless, and
        empty or unmappable files fall back to a plain read.
        """
        path = self.path(workload)
        try:
            with open(path, "rb") as handle:
                try:
                    buf = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                except (ValueError, OSError):
                    value = pickle.loads(unpack(handle.read()))
                else:
                    with buf:
                        if buf[: len(BLOB_MAGIC)] == BLOB_MAGIC:
                            value = pickle.loads(unpack(bytes(buf)))
                        else:
                            # pickle copies what it keeps, so the
                            # mapping can close right after loads
                            value = pickle.loads(buf)
            if not isinstance(value, ProgramSet):
                raise TypeError(f"expected ProgramSet, got {type(value)}")
            return True, value
        except FileNotFoundError:
            return False, None
        except Exception:
            # torn/corrupt/incompatible entry: drop it, rebuild
            path.unlink(missing_ok=True)
            return False, None

    def put(self, workload: Workload, programs: ProgramSet) -> Path:
        raw = pickle.dumps(programs, protocol=pickle.HIGHEST_PROTOCOL)
        return atomic_write_bytes(
            self.path(workload), pack(raw, self.codec)
        )

    # -- accounting ----------------------------------------------------

    def entry_paths(self) -> Iterator[Path]:
        """The live entries (the current schema's directory)."""
        yield from self.live_root.glob("*/*.pkl")

    def orphan_paths(self) -> Iterator[Path]:
        """Entries no current key addresses: the unversioned layout's
        ``<root>/ab/*.pkl`` and other schemas' ``<root>/v<N>/``."""
        yield from self.root.glob("*/*.pkl")
        live = self.live_root
        for path in self.root.glob("*/*/*.pkl"):
            if path.parent.parent != live:
                yield path

    def entries(self) -> int:
        return sum(1 for _ in self.entry_paths())

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entry_paths())

    def orphan_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.orphan_paths())

    def remove_orphans(self) -> int:
        """Delete every orphaned entry; returns the number removed."""
        paths = list(self.orphan_paths())
        for path in paths:
            path.unlink(missing_ok=True)
        return len(paths)

    def migrate(self, codec) -> Tuple[int, int, int, int]:
        """Re-encode every entry under ``codec`` in place; returns
        ``(examined, changed, bytes_before, bytes_after)``."""
        return migrate_files(self.entry_paths(), codec)


def cached_build(
    workload: Workload, cache: Optional[TraceCache] = None
) -> ProgramSet:
    """Build a workload's trace, serving and feeding ``cache``.

    With ``cache=None`` this is exactly ``workload.build()``.
    """
    if cache is None:
        return workload.build()
    hit, programs = cache.get(workload)
    if hit:
        cache.hits += 1
        return programs
    programs = workload.build()
    cache.builds += 1
    cache.put(workload, programs)
    return programs
