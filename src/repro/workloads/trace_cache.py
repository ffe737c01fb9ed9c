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
        v3/                   # TRACE_SCHEMA
            em3d-b1/          # workload name and builder_version
                ab/
                    ab3f...e1.pkl # pickled ProgramSet

An entry is live when it sits in the current schema's directory and
its workload's directory names the registry's current
``builder_version`` for that workload (or a workload the registry does
not know, such as one defined at run time, whose entries stay live).
Everything else under the root is orphaned: entries a
``builder_version`` bump left behind, and entries of another schema
(``v1/``, ``v2/``, or the unversioned ``<root>/ab/`` layout written
before the schema got its own directory) that no current key can
address. :meth:`TraceCache.entries` and :meth:`~TraceCache.total_bytes`
count the live entries only, :meth:`~TraceCache.orphan_paths` lists the
rest for ``cache stats``, and ``cache prune`` deletes orphans whatever
its limits say.

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
slower; ``TRACE_SCHEMA`` 2 orphaned them, so each was rebuilt once,
shared. ``TRACE_SCHEMA`` 3 moved every entry into its workload's
directory, so each entry written before is rebuilt once more.
"""

from __future__ import annotations

import hashlib
import mmap
import pickle
from pathlib import Path
from typing import Iterator, Optional, Tuple

import repro.telemetry as _tm
from repro._fsutil import atomic_write_bytes
from repro.trace.program import ProgramSet
from repro.workloads.base import Workload
from repro.workloads.registry import builder_version

#: bump to orphan every existing trace entry on a layout change; 2
#: orphaned the entries written before builds shared equal steps, 3 the
#: entries written before each workload and builder got a directory
TRACE_SCHEMA = 3

#: traces :func:`cached_build` handed out, by workload and ``source``:
#: ``cache`` (loaded) or ``build`` (synthesized); see docs/observability.md
_M_TRACES = _tm.counter("repro_runner_traces_total")


def trace_key(workload: Workload) -> str:
    """Content address of a workload's built trace: the sha256 of its
    :meth:`~repro.workloads.base.Workload.fingerprint`. Equal keys
    mean byte-identical builds."""
    payload = f"repro-trace/{TRACE_SCHEMA}/{workload.fingerprint()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TraceCache:
    """Workload-fingerprint -> pickled :class:`ProgramSet` store.

    ``hits`` / ``builds`` count the traces this process loaded from a
    trace cache and built since this object was made (pool worker
    processes count their own).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._since = _tm.Baseline(_M_TRACES)

    @property
    def hits(self) -> int:
        return self._since.count(_M_TRACES, source="cache")

    @property
    def builds(self) -> int:
        return self._since.count(_M_TRACES, source="build")

    def key(self, workload: Workload) -> str:
        return trace_key(workload)

    @property
    def live_root(self) -> Path:
        """The directory of the current schema's entries."""
        return self.root / f"v{TRACE_SCHEMA}"

    def path(self, workload: Workload) -> Path:
        key = self.key(workload)
        builder = f"{workload.name}-b{workload.builder_version}"
        return self.live_root / builder / key[:2] / f"{key}.pkl"

    def get(self, workload: Workload) -> Tuple[bool, Optional[ProgramSet]]:
        """Return ``(hit, program_set)``; corrupt entries are misses.

        Entries deserialize straight out of a read-only ``mmap`` of
        the file: every pool worker loading the same trace then reads
        one shared page-cache copy of the bytes instead of
        materializing a private heap buffer first. Empty or
        unmappable files fall back to a plain read.
        """
        path = self.path(workload)
        try:
            with open(path, "rb") as handle:
                try:
                    buf = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                except (ValueError, OSError):
                    value = pickle.loads(handle.read())
                else:
                    # pickle copies what it keeps, so the mapping can
                    # close right after loads
                    with buf:
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
        return atomic_write_bytes(self.path(workload), raw)

    # -- accounting ----------------------------------------------------

    def entry_paths(self) -> Iterator[Path]:
        """The live entries: the current schema's, by current builders."""
        for path in self.live_root.glob("*/*/*.pkl"):
            if _current(path.parent.parent.name):
                yield path

    def orphan_paths(self) -> Iterator[Path]:
        """Entries no current key addresses: the unversioned layout's
        ``<root>/ab/*.pkl``, the earlier schemas' ``<root>/v<N>/ab/``,
        and the entries of builders that are no longer current."""
        yield from self.root.glob("*/*.pkl")
        live = self.live_root
        for path in self.root.glob("*/*/*.pkl"):
            if path.parent.parent != live:
                yield path
        for path in self.root.glob("*/*/*/*.pkl"):
            builder = path.parent.parent
            if builder.parent != live or not _current(builder.name):
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


def _current(builder: str) -> bool:
    """Whether an entry directory named ``<workload>-b<version>`` holds
    the registry's current builder for its workload (a workload the
    registry does not know counts as current)."""
    name, _, version = builder.rpartition("-b")
    current = builder_version(name)
    return current is None or version == str(current)


def cached_build(
    workload: Workload, cache: Optional[TraceCache] = None
) -> ProgramSet:
    """Build a workload's trace, serving and feeding ``cache``.

    With ``cache=None`` this is ``workload.build()``, counted.
    """
    hit, programs = (False, None) if cache is None else cache.get(workload)
    if not hit:
        programs = workload.build()
        if cache is not None:
            cache.put(workload, programs)
    _M_TRACES.inc(workload=workload.name, source="cache" if hit else "build")
    return programs
