"""Trace infrastructure: events, per-node programs, and interleaving.

The paper's predictors consume two per-node event streams: the memory
instructions the processor executes against shared blocks, and the
invalidation messages the coherence protocol delivers. This package
defines those event types (:mod:`repro.trace.events`), a small step
language for describing each node's program (:mod:`repro.trace.program`),
and a deterministic scheduler that interleaves per-node programs into the
single global stream consumed by the functional coherence simulator
(:mod:`repro.trace.scheduler`). The scheduler writes that stream straight
into the replay-ready :class:`CompiledStream` it owns the format of: an
index into a small ``(op, node, pc)`` table and a dense block id per
event. :func:`interleave` decodes a schedule back into events for the
census, stream statistics and trace export.
"""

from repro.trace.events import (
    Invalidation,
    InvalidationReason,
    MemoryAccess,
    SyncBoundary,
    SyncKind,
)
from repro.trace.program import (
    Access,
    Barrier,
    LockAcquire,
    LockRelease,
    Program,
    ProgramSet,
)
from repro.trace.scheduler import (
    CompiledStream,
    compile_stream,
    decode_stream,
    interleave,
    schedule,
)
from repro.trace.stats import StreamStats, collect_stream_stats

__all__ = [
    "Access",
    "Barrier",
    "CompiledStream",
    "Invalidation",
    "InvalidationReason",
    "LockAcquire",
    "LockRelease",
    "MemoryAccess",
    "Program",
    "ProgramSet",
    "StreamStats",
    "SyncBoundary",
    "SyncKind",
    "collect_stream_stats",
    "compile_stream",
    "decode_stream",
    "interleave",
    "schedule",
]
