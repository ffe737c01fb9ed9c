"""Benchmark-side spans around the public entry point of each layer.

:func:`install` wraps, once per call and never per event:

* ``repro.runner.runner.execute_spec`` (the kernel of every job kind);
* ``interleave`` at its call sites in the runner and the accuracy
  simulator. It returns a lazy generator, so the wrapper materialises
  the stream inside the span; the traced run pays that memory, and it
  shows in the stated tracing overhead;
* ``AccuracySimulator.run`` / ``run_oracle``;
* ``ResultCache.put`` / ``get``, ``ResultIndex.record`` and
  ``TraceCache.get``.

Spans live in memory, one stack per thread (broker handler threads
publish concurrently), and are written out once at the end. Forked
fleet workers start from an empty recorder and write their own file
when ``run_worker`` returns, together with their peak RSS and their
telemetry-registry delta.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: span name -> layer metric its self time is charged to
LAYER_OF = {
    "TraceCache.get": "workloads.trace_load_s",
    "interleave": "trace.interleave_s",
    "ResultCache.get": "cache.probe_s",
    "ResultCache.put": "cache.put_s",
    "ResultIndex.record": "index.record_s",
}

#: spans whose self time is kernel time of the enclosing spec's kind
KERNEL_SPANS = (
    "execute_spec",
    "AccuracySimulator.run",
    "AccuracySimulator.run_oracle",
)


class SpanRecorder:
    """In-memory spans: name, start, end, parent and job kind."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    def reset(self) -> None:
        with self._lock:
            self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, kind_of=None,
             materialize: bool = False) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            with recorder._lock:
                recorder._next += 1
                span_id = recorder._next
            parent = stack[-1] if stack else None
            kind = kind_of(*args) if kind_of else (
                parent[1] if parent else None
            )
            stack.append((span_id, kind))
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
                if materialize:
                    value = iter(list(value))
                return value
            finally:
                end = time.perf_counter()
                stack.pop()
                record = {
                    "id": span_id, "parent": parent[0] if parent else None,
                    "name": name, "kind": kind, "start": start, "end": end,
                }
                with recorder._lock:
                    recorder.spans.append(record)

        return traced


def install(recorder: Optional[SpanRecorder], worker_dir: Path) -> None:
    """Wrap the layer entry points (when ``recorder`` is given) and
    make every fleet worker write ``worker-<pid>.json`` under
    ``worker_dir`` as it finishes (always: peak RSS needs it)."""
    import repro.telemetry as tm
    from repro.runner import cache as cache_mod
    from repro.runner import remote as remote_mod
    from repro.runner import runner as runner_mod
    from repro.sim import functional as functional_mod
    from repro.store import index as index_mod
    from repro.workloads import trace_cache as trace_mod

    if recorder is not None:
        wrap = recorder.wrap
        runner_mod.execute_spec = wrap(
            "execute_spec", runner_mod.execute_spec,
            kind_of=lambda spec: spec.kind,
        )
        for module in (runner_mod, functional_mod):
            module.interleave = wrap(
                "interleave", module.interleave, materialize=True
            )
        sim = functional_mod.AccuracySimulator
        for attr in ("run", "run_oracle"):
            setattr(sim, attr, wrap(
                f"AccuracySimulator.{attr}", getattr(sim, attr)
            ))
        for owner, attr, name in (
            (cache_mod.ResultCache, "get", "ResultCache.get"),
            (cache_mod.ResultCache, "put", "ResultCache.put"),
            (index_mod.ResultIndex, "record", "ResultIndex.record"),
            (trace_mod.TraceCache, "get", "TraceCache.get"),
        ):
            setattr(owner, attr, wrap(name, getattr(owner, attr)))

    original = remote_mod.run_worker

    @functools.wraps(original)
    def run_worker(*args, **kwargs):
        if recorder is not None:
            recorder.reset()
        before = tm.registry().snapshot()
        try:
            return original(*args, **kwargs)
        finally:
            out = {
                "rss_kb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss,
                "registry_before": before,
                "registry_after": tm.registry().snapshot(),
                "spans": recorder.spans if recorder is not None else [],
            }
            path = worker_dir / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(out))

    remote_mod.run_worker = run_worker
