"""Size-capped rotating JSONL sinks for span logs.

A :class:`RotatingJsonlWriter` appends JSON lines to ``path``; once
the file would exceed ``max_bytes`` it rotates ``path -> path.1 ->
path.2 ...`` keeping ``backups`` old segments, so a long-lived
``repro serve`` cannot grow its telemetry without bound. Writes are
advisory: any OSError is swallowed — observability must never take
the service down with it.

Readers use :func:`rotated_segments` to walk the segments oldest
first, so :func:`read_jsonl` yields one continuous, ordered record
stream across rotations.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Iterable, Iterator, List

#: default rotation cap per segment (spans are ~200 bytes each)
DEFAULT_MAX_BYTES = 4 * 1024 * 1024

#: rotated segments kept beside the live file
DEFAULT_BACKUPS = 3


class RotatingJsonlWriter:
    """Thread-safe, size-rotated, error-swallowing JSONL appender."""

    def __init__(
        self,
        path,
        max_bytes: int = DEFAULT_MAX_BYTES,
        backups: int = DEFAULT_BACKUPS,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.backups = max(0, int(backups))
        self._lock = threading.Lock()
        self._size: int = -1  # lazily stat()ed on first write

    def write(self, record: Any) -> None:
        self.write_lines([record])

    def write_lines(self, records: Iterable[Any]) -> None:
        """Append each record as one JSON line, rotating as needed."""
        payload = "".join(
            json.dumps(record, separators=(",", ":"), sort_keys=True)
            + "\n"
            for record in records
        )
        if not payload:
            return
        data = payload.encode("utf-8")
        with self._lock:
            try:
                if self._size < 0:
                    self._size = (
                        self.path.stat().st_size
                        if self.path.exists() else 0
                    )
                if self._size and self._size + len(data) > self.max_bytes:
                    self._rotate()
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "ab") as log:
                    log.write(data)
                self._size += len(data)
            except OSError:
                # advisory log: never fail the caller, re-stat next time
                self._size = -1

    def _rotate(self) -> None:
        """``path -> path.1 -> ... -> path.N``; oldest falls off."""
        if self.backups == 0:
            self.path.unlink(missing_ok=True)
            self._size = 0
            return
        oldest = self.path.with_name(
            f"{self.path.name}.{self.backups}"
        )
        oldest.unlink(missing_ok=True)
        for n in range(self.backups - 1, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{n}")
            if src.exists():
                os.replace(
                    src, self.path.with_name(f"{self.path.name}.{n + 1}")
                )
        if self.path.exists():
            os.replace(
                self.path, self.path.with_name(f"{self.path.name}.1")
            )
        self._size = 0


def rotated_segments(path) -> List[Path]:
    """Every existing segment of a rotated JSONL log, oldest first.

    ``[path.N, ..., path.2, path.1, path]`` filtered to files that
    exist — reading them in order yields the records in the order they
    were written, across rotations.
    """
    path = Path(path)
    segments: List[Path] = []
    n = 1
    while True:
        seg = path.with_name(f"{path.name}.{n}")
        if not seg.exists():
            break
        segments.append(seg)
        n += 1
    segments.reverse()
    if path.exists():
        segments.append(path)
    return segments


def read_jsonl(path) -> Iterator[dict]:
    """Yield every decodable record across a log's rotated segments,
    oldest first; undecodable or torn lines are skipped."""
    for segment in rotated_segments(path):
        try:
            with open(segment, encoding="utf-8") as log:
                for line in log:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict):
                        yield record
        except OSError:
            continue
