"""Filesystem helpers shared by the on-disk state writers.

One canonical atomic-write idiom (temp file in the target directory +
``os.replace``, temp cleanup on failure) used by the result cache, the
trace build cache, the campaign state file and the serve pool's
``fleet.json``, so readers sharing a directory with writers never
observe torn files.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path, data: bytes) -> Path:
    """Atomically create/replace ``path`` with ``data``.

    The temp file lives in the destination directory so the final
    ``os.replace`` stays on one filesystem (and therefore atomic).
    Parent directories are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path
