"""Pluggable compression codecs for cache entries and wire payloads.

Every persistent byte store in the runner stack — the result cache,
the trace build cache, and the remote wire frames that carry
reports — compresses through this one registry, so a codec
choice is a single ``--codec`` knob rather than N format forks.

Blob container format::

    b"LTPZ" | name_len (1 byte) | codec name (ascii) | codec payload

The ``none`` codec writes **no** container at all: its output is the
raw input bytes, byte-identical to the pre-codec cache format. That
makes back-compat bidirectional — a ``none``-configured reader decodes
zlib entries (the header names the codec), and a ``zlib``-configured
reader falls through to raw bytes for anything without the magic.
The payloads stored here are pickles (protocol 2+ starts ``\\x80``)
or JSON, so a legacy entry can never alias the ``LTPZ`` magic.

:func:`unpack` raises :class:`CodecError` on torn headers, unknown
codec names, and undecodable compressed payloads; the caches treat
that exactly like a corrupt pickle — drop the entry, recompute.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Iterable, Tuple, Union

from repro._fsutil import atomic_write_bytes

#: container magic for compressed blobs (raw/legacy entries lack it)
BLOB_MAGIC = b"LTPZ"


class CodecError(RuntimeError):
    """Unknown codec name, torn blob header, or undecodable payload."""


class Codec:
    """One compression scheme: ``name`` + compress/decompress."""

    name = "abstract"

    def compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decompress(self, data: bytes) -> bytes:
        raise NotImplementedError


class NullCodec(Codec):
    """Identity codec — writes the legacy (uncompressed) format."""

    name = "none"

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes) -> bytes:
        return data


class ZlibCodec(Codec):
    """stdlib ``zlib`` at a mid level: 33.5x on a paper-size em3d
    ProgramSet pickle."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise CodecError(
                f"undecodable zlib payload: {exc}"
            ) from exc


#: the codec registry; entries are stateless and shared
CODECS = {"none": NullCodec(), "zlib": ZlibCodec()}

#: CLI vocabulary for ``--codec``
CODEC_NAMES = tuple(CODECS)


def get_codec(codec: Union[str, Codec, None]) -> Codec:
    """Resolve a codec name (or pass through an instance / ``None``)."""
    if codec is None:
        return CODECS["none"]
    if isinstance(codec, Codec):
        return codec
    try:
        return CODECS[codec]
    except KeyError:
        raise CodecError(
            f"unknown codec {codec!r}; choose from {CODEC_NAMES}"
        ) from None


def pack(data: bytes, codec: Union[str, Codec, None] = None) -> bytes:
    """Wrap ``data`` in the blob container under ``codec``.

    The ``none`` codec returns ``data`` unchanged (legacy format).
    """
    codec = get_codec(codec)
    if codec.name == "none":
        return data
    name = codec.name.encode("ascii")
    return BLOB_MAGIC + bytes([len(name)]) + name + codec.compress(data)


def _split_blob(blob: bytes) -> Tuple[str, bytes]:
    """``(codec_name, payload)`` of a magic-prefixed blob."""
    if len(blob) <= len(BLOB_MAGIC):
        raise CodecError("torn blob header: no codec name length")
    length = blob[len(BLOB_MAGIC)]
    start = len(BLOB_MAGIC) + 1
    name_bytes = blob[start:start + length]
    if len(name_bytes) != length:
        raise CodecError("torn blob header: truncated codec name")
    try:
        name = name_bytes.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CodecError(f"torn blob header: {exc}") from exc
    return name, blob[start + length:]


def unpack(blob: bytes) -> bytes:
    """Invert :func:`pack`, whatever codec wrote the blob.

    Bytes without the container magic are returned as-is — that is how
    pre-codec (raw pickle) cache entries stay readable forever.
    """
    if not blob.startswith(BLOB_MAGIC):
        return blob
    name, payload = _split_blob(blob)
    return get_codec(name).decompress(payload)


def blob_codec(blob: bytes) -> str:
    """The codec name a blob was packed with (``"none"`` for raw)."""
    if not blob.startswith(BLOB_MAGIC):
        return "none"
    name, _ = _split_blob(blob)
    return name


#: header bytes that always cover magic + name length + longest name
_CENSUS_HEADER = len(BLOB_MAGIC) + 1 + 255


def codec_census(paths: Iterable) -> dict:
    """Per-codec ``{name: (count, bytes)}`` over a set of entry files.

    Reads only each file's blob header (magic + codec name), so a
    census over a big cache stays cheap. Files without the container
    magic count as ``"none"`` (raw/legacy format); files whose header
    is torn count as ``"corrupt"``; unreadable files are skipped —
    exactly the buckets ``cache stats`` reports.
    """
    out: dict = {}
    for path in paths:
        try:
            path = Path(path)
            size = path.stat().st_size
            with open(path, "rb") as handle:
                header = handle.read(_CENSUS_HEADER)
        except OSError:
            continue
        try:
            name = blob_codec(header)
        except CodecError:
            name = "corrupt"
        count, total = out.get(name, (0, 0))
        out[name] = (count + 1, total + size)
    return out


def recode_file(path, codec: Union[str, Codec]) -> Tuple[int, int, bool]:
    """Re-encode one cache entry file under ``codec``.

    Returns ``(bytes_before, bytes_after, changed)``; a file already
    in the target codec is left untouched. The rewrite is atomic, so
    concurrent readers see either format — both of which they decode
    transparently.
    """
    codec = get_codec(codec)
    path = Path(path)
    blob = path.read_bytes()
    if blob_codec(blob) == codec.name:
        return len(blob), len(blob), False
    data = unpack(blob)
    new_blob = pack(data, codec)
    atomic_write_bytes(path, new_blob)
    return len(blob), len(new_blob), True


def migrate_files(
    paths: Iterable, codec: Union[str, Codec]
) -> Tuple[int, int, int, int]:
    """Re-encode every entry in ``paths`` under ``codec``.

    Returns ``(examined, changed, bytes_before, bytes_after)``.
    Unreadable or corrupt entries are skipped — they already degrade
    to cache misses at read time, so migration never has to fail on
    them.
    """
    examined = changed = before = after = 0
    for path in paths:
        try:
            b, a, ch = recode_file(path, codec)
        except (OSError, CodecError):
            continue
        examined += 1
        before += b
        after += a
        changed += int(ch)
    return examined, changed, before, after
