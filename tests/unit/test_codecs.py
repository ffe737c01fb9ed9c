"""Tests for the compression codec layer: pack/unpack round trips,
legacy (pre-codec) passthrough, corruption handling, and the
codec-transparent read + migrate paths of both on-disk caches."""

import pickle

import pytest

from repro.codecs import (
    BLOB_MAGIC,
    CODEC_NAMES,
    CodecError,
    blob_codec,
    get_codec,
    migrate_files,
    pack,
    unpack,
)
from repro.runner import ResultCache, census_job, execute_spec
from repro.workloads import TraceCache, cached_build, get_workload

SIZE = "tiny"

PAYLOAD = pickle.dumps(
    {"stats": list(range(500)), "text": "x" * 1000},
    protocol=pickle.HIGHEST_PROTOCOL,
)


class TestPackUnpack:
    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_round_trip(self, name):
        assert unpack(pack(PAYLOAD, name)) == PAYLOAD

    def test_none_codec_writes_legacy_format(self):
        # byte-identical to the pre-codec format: no container at all
        assert pack(PAYLOAD, "none") == PAYLOAD
        assert pack(PAYLOAD, None) == PAYLOAD

    def test_unpack_passes_legacy_bytes_through(self):
        assert unpack(PAYLOAD) == PAYLOAD

    def test_zlib_blob_is_tagged_and_smaller(self):
        blob = pack(PAYLOAD, "zlib")
        assert blob.startswith(BLOB_MAGIC)
        assert blob_codec(blob) == "zlib"
        assert len(blob) < len(PAYLOAD)

    def test_blob_codec_of_raw_is_none(self):
        assert blob_codec(PAYLOAD) == "none"

    def test_truncated_payload_raises(self):
        blob = pack(PAYLOAD, "zlib")
        with pytest.raises(CodecError):
            unpack(blob[: len(blob) // 2])

    def test_corrupted_payload_raises(self):
        blob = pack(PAYLOAD, "zlib")
        corrupt = blob[:-8] + b"\x00" * 8
        with pytest.raises(CodecError):
            unpack(corrupt)

    def test_torn_header_raises(self):
        with pytest.raises(CodecError):
            unpack(BLOB_MAGIC)  # no name length at all
        with pytest.raises(CodecError):
            unpack(BLOB_MAGIC + bytes([10]) + b"zl")  # short name

    def test_unknown_codec_in_blob_raises(self):
        blob = BLOB_MAGIC + bytes([3]) + b"lz9" + b"payload"
        with pytest.raises(CodecError):
            unpack(blob)

    def test_get_codec_vocabulary(self):
        assert get_codec("zlib").name == "zlib"
        assert get_codec(None).name == "none"
        zlib_codec = get_codec("zlib")
        assert get_codec(zlib_codec) is zlib_codec
        with pytest.raises(CodecError):
            get_codec("snappy")


class TestResultCacheCodecs:
    def _populate(self, cache):
        spec = census_job("em3d", SIZE)
        value = execute_spec(spec)
        cache.put(spec, value)
        return spec, value

    def test_zlib_entries_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, codec="zlib")
        spec, value = self._populate(cache)
        hit, got = cache.get(spec)
        assert hit
        assert pickle.dumps(got) == pickle.dumps(value)
        assert blob_codec(cache.path(spec).read_bytes()) == "zlib"

    def test_reads_are_codec_transparent(self, tmp_path):
        writer = ResultCache(tmp_path, codec="zlib")
        spec, value = self._populate(writer)
        hit, got = ResultCache(tmp_path).get(spec)  # none reader
        assert hit and pickle.dumps(got) == pickle.dumps(value)

    def test_legacy_raw_entry_is_read_by_zlib_cache(self, tmp_path):
        from repro._fsutil import atomic_write_bytes

        spec = census_job("em3d", SIZE)
        value = execute_spec(spec)
        reader = ResultCache(tmp_path, codec="zlib")
        # the pre-codec writer: raw pickle, no container
        atomic_write_bytes(
            reader.path(spec),
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
        )
        hit, got = reader.get(spec)
        assert hit and pickle.dumps(got) == pickle.dumps(value)

    def test_corrupt_compressed_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, codec="zlib")
        spec, _ = self._populate(cache)
        path = cache.path(spec)
        path.write_bytes(BLOB_MAGIC + bytes([4]) + b"zlib" + b"junk")
        hit, got = cache.get(spec)
        assert not hit and got is None
        assert not path.exists(), "corrupt entry must be dropped"

    def test_migrate_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)  # legacy-format writer
        spec, value = self._populate(cache)
        raw_size = cache.path(spec).stat().st_size

        examined, changed, before, after = cache.migrate("zlib")
        assert (examined, changed) == (1, 1)
        assert before == raw_size
        assert blob_codec(cache.path(spec).read_bytes()) == "zlib"

        # idempotent: already in the target codec
        examined, changed, *_ = cache.migrate("zlib")
        assert (examined, changed) == (1, 0)

        # and back to the legacy raw format, byte-identical
        cache.migrate("none")
        assert cache.path(spec).read_bytes() == pickle.dumps(
            value, protocol=pickle.HIGHEST_PROTOCOL
        )

    def test_migrate_skips_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path, codec="zlib")
        spec, _ = self._populate(cache)
        bad = tmp_path / "zz" / ("f" * 64 + ".pkl")
        bad.parent.mkdir(parents=True)
        bad.write_bytes(BLOB_MAGIC + bytes([4]) + b"zlib" + b"junk")
        examined, changed, *_ = cache.migrate("none")
        assert (examined, changed) == (1, 1)


class TestTraceCacheCodecs:
    def test_zlib_trace_round_trips(self, tmp_path):
        plain = get_workload("em3d", SIZE).build()
        cache = TraceCache(tmp_path, codec="zlib")
        cached_build(get_workload("em3d", SIZE), cache)
        hit, got = TraceCache(tmp_path).get(get_workload("em3d", SIZE))
        assert hit
        assert pickle.dumps(got) == pickle.dumps(plain)
        workload = get_workload("em3d", SIZE)
        blob = cache.path(workload).read_bytes()
        assert blob_codec(blob) == "zlib"
        assert len(blob) < len(pickle.dumps(plain))

    def test_legacy_trace_entry_and_migrate(self, tmp_path):
        from repro._fsutil import atomic_write_bytes

        workload = get_workload("em3d", SIZE)
        raw = pickle.dumps(
            workload.build(), protocol=pickle.HIGHEST_PROTOCOL
        )
        cache = TraceCache(tmp_path, codec="zlib")
        atomic_write_bytes(cache.path(workload), raw)  # pre-codec
        hit, got = cache.get(workload)
        assert hit
        assert pickle.dumps(got, pickle.HIGHEST_PROTOCOL) == raw

        examined, changed, before, after = cache.migrate("zlib")
        assert (examined, changed) == (1, 1)
        assert after < before
        hit, got = TraceCache(tmp_path).get(workload)
        assert hit
        assert pickle.dumps(got, pickle.HIGHEST_PROTOCOL) == raw


def test_migrate_files_accounting(tmp_path):
    paths = []
    for i in range(3):
        path = tmp_path / f"{i}.bin"
        path.write_bytes(PAYLOAD)
        paths.append(path)
    examined, changed, before, after = migrate_files(paths, "zlib")
    assert (examined, changed) == (3, 3)
    assert before == 3 * len(PAYLOAD)
    assert after < before


def test_pool_worker_init_attaches_codec(tmp_path):
    from repro.runner import runner as runner_module

    runner_module._worker_init(str(tmp_path), "zlib")
    try:
        assert runner_module._TRACE_CACHE.codec.name == "zlib"
    finally:
        runner_module._swap_trace_cache(None)
