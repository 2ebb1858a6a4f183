import hashlib
import struct
import time
import zlib

import numpy as np
import pytest

from qcanon.catalog import (_COEF_LIMIT, DEFAULT_MAX_TCOUNT, DELTA_BUCKET, CatalogError,
                            _block_maps, _children, build, canonical_count,
                            enumerate_canonical, load, save)
from qcanon.rewrite import blocks_tokens, is_canonical_bits, tokens_to_unitary
from qcanon.unitary import su2_quaternion


# -- counting and enumeration -------------------------------------------------

def test_canonical_count_closed_form():
    assert [canonical_count(t) for t in range(-1, 9)] == [
        0, 1, 2, 3, 4, 5, 7, 11, 19, 35]


@pytest.mark.parametrize("t_max", range(0, 9))
def test_enumerate_matches_count(t_max):
    got = list(enumerate_canonical(t_max))
    assert len(got) == canonical_count(t_max)
    assert len(set(got)) == len(got)


def test_enumerate_order_and_shape():
    rows = list(enumerate_canonical(8))
    prev = (-1, -1)
    for bits in rows:
        assert is_canonical_bits(bits)
        val = int("".join(map(str, bits)), 2) if bits else 0
        key = (len(bits), val)
        assert key > prev
        prev = key


def test_enumerate_small_cases():
    assert list(enumerate_canonical(0)) == [()]
    assert list(enumerate_canonical(4)) == [
        (), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)]
    assert list(enumerate_canonical(5))[-2:] == [
        (0, 0, 0, 0, 0), (0, 0, 0, 0, 1)]


# -- build invariants ----------------------------------------------------------

def test_build_entry_count_matches_closed_form(db12):
    assert db12.entry_count() == canonical_count(12)
    assert db12.max_tcount == 12


def test_bucket_keys_sorted_and_separated(db12):
    keys = db12.keys
    assert np.all(np.diff(keys) > 2 * DELTA_BUCKET)
    bucket_key = np.repeat(keys, np.diff(db12.starts))
    assert np.all(np.abs(db12.traces - bucket_key) < DELTA_BUCKET)
    assert np.all((0.0 <= keys) & (keys <= 2.0 + 1e-12))


def test_bucket_entries_reevaluate_exactly(db12):
    # trace and axis stored per entry must match exact re-evaluation
    rng = np.random.default_rng(5)
    for bi in rng.choice(len(db12.keys), size=12, replace=False):
        s, e = db12.starts[bi], db12.starts[bi + 1]
        i = int(s + rng.integers(e - s))
        bits = db12.entry_bits(i)
        u = tokens_to_unitary(blocks_tokens(bits))
        assert abs(float(u.trace_abs_sq()) - db12.keys[bi] ** 2) < 4 * DELTA_BUCKET
        assert len(bits) == int(db12.t[i])
        assert is_canonical_bits(bits)


def test_buckets_are_tcount_homogeneous(db12):
    lo = db12.starts[:-1]
    assert np.array_equal(np.minimum.reduceat(db12.t, lo),
                          np.maximum.reduceat(db12.t, lo))


def test_distinct_traces_cap(db12):
    total = db12.distinct_traces()
    assert total == len(db12.keys)
    assert db12.distinct_traces(4) < total
    assert db12.distinct_traces(12) == total


def test_window_brackets_keys(db12):
    mid = db12.keys[len(db12.keys) // 2]
    w = db12.window(mid, 0.05)
    assert all(abs(db12.keys[i] - mid) < 0.05 + 1e-15 for i in w)
    below = [i for i in range(len(db12.keys)) if i not in w]
    assert all(abs(db12.keys[i] - mid) >= 0.05 - 1e-15 for i in below)


def test_identity_bucket_exists(db12):
    assert np.any(db12.keys >= 2.0 - DELTA_BUCKET)


def test_build_matches_per_entry_oracle(db12):
    # every entry against its own exact product, in enumeration order
    order = {bits: i for i, bits in enumerate(enumerate_canonical(12))}
    seen = []
    for b in range(len(db12.keys)):
        ids = range(int(db12.starts[b]), int(db12.starts[b + 1]))
        bits = [db12.entry_bits(i) for i in ids]
        pos = [order[x] for x in bits]
        assert pos == sorted(pos)
        seen += pos
        units = [tokens_to_unitary(blocks_tokens(x)) for x in bits]
        assert len({u.trace_abs_sq().key() for u in units}) == 1
        for i, x, u in zip(ids, bits, units):
            assert len(x) == db12.t[i]
            if db12.keys[b] >= 2.0 - DELTA_BUCKET:
                # the identity level has no axis, only a placeholder
                assert tuple(db12.axes[i]) == (0.0, 0.0, 1.0)
                continue
            v = su2_quaternion(u.to_matrix())[1:]
            assert np.abs(db12.axes[i] - v / np.linalg.norm(v)).max() <= 1e-15
    assert sorted(seen) == list(range(canonical_count(12)))


def test_build_bytes_pinned(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(12), p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "1fbbf89488d6399a15e0873e8849e58264e9e05c020aaa42dd01ab03dd01dd9b")


def test_build_bytes_pinned_t18(tmp_path):
    # the digest of the same file built one ExactUnitary product per entry
    p = tmp_path / "c.qcat"
    save(build(18), p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "8e61d6847c11f6de6bdfcea2712cd828de4d80393171b05d7ad62450a1aab95c")


def test_layer_step_refuses_coefficients_that_could_overflow():
    maps, ks = _block_maps()
    growth = max(int(np.abs(a).sum(axis=0).max()) for a in maps)
    top = (_COEF_LIMIT - 1) // growth
    k = np.zeros(1, dtype=np.int64)
    m, _ = _children(np.full((1, 16), top, dtype=np.int32), k, maps, ks)
    assert np.abs(m.astype(np.int64)).max() < _COEF_LIMIT
    for big in (top + 1, -(top + 1)):
        with pytest.raises(OverflowError, match="int32"):
            _children(np.full((1, 16), big, dtype=np.int32), k, maps, ks)


def test_build_rejects_tmax_above_default_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="memory budget"):
        build(DEFAULT_MAX_TCOUNT + 1)
    assert time.perf_counter() - start < 1.0  # a build would take minutes


# -- serialization ---------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    cat = build(8)
    p = tmp_path / "c.qcat"
    save(cat, p)
    back = load(p)
    assert back.max_tcount == cat.max_tcount
    assert back.entry_count() == cat.entry_count()
    assert np.array_equal(back.keys, cat.keys)
    for column in ("starts", "t", "bits", "traces", "axes"):
        assert np.array_equal(getattr(back, column), getattr(cat, column))
    p2 = tmp_path / "c2.qcat"
    save(back, p2)
    assert p.read_bytes() == p2.read_bytes()


# v2 layout: a 24-byte header (magic, version u32 at 4, t_max u32 at 8,
# bucket count u32 at 12, entry count u64 at 16), then keys f8[nb],
# starts i8[nb + 1], traces f8[n], axes f8[n, 3], bits u4[n], t u1[n],
# then a CRC-32 of everything before it.
_HEADER = 24


def _resign(blob: bytes) -> bytes:
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def _counts(blob) -> tuple[int, int]:
    nb, = struct.unpack_from("<I", blob, 12)
    n, = struct.unpack_from("<Q", blob, 16)
    return nb, n


def _starts_offset(blob) -> int:
    return _HEADER + 8 * _counts(blob)[0]


def _first_trace_offset(blob) -> int:
    """File offset of the first entry's stored trace."""
    return _starts_offset(blob) + 8 * (_counts(blob)[0] + 1)


def _first_axis_offset(blob) -> int:
    return _first_trace_offset(blob) + 8 * _counts(blob)[1]


def test_load_rejects_corruption(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(5), p)
    blob = bytearray(p.read_bytes())
    blob[40] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(CatalogError, match="checksum mismatch"):
        load(p)


def test_load_rejects_truncation(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(5), p)
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CatalogError):
        load(p)
    p.write_bytes(blob[:10])
    with pytest.raises(CatalogError, match="file too short"):
        load(p)


def test_load_rejects_empty_catalog(tmp_path):
    p = tmp_path / "c.qcat"
    header = b"QCAN" + struct.pack("<IIIQ", 2, 4, 0, 0)
    p.write_bytes(_resign(header + struct.pack("<q", 0) + bytes(4)))
    with pytest.raises(CatalogError, match="no entries"):
        load(p)


def test_load_rejects_bad_magic_even_with_valid_crc(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(4), p)
    blob = bytearray(p.read_bytes())
    blob[:4] = b"NOPE"
    p.write_bytes(_resign(bytes(blob)))
    with pytest.raises(CatalogError, match="bad magic"):
        load(p)


def test_load_rejects_unknown_version(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(4), p)
    blob = bytearray(p.read_bytes())
    struct.pack_into("<I", blob, 4, 99)
    p.write_bytes(_resign(bytes(blob)))
    with pytest.raises(CatalogError, match="unsupported version"):
        load(p)


def test_load_rejects_version_1_asking_for_a_rebuild(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(4), p)
    blob = bytearray(p.read_bytes())
    struct.pack_into("<I", blob, 4, 1)
    p.write_bytes(_resign(bytes(blob)))
    with pytest.raises(CatalogError, match="version 1.*rebuild"):
        load(p)
    # a real v1 file ends in a CRC-64; the version is read before any checksum
    p.write_bytes(b"QCAN" + struct.pack("<II", 1, 4) + bytes(40) + bytes(8))
    with pytest.raises(CatalogError, match="version 1.*rebuild"):
        load(p)


def test_load_rejects_entry_past_declared_tmax(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(4), p)
    blob = bytearray(p.read_bytes())
    struct.pack_into("<I", blob, 8, 1)  # claim t_max = 1; entries go to 4
    p.write_bytes(_resign(bytes(blob)))
    with pytest.raises(CatalogError, match="exceeds catalog t_max"):
        load(p)


def test_load_rejects_bits_past_the_tcount(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(6), p)
    blob = bytearray(p.read_bytes())
    nb, n = _counts(blob)
    off = _first_axis_offset(blob) + 24 * n + 4 * (n - 1)  # last entry's bits
    bits, = struct.unpack_from("<I", blob, off)
    struct.pack_into("<I", blob, off, bits | 1 << 30)
    p.write_bytes(_resign(bytes(blob)))
    with pytest.raises(CatalogError, match="bits set beyond"):
        load(p)


def test_load_rejects_counts_disagreeing_with_length(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(5), p)
    blob = bytearray(p.read_bytes())
    nb, n = _counts(blob)
    for offset, fmt, value in ((12, "<I", nb + 1), (16, "<Q", n - 1), (16, "<Q", 2 ** 62)):
        bad = bytearray(blob)
        struct.pack_into(fmt, bad, offset, value)
        p.write_bytes(_resign(bytes(bad)))
        with pytest.raises(CatalogError, match="disagree with the file length"):
            load(p)


@pytest.mark.parametrize("where", ["first", "last", "empty_bucket"])
def test_load_rejects_bad_bucket_starts(tmp_path, where):
    p = tmp_path / "c.qcat"
    save(build(5), p)
    blob = bytearray(p.read_bytes())
    nb, n = _counts(blob)
    off = _starts_offset(blob)
    starts = list(struct.unpack_from(f"<{nb + 1}q", blob, off))
    if where == "first":
        starts[0] = 1
    elif where == "last":
        starts[-1] = n - 1
    else:
        starts[2] = starts[1]
    struct.pack_into(f"<{nb + 1}q", blob, off, *starts)
    p.write_bytes(_resign(bytes(blob)))
    with pytest.raises(CatalogError, match="bucket starts"):
        load(p)


def test_load_rejects_trace_off_its_bucket_key(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(5), p)
    blob = bytearray(p.read_bytes())
    off = _first_trace_offset(blob)
    trace, = struct.unpack_from("<d", blob, off)
    struct.pack_into("<d", blob, off, trace + 1e-6)
    p.write_bytes(_resign(bytes(blob)))
    with pytest.raises(CatalogError, match="stored trace"):
        load(p)


def test_load_rejects_non_unit_axis(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(5), p)
    blob = bytearray(p.read_bytes())
    struct.pack_into("<3d", blob, _first_axis_offset(blob), 1.0, 1.0, 0.0)
    p.write_bytes(_resign(bytes(blob)))
    with pytest.raises(CatalogError, match="unit vector"):
        load(p)


def test_load_rejects_tmax_above_supported(tmp_path):
    p = tmp_path / "c.qcat"
    save(build(4), p)
    blob = bytearray(p.read_bytes())
    struct.pack_into("<I", blob, 8, 27)
    p.write_bytes(_resign(bytes(blob)))
    with pytest.raises(CatalogError, match="above the supported"):
        load(p)


def test_catalog_error_is_value_error():
    assert issubclass(CatalogError, ValueError)
