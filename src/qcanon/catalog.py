"""Catalog of canonical circuits up to a T-count bound.

The catalog is one set of entry columns in bucket order.  A bucket holds
every entry of one exact |trace|^2 ring value; buckets are sorted by their
double |trace| key, and bucket b owns entries starts[b]:starts[b + 1].
Per entry there is the T-count, the packed block bits, the stored |trace|,
the rotation axis, the search's c1 = key / 2 and s1 = sqrt(1 - c1^2), and
the axis's containing tile, nearest boundary arc and nearest corner, all
three from one `assign_bins` call over every axis.  The file format is a
flat little-endian dump, bucket by bucket, with a trailing CRC-64 so
truncation and bit rot are detected on load; stored traces must also lie
within the bucket tolerance of their key, and stored axes must be unit.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import assign_bins
from .rewrite import pack_bits, unpack_bits
from .ring import Real2
from .unitary import ExactUnitary, GATES, su2_quaternion

MAGIC = b"QCAN"
VERSION = 1
DELTA_BUCKET = 1e-10
DEFAULT_MAX_TCOUNT = 26
_AXIS_NORM_TOL = 1e-9

_FOUR = Real2.from_int(4)


class CatalogError(ValueError):
    pass


def canonical_count(t_max: int) -> int:
    """Number of canonical circuits with T-count <= t_max (closed form)."""
    if t_max < 0:
        return 0
    if t_max < 4:
        return t_max + 1
    return 2 ** (t_max - 3) + 3


def enumerate_canonical(t_max: int):
    """Yield canonical block strings with T-count <= t_max.

    Order is (t_count, bit-value) with the first free bit (the fifth
    syllable) most significant.  Iterative except for trivially bounded
    recursion over free bits.
    """
    if t_max < 0:
        return
    for t in range(0, min(t_max, 3) + 1):
        yield (0,) * t
    for t in range(4, t_max + 1):
        base = (0, 0, 0, 0)
        free = t - 4
        for v in range(1 << free):
            # MSB of v is the fifth syllable
            yield base + tuple((v >> (free - 1 - i)) & 1 for i in range(free))


_TH = GATES["T"] * GATES["H"]
_SHTH = GATES["S"] * GATES["H"] * _TH
_BLOCK = (_TH, _SHTH)


def _iter_exact(t: int, prefix_u: ExactUnitary, free: int):
    """DFS over free suffix bits, yielding (suffix_bits, product) in lex order."""
    if free == 0:
        yield (), prefix_u
        return
    for b in (0, 1):
        for suffix, u in _iter_exact(t, prefix_u * _BLOCK[b], free - 1):
            yield (b,) + suffix, u


def _entry_of(bits: tuple[int, ...], u: ExactUnitary):
    tsq = u.trace_abs_sq()
    trace = math.sqrt(max(0.0, float(tsq)))
    if tsq == _FOUR:
        axis = (0.0, 0.0, 1.0)  # placeholder; the identity level has no axis
    else:
        q = su2_quaternion(u.to_matrix())
        s = math.sqrt(max(1e-300, float(q[1] ** 2 + q[2] ** 2 + q[3] ** 2)))
        axis = (q[1] / s, q[2] / s, q[3] / s)
    return tsq.key(), trace, axis


def _entries_for_prefix(args):
    """Worker task: all entries below one (t, fixed-prefix) subtree."""
    t, head_bits = args
    u = GATES["I"]
    for b in head_bits:
        u = u * _BLOCK[b]
    out = []
    for suffix, prod in _iter_exact(t, u, t - len(head_bits)):
        bits = head_bits + suffix
        key, trace, axis = _entry_of(bits, prod)
        out.append((t, bits, key, trace, axis))
    return out


class Catalog:
    """Immutable entry columns, grouped into buckets sorted by trace key.

    keys[b] is the |trace| of bucket b and starts[b]:starts[b + 1] its
    entries.  Entry columns: t (T-count), bits (the packed block bits of
    the file format read as a little-endian integer), traces, axes (n, 3),
    c1 and s1 (the cosine and sine of the half rotation angle, from the
    bucket key), and face/edge/vert (containing tile, nearest arc, nearest
    corner of the axis).
    """

    def __init__(self, max_tcount: int, keys: np.ndarray, starts: np.ndarray,
                 t: np.ndarray, bits: np.ndarray, traces: np.ndarray,
                 axes: np.ndarray):
        self.max_tcount = max_tcount
        self.keys = keys
        self.starts = starts
        self.t = t
        self.bits = bits
        self.traces = traces
        self.axes = axes
        if len(keys) > 1:
            gaps = np.diff(keys)
            if not (gaps > 2 * DELTA_BUCKET).all():
                raise CatalogError("bucket keys closer than the bucket tolerance")
        sizes = np.diff(starts)
        if not (np.abs(traces - np.repeat(keys, sizes)) < DELTA_BUCKET).all():
            raise CatalogError("stored trace farther than the bucket tolerance from its key")
        if not (np.abs(np.linalg.norm(axes, axis=1) - 1.0) <= _AXIS_NORM_TOL).all():
            raise CatalogError("stored axis is not a unit vector")
        self.c1 = np.repeat(keys / 2.0, sizes)
        self.s1 = np.sqrt(np.maximum(0.0, 1.0 - self.c1 * self.c1))
        self.face, self.edge, self.vert = assign_bins(axes)

    def entry_count(self) -> int:
        return len(self.t)

    def entry_bits(self, i: int) -> tuple[int, ...]:
        t = int(self.t[i])
        return unpack_bits(int(self.bits[i]).to_bytes((t + 7) // 8, "little"), t)

    def distinct_traces(self, t_cap: int | None = None) -> int:
        if t_cap is None:
            return len(self.keys)
        bucket_of = np.repeat(np.arange(len(self.keys)), np.diff(self.starts))
        return len(np.unique(bucket_of[self.t <= t_cap]))

    def window(self, trace: float, radius: float) -> range:
        """Bucket index range with |key - trace| < radius."""
        lo = int(np.searchsorted(self.keys, trace - radius, side="left"))
        hi = int(np.searchsorted(self.keys, trace + radius, side="right"))
        return range(lo, hi)


def build(t_max: int, workers: int = 1) -> Catalog:
    """Enumerate, evaluate exactly, and index every canonical circuit.

    Deterministic for any worker count: entries are merged in
    (t_count, bit-value) order before bucketing.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max > DEFAULT_MAX_TCOUNT:
        raise ValueError(
            f"t_max {t_max} above the memory budget ({DEFAULT_MAX_TCOUNT})"
        )
    rows = []
    small, jobs = [], []
    for t in range(0, min(t_max, 4) + 1):
        small.append((t, (0,) * t))
    split = max(0, min(4, t_max - 12)) if workers > 1 else 0
    for t in range(5, t_max + 1):
        free = t - 4
        head = min(split, free)
        for v in range(1 << head):
            prefix = (0, 0, 0, 0) + tuple((v >> (head - 1 - i)) & 1 for i in range(head))
            jobs.append((t, prefix))
    if workers > 1 and jobs:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_entries_for_prefix, jobs, chunksize=4):
                rows.extend(chunk)
    else:
        for job in jobs:
            rows.extend(_entries_for_prefix(job))
    for job in small:
        rows.extend(_entries_for_prefix(job))
    rows.sort(key=lambda r: (r[0], r[1]))
    return _bucketize(rows, t_max)


def _bucketize(rows, t_max: int) -> Catalog:
    by_class: dict[tuple, list] = {}
    for row in rows:
        by_class.setdefault(row[2], []).append(row)
    classes = sorted(by_class.values(), key=lambda cls: cls[0][3])
    entries = [r for cls in classes for r in cls]
    return Catalog(
        t_max,
        keys=np.array([cls[0][3] for cls in classes]),
        starts=np.cumsum([0] + [len(cls) for cls in classes]),
        t=np.array([r[0] for r in entries], dtype=np.uint8),
        bits=np.array([int.from_bytes(pack_bits(r[1]), "little") for r in entries],
                      dtype=np.uint32),
        traces=np.array([r[3] for r in entries]),
        axes=np.array([r[4] for r in entries]).reshape(-1, 3),
    )


# CRC-64/XZ: reflected 0x42F0E1EBA9EA3693, init and xorout all-ones.
_CRC_TABLE = []
for _b in range(256):
    _c = _b
    for _ in range(8):
        _c = (_c >> 1) ^ 0xC96C5795D7870F42 if _c & 1 else _c >> 1
    _CRC_TABLE.append(_c)


def crc64(data: bytes, crc: int = 0) -> int:
    crc ^= 0xFFFFFFFFFFFFFFFF
    for byte in data:
        crc = _CRC_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


if crc64(b"123456789") != 0x995DC9BBDF1939FA:
    raise AssertionError("CRC-64 self-check failed")


# An entry record is its T-count byte, ceil(t / 8) bytes of packed block
# bits, then the trace and the three axis coordinates as doubles.
_FLOAT_BYTES = 32


def save(cat: Catalog, path) -> None:
    parts = [MAGIC, struct.pack("<II", VERSION, cat.max_tcount)]
    floats = np.column_stack([cat.traces, cat.axes]).astype("<f8").tobytes()
    ts, bits, starts = cat.t.tolist(), cat.bits.tolist(), cat.starts.tolist()
    for b, key in enumerate(cat.keys.tolist()):
        s, e = starts[b], starts[b + 1]
        parts.append(struct.pack("<dQ", key, e - s))
        for i in range(s, e):
            t = ts[i]
            parts.append(bytes((t,)))
            parts.append(bits[i].to_bytes((t + 7) // 8, "little"))
            parts.append(floats[_FLOAT_BYTES * i:_FLOAT_BYTES * (i + 1)])
    blob = b"".join(parts)
    blob += struct.pack("<Q", crc64(blob))
    with open(path, "wb") as f:
        f.write(blob)


def load(path) -> Catalog:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 20:
        raise CatalogError("file too short")
    stored, = struct.unpack_from("<Q", blob, len(blob) - 8)
    if crc64(blob[:-8]) != stored:
        raise CatalogError("checksum mismatch")
    if blob[:4] != MAGIC:
        raise CatalogError("bad magic")
    version, t_max = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise CatalogError(f"unsupported version {version}")
    if t_max > DEFAULT_MAX_TCOUNT:
        raise CatalogError(f"t_max {t_max} above the supported {DEFAULT_MAX_TCOUNT}")
    # one pass finds where each entry record starts; the columns are then
    # gathered from the whole file at once
    off, end = 12, len(blob) - 8
    keys, starts, recs = [], [0], []
    while off < end:
        if off + 16 > end:
            raise CatalogError("truncated bucket header")
        key, count = struct.unpack_from("<dQ", blob, off)
        off += 16
        for _ in range(count):
            if off >= end:
                raise CatalogError("truncated entry")
            recs.append(off)
            off += 1 + (blob[off] + 7) // 8 + _FLOAT_BYTES
            if off > end:
                raise CatalogError("truncated entry")
        keys.append(key)
        starts.append(len(recs))
    if not recs:
        raise CatalogError("catalog holds no entries")
    buf = np.frombuffer(blob, dtype=np.uint8)
    pos = np.array(recs, dtype=np.int64)
    t = buf[pos]
    if (t > t_max).any():
        raise CatalogError("entry exceeds catalog t_max")
    nbytes = (t.astype(np.int64) + 7) // 8
    # t <= 26 keeps the packed bits within the 4 bytes after the T-count
    head = sliding_window_view(buf, 4)[pos + 1].astype(np.uint32)
    head[np.arange(4) >= nbytes[:, None]] = 0
    bits = (head << np.uint32([0, 8, 16, 24])).sum(axis=1, dtype=np.uint32)
    floats = sliding_window_view(buf, _FLOAT_BYTES)[pos + 1 + nbytes].view("<f8")
    return Catalog(
        t_max,
        keys=np.array(keys),
        starts=np.array(starts, dtype=np.int64),
        t=t,
        bits=bits,
        traces=np.ascontiguousarray(floats[:, 0], dtype=np.float64),
        axes=np.ascontiguousarray(floats[:, 1:], dtype=np.float64),
    )
