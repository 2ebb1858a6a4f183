"""Catalog of canonical circuits up to a T-count bound.

Canonical block strings are prefix-closed: a string of T-count t is one of
T-count t - 1 followed by one block, TH or (past t = 4) SHTH.  `build`
therefore makes the catalog layer by layer, each entry one exact product
of its parent's unitary with its last block, and holds only the previous
layer's unitaries.

The catalog is one set of entry columns in bucket order.  A bucket holds
every entry of one exact |trace|^2 ring value; buckets are sorted by their
double |trace| key, and bucket b owns entries starts[b]:starts[b + 1].
Per entry there is the T-count, the packed block bits, the stored |trace|,
the rotation axis, the search's c1 = key / 2 and s1 = sqrt(1 - c1^2), and
the axis's fold (its sorted absolute coordinates, from one `assign_bins`
call over every axis), which bounds the search's overlaps.

The file (format version 2) is these columns themselves: a 24-byte
little-endian header (magic, version, t_max, bucket count, entry count),
then keys f8[nb], starts i8[nb + 1], traces f8[n], axes f8[n, 3], bits
u4[n] and t u1[n] as raw little-endian arrays, then a CRC-32 (zlib) of all
bytes before it, so truncation and bit rot are detected on load.  `load`
also checks that the counts give the file's length, that starts rises
strictly from 0 to n, that no T-count exceeds t_max and that no entry has
block bits set at or past its T-count; stored traces
must lie within the bucket tolerance of their key, and stored axes must be
unit.  Version 1 files (a per-record dump) are refused: rebuild them.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .geometry import assign_bins
from .rewrite import unpack_bits
from .ring import Real2
from .unitary import GATES, su2_quaternion

MAGIC = b"QCAN"
VERSION = 2
DELTA_BUCKET = 1e-10
DEFAULT_MAX_TCOUNT = 24  # largest t_max built: 66-69 s, 458 MB max RSS on 2 cores
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


class Catalog:
    """Immutable entry columns, grouped into buckets sorted by trace key.

    keys[b] is the |trace| of bucket b and starts[b]:starts[b + 1] its
    entries.  Entry columns: t (T-count), bits (the block bits as packed
    by `pack_bits`, read as a little-endian integer), traces, axes (n, 3),
    c1 and s1 (the cosine and sine of the half rotation angle, from the
    bucket key), and fold (n, 3), the axis's sorted absolute coordinates.
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
        self.fold = assign_bins(axes)

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


def build(t_max: int) -> Catalog:
    """Evaluate every canonical circuit exactly, layer by layer, and index it.

    Canonical block strings are prefix-closed, so layer t is layer t - 1
    right-multiplied by TH and, past t = 4, by SHTH: one exact product per
    entry, the new block's bit at position t - 1.  Layers come out in
    (t_count, bit-value) order; buckets group entries by exact |trace|^2,
    keep that order inside each bucket and are sorted stably by |trace|.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max > DEFAULT_MAX_TCOUNT:
        raise ValueError(
            f"t_max {t_max} above the memory budget ({DEFAULT_MAX_TCOUNT})"
        )
    n = canonical_count(t_max)
    sizes = [canonical_count(t) - canonical_count(t - 1) for t in range(t_max + 1)]
    bits = np.empty(n, dtype=np.uint32)
    traces = np.empty(n)
    axes = np.empty((n, 3))
    bucket_of = np.empty(n, dtype=np.intp)
    index: dict[tuple, int] = {}  # exact key -> bucket, in first-seen order
    firsts = []  # each bucket's |trace| key
    layer, i = [(0, GATES["I"])], 0
    for t in range(t_max + 1):
        if t:
            blocks = tuple(enumerate(_BLOCK if t > 4 else _BLOCK[:1]))
            step = ((v | b << (t - 1), u * block) for v, u in layer for b, block in blocks)
            # the last layer is walked once and never held
            layer = step if t == t_max else list(step)
        for v, u in layer:
            tsq = u.trace_abs_sq()
            trace = math.sqrt(max(0.0, float(tsq)))
            if tsq == _FOUR:
                axes[i] = (0.0, 0.0, 1.0)  # placeholder; the identity level has no axis
            else:
                q = su2_quaternion(u.to_matrix())
                s = math.sqrt(max(1e-300, float(q[1] ** 2 + q[2] ** 2 + q[3] ** 2)))
                axes[i] = (q[1] / s, q[2] / s, q[3] / s)
            k = index.setdefault(tsq.key(), len(firsts))
            if k == len(firsts):
                firsts.append(trace)
            bits[i], traces[i], bucket_of[i] = v, trace, k
            i += 1
    # two exact keys on one float key leave equal adjacent bucket keys,
    # which Catalog rejects
    keys = np.asarray(firsts)
    order = np.argsort(keys, kind="stable")
    perm = np.argsort(keys[bucket_of], kind="stable")
    return Catalog(
        t_max,
        keys=keys[order],
        starts=np.concatenate(([0], np.cumsum(np.bincount(bucket_of)[order]))),
        t=np.repeat(np.arange(t_max + 1, dtype=np.uint8), sizes)[perm],
        bits=bits[perm],
        traces=traces[perm],
        axes=axes[perm],
    )


# File format v2 (see the module docstring); the 8-byte columns lead, so
# each sits 8-byte aligned after the 24-byte header.
_HEADER = struct.Struct("<4sIIIQ")  # magic, version, t_max, buckets, entries
_CRC = struct.Struct("<I")


def _layout(nb: int, n: int):
    """(column, dtype, shape) of each array, in file order."""
    return (("keys", "<f8", (nb,)), ("starts", "<i8", (nb + 1,)),
            ("traces", "<f8", (n,)), ("axes", "<f8", (n, 3)),
            ("bits", "<u4", (n,)), ("t", "u1", (n,)))


def save(cat: Catalog, path) -> None:
    nb, n = len(cat.keys), cat.entry_count()
    blob = _HEADER.pack(MAGIC, VERSION, cat.max_tcount, nb, n)
    blob += b"".join(np.ascontiguousarray(getattr(cat, name), dtype).tobytes()
                     for name, dtype, _ in _layout(nb, n))
    blob += _CRC.pack(zlib.crc32(blob))
    with open(path, "wb") as f:
        f.write(blob)


def load(path) -> Catalog:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size + _CRC.size:
        raise CatalogError("file too short")
    magic, version, t_max, nb, n = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CatalogError("bad magic")
    # before the checksum, which an older format computes differently
    if version != VERSION:
        raise CatalogError(f"unsupported version {version}; catalogs are derived "
                           f"data, rebuild this one with `qcanon build-db`")
    stored, = _CRC.unpack_from(blob, len(blob) - _CRC.size)
    if zlib.crc32(memoryview(blob)[:-_CRC.size]) != stored:
        raise CatalogError("checksum mismatch")
    if t_max > DEFAULT_MAX_TCOUNT:
        raise CatalogError(f"t_max {t_max} above the supported {DEFAULT_MAX_TCOUNT}")
    layout = _layout(nb, n)
    size = sum(np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in layout)
    if _HEADER.size + size + _CRC.size != len(blob):
        raise CatalogError("header counts disagree with the file length")
    if n == 0:
        raise CatalogError("catalog holds no entries")
    cols, off = {}, _HEADER.size
    for name, dtype, shape in layout:
        cols[name] = np.frombuffer(blob, dtype, math.prod(shape), off).reshape(shape)
        off += cols[name].nbytes
    starts = cols["starts"]
    if starts[0] != 0 or starts[-1] != n or not (np.diff(starts) > 0).all():
        raise CatalogError("bucket starts do not rise strictly from 0 to the entry count")
    if (cols["t"] > t_max).any():
        raise CatalogError("entry exceeds catalog t_max")
    if (cols["bits"] >> cols["t"]).any():
        raise CatalogError("entry bits set beyond its T-count")
    return Catalog(t_max, **cols)
