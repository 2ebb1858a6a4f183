"""Catalog of canonical circuits up to a T-count bound.

Canonical block strings are prefix-closed: a string of T-count t is one of
T-count t - 1 followed by one block, TH or (past t = 4) SHTH.  `build`
therefore makes the catalog layer by layer.  Right-multiplying by a fixed
block is linear in the 16 integer coefficients of the left factor, so a
layer is one 16x16 integer map per block applied to the rows of the
previous layer, followed by array versions of the sqrt(2) reduction, the
exact trace key and the quaternion.  Only the previous layer's
coefficients are held.

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
from itertools import repeat

import numpy as np

from .geometry import assign_bins
from .rewrite import unpack_bits
from .ring import SQRT2
from .unitary import GATES, ExactUnitary, su2_quaternion

MAGIC = b"QCAN"
VERSION = 2
DELTA_BUCKET = 1e-10
DEFAULT_MAX_TCOUNT = 24  # largest t_max built: 3.1-3.3 s, 346 MB max RSS on 2 cores
_AXIS_NORM_TOL = 1e-9
_CHUNK = 1 << 16  # parents per layer step
# child coefficients stay below this, so an int32 layer holds them and the
# int64 trace key, at most 16 of their squares, cannot overflow
_COEF_LIMIT = 1 << 29


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


def _block_maps() -> tuple[list[np.ndarray], np.ndarray]:
    """The 16x16 integer maps m -> m * block of TH and SHTH (held as float64
    for BLAS), and the blocks' k.

    Right-multiplying by a fixed block is linear in the left factor's 16
    coefficients: row i of a map is the product of the i-th unit basis
    matrix with the block, which must not reduce.
    """
    maps = []
    for block in _BLOCK:
        rows = []
        for i in range(16):
            p = ExactUnitary(tuple(int(i == j) for j in range(16)), 0) * block
            assert p.k == block.k, "a unit basis product lost a factor of sqrt(2)"
            rows.append(p.m)
        maps.append(np.array(rows, dtype=np.float64))
    return maps, np.array([block.k for block in _BLOCK])


def _children(m: np.ndarray, k: np.ndarray, maps: list[np.ndarray],
              ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows m / sqrt(2)^k times each block, reduced: row i's child by block j
    is row len(maps) i + j, as `ExactUnitary.__mul__` would give it.

    Raises OverflowError before a child coefficient could reach
    _COEF_LIMIT, so the int32 layers and the int64 trace keys hold.
    """
    # a float64 product is exact here (every sum stays below 2^53) and
    # runs in BLAS, which integer products do not
    mf = m.astype(np.float64)
    growth = max(np.abs(a).sum(axis=0).max() for a in maps)
    if len(m) and np.abs(mf).max() * growth >= _COEF_LIMIT:
        raise OverflowError("catalog coefficients would leave the int32 range")
    nb = len(maps)
    out = np.empty((len(m) * nb, 16), dtype=np.int32)
    for j, a in enumerate(maps):
        out[j::nb] = mf @ a
    kk = (k[:, None] + ks[:nb]).ravel()
    # mat_reduce: halve every row whose four entries all allow it, k > 0;
    # a row that cannot halve never can again
    e = out.reshape(-1, 4, 4)
    rows = np.flatnonzero(kk > 0)
    while len(rows):
        x = e[rows]
        ok = (((x[..., 0] ^ x[..., 2]) | (x[..., 1] ^ x[..., 3])) & 1 == 0).all(axis=1)
        rows, x = rows[ok], x[ok]
        a, b, c, d = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
        e[rows] = np.stack(((b - d) // 2, (a + c) // 2, (b + d) // 2, (c - a) // 2), axis=-1)
        kk[rows] -= 1
        rows = rows[kk[rows] > 0]
    return out, kk


def _sqrt2_powers(top: int) -> np.ndarray:
    # Python's float pow, as Real2 and to_matrix use it, not np.power
    return np.array([SQRT2 ** j for j in range(top + 1)])


def _describe(m: np.ndarray, k: np.ndarray):
    """Exact |trace|^2 keys (p, q, l) as Real2 reduces them, and the float
    |trace| and axis of each row, bit-equal to the per-entry evaluation
    `trace_abs_sq`, `to_matrix` and `su2_quaternion`."""
    tr = (m[:, 0:4] + m[:, 12:16]).astype(np.int64)
    a, b, c, d = tr.T
    p = a * a + b * b + c * c + d * d
    q = a * b + b * c + c * d - d * a
    l = 2 * k
    rows = np.flatnonzero((l > 0) & (p % 2 == 0))
    while len(rows):
        p[rows], q[rows] = q[rows], p[rows] // 2
        l[rows] -= 1
        rows = rows[(l[rows] > 0) & (p[rows] % 2 == 0)]
    l[(p == 0) & (q == 0)] = 0
    tsq = (p + q * SQRT2) / _sqrt2_powers(int(l.max()))[l]
    traces = np.sqrt(np.maximum(0.0, tsq))
    e = m.reshape(-1, 4, 4)
    a, b, c, d = e[..., 0], e[..., 1], e[..., 2], e[..., 3]
    s = _sqrt2_powers(int(k.max()))[k][:, None]
    mats = np.empty((len(m), 2, 2), dtype=np.complex128)
    mats.real = ((a + (b - d) / SQRT2) / s).reshape(-1, 2, 2)
    mats.imag = ((c + (b + d) / SQRT2) / s).reshape(-1, 2, 2)
    vec = su2_quaternion(mats)[:, 1:]
    # the per-entry v ** 2 is libm pow, which can differ from v * v by one ulp
    sq = np.fromiter(map(math.pow, vec.ravel().tolist(), repeat(2.0)), np.float64,
                     vec.size).reshape(-1, 3)
    axes = vec / np.sqrt(np.maximum(1e-300, sq[:, 0] + sq[:, 1] + sq[:, 2]))[:, None]
    # the identity level has no axis, only a placeholder
    axes[(p == 4) & (q == 0) & (l == 0)] = (0.0, 0.0, 1.0)
    return np.stack((p, q, l), axis=1), traces, axes


def build(t_max: int) -> Catalog:
    """Evaluate every canonical circuit exactly, layer by layer, and index it.

    Canonical block strings are prefix-closed, so layer t is layer t - 1
    right-multiplied by TH and, past t = 4, by SHTH, the new block's bit at
    position t - 1.  Each block is one 16x16 integer map of the parent's
    coefficients, so a layer is two integer matrix products over the rows of
    the previous one, then the sqrt(2) reduction, the trace keys and the
    quaternions as array operations, in chunks of parents.  Layers come out
    in (t_count, bit-value) order; buckets group entries by exact
    |trace|^2, keep that order inside each bucket and are sorted stably by
    |trace|.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max > DEFAULT_MAX_TCOUNT:
        raise ValueError(
            f"t_max {t_max} above the memory budget ({DEFAULT_MAX_TCOUNT})"
        )
    maps, ks = _block_maps()
    n = canonical_count(t_max)
    sizes = [canonical_count(t) - canonical_count(t - 1) for t in range(t_max + 1)]
    bits = np.zeros(n, dtype=np.uint32)
    traces = np.empty(n)
    axes = np.empty((n, 3))
    exact: dict[float, list] = {}  # |trace| -> its exact |trace|^2 key (p, q, l)

    def put(lo, m, k):
        keys, traces[lo:lo + len(m)], axes[lo:lo + len(m)] = _describe(m, k)
        # buckets are exact |trace|^2 values: one |trace| must have one
        uniq, first, inv = np.unique(traces[lo:lo + len(m)], return_index=True,
                                     return_inverse=True)
        clash = not (keys[first][inv] == keys).all()
        for x, key in zip(uniq.tolist(), keys[first].tolist()):
            clash = clash or exact.setdefault(x, key) != key
        if clash:
            raise CatalogError("bucket keys closer than the bucket tolerance")

    layer = (np.array([GATES["I"].m], dtype=np.int32), np.zeros(1, dtype=np.int64))
    put(0, *layer)
    prev, lo = 0, 1  # first entries of layers t - 1 and t
    for t in range(1, t_max + 1):
        nb = 2 if t > 4 else 1
        parents, pk = layer
        held = t < t_max  # the last layer is never held whole
        if held:
            layer = (np.empty((len(parents) * nb, 16), dtype=np.int32),
                     np.empty(len(parents) * nb, dtype=np.int64))
        new_bits = np.arange(nb, dtype=np.uint32) << (t - 1)
        for s in range(0, len(parents), _CHUNK):
            m, k = _children(parents[s:s + _CHUNK], pk[s:s + _CHUNK], maps[:nb], ks)
            par = bits[prev + s:prev + s + len(m) // nb]
            c = s * nb  # the chunk's first child within layer t
            bits[lo + c:lo + c + len(m)] = (par[:, None] | new_bits).ravel()
            put(lo + c, m, k)
            if held:
                layer[0][c:c + len(m)] = m
                layer[1][c:c + len(m)] = k
        prev, lo = lo, lo + len(parents) * nb
    perm = np.argsort(traces, kind="stable")
    traces = traces[perm]
    starts = np.flatnonzero(np.diff(traces, prepend=-1.0, append=3.0))
    return Catalog(
        t_max,
        keys=traces[starts[:-1]],
        starts=starts,
        t=np.repeat(np.arange(t_max + 1, dtype=np.uint8), sizes)[perm],
        bits=bits[perm],
        traces=traces,
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
