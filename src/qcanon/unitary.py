"""Exact 2x2 unitaries with entries in Z[w] / sqrt(2)^k.

A matrix is a flat 16-tuple of ints (four entries e00, e01, e10, e11, each
four coefficients of 1, w, w^2, w^3) plus one shared exponent k.  The flat
form keeps gate composition cheap; ExactUnitary is a thin wrapper around
it.  Phases: two matrices describe the same PSU(2) element iff they differ
by a unit w^j of the ring, so the canonical key minimises over the eight
rotations.
"""

from __future__ import annotations

import numpy as np

from .ring import Real2, SQRT2, can_halve, halve, scalar_abs_sq

Mat = tuple[int, ...]  # length 16

_ENTRY_OFFSETS = (0, 4, 8, 12)

IDENTITY_MAT: Mat = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)


def _mul4(a0, a1, a2, a3, b0, b1, b2, b3):
    # product of two ring scalars, coefficient convolution with w^4 = -1
    return (
        a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
        a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
    )


def mat_mul(u: Mat, v: Mat) -> Mat:
    out = []
    for i in (0, 8):
        for j in (0, 4):
            p = _mul4(u[i], u[i + 1], u[i + 2], u[i + 3],
                      v[j], v[j + 1], v[j + 2], v[j + 3])
            q = _mul4(u[i + 4], u[i + 5], u[i + 6], u[i + 7],
                      v[j + 8], v[j + 9], v[j + 10], v[j + 11])
            out.append(p[0] + q[0])
            out.append(p[1] + q[1])
            out.append(p[2] + q[2])
            out.append(p[3] + q[3])
    return tuple(out)


def mat_reduce(m: Mat, k: int) -> tuple[Mat, int]:
    """Cancel common factors of sqrt(2); all four entries must allow it."""
    while k > 0 and all(
        can_halve(m[t], m[t + 1], m[t + 2], m[t + 3]) for t in _ENTRY_OFFSETS
    ):
        out = []
        for t in _ENTRY_OFFSETS:
            out.extend(halve(m[t], m[t + 1], m[t + 2], m[t + 3]))
        m = tuple(out)
        k -= 1
    return m, k


def mat_adjoint(m: Mat) -> Mat:
    # transpose then conjugate each entry: (a, b, c, d) -> (a, -d, -c, -b)
    def cj(t):
        return m[t], -m[t + 3], -m[t + 2], -m[t + 1]

    return cj(0) + cj(8) + cj(4) + cj(12)


def mat_omega(m: Mat) -> Mat:
    out = []
    for t in _ENTRY_OFFSETS:
        out.extend((-m[t + 3], m[t], m[t + 1], m[t + 2]))
    return tuple(out)


def psu2_key(m: Mat, k: int) -> tuple:
    """Canonical form under global unit phases w^j; total order on PSU(2)."""
    best = m
    cur = m
    for _ in range(7):
        cur = mat_omega(cur)
        if cur < best:
            best = cur
    return best + (k,)


def frob_inner(u: Mat, v: Mat) -> tuple[int, int, int, int]:
    """Coefficients of tr(U V-adjoint) = sum_ij u_ij * conj(v_ij)."""
    a = b = c = d = 0
    for t in _ENTRY_OFFSETS:
        p = _mul4(u[t], u[t + 1], u[t + 2], u[t + 3],
                  v[t], -v[t + 3], -v[t + 2], -v[t + 1])
        a += p[0]
        b += p[1]
        c += p[2]
        d += p[3]
    return a, b, c, d


_FOUR = Real2(4, 0, 0)


class ExactUnitary:
    __slots__ = ("m", "k")

    def __init__(self, m: Mat, k: int):
        self.m, self.k = mat_reduce(m, k)

    @classmethod
    def identity(cls) -> "ExactUnitary":
        return cls(IDENTITY_MAT, 0)

    def __mul__(self, other: "ExactUnitary") -> "ExactUnitary":
        if not isinstance(other, ExactUnitary):
            return NotImplemented
        return ExactUnitary(mat_mul(self.m, other.m), self.k + other.k)

    def adjoint(self) -> "ExactUnitary":
        return ExactUnitary(mat_adjoint(self.m), self.k)

    def __eq__(self, other):
        # literal matrix equality; use psu2_equal for projective equality
        if not isinstance(other, ExactUnitary):
            return NotImplemented
        return self.m == other.m and self.k == other.k

    def __hash__(self):
        return hash((self.m, self.k))

    def key(self) -> tuple:
        return psu2_key(self.m, self.k)

    def trace_abs_sq(self) -> Real2:
        t = (self.m[0] + self.m[12], self.m[1] + self.m[13],
             self.m[2] + self.m[14], self.m[3] + self.m[15])
        p, q = scalar_abs_sq(t)
        return Real2(p, q, 2 * self.k)

    def to_matrix(self) -> np.ndarray:
        out = np.empty((2, 2), dtype=complex)
        s = SQRT2 ** self.k
        for idx, t in enumerate(_ENTRY_OFFSETS):
            a, b, c, d = self.m[t], self.m[t + 1], self.m[t + 2], self.m[t + 3]
            re = a + (b - d) / SQRT2
            im = c + (b + d) / SQRT2
            out[idx // 2, idx % 2] = complex(re, im) / s
        return out

    def __repr__(self):
        return f"ExactUnitary({self.m}, k={self.k})"


def psu2_equal(u: ExactUnitary, v: ExactUnitary) -> bool:
    """Projective equality: |tr(U V-adjoint)|^2 == 4 exactly."""
    p, q = scalar_abs_sq(frob_inner(u.m, v.m))
    return Real2(p, q, 2 * (u.k + v.k)) == _FOUR


# Gate matrices.  T = diag(1, w).  H uses the det-1 normalisation with
# i / sqrt(2) entries (i = w^2), so every word lands in the ring with the
# denominator tracked by k alone.  S = T^2.
_T_MAT: Mat = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0)
_H_MAT: Mat = (0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, -1, 0)
_S_MAT: Mat = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)

GATES = {
    "I": ExactUnitary(IDENTITY_MAT, 0),
    "T": ExactUnitary(_T_MAT, 0),
    "H": ExactUnitary(_H_MAT, 1),
    "S": ExactUnitary(_S_MAT, 0),
}


def gate_matrix(name: str) -> ExactUnitary:
    """Stored ring representative of a single gate symbol."""
    try:
        return GATES[name.upper()]
    except KeyError:
        raise ValueError(f"unknown gate symbol {name!r}") from None


def from_word(word: str) -> ExactUnitary:
    """Product of gate letters, leftmost factor applied last to a ket."""
    u = GATES["I"]
    for ch in word:
        u = u * gate_matrix(ch)
    return u


def su2_quaternion(mat: np.ndarray) -> np.ndarray:
    """(c, sx, sy, sz) with U ~ c I - i (sx X + sy Y + sz Z), c >= 0.

    mat is one 2x2 matrix or a (..., 2, 2) stack; the result is (..., 4).
    Input may carry any global phase; it is divided out through the
    determinant.  At c == 0 the vector sign is fixed by the first nonzero
    component.  Each row is a function of its own matrix alone: the
    determinant is written in real arithmetic (a complex array product may
    fuse its multiply-adds) and the norm is a per-row dot product.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    a, b, c, d = (mat[..., i, j] for i in (0, 1) for j in (0, 1))
    det = np.empty(a.shape, dtype=np.complex128)
    det.real = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    det.imag = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    v = mat / np.sqrt(det)[..., None, None]
    q = np.stack([(v[..., 0, 0] + v[..., 1, 1]).real / 2.0,
                  -(v[..., 0, 1] + v[..., 1, 0]).imag / 2.0,
                  (v[..., 1, 0] - v[..., 0, 1]).real / 2.0,
                  -(v[..., 0, 0] - v[..., 1, 1]).imag / 2.0], axis=-1)
    vec = q[..., 1:]
    big = np.abs(vec) > 1e-12
    lead = np.take_along_axis(vec, big.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    flip = (q[..., 0] < 0) | ((np.abs(q[..., 0]) < 1e-12) & big.any(axis=-1) & (lead < 0))
    q = np.where(flip[..., None], -q, q)
    return q / np.sqrt(np.vecdot(q, q))[..., None]


def adjoint_action(u: ExactUnitary) -> np.ndarray:
    """3x3 rotation matrix of U acting by conjugation on the Bloch sphere."""
    q = su2_quaternion(u.to_matrix())
    c, x, y, z = q
    # standard quaternion-to-rotation, for U . sigma_j . U-adjoint
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - c * z), 2 * (x * z + c * y)],
        [2 * (x * y + c * z), 1 - 2 * (x * x + z * z), 2 * (y * z - c * x)],
        [2 * (x * z - c * y), 2 * (y * z + c * x), 1 - 2 * (x * x + y * y)],
    ])
