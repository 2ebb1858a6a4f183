"""Octahedral tiling of the axis sphere behind the catalog indexes.

The Clifford group acts on rotation axes as the 24 rotations of the
octahedron.  The fundamental domain F0 = {0 <= y <= x, y <= z} is a
spherical triangle with vertices (0,0,1), (1,0,0) and (1,1,1)/sqrt(3);
its 24 images tile the sphere with 36 boundary arcs and 14 corner
points (6 octahedron vertices plus 8 cube-type vertices).  Catalog
entries are binned by containing tile, nearest arc and nearest corner;
queries read the same structure back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CLIFFORD, MULT
from .unitary import adjoint_action


def _build_rotations() -> np.ndarray:
    rots = np.empty((24, 3, 3), dtype=np.int64)
    for g in range(24):
        r = adjoint_action(CLIFFORD[g])
        ri = np.rint(r).astype(np.int64)
        if not np.allclose(r, ri, atol=1e-9):
            raise AssertionError(f"rotation of G{g} is not a signed permutation")
        if round(float(np.linalg.det(ri))) != 1:
            raise AssertionError(f"rotation of G{g} has determinant != 1")
        rots[g] = ri
    for g in range(24):
        for h in range(24):
            if not np.array_equal(rots[g] @ rots[h], rots[MULT[g][h]]):
                raise AssertionError("adjoint rotations do not respect the group")
    return rots


ROT = _build_rotations()
ROT_F = ROT.astype(np.float64)

_S3 = 1.0 / np.sqrt(3.0)
F0_VERTICES = np.array([
    [0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0],
    [_S3, _S3, _S3],
])
# boundary arcs of F0 as endpoint index pairs; they lie in the planes
# y = 0, y = x and y = z respectively
_F0_EDGES = ((0, 1), (0, 2), (1, 2))


def in_f0(a, tol: float = 1e-12) -> bool:
    x, y, z = a
    return -tol <= y <= x + tol and y <= z + tol


def face_of(a, tol: float = 1e-12) -> int:
    """Smallest tile index whose closure contains the axis."""
    for g in range(24):
        if in_f0(ROT_F[g].T @ a, tol):
            return g
    raise AssertionError(f"axis {a} escaped the tiling")


def faces_of(axes: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Vectorized face_of over an (n, 3) array."""
    n = axes.shape[0]
    out = np.full(n, -1, dtype=np.int64)
    for g in range(24):
        local = axes @ ROT_F[g]  # rows become R^T a
        ok = (
            (local[:, 1] >= -tol)
            & (local[:, 1] <= local[:, 0] + tol)
            & (local[:, 1] <= local[:, 2] + tol)
            & (out < 0)
        )
        out[ok] = g
    if (out < 0).any():
        raise AssertionError("some axes escaped the tiling")
    return out


def _round_key(v: np.ndarray) -> tuple:
    return tuple(np.round(v, 9) + 0.0)


def _build_vertices() -> np.ndarray:
    seen: dict[tuple, np.ndarray] = {}
    for g in range(24):
        for v in F0_VERTICES:
            w = ROT_F[g] @ v
            seen.setdefault(_round_key(w), w)
    verts = np.array([seen[k] for k in sorted(seen)])
    if len(verts) != 14:
        raise AssertionError(f"expected 14 tile corners, got {len(verts)}")
    return verts


VERTICES = _build_vertices()


@dataclass(frozen=True)
class Edge:
    p: np.ndarray
    q: np.ndarray
    normal: np.ndarray
    faces: tuple[int, int]


def _build_edges() -> list[Edge]:
    by_key: dict[tuple, dict] = {}
    for g in range(24):
        r = ROT_F[g]
        for i, j in _F0_EDGES:
            p, q = r @ F0_VERTICES[i], r @ F0_VERTICES[j]
            kp, kq = _round_key(p), _round_key(q)
            key = (kp, kq) if kp <= kq else (kq, kp)
            rec = by_key.setdefault(key, {"p": p, "q": q, "faces": set()})
            rec["faces"].add(g)
    if len(by_key) != 36:
        raise AssertionError(f"expected 36 boundary arcs, got {len(by_key)}")
    edges = []
    for key in sorted(by_key):
        rec = by_key[key]
        faces = tuple(sorted(rec["faces"]))
        if len(faces) != 2:
            raise AssertionError("each arc must border exactly two tiles")
        # orient the plane normal as p x q so that n x p points from p
        # toward q along the arc; the in-arc test below depends on this
        p, q = rec["p"], rec["q"]
        n = np.cross(p, q)
        n /= np.linalg.norm(n)
        edges.append(Edge(p, q, n, faces))
    return edges


EDGES = _build_edges()

_EDGE_P = np.array([e.p for e in EDGES])
_EDGE_Q = np.array([e.q for e in EDGES])
_EDGE_N = np.array([e.normal for e in EDGES])
# in-arc test directions: t1 = n x p points from p along the arc,
# t2 = q x n points from q back along it
_EDGE_T1 = np.cross(_EDGE_N, _EDGE_P)
_EDGE_T2 = np.cross(_EDGE_Q, _EDGE_N)


def edge_distances(a: np.ndarray) -> np.ndarray:
    """Great-circle distance from a unit vector to each of the 36 arcs.

    An (n, 3) array of unit vectors gives one row of 36 per vector.
    """
    sin_plane = a @ _EDGE_N.T
    inside = ((a @ _EDGE_T1.T) >= 0) & ((a @ _EDGE_T2.T) >= 0)
    d_plane = np.arcsin(np.clip(np.abs(sin_plane), 0.0, 1.0))
    d_p = np.arccos(np.clip(a @ _EDGE_P.T, -1.0, 1.0))
    d_q = np.arccos(np.clip(a @ _EDGE_Q.T, -1.0, 1.0))
    return np.where(inside, d_plane, np.minimum(d_p, d_q))


def vertex_distances(a: np.ndarray) -> np.ndarray:
    """Distance to each of the 14 corners; (n, 3) input gives (n, 14)."""
    return np.arccos(np.clip(a @ VERTICES.T, -1.0, 1.0))


@dataclass(frozen=True)
class TileInfo:
    face: int
    nearest_edge: tuple[int, int]  # the bordering tile pair
    nearest_vertex: int
    boundary_dist: float


def tile_of(a) -> TileInfo:
    a = np.asarray(a, dtype=np.float64)
    face = face_of(a)
    ed = edge_distances(a)
    e = int(np.argmin(ed))
    v = int(np.argmin(vertex_distances(a)))
    return TileInfo(face, EDGES[e].faces, v, float(ed[e]))


def assign_bins(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(face, nearest arc id, nearest corner id) per row, vectorized.

    Ties resolve to the smallest id, matching the scalar helpers.
    """
    n = axes.shape[0]
    faces = faces_of(axes)
    edges = np.empty(n, dtype=np.int64)
    verts = np.empty(n, dtype=np.int64)
    # blocks of rows keep each (rows, 36) temporary small when one call
    # covers a whole catalog
    chunk = 1024
    for lo in range(0, n, chunk):
        block = axes[lo:lo + chunk]
        edges[lo:lo + chunk] = np.argmin(edge_distances(block), axis=1)
        verts[lo:lo + chunk] = np.argmin(vertex_distances(block), axis=1)
    return faces, edges, verts


EDGE_FACE_PAIRS = tuple(e.faces for e in EDGES)
