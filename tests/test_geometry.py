import itertools

import numpy as np

from qcanon.clifford import MULT
from qcanon.geometry import ROT, ROT_F, assign_bins


def unit_axes(seed, n):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# -- rotation table ----------------------------------------------------------

def test_rotations_integer_orthogonal_det_one():
    assert ROT.shape == (24, 3, 3)
    eye = np.eye(3, dtype=np.int64)
    for r in ROT:
        assert np.array_equal(r @ r.T, eye)
        assert round(np.linalg.det(r)) == 1


def test_rotations_distinct():
    assert len({r.tobytes() for r in ROT}) == 24


def test_rotations_follow_mult_table():
    for g in range(24):
        for h in range(0, 24, 5):
            assert np.array_equal(ROT[g] @ ROT[h], ROT[MULT[g][h]])


# -- the octahedron the rotations act on ---------------------------------------

def rotation_order(r):
    eye = np.eye(3, dtype=np.int64)
    p, k = r.copy(), 1
    while not np.array_equal(p, eye):
        p, k = p @ r, k + 1
    return k


def fixed_points(rots):
    """The points of the sphere fixed by the given non-identity rotations:
    both ends of each rotation axis, rounded to 9 digits."""
    pts = set()
    for r in rots:
        axis = np.linalg.svd(r.astype(np.float64) - np.eye(3))[2][-1]
        for s in (1.0, -1.0):
            pts.add(tuple(np.round(s * axis, 9) + 0.0))
    return pts


def test_vertices_are_octahedron_and_cube():
    # the four-fold axes end at the octahedron's vertices, the three-fold
    # axes at the cube's (the octahedron's face centres)
    oct_pts = {tuple(np.round(s * np.eye(3)[i], 9) + 0.0) for s in (1, -1) for i in range(3)}
    c = 1.0 / np.sqrt(3.0)
    cube_pts = {tuple(np.round(np.array([sx, sy, sz]) * c, 9))
                for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)}
    assert fixed_points([r for r in ROT if rotation_order(r) == 4]) == oct_pts
    assert fixed_points([r for r in ROT if rotation_order(r) == 3]) == cube_pts


def test_edge_and_vertex_counts():
    # 1 identity, 6 quarter turns, 9 half turns, 8 third turns; the half
    # turns that are not squares of quarter turns fix the 12 edge midpoints
    orders = [rotation_order(r) for r in ROT]
    assert sorted(orders) == [1] + [2] * 9 + [3] * 8 + [4] * 6
    vertices = fixed_points([r for r in ROT if rotation_order(r) == 4])
    faces = fixed_points([r for r in ROT if rotation_order(r) == 3])
    edges = fixed_points([r for r in ROT if rotation_order(r) == 2]) - vertices
    assert (len(vertices), len(edges), len(faces)) == (6, 12, 8)
    assert len(vertices) - len(edges) + len(faces) == 2
    # every fixed point lies on a boundary of the fold
    for p in vertices | edges | faces:
        f = assign_bins(np.array([p]))[0]
        assert f[0] == 0.0 or np.isclose(f[0], f[1]) or np.isclose(f[1], f[2])


# -- tiles of the rotation group -------------------------------------------------

def in_tile(v):
    """Membership of the rotation group's fundamental tile |x| <= y <= z,
    the fold's chamber 0 <= x <= y <= z joined with its mirror in x = 0."""
    v = np.asarray(v)
    return (np.abs(v[..., 0]) <= v[..., 1]) & (v[..., 1] <= v[..., 2])


def test_tiles_cover_sphere():
    axes = np.vstack([unit_axes(7, 4000), boundary_axes()])
    fold = assign_bins(axes)
    images = np.einsum("gij,nj->gni", ROT_F, axes)
    hits = in_tile(images)
    # every axis has a rotation into the tile, and the image is its fold up
    # to the sign of the first coordinate
    assert hits.any(axis=0).all()
    for g, n in zip(*np.nonzero(hits)):
        img = images[g, n]
        assert abs(img[0]) == fold[n, 0] and np.array_equal(img[1:], fold[n, 1:])


def interior_axes(seed, n):
    # axes whose absolute coordinates are nonzero and pairwise apart
    axes = unit_axes(seed, n)
    f = assign_bins(axes)
    return axes[np.minimum(f[:, 0], np.diff(f, axis=1).min(axis=1)) > 1e-6]


def tile_of(a):
    (g,) = np.nonzero(in_tile(ROT_F @ a))
    assert len(g) == 1  # the tiles meet only on the fold's boundaries
    return int(g[0])


def test_face_equivariance_interior_points():
    # interior points map tile-to-tile under the rotation group
    axes = interior_axes(13, 300)
    assert len(axes) > 250
    for h in (1, 4, 9, 17, 23):
        moved = axes @ ROT_F[h].T
        for a, b in zip(axes, moved):
            assert MULT[tile_of(b)][h] == tile_of(a)


def test_fundamental_tile_seed_points():
    for p in ((0.1, 0.3, 0.9), (0.0, 0.5, 1.0), (-0.2, 0.4, 0.8)):
        a = np.array(p) / np.linalg.norm(p)
        assert in_tile(a)
        assert tile_of(a) == 0  # ROT[0] is the identity
        assert np.array_equal(assign_bins(a[None])[0], np.sort(np.abs(a)))
    assert not in_tile(np.array([0.9, 0.1, 0.3]))


# -- the fold ------------------------------------------------------------------

# the 48 signed permutation matrices (+ 0.0 clears the negative zeros)
SIGNED_PERMS = np.array([np.eye(3)[list(p)] * np.array(signs) + 0.0
                         for p in itertools.permutations(range(3))
                         for signs in itertools.product((1.0, -1.0), repeat=3)])


def boundary_axes():
    """Axes on the fold's boundaries, with every sign flip and coordinate
    order: (1,0,0), (1,1,0)/sqrt2, (1,1,1)/sqrt3 and (1,2,2)/3."""
    base = np.array([[1.0, 0.0, 0.0], np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),
                     np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
                     np.array([1.0, 2.0, 2.0]) / 3.0])
    images = np.einsum("pij,bj->pbi", SIGNED_PERMS, base).reshape(-1, 3)
    return np.unique(images + 0.0, axis=0)


def test_signed_perms_hold_the_rotations():
    perms = {p.tobytes() for p in SIGNED_PERMS}
    assert len(perms) == 48
    assert all(r.tobytes() in perms for r in ROT_F)


def test_assign_bins_matches_scalar_path():
    axes = np.vstack([unit_axes(23, 1500), boundary_axes()])
    before = axes.copy()
    fold = assign_bins(axes)
    assert fold.shape == axes.shape
    assert np.array_equal(axes, before)  # the input is left alone
    for a, f in zip(axes, fold):
        assert tuple(f) == tuple(sorted(abs(x) for x in a))


def test_fold_dot_is_the_signed_permutation_maximum():
    axes = np.vstack([unit_axes(29, 120), boundary_axes()])
    fold = assign_bins(axes)
    folded = fold @ fold.T
    # a . P b over the 48 signed permutations and over the 24 rotations
    perm_max = np.einsum("ai,pij,bj->pab", axes, SIGNED_PERMS, axes).max(axis=0)
    rot_max = np.abs(np.einsum("ai,gij,bj->gab", axes, ROT_F, axes)).max(axis=0)
    assert np.abs(folded - perm_max).max() <= 1e-15
    assert (folded >= rot_max - 1e-15).all()


def test_fold_is_invariant_under_the_rotations():
    axes = np.vstack([unit_axes(31, 200), boundary_axes()])
    fold = assign_bins(axes)
    for r in ROT_F:
        assert np.array_equal(assign_bins(axes @ r.T), fold)
