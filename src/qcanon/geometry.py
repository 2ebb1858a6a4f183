"""Clifford rotations of the axis sphere and the folded axes behind the search.

The Clifford group acts on rotation axes as the 24 rotations of the
octahedron: ROT holds them as integer signed permutation matrices, ROT_F
as doubles.

The search bounds |a . R b| over all 24 of them at once through the fold
of an axis, its sorted absolute coordinates.  By the rearrangement
inequality fold(a) . fold(b) is the maximum of a . P b over all 48 signed
permutations P, so it is at least |a . R_g b| for every g.
"""

from __future__ import annotations

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


def assign_bins(axes: np.ndarray) -> np.ndarray:
    """The (n, 3) fold of an (n, 3) array of axes: each row's absolute
    coordinates in ascending order.

    The name predates the fold; qcbench's traced run times this function
    under `catalog.load` by it.  Three coordinates sort with a network of
    five minima and maxima, which is exact and several times faster than
    sorting each row.
    """
    fold = np.abs(axes)
    x, y, z = fold[:, 0], fold[:, 1], fold[:, 2]
    lo = np.minimum(x, y)
    np.maximum(x, y, out=y)  # y: the larger of the first two
    np.minimum(lo, z, out=x)  # x: the least
    mid = np.minimum(y, z)
    np.maximum(y, z, out=z)  # z: the greatest
    np.maximum(lo, mid, out=y)  # y: the middle one
    return fold
