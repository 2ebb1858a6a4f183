"""The 24 single-qubit Clifford rotations, conventional indexing G0..G23.

Tables are rebuilt from exact gate products at import: index lookup keys,
the 24x24 multiplication table, inverses, and the rule for moving a
Clifford leftward past a T.  Import fails loudly if the word list does not
generate a closed group of 24 distinct projective elements.
"""

from __future__ import annotations

from .unitary import ExactUnitary, GATES, from_word

CLIFFORD_WORDS = [
    "", "H", "HSSH", "SS", "S", "SSS", "HSS", "SSH",
    "SH", "SSSH", "SSHSSH", "SHSSH", "SSSHSSH", "HS", "HSSS", "SSHSS",
    "SHSS", "SSSHSS", "HSH", "HSSSH", "HSHSSH", "HSSSHSSH", "SSSHS", "SHSSS",
]

CLIFFORD: tuple[ExactUnitary, ...] = tuple(from_word(w) for w in CLIFFORD_WORDS)

_KEY_TO_INDEX: dict[tuple, int] = {}
for _i, _u in enumerate(CLIFFORD):
    _key = _u.key()
    if _key in _KEY_TO_INDEX:
        raise AssertionError(f"duplicate Clifford words {_KEY_TO_INDEX[_key]} and {_i}")
    _KEY_TO_INDEX[_key] = _i


def clifford_index(u: ExactUnitary) -> int | None:
    """Index of u in the group, None when u is not a Clifford."""
    return _KEY_TO_INDEX.get(u.key())


MULT: tuple[tuple[int, ...], ...] = tuple(
    tuple(_KEY_TO_INDEX[(CLIFFORD[i] * CLIFFORD[j]).key()] for j in range(24))
    for i in range(24)
)

INV: tuple[int, ...] = tuple(MULT[i].index(0) for i in range(24))

# named indices used across the rewrite rules
G_I = 0
G_H = 1
G_X = 2
G_Z = 3
G_S = 4
G_SH = 8
G_HS3 = 14   # H S S S; (T H) inverse starts with this block
G_HSH = 18

# Moving a Clifford left over a T costs at most one extra syllable:
# g T = prefix T g'  with prefix one of  I | H | H S H.
# COMM gives (kind, g'), and PREFIX[kind] is the index of the prefix.
PLAIN, HPRE, HSHPRE = 0, 1, 2
PREFIX = (G_I, G_H, G_HSH)

_T = GATES["T"]
_T_ADJ = _T.adjoint()


def _commute_row(g: int) -> tuple[int, int]:
    gt = CLIFFORD[g] * _T
    for kind, pre in enumerate(PREFIX):
        idx = clifford_index(_T_ADJ * (CLIFFORD[pre].adjoint() * gt))
        if idx is not None:
            return kind, idx
    raise AssertionError(f"no commutation form for G{g}")


COMM: tuple[tuple[int, int], ...] = tuple(_commute_row(g) for g in range(24))

# Published reference rows for the same table, kept as plain data.  The
# computed table must reproduce them exactly; a mismatch means either the
# word list or the ring arithmetic regressed, so imports abort.
_COMM_EXPECTED = (
    (0, 0), (1, 0), (0, 12), (0, 3), (0, 4), (0, 5), (1, 3), (1, 12),
    (2, 2), (2, 4), (0, 11), (0, 2), (0, 10), (1, 4), (1, 5), (1, 11),
    (2, 10), (2, 5), (2, 0), (2, 12), (1, 2), (1, 10), (2, 3), (2, 11),
)

for _g in range(24):
    if COMM[_g] != _COMM_EXPECTED[_g]:
        raise AssertionError(
            f"commutation row G{_g}: computed {COMM[_g]}, "
            f"reference {_COMM_EXPECTED[_g]}"
        )
