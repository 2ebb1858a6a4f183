"""Normal and canonical forms for single-qubit H/T circuits.

Any word over {H, T} factors through syllable blocks TH and SHTH: it is
projectively equal to [H] . b1 . b2 ... bt . g with each bi a block and g
a Clifford.  The T-count t is the number of blocks.  The canonical form
additionally forbids SH before the fifth syllable, moving those phases
into a two-sided Clifford dressing g1 . c . g2.  Distinct canonical block
strings generate disjoint double cosets, so the block string is a perfect
index key for a PSU(2) element modulo Clifford dressing.

All rewrite identities used here are verified exactly at import; the
module refuses to load if any of them fails.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

from .clifford import (
    CLIFFORD, CLIFFORD_WORDS, COMM, INV, MULT,
    G_H, G_HS3, G_HSH, G_I, G_S, G_SH, PLAIN, PREFIX,
)
from .unitary import ExactUnitary, GATES, psu2_equal

T_TOK = -1  # the one non-Clifford token; Clifford tokens are their indices


def parse_word(word: str) -> list[int]:
    toks = []
    for pos, ch in enumerate(word):
        if ch in " \t\n.":
            continue
        c = ch.upper()
        if c == "T":
            toks.append(T_TOK)
        elif c == "H":
            toks.append(G_H)
        elif c == "S":
            toks.append(G_S)
        elif c == "I":
            continue
        else:
            raise ValueError(f"unknown gate letter {ch!r} at position {pos}")
    return toks


def blocks_tokens(bits) -> list[int]:
    toks = []
    for b in bits:
        if b:
            toks.append(G_SH)
        toks.append(T_TOK)
        toks.append(G_H)
    return toks


def tokens_to_unitary(tokens) -> ExactUnitary:
    u = GATES["I"]
    t = GATES["T"]
    for tok in tokens:
        u = u * (t if tok == T_TOK else CLIFFORD[tok])
    return u


def tokens_to_word(tokens) -> str:
    return "".join("T" if tok == T_TOK else CLIFFORD_WORDS[tok] for tok in tokens)


@dataclass(frozen=True)
class NormalForm:
    """[H if hpre] . blocks(body) . CLIFFORD[tail], body bits 1 = SHTH."""

    hpre: bool
    body: tuple[int, ...]
    tail: int

    @property
    def t_count(self) -> int:
        return len(self.body)

    def to_tokens(self) -> list[int]:
        toks = [G_H] if self.hpre else []
        toks += blocks_tokens(self.body)
        toks.append(self.tail)
        return toks

    def to_word(self) -> str:
        return tokens_to_word(self.to_tokens())

    def to_unitary(self) -> ExactUnitary:
        return tokens_to_unitary(self.to_tokens())


@dataclass(frozen=True)
class CosetForm:
    """CLIFFORD[g1] . blocks(body) . CLIFFORD[g2] with a canonical body."""

    g1: int
    body: tuple[int, ...]
    g2: int

    @property
    def t_count(self) -> int:
        return len(self.body)

    def to_tokens(self) -> list[int]:
        return [self.g1] + blocks_tokens(self.body) + [self.g2]

    def to_word(self) -> str:
        return tokens_to_word(self.to_tokens())

    def to_unitary(self) -> ExactUnitary:
        return tokens_to_unitary(self.to_tokens())

    def to_json_dict(self) -> dict:
        return {
            "g1": self.g1,
            "blocks": base64.b64encode(pack_bits(self.body)).decode("ascii"),
            "t_count": self.t_count,
            "g2": self.g2,
        }


def pack_bits(bits) -> bytes:
    out = bytearray((len(bits) + 7) // 8)
    for i, b in enumerate(bits):
        if b:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def unpack_bits(data: bytes, t: int) -> tuple[int, ...]:
    return tuple((data[i >> 3] >> (i & 7)) & 1 for i in range(t))


def normalize_tokens(tokens) -> NormalForm:
    """Single forward pass; every step applies one exact group identity.

    State: `seps` holds one Clifford per open T, the one written before
    it: I, H or HSH before the first T, H or HSH before each later one.
    `res` is the Clifford collected to the right of the last T.  An
    incoming T is folded through `res` with the commutation table; the
    plain case makes two T's adjacent, which merge to S and drop back into
    `res` together with the separator of the T they cancel.
    """
    seps: list[int] = []
    res = G_I
    for tok in tokens:
        if tok != T_TOK:
            res = MULT[res][tok]
            continue
        kind, res2 = COMM[res]
        if seps and kind == PLAIN:
            res = MULT[seps.pop()][MULT[G_S][res2]]
        else:
            seps.append(PREFIX[kind])
            res = res2
    if not seps:
        return NormalForm(False, (), res)
    bits = tuple([1 if g == G_HSH else 0 for g in seps])
    return NormalForm(seps[0] != G_I, bits, MULT[G_H][res])


def normalize_word(word: str) -> NormalForm:
    return normalize_tokens(parse_word(word))


# Exact block-squeezing identities: the word of the first m blocks with the
# final H dropped, pattern (b2 .. bm) and b1 = 0, equals
# CLIFFORD[gL] . (TH)^(m-1) T . CLIFFORD[gR].  All eleven are re-proved in
# exact arithmetic by _verify_tables below.
SQUEEZE: dict[tuple[int, ...], tuple[int, int]] = {
    (1,): (2, 4),
    (0, 1): (3, 4),
    (1, 0): (10, 11),
    (1, 1): (2, 5),
    (0, 0, 1): (11, 4),
    (0, 1, 0): (12, 11),
    (1, 0, 0): (4, 12),
    (0, 1, 1): (3, 5),
    (1, 1, 0): (5, 3),
    (1, 0, 1): (10, 10),
    (1, 1, 1): (2, 2),
}

# SHTH = HSH . T . HSS: lets an SH-leading circuit restart from an H prefix.
RESTART_LHS = (G_SH, T_TOK, G_H)
RESTART_RHS = (G_HSH, T_TOK, 6)


def canonicalize_nf(nf: NormalForm) -> CosetForm:
    gl = G_H if nf.hpre else 0
    bits = list(nf.body)
    gr = nf.tail
    if not bits:
        return CosetForm(MULT[gl][gr], (), 0)
    if bits[0]:
        gl = MULT[gl][G_SH]
        bits[0] = 0
    if any(bits[1:4]):
        m = min(len(bits), 4)
        gL, gR = SQUEEZE[tuple(bits[1:m])]
        gl = MULT[gl][gL]
        v = normalize_tokens([gR, G_H] + blocks_tokens(bits[m:]) + [gr])
        # the open T never meets another: normal forms have minimal T-count
        assert v.hpre or not v.body, "remainder must not lead with a plain T"
        # (TH)^(m-1) T . [H] blocks . g: the H closes the m-th block, and
        # a collapsed remainder g supplies it as H . (H g)
        bits = [0] * m + list(v.body)
        gr = v.tail if v.hpre else MULT[G_H][v.tail]
    return CosetForm(gl, tuple(bits), gr)


def canonicalize_word(word: str) -> CosetForm:
    return canonicalize_nf(normalize_tokens(parse_word(word)))


def is_canonical_bits(bits) -> bool:
    return not any(bits[:4])


def invert_nf(nf: NormalForm) -> NormalForm:
    """Normal form of the inverse; T-count is preserved.

    Blockwise: ((SH)^b T H)^-1 = (H S^3) . T . (SH)^-b.
    """
    toks = [INV[nf.tail]]
    for b in reversed(nf.body):
        toks.append(G_HS3)
        toks.append(T_TOK)
        if b:
            toks.append(INV[G_SH])
    if nf.hpre:
        toks.append(G_H)
    return normalize_tokens(toks)


def compose_reduce(a: CosetForm, b: NormalForm) -> NormalForm:
    """Normal form of a . b.  T-count(result) <= T-count(a) + T-count(b)."""
    return normalize_tokens(a.to_tokens() + b.to_tokens())


def adjoint_z_state(bits) -> tuple[int, tuple[int, int, int, int, int, int]]:
    """Raw integer state of ad_c(Z) for a normalized body, unreduced.

    Returns (l, (x0, x1, y0, y1, z0, z1)) with
    sqrt(2)^l . ad_c(Z) = (x0 + x1 sqrt 2) X + (y0 + y1 sqrt 2) Y + (z0 + z1 sqrt 2) Z.
    Blocks act by conjugation, so the rightmost block wraps first.
    """
    x0, x1, y0, y1, z0, z1 = 0, 0, 0, 0, 1, 0
    l = 0
    for b in reversed(bits):
        if b:
            # SH T H block
            x0, x1, y0, y1, z0, z1 = (
                z0 - y0, z1 - y1, 2 * x1, x0, y0 + z0, y1 + z1,
            )
        else:
            # T H block
            x0, x1, y0, y1, z0, z1 = (
                y0 + z0, y1 + z1, z0 - y0, z1 - y1, 2 * x1, x0,
            )
        l += 1
    return l, (x0, x1, y0, y1, z0, z1)


def _plain_open(m: int) -> ExactUnitary:
    # (TH)^(m-1) . T
    u = GATES["I"]
    th = GATES["T"] * GATES["H"]
    for _ in range(m - 1):
        u = u * th
    return u * GATES["T"]


def _verify_tables() -> None:
    for key, (gL, gR) in SQUEEZE.items():
        m = len(key) + 1
        lhs = tokens_to_unitary(blocks_tokens((0,) + key)[:-1])
        rhs = CLIFFORD[gL] * _plain_open(m) * CLIFFORD[gR]
        if not psu2_equal(lhs, rhs):
            raise AssertionError(f"squeeze identity {key} failed")
    if not psu2_equal(tokens_to_unitary(RESTART_LHS),
                      tokens_to_unitary(RESTART_RHS)):
        raise AssertionError("SH restart identity failed")


_verify_tables()
