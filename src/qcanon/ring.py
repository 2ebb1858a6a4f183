"""Exact arithmetic over Z[w] scaled by powers of sqrt(2), w = exp(i*pi/4).

Every scalar is (a + b*w + c*w^2 + d*w^3) / sqrt(2)^k with integer
coefficients.  w^4 = -1 and sqrt(2) = w - w^3, so multiplication stays in
the ring and a factor of sqrt(2) cancels exactly whenever the coefficient
parities allow it.  Values on the real line live in the subring
(p + q*sqrt(2)) / sqrt(2)^l, kept as Real2.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)


def can_halve(a: int, b: int, c: int, d: int) -> bool:
    # z / sqrt(2) has integer coefficients iff a = c and b = d (mod 2)
    return (a ^ c) & 1 == 0 and (b ^ d) & 1 == 0


def halve(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    # z / sqrt(2) = z * (w - w^3) / 2
    return (b - d) // 2, (a + c) // 2, (b + d) // 2, (c - a) // 2


def scalar_abs_sq(x: tuple[int, int, int, int]) -> tuple[int, int]:
    """|z|^2 as (p, q) meaning p + q*sqrt(2); always real."""
    a, b, c, d = x
    return a * a + b * b + c * c + d * d, a * b + b * c + c * d - d * a


class Real2:
    """(p + q*sqrt(2)) / sqrt(2)^l, stored reduced; exact real values."""

    __slots__ = ("p", "q", "l")

    def __init__(self, p: int, q: int, l: int = 0):
        if l < 0:
            raise ValueError("negative sqrt(2) exponent")
        while l > 0 and p % 2 == 0:
            p, q = q, p // 2
            l -= 1
        if p == 0 and q == 0:
            l = 0
        self.p, self.q, self.l = p, q, l

    @classmethod
    def from_int(cls, n: int) -> "Real2":
        return cls(n, 0, 0)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def key(self) -> tuple[int, int, int]:
        return self.p, self.q, self.l

    def __eq__(self, other):
        if not isinstance(other, Real2):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __float__(self) -> float:
        return (self.p + self.q * SQRT2) / SQRT2 ** self.l

    def __repr__(self):
        return f"Real2({self.p}, {self.q}, l={self.l})"
