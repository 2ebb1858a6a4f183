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
_OMEGA = complex(SQRT2 / 2.0, SQRT2 / 2.0)


def can_halve(a: int, b: int, c: int, d: int) -> bool:
    # z / sqrt(2) has integer coefficients iff a = c and b = d (mod 2)
    return (a ^ c) & 1 == 0 and (b ^ d) & 1 == 0


def halve(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    # z / sqrt(2) = z * (w - w^3) / 2
    return (b - d) // 2, (a + c) // 2, (b + d) // 2, (c - a) // 2


def scalar_mul(x: tuple[int, int, int, int], y: tuple[int, int, int, int]):
    """Coefficient convolution modulo w^4 = -1."""
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y
    return (
        a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
        a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
    )


def scalar_conj(x: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, c, d = x
    return a, -d, -c, -b


def scalar_abs_sq(x: tuple[int, int, int, int]) -> tuple[int, int]:
    """|z|^2 as (p, q) meaning p + q*sqrt(2); always real."""
    a, b, c, d = x
    return a * a + b * b + c * c + d * d, a * b + b * c + c * d - d * a


class RingScalar:
    """One element of Z[w] / sqrt(2)^k, stored reduced."""

    __slots__ = ("a", "b", "c", "d", "k")

    def __init__(self, a: int, b: int, c: int, d: int, k: int = 0):
        if k < 0:
            raise ValueError("negative sqrt(2) exponent")
        while k > 0 and can_halve(a, b, c, d):
            a, b, c, d = halve(a, b, c, d)
            k -= 1
        if a == 0 and b == 0 and c == 0 and d == 0:
            k = 0
        self.a, self.b, self.c, self.d, self.k = a, b, c, d, k

    @classmethod
    def from_int(cls, n: int) -> "RingScalar":
        return cls(n, 0, 0, 0, 0)

    @classmethod
    def omega_power(cls, j: int) -> "RingScalar":
        j %= 8
        sign = -1 if j >= 4 else 1
        coeffs = [0, 0, 0, 0]
        coeffs[j % 4] = sign
        return cls(*coeffs, 0)

    def coeffs(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.c, self.d

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def _aligned(self, other: "RingScalar"):
        # bring both onto the common denominator sqrt(2)^max(k1, k2)
        x, y = self.coeffs(), other.coeffs()
        kx, ky = self.k, other.k
        while kx < ky:
            a, b, c, d = x
            x = (b - d, a + c, b + d, c - a)
            kx += 1
        while ky < kx:
            a, b, c, d = y
            y = (b - d, a + c, b + d, c - a)
            ky += 1
        return x, y, kx

    def __add__(self, other):
        if not isinstance(other, RingScalar):
            return NotImplemented
        x, y, k = self._aligned(other)
        return RingScalar(*(p + q for p, q in zip(x, y)), k)

    def __sub__(self, other):
        if not isinstance(other, RingScalar):
            return NotImplemented
        x, y, k = self._aligned(other)
        return RingScalar(*(p - q for p, q in zip(x, y)), k)

    def __neg__(self):
        return RingScalar(-self.a, -self.b, -self.c, -self.d, self.k)

    def __mul__(self, other):
        if not isinstance(other, RingScalar):
            return NotImplemented
        return RingScalar(*scalar_mul(self.coeffs(), other.coeffs()), self.k + other.k)

    def conj(self) -> "RingScalar":
        return RingScalar(*scalar_conj(self.coeffs()), self.k)

    def abs_sq(self) -> "Real2":
        p, q = scalar_abs_sq(self.coeffs())
        return Real2(p, q, 2 * self.k)

    def __eq__(self, other):
        if not isinstance(other, RingScalar):
            return NotImplemented
        return self.coeffs() == other.coeffs() and self.k == other.k

    def __hash__(self):
        return hash((self.coeffs(), self.k))

    def __complex__(self) -> complex:
        a, b, c, d = self.a, self.b, self.c, self.d
        re = a + (b - d) / SQRT2
        im = c + (b + d) / SQRT2
        return complex(re, im) / SQRT2 ** self.k

    def __repr__(self):
        return f"RingScalar({self.a}, {self.b}, {self.c}, {self.d}, k={self.k})"


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
