import math

from hypothesis import given, strategies as st

from qcanon.ring import SQRT2, Real2, can_halve, halve, scalar_abs_sq

_OMEGA = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))


# -- a ring scalar, to check the reduction helpers against complex numbers ---


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


coeff = st.integers(min_value=-50, max_value=50)
denom = st.integers(min_value=0, max_value=8)


def _as_complex(a, b, c, d, k):
    return (a + b * _OMEGA + c * _OMEGA**2 + d * _OMEGA**3) / math.sqrt(2.0) ** k


@st.composite
def scalars(draw):
    return RingScalar(draw(coeff), draw(coeff), draw(coeff), draw(coeff), draw(denom))


@given(scalars())
def test_scalar_reduced_on_construction(x):
    # either integral or the denominator exponent cannot drop further
    assert x.k == 0 or not can_halve(x.a, x.b, x.c, x.d)


@given(scalars())
def test_scalar_float_roundtrip(x):
    want = _as_complex(x.a, x.b, x.c, x.d, x.k)
    assert abs(complex(x) - want) < 1e-9 * (1 + abs(want))


@given(scalars(), scalars())
def test_scalar_ring_ops_match_complex(x, y):
    for op in ("__add__", "__sub__", "__mul__"):
        z = getattr(x, op)(y)
        want = getattr(complex(x), op)(complex(y))
        assert abs(complex(z) - want) < 1e-7 * (1 + abs(want))


@given(scalars())
def test_scalar_conj_and_abs_sq(x):
    assert abs(complex(x.conj()) - complex(x).conjugate()) < 1e-9 * (1 + abs(complex(x)))
    r = x.abs_sq()
    assert isinstance(r, Real2)
    assert abs(float(r) - abs(complex(x)) ** 2) < 1e-7 * (1 + abs(complex(x)) ** 2)


def test_omega_power_cycle():
    # omega^4 = -1, omega^8 = 1
    assert RingScalar.omega_power(4) == -RingScalar.from_int(1)
    assert RingScalar.omega_power(8) == RingScalar.from_int(1)
    for j in range(8):
        w = RingScalar.omega_power(j)
        assert abs(complex(w) - _OMEGA**j) < 1e-12


@given(scalars(), scalars())
def test_scalar_eq_iff_complex_eq(x, y):
    if x == y:
        assert abs(complex(x) - complex(y)) < 1e-9
    else:
        assert abs(complex(x) - complex(y)) > 1e-12


@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(0, 12))
def test_real2_float_and_key(p, q, l):
    r = Real2(p, q, l)
    want = (p + q * math.sqrt(2.0)) / math.sqrt(2.0) ** l
    assert abs(float(r) - want) < 1e-9 * (1 + abs(want))
    s = Real2(p, q, l)
    assert r == s and r.key() == s.key() and hash(r) == hash(s)


def test_real2_reduction_examples():
    # (2 + 0*sqrt2)/sqrt2^2 reduces to 1
    assert Real2(2, 0, 2) == Real2(1, 0, 0)
    # (0 + 2*sqrt2)/sqrt2^3 = 4/sqrt2^3... = sqrt2 * ... check against floats
    assert abs(float(Real2(0, 2, 3)) - 2 * math.sqrt(2) / math.sqrt(8)) < 1e-12


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 8),
       st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 8))
def test_real2_eq_iff_value_eq(p1, q1, l1, p2, q2, l2):
    r, s = Real2(p1, q1, l1), Real2(p2, q2, l2)
    if r == s:
        assert abs(float(r) - float(s)) < 1e-9
        assert r.key() == s.key()
    else:
        # p + q sqrt2 = 0 only at p = q = 0, so distinct keys separate
        assert r.key() != s.key()
