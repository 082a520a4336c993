"""Curve-mode coefficient ring: Q(zeta_M)[u] / (u^2 - q).

One ring instance per (q, M, trace).  An element is (a + b u) / d: a and
b integer coordinate vectors over the power basis of the cyclotomic field,
d > 0 one common denominator and gcd(d, a, b) = 1.  Everything is kept
reduced modulo the M-th cyclotomic polynomial and u^2 = q, so equality is
plain coordinate comparison.  Arithmetic is on integers: a product takes
three cyclotomic products (Karatsuba for the u-part), fewer when a factor
has no u-part, and none when a factor is rational (an int, a Fraction or a
scalar with no u-part and no zeta-part): the other factor's coordinates
are scaled and reduced by one gcd.  A sum of roots of unity is built from
the counts of its exponents, as one coordinate vector.  The inverse is by
the Galois norm: (a + b u)^-1 is
(a - b u) / (a^2 - q b^2), and the cyclotomic norm N(x) = x c, c the product
of the conjugates sigma_k(x) over the units k != 1 mod M, is an integer, so
1 / x = c / N(x) takes integer products alone.  Complex conjugation is
sigma_(M-1).  The loop weight nu := 1/u = u/q is the standard square root
of 1/q (the curve-side v).

When q is a perfect square the tower degenerates (u is the literal integer
root); elements then carry no u-component.

Scalars of two different rings never mix: arithmetic and comparison
between them raise ValueError, so equal scalars always hash alike.  A
computation that needs several roots of unity builds its ring at the lcm
order up front.

``CurveScalar.reduce_mod`` maps an exact value to F_p, for a prime
p = 1 mod M with q a square mod p; the rank certificate of
:mod:`ellhall.autoforms` reduces its coefficients so.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


def cyclotomic_polynomial(m: int) -> list[int]:
    """Coefficient list (low to high) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("m must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
    return poly


def _polydiv_exact(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    db = len(b) - 1
    out = [0] * (len(a) - db)
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        while a[da] == 0:
            da -= 1
        if da < db:
            break
        if a[da] % b[db]:
            raise ArithmeticError("inexact cyclotomic division")
        c = a[da] // b[db]
        out[da - db] = c
        for k, bc in enumerate(b):
            a[k + da - db] -= c * bc
        a = a[:da]  # leading term killed
    if any(a):
        raise ArithmeticError("inexact cyclotomic division")
    return out


@lru_cache(maxsize=None)
def frobenius_trace(q: int, a: int, n: int) -> int:
    """t_n = a t_{n-1} - q t_{n-2}, t_0 = 2, t_1 = a: the trace of the n-th
    power of Frobenius on a curve over F_q of trace a."""
    t0, t1 = 2, a
    for _ in range(n):
        t0, t1 = t1, a * t1 - q * t0
    return t0


_RING_CACHE: dict = {}


def get_curve_ring(q: int, m: int = 1, trace=None) -> "CurveRing":
    key = (q, m, trace)
    ring = _RING_CACHE.get(key)
    if ring is None:
        ring = CurveRing(q, m, trace)
        _RING_CACHE[key] = ring
    return ring


class CurveRing:
    """Q(zeta_M)[u]/(u^2 - q) with the structure constants of a curve over
    F_q of Frobenius trace ``trace``."""

    def __init__(self, q: int, m: int = 1, trace=None):
        if q < 2:
            raise ValueError("q must be a prime power >= 2")
        self.q = q
        self.m = m
        self.trace = trace
        r = isqrt(q)
        self.sqrt_q = r if r * r == q else None
        phi = cyclotomic_polynomial(m)
        self.degree = d = len(phi) - 1
        # x^d = sum of c x^k over the nonzero (k, c) here (phi is monic)
        self._red = tuple((k, -c) for k, c in enumerate(phi[:-1]) if c)
        self._zero_vec = zero_vec = (0,) * d
        one_vec = (1,) + (0,) * (d - 1)
        # coordinates of zeta^k, 0 <= k < M: multiply by x, reduce on overflow
        powers = [one_vec]
        for _ in range(m - 1):
            vec = [0] + list(powers[-1])
            top = vec.pop()
            for k, c in self._red:
                vec[k] += top * c
            powers.append(tuple(vec))
        self._zeta_powers = tuple(powers)
        self.zero = CurveScalar(self, zero_vec, zero_vec, 1)
        self.one = CurveScalar(self, one_vec, zero_vec, 1)
        if self.sqrt_q is not None:
            self.u = self.from_fraction(self.sqrt_q)
        else:
            self.u = CurveScalar(self, zero_vec, one_vec, 1)
        self.nu = self.u.inverse()
        self._nu_integers = {}

    # -- structure constants, through the trace recursion -----------------

    def point_count(self, i: int) -> int:
        """#X(F_{q^i}) from the attached trace by :func:`frobenius_trace`."""
        if self.trace is None:
            raise ValueError("ring has no Frobenius trace attached")
        return self.q ** i + 1 - frobenius_trace(self.q, self.trace, i)

    def nu_integer(self, r: int) -> "CurveScalar":
        """The nu-integer [r] = (nu^r - nu^-r)/(nu - nu^-1); [1] = 1."""
        if r < 1:
            raise ValueError("r must be >= 1")
        val = self._nu_integers.get(r)
        if val is None:
            nu = self.nu
            val = (nu ** r - nu ** (-r)) / (nu - nu ** (-1))
            self._nu_integers[r] = val
        return val

    def kappa(self, n: int) -> "CurveScalar":
        """kappa = n (nu^-1 - nu), the scale of relation (2) at twist n."""
        return (self.nu.inverse() - self.nu) * n

    def c_coefficient(self, i: int) -> "CurveScalar":
        """c_i = [i] nu^i #X(F_{q^i}) / i, via the trace recursion."""
        if i < 1:
            raise ValueError("i must be >= 1")
        n_points = self.point_count(i)
        return self.nu_integer(i) * self.nu ** i * Fraction(n_points, i)

    # -- constructors ---------------------------------------------------

    def from_fraction(self, x) -> "CurveScalar":
        x = Fraction(x)
        vec = (x.numerator,) + (0,) * (self.degree - 1)
        return CurveScalar(self, vec, self._zero_vec, x.denominator)

    from_int = from_fraction

    def zeta(self, order: int, power: int = 1) -> "CurveScalar":
        """The root of unity zeta_order^power (order must divide M)."""
        if order <= 0 or self.m % order:
            raise ValueError(f"root of unity order {order} not available at M={self.m}")
        k = (self.m // order) * (power % order)
        return CurveScalar(self, self._zeta_powers[k], self._zero_vec, 1)

    def zeta_sum(self, order: int, exponents) -> "CurveScalar":
        """The sum of zeta_order^e over the exponents e (order must divide M):
        the exponents are counted mod order, and the powers of zeta summed
        with those counts into one coordinate vector."""
        if order <= 0 or self.m % order:
            raise ValueError(f"root of unity order {order} not available at M={self.m}")
        counts = [0] * order
        for e in exponents:
            counts[e % order] += 1
        step = self.m // order
        vec = [0] * self.degree
        for j, c in enumerate(counts):
            if c:
                for i, r in enumerate(self._zeta_powers[j * step]):
                    vec[i] += c * r
        return CurveScalar(self, tuple(vec), self._zero_vec, 1)

    def _scalar(self, a, b, d) -> "CurveScalar":
        """(a + b u) / d over integer vectors a, b and d > 0, in lowest terms."""
        if d != 1:
            g = gcd(d, *a, *b)
            if g != 1:
                a = tuple(c // g for c in a)
                b = tuple(c // g for c in b)
                d //= g
        return CurveScalar(self, a, b, d)

    # -- cyclotomic helpers on integer vectors -------------------------------

    def _cyc_mul(self, a, b):
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    prod[k] += ai * bj
        # x^k = x^(k-d) x^d, from the top down
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                for j, r in self._red:
                    prod[k - d + j] += c * r
        return tuple(prod[:d])

    def _galois(self, a, k):
        """sigma_k(a) for k prime to M: zeta^j -> zeta^(j k), each image read
        off the powers of zeta."""
        vec = [0] * self.degree
        powers, m = self._zeta_powers, self.m
        for j, c in enumerate(a):
            if c:
                for i, r in enumerate(powers[j * k % m]):
                    vec[i] += c * r
        return tuple(vec)

    def _cyc_inv(self, a):
        """(c, e) with c / e the inverse of a modulo the cyclotomic polynomial.

        c is the product of the conjugates sigma_k(a), k != 1 a unit mod M,
        signed so that a c = e = |N(a)|, the Galois norm of a.
        """
        c = self._zeta_powers[0]
        for k in range(2, self.m):
            if gcd(k, self.m) == 1:
                c = self._cyc_mul(c, self._galois(a, k))
        norm = self._cyc_mul(a, c)
        if any(norm[1:]):
            raise ArithmeticError("Galois norm is not rational")
        e = norm[0]
        if not e:
            raise ZeroDivisionError("element not invertible in cyclotomic field")
        if e < 0:
            return tuple(-x for x in c), -e
        return c, e

    def __repr__(self):
        t = f", trace={self.trace}" if self.trace is not None else ""
        return f"CurveRing(q={self.q}, M={self.m}{t})"


class CurveScalar:
    """(a + b u) / d: integer coordinate vectors a, b over the power basis
    of Q(zeta_M), one denominator d > 0 and gcd(d, a, b) = 1, so equal
    scalars have equal coordinates."""

    __slots__ = ("ring", "a", "b", "d")

    def __init__(self, ring, a, b, d):
        self.ring = ring
        self.a = a
        self.b = b
        self.d = d

    def is_zero(self):
        return not any(self.a) and not any(self.b)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self):
        """Whether this is a rational constant: no u-part, no zeta-part."""
        return not any(self.b) and not any(self.a[1:])

    def _coerce(self, other):
        """other as an element of this ring, or None if it is not one."""
        if isinstance(other, CurveScalar):
            if other.ring is not self.ring:
                raise ValueError(f"cannot mix scalars from {self.ring} and {other.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_fraction(other)
        return None

    def __add__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        if self.d == y.d:
            return self.ring._scalar(tuple(p + r for p, r in zip(self.a, y.a)),
                                     tuple(p + r for p, r in zip(self.b, y.b)), self.d)
        g = gcd(self.d, y.d)
        kx, ky = y.d // g, self.d // g
        return self.ring._scalar(tuple(kx * p + ky * r for p, r in zip(self.a, y.a)),
                                 tuple(kx * p + ky * r for p, r in zip(self.b, y.b)),
                                 kx * self.d)

    __radd__ = __add__

    def __neg__(self):
        return CurveScalar(self.ring, tuple(-p for p in self.a),
                           tuple(-p for p in self.b), self.d)

    def __sub__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        return self + (-y)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, n, e):
        """self * n / e for integers n and e > 0, in lowest terms."""
        b = self.b
        return self.ring._scalar(tuple([n * c for c in self.a]),
                                 tuple([n * c for c in b]) if any(b) else b, self.d * e)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other, 1)
        if isinstance(other, Fraction):
            return self._scaled(other.numerator, other.denominator)
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        if y.is_rational():
            return self._scaled(y.a[0], y.d)
        if self.is_rational():
            return y._scaled(self.a[0], self.d)
        ring = self.ring
        mul = ring._cyc_mul
        a1, b1, a2, b2 = self.a, self.b, y.a, y.b
        a = mul(a1, a2)
        if not any(b1):
            b = mul(a1, b2) if any(b2) else b2
        elif not any(b2):
            b = mul(b1, a2)
        else:
            # Karatsuba: a1 b2 + b1 a2 = (a1 + b1)(a2 + b2) - a1 a2 - b1 b2
            bb = mul(b1, b2)
            cross = mul(tuple(p + r for p, r in zip(a1, b1)),
                        tuple(p + r for p, r in zip(a2, b2)))
            b = tuple(c - p - r for c, p, r in zip(cross, a, bb))
            a = tuple(p + ring.q * r for p, r in zip(a, bb))
        return ring._scalar(a, b, self.d * y.d)

    __rmul__ = __mul__

    def inverse(self):
        ring = self.ring
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # (a + b u)^-1 = (a - b u) / (a^2 - q b^2), the d's cancel to one d
        mul = ring._cyc_mul
        a, b = self.a, self.b
        norm = tuple(p - ring.q * r for p, r in zip(mul(a, a), mul(b, b)))
        if not any(norm):
            raise ZeroDivisionError("zero divisor: sqrt(q) lies in Q(zeta_M)")
        c, e = ring._cyc_inv(norm)
        c = tuple(self.d * x for x in c)
        return ring._scalar(mul(a, c), tuple(-x for x in mul(b, c)), e)

    def __truediv__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        return self * y.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        ring = self.ring
        if k == 0:
            return ring.one
        base = self if k > 0 else self.inverse()
        k = abs(k)
        out = ring.one
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conjugate(self):
        """Complex conjugation sigma_(M-1): inverts roots of unity, fixes u."""
        ring = self.ring
        k = ring.m - 1
        return CurveScalar(ring, ring._galois(self.a, k), ring._galois(self.b, k), self.d)

    def __eq__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        return self.a == y.a and self.b == y.b and self.d == y.d

    def __hash__(self):
        if self.is_rational():
            # a rational constant hashes as the Fraction it equals
            return hash(Fraction(self.a[0], self.d))
        return hash((self.ring.q, self.ring.m, self.a, self.b, self.d))

    def reduce_mod(self, p: int, zeta_img: int, u_img: int) -> int:
        """Image under Q(zeta_M)[u] -> F_p, zeta -> zeta_img, u -> u_img.

        Exactness certificate helper for rank computations; requires the
        denominator prime to p (d is the lcm of the coordinate
        denominators) and valid images (zeta_img of order M,
        u_img^2 = q mod p).
        """
        if self.d % p == 0:
            raise ValueError("denominator divisible by p")
        acc = 0
        zp = 1
        for ca, cb in zip(self.a, self.b):
            acc += (ca + cb * u_img) * zp
            zp = (zp * zeta_img) % p
        return acc * pow(self.d, -1, p) % p

    def _coordinates(self, vec):
        return [Fraction(c, self.d) for c in vec]

    def __repr__(self):
        def side(vec, suffix):
            terms = []
            for k, c in enumerate(self._coordinates(vec)):
                if c:
                    z = f"z{self.ring.m}^{k}" if k else ""
                    body = "*".join(t for t in (str(c), z) if t) or "1"
                    terms.append(body + suffix)
            return terms

        terms = side(self.a, "") + side(self.b, "*u")
        return " + ".join(terms) if terms else "0"
