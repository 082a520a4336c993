"""Finite fields F_{p^n} as tables of interned elements.

Each field is built as F_p[T]/(f) for a deterministically chosen monic
irreducible f.  Building a field creates every element once, in the
``itertools.product`` order of its coefficient tuples (the iteration
order), and the arithmetic returns those shared objects by index
arithmetic mod p^n - 1 on discrete logs to the first primitive element g
in iteration order (``exp[k]`` is g^k; zero has no log).  Products,
inverses, quotients and powers add or scale logs; sums, differences and
negations go through the Zech table ``zech[k] = log(1 + g^k)``, since
g^a + g^b = g^(a + zech[b - a]), and -1 = g^((p^n - 1)/2) for odd p.
Square roots halve the log.  An element's index in iteration order
reads its coordinates as base-p digits, c_0 most significant, and
``element`` looks coordinates up by that index.  The power table walks
indices: x -> x g is F_p-linear, so the next index is read from tables of
the images of the high and the low half of the digits, and the Zech
table is index arithmetic on the top digit.  The walk keeps the index of
each power, so a square root, of the two +-z, takes the one of least index
by comparing two integers.  Every field, prime or not,
takes this one path; it costs O(p^n) memory per field built, the same
order as enumerating the field once.  Since each value of each field is
one object, equality and hash of elements are identity.

Fields are cached per (p, n); embeddings between fields of the same
characteristic are computed once by root-finding the subfield's defining
polynomial and then cached, so towers stay consistent.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product


def factor_prime_power(q: int) -> tuple[int, int]:
    """q = p^k with p prime; raises for other inputs."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q and q > 1:
            return (q, 1)
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return (p, k)
    raise ValueError(f"{q} is not a prime power")


# -- dense polynomial helpers over F_p (lists, low to high) -----------------


def _pmod(a, f, p):
    a = [c % p for c in a]
    df = len(f) - 1
    inv_lead = pow(f[df], p - 2, p)
    while len(a) - 1 >= df:
        da = len(a) - 1
        if a[da] == 0:
            a.pop()
            continue
        c = (a[da] * inv_lead) % p
        for k in range(df + 1):
            a[k + da - df] = (a[k + da - df] - c * f[k]) % p
        a.pop()
    return a


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _ppowmod(a, e, f, p):
    result = [1]
    base = _pmod(list(a), f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]
    while any(b):
        a = _pmod(a, _trim(b), p)
        a, b = b, a
    return _trim(a)


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _is_irreducible(f, p):
    """Rabin's test for a monic polynomial over F_p."""
    n = len(f) - 1
    x = [0, 1]
    xq = _ppowmod(x, p ** n, f, p)
    diff = _trim([(xq[k] if k < len(xq) else 0) - (x[k] if k < len(x) else 0)
                  for k in range(max(len(xq), 2))])
    if any(c % p for c in diff):
        return False
    for ell in _prime_divisors(n):
        xq = _ppowmod(x, p ** (n // ell), f, p)
        diff = [(xq[k] if k < len(xq) else 0) - (x[k] if k < len(x) else 0)
                for k in range(max(len(xq), 2))]
        g = _pgcd(f, diff, p)
        if len(g) - 1 != 0:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _find_irreducible(p, n):
    if n == 1:
        return [0, 1]
    # lexicographic scan over lower coefficients; constant term nonzero
    for tail in product(range(p), repeat=n - 1):
        for c0 in range(1, p):
            f = [c0] + list(tail) + [1]
            if _is_irreducible(f, p):
                return f
    raise RuntimeError("no irreducible polynomial found")


@lru_cache(maxsize=None)
def get_field(p: int, n: int) -> "FiniteField":
    return FiniteField(p, n)


class FiniteField:
    """F_{p^n} as a table of interned elements with discrete logs.

    Every element is built once, in iteration order; ``exp[k]`` is g^k for
    the primitive element g, ``zech[k]`` is the log of 1 + g^k (None
    where that is 0), ``neg_log`` is the log of -1, and each element
    stores its log.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.size = p ** n
        self.units = self.size - 1  # order of the multiplicative group
        self.modulus = _find_irreducible(p, n)
        self._elements = [FFElement(self, coeffs)
                          for coeffs in product(range(p), repeat=n)]
        self.zero = self._elements[0]
        self.one = self.element([1])
        self.exp, self.zech, self._exp_index = self._log_tables()
        # log(-1): g^(units/2) for odd p, and -1 = 1 for p = 2
        self.neg_log = self.units // 2 if p % 2 else 0
        self._embeddings: dict[tuple[int, int], dict] = {}

    def _log_tables(self) -> tuple[list, list, memoryview]:
        """(exp, zech, index) for the first primitive element g, index[k]
        the index of exp[k]; sets each element's log.

        x -> x g is F_p-linear, so the image of x is the image of the high
        digits of its index plus that of the low digits.  Both images are tabulated per half as digit vectors packed
        ``bits`` to a coordinate, room for the sum of two digits, so one
        integer add sums them and two table reads reduce the halves of that
        sum mod p to the digits of the next index (table lookup for
        F_p-linear maps, Arlazarov-Dinic-Kronrod-Faradzev).  1 + x changes
        only the top digit, so the walk also lists the element 1 + g^k,
        whose log is read once every log is set.
        """
        p, n, f, m = self.p, self.n, self.modulus, self.units
        ells = _prime_divisors(m)
        g = next(list(e.coeffs) for e in self._elements[1:]
                 if all(_trim(_ppowmod(list(e.coeffs), m // ell, f, p)) != [1]
                        for ell in ells))
        cols = [self.element(_pmod(_pmul([0] * i + [1], g, p), f, p)).coeffs
                for i in range(n)]
        low = n // 2
        high = n - low
        bits = (2 * p - 2).bit_length()

        def images(first, width):
            # packed image of each digit vector at positions first.., in order
            out = []
            for digits in product(range(p), repeat=width):
                word = 0
                for j in range(n):
                    word = word << bits | sum(
                        d * cols[first + i][j] for i, d in enumerate(digits)) % p
                out.append(word)
            return out

        def reducer(width):
            # packed digit sums (each below 2p - 1) -> index of the sums mod p
            table = [0] * (1 << bits * width)
            for sums in product(range(2 * p - 1), repeat=width):
                key = index = 0
                for d in sums:
                    key = key << bits | d
                    index = index * p + d % p
                table[key] = index
            return table

        img_hi, img_lo = images(0, high), images(high, low)
        red_hi, red_lo = reducer(high), reducer(low)
        shift = bits * low
        mask = (1 << shift) - 1
        scale = p ** low
        # one has index top; 1 + x has index i + top, or i - wrap once the
        # top digit of x is p - 1
        top = p ** (n - 1)
        wrap = (p - 1) * top
        elements = self._elements
        exp = []
        zech = []
        index = memoryview(bytearray(4 * m)).cast("I")
        hi, lo = divmod(top, scale)
        for k in range(m):
            i = hi * scale + lo
            e = elements[i]
            if e.log is not None:
                raise ArithmeticError(f"g^{k} repeats g^{e.log}: g is not primitive")
            e.log = k
            exp.append(e)
            index[k] = i
            zech.append(elements[i + top if i < wrap else i - wrap])
            word = img_hi[hi] + img_lo[lo]
            hi = red_hi[word >> shift]
            lo = red_lo[word & mask]
        for k, e in enumerate(zech):
            zech[k] = e.log
        return exp, zech, index

    def element(self, coeffs) -> "FFElement":
        """The element with these coordinates, low to high, found by its
        index (missing coordinates are 0, extra ones are dropped)."""
        index = 0
        for c in (list(coeffs) + [0] * self.n)[: self.n]:
            index = index * self.p + c % self.p
        return self._elements[index]

    def from_int(self, k: int) -> "FFElement":
        return self.element([k])

    def __iter__(self):
        return iter(self._elements)

    def sqrt(self, a: "FFElement"):
        """A square root of a, or None for a non-square.

        Of the two roots +-z the one first in iteration order, that is of
        least index; for p = 2 the root is unique (the unit group has odd
        order, so every log halves, and -z = z).
        """
        k = a.log
        if k is None:
            return self.zero
        if k % 2:
            if self.p != 2:
                return None
            k += self.units
        k //= 2
        j = (k + self.neg_log) % self.units  # the log of -z
        index = self._exp_index
        return self.exp[k if index[k] <= index[j] else j]

    def embedding_from(self, sub: "FiniteField") -> dict:
        """Field embedding as a dict {subfield element: image here}."""
        if sub.p != self.p or self.n % sub.n:
            raise ValueError("no embedding between these fields")
        key = (sub.p, sub.n)
        emb = self._embeddings.get(key)
        if emb is not None:
            return emb
        if sub.n == self.n:
            emb = {e: e for e in sub}
        elif sub.n == 1:
            emb = {e: self.from_int(e.coeffs[0]) for e in sub}
        else:
            # deterministic root of the subfield modulus in this field
            root = None
            for cand in self:
                acc = self.zero
                for c in reversed(sub.modulus):
                    acc = acc * cand + self.from_int(c)
                if acc == self.zero and cand != self.zero:
                    root = cand
                    break
            if root is None:
                raise ArithmeticError("subfield modulus has no root")
            emb = {}
            for e in sub:
                acc = self.zero
                for c in reversed(e.coeffs):
                    acc = acc * root + self.from_int(c)
                emb[e] = acc
        self._embeddings[key] = emb
        return emb

    def __repr__(self):
        return f"GF({self.p}^{self.n})"


class FFElement:
    """An element of F_{p^n}; created only by its field, one object each.

    ``coeffs`` are the coordinates in F_p[T]/(f), low to high; ``log`` is
    the discrete log to the field's primitive element, None for zero.
    Equality and hash are identity: two elements are equal exactly when
    they are the same value of the same field.
    """

    __slots__ = ("field", "coeffs", "log")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs
        self.log = None

    def is_zero(self):
        return self.log is None

    def __add__(self, other):
        # g^a + g^b = g^a (1 + g^(b - a)) = g^(a + zech[b - a])
        a, b = self.log, other.log
        if a is None:
            return other
        if b is None:
            return self
        f = self.field
        m = f.units
        z = f.zech[(b - a) % m]
        return f.zero if z is None else f.exp[(a + z) % m]

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self.log is None:
            return self
        f = self.field
        return f.exp[(self.log + f.neg_log) % f.units]

    def __mul__(self, other):
        f = self.field
        if self.log is None or other.log is None:
            return f.zero
        return f.exp[(self.log + other.log) % f.units]

    def inverse(self):
        if self.log is None:
            raise ZeroDivisionError("finite field inverse of zero")
        f = self.field
        return f.exp[-self.log % f.units]

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e):
        f = self.field
        if self.log is None:
            if e < 0:
                raise ZeroDivisionError("finite field inverse of zero")
            return f.one if e == 0 else f.zero
        return f.exp[self.log * e % f.units]

    def __repr__(self):
        return f"FF{self.field.p}^{self.field.n}{list(self.coeffs)}"
