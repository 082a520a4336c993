"""Finite fields F_{p^n} with exact element arithmetic.

Each field is built as F_p[T]/(f) for a deterministically chosen monic
irreducible f.  Fields are cached per (p, n); embeddings between fields of
the same characteristic are computed once by root-finding the subfield's
defining polynomial and then cached, so towers stay consistent.
"""

from __future__ import annotations

from functools import lru_cache


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
    from itertools import product
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
    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.size = p ** n
        self.modulus = _find_irreducible(p, n)
        self.zero = FFElement(self, (0,) * n)
        self.one = FFElement(self, (1,) + (0,) * (n - 1))
        self._embeddings: dict[tuple[int, int], dict] = {}

    def element(self, coeffs) -> "FFElement":
        coeffs = list(coeffs)[: self.n]
        coeffs += [0] * (self.n - len(coeffs))
        return FFElement(self, tuple(c % self.p for c in coeffs))

    def from_int(self, k: int) -> "FFElement":
        return self.element([k])

    def __iter__(self):
        from itertools import product
        for tup in product(range(self.p), repeat=self.n):
            yield FFElement(self, tup)

    def gen(self) -> "FFElement":
        if self.n == 1:
            return self.from_int(1)
        return self.element([0, 1])

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
            for cand in sorted(self, key=lambda e: e.coeffs):
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
    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs
        self._hash = None

    def is_zero(self):
        return not any(self.coeffs)

    def __add__(self, other):
        p = self.field.p
        return FFElement(self.field,
                         tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        p = self.field.p
        return FFElement(self.field,
                         tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        f = self.field
        if f.n == 1:
            return FFElement(f, ((self.coeffs[0] * other.coeffs[0]) % f.p,))
        prod = _pmul(list(self.coeffs), list(other.coeffs), f.p)
        red = _pmod(prod, f.modulus, f.p)
        red += [0] * (f.n - len(red))
        return FFElement(f, tuple(red[: f.n]))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("finite field inverse of zero")
        # extended Euclid against the modulus
        f = self.field
        p = f.p
        if f.n == 1:
            return FFElement(f, (pow(self.coeffs[0], p - 2, p),))
        r0, r1 = list(f.modulus), _trim(list(self.coeffs))
        s0, s1 = [0], [1]
        while len(r1) - 1 > 0 or (len(r1) == 1 and r1[0] != 0):
            if len(r0) < len(r1):
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            if len(r1) == 1:
                break
            inv_lead = pow(r1[-1], p - 2, p)
            quot_deg = len(r0) - len(r1)
            c = (r0[-1] * inv_lead) % p
            new_r0 = list(r0)
            for k in range(len(r1)):
                new_r0[k + quot_deg] = (new_r0[k + quot_deg] - c * r1[k]) % p
            new_s0 = list(s0) + [0] * max(0, len(s1) + quot_deg - len(s0))
            for k in range(len(s1)):
                new_s0[k + quot_deg] = (new_s0[k + quot_deg] - c * s1[k]) % p
            r0, s0 = _trim(new_r0) or [0], new_s0
            if len(r0) < len(r1):
                r0, r1, s0, s1 = r1, r0, s1, s0
        if not r1 or r1[0] == 0:
            raise ArithmeticError("element not invertible modulo the field modulus")
        inv_c = pow(r1[0], p - 2, p)
        out = [(inv_c * c) % p for c in s1]
        out += [0] * (f.n - len(out))
        return FFElement(f, tuple(out[: f.n]))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e):
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        result = f.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def frobenius(self, q: int) -> "FFElement":
        """The q-power map (q a power of the characteristic)."""
        return self ** q

    def __eq__(self, other):
        return (isinstance(other, FFElement) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.field), self.coeffs))
        return self._hash

    def __repr__(self):
        return f"FF{self.field.p}^{self.field.n}{list(self.coeffs)}"
