"""Exact rational-function arithmetic in two Laurent variables over Q.

The formal coefficient field for the loop-algebra computations is Q(s, sb),
where s and sb are square roots of the two deformation parameters.  Elements
are kept in a fully reduced canonical form, so ``==`` is syntactic:

    value = coef * s**shift[0] * sb**shift[1] * num / den

with ``coef`` a Fraction, ``num``/``den`` primitive integer polynomials
(integer content 1, positive leading coefficient under graded-lex, not
divisible by s or sb) and gcd(num, den) = 1.

Polynomials are sparse dicts {(i, j): int}, the coefficient of s^i sb^j.
GCDs come from evaluating at integers and lifting the integer gcd back
(``_gcd``), each candidate certified by exact division (``bdivexact``).
``bcancel(a, b)`` returns the quotients of that certifying division,
(a/g, b/g) with g = gcd(a, b) of positive lead, or None when g = 1, so a
common factor is divided out once; when b divides a it returns a/b from
one exact division, with no gcd.

A product of canonical fractions needs no reduction after the cross
cancellation n1/d2 and n2/d1: by Gauss's lemma a product of primitive
polynomials is primitive; graded-lex is a monomial order, so the lead of a
product is the product of the leads, hence positive; s and sb are prime,
so a product of factors free of them is free of them; and each of n1, n2
is then coprime to each of d1, d2.  ``make`` finds the content, the sign
of the lead and the least exponents of each input in one pass
(``_canonical``).

Like terms (equal shift, num and den) add and subtract by their Fraction
coefficients alone: the sum keeps the summands' canonical shift, num and
den, or is zero, so it needs no merge and no ``make``.  Zero tests read the
integer numerator of ``coef``.

``bmul`` multiplies small operands term by term (``_bmul_dict``, also the
oracle of the tests) and large ones by Kronecker substitution
(``_kronecker``; D. Harvey, arXiv 0712.4046): each operand becomes one
integer, the two are multiplied once in C, and the product's digits are
read back.  The exponents of each variable are offset by their least value
in each operand and divided by the gcd g of all these offsets (g = 1 when
they are all 0; the engine's polynomials live in s^2 and sb^2, so g is 2 or
4 there).  A term with compressed exponents (u, v) goes to slot u W + v of
w bytes, W being one more than the largest compressed sb-exponent of the
product.  A product coefficient is a sum of at most min(len a, len b)
products of one coefficient of each side, so its absolute value is at most
B = max|a| max|b| min(len a, len b); w in {1, 2, 4, 8} is the least width
with B < 2^(8w-1), and a B of 2^63 or more goes to the dict loop, as does a
product with more than two slots per term pair.

The packed product is exact.  Its compressed sb-exponents stay below W, so
distinct monomials get distinct slots.  Adding h = 2^(8w-1) to every slot
puts each digit c + h in [1, 2^8w), so no carry or borrow crosses a slot and
the base-2^8w digits of the biased product are exactly the c + h.  Flipping
the top bit of each digit (xor with the bias) leaves c in w-byte two's
complement, which a signed memoryview reads back; a slot that reads 0 holds
no term and is dropped.  An operand is packed the same way in reverse: its
coefficients are written as signed slots, and xor then subtraction of the
bias turn the unsigned reading into the operand's value at X = 2^8w.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress, product
from math import gcd, isqrt

_ONE_POLY = {(0, 0): 1}


def bneg(a):
    return {m: -c for m, c in a.items()}


def bmul(a, b):
    if len(a) > len(b):
        a, b = b, a
    if len(a) * len(b) >= _KRONECKER_MIN_PAIRS:
        r = _kronecker(a, b)
        if r is not None:
            return r
    return _bmul_dict(a, b)


def _bmul_dict(a, b):
    """a b term by term: the oracle, and the path of small products."""
    r = {}
    for (ia, ja), ca in a.items():
        for (ib, jb), cb in b.items():
            m = (ia + ib, ja + jb)
            s = r.get(m, 0) + ca * cb
            if s:
                r[m] = s
            else:
                r.pop(m, None)
    return r


# Smallest product (term pairs) sent to _kronecker.  scripts/bench_bmul.py
# replays the products of one cold pass (seed 1234, 2-vCPU VM, Python 3.11;
# BENCH_7_bmul.json): on assoc-triples the packed product takes 28%, 9% and
# 13% longer than the dict loop at 96-112, 112-128 and 128-144 term pairs,
# and 4%, 7% and 29% less at 160-192, 192-256 and 256-512 (144-160 read -12%
# there and +1% in another run); on relation-sweep it breaks even at 160-192
# and wins from 192 on.
_KRONECKER_MIN_PAIRS = 160

# Slots per term pair above which a product stays on the dict loop: a slot
# costs about half a term pair to unpack.  Replayed by slots per term pair,
# products of 160 or more term pairs with 2 to 3 slots took 37% (assoc-triples)
# and 60% (relation-sweep) longer packed; most have at most one and run 2.6x
# and 2.2x faster packed.  It also bounds the memory of a packed product.
_KRONECKER_MAX_FILL = 2

# Native signed slot format of each slot width in bytes.
_SLOT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _kronecker(a, b):
    """a b by Kronecker substitution, with len(a) <= len(b), or None when a
    coefficient could need 64 bits or the packed form would be too sparse.

    See the module docstring for the packing and why the result is exact.
    """
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * len(a)
    for w in (1, 2, 4, 8):
        half = 1 << (8 * w - 1)
        if bound < half:
            break
    else:
        return None
    ia, ja = zip(*a)
    ib, jb = zip(*b)
    ia0, ja0, ib0, jb0 = min(ia), min(ja), min(ib), min(jb)
    gi = gcd(*[i - ia0 for i in set(ia)], *[i - ib0 for i in set(ib)]) or 1
    gj = gcd(*[j - ja0 for j in set(ja)], *[j - jb0 for j in set(jb)]) or 1
    width = (max(ja) - ja0 + max(jb) - jb0) // gj + 1
    ra, rb = (max(ia) - ia0) // gi + 1, (max(ib) - ib0) // gi + 1
    rows = ra + rb - 1
    n = rows * width
    if n > _KRONECKER_MAX_FILL * len(a) * len(b):
        return None
    c = (_pack(a, ia0, ja0, gi, gj, width, ra * width, w)
         * _pack(b, ib0, jb0, gi, gj, width, rb * width, w))
    bias = _bias(w, n)
    coefs = memoryview(((c + bias) ^ bias).to_bytes(n * w, sys.byteorder)).cast(
        _SLOT_FORMATS[w]).tolist()
    i0, j0 = ia0 + ib0, ja0 + jb0
    monos = product(range(i0, i0 + gi * rows, gi), range(j0, j0 + gj * width, gj))
    return dict(compress(zip(monos, coefs), coefs))


def _bias(w, n):
    """2^(8w-1) in each of n slots of w bytes."""
    return int.from_bytes((1 << (8 * w - 1)).to_bytes(w, sys.byteorder) * n, sys.byteorder)


def _pack(a, i0, j0, gi, gj, width, n, w):
    """The integer a(X^width, X) in the compressed exponents, X = 2^8w, as n
    slots of w bytes."""
    buf = bytearray(n * w)
    slots = memoryview(buf).cast(_SLOT_FORMATS[w])
    for (i, j), c in a.items():
        slots[(i - i0) // gi * width + (j - j0) // gj] = c
    slots.release()
    bias = _bias(w, n)
    return (int.from_bytes(buf, sys.byteorder) ^ bias) - bias


def _bscale(a, k):
    if k == 1:
        return a
    return {m: k * c for m, c in a.items()}


def _bprod(a, b):
    """bmul, handing back the other factor when one of them is 1."""
    if a == _ONE_POLY:
        return b
    if b == _ONE_POLY:
        return a
    return bmul(a, b)


def _blead(a):
    """Leading monomial under graded-lex (total degree, then s-degree)."""
    return max(a, key=lambda m: (m[0] + m[1], m[0]))


def _bposlead(a):
    if a and a[_blead(a)] < 0:
        return bneg(a)
    return a


def _content(a):
    g = 0
    for c in a.values():
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _canonical(a):
    """(p, k, i0, j0) with a = k s^i0 sb^j0 p and p canonical.

    One pass over the terms of the Laurent polynomial a finds its integer
    content k, signed as its graded-lex lead, and the least exponents i0, j0.
    """
    it = iter(a.items())
    (i0, j0), lc = next(it)
    li, ld, k = i0, i0 + j0, abs(lc)
    for (i, j), c in it:
        if k != 1:
            k = gcd(k, c)
        if i < i0:
            i0 = i
        if j < j0:
            j0 = j
        if i + j > ld or (i + j == ld and i > li):
            ld, li, lc = i + j, i, c
    if lc < 0:
        k = -k
    if k != 1 or i0 or j0:
        a = {(i - i0, j - j0): c // k for (i, j), c in a.items()}
    return a, k, i0, j0


def bdivexact(a, b):
    """The quotient a / b; ArithmeticError unless b divides a exactly.

    Cancels the lex-leading term of the remainder (its monomials kept in a
    heap) by the leading term of b, until nothing remains.
    """
    bm = max(b)
    lb = b[bm]
    rest = [(m, c) for m, c in b.items() if m != bm]
    r = dict(a)
    heap = [(-i, -j) for i, j in r]
    heapify(heap)
    q = {}
    while heap:
        i, j = heappop(heap)
        c = r.pop((-i, -j), 0)
        if not c:
            continue
        di, dj = -i - bm[0], -j - bm[1]
        if di < 0 or dj < 0 or c % lb:
            raise ArithmeticError("inexact polynomial division")
        k = c // lb
        q[(di, dj)] = k
        for (bi, bj), cb in rest:
            m = (bi + di, bj + dj)
            v = r.get(m, 0) - k * cb
            if not v:
                del r[m]
                continue
            if m not in r:
                heappush(heap, (-m[0], -m[1]))
            r[m] = v
    return q


def _bound(a):
    """A bound on every coefficient of every divisor of a in Z[s, sb].

    Mahler: a divisor h has |h_ij| <= C(d, i) C(e, j) M(h) <= 2^(d+e) M(a),
    d and e the partial degrees of a, and M(a) <= ||a||_2.
    """
    d = max(i for i, _ in a)
    e = max(j for _, j in a)
    return (isqrt(sum(c * c for c in a.values())) + 1) << (d + e)


def _evaluate(a, v, xi):
    """a with variable v (0: s, 1: sb) set to the integer xi."""
    r = {}
    for m, c in a.items():
        k = (m[0], 0) if v else (0, m[1])
        r[k] = r.get(k, 0) + c * xi ** m[v]
    return {m: c for m, c in r.items() if c}


def _lift(g, v, xi):
    """The polynomial with balanced base-xi digits that _evaluate maps to g."""
    half = xi // 2
    out = {}
    for m, c in g.items():
        e = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(m[0], e) if v else (e, m[1])] = d
            c = (c - d) // xi
            e += 1
    return out


def _gcd(a, b, v):
    """(g, a/g, b/g) for the gcd g in Z[s, sb], integer content included, of
    nonzero a and b in which no variable above v occurs (v = 1: s and sb;
    v = 0: s alone).  The cofactors are the quotients that certify g.

    The heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 1989),
    made exact.  With a and b primitive, v := xi maps them to polynomials
    in the variables below v, whose gcd gamma comes from this function one
    level down (integers at the bottom).  Its balanced base-xi digits are
    lifted into powers of v; the primitive part G of the lift is accepted
    once it divides a and b, and xi grows until one is.

    An xi at which an image is 0 (v - xi divides a or b, so finitely many
    xi) is skipped too.

    An accepted G is the gcd g.  xi starts above 2N, where N (``_bound``)
    bounds every coefficient of every common divisor of a and b.  Write
    g = G H.  g(xi) divides gamma = k G(xi), k the integer content of the
    lift, so H(xi) divides k: it is an integer, and |H(xi)| < xi/2 since k
    divides the digits.  H and the constant H(xi) then both have balanced
    digits and agree at xi, so H = H(xi), a constant dividing the
    primitive g: H = +-1.

    The loop ends.  Let A = a/g and B = b/g be the cofactors.  The gcd h of
    A(xi) and B(xi) divides their resultant in v, a fixed nonzero
    polynomial, so the coefficients of g h stay bounded as xi grows, and
    past that bound the lift of gamma = g(xi) h is g h itself.  Its
    primitive part is g whenever h is an integer, which fails only if xi
    is the v-coordinate of one of the finitely many common zeros of A and B.
    """
    if len(a) == 1 or len(b) == 1:
        # a monomial: the gcd is the largest monomial dividing both
        mi = min(min(i for i, _ in a), min(i for i, _ in b))
        mj = min(min(j for _, j in a), min(j for _, j in b))
        k = gcd(_content(a), _content(b))
        return ({(mi, mj): k},
                {(i - mi, j - mj): c // k for (i, j), c in a.items()},
                {(i - mi, j - mj): c // k for (i, j), c in b.items()})
    ca, cb = _content(a), _content(b)
    k = gcd(ca, cb)
    a = {m: c // ca for m, c in a.items()}
    b = {m: c // cb for m, c in b.items()}
    xi = 2 * min(_bound(a), _bound(b)) + 1
    while True:
        ea, eb = _evaluate(a, v, xi), _evaluate(b, v, xi)
        if ea and eb:
            cand = _lift(_gcd(ea, eb, v - 1)[0], v, xi)
            if len(cand) == 1 and (0, 0) in cand:
                return {(0, 0): k}, _bscale(a, ca // k), _bscale(b, cb // k)
            kc = _content(cand)
            cand = {m: c // kc for m, c in cand.items()}
            try:
                qa, qb = bdivexact(a, cand), bdivexact(b, cand)
            except ArithmeticError:
                pass
            else:
                return _bscale(cand, k), _bscale(qa, ca // k), _bscale(qb, cb // k)
        xi = 2 * xi + 1


def bgcd(a, b):
    """The gcd in Z[s, sb] of two polynomials, with positive graded-lex lead.

    Its integer content is the gcd of theirs, so it is primitive when both
    inputs are.
    """
    if not a or a == b:
        return _bposlead(dict(b))
    if not b:
        return _bposlead(dict(a))
    return _bposlead(_gcd(a, b, 1)[0])


def bcancel(a, b):
    """(a/g, b/g) for g = bgcd(a, b) of nonzero a and b, or None if g = 1.

    When b divides a, g is b up to sign, so an exact division by a b of
    two or more terms is tried first (every caller passes a canonical b,
    and most of them a multiple of it); otherwise the cofactors come from
    the exact divisions that certify g, so no division runs twice.
    """
    if a == b:
        if len(a) == 1 and a.get((0, 0)) in (1, -1):
            return None
        one = {(0, 0): -1} if a[_blead(a)] < 0 else _ONE_POLY
        return one, one
    if len(b) > 1:
        try:
            qa = bdivexact(a, b)
        except ArithmeticError:
            pass
        else:
            if b[_blead(b)] < 0:
                return bneg(qa), {(0, 0): -1}
            return qa, _ONE_POLY
    g, qa, qb = _gcd(a, b, 1)
    if g == _ONE_POLY:
        return None
    if g[_blead(g)] < 0:
        return bneg(qa), bneg(qb)
    return qa, qb


class FormalScalar:
    """Element of Q(s, sb) in reduced canonical form (syntactic equality)."""

    __slots__ = ("coef", "shift", "num", "den", "_hash")

    def __init__(self, coef, shift, num, den, _normalized=False):
        if not _normalized:
            raise TypeError("use FormalScalar.make / FormalRing constructors")
        self.coef = coef
        self.shift = shift
        self.num = num
        self.den = den
        self._hash = None

    # -- construction -------------------------------------------------

    @staticmethod
    def make(coef: Fraction, shift, num, den):
        if not num or not coef.numerator:
            return _ZERO
        if not den:
            raise ZeroDivisionError("zero denominator")
        num, cn, ni, nj = _canonical(num)
        den, cd, di, dj = _canonical(den)
        if cn != 1 or cd != 1:
            coef = coef * Fraction(cn, cd)
        shift = (shift[0] + ni - di, shift[1] + nj - dj)
        if den != _ONE_POLY:
            q = bcancel(num, den)
            if q is not None:
                num, den = q
        return FormalScalar(coef, shift, num, den, _normalized=True)

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.coef.numerator

    def __bool__(self):
        return self.coef.numerator != 0

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coef.numerator:
            return other
        if not other.coef.numerator:
            return self
        if self._like(other):
            return self._with_coef(self.coef + other.coef)
        # n1/d1 + n2/d2 = (n1 d2' + n2 d1') / (d1 d2') with di = g di'
        d1, d2 = self.den, other.den
        q = None if d1 == _ONE_POLY or d2 == _ONE_POLY else bcancel(d1, d2)
        d1p, d2p = q or (d1, d2)
        # a x + b y = g / (da db) * (c1 x + c2 y) with integers c1, c2
        a, b = self.coef, other.coef
        c1, c2 = a.numerator * b.denominator, b.numerator * a.denominator
        g = gcd(c1, c2)
        c1, c2 = c1 // g, c2 // g
        mi = min(self.shift[0], other.shift[0])
        mj = min(self.shift[1], other.shift[1])
        di, dj = self.shift[0] - mi, self.shift[1] - mj
        if c1 == 1 and di == dj == 0:
            n = dict(_bprod(self.num, d2p))
        else:
            n = {(i + di, j + dj): c1 * c for (i, j), c in _bprod(self.num, d2p).items()}
        di, dj = other.shift[0] - mi, other.shift[1] - mj
        for (i, j), c in _bprod(other.num, d1p).items():
            m = (i + di, j + dj)
            c = n.get(m, 0) + c2 * c
            if c:
                n[m] = c
            else:
                del n[m]
        return FormalScalar.make(Fraction(g, a.denominator * b.denominator), (mi, mj),
                                 n, _bprod(d1, d2p))

    __radd__ = __add__

    def _like(self, other):
        """Like terms: equal shift, numerator and denominator."""
        return self.shift == other.shift and self.num == other.num and self.den == other.den

    def _with_coef(self, c):
        """c s^shift num / den: canonical as it stands, or _ZERO."""
        if not c.numerator:
            return _ZERO
        return FormalScalar(c, self.shift, self.num, self.den, _normalized=True)

    def __neg__(self):
        return self._with_coef(-self.coef)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._like(other):
            return self._with_coef(self.coef - other.coef)
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # the engine's coefficients are mostly the ring's one
        if self is _ONE:
            return other
        if other is _ONE:
            return self
        if not self.coef.numerator or not other.coef.numerator:
            return _ZERO
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d2 != _ONE_POLY and n1 != _ONE_POLY:
            q = bcancel(n1, d2)
            if q is not None:
                n1, d2 = q
        if d1 != _ONE_POLY and n2 != _ONE_POLY:
            q = bcancel(n2, d1)
            if q is not None:
                n2, d1 = q
        # canonical already: see the module docstring
        return FormalScalar(self.coef * other.coef,
                            (self.shift[0] + other.shift[0], self.shift[1] + other.shift[1]),
                            _bprod(n1, n2), _bprod(d1, d2), _normalized=True)

    __rmul__ = __mul__

    def inverse(self):
        if not self.coef.numerator:
            raise ZeroDivisionError("inverse of zero")
        return FormalScalar(1 / self.coef, (-self.shift[0], -self.shift[1]),
                            self.den, self.num, _normalized=True)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k):
        if k == 0:
            return _ONE
        if k < 0:
            return self.inverse() ** (-k)
        r = _ONE
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b if k > 1 else b
            k >>= 1
        return r

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.coef == other.coef and self.shift == other.shift
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            if self.shift == (0, 0) and self.num == _ONE_POLY and self.den == _ONE_POLY:
                # a rational constant hashes as the Fraction it equals
                self._hash = hash(self.coef)
            else:
                self._hash = hash((self.coef, self.shift, frozenset(self.num.items()),
                                   frozenset(self.den.items())))
        return self._hash

    # -- views ----------------------------------------------------------

    @property
    def numerator(self):
        """Laurent polynomial {(i, j): Fraction} for the numerator."""
        c = Fraction(self.coef.numerator)
        si, sj = self.shift
        return {(i + si, j + sj): c * v for (i, j), v in self.num.items()}

    @property
    def denominator(self):
        c = Fraction(self.coef.denominator)
        return {m: c * v for m, v in self.den.items()}

    def evaluate(self, s_val: Fraction, sb_val: Fraction) -> Fraction:
        num = sum(Fraction(c) * s_val ** i * sb_val ** j for (i, j), c in self.num.items())
        den = sum(Fraction(c) * s_val ** i * sb_val ** j for (i, j), c in self.den.items())
        return self.coef * s_val ** self.shift[0] * sb_val ** self.shift[1] * num / den

    def __repr__(self):
        if not self.coef.numerator:
            return "0"
        parts = []
        if self.coef != 1 or (self.num == _ONE_POLY and self.den == _ONE_POLY
                              and self.shift == (0, 0)):
            parts.append(str(self.coef))
        if self.shift[0]:
            parts.append(f"s^{self.shift[0]}")
        if self.shift[1]:
            parts.append(f"sb^{self.shift[1]}")
        if self.num != _ONE_POLY:
            parts.append("(" + _poly_str(self.num) + ")")
        if self.den != _ONE_POLY:
            parts.append("(" + _poly_str(self.den) + ")^-1")
        return "*".join(parts) if parts else "1"


def _poly_str(a):
    terms = []
    for (i, j) in sorted(a, key=lambda m: (-(m[0] + m[1]), -m[0])):
        c = a[(i, j)]
        t = []
        if abs(c) != 1 or (i == 0 and j == 0):
            t.append(str(abs(c)))
        if i:
            t.append("s" + (f"^{i}" if i != 1 else ""))
        if j:
            t.append("sb" + (f"^{j}" if j != 1 else ""))
        terms.append(("-" if c < 0 else "+") + "*".join(t))
    out = "".join(terms)
    return out[1:] if out.startswith("+") else out


_ZERO = FormalScalar(Fraction(0), (0, 0), dict(_ONE_POLY), dict(_ONE_POLY), _normalized=True)
_ONE = FormalScalar(Fraction(1), (0, 0), dict(_ONE_POLY), dict(_ONE_POLY), _normalized=True)


def _coerce(x):
    if isinstance(x, FormalScalar):
        return x
    if isinstance(x, (int, Fraction)):
        if x == 0:
            return _ZERO
        return FormalScalar(Fraction(x), (0, 0), dict(_ONE_POLY), dict(_ONE_POLY),
                            _normalized=True)
    return NotImplemented


class FormalRing:
    """The field Q(s, sb) with its distinguished generators.

    s and sb are square roots of the deformation parameters, so the
    parameters themselves are s**2 and sb**2, and the loop weight
    nu = 1/(s*sb).
    """

    backend = "formal"

    def __init__(self):
        self.zero = _ZERO
        self.one = _ONE
        self.s = self.monomial(1, 0)
        self.sb = self.monomial(0, 1)
        self.nu = self.monomial(-1, -1)

    @staticmethod
    def monomial(i, j, coef=1):
        c = Fraction(coef)
        if c == 0:
            return _ZERO
        return FormalScalar(c, (i, j), dict(_ONE_POLY), dict(_ONE_POLY), _normalized=True)

    def from_int(self, k):
        return _coerce(k)

    def from_fraction(self, fr):
        return _coerce(Fraction(fr))

    # -- structure constants of the loop algebra ---------------------------

    def nu_integer(self, r: int) -> FormalScalar:
        """The nu-integer [r] = (nu^r - nu^-r)/(nu - nu^-1); [1] = 1."""
        if r < 1:
            raise ValueError("r must be >= 1")
        nu = self.nu
        # geometric form avoids a division
        return sum((nu ** (r - 1 - 2 * k) for k in range(r)), self.zero)

    def kappa(self, n: int) -> FormalScalar:
        """kappa = n (nu^-1 - nu), the scale of relation (2) at twist n."""
        return (self.nu.inverse() - self.nu) * n

    def c_coefficient(self, i: int) -> FormalScalar:
        """c_i = (s^i - s^-i)(sb^i - sb^-i) [i] / i."""
        if i < 1:
            raise ValueError("i must be >= 1")
        s, sb = self.s, self.sb
        return ((s ** i - s ** (-i)) * (sb ** i - sb ** (-i))
                * self.nu_integer(i) * Fraction(1, i))

    def alpha_coefficient(self, i: int) -> FormalScalar:
        """alpha_i = (1 - s^2i)(1 - sb^2i)(1 - (s sb)^-2i) / i."""
        if i < 1:
            raise ValueError("i must be >= 1")
        s, sb = self.s, self.sb
        one = self.one
        return ((one - s ** (2 * i)) * (one - sb ** (2 * i))
                * (one - (s * sb) ** (-2 * i)) * Fraction(1, i))

    def __eq__(self, other):
        return isinstance(other, FormalRing)

    def __hash__(self):
        return hash("FormalRing")

    def __repr__(self):
        return "FormalRing(Q(s,sb))"


FORMAL = FormalRing()
