"""Exact arithmetic in the Laurent ring Q[s^+-1, sb^+-1].

The formal coefficients of the loop-algebra computations are Laurent
polynomials with rational coefficients in s and sb, the square roots of the
two deformation parameters.  An element is kept as

    value = num / den

with ``num`` a sparse integer Laurent polynomial {(i, j): int}, the
coefficient of s^i sb^j, and ``den`` a nonzero integer.  Two rules make the
pair unique, so ``==`` is syntactic: num is in lowest terms against den
(gcd(den, coefficients of num) = 1), and the coefficient of the
lex-largest monomial of num, ``max(num)``, is positive, den carrying the
sign.  Zero is ({}, 1).

A ring suffices, and no polynomial gcd is needed.  The structure constants
c_i and kappa enter relation (2) and the straightening engine only as
divisors, and every quotient the engine forms is again a Laurent
polynomial.  Division by a monomial is a product with its inverse; division
by anything else is exact division (``bdivexact``), which raises
ArithmeticError unless the divisor divides.  So a wrong structure constant
shows as an error, never as a wrong value.

Both rules are cheap to keep.  Lex order is a monomial order on Z^2, so the
lead of a product is the product of the leads, hence positive, and -x shares
the num of x and negates den.  A product first cancels each den against the
coefficients of the other factor, as Fraction does; by Gauss's lemma the
content of a product is the product of the contents, so the product is then
in lowest terms.  A sum merges the numerators over a common den, then
divides out gcd(den, coefficients), one ``math.gcd`` call that is skipped
when den = +-1, together with the sign of the lead.

Printing (``repr``) writes the canonical form of Q(s, sb) that the package
has always printed: the integer content, signed as the graded-lex lead
(total degree, then s-degree), and the least exponents taken out, times a
primitive polynomial (``_canonical``).

``FormalScalar`` multiplies by a one-term numerator as a shift and scale
(``_bmul_term``).  ``bmul`` multiplies small operands term by term
(``_bmul_dict``, also the oracle of the tests) and large ones by Kronecker
substitution (``_kronecker``; D. Harvey, arXiv 0712.4046): each operand
becomes one integer, the two are multiplied once in C, and the product's
digits are read back.  The exponents of each variable are offset by their
least value in each operand and divided by the gcd g of all these offsets
(g = 1 when they are all 0; the engine's polynomials live in s^2 and sb^2,
so g is 2 or 4 there).  A term with compressed exponents (u, v) goes to slot
u W + v of w bytes, W being one more than the largest compressed
sb-exponent of the product.  A product coefficient is a sum of at most
min(len a, len b) products of one coefficient of each side, so its absolute
value is at most B = max|a| max|b| min(len a, len b); w in {1, 2, 4, 8} is
the least width with B < 2^(8w-1), and a B of 2^63 or more goes to the dict
loop, as does a product with more than two slots per term pair.

The packed product is exact.  Its compressed sb-exponents stay below W, so
distinct monomials get distinct slots.  Adding h = 2^(8w-1) to every slot
puts each digit c + h in [1, 2^8w), so no carry or borrow crosses a slot and
the base-2^8w digits of the biased product are exactly the c + h.  Flipping
the top bit of each digit (xor with the bias) leaves c in w-byte two's
complement, which a signed memoryview reads back; a slot that reads 0 holds
no term and is dropped.  An operand is packed the same way in reverse: its
coefficients are written as signed slots, and xor then subtraction of the
bias turn the unsigned reading into the operand's value at X = 2^8w.

Products on one frame share its monomials.  The frame of a packed value is
(i0, j0, gi, gj, rows, width): its least exponents, its steps and its shape.
``_frame`` builds the tuple of its slots' monomials once, and every product
on that frame is read off it, so the result dicts share their key tuples;
``_bias`` is kept per (w, n) the same way.  A ``FormalScalar`` computes the
summary of its numerator once and keeps it (``_summary``): its least and
largest exponents of s and of sb, its steps and its largest |coefficient|,
which ``_kronecker`` and the sum kernel below read.

A sum of products is one multiply-accumulate (``_packed_sum``, through
``FormalRing.sum_of_products``): sum_k +-a_k b_k becomes one value without
forming any a_k b_k.  All terms go over one denominator L, the lcm of the
den a_k den b_k, the k-th product scaled by m_k = L / (den a_k den b_k).
One frame holds every product: its least exponents are the least over all
products, its steps the gcd of every operand's steps and of each product's
least exponents less the frame's, and its width and rows cover every
product's box.  Each product is packed as in ``_kronecker``, each operand
from its own least exponents but on the frame's width (a one-term a_k is just
its coefficient), and the integer product is shifted left by the slots from
the frame's least exponents to the product's: each term of a_k b_k then sits
at its slot of the frame, since its compressed sb-exponent stays below the
width and no term crosses into the next row.  The integers, each times
+-m_k, are added, and the total is read back and brought to lowest terms once
(``_reduced``).  The sum is
exact: packing is linear, so the total is the packed numerator N of the sum
over L, and each coefficient of N is at most
B = sum_k m_k max|a_k| max|b_k| min(len a_k, len b_k) in absolute value; the
slot width w is the least with B < 2^(8w-1), so the biased digits of the
total carry across no slot and N reads back as for one product.  At a B of
2^63 or more, on a frame of more than ``_KRONECKER_MAX_FILL`` slots per term
pair, and below ``_KRONECKER_MIN_PAIRS`` term pairs in all, each product and
sum is formed on its own instead.

Exact division (``bdivexact``) packs a and b on the frame of a, W one more
than a's largest compressed sb-exponent, divides the two integers once and
reads a candidate q off the digits of the quotient Q on the frame of the
quotient (``_packed_quotient``).  It returns q only with a proof that q b = a:
the remainder A - Q B is 0; Q fits the slots of q, so q repacks to Q;
max|q| max|b| min(len q, len b) < 2^(8w-1), so the packed product of q and b
carries across no slot and is Q B = A; and the sb-exponents of q b stay below
W (its s-exponents stay in a's rows by the shape of q's frame), so q b lies
in a's frame, where packing is one-to-one.  Then q b and a pack to the same
integer, so they are equal.  A candidate that fits its slots but breaks
the carry bound is divided again in the slots its own coefficients need,
since a quotient can have larger coefficients than a.  Otherwise, and where
the quotient would need a negative exponent, b's frame overhangs a's or a
slot would need 64 bits, the heap loop (``_bdivexact_heap``) divides; it
alone raises ArithmeticError.
Unlike the product, the quotient has no fill rule: a sparse frame of a, as
in the engine's divisions by kappa, whose support is diagonal, still
divides faster packed than on the heap loop.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import compress, product
from math import gcd, lcm
from operator import itemgetter, mul

_ONE_POLY = {(0, 0): 1}


def bmul(a, b, sa=None, sb=None):
    """a b; sa and sb are the ``_summary`` of a and b where the caller
    keeps them."""
    if len(a) > len(b):
        a, b, sa, sb = b, a, sb, sa
    if len(a) * len(b) >= _KRONECKER_MIN_PAIRS:
        r = _kronecker(a, b, sa, sb)
        if r is not None:
            return r
    return _bmul_dict(a, b)


def _bmul_term(a, b):
    """a b for a one-term a: a shift and scale of b."""
    ((i, j), c), = a.items()
    if c == 1:
        return {(i + x, j + y): v for (x, y), v in b.items()}
    return {(i + x, j + y): c * v for (x, y), v in b.items()}


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
# replays the products of one cold pass (seed 1234, 2-vCPU VM, Python 3.11).
# Read off shared frames, with repeated operand pairs served by the engine's
# product table (BENCH_15_bmul.json, assoc-triples), the packed product takes
# 7%, 36%, 19% and 36% less time than the dict loop at 96-112, 112-128,
# 128-144 and 144-160 term pairs (12-27% less in another run), and 12% more
# at 64-96; on relation-sweep (BENCH_15_bmul_sweep.json) it takes 0-22% less
# from 96 to 160, less still above, and 27% more at 64-96.  The kernel that built each product's
# monomials afresh lost below 160 (BENCH_7_bmul.json, BENCH_9_bmul.json).  The same
# threshold sends a sum of products to _packed_sum, by its term pairs in all: replayed
# (BENCH_18_bmul.json, assoc-triples), packed sums take 46% more time than products and
# sums one by one at 64-96 and 8-50% less from 96 on.
_KRONECKER_MIN_PAIRS = 96

# Slots per term pair above which a product stays on the dict loop: a slot
# costs about half a term pair to unpack.  Replayed by slots per term pair,
# products of 160 or more term pairs with 2 to 3 slots took 37% (assoc-triples)
# and 60% (relation-sweep) longer packed; most have at most one and run 2.6x
# and 2.2x faster packed.  It also bounds the memory of a packed product.
_KRONECKER_MAX_FILL = 2

# Native signed slot format of each slot width in bytes.
_SLOT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _kronecker(a, b, sa=None, sb=None):
    """a b by Kronecker substitution, with len(a) <= len(b), or None when a
    coefficient could need 64 bits or the packed form would be too sparse.
    sa and sb are the ``_summary`` of a and b, computed when not given.

    See the module docstring for the packing and why the result is exact.
    """
    ia0, ia1, ja0, ja1, gia, gja, ma = sa or _summary(a)
    ib0, ib1, jb0, jb1, gib, gjb, mb = sb or _summary(b)
    w = _slot_width(ma * mb * len(a))
    if w is None:
        return None
    gi, gj = gcd(gia, gib) or 1, gcd(gja, gjb) or 1
    width = (ja1 - ja0 + jb1 - jb0) // gj + 1
    ra, rb = (ia1 - ia0) // gi + 1, (ib1 - ib0) // gi + 1
    rows = ra + rb - 1
    if rows * width > _KRONECKER_MAX_FILL * len(a) * len(b):
        return None
    c = (_pack(a, ia0, ja0, gi, gj, width, ra * width, w)
         * _pack(b, ib0, jb0, gi, gj, width, rb * width, w))
    return _unpack(c, _frame(ia0 + ib0, ja0 + jb0, gi, gj, rows, width), w)


def _summary(a):
    """(i0, i1, j0, j1, gi, gj, m) of a nonzero a: the least and largest
    exponents of s and of sb, the gcd of the offsets of the exponents of each
    variable from their least value (0 for a single value), and max|coefficient|."""
    ia, ja = zip(*a)
    i0, j0 = min(ia), min(ja)
    return (i0, max(ia), j0, max(ja), gcd(*[i - i0 for i in set(ia)]),
            gcd(*[j - j0 for j in set(ja)]), max(map(abs, a.values())))


def _slot_width(bound):
    """The least slot width w in {1, 2, 4, 8} bytes with bound < 2^(8w-1),
    or None."""
    for w in (1, 2, 4, 8):
        if bound < 1 << (8 * w - 1):
            return w
    return None


@lru_cache(maxsize=None)
def _frame(i0, j0, gi, gj, rows, width):
    """The monomials of the slots of a packed value, in slot order: slot
    u width + v holds s^(i0 + gi u) sb^(j0 + gj v).  Products share these
    key tuples, and overlapping frames share a monomial's one tuple."""
    one = _MONOMIALS.setdefault
    return tuple(one(m, m) for m in product(range(i0, i0 + gi * rows, gi),
                                            range(j0, j0 + gj * width, gj)))


_MONOMIALS = {}


@lru_cache(maxsize=None)
def _bias(w, n):
    """2^(8w-1) in each of n slots of w bytes."""
    return int.from_bytes((1 << (8 * w - 1)).to_bytes(w, sys.byteorder) * n, sys.byteorder)


def _pack(a, i0, j0, gi, gj, width, n, w):
    """The integer a(X^width, X) in the compressed exponents, X = 2^8w, as
    n slots of w bytes, slot 0 at s^i0 sb^j0."""
    buf = bytearray(n * w)
    slots = memoryview(buf).cast(_SLOT_FORMATS[w])
    for (i, j), c in a.items():
        slots[(i - i0) // gi * width + (j - j0) // gj] = c
    slots.release()
    bias = _bias(w, n)
    return (int.from_bytes(buf, sys.byteorder) ^ bias) - bias


def _unpack(c, monos, w):
    """The polynomial whose slots, one per monomial of monos, sum to c; its
    coefficients are the signed w-byte digits of c, zero slots dropped.
    OverflowError when c is out of range of len(monos) slots."""
    bias = _bias(w, len(monos))
    coefs = memoryview(((c + bias) ^ bias).to_bytes(len(monos) * w, sys.byteorder)).cast(
        _SLOT_FORMATS[w]).tolist()
    return dict(compress(zip(monos, coefs), coefs))


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

    The packed quotient (``_packed_quotient``) when it can prove its answer,
    else the heap loop (``_bdivexact_heap``), which alone raises.
    """
    if a and len(b) > 1:
        q = _packed_quotient(a, b)
        if q is not None:
            return q
    return _bdivexact_heap(a, b)


def _packed_quotient(a, b):
    """a / b by Kronecker substitution, or None unless proven.

    The candidate q is read off Q = A // B, A and B the packed a and b on the
    frame of a (see the module docstring for why it is exact).
    """
    ia0, ia1, ja0, ja1, gia, gja, ma = _summary(a)
    ib0, ib1, jb0, jb1, gib, gjb, mb = _summary(b)
    # q would need a negative exponent, or b's frame overhangs a's
    if ia0 < ib0 or ja0 < jb0 or ia1 - ia0 < ib1 - ib0 or ja1 - ja0 < jb1 - jb0:
        return None
    gi, gj = gcd(gia, gib) or 1, gcd(gja, gjb) or 1
    width = (ja1 - ja0) // gj + 1
    ra, rb = (ia1 - ia0) // gi + 1, (ib1 - ib0) // gi + 1
    w = _slot_width(ma * mb * len(b))
    while w is not None:
        c, r = divmod(_pack(a, ia0, ja0, gi, gj, width, ra * width, w),
                      _pack(b, ib0, jb0, gi, gj, width, rb * width, w))
        if r:
            return None
        try:
            q = _unpack(c, _frame(ia0 - ib0, ja0 - jb0, gi, gj, ra - rb + 1, width), w)
        except OverflowError:
            return None
        if max(map(_SB, q)) > ja1 - jb1:
            return None
        bound = max(map(abs, q.values())) * mb * min(len(q), len(b))
        if not bound >> (8 * w - 1):
            return q
        # q fits the slots, but q b could carry across them: the quotient
        # can have larger coefficients than a, so divide again in the
        # slots its own bound needs
        w = _slot_width(bound)
    return None


def _bdivexact_heap(a, b):
    """a / b by cancelling the lex-leading term of the remainder (its
    monomials kept in a heap) by the leading term of b, until nothing
    remains; ArithmeticError unless b divides a exactly.
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


class FormalScalar:
    """Element num / den of Q[s^+-1, sb^+-1] (see the module docstring)."""

    __slots__ = ("num", "den", "_hash", "_shape")

    def __init__(self, num, den):
        # num and den must already obey both rules: use FormalRing or _coerce
        self.num = num
        self.den = den
        self._hash = None
        self._shape = None

    def _summary(self):
        """The ``_summary`` of a nonzero num, computed once."""
        shape = self._shape
        if shape is None:
            shape = self._shape = _summary(self.num)
        return shape

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, da, b, db = self.num, self.den, other.num, other.den
        if not b:
            return self
        if not a:
            return other
        if da == db:
            n = _merge(a, b, 1)
        elif da == -db:
            n = _merge(a, b, -1)
        else:
            # over the common den da ka = db kb, rescaling only where it must
            g = gcd(da, db)
            ka, kb = db // g, da // g
            if ka == 1 or ka == -1:
                n = _merge(a, b, kb * ka)
            elif kb == 1 or kb == -1:
                n = _merge(b, a, ka * kb)
                da = db
            else:
                n = _merge({m: ka * c for m, c in a.items()}, b, kb)
                da *= ka
        return _reduced(n, da)

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return FormalScalar(self.num, -self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den and self.num == other.num:
            return _ZERO
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # the engine's coefficients are mostly the ring's one
        if self is _ONE:
            return other
        if other is _ONE:
            return self
        a, b = self.num, other.num
        if not a or not b:
            return _ZERO
        da, db = self.den, other.den
        if db != 1 and db != -1:
            g = gcd(db, *a.values())
            if g != 1:
                a = {m: c // g for m, c in a.items()}
                db //= g
        if da != 1 and da != -1:
            g = gcd(da, *b.values())
            if g != 1:
                b = {m: c // g for m, c in b.items()}
                da //= g
        if len(a) == 1:
            n = _bmul_term(a, b)
        elif len(b) == 1:
            n = _bmul_term(b, a)
        elif len(a) * len(b) < _KRONECKER_MIN_PAIRS:
            n = bmul(a, b)
        else:
            # the summaries bound the coefficients before the cancellation
            # above: a larger bound, so still a safe slot width
            n = bmul(a, b, self._summary(), other._summary())
        return FormalScalar(n, da * db)

    __rmul__ = __mul__

    def inverse(self):
        """The inverse of a monomial; ArithmeticError for any other value."""
        if len(self.num) != 1:
            if not self.num:
                raise ZeroDivisionError("inverse of zero")
            raise ArithmeticError("only a monomial is a unit of Q[s^+-1, sb^+-1]")
        ((i, j), c), = self.num.items()
        d = self.den
        return FormalScalar({(-i, -j): abs(d)}, c if d > 0 else -c)

    def __truediv__(self, other):
        """The exact quotient; ArithmeticError unless other divides self."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        b = other.num
        if len(b) < 2:
            return self * other.inverse()
        a = self.num
        if not a:
            return _ZERO
        # b / k, moved to the least exponents of a: then an exact quotient
        # is a polynomial, and the quotient of a by b is it moved back
        k = gcd(*b.values())
        di = min(a)[0] - min(b)[0]
        dj = min(a, key=_SB)[1] - min(b, key=_SB)[1]
        q = bdivexact(a, {(i + di, j + dj): c // k for (i, j), c in b.items()})
        if di or dj:
            q = {(i + di, j + dj): c for (i, j), c in q.items()}
        # a/da / (b/db) = q db / (k da)
        db = other.den
        if db != 1:
            q = {m: c * db for m, c in q.items()}
        return _reduced(q, k * self.den)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

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
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        if self._hash is None:
            num = self.num
            if len(num) < 2 and (not num or (0, 0) in num):
                # a rational constant hashes as the Fraction it equals
                self._hash = hash(Fraction(num.get((0, 0), 0), self.den))
            else:
                self._hash = hash((frozenset(num.items()), self.den))
        return self._hash

    # -- views ----------------------------------------------------------

    def __repr__(self):
        if not self.num:
            return "0"
        num, k, i0, j0 = _canonical(self.num)
        coef = Fraction(k, self.den)
        parts = []
        if coef != 1 or (num == _ONE_POLY and not i0 and not j0):
            parts.append(str(coef))
        if i0:
            parts.append(f"s^{i0}")
        if j0:
            parts.append(f"sb^{j0}")
        if num != _ONE_POLY:
            parts.append("(" + _poly_str(num) + ")")
        return "*".join(parts)


_SB = itemgetter(1)


def _merge(a, b, k):
    """The polynomial a + k b, as a new dict."""
    n = dict(a)
    get = n.get
    for m, c in b.items():
        c = get(m, 0) + k * c
        if c:
            n[m] = c
        else:
            del n[m]
    return n


def _reduced(n, den):
    """n / den with both rules restored (n a new dict, free to change)."""
    if not n:
        return _ZERO
    k = 1 if den == 1 or den == -1 else gcd(den, *n.values())
    if n[max(n)] < 0:
        k = -k
    if k != 1:
        for m, c in n.items():
            n[m] = c // k
        den //= k
    return FormalScalar(n, den)


def _packed_sum(pairs, negated=()):
    """The sum of a b over the pairs (a, b) of pairs minus that over
    negated, packed on one frame; None below _KRONECKER_MIN_PAIRS term pairs
    in all, on a frame of more than _KRONECKER_MAX_FILL slots per term pair,
    or at a 64-bit bound.

    See the module docstring for the frame and why the sum is exact.
    """
    live = []
    term_pairs = 0
    for sign, group in ((1, pairs), (-1, negated)):
        for a, b in group:
            la, lb = len(a.num), len(b.num)
            if la and lb:
                term_pairs += la * lb
                live.append((a, b, sign) if la <= lb else (b, a, sign))
    if term_pairs < _KRONECKER_MIN_PAIRS:
        return None
    if not live:
        return _ZERO
    # each product's exponent box, steps, coefficient bound and den
    gi = gj = 0
    i0 = j0 = i1 = j1 = None
    for k, (a, b, sign) in enumerate(live):
        sa, sb = a._summary(), b._summary()
        ia0, ia1, ja0, ja1, gia, gja, ma = sa
        ib0, ib1, jb0, jb1, gib, gjb, mb = sb
        pi0, pj0, pi1, pj1 = ia0 + ib0, ja0 + jb0, ia1 + ib1, ja1 + jb1
        if i0 is None:
            i0, j0, i1, j1 = pi0, pj0, pi1, pj1
        else:
            # the offset of each product's least exponents joins the steps
            gi, gj = gcd(gi, pi0 - i0), gcd(gj, pj0 - j0)
            i0, j0, i1, j1 = min(i0, pi0), min(j0, pj0), max(i1, pi1), max(j1, pj1)
        gi, gj = gcd(gi, gia, gib), gcd(gj, gja, gjb)
        live[k] = (a, b, sign, sa, sb, a.den * b.den, ma * mb * len(a.num))
    gi, gj = gi or 1, gj or 1
    rows, width = (i1 - i0) // gi + 1, (j1 - j0) // gj + 1
    if rows * width > _KRONECKER_MAX_FILL * term_pairs:
        return None
    den = lcm(*[x[5] for x in live])
    w = _slot_width(sum(abs(den // d) * bound for *_, d, bound in live))
    if w is None:
        return None
    total = 0
    bits = 8 * w
    for a, b, sign, sa, sb, d, _ in live:
        ia0, ia1, ja0 = sa[:3]
        ib0, ib1, jb0 = sb[:3]
        # a and b packed from their least exponents: their integer product
        # is a b packed from s^(ia0 + ib0) sb^(ja0 + jb0), shifted into place
        shift = ((ia0 + ib0 - i0) // gi * width + (ja0 + jb0 - j0) // gj) * bits
        if len(a.num) == 1:
            c = a.num[ia0, ja0]
        else:
            c = _pack(a.num, ia0, ja0, gi, gj, width, ((ia1 - ia0) // gi + 1) * width, w)
        c *= _pack(b.num, ib0, jb0, gi, gj, width, ((ib1 - ib0) // gi + 1) * width, w)
        total += sign * (den // d) * c << shift
    return _reduced(_unpack(total, _frame(i0, j0, gi, gj, rows, width), w), den)


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


_ZERO = FormalScalar({}, 1)
_ONE = FormalScalar(_ONE_POLY, 1)


def _rational(x, i=0, j=0):
    """The rational x times s^i sb^j."""
    x = Fraction(x)
    if not x:
        return _ZERO
    p, q = x.numerator, x.denominator
    return FormalScalar({(i, j): abs(p)}, q if p > 0 else -q)


def _coerce(x):
    if isinstance(x, FormalScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return _ONE if x == 1 else _rational(x)
    return NotImplemented


class FormalRing:
    """The Laurent ring Q[s^+-1, sb^+-1] with its distinguished generators.

    s and sb are square roots of the deformation parameters, so the
    parameters themselves are s**2 and sb**2, and the loop weight
    nu = 1/(s*sb), a unit.  Only monomials are units: a quotient by any
    other element is exact division, which raises ArithmeticError where the
    divisor does not divide.  The structure constants c_i and kappa divide
    every value the straightening engine divides by them.
    """

    def __init__(self):
        self.zero = _ZERO
        self.one = _ONE
        self.s = self.monomial(1, 0)
        self.sb = self.monomial(0, 1)
        self.nu = self.monomial(-1, -1)

    @staticmethod
    def sum_of_products(pairs, negated=(), times=mul):
        """The sum of a b over the pairs (a, b) of pairs, minus that over
        negated, as one value: one multiply-accumulate on one frame
        (``_packed_sum``) when it takes the sum, else each product through
        times and each sum on its own."""
        if len(pairs) == 1 and not negated:
            return times(*pairs[0])
        r = _packed_sum(pairs, negated)
        if r is not None:
            return r
        r = times(*pairs[0]) if pairs else _ZERO
        for a, b in pairs[1:]:
            r = r + times(a, b)
        for a, b in negated:
            r = r - times(a, b)
        return r

    @staticmethod
    def monomial(i, j, coef=1):
        return _rational(coef, i, j)

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

    def __eq__(self, other):
        return isinstance(other, FormalRing)

    def __hash__(self):
        return hash("FormalRing")

    def __repr__(self):
        return "FormalRing(Q(s,sb))"


FORMAL = FormalRing()
