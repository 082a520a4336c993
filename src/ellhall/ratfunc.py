"""Exact rational-function arithmetic in two Laurent variables over Q.

The formal coefficient field for the loop-algebra computations is Q(s, sb),
where s and sb are square roots of the two deformation parameters.  Elements
are kept in a fully reduced canonical form, so ``==`` is syntactic:

    value = coef * s**shift[0] * sb**shift[1] * num / den

with ``coef`` a Fraction, ``num``/``den`` primitive integer polynomials
(integer content 1, positive leading coefficient under graded-lex, not
divisible by s or sb) and gcd(num, den) = 1.

Polynomials are sparse dicts {(i, j): int}.  GCDs are computed by a
primitive subresultant-style PRS, recursing through Z[s][sb].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# univariate integer polynomials: sparse dicts {exp: int}


def _udeg(a):
    return max(a) if a else -1


def _uadd(a, b):
    r = dict(a)
    for e, c in b.items():
        s = r.get(e, 0) + c
        if s:
            r[e] = s
        else:
            r.pop(e, None)
    return r


def _umul(a, b):
    r = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = r.get(e, 0) + ca * cb
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return r


def _uscale(a, k):
    if k == 0:
        return {}
    return {e: c * k for e, c in a.items()}


def _ucontent(a):
    g = 0
    for c in a.values():
        g = gcd(g, abs(c))
        if g == 1:
            break
    return g


def _uprim(a):
    g = _ucontent(a)
    if a and a[_udeg(a)] < 0:
        g = -g
    if g in (0, 1):
        return dict(a)
    return {e: c // g for e, c in a.items()}


def _udivexact(a, b):
    """Exact division of integer polynomials; raises if not exact."""
    if not a:
        return {}
    a = dict(a)
    db, lb = _udeg(b), b[_udeg(b)]
    q = {}
    while a:
        da = _udeg(a)
        if da < db:
            raise ArithmeticError("inexact univariate division")
        la = a[da]
        if la % lb:
            raise ArithmeticError("inexact univariate division")
        c = la // lb
        q[da - db] = c
        for e, cb in b.items():
            s = a.get(e + da - db, 0) - c * cb
            if s:
                a[e + da - db] = s
            else:
                a.pop(e + da - db, None)
    return q


def _ugcd(a, b):
    """Primitive-PRS gcd over Z; result primitive with positive lead."""
    a, b = _uprim(a), _uprim(b)
    if not a:
        return b
    if not b:
        return a
    if _udeg(a) < _udeg(b):
        a, b = b, a
    while b:
        # pseudo-remainder of a by b
        r = dict(a)
        db, lb = _udeg(b), b[_udeg(b)]
        while r and _udeg(r) >= db:
            dr = _udeg(r)
            lr = r[dr]
            r = _uadd(_uscale(r, lb), _uscale({e + dr - db: c for e, c in b.items()}, -lr))
        a, b = b, _uprim(r)
    return _uprim(a)


# ---------------------------------------------------------------------------
# bivariate integer polynomials: sparse dicts {(i, j): int}


def badd(a, b):
    r = dict(a)
    for m, c in b.items():
        s = r.get(m, 0) + c
        if s:
            r[m] = s
        else:
            r.pop(m, None)
    return r


def bneg(a):
    return {m: -c for m, c in a.items()}


def bmul(a, b):
    if len(a) > len(b):
        a, b = b, a
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


def _bshift(a, di, dj):
    if not di and not dj:
        return a
    return {(i + di, j + dj): c for (i, j), c in a.items()}


def _blead(a):
    """Leading monomial under graded-lex (total degree, then s-degree)."""
    return max(a, key=lambda m: (m[0] + m[1], m[0]))


def _bcontent_int(a):
    g = 0
    for c in a.values():
        g = gcd(g, abs(c))
        if g == 1:
            break
    return g


def _to_rec(a):
    """View {(i,j): c} as {j: s-poly}."""
    r = {}
    for (i, j), c in a.items():
        r.setdefault(j, {})[i] = c
    return r


def _from_rec(r):
    a = {}
    for j, p in r.items():
        for i, c in p.items():
            a[(i, j)] = c
    return a


def _rec_scale(r, upoly):
    return {j: _umul(p, upoly) for j, p in r.items()}


def _rec_divexact(r, upoly):
    return {j: _udivexact(p, upoly) for j, p in r.items()}


def _rec_add(r1, r2):
    out = {j: dict(p) for j, p in r1.items()}
    for j, p in r2.items():
        s = _uadd(out.get(j, {}), p)
        if s:
            out[j] = s
        else:
            out.pop(j, None)
    return out


def _rec_content(r):
    g = {}
    for p in r.values():
        g = _ugcd(g, p)
        if _udeg(g) == 0 and g.get(0) == 1:
            break
    return g


def _rec_prim(r):
    g = _rec_content(r)
    if _udeg(g) == 0 and g.get(0) == 1:
        return r
    return _rec_divexact(r, g)


def _rec_prem(a, b):
    """Pseudo-remainder in the sb variable with coefficients in Z[s]."""
    db = max(b)
    lb = b[db]
    r = {j: dict(p) for j, p in a.items()}
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        shifted = {j + dr - db: _umul(p, _uscale(lr, -1)) for j, p in b.items()}
        r = _rec_add(_rec_scale(r, lb), shifted)
    return r


def _bgcd_prs(a, b):
    """Primitive-PRS gcd (fallback path); inputs nonzero, non-monomial."""
    ca, cb = _bcontent_int(a), _bcontent_int(b)
    ra = _to_rec({m: c // ca for m, c in a.items()})
    rb = _to_rec({m: c // cb for m, c in b.items()})
    conta, contb = _rec_content(ra), _rec_content(rb)
    ra, rb = _rec_divexact(ra, conta), _rec_divexact(rb, contb)
    cont_g = _ugcd(conta, contb)
    if max(ra) < max(rb):
        ra, rb = rb, ra
    while rb:
        if max(rb) == 0:
            # common divisor must divide an sb-free primitive part
            rb = {}
            ra = {0: {0: 1}}
            break
        r = _rec_prem(ra, rb)
        ra, rb = rb, _rec_prim(r)
    prim_g = _from_rec(ra)
    g = bmul(prim_g, _from_rec({0: cont_g}))
    ig = _bcontent_int(g)
    if ig > 1:
        g = {m: c // ig for m, c in g.items()}
    return _bposlead(g)


def _beval_sb(a, xi):
    """Evaluate sb := xi, returning a univariate dict over s."""
    r = {}
    for (i, j), c in a.items():
        r[i] = r.get(i, 0) + c * xi ** j
    return {i: c for i, c in r.items() if c}


def _ueval(a, eta):
    v = 0
    for e, c in a.items():
        v += c * eta ** e
    return v


def _udigits(n, eta, maxexp):
    """Symmetric base-eta digit expansion of an integer."""
    digs = {}
    e = 0
    while n:
        if e > maxexp:
            return None
        d = n % eta
        if d > eta // 2:
            d -= eta
        if d:
            digs[e] = d
        n = (n - d) // eta
        e += 1
    return digs


def _ugcd_heu(a, b):
    """Heuristic univariate gcd over Z via integer evaluation; None on failure.

    A candidate passing both exact divisions is a common divisor but may a
    priori be non-maximal, so the caller recurses on the cofactors.
    """
    bound = max(max(abs(c) for c in a.values()), max(abs(c) for c in b.values()))
    eta = 2 * bound + 29
    dmax = min(_udeg(a), _udeg(b))
    for _ in range(4):
        g = gcd(_ueval(a, eta), _ueval(b, eta))
        cand = _udigits(g, eta, dmax)
        if cand is not None and cand:
            cand = _uprim(cand)
            try:
                qa = _udivexact(a, cand)
                qb = _udivexact(b, cand)
            except ArithmeticError:
                pass
            else:
                if _udeg(cand) > 0:
                    extra = ugcd(qa, qb)
                    if _udeg(extra) > 0:
                        cand = _umul(cand, extra)
                return cand
        eta = eta * 3 + 7
    return None


def ugcd(a, b):
    if not a:
        return _uprim(b)
    if not b:
        return _uprim(a)
    if len(a) == 1 or len(b) == 1:
        return {min(_trail(a), _trail(b)): gcd(_ucontent(a), _ucontent(b))}
    g = _ugcd_heu(a, b)
    if g is not None:
        return g
    return _ugcd(a, b)


def _trail(a):
    return min(a)


def _bgcd_heu(a, b):
    """Heuristic bivariate gcd via sb := xi collapse; None on failure."""
    bound = max(max(abs(c) for c in a.values()), max(abs(c) for c in b.values()))
    xi = 2 * bound + 29
    jmax = min(max(j for _, j in a), max(j for _, j in b))
    for _ in range(4):
        a1 = _beval_sb(a, xi)
        b1 = _beval_sb(b, xi)
        if not a1 or not b1:
            xi = xi * 3 + 7
            continue
        g1 = ugcd(a1, b1) if (len(a1) > 1 and len(b1) > 1) else (
            {min(_trail(a1), _trail(b1)): gcd(_ucontent(a1), _ucontent(b1))})
        # lift the univariate gcd back through base-xi digits
        cand = {}
        p = dict(g1)
        e = 0
        ok = True
        while p:
            if e > jmax:
                ok = False
                break
            rem = {}
            nxt = {}
            for i, c in p.items():
                d = c % xi
                if d > xi // 2:
                    d -= xi
                if d:
                    rem[i] = d
                q = (c - d) // xi
                if q:
                    nxt[i] = q
            for i, d in rem.items():
                cand[(i, e)] = d
            p = nxt
            e += 1
        if ok and cand:
            ig = _bcontent_int(cand)
            if ig > 1:
                cand = {m: c // ig for m, c in cand.items()}
            cand = _bposlead(cand)
            try:
                qa = bdivexact(a, cand)
                qb = bdivexact(b, cand)
            except ArithmeticError:
                pass
            else:
                if len(cand) > 1 or _blead(cand) != (0, 0):
                    # certified common divisor; maximality via cofactors
                    extra = bgcd(qa, qb)
                    if len(extra) > 1 or _blead(extra) != (0, 0):
                        cand = _bposlead(bmul(cand, extra))
                return cand
        xi = xi * 3 + 7
    return None


def bgcd(a, b):
    """GCD of bivariate integer polynomials, primitive, positive lead."""
    if not a:
        return _bposlead(dict(b))
    if not b:
        return _bposlead(dict(a))
    if len(a) == 1 or len(b) == 1:
        # monomial fast path
        mi = min(min(i for i, _ in a), min(i for i, _ in b))
        mj = min(min(j for _, j in a), min(j for _, j in b))
        g = gcd(_bcontent_int(a), _bcontent_int(b))
        return {(mi, mj): g}
    if a == b:
        ig = _bcontent_int(a)
        return _bposlead({m: c // ig for m, c in a.items()} if ig > 1 else dict(a))
    g = _bgcd_heu(a, b)
    if g is not None:
        return g
    return _bgcd_prs(a, b)


def _bposlead(a):
    if a and a[_blead(a)] < 0:
        return bneg(a)
    return a


def bdivexact(a, b):
    """Exact bivariate division; raises ArithmeticError if not exact."""
    if not a:
        return {}
    if len(b) == 1:
        (bi, bj), bc = next(iter(b.items()))
        out = {}
        for (i, j), c in a.items():
            if c % bc:
                raise ArithmeticError("inexact bivariate division")
            out[(i - bi, j - bj)] = c // bc
        return out
    ra = _to_rec(a)
    rb = _to_rec(b)
    db = max(rb)
    lb = rb[db]
    q = {}
    while ra:
        da = max(ra)
        if da < db:
            raise ArithmeticError("inexact bivariate division")
        qc = _udivexact(ra[da], lb)
        q[da - db] = qc
        sub = {j + da - db: _umul(p, _uscale(qc, -1)) for j, p in rb.items()}
        ra = _rec_add(ra, sub)
    return _from_rec(q)


_ONE_POLY = {(0, 0): 1}


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


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
    def make(coef: Fraction, shift, num, den, coprime=False):
        if not num or coef == 0:
            return _ZERO
        if not den:
            raise ZeroDivisionError("zero denominator")
        cn = _bcontent_int(num)
        if num[_blead(num)] < 0:
            cn = -cn
        cd = _bcontent_int(den)
        if den[_blead(den)] < 0:
            cd = -cd
        if cn != 1:
            num = {m: c // cn for m, c in num.items()}
        if cd != 1:
            den = {m: c // cd for m, c in den.items()}
        coef = coef * Fraction(cn, cd)
        ni = min(i for i, _ in num)
        nj = min(j for _, j in num)
        di = min(i for i, _ in den)
        dj = min(j for _, j in den)
        if ni or nj:
            num = _bshift(num, -ni, -nj)
        if di or dj:
            den = _bshift(den, -di, -dj)
        shift = (shift[0] + ni - di, shift[1] + nj - dj)
        if not coprime and len(num) > 0 and den != _ONE_POLY:
            g = bgcd(num, den)
            if g != _ONE_POLY:
                num = bdivexact(num, g)
                den = bdivexact(den, g)
        return FormalScalar(coef, shift, num, den, _normalized=True)

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return self.coef == 0

    def __bool__(self):
        return self.coef != 0

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.coef == 0:
            return other
        if other.coef == 0:
            return self
        g = bgcd(self.den, other.den) if self.den != _ONE_POLY or other.den != _ONE_POLY else _ONE_POLY
        d1p = bdivexact(self.den, g) if g != _ONE_POLY else self.den
        d2p = bdivexact(other.den, g) if g != _ONE_POLY else other.den
        c = _frac_gcd(self.coef, other.coef)
        t1 = self.coef / c
        t2 = other.coef / c
        if t1.denominator != 1 or t2.denominator != 1:
            raise ArithmeticError("coefficient gcd does not divide both coefficients")
        t1, t2 = t1.numerator, t2.numerator
        mi = min(self.shift[0], other.shift[0])
        mj = min(self.shift[1], other.shift[1])
        p1 = _bshift(bmul(self.num, d2p), self.shift[0] - mi, self.shift[1] - mj)
        p2 = _bshift(bmul(other.num, d1p), other.shift[0] - mi, other.shift[1] - mj)
        n = badd({m: t1 * v for m, v in p1.items()}, {m: t2 * v for m, v in p2.items()})
        d = bmul(bmul(g, d1p), d2p)
        return FormalScalar.make(c, (mi, mj), n, d)

    __radd__ = __add__

    def __neg__(self):
        if self.coef == 0:
            return self
        return FormalScalar(-self.coef, self.shift, self.num, self.den, _normalized=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
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
        if self.coef == 0 or other.coef == 0:
            return _ZERO
        coef = self.coef * other.coef
        shift = (self.shift[0] + other.shift[0], self.shift[1] + other.shift[1])
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # a monomial factor leaves the other's reduced num/den as they are
        if n2 == _ONE_POLY and d2 == _ONE_POLY:
            return FormalScalar(coef, shift, n1, d1, _normalized=True)
        if n1 == _ONE_POLY and d1 == _ONE_POLY:
            return FormalScalar(coef, shift, n2, d2, _normalized=True)
        if d2 != _ONE_POLY and n1 != _ONE_POLY:
            g = bgcd(n1, d2)
            if g != _ONE_POLY:
                n1, d2 = bdivexact(n1, g), bdivexact(d2, g)
        if d1 != _ONE_POLY and n2 != _ONE_POLY:
            g = bgcd(n2, d1)
            if g != _ONE_POLY:
                n2, d1 = bdivexact(n2, g), bdivexact(d1, g)
        return FormalScalar.make(coef, shift, bmul(n1, n2), bmul(d1, d2), coprime=True)

    __rmul__ = __mul__

    def inverse(self):
        if self.coef == 0:
            raise ZeroDivisionError("inverse of zero")
        return FormalScalar.make(1 / self.coef, (-self.shift[0], -self.shift[1]),
                                 self.den, self.num, coprime=True)

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
            self._hash = hash((self.coef, self.shift,
                               frozenset(self.num.items()), frozenset(self.den.items())))
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
        if self.coef == 0:
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
