"""Elliptic curves over finite fields, exactly.

Covers point enumeration over the extension tower, the chord-tangent group
law transported from the degree-0 Picard group (the rational origin x0 is
the point at infinity and the neutral element), Frobenius orbits giving the
closed points, Picard group structure with discrete-log tables, character
groups with Frobenius action and relative norm maps, primitivity of
character orbits, twisted averages rho~(x), and zeta functions.

Points of every level are either None (infinity) or (x, y) pairs of
finite-field elements.  Field elements are interned, so a point is its own
dict key.  Picard orders and discrete-log tables come from walks: repeated
addition of one point, and coset walks of the generators.  Character
values live in the cyclotomic scalar rings of :mod:`ellhall.cyclotomic`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, repeat
from math import gcd, lcm

from .cyclotomic import frobenius_trace
from .finitefield import factor_prime_power, get_field
from .scalars import TruncatedSeries


MAX_FIELD_SIZE = 10 ** 6  # the largest field F_{q^n} a curve enumerates


class BudgetExceeded(RuntimeError):
    pass


class IdentityMismatch(AssertionError):
    """Two independent routes to an exact value disagree.

    Raised explicitly, so the checks still fire under ``python -O``.
    """


class CurveData:
    """A smooth Weierstrass curve y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Coefficients are integers reduced into the prime field; the base field
    F_q must be a prime field or have its coefficients in the prime field.
    """

    def __init__(self, q, a1=0, a2=0, a3=0, a4=0, a6=0):
        self.q = q
        self.p, self.k = factor_prime_power(q)
        self.a_ints = (a1, a2, a3, a4, a6)
        self._levels: dict[int, _Level] = {}
        self._closed: list[list] = [[]]  # degree-indexed, [0] unused
        self._above: dict[tuple, tuple] = {}  # (x.key(), n) -> points_above
        self._picard: dict[int, PicardGroup] = {}
        base = self.level(1)
        if self._discriminant(base).is_zero():
            raise ValueError("singular curve: discriminant vanishes")
        self.trace = q + 1 - len(base.points)

    @staticmethod
    def _discriminant(level):
        a1, a2, a3, a4, a6 = level.a
        two = level.field.from_int(2)
        three = level.field.from_int(3)
        four = two * two
        b2 = a1 * a1 + four * a2
        b4 = two * a4 + a1 * a3
        b6 = a3 * a3 + four * a6
        b8 = (a1 * a1 * a6 + four * a2 * a6 - a1 * a3 * a4
              + a2 * a3 * a3 - a4 * a4)
        nine = three * three
        return (-(b2 * b2) * b8 - two ** 3 * b4 ** 3 - nine * three * b6 * b6
                + nine * b2 * b4 * b6)

    # -- levels and enumeration ------------------------------------------

    def level(self, n: int) -> "_Level":
        lv = self._levels.get(n)
        if lv is None:
            if self.q ** n > MAX_FIELD_SIZE:
                raise BudgetExceeded(f"field size q^{n} exceeds budget")
            lv = _Level(self, n)
            self._levels[n] = lv
        return lv

    def points(self, n: int) -> list:
        return self.level(n).points

    def count_points(self, n: int) -> int:
        """#X(F_{q^n}) by enumeration (cheap levels are cached)."""
        return len(self.points(n))

    def count_via_trace(self, n: int) -> int:
        return self.q ** n + 1 - frobenius_trace(self.q, self.trace, n)

    # -- group law ----------------------------------------------------------

    def add(self, n: int, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        lv = self.level(n)
        a1, a2, a3, a4, a6 = lv.a
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if y2 == -y1 - a1 * x1 - a3:
                return None
            two = lv.field.from_int(2)
            three = lv.field.from_int(3)
            den = two * y1 + a1 * x1 + a3
            lam = (three * x1 * x1 + two * a2 * x1 + a4 - a1 * y1) / den
            nu = (-(x1 ** 3) + a4 * x1 + two * a6 - a3 * y1) / den
        else:
            den = x2 - x1
            lam = (y2 - y1) / den
            nu = (y1 * x2 - y2 * x1) / den
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        y3 = -(lam + a1) * x3 - nu - a3
        return (x3, y3)

    # -- Frobenius and embeddings -------------------------------------------

    def frobenius(self, n: int, P, times: int = 1):
        """The base q-power Frobenius on level-n points."""
        if P is None:
            return None
        e = pow(self.q, times, self.q ** n - 1) if self.q ** n > 2 else self.q ** times
        x, y = P
        return (x ** e, y ** e)

    def embed_point(self, m: int, n: int, P):
        if n % m:
            raise ValueError("embedding requires m | n")
        if P is None or m == n:
            return P
        emb = self.level(n).field.embedding_from(self.level(m).field)
        return (emb[P[0]], emb[P[1]])

    def restrict_point(self, n: int, m: int, P):
        """Inverse of embed_point on the image of X(F_{q^m})."""
        if P is None or m == n:
            return P
        down = self.level(n)._down_maps.get(m)
        if down is None:
            emb = self.level(n).field.embedding_from(self.level(m).field)
            down = {v: k for k, v in emb.items()}
            self.level(n)._down_maps[m] = down
        return (down[P[0]], down[P[1]])

    # -- closed points ---------------------------------------------------------

    def closed_points(self, max_degree: int) -> list["ClosedPoint"]:
        """All closed points of degree <= max_degree, deterministic order."""
        while len(self._closed) - 1 < max_degree:
            d = len(self._closed)
            pts = sorted(self.points(d), key=_point_sort_key)
            proper = [e for e in range(1, d) if d % e == 0]
            seen = set()
            out = []
            for P in pts:
                if P in seen:
                    continue
                if any(self.frobenius(d, P, e) == P for e in proper):
                    seen.add(P)  # lives at a lower level
                    continue
                orbit = [P]
                cur = self.frobenius(d, P)
                while cur != P:
                    orbit.append(cur)
                    cur = self.frobenius(d, cur)
                if len(orbit) != d:
                    raise IdentityMismatch(f"Frobenius orbit of size {len(orbit)}, not {d}")
                seen.update(orbit)
                out.append(ClosedPoint(self, d, min(orbit, key=_point_sort_key),
                                       len(out)))
            self._closed.append(out)
        result = []
        for d in range(1, max_degree + 1):
            result.extend(self._closed[d])
        return result

    def closed_point(self, key) -> "ClosedPoint":
        """The closed point x with x.key() == key, by index."""
        deg, idx = key
        if len(self._closed) <= deg:
            self.closed_points(deg)
        return self._closed[deg][idx]

    def points_above(self, x: "ClosedPoint", n: int) -> tuple:
        """Degree-0 classes of the closed points of the level-n curve over x.

        Returned as points of X(F_{q^n}): the group-law sum of one Frobenius
        coset of geometric points above x, one entry per closed point above.
        Computed once per (x, n) and cached on the curve.
        """
        key = (x.key(), n)
        cached = self._above.get(key)
        if cached is not None:
            return cached
        f = x.degree
        d = gcd(f, n)
        big = lcm(f, n)
        y = self.embed_point(f, big, x.rep)
        self._above[key] = cached = tuple(
            self.norm_points(n, big, self.frobenius(big, y, i)) for i in range(d))
        return cached

    def norm_points(self, m: int, n: int, P):
        """Relative norm X(F_{q^n}) -> X(F_{q^m}) for m | n."""
        if n % m:
            raise ValueError("norm requires m | n")
        Pn = P
        acc = None
        for i in range(n // m):
            acc = self.add(n, acc, self.frobenius(n, Pn, m * i))
        return self.restrict_point(n, m, acc)

    # -- Picard structure and characters -----------------------------------

    def picard(self, n: int) -> "PicardGroup":
        pic = self._picard.get(n)
        if pic is None:
            pic = PicardGroup(self, n)
            self._picard[n] = pic
        return pic

    def zeta_series(self, n: int, order: int) -> list[Fraction]:
        """Coefficients of zeta_{X_n}(t) up to t^order, exactly."""
        qn = self.q ** n
        num = [Fraction(1), Fraction(-frobenius_trace(self.q, self.trace, n)), Fraction(qn)]

        def geo(j):
            # 1/((1-t)(1-qn t)) = sum_j (qn^{j+1}-1)/(qn-1) t^j
            return Fraction(qn ** (j + 1) - 1, qn - 1)

        return [sum(num[i] * geo(k - i) for i in range(3) if k - i >= 0)
                for k in range(order + 1)]

    def zeta_rational(self, n: int):
        """((1 - a_n t + q^n t^2), (1 - t)(1 - q^n t)) coefficient lists."""
        qn = self.q ** n
        return [1, -frobenius_trace(self.q, self.trace, n), qn], [1, -(1 + qn), qn]

    def zeta_truncated(self, n: int, order: int) -> TruncatedSeries:
        return TruncatedSeries(
            {k: v for k, v in enumerate(self.zeta_series(n, order))},
            order, Fraction(1))

    def __repr__(self):
        a1, a2, a3, a4, a6 = self.a_ints
        return f"CurveData(q={self.q}, a=[{a1},{a2},{a3},{a4},{a6}])"


def _point_sort_key(P):
    if P is None:
        return ()
    return (P[0].coeffs, P[1].coeffs)


class _Level:
    """Per-extension data: field, embedded coefficients, point list."""

    def __init__(self, curve: CurveData, n: int):
        self.curve = curve
        self.n = n
        self.field = get_field(curve.p, curve.k * n)
        f = self.field
        self.a = tuple(f.from_int(c) for c in curve.a_ints)
        self._down_maps: dict[int, dict] = {}
        self.points = self._enumerate()

    def _enumerate(self):
        f = self.field
        a1, a2, a3, a4, a6 = self.a
        xs = list(f)
        # d = x^3 + a2 x^2 + a4 x + a6 and c = a1 x + a3 without their zero
        # terms: x + 0 returns x without a Zech read, so every sum left is
        # the one it was; with a1 = 0, c and what is built from it are
        # computed once
        ds = [x ** 3 for x in xs]
        if not a2.is_zero():
            ds = [d + a2 * x * x for d, x in zip(ds, xs)]
        if not a4.is_zero():
            ds = [d + a4 * x for d, x in zip(ds, xs)]
        if not a6.is_zero():
            ds = [d + a6 for d in ds]
        cs = None if a1.is_zero() else [a1 * x + a3 for x in xs]
        pts = [None]
        if f.p == 2:
            artin = {}
            for z in xs:
                key = z * z + z
                if key not in artin:
                    artin[key] = z
            if cs is None:
                cs, c2s = repeat(a3), repeat(a3 * a3)
            else:
                c2s = [c * c for c in cs]
            for x, d, c, c2 in zip(xs, ds, cs, c2s):
                if c.is_zero():
                    pts.append((x, f.sqrt(d)))
                else:
                    w = artin.get(d / c2)
                    if w is not None:
                        cw = c * w
                        pts.append((x, cw))
                        pts.append((x, cw + c))
        else:
            # y = -c/2 +- sqrt(d + c^2/4)
            inv2 = f.from_int(2).inverse()
            if cs is None:
                h2 = a3 * a3 * inv2 * inv2
                hs = repeat(-a3 * inv2)
                discs = ds if h2.is_zero() else [d + h2 for d in ds]
            else:
                hs = [-c * inv2 for c in cs]
                discs = [d + c * c * inv2 * inv2 for d, c in zip(ds, cs)]
            if cs is None and a3.is_zero():
                # h = -c/2 is identically zero: y = +-z
                for x, disc in zip(xs, discs):
                    z = f.sqrt(disc)
                    if z is not None:
                        pts.append((x, z))
                        if not z.is_zero():
                            pts.append((x, -z))
            else:
                for x, disc, h in zip(xs, discs, hs):
                    z = f.sqrt(disc)
                    if z is None:
                        continue
                    if z.is_zero():
                        pts.append((x, h))
                    else:
                        pts.append((x, h + z))
                        pts.append((x, h - z))
        return pts


class ClosedPoint:
    """Frobenius orbit of a geometric point; degree = orbit size."""

    __slots__ = ("curve", "degree", "rep", "index")

    def __init__(self, curve, degree, rep, index):
        self.curve = curve
        self.degree = degree
        self.rep = rep
        self.index = index

    def key(self):
        return (self.degree, self.index)

    def __eq__(self, other):
        return (isinstance(other, ClosedPoint) and self.curve is other.curve
                and self.key() == other.key())

    def __hash__(self):
        return hash((id(self.curve), self.key()))

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return f"x[{self.degree}.{self.index}]"


class PicardGroup:
    """Structure of Pic^0(X_n) = X(F_{q^n}) with a discrete-log table.

    Orders come from walks P, 2P, ... over the points in ``_point_sort_key``
    order, each started only at a point no earlier walk reached: if P has
    order m, its j-th multiple has order m / gcd(j, m).  g2 is the first
    point whose order is the exponent, and for rank 2, g1 the first of
    order N / exponent with no nonzero multiple in <g2>.  ``dlog`` maps
    each point, its own key, to its exponents against the generators; it
    is built by coset walks, of g2 from O and then of g1 from every point
    of <g2>.
    """

    def __init__(self, curve: CurveData, n: int):
        self.curve = curve
        self.n = n
        pts = sorted(curve.points(n), key=_point_sort_key)
        N = len(pts)
        orders = {None: 1}
        for P in pts:
            if P in orders:
                continue
            walk = []  # P, 2P, ..., (m - 1)P
            acc = P
            while acc is not None:
                walk.append(acc)
                if len(walk) == N:
                    raise IdentityMismatch(f"a point of order above the group order {N}")
                acc = curve.add(n, acc, P)
            m = len(walk) + 1
            for j, Q in enumerate(walk, 1):
                orders[Q] = m // gcd(j, m)
        exponent = lcm(*(orders[P] for P in pts))
        if N % exponent:
            raise IdentityMismatch(f"group exponent {exponent} does not divide order {N}")
        d2 = exponent
        d1 = N // exponent
        if d2 % d1:
            raise IdentityMismatch("not a rank-2 abelian group shape")
        self.exponent = exponent
        g2 = next(P for P in pts if orders[P] == d2)
        self.dlog = self._coset_walks({None: ()}, g2, d2)
        if d1 == 1:
            self.divisors = (d2,)
            self.generators = (g2,)
        else:
            g1 = None
            for P in pts:
                if orders[P] != d1:
                    continue
                acc = P
                for _ in range(d1 - 1):
                    if acc in self.dlog:
                        break
                    acc = curve.add(n, acc, P)
                else:
                    g1 = P
                    break
            if g1 is None:
                raise IdentityMismatch("no complementary generator found")
            self.dlog = self._coset_walks(self.dlog, g1, d1)
            self.divisors = (d1, d2)
            self.generators = (g1, g2)
        if len(self.dlog) != N:
            raise IdentityMismatch(f"discrete-log table has {len(self.dlog)} entries, not {N}")

    def _coset_walks(self, table, g, d):
        """{Q + i g: (i, *e)} over the entries Q: e of table and 0 <= i < d."""
        out = {}
        for Q, e in table.items():
            for i in range(d):
                if i:
                    Q = self.curve.add(self.n, Q, g)
                if Q in out:
                    raise IdentityMismatch("generators do not span freely")
                out[Q] = (i, *e)
        return out

    def log(self, P):
        return self.dlog[P]

    def __repr__(self):
        return (f"PicardGroup(level={self.n}, "
                + " x ".join(f"Z/{d}" for d in self.divisors) + ")")


class Character:
    """Character of Pic^0(X_n), stored by exponents against the generators."""

    __slots__ = ("curve", "level", "exps")

    def __init__(self, curve, level, exps):
        self.curve = curve
        self.level = level
        self.exps = tuple(e % d for e, d in zip(exps, curve.picard(level).divisors))

    def value_exponent(self, P) -> int:
        """rho(P) = zeta_M^(this), M the group exponent of the level."""
        pic = self.curve.picard(self.level)
        logs = pic.log(P)
        m = pic.exponent
        return sum(e * v * (m // d)
                   for e, v, d in zip(self.exps, logs, pic.divisors)) % m

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exps)

    def frobenius(self) -> "Character":
        """The dual Frobenius action: rho -> rho o Fr."""
        curve, n = self.curve, self.level
        pic = curve.picard(n)
        m = pic.exponent
        new = []
        for g, d in zip(pic.generators, pic.divisors):
            e = self.value_exponent(curve.frobenius(n, g))
            if (e * d) % m:
                raise IdentityMismatch("Frobenius twist is not a character value")
            new.append((e * d // m) % d)
        return Character(curve, n, new)

    def norm_to(self, big_level: int) -> "Character":
        """Relative norm of characters, level n -> multiple level N."""
        curve, n = self.curve, self.level
        if big_level % n:
            raise ValueError("norm of characters requires n | N")
        pic_big = curve.picard(big_level)
        m_small = curve.picard(n).exponent
        new = []
        for g, d in zip(pic_big.generators, pic_big.divisors):
            img = curve.norm_points(n, big_level, g)
            e = self.value_exponent(img)
            if (e * d) % m_small:
                raise IdentityMismatch("relative norm is not a character value")
            new.append((e * d // m_small) % d)
        return Character(curve, big_level, new)

    def __eq__(self, other):
        return (isinstance(other, Character) and self.curve is other.curve
                and self.level == other.level and self.exps == other.exps)

    def __hash__(self):
        return hash((id(self.curve), self.level, self.exps))

    def __repr__(self):
        return f"chi[{self.level}]{list(self.exps)}"


def all_characters(curve, n: int) -> list[Character]:
    pic = curve.picard(n)
    return [Character(curve, n, exps)
            for exps in product(*[range(d) for d in pic.divisors])]


class CharacterOrbit:
    """Frobenius orbit of a character; the twisted average rho~ lives here."""

    __slots__ = ("rep", "size", "_orbit")

    def __init__(self, chi: Character):
        orbit = [chi]
        cur = chi.frobenius()
        while cur != chi:
            orbit.append(cur)
            cur = cur.frobenius()
        self._orbit = orbit
        self.size = len(orbit)
        self.rep = min(orbit, key=lambda c: c.exps)

    @property
    def curve(self):
        return self.rep.curve

    @property
    def level(self):
        return self.rep.level

    def members(self) -> list[Character]:
        """The orbit in Frobenius order, starting at rep."""
        i = self._orbit.index(self.rep)
        return self._orbit[i:] + self._orbit[:i]

    def is_primitive(self) -> bool:
        return self.size == self.level

    def norm_to(self, big_level: int) -> "CharacterOrbit":
        return CharacterOrbit(self.rep.norm_to(big_level))

    def tilde_eval(self, x: ClosedPoint, ring):
        """The averaged character value rho~(x) on a closed point of X."""
        pts = self.curve.points_above(x, self.level)
        m = self.curve.picard(self.level).exponent
        total = ring.zeta_sum(m, [self.rep.value_exponent(P) for P in pts])
        return total * Fraction(1, len(pts))

    def __eq__(self, other):
        return isinstance(other, CharacterOrbit) and self.rep == other.rep

    def __hash__(self):
        return hash(("orbit", self.rep))

    def __repr__(self):
        return f"orbit[{self.level}]{list(self.rep.exps)}(size {self.size})"


def character_orbits(curve, n: int) -> list[CharacterOrbit]:
    seen = set()
    out = []
    for chi in all_characters(curve, n):
        orb = CharacterOrbit(chi)
        if orb.rep not in seen:
            seen.add(orb.rep)
            out.append(orb)
    out.sort(key=lambda o: o.rep.exps)
    return out


def primitive_orbits(curve, n: int) -> list[CharacterOrbit]:
    """Orbits of maximal size n, cross-validated by norm-image exclusion."""
    orbits = character_orbits(curve, n)
    by_orbit = [o for o in orbits if o.is_primitive()]
    norm_images = set()
    for d in range(1, n):
        if n % d:
            continue
        for chi in all_characters(curve, d):
            norm_images.add(chi.norm_to(n))
    by_exclusion = [o for o in orbits
                    if not any(m in norm_images for m in o.members())]
    if {o.rep for o in by_orbit} != {o.rep for o in by_exclusion}:
        raise IdentityMismatch(
            "orbit-size and norm-exclusion primitivity criteria disagree")
    return by_orbit
