"""Q(s, sb): gcd, cancellation and exact division in Z[s, sb], and the
products and sums of FormalScalar against the generic reduction."""

from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from ellhall import ratfunc
from ellhall.ratfunc import FORMAL, FormalScalar, bcancel, bdivexact, bgcd, bmul

R = FORMAL
ONE = {(0, 0): 1}


def polys(max_terms=4, max_deg=3, max_coef=6):
    coef = st.integers(-max_coef, max_coef).filter(bool)
    mono = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.dictionaries(mono, coef, min_size=1, max_size=max_terms)


def binomials(var):
    """k0 + k1 v^e with v = s (var 0) or sb (var 1): free of the other one."""
    def make(k0, k1, e):
        return {(0, 0): k0, ((e, 0) if var == 0 else (0, e)): k1}
    nz = st.integers(-3, 3).filter(bool)
    return st.builds(make, nz, nz, st.integers(1, 3))


def factors():
    return st.one_of(binomials(0), binomials(1), polys(max_terms=3, max_deg=2))


def prim(a):
    k = 0
    for c in a.values():
        k = gcd(k, c)
    return {m: c // k for m, c in a.items()}


def to_formal(a):
    return sum((R.monomial(i, j, c) for (i, j), c in a.items()), R.zero)


def divides(d, a):
    try:
        bdivexact(a, d)
    except ArithmeticError:
        return False
    return True


class TestLostFactor:
    """A common factor free of s must survive the gcd."""

    def test_bgcd_keeps_factor_free_of_s(self):
        sb1 = {(0, 1): 1, (0, 0): 1}
        a = bmul(sb1, {(1, 0): 1, (0, 0): 1})
        b = bmul(sb1, {(1, 0): 1, (0, 0): 2})
        assert bgcd(a, b) == sb1

    def test_bgcd_keeps_factor_free_of_sb(self):
        s1 = {(1, 0): 1, (0, 0): 1}
        a = bmul(s1, {(0, 1): 1, (0, 0): 1})
        b = bmul(s1, {(0, 1): 1, (0, 0): 2})
        assert bgcd(a, b) == s1

    def test_formal_equality_and_hash(self):
        s, sb = R.s, R.sb
        lhs = (sb + 1) * (s + 1) / ((sb + 1) * (s + 2))
        rhs = (s + 1) / (s + 2)
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)

    @given(polys(), polys(), factors())
    def test_common_factor_cancels(self, a, b, c):
        fa, fb, fc = to_formal(a), to_formal(b), to_formal(c)
        assume(fb and fc)
        assert (fa * fc) / (fb * fc) == fa / fb

    @given(polys(), polys(), factors())
    def test_gcd_contains_common_factor(self, a, b, g):
        ga, gb = bmul(g, a), bmul(g, b)
        d = bgcd(ga, gb)
        assert divides(prim(g), d)
        assert divides(d, ga) and divides(d, gb)


class TestGcd:
    def test_content_is_gcd_of_contents(self):
        assert bgcd({(2, 0): 6, (0, 0): 6}, {(1, 0): 4, (0, 0): 4}) == {(0, 0): 2}

    def test_monomial(self):
        assert bgcd({(2, 1): 6}, {(1, 3): 4, (0, 0): 2}) == {(0, 0): 2}
        assert bgcd({(2, 1): 6}, {(1, 3): 4, (3, 1): 2}) == {(1, 1): 2}

    def test_constant_content_of_the_image_is_not_kept(self):
        # sb (sb + 1) and sb^2 + sb + 2 are coprime, but both are even at
        # every integer sb
        assert bgcd({(0, 2): 1, (0, 1): 1}, {(0, 2): 1, (0, 1): 1, (0, 0): 2}) == ONE

    @pytest.mark.parametrize("a, b", [
        # (sb - 17)(s + 2) vanishes at sb = 17, the first point for s + sb + 1
        ({(1, 1): 1, (0, 1): 2, (1, 0): -17, (0, 0): -34}, {(1, 0): 1, (0, 1): 1, (0, 0): 1}),
        # (s - 9)(s + 2) vanishes at s = 9, the first point for s + 1
        ({(2, 0): 1, (1, 0): -7, (0, 0): -18}, {(1, 0): 1, (0, 0): 1}),
    ], ids=["sb", "s"])
    def test_image_vanishes(self, a, b):
        assert bgcd(a, b) == ONE
        assert bgcd(bmul(a, b), bmul(b, b)) == b

    def test_positive_lead(self):
        a = {(1, 0): -1, (0, 0): 1}
        assert bgcd(bmul(a, {(0, 1): 1, (0, 0): 3}), bmul(a, {(0, 1): 1, (0, 0): 5})) \
            == {(1, 0): 1, (0, 0): -1}


class TestDivExact:
    @given(polys(max_terms=5), polys())
    def test_product_divides_back(self, q, b):
        assert bdivexact(bmul(q, b), b) == q

    @pytest.mark.parametrize("a, b", [
        # s^2 + 1 = (s - 1)(s + 1) + 2
        ({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 1}),
        # sb + s = (s + 1) + (sb - 1)
        ({(0, 1): 1, (1, 0): 1}, {(1, 0): 1, (0, 0): 1}),
        # s / sb = s sb^-1
        ({(1, 0): 1}, {(0, 1): 1}),
        # (2 s sb + 4) / (3 s sb + 6) = 2/3
        ({(1, 1): 2, (0, 0): 4}, {(1, 1): 3, (0, 0): 6}),
    ], ids=["remainder", "remainder-sb", "negative-exponent", "coefficient"])
    def test_inexact_raises(self, a, b):
        with pytest.raises(ArithmeticError):
            bdivexact(a, b)


class TestCancel:
    """bcancel(a, b) is (a/g, b/g) for g = bgcd(a, b), or None when g = 1."""

    @staticmethod
    def quotients(a, b):
        g = bgcd(a, b)
        return None if g == ONE else (bdivexact(a, g), bdivexact(b, g))

    @given(polys(), polys(), factors())
    def test_matches_bgcd(self, a, b, g):
        ga, gb = bmul(g, a), bmul(g, b)
        assert bcancel(ga, gb) == self.quotients(ga, gb)

    def test_monomial_gcd(self):
        a, b = {(2, 1): 6}, {(1, 3): 4, (3, 1): 2}
        assert bcancel(a, b) == ({(1, 0): 3}, {(0, 2): 2, (2, 0): 1})
        assert bcancel(a, b) == self.quotients(a, b)

    def test_negative_lead(self):
        # the lift makes the gcd positive where s dominates, s - sb^2, whose
        # graded-lex lead -sb^2 is negative; the cofactors flip sign with it
        g = {(1, 0): 1, (0, 2): -1}
        a = bmul(g, {(0, 1): 1, (0, 0): 3})
        b = bmul(g, {(1, 0): 1, (0, 0): 5})
        assert bgcd(a, b) == {(0, 2): 1, (1, 0): -1}
        assert bcancel(a, b) == ({(0, 1): -1, (0, 0): -3}, {(1, 0): -1, (0, 0): -5})
        assert bcancel(a, b) == self.quotients(a, b)

    def test_coprime(self):
        assert bcancel({(1, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 2}) is None
        assert bcancel({(0, 2): 1, (0, 1): 1}, {(0, 2): 1, (0, 1): 1, (0, 0): 2}) is None

    @pytest.mark.parametrize("a", [
        {(1, 1): 1, (0, 0): 3}, {(1, 1): -2, (0, 0): 4}, {(2, 0): -5},
        # g = 1: no cancellation
        {(0, 0): 1}, {(0, 0): -1}], ids=repr)
    def test_equal_inputs(self, a):
        assert bcancel(a, a) == self.quotients(a, a)


def gcd_route(a, b):
    """bcancel without the exact-division shortcut: always through _gcd,
    but for equal inputs other than +-1."""
    if a == b and a not in ({(0, 0): 1}, {(0, 0): -1}):
        one = {(0, 0): -1} if a[ratfunc._blead(a)] < 0 else ONE
        return one, one
    g, qa, qb = ratfunc._gcd(a, b, 1)
    if g == ONE:
        return None
    if g[ratfunc._blead(g)] < 0:
        return ratfunc.bneg(qa), ratfunc.bneg(qb)
    return qa, qb


class TestDivisionShortcut:
    """bcancel tries a / b before the gcd; both routes agree field for field."""

    @given(polys(), polys(), factors(), st.sampled_from((1, -1, 2, -3)))
    def test_multiple_of_b(self, a, b, g, k):
        # a multiple of b, b canonical or not, and a pair sharing only g
        for x, y in ((bmul(a, b), b), (bmul(a, b), {m: k * c for m, c in b.items()}),
                     (bmul(g, a), bmul(g, b)), (a, b)):
            assert bcancel(x, y) == gcd_route(x, y)

    @given(polys(), polys())
    def test_canonical_b(self, a, b):
        b = prim(b)
        if b[ratfunc._blead(b)] < 0:
            b = ratfunc.bneg(b)
        got = bcancel(bmul(a, b), b)
        assert got == gcd_route(bmul(a, b), b)
        if len(b) > 1:
            assert got == (bmul(a, ONE), ONE)


def fields(x):
    return x.coef, x.shift, x.num, x.den


def binomial_values():
    """k0 + k1 s^i sb^j, a Laurent binomial of Q(s, sb)."""
    nz = st.integers(-3, 3).filter(bool)
    e = st.integers(-2, 2)
    return st.builds(lambda k0, k1, i, j: k0 + R.monomial(i, j, k1), nz, nz, e, e)


@st.composite
def values(draw, laurent=False):
    """c s^i sb^j times a product of binomials, each to the power +-1 or 2
    (only positive powers when laurent)."""
    c = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool))
    x = R.monomial(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), c)
    for b in draw(st.lists(binomial_values(), max_size=3)):
        if not b:
            continue
        x = x * b ** draw(st.sampled_from((1, 2) if laurent else (1, 2, -1)))
    return x


def laurent_sum(x, y):
    """x + y for den = 1: both over the common coefficient denominator."""
    d = x.coef.denominator * y.coef.denominator
    mi, mj = min(x.shift[0], y.shift[0]), min(x.shift[1], y.shift[1])
    n = {}
    for z in (x, y):
        k = z.coef * d
        for (i, j), c in z.num.items():
            m = (i + z.shift[0] - mi, j + z.shift[1] - mj)
            n[m] = n.get(m, 0) + int(k * c)
    return FormalScalar.make(Fraction(1, d), (mi, mj), {m: c for m, c in n.items() if c},
                             ONE)


class TestFastPaths:
    """Each shortcut of FormalScalar equals the generic reduction, field for field."""

    @given(values(), values())
    def test_product(self, x, y):
        want = FormalScalar.make(x.coef * y.coef,
                                 (x.shift[0] + y.shift[0], x.shift[1] + y.shift[1]),
                                 bmul(x.num, y.num), bmul(x.den, y.den))
        assert fields(x * y) == fields(want)
        assert fields(y * x) == fields(want)

    @given(values(laurent=True), values(laurent=True))
    def test_laurent_sum(self, x, y):
        assert x.den == ONE and y.den == ONE
        assert fields(x + y) == fields(laurent_sum(x, y))
        assert fields(x - x) == fields(R.zero)

    @given(values(), values())
    def test_sum(self, x, y):
        d = x.coef.denominator * y.coef.denominator
        mi, mj = min(x.shift[0], y.shift[0]), min(x.shift[1], y.shift[1])
        n = {}
        for z, w in ((x, y), (y, x)):
            k = int(z.coef * d)
            for (i, j), c in bmul(z.num, w.den).items():
                m = (i + z.shift[0] - mi, j + z.shift[1] - mj)
                n[m] = n.get(m, 0) + k * c
        want = FormalScalar.make(Fraction(1, d), (mi, mj), {m: c for m, c in n.items() if c},
                                 bmul(x.den, y.den))
        assert fields(x + y) == fields(want)

    @given(values())
    def test_inverse(self, x):
        want = FormalScalar.make(1 / x.coef, (-x.shift[0], -x.shift[1]), x.den, x.num)
        assert fields(x.inverse()) == fields(want)


class TestScalarsOnGcdRoute:
    """FormalScalar products and sums equal those made with bcancel on the
    gcd route alone, field for field."""

    @given(values(), values(), binomial_values())
    def test_products_and_sums(self, x, y, b):
        # x b and y b share the factor b: the shortcut divides it out
        assume(b)
        pairs = ((x, y), (x * b, y), (x, y / b), (x / b, y / b))
        fast = [(fields(u * v), fields(u + v), fields(u - v)) for u, v in pairs]
        with mock.patch.object(ratfunc, "bcancel", gcd_route):
            slow = [(fields(u * v), fields(u + v), fields(u - v)) for u, v in pairs]
        assert fast == slow


def merged(x, y, sign):
    """x + sign y by the general route: both numerators merged over the
    common coefficient denominator, reduced by make."""
    d = x.coef.denominator * y.coef.denominator
    n = {}
    for z, k in ((x, int(x.coef * d)), (y, sign * int(y.coef * d))):
        for m, c in z.num.items():
            n[m] = n.get(m, 0) + k * c
    return FormalScalar.make(Fraction(1, d), x.shift, {m: c for m, c in n.items() if c},
                             x.den)


def like_cases(x, y):
    """(result, want, general-route result) of x + y, y + x, x - y, y - x."""
    ops = (lambda u, v: u + v, lambda u, v: u - v)
    cases = [(x, y, 0), (y, x, 0), (x, y, 1), (y, x, 1)]
    with mock.patch.object(FormalScalar, "_like", lambda self, other: False):
        slow = [ops[k](u, v) for u, v, k in cases]
    return [(ops[k](u, v), merged(u, v, -1 if k else 1), w)
            for (u, v, k), w in zip(cases, slow)]


def check_like(x, y):
    for got, want, slow in like_cases(x, y):
        assert fields(got) == fields(want) == fields(slow)
        assert got == want and hash(got) == hash(want)
        assert got.is_zero() == want.is_zero()
        if want.is_zero():
            assert got is ratfunc._ZERO


class TestLikeTerms:
    """Like terms (equal shift, num and den) combine by their Fraction
    coefficients alone, with the fields, equality, hash and zero test of
    the general route and no call of make."""

    @given(values(), st.fractions(min_value=-4, max_value=4, max_denominator=6))
    def test_matches_general_route(self, x, c):
        assume(c)
        y = x * c
        assert (y.shift, y.num, y.den) == (x.shift, x.num, x.den)
        check_like(x, y)

    @pytest.mark.parametrize("base", [R.one, R.s, R.nu * R.s ** 3 / (R.s - R.sb),
                                      (1 + R.s * R.sb) ** 2 / (2 - R.sb)], ids=repr)
    @pytest.mark.parametrize("a, b", [(Fraction(1, 2), Fraction(1, 2)),
                                      (Fraction(1, 3), Fraction(-1, 3)),
                                      (Fraction(2, 3), Fraction(5, 6)),
                                      (Fraction(-7, 4), Fraction(7, 4)),
                                      (Fraction(3), Fraction(3))], ids=str)
    def test_fractions_and_cancellation(self, base, a, b):
        x, y = base * a, base * b
        check_like(x, y)
        with mock.patch.object(FormalScalar, "make", side_effect=AssertionError):
            assert x + y == base * (a + b)
            assert x - y == base * (a - b)
            assert (x - x) is ratfunc._ZERO and (x + (-x)) is ratfunc._ZERO

    @pytest.mark.parametrize("x, y, equal", [
        (R.s / (1 - R.sb), R.s / (2 - R.sb), ("shift", "num")),
        (R.s * (1 + R.sb), R.s * (2 + R.sb), ("shift", "den")),
        (R.s * (1 + R.sb), R.sb * (1 + R.sb), ("num", "den")),
    ], ids=repr)
    def test_unlike_terms_take_general_route(self, x, y, equal):
        assert [f for f in ("shift", "num", "den")
                if getattr(x, f) == getattr(y, f)] == list(equal)
        got = [x + y, x - y, y - x]
        with mock.patch.object(FormalScalar, "_like", lambda self, other: False):
            slow = [x + y, x - y, y - x]
        assert [fields(g) for g in got] == [fields(w) for w in slow]

    def test_half_plus_half_is_one(self):
        half = R.from_fraction(Fraction(1, 2))
        one = half + half
        assert one == R.one and one == 1 and hash(one) == hash(R.one) == hash(1)
        assert fields(one) == fields(R.one)


def old_make(coef, shift, num, den):
    """make by the scans it used before the one-pass reduction."""
    def content(a):
        g = 0
        for c in a.values():
            g = gcd(g, c)
        return g

    def lead(a):
        return max(a, key=lambda m: (m[0] + m[1], m[0]))

    cn, cd = content(num), content(den)
    cn, cd = (-cn if num[lead(num)] < 0 else cn), (-cd if den[lead(den)] < 0 else cd)
    ni, nj = min(i for i, _ in num), min(j for _, j in num)
    di, dj = min(i for i, _ in den), min(j for _, j in den)
    num = {(i - ni, j - nj): c // cn for (i, j), c in num.items()}
    den = {(i - di, j - dj): c // cd for (i, j), c in den.items()}
    g = bgcd(num, den)
    return (coef * Fraction(cn, cd), (shift[0] + ni - di, shift[1] + nj - dj),
            bdivexact(num, g), bdivexact(den, g))


def laurent(max_terms=5):
    coef = st.integers(-12, 12).filter(bool)
    mono = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return st.dictionaries(mono, coef, min_size=1, max_size=max_terms)


class TestMake:
    @given(laurent(), laurent(max_terms=3), st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    def test_matches_old_scans(self, num, den, shift):
        coef = Fraction(3, 4)
        assert fields(FormalScalar.make(coef, shift, num, den)) == \
            old_make(coef, shift, num, den)

    @pytest.mark.parametrize("num", [
        # negative exponents and a negative graded-lex lead
        {(-2, 1): -6, (1, -3): 4, (0, 0): 2},
        {(-1, -1): -3},
        {(0, -2): 5, (-3, 0): -10},
        # the lead is decided by the s-degree among terms of top total degree
        {(0, 2): 1, (2, 0): -1, (0, 0): 3},
        {(-1, 2): 2, (1, 0): -4},
    ], ids=repr)
    def test_laurent_numerator(self, num):
        assert fields(FormalScalar.make(Fraction(1), (0, 0), num, ONE)) == \
            old_make(Fraction(1), (0, 0), num, ONE)


@st.composite
def stepped(draw, steps=(0, 1, 2, 3), max_terms=14, max_coef=2 ** 20, s_steps=None):
    """Laurent polynomials whose exponents of each variable are an offset plus
    multiples of a step: step 0 gives one exponent value (gcd 0).  The step
    of s is drawn from s_steps when given."""
    si = draw(st.sampled_from(steps if s_steps is None else s_steps))
    sj = draw(st.sampled_from(steps))
    oi, oj = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    mono = st.tuples(st.integers(0, 5), st.integers(0, 5)).map(
        lambda k: (oi + si * k[0], oj + sj * k[1]))
    coef = st.integers(-max_coef, max_coef).filter(bool)
    return draw(st.dictionaries(mono, coef, min_size=1, max_size=max_terms))


def shorter_first(a, b):
    return (a, b) if len(a) <= len(b) else (b, a)


def same_product(a, b):
    """The Kronecker product of a and b, or None where it declines, after
    checking it and bmul against the dict loop, field for field."""
    a, b = shorter_first(a, b)
    want = ratfunc._bmul_dict(a, b)
    got = ratfunc._kronecker(a, b)
    for r in (got, bmul(a, b), bmul(b, a)):
        if r is not None:
            assert r == want
            assert all(type(c) is int and c for c in r.values())
    return got


class TestKronecker:
    """The packed product of bmul against the term-by-term dict loop."""

    @pytest.mark.parametrize("step", [0, 1, 2, 3])
    @given(data=st.data())
    def test_equals_dict_loop(self, step, data):
        # negative and mixed exponents, a shared gcd of the step, or none
        a = data.draw(stepped(steps=(step,)))
        b = data.draw(stepped())
        same_product(a, b)

    @pytest.mark.parametrize("edge", [2 ** 7, 2 ** 15, 2 ** 31, 2 ** 63])
    @pytest.mark.parametrize("below", [True, False], ids=["below", "at"])
    @given(la=st.sampled_from((1, 2, 4)), lb=st.integers(4, 40), flip=st.booleans(),
           gap=st.sampled_from((1, 2, 3)))
    def test_coefficient_bound_edges(self, edge, below, la, lb, flip, gap):
        # a = x sb^-1 (1 + t + ... + t^(la-1)), b = +-y sb^2 (1 + ... + t^(lb-1))
        # with t = s^gap: the middle coefficients reach the bound la x y
        bound = edge - 1 if below else edge
        if below:
            la = 1
        x, y = 1, bound // la
        a = {(gap * k, -1): x for k in range(la)}
        b = {(gap * k, 2): -y if flip else y for k in range(lb)}
        got = same_product(a, b)
        assert max(map(abs, ratfunc._bmul_dict(a, b).values())) == la * x * y == bound
        # a bound of 2^63 or more goes to the dict loop
        assert (got is None) == (bound >= 2 ** 63)

    @given(st.data(), st.sampled_from((1, 2, 3)), st.integers(8, 40))
    def test_exact_cancellation(self, data, g, n):
        # p (1 - s^g) times 1 + s^g + ... + s^(g(n-1)) is p (1 - s^(gn)); the
        # s-exponents of p step by g, so the packing has at most
        # _KRONECKER_MAX_FILL slots per term pair and is taken (a p with
        # s-exponents off that step may be declined, as the fill bound means)
        p = data.draw(stepped(max_terms=8, s_steps=(0, g)))
        a = ratfunc._bmul_dict(p, {(0, 0): 1, (g, 0): -1})
        b = {(g * k, 0): 1 for k in range(n)}
        got = same_product(a, b)
        assert got == ratfunc._bmul_dict(p, {(0, 0): 1, (g * n, 0): -1})

    @given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
           st.integers(-2 ** 40, 2 ** 40).filter(bool), stepped(max_terms=36))
    def test_one_term_operand(self, m, c, b):
        same_product({m: c}, b)
        same_product({m: c}, {m: c})
        assert bmul({m: c}, b) == {(m[0] + i, m[1] + j): c * v for (i, j), v in b.items()}
        assert bmul({m: c}, {m: c}) == {(2 * m[0], 2 * m[1]): c * c}

    @pytest.mark.parametrize("pairs", [ratfunc._KRONECKER_MIN_PAIRS - 1,
                                       ratfunc._KRONECKER_MIN_PAIRS])
    @given(data=st.data())
    def test_size_threshold(self, pairs, data):
        # lb = pairs is a one-term a; other splits when pairs has a divisor
        la = data.draw(st.sampled_from([d for d in range(1, 13) if pairs % d == 0]))
        coef = st.integers(-50, 50).filter(bool)
        a = {(k, 2 * k): data.draw(coef) for k in range(la)}
        b = {(3 * k, -k): data.draw(coef) for k in range(pairs // la)}
        with mock.patch.object(ratfunc, "_kronecker", wraps=ratfunc._kronecker) as kron:
            assert bmul(a, b) == ratfunc._bmul_dict(a, b)
        assert kron.called == (pairs >= ratfunc._KRONECKER_MIN_PAIRS)

    def test_sparse_operands_go_to_the_dict_loop(self):
        # far-apart exponents: the packed form would hold millions of slots
        a = {(1000 * k, 7 * k * k): k + 1 for k in range(16)}
        b = {(k * k, 999 * k): 2 - k for k in range(16)}
        assert same_product(a, b) is None
