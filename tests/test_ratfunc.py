"""Q[s^+-1, sb^+-1]: exact division in Z[s, sb], the products of bmul, and
FormalScalar against the Laurent polynomial over Q it stands for."""

from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

import laurent
from ellhall import ratfunc
from ellhall.ratfunc import FORMAL, bdivexact, bmul

R = FORMAL


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
    k = gcd(*a.values())
    return {m: c // k for m, c in a.items()}


def to_formal(a):
    return sum((R.monomial(i, j, c) for (i, j), c in a.items()), R.zero)


def lowest(a):
    """a moved to least exponents 0 in s and in sb."""
    i0, j0 = min(i for i, _ in a), min(j for _, j in a)
    return {(i - i0, j - j0): c for (i, j), c in a.items()}


def divides(b, a):
    """b divides a in Q[s^+-1, sb^+-1]: the primitive part of b divides a
    in Z[s, sb], both moved to least exponents 0 (Gauss's lemma, and the
    least exponents of a product add)."""
    try:
        bdivexact(lowest(a), prim(lowest(b)))
    except ArithmeticError:
        return False
    return True


def binomial_values():
    """k0 + k1 s^i sb^j, a Laurent binomial."""
    nz = st.integers(-3, 3).filter(bool)
    e = st.integers(-2, 2)
    return st.builds(lambda k0, k1, i, j: k0 + R.monomial(i, j, k1), nz, nz, e, e)


@st.composite
def values(draw):
    """c s^i sb^j times a product of binomials, each squared or not."""
    c = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool))
    x = R.monomial(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), c)
    for b in draw(st.lists(binomial_values(), max_size=3)):
        x = x * b ** draw(st.sampled_from((1, 2)))
    return x


def fields(x):
    return x.num, x.den


def check(got, want):
    """got is the FormalScalar of the Laurent polynomial want, fields and all."""
    assert fields(got) == laurent.fields(want)
    assert all(type(c) is int for c in got.num.values()) and type(got.den) is int
    if not want:
        assert got is ratfunc._ZERO


class TestLostFactor:
    """A common factor of a quotient cancels exactly."""

    def test_formal_equality_and_hash(self):
        s, sb = R.s, R.sb
        lhs = (sb + 1) * (s + 1) * (s + 2) / ((sb + 1) * (s + 2))
        rhs = s + 1
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)

    @given(polys(), polys(), factors())
    def test_common_factor_cancels(self, a, b, c):
        fa, fb, fc = to_formal(a), to_formal(b), to_formal(c)
        assume(fc)
        assert (fa * fc) / fc == fa
        if fb:
            assert (fa * fb * fc) / (fb * fc) == fa

    @given(polys(), polys(), factors())
    def test_gcd_contains_common_factor(self, a, b, g):
        # g divides g a, g b and every combination of them
        fa, fb, fg = to_formal(a), to_formal(b), to_formal(g)
        ga, gb = to_formal(bmul(g, a)), to_formal(bmul(g, b))
        assert ga / fg == fa and gb / fg == fb
        assert (ga * 3 - gb * Fraction(1, 2)) / fg == fa * 3 - fb * Fraction(1, 2)


class TestGcd:
    """The only gcds the ring takes are of integers: the content of a
    polynomial, kept against den, and the content and least exponents that
    repr prints (``_canonical``)."""

    def test_content_is_gcd_of_contents(self):
        a, b = {(2, 0): 6, (0, 0): 6}, {(1, 0): 4, (0, 0): 4}
        assert ratfunc._canonical(a) == ({(2, 0): 1, (0, 0): 1}, 6, 0, 0)
        assert ratfunc._canonical(b) == ({(1, 0): 1, (0, 0): 1}, 4, 0, 0)
        # Gauss's lemma: the content of a product is the product of contents
        assert ratfunc._canonical(bmul(a, b))[1] == 24
        x, y = to_formal(a) * Fraction(1, 4), to_formal(b) * Fraction(1, 6)
        assert fields(x) == ({(2, 0): 3, (0, 0): 3}, 2)
        assert fields(y) == ({(1, 0): 2, (0, 0): 2}, 3)
        assert fields(x * y) == ({(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 0): 1}, 1)

    def test_monomial(self):
        assert ratfunc._canonical({(2, 1): 6}) == ({(0, 0): 1}, 6, 2, 1)
        assert ratfunc._canonical({(1, 3): 4, (3, 1): 2}) == ({(0, 2): 2, (2, 0): 1}, 2, 1, 1)
        # a monomial is a unit: division by it is always exact
        assert to_formal({(2, 1): 6}) / to_formal({(1, 3): 4}) == R.monomial(1, -2, Fraction(3, 2))
        assert to_formal({(1, 3): 4, (3, 1): 2}) / R.monomial(1, 1, 2) == 2 * R.sb ** 2 + R.s ** 2

    def test_constant_content_of_the_image_is_not_kept(self):
        # sb (sb + 1) and sb^2 + sb + 2 are even at every integer sb, but
        # their content is 1: a half of either keeps den 2, and they are coprime
        a, b = R.sb ** 2 + R.sb, R.sb ** 2 + R.sb + 2
        assert fields(a * Fraction(1, 2)) == ({(0, 2): 1, (0, 1): 1}, 2)
        assert fields(b * Fraction(1, 2)) == ({(0, 2): 1, (0, 1): 1, (0, 0): 2}, 2)
        with pytest.raises(ArithmeticError):
            a / b

    @pytest.mark.parametrize("a, b", [
        # (sb - 17)(s + 2) vanishes at sb = 17, and s + sb + 1 at sb = -s - 1
        ({(1, 1): 1, (0, 1): 2, (1, 0): -17, (0, 0): -34}, {(1, 0): 1, (0, 1): 1, (0, 0): 1}),
        # (s - 9)(s + 2) vanishes at s = 9, and s + 1 at s = -1
        ({(2, 0): 1, (1, 0): -7, (0, 0): -18}, {(1, 0): 1, (0, 0): 1}),
    ], ids=["sb", "s"])
    def test_image_vanishes(self, a, b):
        fa, fb = to_formal(a), to_formal(b)
        with pytest.raises(ArithmeticError):
            fa / fb
        assert (fa * fb) / fb == fa and (fb * fb) / fb == fb
        assert bdivexact(bmul(a, b), b) == a

    def test_positive_lead(self):
        # (1 - s)(sb + 3): the lex-largest term -s sb is negative, so num
        # is negated and den carries the sign
        a = R.one - R.s
        x = a * (R.sb + 3)
        assert fields(x) == ({(1, 1): 1, (1, 0): 3, (0, 1): -1, (0, 0): -3}, -1)
        assert fields(x / a) == ({(0, 1): 1, (0, 0): 3}, 1)
        assert fields(x / -a) == ({(0, 1): 1, (0, 0): 3}, -1)


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
    """Exact division cancels a common factor, and only a divisor."""

    def test_monomial_gcd(self):
        # 6 s^2 sb and 4 s sb^3 + 2 s^3 sb share the monomial 2 s sb
        a, b = to_formal({(2, 1): 6}), to_formal({(1, 3): 4, (3, 1): 2})
        g = R.monomial(1, 1, 2)
        assert fields(a / g) == ({(1, 0): 3}, 1)
        assert fields(b / g) == ({(2, 0): 1, (0, 2): 2}, 1)
        with pytest.raises(ArithmeticError):
            a / b

    def test_negative_lead(self):
        # s - sb^2 has the graded-lex lead -sb^2 that repr signs by, but a
        # positive lex-largest term s, so den is 1
        g = R.s - R.sb ** 2
        assert fields(g) == ({(1, 0): 1, (0, 2): -1}, 1) and repr(g) == "-1*(sb^2-s)"
        a, b = g * (R.sb + 3), g * (R.s + 5)
        assert a / g == R.sb + 3 and b / g == R.s + 5
        assert a / -g == -(R.sb + 3) and fields(a / -g) == ({(0, 1): 1, (0, 0): 3}, -1)

    def test_coprime(self):
        with pytest.raises(ArithmeticError):
            (R.s + 1) / (R.s + 2)
        with pytest.raises(ArithmeticError):
            (R.sb ** 2 + R.sb) / (R.sb ** 2 + R.sb + 2)

    @pytest.mark.parametrize("a", [
        {(1, 1): 1, (0, 0): 3}, {(1, 1): -2, (0, 0): 4}, {(2, 0): -5},
        {(0, 0): 1}, {(0, 0): -1}], ids=repr)
    def test_equal_inputs(self, a):
        assert bdivexact(a, a) == {(0, 0): 1}
        x = to_formal(a)
        assert x / x == R.one
        assert fields(x / -x) == ({(0, 0): 1}, -1)


class TestDivisionShortcut:
    """x / y for a y of two or more terms divides num by the primitive part
    of y, moved to the least exponents of x, with bdivexact; a monomial y
    goes through its inverse."""

    @given(polys(), polys(), factors(), st.sampled_from((1, -1, 2, -3)))
    def test_multiple_of_b(self, a, b, g, k):
        # a multiple of b, over b or a multiple k b, a pair sharing only g,
        # and a pair that may share nothing
        fa, fb = to_formal(a), to_formal(b)
        ab = to_formal(bmul(a, b))
        for x, y, want in ((ab, fb, fa), (ab, fb * k, fa * Fraction(1, k)),
                           (to_formal(bmul(g, a)), to_formal(bmul(g, b)), None),
                           (fa, fb, None)):
            if divides(y.num, x.num):
                q = x / y
                assert q * y == x
                assert want is None or q == want
            else:
                with pytest.raises(ArithmeticError):
                    x / y

    @given(polys(), polys())
    def test_canonical_b(self, a, b):
        b = prim(b)
        if b[max(b)] < 0:
            b = {m: -c for m, c in b.items()}
        fb = to_formal(b)
        assert fields(fb) == (b, 1)
        ab = bmul(a, b)
        assert bdivexact(ab, b) == a
        check(to_formal(ab) / fb, {m: Fraction(c) for m, c in a.items()})
        check(to_formal(ab) / (fb * Fraction(3, 4)),
              {m: Fraction(4 * c, 3) for m, c in a.items()})


class TestFastPaths:
    """Each operation of FormalScalar is the same operation on the Laurent
    polynomials over Q, and keeps both rules of the representation."""

    @given(values(), values())
    def test_product(self, x, y):
        want = laurent.mul(laurent.value(x), laurent.value(y))
        check(x * y, want)
        check(y * x, want)

    @given(values(), values())
    def test_sum(self, x, y):
        vx, vy = laurent.value(x), laurent.value(y)
        check(x + y, laurent.add(vx, vy))
        check(x - y, laurent.add(vx, vy, -1))
        check(y - x, laurent.add(vy, vx, -1))

    @given(values(), values())
    def test_laurent_sum(self, x, y):
        for z in (x, y, x * y):
            check(z, laurent.value(z))
            assert z - z is ratfunc._ZERO and z + (-z) is ratfunc._ZERO
            assert -z - z == z * -2

    @given(values())
    def test_inverse(self, x):
        if len(x.num) == 1:
            ((i, j), c), = laurent.value(x).items()
            check(x.inverse(), {(-i, -j): 1 / c})
            assert x * x.inverse() == R.one
        else:
            with pytest.raises(ArithmeticError):
                x.inverse()


class TestLikeTerms:
    """Sums of rational multiples of one value."""

    @given(values(), st.fractions(min_value=-4, max_value=4, max_denominator=6))
    def test_matches_general_route(self, x, c):
        y = x * c
        check(y, {m: v * c for m, v in laurent.value(x).items() if c})
        check(x + y, laurent.value(x * (1 + c)))
        check(x - y, laurent.value(x * (1 - c)))

    @pytest.mark.parametrize("base", [
        R.one, R.s, R.nu * R.s ** 3 * (R.s - R.sb), (1 + R.s * R.sb) ** 2 * (2 - R.sb) / 3,
        laurent.Quotient(R.nu * R.s ** 3, R.s - R.sb),
        laurent.Quotient((1 + R.s * R.sb) ** 2, 2 - R.sb)], ids=repr)
    @pytest.mark.parametrize("a, b", [(Fraction(1, 2), Fraction(1, 2)),
                                      (Fraction(1, 3), Fraction(-1, 3)),
                                      (Fraction(2, 3), Fraction(5, 6)),
                                      (Fraction(-7, 4), Fraction(7, 4)),
                                      (Fraction(3), Fraction(3))], ids=str)
    def test_fractions_and_cancellation(self, base, a, b):
        # a base outside the ring is a numerator over a divisor: like terms
        # combine on the numerators, and the sum is divided afterwards
        div = base.div if isinstance(base, laurent.Quotient) else R.one
        base = base.num if isinstance(base, laurent.Quotient) else base
        x, y = base * a, base * b
        assert x + y == base * (a + b)
        assert x - y == base * (a - b)
        assert (x - x) is ratfunc._ZERO and (x + (-x)) is ratfunc._ZERO
        check(x + y, laurent.add(laurent.value(x), laurent.value(y)))
        assert ((x + y) * div) / div == x + y
        if div != R.one:
            if a + b:
                with pytest.raises(ArithmeticError):
                    (x + y) / div
            else:
                assert (x + y) / div is ratfunc._ZERO

    @pytest.mark.parametrize("x, y, equal", [
        (laurent.Quotient(R.s, 1 - R.sb), laurent.Quotient(R.s, 2 - R.sb), ("shift", "num")),
        (R.s * (1 + R.sb), R.s * (2 + R.sb), ("shift", "den")),
        (R.s * (1 + R.sb), R.sb * (1 + R.sb), ("num", "den")),
    ], ids=repr)
    def test_unlike_terms_take_general_route(self, x, y, equal):
        # values equal in some parts of their printed canonical form, not
        # in all, are no like terms: x + y, x - y and y - x are the sums of
        # their Laurent polynomials, or, for quotients, of the numerators
        # over the product of the divisors, which neither divisor divides
        assert [f for f in ("shift", "num", "den")
                if printed_parts(x)[f] == printed_parts(y)[f]] == list(equal)
        if isinstance(x, laurent.Quotient):
            for k in (1, -1):
                n = x.num * y.div + y.num * x.div * k
                assert (n * x.div * y.div) / (x.div * y.div) == n
                for d in (x.div, y.div, x.div * y.div):
                    with pytest.raises(ArithmeticError):
                        n / d
            return
        vx, vy = laurent.value(x), laurent.value(y)
        check(x + y, laurent.add(vx, vy))
        check(x - y, laurent.add(vx, vy, -1))
        check(y - x, laurent.add(vy, vx, -1))

    def test_half_plus_half_is_one(self):
        half = R.from_fraction(Fraction(1, 2))
        one = half + half
        assert one == R.one and one == 1 and hash(one) == hash(R.one) == hash(1)
        assert fields(one) == fields(R.one)


def printed_parts(x):
    """The shift, primitive numerator and primitive divisor of the canonical
    form of Q(s, sb) that repr prints for x."""
    if isinstance(x, laurent.Quotient):
        p, _, ip, jp = ratfunc._canonical(x.num.num)
        q, _, iq, jq = ratfunc._canonical(x.div.num)
        return {"shift": (ip - iq, jp - jq), "num": p, "den": q}
    p, _, i0, j0 = ratfunc._canonical(x.num)
    return {"shift": (i0, j0), "num": p, "den": {(0, 0): 1}}


def old_scans(num):
    """The canonical form of num by the scans the package made before the
    one-pass ``_canonical``: content signed by the graded-lex lead, least
    exponents, primitive part."""
    k = gcd(*num.values())
    lead = max(num, key=lambda m: (m[0] + m[1], m[0]))
    if num[lead] < 0:
        k = -k
    i0, j0 = min(i for i, _ in num), min(j for _, j in num)
    return {(i - i0, j - j0): c // k for (i, j), c in num.items()}, k, i0, j0


def laurent_polys(max_terms=5):
    coef = st.integers(-12, 12).filter(bool)
    mono = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return st.dictionaries(mono, coef, min_size=1, max_size=max_terms)


class TestMake:
    """The canonical form that ``FormalScalar.make`` built in Q(s, sb) and
    repr prints now, against the scans make used, and the lowest-terms and
    sign rules that ``_reduced`` restores on a Laurent numerator."""

    @given(laurent_polys(), st.integers(-12, 12).filter(bool))
    def test_matches_old_scans(self, num, den):
        assert ratfunc._canonical(num) == old_scans(num)
        x = ratfunc._reduced(dict(num), den)
        check(x, {m: Fraction(c, den) for m, c in num.items()})
        p, k, i0, j0 = old_scans(num)
        assert x == R.monomial(i0, j0, Fraction(k, den)) * to_formal(p)
        q, _, qi, qj = ratfunc._canonical(x.num)
        assert (q, qi, qj) == (p, i0, j0)

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
        assert ratfunc._canonical(num) == old_scans(num)
        x = ratfunc._reduced(dict(num), 1)
        check(x, {m: Fraction(c) for m, c in num.items()})
        p, k, i0, j0 = old_scans(num)
        assert x == R.monomial(i0, j0, k) * to_formal(p)


@st.composite
def small_values(draw):
    """A sum of up to three small Laurent monomials, or a product of two."""
    mono = st.builds(R.monomial, st.integers(-3, 3), st.integers(-3, 3),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))
    terms = draw(st.lists(mono, min_size=1, max_size=3))
    x = sum(terms, R.zero)
    return x * draw(mono) if draw(st.booleans()) else x


class TestLaurentRing:
    @given(small_values(), small_values(), small_values())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        assert a + R.zero == a and a * R.one == a and a * R.zero == R.zero
        assert a - b == a + (-b) == -(b - a)

    @given(values(), values())
    def test_exact_division(self, a, b):
        assume(b)
        assert (a * b) / b == a
        assert (a * b * 3) / (b * Fraction(3, 4)) == a * 4

    @pytest.mark.parametrize("q, b", [
        (R.nu ** 3 * (R.s - 2), R.kappa(2)),
        (R.c_coefficient(1) * Fraction(2, 3), R.kappa(1)),
        (laurent.alpha(2), R.c_coefficient(3) * R.monomial(-4, 7)),
        (R.s ** -5 + R.sb ** 6 * Fraction(1, 7), (R.s ** -2 - 3 * R.sb) * Fraction(5, 2)),
    ], ids=repr)
    def test_division_with_negative_exponents(self, q, b):
        # the quotient and the divisor reach below exponent 0 in s or sb
        check((q * b) / b, laurent.value(q))
        check((b * q) / q, laurent.value(b))

    @pytest.mark.parametrize("a, b", [
        (R.one, R.one + R.s),
        (R.s ** 2 + 1, R.s + 1),
        (R.s + R.sb, R.s * R.sb + 1),
        (R.kappa(1) * R.c_coefficient(1), R.c_coefficient(2)),
    ], ids=repr)
    def test_inexact_division_raises(self, a, b):
        with pytest.raises(ArithmeticError):
            a / b

    @pytest.mark.parametrize("x", [R.kappa(1), R.one + R.s, R.c_coefficient(2)], ids=repr)
    def test_non_monomial_inverse_raises(self, x):
        with pytest.raises(ArithmeticError):
            x.inverse()
        with pytest.raises(ArithmeticError):
            x ** -1
        with pytest.raises(ArithmeticError):
            1 / x

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            R.zero.inverse()
        with pytest.raises(ZeroDivisionError):
            R.s / R.zero

    @pytest.mark.parametrize("c", [0, 1, -1, 5, Fraction(-3, 4), Fraction(7, 6)], ids=str)
    def test_constant_hashes_as_its_fraction(self, c):
        for x in (R.from_fraction(c), R.one * c, R.nu * c / R.nu,
                  (R.one + R.s) * c - R.s * c):
            assert x == c and hash(x) == hash(Fraction(c))

    def test_negation_shares_the_numerator(self):
        x = R.c_coefficient(3) * Fraction(-2, 5)
        assert (-x).num is x.num and (-x).den == -x.den
        assert -(-x) == x and (-x) * -1 == x

    def test_lowest_terms_against_den(self):
        # (s + 1)/2 + (s - 1)/2 = s: the content 2 cancels against den
        half = Fraction(1, 2)
        x = (R.s + 1) * half + (R.s - 1) * half
        assert fields(x) == ({(1, 0): 1}, 1)
        # (2 s + 4)/3 times 3/2 = s + 2
        assert fields((2 * R.s + 4) * Fraction(1, 3) * Fraction(3, 2)) == ({(1, 0): 1, (0, 0): 2}, 1)
        # the sign sits in den, the lex-largest term is positive
        assert fields(R.one - R.s) == ({(1, 0): 1, (0, 0): -1}, -1)


# printed by the canonical form of Q(s, sb), at the parent of the Laurent ring
_PRINTED = [
    (R.zero, '0'),
    (R.one, '1'),
    (-R.one, '-1'),
    (Fraction(-3, 4) * R.one, '-3/4'),
    (R.s, 's^1'),
    (R.nu, 's^-1*sb^-1'),
    (R.monomial(2, -1, Fraction(-3, 4)), '-3/4*s^2*sb^-1'),
    (R.monomial(-2, 3, Fraction(-2, 9)), '-2/9*s^-2*sb^3'),
    (R.c_coefficient(1), 's^-1*sb^-1*(s^2*sb^2-s^2-sb^2+1)'),
    (R.c_coefficient(2),
     '1/2*s^-3*sb^-3*(s^6*sb^6-s^6*sb^2+s^4*sb^4-s^2*sb^6-s^4+s^2*sb^2-sb^4+1)'),
    (R.c_coefficient(3) * R.monomial(-3, 1),
     '1/3*s^-8*sb^-4*(s^10*sb^10+s^8*sb^8-s^10*sb^4-s^4*sb^10+s^6*sb^6-s^8*sb^2'
     '-s^2*sb^8+s^4*sb^4-s^6-sb^6+s^2*sb^2+1)'),
    (R.kappa(1), 's^-1*sb^-1*(s^2*sb^2-1)'),
    (R.kappa(2), '2*s^-1*sb^-1*(s^2*sb^2-1)'),
    (-R.kappa(3) * Fraction(5, 6), '-5/2*s^-1*sb^-1*(s^2*sb^2-1)'),
    (laurent.alpha(1), 's^-2*sb^-2*(s^4*sb^4-s^4*sb^2-s^2*sb^4+s^2+sb^2-1)'),
    (laurent.alpha(2) / R.c_coefficient(1),
     '1/2*s^-3*sb^-3*(s^6*sb^6+s^6*sb^4+s^4*sb^6+s^4*sb^4-s^2*sb^2-s^2-sb^2-1)'),
    (R.nu_integer(3), 's^-2*sb^-2*(s^4*sb^4+s^2*sb^2+1)'),
    ((R.s - R.sb) ** 3 * Fraction(4, 9), '4/9*(s^3-3*s^2*sb+3*s*sb^2-sb^3)'),
    ((2 * R.s ** 2 - 4 * R.sb) * Fraction(1, 6), '1/3*(s^2-2*sb)'),
    ((R.s * R.sb - R.s ** -1 + 3 * R.sb ** 2) * Fraction(-7, 10), '-7/10*s^-1*(s^2*sb+3*s*sb^2-1)'),
    (-laurent.alpha(1) / R.c_coefficient(1), '-1*s^-1*sb^-1*(s^2*sb^2-1)'),
]


@pytest.mark.parametrize("x, printed", _PRINTED, ids=[p for _, p in _PRINTED])
def test_repr_unchanged(x, printed):
    assert repr(x) == printed


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


@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.integers(-2 ** 40, 2 ** 40).filter(bool), stepped(max_terms=36))
def test_one_term_product_is_the_dict_loop(m, c, b):
    assert ratfunc._bmul_term({m: c}, b) == ratfunc._bmul_dict({m: c}, b)


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

    # both sides of the threshold, and 159-160 term pairs: the earlier
    # threshold, which must stay on the packed side of the current one
    @pytest.mark.parametrize("pairs", sorted({ratfunc._KRONECKER_MIN_PAIRS - 1,
                                              ratfunc._KRONECKER_MIN_PAIRS, 159, 160}))
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

    @given(st.data(), st.integers(-3, 3), st.integers(-3, 3))
    def test_shared_frame(self, data, i0, j0):
        # two products on one frame: each equals the dict loop, and every key
        # of either is the frame's own monomial tuple
        coef = st.integers(-2 ** 20, 2 ** 20).filter(bool)
        grid = [(i0 + 2 * u, j0 + 2 * v) for u in range(4) for v in range(4)]
        results = []
        for _ in range(2):
            a = {m: data.draw(coef) for m in grid}
            b = {(2 * u, -2 * v): data.draw(coef) for u in range(3) for v in range(5)}
            results.append(same_product(a, b))
        frame = ratfunc._frame(i0, j0 - 8, 2, 2, 6, 8)
        ids = set(map(id, frame))
        for r in results:
            assert r is not None and set(map(id, r)) <= ids


def scalar(num, den=1):
    """The FormalScalar num / den, built from its required fields."""
    return ratfunc.FormalScalar(*laurent.fields({m: Fraction(c, den) for m, c in num.items()}))


@st.composite
def scalars(draw, max_terms=10, max_coef=2 ** 12):
    num = draw(stepped(max_terms=max_terms, max_coef=max_coef))
    return scalar(num, draw(st.integers(-30, 30).filter(bool)))


def running_sum(pairs, negated=()):
    """The (num, den) of the sum of a b over pairs minus that over negated:
    each product by the dict loop, added over the common den L."""
    dens = [a.den * b.den for group in (pairs, negated) for a, b in group]
    L = lcm(*dens) if dens else 1
    total = {}
    for sign, group in ((1, pairs), (-1, negated)):
        for a, b in group:
            k = sign * L // (a.den * b.den)
            for m, c in ratfunc._bmul_dict(a.num, b.num).items():
                total[m] = total.get(m, 0) + k * c
    return laurent.fields({m: Fraction(c, L) for m, c in total.items() if c})


def same_sum(pairs, negated=()):
    """The packed sum of the pairs, or None where it declines, after checking
    it and sum_of_products against the running sum, field for field."""
    want = running_sum(pairs, negated)
    with mock.patch.object(ratfunc, "_KRONECKER_MIN_PAIRS", 0):
        got = ratfunc._packed_sum(pairs, negated)
    for r in (got, R.sum_of_products(pairs, negated)):
        if r is not None:
            assert (r.num, r.den) == want
            assert all(type(c) is int and c for c in r.num.values())
    return got


class TestPackedSum:
    """The multiply-accumulate kernel against the running sum of products."""

    @given(st.lists(st.tuples(scalars(), scalars()), max_size=5),
           st.lists(st.tuples(scalars(), scalars()), max_size=3))
    def test_equals_running_sum(self, pairs, negated):
        same_sum(pairs, negated)

    def test_empty(self):
        assert same_sum([]) is R.zero
        assert R.sum_of_products([]) == R.zero == R.sum_of_products([], [])

    def test_zero_operands(self):
        x = scalar({(2 * u, 2 * v): 3 * u - v + 1 for u in range(3) for v in range(3)}, 7)
        assert same_sum([(R.zero, x), (x, R.zero)]) is R.zero
        assert (same_sum([(x, x), (R.zero, x)], [(x, R.zero)]).num
                == (x * x).num)

    def test_negative_and_mixed_denominators(self):
        a = scalar({(0, 0): 1, (2, 0): 1}, -3)
        b = scalar({(0, 2): 5, (2, 2): -1}, 2)
        c = scalar({(-2, 0): 4, (0, -2): 9}, -10)
        assert a.den < 0 and c.den < 0
        got = same_sum([(a, b), (c, a)], [(b, c)])
        assert got == a * b + c * a - b * c

    def test_offsets_and_steps_of_the_frame(self):
        # in s, least exponents 1, 0 and -4 and steps 2, 3 and 1; in sb,
        # least exponents 0, 1 and 0 and steps 1, 2 and 2: each product must
        # land at its own offset on the frame of steps 1
        a = scalar({(1 + 2 * u, v): u * v - 2 for u in range(3) for v in range(4)})
        b = scalar({(3 * u, 1 + 2 * v): u + v + 1 for u in range(3) for v in range(4)})
        c = scalar({(u - 4, 2 * v): 5 - u * v for u in range(3) for v in range(4)})
        got = same_sum([(a, b), (c, c)], [(b, c)])
        assert got is not None and got == a * b + c * c - b * c

    def test_offsets_join_the_steps(self):
        # every operand steps by 2 in s and in sb, but a b starts at odd
        # exponents and c c at even ones: the frame must step by 1
        a = scalar({(1 + 2 * u, 2 * v): u + v + 1 for u in range(3) for v in range(3)})
        b = scalar({(2 * u, 1 + 2 * v): 2 * u - v + 3 for u in range(3) for v in range(3)})
        c = scalar({(2 * u, 2 * v): 4 - u * v for u in range(3) for v in range(3)})
        got = same_sum([(a, b), (c, c)])
        assert got is not None and got == a * b + c * c

    def test_eight_byte_slots(self):
        # the summed bound is past 2^31 and below 2^63
        a = scalar({(k, 0): 2 ** 30 - k for k in range(8)})
        b = scalar({(0, 2 * k): 2 ** 24 + k for k in range(12)})
        bound = 2 * (2 ** 30) * (2 ** 24 + 11) * 8
        assert ratfunc._slot_width(bound) == 8
        assert same_sum([(a, b), (b, a)]) is not None

    def test_bound_past_64_bits_falls_back(self):
        a = scalar({(k, 0): 2 ** 40 + k for k in range(8)})
        b = scalar({(0, k): 2 ** 30 - k for k in range(14)})
        assert same_sum([(a, b), (b, b)]) is None

    def test_sparse_frame_falls_back(self):
        a = scalar({(1000 * k, 7 * k * k): k + 1 for k in range(12)})
        b = scalar({(k * k, 999 * k): 2 - k for k in range(12)})
        assert same_sum([(a, b), (b, b)]) is None

    @given(st.lists(scalars(max_terms=14), min_size=1, max_size=6))
    def test_right_factors_one(self, xs):
        got = same_sum([(x, R.one) for x in xs])
        assert got is None or got == sum(xs[1:], xs[0])

    def test_right_factors_one_on_a_grid(self):
        xs = [scalar({(2 * u, 2 * v): u - 3 * v + k for u in range(4) for v in range(4)}, k)
              for k in (1, 2, 3)]
        assert same_sum([(x, R.one) for x in xs]) == xs[0] + xs[1] + xs[2]

    @pytest.mark.parametrize("total", sorted({ratfunc._KRONECKER_MIN_PAIRS - 1,
                                              ratfunc._KRONECKER_MIN_PAIRS}))
    def test_size_threshold(self, total):
        # below the threshold sum_of_products multiplies and adds instead
        a = scalar({(2 * k, 0): k + 1 for k in range(total - 1)})
        x = scalar({(0, 0): 5})
        with mock.patch.object(ratfunc, "_bmul_term", wraps=ratfunc._bmul_term) as term:
            got = R.sum_of_products([(a, x), (x, x)])
        assert got == a * x + x * x
        assert term.called == (total < ratfunc._KRONECKER_MIN_PAIRS)


def same_quotient(a, b):
    """The packed quotient of a by b, or None where it declines, after
    checking it against the heap loop: equal where both answer, and None
    wherever the heap loop raises."""
    got = ratfunc._packed_quotient(a, b)
    try:
        want = ratfunc._bdivexact_heap(a, b)
    except ArithmeticError:
        assert got is None
        with pytest.raises(ArithmeticError, match="inexact polynomial division"):
            bdivexact(a, b)
        return got
    if got is not None:
        assert got == want
        assert all(type(c) is int and c for c in got.values())
    assert bdivexact(a, b) == want
    return got


class TestPackedQuotient:
    """The packed quotient of bdivexact against the heap loop."""

    @given(stepped(max_terms=8, max_coef=2 ** 12), stepped(max_terms=6, max_coef=2 ** 12))
    def test_product_divides_back(self, q, b):
        # Laurent q: a negative exponent of the quotient is the heap loop's
        # ArithmeticError, and the packed route declines it
        same_quotient(bmul(q, b), b)

    @given(stepped(max_terms=8), stepped(max_terms=6))
    def test_inexact(self, a, b):
        same_quotient(a, b)

    @given(polys(max_terms=12, max_deg=4, max_coef=2 ** 15), polys(max_terms=6))
    def test_taken_on_dense_operands(self, q, b):
        assume(len(b) > 1)
        # a full 5 x 5 grid of exponents keeps the frame of q b dense
        q = {(i, j): q.get((i, j), 1) for i in range(5) for j in range(5)}
        assert same_quotient(bmul(q, b), b) == q

    @given(values(), st.integers(1, 3))
    def test_kappa_divides_packed(self, y, n):
        kappa = R.kappa(n)
        x = y * kappa
        with mock.patch.object(ratfunc, "_bdivexact_heap",
                               side_effect=AssertionError("heap loop")):
            assert x / kappa == y

    def test_sparse_frame_is_taken(self):
        # kappa = s sb - 1/(s sb) has diagonal support: a = (3 + s^6 + sb^6)
        # kappa spans 5 x 5 slots of step 2 for its 6 x 2 term pairs, more
        # than _KRONECKER_MAX_FILL per pair, and still divides packed
        b = {(0, 0): -1, (2, 2): 1}
        a = bmul({(2, 2): 3, (8, 2): 1, (2, 8): 1}, b)
        assert 5 * 5 > ratfunc._KRONECKER_MAX_FILL * len(a) * len(b)
        assert same_quotient(a, b) == {(2, 2): 3, (8, 2): 1, (2, 8): 1}

    def test_quotient_larger_than_the_dividend(self):
        # y kappa has coefficients of at most 62 and packs in one-byte
        # slots, where y's 68 breaks the carry bound 68 * 1 * 2 < 2^7; the
        # quotient is divided again in two-byte slots
        y = {(k, k): c for k, c in enumerate((6, 34, 68, 56, 16))}
        b = {(1, 1): 1, (-1, -1): -1}
        a = bmul(y, b)
        assert max(map(abs, a.values())) == 62
        with mock.patch.object(ratfunc, "_bdivexact_heap",
                               side_effect=AssertionError("heap loop")):
            assert ratfunc._packed_quotient(a, b) == y

    def test_64_bit_coefficients_take_the_heap_loop(self):
        q = {(k, j): 2 ** 62 + k for k in range(6) for j in range(3)}
        b = {(0, 0): 3, (1, 1): -5}
        assert same_quotient(bmul(q, b), b) is None

    def test_quotient_wider_than_its_slots(self):
        # a = (1 - s^101)^2 (1 + ... + s^149) has coefficients of at most 2,
        # so with b = (1 - s)^2 it packs in one-byte slots; the quotient
        # (1 + ... + s^100)^2 (1 + ... + s^149) does not fit them, its
        # digits there are rejected, and it is divided again in wider slots
        ones = {(k, 0): 1 for k in range(101)}
        q = bmul(bmul(ones, ones), {(k, 0): 1 for k in range(150)})
        b = {(0, 0): 1, (1, 0): -2, (2, 0): 1}
        a = bmul(q, b)
        assert max(map(abs, a.values())) == 2 and max(q.values()) > 127
        assert same_quotient(a, b) == q

    @pytest.mark.parametrize("a, b", [
        # b's sb-range is wider than a's: packing b on a's frame would
        # overrun it
        ({(0, 0): 1, (1, 0): 2}, {(0, 0): 1, (0, 2): 1}),
        ({(0, 0): 3, (2, 1): 1, (1, 3): -1}, {(0, 0): 1, (0, 4): 1, (1, 2): 7}),
        # ... and its s-range
        ({(0, 0): 1, (0, 1): 2}, {(0, 0): 1, (2, 0): 1}),
        # a quotient with a negative exponent: (1 + sb) / (s + s sb)
        ({(0, 0): 1, (0, 1): 1}, {(1, 0): 1, (1, 1): 1}),
        # packed on width 3, A = 2 + 2X - 2X^2 - 2X^3 is (-2 - 2X)(X^2 - 1),
        # but (-2 - 2 sb)(sb^2 - 1) leaves the frame: -2 sb^3 read as -2 s
        ({(1, 0): -2, (0, 0): 2, (0, 1): 2, (0, 2): -2}, {(0, 0): -1, (0, 2): 1}),
        # B divides A, but the digits of the quotient break the slot bound
        ({(1, 2): -1, (0, 2): -1, (0, 1): 2}, {(0, 0): -2, (0, 1): 2}),
    ], ids=["sb-wider", "sb-wider-3", "s-wider", "negative-exponent", "wraps-a-row",
            "slot-bound"])
    def test_frame_fallbacks(self, a, b):
        assert same_quotient(a, b) is None
