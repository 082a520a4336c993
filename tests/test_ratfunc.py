"""The polynomial layer of Q(s, sb): gcd and exact division in Z[s, sb]."""

from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from ellhall.ratfunc import FORMAL, bdivexact, bgcd, bmul

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
