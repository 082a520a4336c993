import hashlib
import random
import subprocess
import sys
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest

from ellhall.curve import (BudgetExceeded, Character, CharacterOrbit,
                           CurveData, _point_sort_key, all_characters,
                           character_orbits, primitive_orbits)
from ellhall.cyclotomic import get_curve_ring
from ellhall.scalars import TruncatedSeries, series_exp
from fractions import Fraction


def on_curve(curve, n, P):
    """P (None is infinity) satisfies the Weierstrass equation at level n."""
    if P is None:
        return True
    a1, a2, a3, a4, a6 = curve.level(n).a
    x, y = P
    return y * y + a1 * x * y + a3 * y == x ** 3 + a2 * x * x + a4 * x + a6


def neg(curve, n, P):
    """-P in the group law of the level-n curve."""
    if P is None:
        return None
    a1, _, a3, _, _ = curve.level(n).a
    x, y = P
    return (x, -y - a1 * x - a3)


def mul(curve, n, k, P):
    """k P by double-and-add, for k >= 0."""
    acc = None
    while k:
        if k & 1:
            acc = curve.add(n, acc, P)
        P = curve.add(n, P, P)
        k >>= 1
    return acc


def order_by_walk(curve, n, P):
    """The least m >= 1 with m P = O, by adding P until O."""
    m, acc = 1, P
    while acc is not None:
        acc = curve.add(n, acc, P)
        m += 1
    return m


def closed_point_count(curve, d):
    """The number of closed points of degree exactly d."""
    return sum(1 for x in curve.closed_points(d) if x.degree == d)


def character_ring(curve, max_level):
    """The scalar ring holding every character value up to max_level."""
    m = lcm(*(curve.picard(n).exponent for n in range(1, max_level + 1)))
    return get_curve_ring(curve.q, m, curve.trace)


def character_value(chi, P, ring):
    """chi(P) as one root of unity of the ring."""
    return ring.zeta(chi.curve.picard(chi.level).exponent, chi.value_exponent(P))


@pytest.fixture(scope="module")
def e1():
    return CurveData(2, a3=1)


@pytest.fixture(scope="module")
def e2():
    return CurveData(5, a4=1, a6=1)


@pytest.fixture(scope="module")
def f7():
    """y^2 = x^3 + x + 3 over F_7: Z/6, then Z/2 x Z/30 over F_49."""
    return CurveData(7, a4=1, a6=3)


@pytest.fixture(scope="module")
def mixed():
    """Curves with a1 != 0, so c = a1 x + a3 varies with x, and nonzero
    a2, a4, a6.  No smooth curve over F_2 has all five coefficients
    nonzero; the two F_2 curves leave out a6 and a2 in turn."""
    return (CurveData(2, 1, 1, 1, 1, 0), CurveData(2, 1, 0, 1, 1, 1),
            CurveData(3, 1, 1, 1, 1, 1))


def test_singular_rejected():
    with pytest.raises(ValueError):
        CurveData(2)          # y^2 = x^3 over F_2
    with pytest.raises(ValueError):
        CurveData(5)


def test_point_count_examples(e1):
    assert e1.count_points(1) == 3
    assert sorted(map(str, e1.points(1))) is not None
    assert e1.count_points(2) == 9
    assert e1.count_points(3) == 9
    assert e1.trace == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_counts_match_trace_recursion(e1, e2, mixed, n):
    for curve in (e1, e2, *mixed):
        assert curve.count_points(n) == curve.count_via_trace(n)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_points_are_the_solution_set(mixed, n):
    for curve in mixed:
        f = curve.level(n).field
        pts = curve.points(n)
        assert len(set(pts)) == len(pts)
        assert set(pts) == {None} | {(x, y) for x in f for y in f
                                     if on_curve(curve, n, (x, y))}


# SHA-256 of the point lists of levels 1..6, order included, as the
# general formulas give them (in odd characteristic y = h +- z with
# h = -(a1 x + a3)/2, which is identically zero on the q = 5 curve)
POINT_LIST_DIGESTS = {
    (2, (0, 0, 1, 0, 0)): "1a85a274cab01f6ecfe096f9e52a313635ea3f8d77f3fa7761ee93d87aa19608",
    (5, (0, 0, 0, 1, 1)): "724218b2651266f82d8768f1dd479c132b93acc9a88396fc9aff361a8e0d3ce4",
}


def test_point_lists_are_pinned_in_order(e1, e2):
    for curve in (e1, e2):
        digest = hashlib.sha256()
        for n in range(1, 7):
            digest.update(repr([None if P is None else (P[0].coeffs, P[1].coeffs)
                                for P in curve.points(n)]).encode())
        assert digest.hexdigest() == POINT_LIST_DIGESTS[curve.q, curve.a_ints]


def test_budget_guard():
    # 5^9 is over the field budget: the level raises before it is built
    curve = CurveData(5, a4=1, a6=1)
    with pytest.raises(BudgetExceeded):
        curve.points(9)


class TestGroupLaw:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_axioms_random(self, e1, n):
        rng = random.Random(n)
        pts = e1.points(n)
        for _ in range(30):
            P, Q, S = (rng.choice(pts) for _ in range(3))
            assert e1.add(n, P, None) == P
            assert e1.add(n, P, neg(e1, n, P)) is None
            assert e1.add(n, e1.add(n, P, Q), S) == e1.add(n, P, e1.add(n, Q, S))
            assert on_curve(e1, n, e1.add(n, P, Q))

    def test_odd_characteristic(self, e2):
        rng = random.Random(9)
        pts = e2.points(2)
        for _ in range(20):
            P, Q, S = (rng.choice(pts) for _ in range(3))
            assert e2.add(2, e2.add(2, P, Q), S) == e2.add(2, P, e2.add(2, Q, S))

    def test_off_curve_rejected(self, e1):
        f = e1.level(1).field
        bogus = (f.from_int(1), f.from_int(0))
        assert not on_curve(e1, 1, bogus)
        assert all(on_curve(e1, 1, P) for P in e1.points(1))


class TestClosedPoints:
    def test_degree_counts(self, e1):
        e1.closed_points(3)
        assert closed_point_count(e1, 1) == 3
        assert closed_point_count(e1, 2) == 3
        assert closed_point_count(e1, 3) == 2

    def test_moebius_census(self, e1, e2):
        # #{x : |x| = d} d = #X(F_{q^d}) - sum over proper levels
        for curve in (e1, e2):
            for d in (1, 2, 3, 4):
                total = sum(e * closed_point_count(curve, e)
                            for e in range(1, d + 1) if d % e == 0)
                assert total == curve.count_points(d)

    def test_closed_point_by_key(self, e1):
        fresh = CurveData(2, a3=1)  # degree 3 not enumerated yet
        assert fresh.closed_point((3, 1)).key() == (3, 1)
        for x in e1.closed_points(4):
            assert e1.closed_point(x.key()) is x

    def test_points_above_cached(self):
        curve = CurveData(2, a3=1)  # fresh, so nothing is cached yet
        pairs = [(x, n) for x in curve.closed_points(4) for n in (1, 2, 3)]
        calls = []
        frobenius = curve.frobenius
        curve.frobenius = lambda *args: calls.append(args) or frobenius(*args)
        first = [curve.points_above(x, n) for x, n in pairs]
        computed = len(calls)
        again = [curve.points_above(x, n) for x, n in pairs]
        assert len(calls) == computed  # each (x, n) computed once
        assert all(a is b for a, b in zip(first, again))
        for (x, n), pts in zip(pairs, first):
            # the level-big/level-n norm of each Frobenius conjugate of x
            big = x.degree * n // gcd(x.degree, n)
            y = curve.embed_point(x.degree, big, x.rep)
            assert pts == tuple(curve.norm_points(n, big, curve.frobenius(big, y, i))
                                for i in range(gcd(x.degree, n)))


class TestFrobeniusAndEmbeddings:
    def test_rational_points_fixed(self, e1):
        for P in e1.points(1):
            assert e1.frobenius(1, P) == P

    def test_frobenius_order(self, e1):
        for P in e1.points(3):
            assert e1.frobenius(3, P, 3) == P

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 4), (3, 6)])
    def test_embedded_level_is_fixed_set(self, e1, m, n):
        emb = {e1.embed_point(m, n, P) for P in e1.points(m)}
        fixed = {P for P in e1.points(n) if e1.frobenius(n, P, m) == P}
        assert emb == fixed

    def test_embedding_respects_group_law(self, e1):
        rng = random.Random(4)
        for _ in range(10):
            P, Q = rng.choice(e1.points(2)), rng.choice(e1.points(2))
            lhs = e1.embed_point(2, 4, e1.add(2, P, Q))
            rhs = e1.add(4, e1.embed_point(2, 4, P), e1.embed_point(2, 4, Q))
            assert lhs == rhs


class TestNorms:
    def test_identity_norm(self, e1):
        for P in e1.points(2):
            assert e1.norm_points(2, 2, P) == P

    def test_rational_point_doubles(self, e1):
        for P in e1.points(1):
            Pn = e1.embed_point(1, 2, P)
            assert e1.norm_points(1, 2, Pn) == mul(e1, 1, 2, P)

    def test_surjectivity(self, e1, e2):
        for curve, n in [(e1, 2), (e1, 3), (e2, 2)]:
            img = {curve.norm_points(1, n, P) for P in curve.points(n)}
            assert len(img) == curve.count_points(1)


class TestPicard:
    def test_structures(self, e1, e2):
        assert e1.picard(1).divisors == (3,)
        assert e1.picard(2).divisors == (3, 3)
        assert e1.picard(3).divisors == (9,)
        assert e2.picard(1).divisors == (9,)

    def test_dlog_bijection(self, e1):
        pic = e1.picard(2)
        assert len(pic.dlog) == 9

    @pytest.mark.parametrize("name,n,divisors", [
        ("e1", 1, (3,)), ("e1", 2, (3, 3)), ("e1", 3, (9,)),
        ("e2", 1, (9,)), ("e2", 2, (3, 9)), ("e2", 3, (2, 54)),
        ("f7", 1, (6,)), ("f7", 2, (2, 30))],
        ids=["e1-1", "e1-2", "e1-3", "e2-1", "e2-2", "e2-3", "f7-1", "f7-2"])
    def test_tables_against_oracle(self, request, name, n, divisors):
        curve = request.getfixturevalue(name)
        pic = curve.picard(n)
        assert pic.divisors == divisors
        # dlog[P] == exps exactly when sum e_i g_i = P
        span = {}
        for exps in product(*(range(d) for d in divisors)):
            P = None
            for g, e in zip(pic.generators, exps):
                P = curve.add(n, P, mul(curve, n, e, g))
            span[P] = exps
        assert len(span) == curve.count_points(n)
        assert pic.dlog == span
        assert all(pic.log(P) == e for P, e in span.items())
        # each generator is the first point of its order in sort order,
        # g1 the first with no nonzero multiple in <g2>
        pts = sorted(curve.points(n), key=_point_sort_key)
        orders = {P: order_by_walk(curve, n, P) for P in pts}
        assert pic.exponent == divisors[-1] == lcm(*orders.values())
        g2 = pic.generators[-1]
        assert g2 == next(P for P in pts if orders[P] == divisors[-1])
        if len(divisors) == 2:
            cyclic = {mul(curve, n, k, g2) for k in range(divisors[1])}

            def meets_g2(P):
                return any(mul(curve, n, k, P) in cyclic for k in range(1, orders[P]))

            g1 = pic.generators[0]
            assert orders[g1] == divisors[0] and not meets_g2(g1)
            assert g1 == next(P for P in pts
                              if orders[P] == divisors[0] and not meets_g2(P))


class TestCharacters:
    def test_orthogonality(self, e1):
        ring = character_ring(e1, 2)
        for n in (1, 2):
            for chi in all_characters(e1, n):
                total = ring.zero
                for P in e1.points(n):
                    total = total + character_value(chi, P, ring)
                if chi.is_trivial():
                    assert total == ring.from_int(e1.count_points(n))
                else:
                    assert total.is_zero()

    def test_frobenius_dual_action(self, e1):
        for chi in all_characters(e1, 2):
            fr = chi.frobenius()
            for P in e1.points(2):
                assert fr.value_exponent(P) == chi.value_exponent(e1.frobenius(2, P))
            # Galois order
            assert chi.frobenius().frobenius() == chi

    def test_fixed_characters_are_norm_images(self, e1):
        fixed = {chi for chi in all_characters(e1, 2) if chi.frobenius() == chi}
        norm_im = {chi.norm_to(2) for chi in all_characters(e1, 1)}
        assert fixed == norm_im
        assert len(fixed) == e1.count_points(1)

    def test_primitive_orbit_counts(self, e1):
        assert len(primitive_orbits(e1, 1)) == 3
        assert len(primitive_orbits(e1, 2)) == 3
        assert len(primitive_orbits(e1, 3)) == 2

    def test_trivial_never_primitive_above_level_one(self, e1):
        for n in (2, 3):
            triv = CharacterOrbit(Character(e1, n, (0,) * len(e1.picard(n).divisors)))
            assert not triv.is_primitive()

    def test_tilde_eval_trivial(self, e1):
        ring = character_ring(e1, 2)
        triv = CharacterOrbit(Character(e1, 2, (0, 0)))
        for x in e1.closed_points(3):
            assert triv.tilde_eval(x, ring) == ring.one

    def test_tilde_eval_is_the_mean_of_character_values(self, e1):
        # the sum of roots of unity from exponent counts against the
        # running sum of the values, one at a time
        ring = character_ring(e1, 3)
        for n in (1, 2, 3):
            for orbit in character_orbits(e1, n):
                for x in e1.closed_points(3):
                    pts = e1.points_above(x, n)
                    total = ring.zero
                    for P in pts:
                        total = total + character_value(orbit.rep, P, ring)
                    assert orbit.tilde_eval(x, ring) == total * Fraction(1, len(pts))

    def test_tilde_eval_representative_independent(self, e1):
        ring = character_ring(e1, 2)
        orbit = primitive_orbits(e1, 2)[0]
        x = [x for x in e1.closed_points(2) if x.degree == 2][0]
        vals = {CharacterOrbit(m).tilde_eval(x, ring) for m in orbit.members()}
        assert len({str(v.a) for v in vals}) == 1

    def test_tilde_norm_compatibility(self, e1):
        # rho~(x) = Norm(rho~)(x) on points of degree N with n | N
        ring = character_ring(e1, 4)
        for orbit in character_orbits(e1, 2):
            normed = orbit.norm_to(4)
            for x in e1.closed_points(4):
                if x.degree != 4:
                    continue
                assert orbit.tilde_eval(x, ring) == normed.tilde_eval(x, ring)


class TestZeta:
    def test_series_example(self, e1):
        assert e1.zeta_series(1, 3) == [1, 3, 9, 21]

    def test_numerator(self, e1, e2):
        assert e1.zeta_rational(1) == ([1, 0, 2], [1, -3, 2])
        num, _ = e2.zeta_rational(1)
        assert num == [1, 3, 5]

    def test_log_derivative_counts(self, e1, e2):
        for curve in (e1, e2):
            assert curve.zeta_series(1, 1)[1] == curve.count_points(1)

    @pytest.mark.parametrize("n", (1, 2))
    def test_exp_identity(self, e1, n):
        order = 8
        logs = TruncatedSeries(
            {k: Fraction(e1.count_via_trace(n * k), k) for k in range(1, order + 1)},
            order, Fraction(1))
        assert series_exp(logs) == e1.zeta_truncated(n, order)


def test_curve_report_unchanged_byte_for_byte():
    # tests/data/curve_report.txt is the output of an earlier version of the
    # package: counts for n <= 6, zeta, Picard groups, primitive orbits at
    # levels 1-3 and one L-function must be reproduced to the byte
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "curve_report.py")],
        capture_output=True, env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "tests" / "data" / "curve_report.txt").read_bytes()
