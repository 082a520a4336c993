from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import laurent

from ellhall.autoforms import AutoformContext, T0_twisted
from ellhall.curve import CurveData, primitive_orbits
from ellhall.cyclotomic import CurveRing, cyclotomic_polynomial, get_curve_ring
from ellhall.dvr_hall import DvrHallAlgebra, SymmetricFunction, p_monomial
from ellhall.elliptic_hall import EllipticHallAlgebra
from ellhall.ratfunc import FORMAL, FormalScalar
from ellhall.scalars import TruncatedSeries, series_exp

R = FORMAL
evaluate = laurent.evaluate
E1_RING = get_curve_ring(2, 9, 0)


def curve_alpha(ring, i):
    """alpha_i = #X(F_{q^i}) (1 - q^-i) / i, a rational number."""
    return ring.from_fraction(Fraction(ring.point_count(i), i) * (1 - Fraction(1, ring.q ** i)))


def series_log(a):
    """log of a series with constant term 1."""
    u = TruncatedSeries({k: v for k, v in a.terms.items() if k > 0}, a.order, a.one)
    out = TruncatedSeries({}, a.order, a.one)
    power = TruncatedSeries.constant(a.one, a.order, a.one)
    for k in range(1, a.order + 1):
        power = power * u
        if not power:
            break
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return out


def small_formal():
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.builds(
        lambda c, i, j: R.monomial(i, j, c if c != 0 else 1),
        coef, st.integers(-3, 3), st.integers(-3, 3))


def formal_values():
    base = small_formal()
    return st.one_of(
        base,
        st.builds(lambda a, b: a + b, base, base),
        st.builds(lambda a, b: a * b, base, base),
    )


class TestNuInteger:
    def test_r1_is_one(self):
        assert R.nu_integer(1) == R.one

    def test_r2(self):
        assert R.nu_integer(2) == R.nu + R.nu ** -1

    def test_r3_expanded(self):
        # (nu^3 - nu^-3)/(nu - nu^-1) by hand
        assert R.nu_integer(3) == R.nu ** 2 + R.one + R.nu ** -2
        lhs = (R.nu ** 3 - R.nu ** -3) / (R.nu - R.nu ** -1)
        assert R.nu_integer(3) == lhs

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            R.nu_integer(0)
        with pytest.raises(ValueError):
            E1_RING.nu_integer(-2)


class TestStructureConstants:
    def test_c1_formal(self):
        assert R.c_coefficient(1) == (R.s - 1 / R.s) * (R.sb - 1 / R.sb)

    def test_c1_curve_E1(self):
        assert E1_RING.c_coefficient(1) == E1_RING.nu * 3

    def test_alpha_formal(self):
        want = (1 - R.s ** 2) * (1 - R.sb ** 2) * (1 - (R.s * R.sb) ** -2)
        assert laurent.alpha(1) == want

    def test_alpha_curve_values(self):
        assert curve_alpha(E1_RING, 1) == E1_RING.from_fraction(Fraction(3, 2))
        assert curve_alpha(E1_RING, 2) == E1_RING.from_fraction(Fraction(27, 8))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            R.c_coefficient(0)
        with pytest.raises(ValueError):
            E1_RING.c_coefficient(-1)

    @pytest.mark.parametrize("i", range(1, 9))
    def test_specialization_identity(self, i):
        # lifting the curve-mode formula back through ss~ -> u,
        # s^2 + sb^2 -> trace turns it into a formal identity
        s, sb = R.s, R.sb
        count_lift = (s * sb) ** (2 * i) + 1 - s ** (2 * i) - sb ** (2 * i)
        rhs = R.nu_integer(i) * (s * sb) ** (-i) * count_lift * Fraction(1, i)
        assert R.c_coefficient(i) == rhs
        alpha_rhs = count_lift * (1 - (s * sb) ** (-2 * i)) * Fraction(1, i)
        assert laurent.alpha(i) == alpha_rhs


class TestFormalField:
    @given(formal_values(), formal_values(), formal_values())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(formal_values(), formal_values())
    def test_division_roundtrip(self, a, b):
        # exact division: only a multiple of b is divisible by b
        if not b.is_zero():
            assert (a * b) / b == a

    @given(formal_values(), formal_values())
    def test_evaluation_homomorphism(self, a, b):
        pt = (Fraction(2, 3), Fraction(-5, 7))
        assert evaluate(a * b, *pt) == evaluate(a, *pt) * evaluate(b, *pt)
        assert evaluate(a + b, *pt) == evaluate(a, *pt) + evaluate(b, *pt)
        assert evaluate(a - b, *pt) == evaluate(a, *pt) - evaluate(b, *pt)

    def test_canonical_form_syntactic_equality(self):
        x = (R.s ** 4 - 1) / (R.s ** 2 - 1)
        assert x == R.s ** 2 + 1
        assert hash(x) == hash(R.s ** 2 + 1)

    def test_numerator_denominator_views(self):
        # x = num / den: an integer Laurent polynomial over a nonzero integer
        x = (R.s - 1 / R.s) * (R.sb ** 2 - 1) / (R.sb + 1) * Fraction(-3, 4)
        assert all(type(v) is int for v in x.num.values()) and type(x.den) is int
        assert x.num == {(1, 1): 3, (1, 0): -3, (-1, 1): -3, (-1, 0): 3} and x.den == -4

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            R.one / R.zero


class TestCurveRing:
    def test_u_v_inverse(self):
        assert E1_RING.u * E1_RING.nu == E1_RING.one
        assert E1_RING.u ** 2 == E1_RING.from_int(2)

    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == [-1, 1]
        assert cyclotomic_polynomial(2) == [1, 1]
        assert cyclotomic_polynomial(9) == [1, 0, 0, 1, 0, 0, 1]

    def test_zeta_order(self):
        z = E1_RING.zeta(9)
        assert z ** 9 == E1_RING.one
        assert z ** 3 != E1_RING.one

    def test_conjugation(self):
        z = E1_RING.zeta(9)
        assert z.conjugate() == z ** -1
        assert E1_RING.u.conjugate() == E1_RING.u
        x = z + 2 * z ** 2 * E1_RING.u
        assert x.conjugate().conjugate() == x

    def test_inverse(self):
        z = E1_RING.zeta(9)
        x = E1_RING.one + z * E1_RING.u
        assert x * x.inverse() == E1_RING.one

    def test_mixed_m_rejected(self):
        # zeta_3 in M = 3 and zeta_9^3 in M = 9 are the same number, but
        # scalars of two rings never mix, so equality cannot disagree with
        # hashing
        a = get_curve_ring(2, 3, 0).zeta(3)
        b = get_curve_ring(2, 9, 0).zeta(9, 3)
        for op in (lambda: a * b, lambda: a + b, lambda: a - b,
                   lambda: a / b, lambda: a == b):
            with pytest.raises(ValueError):
                op()
        assert b not in {a}

    def test_square_q_degenerates(self):
        ring = get_curve_ring(4, 1)
        assert ring.u == ring.from_int(2)
        assert ring.nu == ring.from_fraction(Fraction(1, 2))

    def test_mixed_q_rejected(self):
        with pytest.raises(ValueError):
            get_curve_ring(2, 1, 0).one + get_curve_ring(3, 1, 0).one

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    def test_ring_axioms_curve(self, i, j, k):
        ring = E1_RING
        z = ring.zeta(9)
        a = z ** i + ring.u * (i % 3)
        b = z ** j - ring.u
        c = z ** k * Fraction(1, 2)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestSeries:
    def test_exp_zero(self):
        z = TruncatedSeries({}, 5, R.one)
        assert series_exp(z) == TruncatedSeries({0: R.one}, 5, R.one)

    def test_exp_log_roundtrip_order_12(self):
        coeffs = {k: R.monomial(k % 3 - 1, 0, Fraction(k, k + 1)) for k in range(1, 13)}
        a = TruncatedSeries(coeffs, 12, R.one)
        assert series_log(series_exp(a)) == a

    def test_exp_hand_expansion(self):
        a = TruncatedSeries({1: R.one, 2: R.one}, 2, R.one)
        e = series_exp(a)
        assert e.coefficient(0) == R.one
        assert e.coefficient(1) == R.one
        assert e.coefficient(2) == R.one * Fraction(3, 2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            series_exp(TruncatedSeries({0: R.one}, 3, R.one))

    def test_log_exp_linear(self):
        c = R.monomial(1, -1, Fraction(5, 3))
        a = TruncatedSeries({1: c}, 9, R.one)
        assert series_log(series_exp(a)) == a


def _algebra_element():
    alg = EllipticHallAlgebra(1, FORMAL)
    return alg.generator((1, 0)) * alg.generator((0, 1)), alg.zero


def _dvr_element():
    alg = DvrHallAlgebra(2)
    return alg.basis_element((1,)) * alg.basis_element((1,)), alg.zero


def _global_element():
    ctx = AutoformContext(CurveData(2, a3=1))
    rho = primitive_orbits(ctx.curve, 1)[1]
    return T0_twisted(ctx, rho, 1) * T0_twisted(ctx, rho, 1), ctx.zero_elem()


def _symmetric_function():
    ring = E1_RING
    x = p_monomial(ring, (2, 1)) + p_monomial(ring, (1,)).scale(ring.zeta(9))
    return x, SymmetricFunction(ring, {})


def _series_of_scalars():
    return (TruncatedSeries({1: R.s, 2: Fraction(1, 2) * R.one}, 4, R.one),
            TruncatedSeries({}, 4, R.one))


def _series_of_elements():
    alg = EllipticHallAlgebra(1, FORMAL)
    terms = {1: alg.generator((0, 1)), 2: alg.theta((0, 2))}
    return TruncatedSeries(terms, 3, alg.one), TruncatedSeries({}, 3, alg.one)


ELEMENT_MAKERS = pytest.mark.parametrize("make", [
    _algebra_element, _dvr_element, _global_element, _symmetric_function,
    _series_of_scalars, _series_of_elements,
], ids=["AlgebraElement", "DvrHallElement", "GlobalTorsionElement",
        "SymmetricFunction", "TruncatedSeries", "TruncatedSeries-of-elements"])


@ELEMENT_MAKERS
def test_zero_rule(make):
    x, zero = make()
    assert x and x.terms
    diff = x - x
    assert not diff
    assert diff == zero
    assert not diff.terms
    assert not x.scale(0)
    assert x.scale(0) == zero


@pytest.mark.parametrize("make", [
    _algebra_element, _dvr_element, _global_element, _symmetric_function,
], ids=["AlgebraElement", "DvrHallElement", "GlobalTorsionElement", "SymmetricFunction"])
def test_division_by_a_scalar(make):
    x, zero = make()
    c = next(iter(x.terms.values()))
    assert x.scale(c) / c == x
    assert (x * 3) / 3 == x and (x / 3) * 3 == x
    assert zero / c == zero


@ELEMENT_MAKERS
def test_negation_is_scale_minus_one(make):
    a, zero = make()
    # b shares a's keys (with other coefficients) and has keys of its own
    b = a * a + a.scale(2)
    assert -a == a.scale(-1)
    assert -zero == zero
    for x, y in ((a, b), (b, a), (a, zero), (zero, a), (a, a)):
        assert x - y == x + y.scale(-1)


def test_series_difference_truncates_at_smaller_order():
    a = TruncatedSeries({1: R.s, 4: R.one}, 4, R.one)
    b = TruncatedSeries({1: R.sb, 2: R.nu}, 2, R.one)
    assert a - b == TruncatedSeries({1: R.s - R.sb, 2: -R.nu}, 2, R.one)
    assert (a - b).order == (b - a).order == 2


_CORPUS = [
    R.monomial(2, -1, Fraction(-3, 4)),
    laurent.Quotient((R.s + R.sb) * Fraction(5, 7), R.one - R.s * R.sb),
    R.c_coefficient(2) * R.monomial(-3, 1),
    laurent.Quotient(R.one, R.kappa(2)),
    -laurent.alpha(1) / R.c_coefficient(1),
]

_MONOMIALS = [
    R.one, -R.one, R.zero, R.nu, R.monomial(1, 0), R.monomial(-2, 3, Fraction(-2, 9)),
    1, -1, 0, Fraction(3, 5), Fraction(-7, 2), Fraction(0),
]


@pytest.mark.parametrize("m", _MONOMIALS, ids=repr)
@pytest.mark.parametrize("f", _CORPUS, ids=repr)
def test_monomial_product_is_canonical(f, m):
    g = m if isinstance(m, FormalScalar) else R.from_fraction(m)
    # a quotient outside the ring: its numerator times m is canonical, and
    # the divisor divides that product only where m is 0 (m is a unit)
    num = f.num if isinstance(f, laurent.Quotient) else f
    want = laurent.fields(laurent.mul(laurent.value(num), laurent.value(g)))
    for prod in (num * m, m * num):
        assert (prod.num, prod.den) == want
        if isinstance(f, laurent.Quotient):
            assert (prod * f.div) / f.div == prod
            if g:
                with pytest.raises(ArithmeticError):
                    prod / f.div
            else:
                assert prod / f.div is R.zero


@pytest.mark.parametrize("ring", [FORMAL, get_curve_ring(2, 3), E1_RING], ids=repr)
@pytest.mark.parametrize("x", [0, 1, -1, 7, Fraction(1, 2), Fraction(-3, 4)], ids=repr)
def test_rational_constant_hashes_as_its_value(ring, x):
    # x == y must imply hash(x) == hash(y), also against int and Fraction
    for y in (ring.from_fraction(x), ring.one * x, (ring.nu * x) / ring.nu):
        assert y == x
        assert hash(y) == hash(x) == hash(Fraction(x))
        assert {x: "hit"}.get(y) == "hit"
        assert {Fraction(x): "hit"}.get(y) == "hit"
        assert y in {x} and x in {y}
    assert {1: "one"}.get(ring.one) == "one"


@pytest.mark.parametrize("ring", [FORMAL, E1_RING], ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kappa(ring, n):
    assert ring.kappa(n) == (ring.nu ** -1 - ring.nu) * n


def test_curve_ring_memoized_constants():
    ring = CurveRing(3, 12, 1)
    for r in (1, 2, 3, 5):
        val = ring.nu_integer(r)
        assert val == (ring.nu ** r - ring.nu ** -r) / (ring.nu - ring.nu ** -1)
        assert ring.nu_integer(r) is val
    z = ring.zeta(12)
    for k in range(-3, 30):
        assert ring.zeta(12, k) == z ** k
    assert ring.zeta(4, 3) == z ** 9
