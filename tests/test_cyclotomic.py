"""Q(zeta_M)[u]/(u^2 - q) on integer coordinates against the Fraction-
coordinate formulas: every operation, the strings and the hashes."""

from fractions import Fraction
from math import gcd

import re

import pytest
from hypothesis import given, strategies as st

from ellhall.cyclotomic import cyclotomic_polynomial, get_curve_ring

# (Z/8)^* and (Z/12)^* are not cyclic, so the inverse takes every unit, not
# the powers of one; sqrt(3) is not in Q(zeta_8), nor sqrt(2) in Q(zeta_12)
RINGS = {"E1": get_curve_ring(2, 9, 0), "q2M3": get_curve_ring(2, 3),
         "q4M3": get_curve_ring(4, 3), "q3M8": get_curve_ring(3, 8),
         "q2M12": get_curve_ring(2, 12)}


# -- the Fraction-coordinate formulas --------------------------------------


def coords(x):
    """(a, b) as Fraction tuples: x = sum a_k z^k + sum b_k z^k u."""
    return (tuple(Fraction(c, x.d) for c in x.a), tuple(Fraction(c, x.d) for c in x.b))


def cyc_mul(ring, a, b):
    """a b mod phi_M by schoolbook multiplication and long division."""
    phi = cyclotomic_polynomial(ring.m)
    d = ring.degree
    prod = [Fraction(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        for j, f in enumerate(phi):
            prod[k - d + j] -= c * f
    return tuple(prod[:d])


def cyc_inv(ring, a):
    """a^-1 mod phi_M by Gauss-Jordan on the matrix of multiplication by a."""
    d = ring.degree
    basis = [tuple(Fraction(int(i == k)) for i in range(d)) for k in range(d)]
    cols = [cyc_mul(ring, a, e) for e in basis]
    rows = [[cols[k][i] for k in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
    for c in range(d):
        piv = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return tuple(row[d] for row in rows)


def vadd(x, y, k=1):
    return tuple(p + k * r for p, r in zip(x, y))


def old_mul(ring, x, y):
    """The four-product formula."""
    (a1, b1), (a2, b2) = x, y
    return (vadd(cyc_mul(ring, a1, a2), cyc_mul(ring, b1, b2), ring.q),
            vadd(cyc_mul(ring, a1, b2), cyc_mul(ring, b1, a2)))


def old_inverse(ring, x):
    a, b = x
    if not any(b):
        return cyc_inv(ring, a), b
    ninv = cyc_inv(ring, vadd(cyc_mul(ring, a, a), cyc_mul(ring, b, b), -ring.q))
    return cyc_mul(ring, a, ninv), tuple(-c for c in cyc_mul(ring, b, ninv))


def old_conj(ring, vec):
    """zeta^k -> zeta^(-k) = zeta^(M - k), coordinate by coordinate."""
    zp = coords(ring.zeta(ring.m, 0))[0]
    zeta = coords(ring.zeta(ring.m))[0]
    powers = []
    for _ in range(ring.m):
        powers.append(zp)
        zp = cyc_mul(ring, zp, zeta)
    out = (Fraction(0),) * ring.degree
    for k, c in enumerate(vec):
        out = vadd(out, powers[-k % ring.m], c)
    return out


def old_repr(ring, x):
    def side(vec, suffix):
        terms = []
        for k, c in enumerate(vec):
            if c:
                z = f"z{ring.m}^{k}" if k else ""
                body = "*".join(t for t in (str(c), z) if t) or "1"
                terms.append(body + suffix)
        return terms

    terms = side(x[0], "") + side(x[1], "*u")
    return " + ".join(terms) if terms else "0"


# -- strategies ----------------------------------------------------------------


@st.composite
def scalars(draw, ring, u_part=None):
    """sum c_k zeta^k + u sum c'_k zeta^k with small rational c; the u-part
    is present, absent or drawn (u_part None)."""
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    x = ring.zero
    for k in draw(st.lists(st.integers(0, ring.m - 1), max_size=3)):
        x = x + ring.zeta(ring.m, k) * draw(frac)
    if u_part is None:
        u_part = draw(st.booleans())
    if u_part:
        y = ring.zeta(ring.m, draw(st.integers(0, ring.m - 1))) * draw(frac.filter(bool))
        x = x + ring.u * y
    return x


def rings_and_scalars(n, u_part=None):
    return st.sampled_from(sorted(RINGS)).flatmap(
        lambda name: st.tuples(st.just(RINGS[name]),
                               *[scalars(RINGS[name], u_part) for _ in range(n)]))


def check_canonical(x):
    assert x.d > 0
    assert gcd(x.d, *x.a, *x.b) == 1
    assert len(x.a) == len(x.b) == x.ring.degree
    assert all(type(c) is int for c in x.a + x.b)


# -- tests -------------------------------------------------------------------


@given(rings_and_scalars(2))
def test_ring_operations_match_fraction_formulas(args):
    ring, x, y = args
    X, Y = coords(x), coords(y)
    for z in (x, y, x + y, x - y, -x, x * y, x.conjugate()):
        check_canonical(z)
    assert coords(x + y) == (vadd(X[0], Y[0]), vadd(X[1], Y[1]))
    assert coords(x - y) == (vadd(X[0], Y[0], -1), vadd(X[1], Y[1], -1))
    assert coords(-x) == tuple(tuple(-c for c in v) for v in X)
    assert coords(x * y) == old_mul(ring, X, Y)
    assert coords(x.conjugate()) == (old_conj(ring, X[0]), old_conj(ring, X[1]))
    for k in (0, 1, 2, 3):
        want = coords(ring.one)
        for _ in range(k):
            want = old_mul(ring, want, X)
        assert coords(x ** k) == want
    if y:
        inv = y.inverse()
        check_canonical(inv)
        assert coords(inv) == old_inverse(ring, Y)
        assert coords(x / y) == old_mul(ring, X, old_inverse(ring, Y))
        assert coords(y ** -2) == old_mul(ring, *(old_inverse(ring, Y),) * 2)
        assert y * inv == ring.one
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()


@pytest.mark.parametrize("u_part", [False, True], ids=["no-u", "with-u"])
@given(data=st.data())
def test_products_by_u_part(u_part, data):
    # the two-product path (a factor without u-part) and the
    # three-product path (both with one) against the four products
    ring, x, y = data.draw(rings_and_scalars(2, u_part))
    for z, w in ((x, y), (x, ring.u * y), (ring.u * x, y)):
        assert coords(z * w) == old_mul(ring, coords(z), coords(w))
    c = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    assert coords(x * c) == coords(c * x) == coords(x * ring.from_fraction(c))


@given(rings_and_scalars(1))
def test_strings_match_fraction_coordinates(args):
    ring, x = args
    assert repr(x) == old_repr(ring, coords(x))


@given(st.sampled_from(sorted(RINGS)),
       st.fractions(min_value=-20, max_value=20, max_denominator=30))
def test_constants_hash_as_their_fraction(name, c):
    ring = RINGS[name]
    x = ring.from_fraction(c)
    check_canonical(x)
    assert hash(x) == hash(c)
    assert hash(ring.one * c + ring.zero) == hash(c)
    assert x == c and x in {c}
    assert repr(x) == old_repr(ring, coords(x))


@given(rings_and_scalars(1))
def test_reduce_mod_matches_fraction_coordinates(args):
    ring, x = args
    # p = 1 mod 9, 8 and 12, and q = 2, 3 are squares mod p, so zeta_M and
    # sqrt(q) exist mod p
    p = 73
    zeta_img = next(z for z in range(2, p)
                    if [k for k in range(1, ring.m + 1) if pow(z, k, p) == 1] == [ring.m])
    u_img = next(v for v in range(p) if (v * v - ring.q) % p == 0)
    want = 0
    for k, (ca, cb) in enumerate(zip(*coords(x))):
        for c, extra in ((ca, 1), (cb, u_img)):
            want += c.numerator * pow(c.denominator, -1, p) * pow(zeta_img, k, p) * extra
    assert x.reduce_mod(p, zeta_img, u_img) == want % p


def galois(x, k):
    """sigma_k(x): zeta -> zeta^k, u fixed."""
    ring = x.ring
    return ring._scalar(ring._galois(x.a, k), ring._galois(x.b, k), x.d)


@given(rings_and_scalars(2))
def test_galois_action_is_a_ring_map(args):
    ring, x, y = args
    units = [k for k in range(1, ring.m + 1) if gcd(k, ring.m) == 1]
    for k in units:
        assert galois(x + y, k) == galois(x, k) + galois(y, k)
        assert galois(x * y, k) == galois(x, k) * galois(y, k)
        assert galois(ring.zeta(ring.m), k) == ring.zeta(ring.m, k)
        assert galois(ring.u, k) == ring.u
        for j in units:
            assert galois(galois(x, j), k) == galois(x, j * k)
    assert galois(x, ring.m - 1) == x.conjugate()


def test_sqrt_q_in_the_field_is_a_zero_divisor():
    # sqrt(2) = zeta_8 + zeta_8^7, so u - sqrt(2) divides zero
    ring = get_curve_ring(2, 8)
    x = ring.u - ring.zeta(8) - ring.zeta(8, 7)
    assert x * (ring.u + ring.zeta(8) + ring.zeta(8, 7)) == ring.zero
    with pytest.raises(ZeroDivisionError,
                       match=re.escape("zero divisor: sqrt(q) lies in Q(zeta_M)")):
        x.inverse()


# -- sums of roots of unity and rational factors --------------------------------


SUM_RINGS = [get_curve_ring(2, m) for m in (1, 2, 3, 4, 6, 9, 12)]


@pytest.mark.parametrize("ring", SUM_RINGS, ids=lambda r: f"M{r.m}")
@given(exps=st.lists(st.integers(-40, 40), max_size=12))
def test_zeta_sum_is_the_running_sum(ring, exps):
    for order in (k for k in range(1, ring.m + 1) if ring.m % k == 0):
        for es in (exps, [], [order, -order, 2 * order + 1, -1]):
            want = ring.zero
            for e in es:
                want = want + ring.zeta(order, e)
            got = ring.zeta_sum(order, es)
            check_canonical(got)
            assert got == want


@pytest.mark.parametrize("ring", SUM_RINGS, ids=lambda r: f"M{r.m}")
def test_zeta_sum_needs_order_dividing_m(ring):
    for order in (0, -1, 5, 8, ring.m + 1):
        if order > 0 and ring.m % order == 0:
            continue
        with pytest.raises(ValueError, match="not available"):
            ring.zeta_sum(order, [0, 1])
        with pytest.raises(ValueError, match="not available"):
            ring.zeta(order)


def scaled_oracle(x, c):
    """x c for a rational c, by ``_cyc_mul`` on the coordinate vectors of c
    as a constant of the ring."""
    ring, c = x.ring, Fraction(c)
    vec = (c.numerator,) + (0,) * (ring.degree - 1)
    return (tuple(Fraction(v, x.d * c.denominator) for v in ring._cyc_mul(x.a, vec)),
            tuple(Fraction(v, x.d * c.denominator) for v in ring._cyc_mul(x.b, vec)))


@given(rings_and_scalars(1), st.integers(-12, 12),
       st.fractions(min_value=-6, max_value=6, max_denominator=12))
def test_rational_factors_scale_coordinates(args, k, c):
    ring, x = args
    # common factors on both sides: 6 x / 4 against 3/2, 2 against x / 2
    for y in (x, x * 6 / ring.from_int(4), x / ring.from_int(2), -x, ring.zero):
        for r in (k, c, 2, -3, Fraction(3, 2), Fraction(-4, 6), 0):
            rs = ring.from_fraction(r)
            want = scaled_oracle(y, r)
            for z in (y * r, r * y, y * rs, rs * y):
                check_canonical(z)
                assert coords(z) == want


@given(st.sampled_from(sorted(RINGS)),
       st.fractions(min_value=-20, max_value=20, max_denominator=30),
       st.fractions(min_value=-20, max_value=20, max_denominator=30))
def test_rational_products_hash_as_their_fraction(name, c, e):
    ring = RINGS[name]
    x = ring.from_fraction(c)
    for z, want in ((x * e, c * e), (e * x, c * e), (x * ring.from_fraction(e), c * e),
                    (x * e.numerator, c * e.numerator)):
        check_canonical(z)
        assert z == want and hash(z) == hash(want)
