from fractions import Fraction
from math import gcd

import pytest

from ellhall.autoforms import (AutoformContext, T0_twisted, T0r_at_point,
                               character_l_function, cusp_dimension,
                               find_reduction_prime,
                               global_coproduct, global_green_pair,
                               green_pair_twisted, hecke_T0N_eigenvalue,
                               hecke_eigenvalue_elementary,
                               l_function, monomial_independence_rank,
                               theta_coproduct_coefficients, zeta_xn_series)
from ellhall.autoforms import (_check_images, _minus_point_exponents,
                               _power_sum_form, _power_sum_plain, _sqrt_mod)
from ellhall.curve import (Character, CharacterOrbit, CurveData,
                           all_characters, character_orbits, primitive_orbits)
from ellhall.linalg import rank_mod_p
from ellhall.scalars import TruncatedSeries


@pytest.fixture(scope="module")
def e1():
    return CurveData(2, a3=1)


@pytest.fixture(scope="module")
def ctx(e1):
    return AutoformContext(e1, char_levels=(1, 2, 3, 4))


class TestPointGenerators:
    def test_degree_one(self, ctx, e1):
        x = e1.closed_points(1)[0]
        assert T0r_at_point(ctx, 1, x) == ctx.monomial([(x, (1,))])

    def test_degree_two_coefficients(self, ctx, e1):
        x = e1.closed_points(1)[0]
        got = T0r_at_point(ctx, 2, x)
        half = ctx.ring.nu_integer(2) * Fraction(1, 2)
        want = (ctx.monomial([(x, (2,))], half)
                + ctx.monomial([(x, (1, 1))], half * (1 - 2)))
        assert got == want

    def test_vanishes_off_degree(self, ctx, e1):
        x2 = [x for x in e1.closed_points(2) if x.degree == 2][0]
        assert T0r_at_point(ctx, 1, x2).is_zero()
        assert T0r_at_point(ctx, 3, x2).is_zero()
        assert not T0r_at_point(ctx, 2, x2).is_zero()


class TestTwistedAverages:
    def test_trivial_character_sum(self, ctx, e1):
        triv = CharacterOrbit(Character(e1, 1, (0,)))
        got = T0_twisted(ctx, triv, 1)
        want = ctx.zero_elem()
        for x in e1.closed_points(1):
            want = want + ctx.monomial([(x, (1,))])
        assert got == want

    def test_lower_level_orbit_accepted(self, ctx, e1):
        # an orbit evaluated at its own level, summed over degree-2 support;
        # at points of full degree it agrees with its norm to that level
        rho = primitive_orbits(e1, 1)[1]
        elem = T0_twisted(ctx, rho, 2)
        normed = T0_twisted(ctx, rho.norm_to(2), 2)
        assert not elem.is_zero()
        for x in e1.closed_points(2):
            if x.degree != 2:
                continue
            assert rho.tilde_eval(x, ctx.ring) == \
                rho.norm_to(2).tilde_eval(x, ctx.ring)
        deg2 = {m: c for m, c in elem.terms.items()
                if all(k[0] == 2 for k, _ in m)}
        deg2n = {m: c for m, c in normed.terms.items()
                 if all(k[0] == 2 for k, _ in m)}
        assert deg2 == deg2n

    @pytest.mark.parametrize("n", (1, 2))
    def test_twisted_averages_primitive(self, ctx, e1, n):
        one_key = ()
        for orbit in character_orbits(e1, n):
            t = T0_twisted(ctx, orbit, n)
            cop = global_coproduct(t)
            expect = {}
            for mono, c in t.terms.items():
                expect[(mono, one_key)] = c
                expect[(one_key, mono)] = c
            assert cop == expect

    def test_twisted_averages_linearly_independent(self, ctx, e1):
        elems = [T0_twisted(ctx, o, 2) for o in character_orbits(e1, 2)]
        monos = sorted({m for e in elems for m in e.terms})
        idx = {m: i for i, m in enumerate(monos)}
        p, zim, uim = find_reduction_prime(ctx.ring)
        rows = [{idx[m]: c.reduce_mod(p, zim, uim) for m, c in e.terms.items()}
                for e in elems]
        from ellhall.linalg import rank_mod_p
        assert rank_mod_p(rows, len(monos), p) == len(elems)


class TestReductionModP:
    @pytest.fixture(scope="class")
    def images(self, ctx):
        return find_reduction_prime(ctx.ring)

    def test_denominator_divisible_by_p_raises(self, ctx, images):
        p = images[0]
        with pytest.raises(ValueError):
            ctx.ring.from_fraction(Fraction(3, 2 * p)).reduce_mod(*images)
        assert ctx.ring.from_fraction(Fraction(p, 3)).reduce_mod(*images) == 0

    def test_invalid_images_rejected(self, ctx, images):
        p, zim, uim = images
        _check_images(ctx.ring, p, zim, uim)
        with pytest.raises(ValueError):
            _check_images(ctx.ring, p, 1, uim)
        with pytest.raises(ValueError):
            _check_images(ctx.ring, p, pow(zim, 3, p), uim)  # order 3, M = 9
        with pytest.raises(ValueError):
            _check_images(ctx.ring, p, zim, uim + 1)

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 43, 5, 13, 17, 41, 257])
    def test_sqrt_mod_matches_scan(self, p):
        def scan(a):
            for x in range(1, p):
                if (x * x) % p == a % p:
                    return x
            return None
        for a in range(p + 3):
            want = scan(a)
            if want is None:
                with pytest.raises(ValueError):
                    _sqrt_mod(a, p)
            else:
                assert _sqrt_mod(a, p) == want


class TestGreenPairTwisted:
    def test_rank_one_value(self, ctx, e1):
        rho = primitive_orbits(e1, 1)[0]
        assert green_pair_twisted(ctx, rho, rho, 1) == ctx.ring.from_int(3)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_closed_form_all_orbits(self, ctx, e1, n):
        for rho in primitive_orbits(e1, n):
            for sigma in character_orbits(e1, n):
                val = green_pair_twisted(ctx, rho, sigma, n)  # asserts equality
                assert val.is_zero() == (sigma != rho)

    def test_hermitian(self, ctx, e1):
        a, b = primitive_orbits(e1, 2)[:2]
        lhs = green_pair_twisted(ctx, a, b, 2)
        rhs = green_pair_twisted(ctx, b, a, 2)
        assert lhs == rhs.conjugate()


class TestHeckeEigenvalues:
    def test_charpoly_rank_one(self, ctx, e1):
        rho = primitive_orbits(e1, 1)[1]
        x = e1.closed_points(1)[0]
        poly = hecke_charpoly(ctx, rho, x)
        assert len(poly) == 2 and poly[1] == ctx.ring.one

    def test_charpoly_rank_two_inert(self, ctx, e1):
        rho = primitive_orbits(e1, 2)[0]
        x = e1.closed_points(1)[0]
        poly = hecke_charpoly(ctx, rho, x)
        assert len(poly) == 3 and poly[1].is_zero()

    def test_vieta_vs_elementary(self, ctx, e1):
        # product of all roots = (-1)^n * constant term; at l = n the
        # q-power weight is trivial, so the top elementary eigenvalue must
        # match it exactly
        for n in (1, 2):
            for rho in primitive_orbits(e1, n):
                for x in e1.closed_points(2):
                    poly = hecke_charpoly(ctx, rho, x)
                    top = hecke_eigenvalue_elementary(ctx, rho, x, n)
                    assert top == poly[0] * ((-1) ** n)
                    # the top eigenvalue is a root of unity
                    assert top * top.conjugate() == ctx.ring.one

    def test_power_sum_vanishing(self, ctx, e1):
        rho = primitive_orbits(e1, 2)[0]
        x = e1.closed_points(1)[0]
        assert _power_sum_plain(ctx, rho, x, 1) is None
        assert not _power_sum_plain(ctx, rho, x, 2).is_zero()

    def test_rank_one_power_sums_roots_of_unity(self, ctx, e1):
        # at rank 1 the weight q_x^{r(n-1)/2} of the power sums is 1
        rho = primitive_orbits(e1, 1)[1]
        for x in e1.closed_points(2):
            v = _power_sum_plain(ctx, rho, x, 3)
            assert v * v.conjugate() == ctx.ring.one

    def test_elementary_vanishing_and_newton(self, ctx, e1):
        rho = primitive_orbits(e1, 2)[0]
        x = e1.closed_points(1)[0]
        assert hecke_eigenvalue_elementary(ctx, rho, x, 1).is_zero()
        assert not hecke_eigenvalue_elementary(ctx, rho, x, 2).is_zero()
        # the newton cross-check runs inside for every call
        for n in (1, 2):
            for rho2 in primitive_orbits(e1, n):
                for x2 in e1.closed_points(3):
                    for level in range(1, n + 1):
                        hecke_eigenvalue_elementary(ctx, rho2, x2, level)


class TestT0NEigenvalue:
    def test_rank_one_examples(self, ctx, e1):
        rho = primitive_orbits(e1, 1)[0]
        assert hecke_T0N_eigenvalue(ctx, rho, rho.norm_to(1), 1) == ctx.ring.from_int(3)
        v2 = hecke_T0N_eigenvalue(ctx, rho, rho.norm_to(2), 2)
        assert v2 == ctx.ring.nu_integer(2) * Fraction(9, 2)

    def test_wrong_character_vanishes(self, ctx, e1):
        rho = primitive_orbits(e1, 1)[0]
        norm = rho.norm_to(2)
        for sigma in character_orbits(e1, 2):
            val = hecke_T0N_eigenvalue(ctx, rho, sigma, 2)
            assert val.is_zero() == (sigma != norm)

    def test_divisibility_required(self, ctx, e1):
        rho = primitive_orbits(e1, 2)[0]
        with pytest.raises(ValueError):
            hecke_T0N_eigenvalue(ctx, rho, rho, 3)


class TestThetaCoproduct:
    def test_low_orders(self, ctx, e1):
        rho = primitive_orbits(e1, 1)[0]
        th = theta_coproduct_coefficients(ctx, rho, 2)
        assert th[0] == ctx.one_elem()
        kappa = ctx.ring.nu ** -1 - ctx.ring.nu
        assert th[1] == T0_twisted(ctx, rho, 1).scale(kappa)

    def test_grouplike(self, ctx, e1):
        rho = primitive_orbits(e1, 1)[1]
        th = theta_coproduct_coefficients(ctx, rho, 3)
        for d in range(4):
            lhs = global_coproduct(th[d])
            rhs = {}
            for i in range(d + 1):
                for m1, c1 in th[i].terms.items():
                    for m2, c2 in th[d - i].terms.items():
                        key = (m1, m2)
                        v = c1 * c2
                        rhs[key] = rhs[key] + v if key in rhs else v
            rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
            assert lhs == rhs


class TestLFunctions:
    def test_self_pairing_is_zeta(self, ctx, e1):
        for n in (1, 2):
            for rho in primitive_orbits(e1, n):
                assert l_function(ctx, rho, rho, 8) == zeta_xn_series(ctx, n, 8)

    def test_distinct_pairs_trivial(self, ctx, e1):
        forms = [rho for n in (1, 2) for rho in primitive_orbits(e1, n)]
        one = TruncatedSeries({0: ctx.ring.one}, 8, ctx.ring.one)
        for i, f in enumerate(forms):
            for g in forms[i + 1:]:
                assert l_function(ctx, f, g, 8) == one

    def test_trivial_orbit_coefficients(self, ctx, e1):
        rho = CharacterOrbit(Character(e1, 1, (0,)))
        series = l_function(ctx, rho, rho, 3)
        vals = [series.coefficient(k) for k in range(4)]
        assert vals == [ctx.ring.from_int(v) for v in (1, 3, 9, 21)]

    def test_euler_multiplicativity(self, ctx, e1):
        # the log restricted to disjoint point subsets adds up: check that
        # dropping all higher-degree points reproduces the degree-1 factor
        rho = CharacterOrbit(Character(e1, 1, (0,)))
        full = l_function(ctx, rho, rho, 2)
        deg1 = ctx.ring.zero
        ring = ctx.ring
        log1 = {}
        for x in e1.closed_points(2):
            if x.degree != 1:
                continue
            from ellhall.autoforms import _power_sum_plain
            for k in (1, 2):
                v = _power_sum_plain(ctx, rho, x, k)
                log1[k] = log1.get(k, ring.zero) + v.conjugate() * v * Fraction(1, k)
        from ellhall.scalars import series_exp
        part1 = series_exp(TruncatedSeries(log1, 2, ring.one))
        log2 = {}
        for x in e1.closed_points(2):
            if x.degree != 2:
                continue
            from ellhall.autoforms import _power_sum_plain
            v = _power_sum_plain(ctx, rho, x, 1)
            log2[2] = log2.get(2, ring.zero) + v.conjugate() * v
        part2 = series_exp(TruncatedSeries(log2, 2, ring.one))
        assert part1 * part2 == full

    def test_fresh_and_warm_contexts_agree(self, ctx, e1):
        # ctx is warm from the tests above; the power sums it keeps must
        # give what a fresh context computes
        forms = [rho for n in (1, 2) for rho in primitive_orbits(e1, n)]
        for f in forms:
            for g in forms:
                fresh = AutoformContext(e1, char_levels=(1, 2, 3, 4))
                assert l_function(fresh, f, g, 6) == l_function(ctx, f, g, 6)
        for rho in forms:
            for x in e1.closed_points(3):
                for level in range(1, rho.level + 1):
                    fresh = AutoformContext(e1, char_levels=(1, 2, 3, 4))
                    assert (hecke_eigenvalue_elementary(fresh, rho, x, level)
                            == hecke_eigenvalue_elementary(ctx, rho, x, level))

    def test_orbits_at_one_point_keep_apart(self, e1):
        ctx = AutoformContext(e1, char_levels=(1, 2))
        rho, sigma = primitive_orbits(e1, 1)[1:3]
        differ = 0
        for x in e1.closed_points(2):
            for k in (1, 2):
                p_rho = _power_sum_plain(ctx, rho, x, k)
                p_sigma = _power_sum_plain(ctx, sigma, x, k)
                fresh = AutoformContext(e1, char_levels=(1, 2))
                assert p_sigma == _power_sum_plain(fresh, sigma, x, k)
                assert _power_sum_plain(ctx, rho, x, k) == p_rho
                assert _power_sum_plain(ctx, rho, x, k, conjugate=True) == p_rho.conjugate()
                differ += p_rho != p_sigma
        assert differ

    def test_character_l_function(self, e1):
        for chi in all_characters(e1, 1):
            if chi.is_trivial():
                continue
            series = character_l_function(e1, chi, 6)
            assert all(series.coefficient(k).is_zero() for k in range(1, 7))

    def test_character_l_trivial_rejected(self, e1):
        with pytest.raises(ValueError):
            character_l_function(e1, Character(e1, 1, (0,)), 4)

    def test_character_l_on_extension_curve(self):
        lvl2 = CurveData(4, a3=1)
        for chi in all_characters(lvl2, 1):
            if chi.is_trivial():
                continue
            series = character_l_function(lvl2, chi, 4)
            assert all(series.coefficient(k).is_zero() for k in range(1, 5))


class TestCensusAndIndependence:
    def test_dimensions(self, e1):
        assert cusp_dimension(e1, 1) == 3
        assert cusp_dimension(e1, 2) == 3
        assert cusp_dimension(e1, 3) == 2

    def test_small_independence(self, ctx):
        count, rk = monomial_independence_rank(ctx, (1,), 3)
        assert count == rk

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_linear_form_of_twisted_average(self, ctx, e1, d):
        # T0_twisted(rho, d) = sum_x rho~(x) [d] deg(x)/d P(x, d/deg x)
        for orbit in character_orbits(e1, d):
            want = {}
            for x in e1.closed_points(d):
                if d % x.degree == 0 and orbit.tilde_eval(x, ctx.ring):
                    want[x.key(), d // x.degree] = (orbit.tilde_eval(x, ctx.ring)
                                                    * ctx.ring.nu_integer(d)
                                                    * Fraction(x.degree, d))
            assert _power_sum_form(ctx, T0_twisted(ctx, orbit, d)) == want

    def test_fp_certificate_is_the_reduced_exact_one(self, e1):
        # the Hall products of the exact twisted averages, reduced mod p,
        # have the count and rank of the power-sum route
        for levels, degree in (((1, 2), 3), ((1, 2, 3), 4)):
            exact = AutoformContext(e1, char_levels=levels)
            p, zim, uim = find_reduction_prime(exact.ring)
            columns, rows = {}, []
            for elem in twisted_monomials(exact, levels, degree):
                rows.append({columns.setdefault(m, len(columns)): c.reduce_mod(p, zim, uim)
                             for m, c in elem.terms.items()})
            rank = rank_mod_p(rows, len(columns), p)
            assert monomial_independence_rank(exact, levels, degree) == (len(rows), rank)
            assert rank == len(rows)

    def test_global_pair_diagonal(self, ctx, e1):
        x = e1.closed_points(1)[0]
        a = ctx.monomial([(x, (1,))])
        assert global_green_pair(a, a) == ctx.ring.one
        y = e1.closed_points(1)[1]
        b = ctx.monomial([(y, (1,))])
        assert global_green_pair(a, b).is_zero()


def twisted_monomials(ctx, levels, max_total_degree):
    """Monomials of total degree 1..max_total_degree in the twisted averages,
    by Hall products: the family is {T^rho~_{(0,d)} : d in levels, rho~ a
    Frobenius orbit at level d}, and a monomial is a multiset over it."""
    family = [(d, T0_twisted(ctx, orbit, d))
              for d in levels for orbit in character_orbits(ctx.curve, d)]
    monos = [(0, ctx.one_elem())]
    for d, elem in family:
        extended = list(monos)
        for total, acc in monos:
            while total + d <= max_total_degree:
                acc = acc * elem
                total += d
                extended.append((total, acc))
        monos = extended
    return [e for total, e in monos if total > 0]


def hecke_charpoly(ctx, orbit, x):
    """Coefficients (low to high) of prod_i (T^{n/d} - rho(O(-x_i''))), whose
    roots are the Hecke eigenvalues of the eigenform labeled by the orbit."""
    n = orbit.level
    step = n // gcd(n, x.degree)
    m_n = orbit.curve.picard(n).exponent
    ring = ctx.ring
    poly = [ring.one]
    for e in _minus_point_exponents(orbit, x):
        root = ring.zeta(m_n, e)
        new = [ring.zero] * (len(poly) + step)
        for k, c in enumerate(poly):
            new[k + step] = new[k + step] + c
            new[k] = new[k] - c * root
        poly = new
    return poly
