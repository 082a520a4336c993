import random
from fractions import Fraction

import pytest

from ellhall import elliptic_hall
from ellhall.cyclotomic import get_curve_ring
from ellhall.elliptic_hall import EllipticHallAlgebra, StraighteningError, _orbit_frame
from ellhall.lattice import delta, det, epsilon, interior_points
from ellhall.ratfunc import FORMAL
from ellhall.scalars import TruncatedSeries, series_exp
from ellhall.verification import check_straightening
from paths import classes, enumerate_convex_paths


@pytest.fixture(scope="module")
def alg1():
    return EllipticHallAlgebra(1, FORMAL)


@pytest.fixture(scope="module")
def alg2():
    return EllipticHallAlgebra(2, FORMAL)


class TestGenerators:
    def test_single_segment(self, alg1):
        g = alg1.generator((0, 1))
        assert g.terms == {((0, 1),): FORMAL.one}

    def test_origin_rejected(self, alg1):
        with pytest.raises(ValueError):
            alg1.generator((0, 0))

    def test_grading(self, alg1):
        g = alg1.generator((2, -3))
        assert classes(g) == {(2, -3)}

    def test_proportional_commute(self, alg1):
        a, b = alg1.generator((1, 2)), alg1.generator((2, 4))
        assert a * b == b * a
        assert alg1.commutator((1, 2), (2, 4)).is_zero()
        # opposite rays too
        assert alg1.commutator((1, 0), (-2, 0)).is_zero()


class TestTheta:
    def test_degree_zero(self, alg1):
        assert alg1.theta_ray((0, 1), 0) == alg1.one

    def test_first_order(self, alg1, alg2):
        for alg in (alg1, alg2):
            assert alg.theta_ray((0, 1), 1) == alg.generator((0, 1)).scale(alg.kappa)

    def test_second_order(self, alg2):
        th2 = alg2.theta_ray((0, 1), 2)
        manual = (alg2.generator((0, 2)).scale(alg2.kappa)
                  + alg2.from_word([(0, 1), (0, 1)])
                  .scale(alg2.kappa * alg2.kappa * Fraction(1, 2)))
        assert th2 == manual

    def test_requires_primitive_direction(self, alg1):
        with pytest.raises(ValueError):
            alg1.theta_ray((0, 2), 1)

    def test_homogeneous(self, alg1):
        th3 = alg1.theta_ray((1, 1), 3)
        assert classes(th3) == {(3, 3)}

    @pytest.mark.parametrize("z0", [(1, 0), (0, 1), (1, 1), (-1, 2), (0, -1), (-3, -2)])
    def test_relabelled_equals_direct_series(self, alg2, z0):
        # theta_ray relabels the series of ray (1, 0); build each one directly
        for k in range(1, 5):
            inner = TruncatedSeries(
                {i: alg2.generator((i * z0[0], i * z0[1])).scale(alg2.kappa)
                 for i in range(1, k + 1)}, k, alg2.one)
            assert alg2.theta_ray(z0, k) == series_exp(inner).coefficient(k), (z0, k)


THETA_BACKENDS = pytest.mark.parametrize("ring", [FORMAL, get_curve_ring(2, 1, 0)],
                                         ids=["formal", "curve-E1"])


class TestThetaRecurrence:
    @THETA_BACKENDS
    @pytest.mark.parametrize("n", (1, 2))
    def test_recurrence_equals_series_exp(self, ring, n):
        # kappa (theta_k / kappa) against the coefficient of z^k in
        # exp(kappa sum_i t_(i,0) z^i), over both backends
        alg = EllipticHallAlgebra(n, ring)
        for k in range(1, 7):
            inner = TruncatedSeries(
                {i: alg.generator((i, 0)).scale(alg.kappa) for i in range(1, k + 1)},
                k, alg.one)
            want = series_exp(inner).coefficient(k)
            assert alg._theta_over_kappa(k).scale(alg.kappa) == want, k
            assert alg.theta_ray((1, 0), k) == want, k

    @THETA_BACKENDS
    @pytest.mark.parametrize("z, o", [((2, 0), (1, 1)), ((0, 2), (-1, 1)), ((2, 2), (1, -1)),
                                      ((-2, 4), (0, 1)), ((3, 0), (1, 2)), ((0, -3), (1, 1))])
    def test_jacobi_correction_without_kappa(self, ring, z, o):
        # the correction bracket of a Jacobi step, read off theta_k / kappa,
        # against (theta_z - kappa t_z) bracketed with t_o and divided by kappa
        alg = EllipticHallAlgebra(1, ring)
        k = delta(z)
        t_o = alg.generator(o)
        old = alg._bracket(alg.theta(z) - alg.generator(z).scale(alg.kappa), t_o) / alg.kappa
        corr = alg._relabel(alg._theta_over_kappa(k), (z[0] // k, z[1] // k)) - alg.generator(z)
        new = alg._bracket(corr, t_o)
        assert new == old and new


class TestBasicCommutators:
    def test_hand_instance_unit_square(self, alg1, alg2):
        for alg in (alg1, alg2):
            assert (alg.commutator((0, 1), (1, 0))
                    == alg.generator((1, 1)).scale(alg.c(alg.n)))

    @pytest.mark.parametrize("d", (1, 2, 3, 4))
    def test_hand_instance_column(self, alg1, d):
        # [t_(0,d), t_(1,0)] = c_d t_(1,d)
        assert (alg1.commutator((0, d), (1, 0))
                == alg1.generator((1, d)).scale(alg1.c(d)))

    def test_transported_instance(self, alg1):
        # g = rotation: the unit-square relation moves to [t_(-1,0), t_(0,1)]
        g = ((0, -1), (1, 0))
        lhs = alg1.sl2_act(g, alg1.commutator((0, 1), (1, 0)))
        assert lhs == alg1.commutator((-1, 0), (0, 1))

    def test_rejects_proportional(self, alg1):
        with pytest.raises(ValueError):
            alg1.commutator_basic((1, 0), (2, 0))

    def test_rejects_interior(self, alg1):
        with pytest.raises(ValueError):
            alg1.commutator_basic((1, 0), (1, 3))

    def test_rejects_imprimitive_x(self, alg1):
        with pytest.raises(ValueError):
            alg1.commutator_basic((2, 0), (0, 1))

    @pytest.mark.parametrize("n", (1, 2))
    @pytest.mark.parametrize("x, y", [((1, 0), (0, 1)), ((1, 0), (0, 2)),
                                      ((1, 1), (-1, 0)), ((2, 1), (-1, -1))])
    def test_memoized_value(self, n, x, y):
        # relation (2) from theta, c and kappa on a fresh algebra
        fresh = EllipticHallAlgebra(n, FORMAL)
        unsigned = fresh.theta((x[0] + y[0], x[1] + y[1])).scale(
            fresh.c(n * delta(y))) / fresh.kappa
        alg = EllipticHallAlgebra(n, FORMAL)
        orientations = [(x, y, epsilon(x, y))]
        if delta(y) == 1:
            orientations.append((y, x, epsilon(y, x)))
        for _ in range(2):
            for a, b, eps in orientations:
                want = unsigned if eps > 0 else -unsigned
                assert alg.commutator_basic(a, b).terms == want.terms

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_kappa_divides_exactly(self, n):
        # kappa [t_y, t_x] = eps c theta_{x+y}: the division by kappa in
        # relation (2) is exact, so multiplying back restores every term
        alg = EllipticHallAlgebra(n, FORMAL)
        for x, y in [((1, 0), (0, 1)), ((1, 0), (0, 3)), ((1, 1), (-1, 0)), ((2, 1), (-1, -1)),
                     ((0, 1), (-2, -2)), ((1, -1), (1, 1))]:
            z = (x[0] + y[0], x[1] + y[1])
            want = alg.theta(z).scale(alg.c(n * delta(y)) * epsilon(x, y))
            assert alg.commutator_basic(x, y).scale(alg.kappa) == want

    @pytest.mark.parametrize("n", (1, 2))
    def test_relabelled_equals_ray_series(self, n):
        # every basic pair in [-4, 4]^2 against exp(kappa sum_i t_{i z0} s^i)
        # expanded on the ray of z0 = primitive(x + y) itself
        box = [(q, p) for q in range(-4, 5) for p in range(-4, 5) if (q, p) != (0, 0)]
        pairs = [(x, y) for x in box if delta(x) == 1 for y in box
                 if det(x, y) != 0 and interior_points(x, y) == 0]
        ref = EllipticHallAlgebra(n, FORMAL)
        top = {}
        for x, y in pairs:
            z = (x[0] + y[0], x[1] + y[1])
            z0 = (z[0] // delta(z), z[1] // delta(z))
            top[z0] = max(top.get(z0, 0), delta(z))
        series = {}
        for z0, k in top.items():
            inner = TruncatedSeries(
                {i: ref.generator((i * z0[0], i * z0[1])).scale(ref.kappa)
                 for i in range(1, k + 1)}, k, ref.one)
            series[z0] = series_exp(inner)
        want = {}
        for x, y in pairs:
            z = (x[0] + y[0], x[1] + y[1])
            k = delta(z)
            val = series[(z[0] // k, z[1] // k)].coefficient(k).scale(
                ref.c(n * delta(y))) / ref.kappa
            want[(x, y)] = (val if epsilon(x, y) > 0 else -val).terms
        for order in (pairs, pairs[::-1]):
            alg = EllipticHallAlgebra(n, FORMAL)
            for x, y in order:
                w = want[(x, y)]
                assert alg.commutator_basic(x, y).terms == w, (x, y)
                assert alg.commutator(y, x).terms == w, (x, y)
                assert (-alg.commutator(x, y)).terms == w, (x, y)


class TestStraightening:
    def test_single_swap_example(self, alg1):
        lhs = alg1.generator((1, 0)) * alg1.generator((0, 1))
        want = (alg1.from_word([(0, 1), (1, 0)])
                - alg1.generator((1, 1)).scale(alg1.c(1)))
        assert lhs == want

    def test_canonical_fixed_point(self, alg1):
        w = alg1.from_word([(0, 2), (0, 1), (1, 3), (2, 1)])
        assert w.terms == {((0, 2), (0, 1), (1, 3), (2, 1)): FORMAL.one}

    def test_relation_fixed_points_small(self, alg1):
        for xq in range(-3, 4):
            for xp in range(-3, 4):
                x = (xq, xp)
                if x == (0, 0) or delta(x) != 1:
                    continue
                for yq in range(-3, 4):
                    for yp in range(-3, 4):
                        y = (yq, yp)
                        if y == (0, 0) or det(x, y) == 0:
                            continue
                        from ellhall.lattice import interior_points
                        if interior_points(x, y) != 0:
                            continue
                        lhs = alg1.from_word([y, x]) - alg1.from_word([x, y])
                        assert (lhs - alg1.commutator_basic(x, y)).is_zero()

    @pytest.mark.parametrize("n", (1, 2))
    def test_associativity_sample(self, n):
        alg = EllipticHallAlgebra(n, FORMAL)
        rng = random.Random(77 + n)
        done = 0
        while done < 25:
            vs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            if (0, 0) in vs:
                continue
            a, b, c = (alg.generator(v) for v in vs)
            assert (a * b) * c == a * (b * c)
            done += 1

    def test_unit_and_bilinearity(self, alg1):
        a = alg1.generator((1, 1)) + alg1.generator((0, 2)).scale(FORMAL.s)
        assert alg1.one * a == a and a * alg1.one == a
        b = alg1.generator((1, -1))
        assert (a + b) * b == a * b + b * b

    def test_grading_adds(self, alg1):
        a = alg1.generator((1, 1)) * alg1.generator((0, 1)) * alg1.generator((1, -1))
        assert a.terms and classes(a) == {(2, 1)}

    def test_mixed_algebras_rejected(self, alg1, alg2):
        with pytest.raises(ValueError):
            alg1.multiply(alg1.one, alg2.one)

    def test_support_matches_enumeration(self, alg1):
        # class (1,1), generators bounded by 1: supports fill the path list
        words = [[(0, 1), (1, 0)], [(1, 0), (0, 1)], [(1, 1)]]
        support = set()
        for w in words:
            support |= set(alg1.from_word(w).terms)
        assert support == set(enumerate_convex_paths((1, 1), "positive", 2))

    def test_support_is_contained_in_bounded_paths(self, alg1):
        rng = random.Random(3)
        for _ in range(10):
            vs = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
            if (0, 0) in vs:
                continue
            prod = alg1.generator(vs[0]) * alg1.generator(vs[1])
            cls = (vs[0][0] + vs[1][0], vs[0][1] + vs[1][1])
            if cls == (0, 0):
                continue
            budget = sum(abs(c) for v in vs for c in v)
            allowed = set(enumerate_convex_paths(cls, "all", budget))
            assert set(prod.terms) <= allowed, (vs, sorted(prod.terms))


class TestProductTable:
    """Coefficient products are stored per algebra on their second sighting."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_warm_equals_fresh(self, n):
        rng = random.Random(500 + n)
        triples = []
        while len(triples) < 12:
            vs = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
            if (0, 0) not in vs:
                triples.append(vs)
        warm = EllipticHallAlgebra(n, FORMAL)
        for vs in triples:
            a, b, c = (warm.generator(v) for v in vs)
            assert (a * b) * c == a * (b * c)
        assert warm._products
        for vs in reversed(triples):
            fresh = EllipticHallAlgebra(n, FORMAL)
            got = [(x * y) * z for x, y, z in
                   [[alg.generator(v) for v in vs] for alg in (warm, fresh)]]
            assert got[0].terms == got[1].terms

    def test_first_sighting_stores(self):
        alg = EllipticHallAlgebra(1, FORMAL)
        assert not hasattr(alg, "_seen_once")
        a, b = FORMAL.s + 1, FORMAL.sb - 2
        stored = alg._times(a, b)
        assert stored == a * b
        assert list(alg._products) == [(a, b)] and alg._products[(a, b)] is stored
        # equal values in new objects are the same key
        assert alg._times(FORMAL.s + 1, FORMAL.sb - 2) is stored
        assert len(alg._products) == 1
        # the other order is another key
        other = alg._times(b, a)
        assert other == stored and other is not stored
        assert len(alg._products) == 2
        # a product by one is never stored
        assert alg._times(FORMAL.one, a) is a and alg._times(b, FORMAL.one) is b
        assert len(alg._products) == 2


class TestResolution:
    """Each orbit representative is resolved through one chosen split;
    every other non-basic commutator is transported from it."""

    @staticmethod
    def _is_basic(a, b):
        return ((delta(b) == 1 and interior_points(b, a) == 0)
                or (delta(a) == 1 and interior_points(a, b) == 0))

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_resolution_per_commutator(self, n, monkeypatch):
        alg = EllipticHallAlgebra(n, FORMAL)
        impl, resolve = alg._commutator_impl, alg._resolve_through
        open_calls, seen = [], []

        def counted_impl(a, b):
            open_calls.append(0)
            res = impl(a, b)
            seen.append(((a, b), open_calls.pop()))
            return res

        def counted_resolve(*args):
            open_calls[-1] += 1
            return resolve(*args)

        monkeypatch.setattr(alg, "_commutator_impl", counted_impl)
        monkeypatch.setattr(alg, "_resolve_through", counted_resolve)
        for a, b in [((2, 0), (0, 2)), ((3, -1), (-1, 3)), ((1, -3), (-3, -3)),
                     ((2, 1), (-3, 2))]:
            alg.commutator(a, b)
        kinds = set()
        for pair, calls in seen:
            if self._is_basic(*pair):
                kind = "basic"
            elif det(*pair) < 0:
                kind = "reversed"
            elif _orbit_frame(*pair)[1:] == pair:
                kind = "representative"
            else:
                kind = "transported"
            kinds.add(kind)
            assert calls == (1 if kind == "representative" else 0), (pair, kind)
        assert kinds == {"basic", "reversed", "representative", "transported"}
        resolved = [pair for pair, calls in seen if calls]
        assert len(resolved) == len(set(resolved))

    @pytest.mark.parametrize("n", [1, 2])
    def test_transport_equals_recursion(self, n, monkeypatch):
        box = [(q, p) for q in range(-3, 4) for p in range(-3, 4) if (q, p) != (0, 0)]
        pairs = [(a, b) for a in box for b in box
                 if det(a, b) != 0 and not self._is_basic(a, b)]
        alg = EllipticHallAlgebra(n, FORMAL)
        got = {pair: alg.commutator(*pair).terms for pair in pairs}
        # every pair its own representative: the plain recursion
        monkeypatch.setattr(elliptic_hall, "_orbit_frame",
                            lambda a, b: (((1, 0), (0, 1)), a, b))
        ref = EllipticHallAlgebra(n, FORMAL)
        for pair in pairs:
            assert ref.commutator(*pair).terms == got[pair], pair

    def test_resolution_error_propagates(self, monkeypatch):
        def boom(self, z, o, x, y):
            raise StraighteningError("boom")

        monkeypatch.setattr(EllipticHallAlgebra, "_resolve_through", boom)
        alg = EllipticHallAlgebra(1, FORMAL)
        for _ in range(2):  # the second call is not a "commutator cycle"
            with pytest.raises(StraighteningError, match="^boom$"):
                alg.commutator((2, 0), (0, 2))
        assert ((2, 0), (0, 2)) not in alg._comm_cache
        res = check_straightening(coord_bound=1, triples=2)
        assert res.status == "fail"
        assert res.detail == {"error": "StraighteningError: boom"}


class TestSL2Action:
    def test_identity(self, alg1):
        a = alg1.generator((1, 2)) * alg1.generator((-1, 0))
        assert alg1.sl2_act(((1, 0), (0, 1)), a) == a

    def test_determinant_checked(self, alg1):
        with pytest.raises(ValueError):
            alg1.sl2_act(((1, 0), (0, -1)), alg1.one)

    @pytest.mark.parametrize("g", [((0, -1), (1, 0)), ((1, 1), (0, 1)),
                                   ((1, 0), (1, 1))])
    def test_product_preserving(self, alg1, g):
        rng = random.Random(5)
        for _ in range(6):
            va = (rng.randint(-2, 2), rng.randint(-2, 2))
            vb = (rng.randint(-2, 2), rng.randint(-2, 2))
            if (0, 0) in (va, vb):
                continue
            a, b = alg1.generator(va), alg1.generator(vb)
            assert alg1.sl2_act(g, a * b) == alg1.sl2_act(g, a) * alg1.sl2_act(g, b)


class TestFunctionalRelations:
    def test_quadratic_window_small(self, alg1):
        rows = alg1.verify_quadratic_relations(2)
        assert rows and all(r["ok"] for r in rows)

    def test_theta_series_slots_commute(self, alg1):
        th = [alg1.theta_ray((0, 1), k) for k in range(4)]
        for i in range(4):
            for j in range(4):
                assert th[i] * th[j] == th[j] * th[i]

    def test_cubic_m0(self, alg1):
        assert alg1.verify_cubic_relation(0)

    def test_curve_backend_rejected_for_chi(self):
        ring = get_curve_ring(2, 1, 0)
        alg = EllipticHallAlgebra(1, ring)
        with pytest.raises(ValueError):
            alg.chi_coefficients()


class TestCurveBackend:
    @pytest.mark.parametrize("n", (1, 2))
    def test_specialized_commutator_constant(self, n):
        ring = get_curve_ring(2, 1, 0)
        alg = EllipticHallAlgebra(n, ring)
        for d in (1, 2, 3):
            N = n * d
            counts = [3, 9, 9, 9, 33, 81]
            want = alg.generator((1, d)).scale(
                ring.nu_integer(N) * ring.nu ** N * Fraction(counts[N - 1], N))
            assert alg.commutator((0, d), (1, 0)) == want

    def test_associativity_curve_mode(self):
        ring = get_curve_ring(2, 1, 0)
        alg = EllipticHallAlgebra(2, ring)
        rng = random.Random(31)
        done = 0
        while done < 10:
            vs = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
            if (0, 0) in vs:
                continue
            a, b, c = (alg.generator(v) for v in vs)
            assert (a * b) * c == a * (b * c)
            done += 1


def test_twist_level_validated():
    with pytest.raises(ValueError):
        EllipticHallAlgebra(0, FORMAL)
