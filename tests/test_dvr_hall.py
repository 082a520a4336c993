import json
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import pytest

from ellhall.dvr_hall import (DvrHallAlgebra, _apply_shift, _closed_pivot_sets,
                              _gf, _quotient_type, _rank_int, _reduce_vector,
                              _shift_map, _type_from_dims, aut_count,
                              aut_count_bruteforce, conjugate, e_monomial,
                              hall_products, p_monomial,
                              partitions, submodule_census)

SRC = str(Path(__file__).resolve().parent.parent / "src")
DATA = Path(__file__).resolve().parent / "data"

H2 = DvrHallAlgebra(2)
H3 = DvrHallAlgebra(3)


def hall_number(lam, mu, nu, q):
    """g^lam_{mu nu}(q): submodules N of I_lam with N = I_nu, I_lam/N = I_mu."""
    return submodule_census(lam, q).get((mu, nu), 0)


def pair_tensor(H, pair_a, coproduct_b):
    """((a1 tensor a2), Delta(b)) for the Hopf compatibility check."""
    a1, a2 = pair_a
    total = H.ring.zero
    for (mu, nu), c in coproduct_b.items():
        v1 = a1.terms.get(mu)
        v2 = a2.terms.get(nu)
        if v1 is not None and v2 is not None:
            w = (v1 * Fraction(1, aut_count(mu, H.q))) * \
                (v2 * Fraction(1, aut_count(nu, H.q)))
            total = total + w * c.conjugate()
    return total


def aut_count_by_scan(lam, q):
    """Invertible F_q-matrices commuting with the t action of I_lambda,
    found by scanning all q^(m^2) matrices (|lambda| <= 3 at q = 2)."""
    m = sum(lam)
    if m == 0:
        return 1
    F = _gf(q)
    T = _shift_map(lam)
    idx = range(m)
    count = 0
    for entries in product(range(q), repeat=m * m):
        M = [entries[i * m:(i + 1) * m] for i in idx]
        # t sends e_j to e_{T[j]}; as a matrix S[T[j]][j] = 1.
        # (S M)[i][j] picks M rows through S; (M S)[i][j] = M[i][col] summed
        # over basis vectors mapping to j, i.e. columns k with T[k] = j.
        commutes = True
        for i in idx:
            for j in idx:
                sm = 0
                for k in idx:
                    if T[k] == i and M[k][j]:
                        sm = F.add[sm][M[k][j]]
                ms = 0
                for k in idx:
                    if T[j] is not None and k == T[j] and M[i][k]:
                        ms = F.add[ms][M[i][k]]
                if sm != ms:
                    commutes = False
                    break
            if not commutes:
                break
        if commutes and _rank_int(M, F) == m:
            count += 1
    return count


def _rref_matrices(m, r, q):
    """All reduced row-echelon matrices of rank r with m columns over F_q."""
    for pivots in combinations(range(m), r):
        free_pos = []
        for i, p in enumerate(pivots):
            for c in range(p + 1, m):
                if c not in pivots:
                    free_pos.append((i, c))
        for vals in product(range(q), repeat=len(free_pos)):
            rows = [[0] * m for _ in range(r)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), v in zip(free_pos, vals):
                rows[i][c] = v
            yield pivots, [tuple(row) for row in rows]


def stable_subspaces(T, q):
    """(pivots, rows) of every t-stable subspace in reduced echelon form,
    found by scanning every subspace; T is the shift map of the basis."""
    m = len(T)
    F = _gf(q)
    for r in range(m + 1):
        for pivots, rows in _rref_matrices(m, r, q):
            images = [_apply_shift(row, T, F) for row in rows]
            if not any(any(_reduce_vector(img, pivots, rows, F)) for img in images):
                yield pivots, rows


def depths(T):
    """depth[k] = d for the basis vector t^d of its block's generator."""
    depth = [0] * len(T)
    for k, t in enumerate(T):
        if t is not None:
            depth[t] = depth[k] + 1
    return depth


def meet_dims(rows, T, steps, F):
    """[dim(N ∩ t^j M) for j = 0..steps] by ranks: N ∩ t^j M has dimension
    dim N + dim t^j M - rank(N + t^j M), and t^j M is spanned by the basis
    vectors at depth >= j in their block."""
    m = len(T)
    depth = depths(T)
    units = [tuple(int(i == k) for i in range(m)) for k in range(m)]
    out = []
    for j in range(steps + 1):
        deep = [units[k] for k in range(m) if depth[k] >= j]
        out.append(len(rows) + len(deep) - _rank_int(list(rows) + deep, F))
    return out


def census_by_scan(lam, q):
    """submodule_census by scanning every subspace of I_lambda in the
    block-by-block basis, both types read off ranks: dim t^j N is the rank
    of t^j applied to a basis of N, and dim t^j(M/N) = dim t^j M -
    dim(N ∩ t^j M) = rank(t^j M + N) - dim N."""
    T = []
    for part in lam:
        T += [len(T) + j + 1 if j + 1 < part else None for j in range(part)]
    F = _gf(q)
    steps = lam[0] if lam else 0
    depth = depths(T)
    deep_dims = [sum(1 for d in depth if d >= j) for j in range(steps + 1)]
    census = {}
    for _, rows in stable_subspaces(T, q):
        images = [_apply_shift(row, T, F) for row in rows]
        sub_dims = [len(rows)]
        for _ in range(steps):
            sub_dims.append(_rank_int(images, F))
            images = [_apply_shift(v, T, F) for v in images]
        quot_dims = [d - meet for d, meet in zip(deep_dims, meet_dims(rows, T, steps, F))]
        key = (_type_from_dims(quot_dims), _type_from_dims(sub_dims))
        census[key] = census.get(key, 0) + 1
    return census


@lru_cache(maxsize=None)
def _p_in_e(r):
    """p_r as {e-partition: Fraction} via Newton's identity."""
    if r == 1:
        return {(1,): Fraction(1)}
    # p_r = sum_{i=1}^{r-1} (-1)^{i-1} e_i p_{r-i} + (-1)^{r-1} r e_r
    out = {(r,): Fraction((-1) ** (r - 1) * r)}
    for i in range(1, r):
        sign = Fraction((-1) ** (i - 1))
        for mu, c in _p_in_e(r - i).items():
            key = tuple(sorted(mu + (i,), reverse=True))
            out[key] = out.get(key, Fraction(0)) + sign * c
    return {k: v for k, v in out.items() if v}


def from_symmetric(H, f):
    """Inverse of ``H.to_symmetric``: p-basis in, Hall basis out."""
    total = H.zero
    for lam, c in f.terms.items():
        elem = H.one
        for part in lam:
            piece = H.zero
            for mu, w in _p_in_e(part).items():
                piece = piece + H._e_product(mu).scale(w)
            elem = H.multiply(elem, piece)
        total = total + elem.scale(c)
    return total


def test_partitions_and_conjugate():
    assert list(partitions(4))[0] == (4,)
    assert sum(1 for _ in partitions(6)) == 11
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


class TestHallNumbers:
    def test_lines_in_plane(self):
        assert hall_number((1, 1), (1,), (1,), 2) == 3
        assert hall_number((1, 1), (1,), (1,), 3) == 4

    def test_unique_cyclic_submodule(self):
        assert hall_number((2,), (1,), (1,), 2) == 1

    def test_whole_module(self):
        for q in (2, 3):
            assert hall_number((1,), (), (1,), q) == 1

    def test_budget(self):
        with pytest.raises(ValueError):
            submodule_census((1,) * 12, 4)

    def test_census_symmetric(self):
        # g^lambda_{mu nu} = g^lambda_{nu mu} (commutative single point)
        for lam in partitions(4):
            census = submodule_census(lam, 2)
            for (mu, nu), g in census.items():
                assert census.get((nu, mu), 0) == g, (lam, mu, nu)

    def test_polynomiality_interpolation(self):
        # documentation check, not relied upon: counts at q = 2, 3, 4 fit a
        # low-degree polynomial that also predicts q = 5
        cases = [((1, 1), (1,), (1,)), ((2, 1), (1,), (2,)),
                 ((2, 1), (1, 1), (1,)), ((1, 1, 1), (1, 1), (1,))]
        for lam, mu, nu in cases:
            vals = {q: hall_number(lam, mu, nu, q) for q in (2, 3, 4, 5)}
            # quadratic Lagrange interpolation through q = 2, 3, 4
            def predict(q):
                total = Fraction(0)
                pts = [2, 3, 4]
                for i, qi in enumerate(pts):
                    w = Fraction(vals[qi])
                    for j, qj in enumerate(pts):
                        if i != j:
                            w *= Fraction(q - qj, qi - qj)
                    total += w
                return total
            assert predict(5) == vals[5], (lam, mu, nu, vals)


def test_census_pinned():
    # tests/data/census.json holds the census of every |lambda| <= 5 at
    # q = 2, 3 and every |lambda| <= 3 at q = 4, as [mu, nu, count] rows
    # sorted, from the earlier census that classified N by the nilpotent
    # matrix of t on N and M/N by the kernels of t^j
    cases = json.loads((DATA / "census.json").read_text())
    assert len(cases) == 45
    for case in cases:
        census = submodule_census(tuple(case["lam"]), case["q"])
        rows = sorted([list(mu), list(nu), g] for (mu, nu), g in census.items())
        assert rows == case["census"], (case["lam"], case["q"])


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_census_equals_scan(q):
    # the pivot-closed enumeration against every subspace in another basis
    for lam in (lam for n in range(5) for lam in partitions(n)):
        assert submodule_census(lam, q) == census_by_scan(lam, q), lam


@pytest.mark.parametrize("q", (2, 3))
def test_stable_pivots_are_closed_and_count_the_meets(q):
    # the two facts the census rests on, in its depth-ordered basis: the
    # pivots of a t-stable N are closed under t, and the pivots at depth >= j
    # number dim(N ∩ t^j M)
    F = _gf(q)
    for lam in (lam for n in range(5) for lam in partitions(n)):
        T = _shift_map(lam)
        m = len(T)
        assert all(t is None or t > k for k, t in enumerate(T))
        depth = depths(T)
        assert depth == sorted(depth)
        closed = list(_closed_pivot_sets(lam))
        assert sorted(closed) == sorted(
            piv for r in range(m + 1) for piv in combinations(range(m), r)
            if all(T[p] is None or T[p] in piv for p in piv))
        steps = lam[0] if lam else 0
        for pivots, rows in stable_subspaces(T, q):
            assert pivots in closed, (lam, pivots)
            meets = meet_dims(rows, T, steps, F)
            assert meets == [sum(1 for p in pivots if depth[p] >= j)
                             for j in range(steps + 1)], (lam, rows)
            assert _quotient_type(lam, pivots) == _type_from_dims(
                [sum(1 for d in depth if d >= j) - meet
                 for j, meet in enumerate(meets)]), (lam, rows)


@pytest.mark.parametrize("q", (2, 3))
def test_hall_products_equal_scan(q):
    # the table holds exactly the nonzero g^lam_{mu nu}, in partition order
    for total in range(6):
        for size in range(total + 1):
            for mu in partitions(size):
                for nu in partitions(total - size):
                    scan = [(lam, hall_number(lam, mu, nu, q))
                            for lam in partitions(total)]
                    want = [(lam, g) for lam, g in scan if g]
                    assert list(hall_products(mu, nu, q).items()) == want


class TestAutCounts:
    def test_examples(self):
        assert aut_count((1,), 2) == 1
        assert aut_count((1, 1), 2) == 6      # GL_2(F_2)
        assert aut_count((2,), 2) == 2        # units of F_2[t]/t^2

    @pytest.mark.parametrize("q", (2, 3))
    def test_formula_equals_bruteforce(self, q):
        for n in range(1, 5 if q == 2 else 4):
            for lam in partitions(n):
                assert aut_count(lam, q) == aut_count_bruteforce(lam, q)

    def test_bruteforce_equals_scan(self):
        for n in (0, 1, 2, 3):
            for lam in partitions(n):
                assert aut_count_bruteforce(lam, 2) == aut_count_by_scan(lam, 2)


class TestAlgebra:
    def test_product_example(self):
        I1 = H2.basis_element((1,))
        assert I1 * I1 == H2.basis_element((2,)) + H2.basis_element((1, 1)).scale(3)

    def test_unit(self):
        a = H2.basis_element((2, 1))
        assert a * H2.one == a and H2.one * a == a

    def test_mixed_q_rejected(self):
        with pytest.raises(ValueError):
            H2.multiply(H2.basis_element((1,)), H3.basis_element((1,)))

    @pytest.mark.parametrize("q", (2, 3))
    def test_commutative_and_associative(self, q):
        alg = DvrHallAlgebra(q)
        rng = random.Random(q)
        smalls = [lam for s in (1, 2) for lam in partitions(s)]
        for _ in range(10):
            a = alg.basis_element(rng.choice(smalls))
            b = alg.basis_element(rng.choice(smalls))
            c = alg.basis_element(rng.choice(smalls))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


class TestCoalgebra:
    def test_simple_is_primitive(self):
        d = H2.coproduct(H2.basis_element((1,)))
        assert d == {((), (1,)): H2.ring.one, ((1,), ()): H2.ring.one}

    @pytest.mark.parametrize("r", (1, 2, 3, 4))
    def test_F_r_primitive(self, r):
        F = H2.F_element(r)
        d = H2.coproduct(F)
        expect = {}
        for lam, c in F.terms.items():
            expect[((), lam)] = c
            expect[(lam, ())] = c
        assert d == expect

    def test_counit(self):
        # counit o Delta recovers the element on either slot
        d = H2.coproduct(H2.basis_element((2,)))
        left = {}
        for (mu, nu), c in d.items():
            if nu == ():
                left[mu] = c
        assert left == H2.basis_element((2,)).terms


class TestGreenPairing:
    def test_values(self):
        I1 = H2.basis_element((1,))
        assert H2.green_pair(I1, I1) == H2.ring.one
        assert H2.green_pair(H2.basis_element((2,)),
                             H2.basis_element((1, 1))).is_zero()

    def test_F_orthogonality(self):
        u = H2.u
        for r in range(1, 5):
            for s in range(1, 5):
                val = H2.green_pair(H2.F_element(r), H2.F_element(s))
                if r != s:
                    assert val.is_zero()
                else:
                    assert val == (u ** r) * Fraction(r) * (u ** (-r) - u ** r).inverse()

    def test_F1_value_is_one_at_q2(self):
        assert H2.green_pair(H2.F_element(1), H2.F_element(1)) == H2.ring.one

    def test_hopf_compatibility(self):
        rng = random.Random(11)
        smalls = [lam for s in (1, 2) for lam in partitions(s)]
        for _ in range(6):
            a = H2.basis_element(rng.choice(smalls))
            b = H2.basis_element(rng.choice(smalls))
            c = H2.basis_element(rng.choice(list(partitions(rng.randint(2, 4)))))
            assert H2.green_pair(a * b, c) == pair_tensor(H2, (a, b), H2.coproduct(c))


class TestMacdonald:
    def test_elementary_assignment(self):
        got = H2.to_symmetric(H2.basis_element((1, 1)))
        assert got == e_monomial(H2.ring, (2,)).scale(H2.u ** 2)

    @pytest.mark.parametrize("r", (1, 2, 3, 4))
    def test_power_sum_preimages(self, r):
        assert H2.to_symmetric(H2.F_element(r)) == p_monomial(H2.ring, (r,))
        assert from_symmetric(H2, p_monomial(H2.ring, (r,))) == H2.F_element(r)

    def test_F_examples(self):
        assert H2.F_element(1) == H2.basis_element((1,))
        assert H2.F_element(2) == (H2.basis_element((2,))
                                   + H2.basis_element((1, 1)).scale(1 - 2))

    def test_algebra_map_on_products(self):
        rng = random.Random(23)
        smalls = [lam for s in (1, 2, 3) for lam in partitions(s)]
        for _ in range(8):
            a = H2.basis_element(rng.choice(smalls))
            b = H2.basis_element(rng.choice(smalls))
            assert H2.to_symmetric(a * b) == H2.to_symmetric(a) * H2.to_symmetric(b)

    def test_roundtrip(self):
        for lam in partitions(3):
            a = H2.basis_element(lam)
            assert from_symmetric(H2, H2.to_symmetric(a)) == a


U_LOC_SCRIPT = """
from ellhall.curve import IdentityMismatch
from ellhall.cyclotomic import get_curve_ring
from ellhall.dvr_hall import DvrHallAlgebra
try:
    DvrHallAlgebra(2, u_loc=get_curve_ring(2, 1).nu * 2)
except IdentityMismatch:
    print("mismatch")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_bad_u_loc_raises_under_optimize(flags):
    # the invariant raises explicitly, so python -O must not turn it off
    proc = subprocess.run(
        [sys.executable, *flags, "-c", U_LOC_SCRIPT],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["mismatch"]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_prime_field_tables_are_residues(q):
    # the field tables of a prime q put residue c at index c
    F = _gf(q)
    rng = range(q)
    assert F.add == [[(a + b) % q for b in rng] for a in rng]
    assert F.sub == [[(a - b) % q for b in rng] for a in rng]
    assert F.mul == [[(a * b) % q for b in rng] for a in rng]
    assert F.neg == [(-a) % q for a in rng]
    assert F.inv == [0] + [pow(a, q - 2, q) for a in range(1, q)]
