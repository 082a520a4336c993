"""The desk-scale verification suite.

Each check is the mathematics of one criterion, returning ``(ok, detail)``;
``_check`` turns it into a function returning a CheckResult, which the CLI
aggregates into a report and the acceptance tests assert individually.
A check run at budgets other than its full scale (its keyword defaults) is
marked "skip": it still ran, at that scale, and only "fail" is an error.
A check whose computation raises is marked "fail", with an ``error`` detail.
Failures carry both sides of the violated identity as exact strings.
"""

from __future__ import annotations

import functools
import inspect
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .autoforms import (AutoformContext, character_l_function,
                        cusp_dimension, global_coproduct, green_pair_twisted,
                        hecke_eigenvalue_elementary, hecke_T0N_eigenvalue,
                        l_function, monomial_independence_rank,
                        theta_coproduct_coefficients, zeta_xn_series)
from .curve import (CurveData, all_characters, character_orbits,
                    primitive_orbits)
from .cyclotomic import get_curve_ring
from .dvr_hall import (DvrHallAlgebra, aut_count, aut_count_bruteforce,
                       p_monomial, partitions)
from .elliptic_hall import EllipticHallAlgebra
from .lattice import delta, det, epsilon, interior_points
from .ratfunc import FORMAL
from .scalars import TruncatedSeries, series_exp


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    detail: dict = field(default_factory=dict)
    elapsed: float = 0.0


def _key(value):
    return tuple(value) if isinstance(value, list) else value


def _check(name, *budget):
    """Run the decorated body, returning ``(ok, detail)``, as check `name`.

    The result is "skip" when a budget argument differs from its keyword
    default, the full scale (exposed as ``full_scale``); an Exception
    escaping the body is a "fail" with an ``error`` detail.
    """
    def wrap(body):
        signature = inspect.signature(body)
        full_scale = {p: signature.parameters[p].default for p in budget}

        @functools.wraps(body)
        def check(*args, **kwargs):
            given = signature.bind(*args, **kwargs).arguments
            at_full_scale = all(_key(given.get(p, full)) == full
                                for p, full in full_scale.items())
            t0 = time.perf_counter()
            try:
                ok, detail = body(*args, **kwargs)
            except Exception as exc:
                ok, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
            status = "fail" if not ok else ("pass" if at_full_scale else "skip")
            return CheckResult(name, status, detail,
                               round(time.perf_counter() - t0, 3))

        check.full_scale = full_scale
        return check
    return wrap


def make_test_curves():
    return (CurveData(2, a3=1), CurveData(5, a4=1, a6=1))


@_check("point-counts-and-zeta", "nmax", "order")
def check_point_counts_and_zeta(curves=None, nmax=6, order=8):
    curves = curves if curves is not None else make_test_curves()
    detail = {}
    ok = True
    for curve in curves:
        for n in range(1, nmax + 1):
            enum = curve.count_points(n)
            trace = curve.count_via_trace(n)
            detail[f"q={curve.q} N_{n}"] = f"{enum}"
            if enum != trace:
                ok = False
                detail[f"q={curve.q} N_{n} mismatch"] = f"{enum} != {trace}"
        logs = TruncatedSeries(
            {k: Fraction(curve.count_via_trace(k), k) for k in range(1, order + 1)},
            order, Fraction(1))
        if series_exp(logs) != curve.zeta_truncated(1, order):
            ok = False
            detail[f"q={curve.q} zeta"] = "exp(sum N_k t^k/k) != rational expansion"
    return ok, detail


@_check("hall-number-oracle", "max_total", "qs", "aut_max")
def check_hall_numbers(max_total=5, qs=(2, 3), aut_max=3):
    ok = True
    detail = {}
    triples = comms = 0
    for q in qs:
        alg = DvrHallAlgebra(q)
        parts_by_size = {s: list(partitions(s)) for s in range(0, max_total + 1)}
        for s1 in range(1, max_total - 1):
            for s2 in range(1, max_total - s1):
                for s3 in range(1, max_total - s1 - s2 + 1):
                    for l1 in parts_by_size[s1]:
                        for l2 in parts_by_size[s2]:
                            for l3 in parts_by_size[s3]:
                                a = alg.basis_element(l1)
                                b = alg.basis_element(l2)
                                c = alg.basis_element(l3)
                                if (a * b) * c != a * (b * c):
                                    ok = False
                                    detail["assoc"] = f"q={q} {l1},{l2},{l3}"
                                triples += 1
        for s1 in range(1, max_total):
            for s2 in range(1, max_total - s1 + 1):
                for l1 in parts_by_size[s1]:
                    for l2 in parts_by_size[s2]:
                        a = alg.basis_element(l1)
                        b = alg.basis_element(l2)
                        if a * b != b * a:
                            ok = False
                            detail["comm"] = f"q={q} {l1},{l2}"
                        comms += 1
        for s in range(1, min(aut_max, max_total) + 1):
            for lam in parts_by_size[s]:
                formula = aut_count(lam, q)
                brute = aut_count_bruteforce(lam, q)
                if formula != brute:
                    ok = False
                    detail["aut"] = f"q={q} {lam}: {formula} != {brute}"
    detail["associativity triples"] = str(triples)
    detail["commutativity pairs"] = str(comms)
    return ok, detail


@_check("macdonald-bridge", "rmax")
def check_macdonald_bridge(rmax=4):
    alg = DvrHallAlgebra(2)
    ring = alg.ring
    u = alg.u
    ok = True
    detail = {}
    for r in range(1, rmax + 1):
        for s in range(1, rmax + 1):
            val = alg.green_pair(alg.F_element(r), alg.F_element(s))
            if r != s:
                if not val.is_zero():
                    ok = False
                    detail[f"(F_{r},F_{s})"] = str(val)
            else:
                want = (u ** r) * Fraction(r) * (u ** (-r) - u ** r).inverse()
                if val != want:
                    ok = False
                    detail[f"(F_{r},F_{r})"] = f"{val} != {want}"
        if alg.to_symmetric(alg.F_element(r)) != p_monomial(ring, (r,)):
            ok = False
            detail[f"Psi(F_{r})"] = "not the power sum"
    rng = random.Random(0)
    small = [lam for s in (1, 2, 3) for lam in partitions(s)]
    for _ in range(12):
        lam, mu = rng.choice(small), rng.choice(small)
        a, b = alg.basis_element(lam), alg.basis_element(mu)
        if alg.to_symmetric(a * b) != alg.to_symmetric(a) * alg.to_symmetric(b):
            ok = False
            detail["hom"] = f"{lam} * {mu}"
    detail["pair values checked"] = str(rmax * rmax)
    return ok, detail


@_check("straightening-soundness", "coord_bound", "triples")
def check_straightening(coord_bound=5, triples=200, seed=1234):
    ok = True
    detail = {}
    done_total = 0
    for n in (1, 2):
        alg = EllipticHallAlgebra(n, FORMAL)
        # relation (1) vanishes; (2) is eps(x, y) c_{n delta(y)} theta_{x+y} / kappa
        rel = 0
        unsigned = {}
        for xq in range(-coord_bound, coord_bound + 1):
            for xp in range(-coord_bound, coord_bound + 1):
                x = (xq, xp)
                if x == (0, 0) or delta(x) != 1:
                    continue
                for yq in range(-coord_bound, coord_bound + 1):
                    for yp in range(-coord_bound, coord_bound + 1):
                        y = (yq, yp)
                        if y == (0, 0):
                            continue
                        if det(x, y) == 0:
                            if not (alg.from_word([x, y])
                                    - alg.from_word([y, x])).is_zero():
                                ok = False
                                detail["relation1"] = f"n={n} {x},{y}"
                            continue
                        if interior_points(x, y) != 0:
                            continue
                        z, dy = (xq + yq, xp + yp), delta(y)
                        if (z, dy) not in unsigned:
                            unsigned[z, dy] = alg.theta(z).scale(alg.c(n * dy)) / alg.kappa
                        lhs = alg.from_word([y, x]) - alg.from_word([x, y])
                        rhs = unsigned[z, dy]
                        if (lhs - rhs if epsilon(x, y) > 0 else lhs + rhs).terms:
                            ok = False
                            detail["relation2"] = f"n={n} {x},{y}"
                        rel += 1
        detail[f"n={n} relation pairs"] = str(rel)
        rng = random.Random(seed + n)
        done = 0
        share = max(1, triples // 2)
        while done < share:
            vs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            if (0, 0) in vs:
                continue
            a, b, c = (alg.generator(v) for v in vs)
            if (a * b) * c != a * (b * c):
                ok = False
                detail["associativity"] = f"n={n} {vs}"
                break
            done += 1
        done_total += done
        g = ((0, -1), (1, 0))
        for _ in range(10):
            va = (rng.randint(-2, 2), rng.randint(-2, 2))
            vb = (rng.randint(-2, 2), rng.randint(-2, 2))
            if (0, 0) in (va, vb):
                continue
            a, b = alg.generator(va), alg.generator(vb)
            if alg.sl2_act(g, a * b) != alg.sl2_act(g, a) * alg.sl2_act(g, b):
                ok = False
                detail["sl2"] = f"n={n} {va},{vb}"
            # the engine transports commutators along SL_2(Z) orbits; check
            # the stored value against one Jacobi step through its split
            if (det(va, vb) and not any(delta(x) == 1 and interior_points(x, y) == 0
                                        for x, y in ((va, vb), (vb, va)))
                    and alg.commutator(va, vb) != alg.jacobi_step(va, vb)):
                ok = False
                detail["jacobi"] = f"n={n} {va},{vb}"
    detail["associativity triples"] = str(done_total)
    return ok, detail


@_check("functional-relations", "window", "m_bound")
def check_functional_relations(window=4, m_bound=3):
    ok = True
    detail = {}
    for n in (1, 2):
        alg = EllipticHallAlgebra(n, FORMAL)
        rows = alg.verify_quadratic_relations(window)
        bad = [r for r in rows if not r["ok"]]
        detail[f"n={n} quadratic identities"] = str(len(rows))
        if bad:
            ok = False
            detail[f"n={n} quadratic failures"] = str(bad[:3])
        for m in range(-m_bound, m_bound + 1):
            if not alg.verify_cubic_relation(m):
                ok = False
                detail[f"n={n} cubic m={m}"] = "nonzero residue"
        detail[f"n={n} cubic m range"] = f"[-{m_bound},{m_bound}]"
    return ok, detail


@_check("twisted-scalar-product", "nmax")
def check_twisted_pairing(ctx=None, nmax=3):
    if ctx is None:
        ctx = AutoformContext(make_test_curves()[0], char_levels=tuple(range(1, nmax + 1)))
    ok = True
    detail = {}
    for n in range(1, nmax + 1):
        prim = primitive_orbits(ctx.curve, n)
        for r in prim:
            for s in character_orbits(ctx.curve, n):
                val = green_pair_twisted(ctx, r, s, n)
                if s == r and val.is_zero():
                    ok = False
                    detail[f"n={n} diagonal zero"] = str(r)
        detail[f"n={n} primitive orbits"] = str(len(prim))
    return ok, detail


@_check("hecke-action", "nmax", "Nmax")
def check_hecke_action(ctx=None, nmax=2, Nmax=4):
    if ctx is None:
        ctx = AutoformContext(make_test_curves()[0],
                              char_levels=tuple(range(1, Nmax + 1)))
    checked = 0
    for n in range(1, nmax + 1):
        for rho in primitive_orbits(ctx.curve, n):
            for N in range(n, Nmax + 1, n):
                for sigma in character_orbits(ctx.curve, N):
                    hecke_T0N_eigenvalue(ctx, rho, sigma, N)  # raises on a mismatch
                    checked += 1
    # the elementary eigenvalues (Newton-checked inside) carry the weight
    # u^(deg(x) l (n - l)), u^2 = q: an even power of u is a power of q
    weights = set()
    for n in range(1, nmax + 1):
        for rho in primitive_orbits(ctx.curve, n):
            for x in ctx.curve.closed_points(Nmax):
                for l in range(1, n + 1):
                    hecke_eigenvalue_elementary(ctx, rho, x, l)
                    weights.add(x.degree * l * (n - l))
    u, q = ctx.ring.u, ctx.curve.q
    bad = {f"u^{e}": f"{u ** e} != {q ** (e // 2)}"
           for e in sorted(weights) if e % 2 == 0 and u ** e != q ** (e // 2)}
    return not bad, {"eigenvalue identities": str(checked), **bad}


@_check("l-functions", "order", "char_order")
def check_l_functions(ctx=None, order=8, char_order=6):
    curve = make_test_curves()[0] if ctx is None else ctx.curve
    if ctx is None:
        ctx = AutoformContext(curve, char_levels=(1, 2))
    ok = True
    detail = {}
    forms = [(n, rho) for n in (1, 2) for rho in primitive_orbits(curve, n)]
    one = TruncatedSeries({0: ctx.ring.one}, order, ctx.ring.one)
    for i, (n1, r1) in enumerate(forms):
        selfL = l_function(ctx, r1, r1, order)
        zz = zeta_xn_series(ctx, n1, order)
        if selfL != zz:
            ok = False
            detail[f"L(f,f) rank {n1} #{i}"] = f"{selfL} != {zz}"
        for j, (n2, r2) in enumerate(forms):
            if j <= i:
                continue
            cross = l_function(ctx, r1, r2, order)
            if cross != one:
                ok = False
                detail[f"L(f,g) {i},{j}"] = str(cross)
    detail["eigenform pairs"] = str(len(forms) * (len(forms) - 1) // 2)
    for chi in all_characters(curve, 1):
        if chi.is_trivial():
            continue
        series = character_l_function(curve, chi, char_order)
        if any(not series.coefficient(k).is_zero() for k in range(1, char_order + 1)):
            ok = False
            detail[f"character L {chi}"] = "not identically 1"
    return ok, detail


@_check("cusp-form-census", "nmax")
def check_cusp_census(curve=None, nmax=3):
    """Primitive Frobenius orbits of characters of rank n = closed points of
    degree n.

    For d | n the characters of Pic^0(X_n) = X(F_{q^n}) fixed by the d-th
    Frobenius power are as many as the points X(F_{q^d}) it fixes, so by
    Moebius inversion the characters in orbits of size n are n times as
    many as the closed points of degree n.
    """
    curve = curve if curve is not None else make_test_curves()[0]
    ok = True
    detail = {}
    for n in range(1, nmax + 1):
        # primitive_orbits cross-validates orbit size against norm exclusion
        dim = cusp_dimension(curve, n)
        detail[f"dim rank {n}, degree 0"] = str(dim)
        points = sum(1 for x in curve.closed_points(n) if x.degree == n)
        if dim != points:
            ok = False
            detail[f"rank {n} mismatch"] = f"{dim} orbits, {points} closed points"
    return ok, detail


@_check("step2-cross-identity", "Nmax")
def check_step2_identity(curve=None, Nmax=6):
    """Structure constant of the loop algebra = curve-side eigenvalue."""
    curve = curve if curve is not None else make_test_curves()[0]
    ring = get_curve_ring(curve.q, 1, curve.trace)
    ok = True
    detail = {}
    for N in range(1, Nmax + 1):
        c_val = ring.c_coefficient(N)
        count = curve.count_via_trace(N)
        want = ring.nu_integer(N) * ring.nu ** N * Fraction(count, N)
        detail[f"c_{N}"] = str(c_val)
        if c_val != want:
            ok = False
            detail[f"c_{N} mismatch"] = f"{c_val} != {want}"
    # formal-side identity under the specialization lift
    s, sb = FORMAL.s, FORMAL.sb
    for i in range(1, Nmax + 1):
        lhs = FORMAL.c_coefficient(i)
        count_lift = (s * sb) ** (2 * i) + 1 - s ** (2 * i) - sb ** (2 * i)
        rhs = FORMAL.nu_integer(i) * (s * sb) ** (-i) * count_lift * Fraction(1, i)
        if lhs != rhs:
            ok = False
            detail[f"formal c_{i}"] = "lifted specialization identity fails"
    # engine-side: the commutator coefficient at twist n matches
    for n in (1, 2):
        alg = EllipticHallAlgebra(n, ring)
        for d in (1, 2, 3):
            N = n * d
            if N > Nmax:
                continue
            cm = alg.commutator((0, d), (1, 0))
            want = alg.generator((1, d)).scale(
                ring.nu_integer(N) * ring.nu ** N
                * Fraction(curve.count_via_trace(N), N))
            if cm != want:
                ok = False
                detail[f"n={n} d={d}"] = "engine commutator mismatch"
    return ok, detail


@_check("twisted-average-independence", "levels", "degree")
def check_independence(ctx=None, levels=(1, 2, 3), degree=6):
    if ctx is None:
        ctx = AutoformContext(make_test_curves()[0], char_levels=tuple(levels))
    count, rk = monomial_independence_rank(ctx, levels, degree)
    return count == rk, {"monomials": str(count), "rank": str(rk)}


@_check("theta-grouplike", "d_max")
def check_theta_grouplike(ctx=None, d_max=3):
    if ctx is None:
        ctx = AutoformContext(make_test_curves()[0],
                              char_levels=tuple(range(1, d_max + 1)))
    ok = True
    detail = {}
    rho = primitive_orbits(ctx.curve, 1)[0]
    th = theta_coproduct_coefficients(ctx, rho, d_max)
    for d in range(d_max + 1):
        lhs = global_coproduct(th[d])
        rhs: dict = {}
        for i in range(d + 1):
            for m1, c1 in th[i].terms.items():
                for m2, c2 in th[d - i].terms.items():
                    k = (m1, m2)
                    v = c1 * c2
                    rhs[k] = rhs[k] + v if k in rhs else v
        rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
        if lhs != rhs:
            ok = False
            detail[f"d={d}"] = "coproduct not grouplike"
    detail["orders checked"] = str(d_max)
    return ok, detail


# How each check's budgets grow with the budget degree b.  run_verify_all
# caps every value at the check's full scale; a sequence budget is given
# as a length and cut from the front of its full-scale value.
_SCALING = (
    (check_point_counts_and_zeta, lambda b: dict(nmax=b, order=b + 2)),
    (check_hall_numbers, lambda b: dict(max_total=b)),
    (check_macdonald_bridge, lambda b: dict(rmax=b)),
    (check_straightening, lambda b: dict(coord_bound=b, triples=10 * b)),
    (check_functional_relations, lambda b: dict(window=b, m_bound=b)),
    (check_twisted_pairing, lambda b: dict(nmax=max(1, b // 2))),
    (check_hecke_action, lambda b: dict(nmax=b, Nmax=b)),
    (check_l_functions, lambda b: dict(order=b + 2, char_order=b + 2)),
    (check_cusp_census, lambda b: dict(nmax=max(1, b // 2))),
    (check_step2_identity, lambda b: dict(Nmax=b)),
    (check_theta_grouplike, lambda b: dict(d_max=max(1, b // 2))),
    (check_independence, lambda b: dict(levels=max(1, b // 2), degree=b)),
)


def _cap(full, value):
    return full[:value] if isinstance(full, tuple) else min(full, value)


def run_verify_all(budget_degree=None, seed=1234):
    """Run every check, at full scale or at the budgets of `budget_degree`."""
    results = []
    for check, scaling in _SCALING:
        kwargs = {} if budget_degree is None else {
            p: _cap(check.full_scale[p], v) for p, v in scaling(budget_degree).items()}
        if check is check_straightening:
            kwargs["seed"] = seed
        results.append(check(**kwargs))
    return results
