"""Workload definitions: the ops of one pass, built from the public layers.

Each workload function constructs its inputs (algebras, curves, contexts)
and returns a list of phases, each a list of ``(label, fn)`` ops.  ``fn()``
returns ``(ok, payload)``: ``ok`` is the exact identity the op checks,
``payload`` the exact result whose canonical string feeds the result digest.  An op
that raises counts as failed, like an op whose identity does not hold.

The ops mirror the acceptance checks in ``ellhall.verification`` and call
the same layer functions; they are sliced so a cold pass fits in seconds.
The run seed shuffles the ops within each phase and keeps the phases in
order (see ``permute``), so the set of ops, the work of a cold pass and
the digest are the same for every seed.  Each kind of op is spread over
the whole pass, which averages the machine's speed swings of a few
seconds into every latency percentile.  The rank certificate is a phase
of its own at the end, so peak memory does not depend on the order.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from ellhall.autoforms import (AutoformContext, green_pair_twisted,
                               hecke_T0N_eigenvalue, l_function,
                               monomial_independence_rank, zeta_xn_series,
                               character_l_function)
from ellhall.curve import CurveData, all_characters, character_orbits, primitive_orbits
from ellhall.dvr_hall import DvrHallAlgebra, partitions
from ellhall.elliptic_hall import EllipticHallAlgebra
from ellhall.lattice import delta, det, interior_points
from ellhall.ratfunc import FORMAL
from ellhall.scalars import TruncatedSeries, series_exp

# The corpus seed of the associativity triples: the verify-all default.
CORPUS_SEED = 1234

SIZES = {
    "full": {
        "assoc_triples_per_twist": 300, "assoc_coord": 2,
        "rel_bound": 5, "rel_window": 4, "rel_cubic_m": 3,
        "pc_nmax": 6, "zeta_order": 8, "pic_nmax": 3, "hall_total": 5,
        "hecke_nmax": 2, "hecke_Nmax": 4, "lfun_order": 8, "char_order": 6,
        "green_nmax": 3, "cert_levels": (1, 2, 3), "cert_degree": 4,
    },
    "small": {
        "assoc_triples_per_twist": 20, "assoc_coord": 2,
        "rel_bound": 2, "rel_window": 1, "rel_cubic_m": 1,
        "pc_nmax": 3, "zeta_order": 4, "pic_nmax": 2, "hall_total": 3,
        "hecke_nmax": 1, "hecke_Nmax": 2, "lfun_order": 4, "char_order": 3,
        "green_nmax": 2, "cert_levels": (1, 2), "cert_degree": 2,
    },
}


def assoc_triples(sz):
    """(ab)c == a(bc) for corpus triples of generators, one fresh algebra per twist."""
    ops = []
    bound = sz["assoc_coord"]
    for n in (1, 2):
        alg = EllipticHallAlgebra(n, FORMAL)
        rng = random.Random(CORPUS_SEED + n)
        drawn = 0
        while drawn < sz["assoc_triples_per_twist"]:
            vs = tuple((rng.randint(-bound, bound), rng.randint(-bound, bound))
                       for _ in range(3))
            if (0, 0) in vs:
                continue
            drawn += 1
            ops.append((f"assoc n={n} #{drawn} {vs}", _assoc_op(alg, vs)))
    return [ops]


def _assoc_op(alg, vs):
    def op():
        a, b, c = (alg.generator(v) for v in vs)
        left = (a * b) * c
        return left == a * (b * c), left
    return op


def relation_sweep(sz):
    """Both defining relations row by row, then the functional relations."""
    ops = []
    bound = sz["rel_bound"]
    box = [(q, p) for q in range(-bound, bound + 1) for p in range(-bound, bound + 1)
           if (q, p) != (0, 0)]
    for n in (1, 2):
        alg = EllipticHallAlgebra(n, FORMAL)
        ops += [(f"row n={n} x={x}", _relation_row(alg, x, box))
                for x in box if delta(x) == 1]
    for n in (1, 2):
        alg = EllipticHallAlgebra(n, FORMAL)
        ops.append((f"quadratic n={n} window={sz['rel_window']}",
                    _quadratic_op(alg, sz["rel_window"])))
        for m in range(-sz["rel_cubic_m"], sz["rel_cubic_m"] + 1):
            ops.append((f"cubic n={n} m={m}", _cubic_op(alg, m)))
    return [ops]


def _relation_row(alg, x, box):
    def op():
        ok = True
        out = []
        for y in box:
            if det(x, y) == 0:
                diff = alg.from_word([x, y]) - alg.from_word([y, x])
                ok = ok and diff.is_zero()
            elif interior_points(x, y) == 0:
                diff = alg.from_word([y, x]) - alg.from_word([x, y])
                ok = ok and not (diff - alg.commutator_basic(x, y)).terms
            else:
                continue
            out.append(diff)
        return ok, out
    return op


def _quadratic_op(alg, window):
    def op():
        rows = alg.verify_quadratic_relations(window)
        return all(r["ok"] for r in rows), [(r["relation"], r["bidegree"]) for r in rows]
    return op


def _cubic_op(alg, m):
    def op():
        ok = alg.verify_cubic_relation(m)
        return ok, ok
    return op


def curve_side(sz):
    """Point counts, Picard data, Hall numbers, Hecke, L-functions, pairings, certificate."""
    curves = (CurveData(2, a3=1), CurveData(5, a4=1, a6=1))
    base = curves[0]
    ops = []
    for curve in curves:
        for n in range(1, sz["pc_nmax"] + 1):
            ops.append((f"points q={curve.q} n={n}", _point_count_op(curve, n)))
        ops.append((f"zeta q={curve.q}", _zeta_op(curve, sz["zeta_order"])))
        for n in range(1, sz["pic_nmax"] + 1):
            ops.append((f"picard q={curve.q} n={n}", _picard_op(curve, n)))
    total = sz["hall_total"]
    for q in (2, 3):
        alg = DvrHallAlgebra(q)
        parts = {s: list(partitions(s)) for s in range(total + 1)}
        for s1 in range(1, total - 1):
            for s2 in range(1, total - s1):
                for s3 in range(1, total - s1 - s2 + 1):
                    for lams in ((l1, l2, l3) for l1 in parts[s1] for l2 in parts[s2]
                                 for l3 in parts[s3]):
                        ops.append((f"hall q={q} {lams}", _hall_op(alg, lams)))
    Nmax = sz["hecke_Nmax"]
    hecke_ctx = AutoformContext(base, char_levels=tuple(range(1, Nmax + 1)))
    for n in range(1, sz["hecke_nmax"] + 1):
        for rho in primitive_orbits(base, n):
            for N in range(n, Nmax + 1, n):
                for sigma in character_orbits(base, N):
                    ops.append((f"hecke {rho} N={N} {sigma}",
                                _hecke_op(hecke_ctx, rho, sigma, N)))
    lfun_ctx = AutoformContext(base, char_levels=(1, 2))
    order = sz["lfun_order"]
    forms = [(n, rho) for n in (1, 2) for rho in primitive_orbits(base, n)]
    one = TruncatedSeries({0: lfun_ctx.ring.one}, order, lfun_ctx.ring.one)
    for i, (n1, r1) in enumerate(forms):
        ops.append((f"L(f,f) {r1}", _lfun_op(lfun_ctx, r1, r1, order,
                                             lambda n1=n1: zeta_xn_series(lfun_ctx, n1, order))))
        for r2 in [r for _, r in forms[i + 1:]]:
            ops.append((f"L(f,g) {r1} {r2}",
                        _lfun_op(lfun_ctx, r1, r2, order, lambda: one)))
    for chi in all_characters(base, 1):
        if not chi.is_trivial():
            ops.append((f"L(chi) {chi.exps}", _char_l_op(base, chi, sz["char_order"])))
    cert_ctx = AutoformContext(base, char_levels=sz["cert_levels"])
    for n in range(1, sz["green_nmax"] + 1):
        for r in primitive_orbits(base, n):
            for s in character_orbits(base, n):
                ops.append((f"green n={n} {r} {s}", _green_op(cert_ctx, r, s, n)))
    certificate = (f"certificate levels={sz['cert_levels']} degree<={sz['cert_degree']}",
                   _certificate_op(cert_ctx, sz["cert_levels"], sz["cert_degree"]))
    return [ops, [certificate]]


def _point_count_op(curve, n):
    def op():
        enum = curve.count_points(n)
        return enum == curve.count_via_trace(n), enum
    return op


def _zeta_op(curve, order):
    def op():
        logs = TruncatedSeries(
            {k: Fraction(curve.count_via_trace(k), k) for k in range(1, order + 1)},
            order, Fraction(1))
        zeta = curve.zeta_truncated(1, order)
        return series_exp(logs) == zeta, zeta
    return op


def _picard_op(curve, n):
    def op():
        pic = curve.picard(n)
        orbits = character_orbits(curve, n)
        prim = primitive_orbits(curve, n)
        order = 1
        for d in pic.divisors:
            order *= d
        ok = (order == curve.count_via_trace(n)
              and sum(o.size for o in orbits) == len(all_characters(curve, n)) == order)
        return ok, (pic.divisors, len(orbits), len(prim))
    return op


def _hall_op(alg, lams):
    def op():
        a, b, c = (alg.basis_element(lam) for lam in lams)
        left = (a * b) * c
        return left == a * (b * c), left
    return op


def _hecke_op(ctx, rho, sigma, N):
    def op():
        return True, hecke_T0N_eigenvalue(ctx, rho, sigma, N)
    return op


def _lfun_op(ctx, r1, r2, order, expected):
    def op():
        series = l_function(ctx, r1, r2, order)
        return series == expected(), series
    return op


def _char_l_op(curve, chi, order):
    def op():
        series = character_l_function(curve, chi, order)
        return all(series.coefficient(k).is_zero() for k in range(1, order + 1)), series
    return op


def _green_op(ctx, r, s, n):
    def op():
        val = green_pair_twisted(ctx, r, s, n)
        return not (s == r and val.is_zero()), val
    return op


def _certificate_op(ctx, levels, degree):
    def op():
        count, rank = monomial_independence_rank(ctx, levels, degree)
        return count == rank, (count, rank)
    return op


WORKLOADS = {
    "assoc-triples": assoc_triples,
    "relation-sweep": relation_sweep,
    "curve-side": curve_side,
}


def build(workload: str, size: str = "full"):
    return WORKLOADS[workload](SIZES[size])


def permute(phases, workload: str, seed: int, pass_index: int):
    """The op order of one pass: phases in order, each shuffled by the seed.

    Every pass of a run gets its own shuffle.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    ordered = []
    for phase in phases:
        phase = list(phase)
        rng.shuffle(phase)
        ordered += phase
    return ordered


def canonical(payload) -> str:
    if isinstance(payload, str):
        return payload
    if isinstance(payload, (list, tuple)):
        return "[" + ", ".join(canonical(p) for p in payload) + "]"
    return repr(payload)


def digest(results) -> str:
    """Order-free SHA-256 over the canonical ``label = result`` lines."""
    lines = sorted(f"{label} = {canonical(payload)}" for label, payload in results)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
