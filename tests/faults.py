"""Named faults of the verification suite, in one patch table.

Each entry of ``FAULTS`` patches one formula of the package inside a
``with`` block, and pins what reduced-budget ``verify-all`` then reports:
the exact set of failing checks, and for each of them the detail entries
that differ from the unfaulted run at the same budget (``None`` pins the
key only).  Its budget is the least budget degree that shows all of that.
A block restores its formula when it exits and drops every module cache
filled inside it, so the table can run in one process with the rest of
the suite.

``tests/test_faults.py`` runs the table in-process.  Run as a script, this
file runs every fault through ``ellhall.cli.main`` and prints the catch
matrix as JSON, fault -> failing checks and exit code, with the unfaulted
run as ``none`` (with the package importable, as after ``pip install -e .``):

    python tests/faults.py
    python -O tests/faults.py

``python -O`` strips ``assert`` statements, so the matrix it prints shows
that every check fails by an explicit comparison or raise.
"""

import contextlib
import io
import json
import sys
from dataclasses import dataclass

from ellhall import autoforms, cli, cyclotomic, dvr_hall, elliptic_hall, verification
from ellhall.curve import CharacterOrbit, CurveData, character_orbits
from ellhall.cyclotomic import CurveRing, CurveScalar
from ellhall.elliptic_hall import EllipticHallAlgebra
from ellhall.finitefield import get_field
from ellhall.ratfunc import FormalRing
from ellhall.scalars import TruncatedSeries
from ellhall.verification import run_verify_all


@contextlib.contextmanager
def _replaced(owner, name, wrap):
    """owner.name replaced by wrap(owner.name) until the block exits."""
    original = vars(owner)[name]
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _when(test, change):
    """Wrap a function so that change(result) replaces its result where
    test(*args) holds."""
    def wrap(f):
        def faulty(*args):
            res = f(*args)
            return change(res) if test(*args) else res
        return faulty
    return wrap


def _double(res):
    return res * 2


def _without_top(series):
    return TruncatedSeries({k: v for k, v in series.terms.items() if k < series.order},
                           series.order, series.one)


def _next_orbit(norm_to):
    """The norm of an orbit to a level above its own, moved on to the next
    orbit of that level."""
    def faulty(orbit, big_level):
        image = norm_to(orbit, big_level)
        if big_level == orbit.level:
            return image
        orbits = character_orbits(orbit.curve, big_level)
        return orbits[(orbits.index(image) + 1) % len(orbits)]
    return faulty


def _one_part_term_doubled(t0r_at_point):
    """T_{(0,r),x} with the coefficient of the one-part partition (r/|x|,)
    doubled."""
    def faulty(ctx, r, x):
        elem = t0r_at_point(ctx, r, x)
        one_part = ((x.key(), (r // x.degree,)),)
        return type(elem)(ctx, {m: c * 2 if m == one_part else c
                                for m, c in elem.terms.items()})
    return faulty


def _drop_hall_tables():
    """Forget the field tables, censuses and Hall numbers of ``dvr_hall``."""
    for table in (dvr_hall._gf, dvr_hall.submodule_census, dvr_hall.hall_products):
        table.cache_clear()


@contextlib.contextmanager
def _hall_number_off_by_one(lam, mu, nu, q):
    """g^lam_{mu nu}(q) + 1 everywhere it is read, until the block exits."""
    dvr_hall.submodule_census(lam, q)[(mu, nu)] += 1
    dvr_hall.hall_products.cache_clear()
    try:
        yield
    finally:
        _drop_hall_tables()


def _quotient_type_one_level_deep(lam, pivots):
    """``dvr_hall._quotient_type`` with dim(N ∩ t^j M) read as the number of
    pivots at depth >= j + 1 instead of >= j."""
    m = sum(lam)
    dims = []
    for j in range(lam[0] + 1 if lam else 1):
        start, deeper = (sum(min(part, i) for part in lam) for i in (j, j + 1))
        dims.append(m - start - sum(1 for p in pivots if p >= deeper))
    return dvr_hall._type_from_dims(dims)


@contextlib.contextmanager
def _census_step_replaced(name, faulty):
    """dvr_hall.name replaced by faulty; the Hall tables start afresh, and
    those computed meanwhile are dropped."""
    _drop_hall_tables()
    try:
        with _replaced(dvr_hall, name, lambda original: faulty):
            yield
    finally:
        _drop_hall_tables()


@contextlib.contextmanager
def _zech_entries_swapped(p, n, i, j):
    """zech[i] and zech[j] of F_{p^n} exchanged; the Hall tables (built on
    field arithmetic) start afresh, and those and the embeddings into the
    field computed meanwhile are dropped."""
    field = get_field(p, n)
    embeddings = dict(field._embeddings)
    field.zech[i], field.zech[j] = field.zech[j], field.zech[i]
    _drop_hall_tables()
    try:
        yield
    finally:
        field.zech[i], field.zech[j] = field.zech[j], field.zech[i]
        field._embeddings = embeddings
        _drop_hall_tables()


@contextlib.contextmanager
def _u_squared_is_q_plus_one():
    """Products of two scalars with u-parts read u^2 as q + 1 (the only
    place ``CurveScalar.__mul__`` reads q); the curve rings start afresh,
    and those built meanwhile, with their memos, are dropped."""
    rings = dict(cyclotomic._RING_CACHE)
    cyclotomic._RING_CACHE.clear()
    mul = CurveScalar.__mul__

    def faulty(x, y):
        x.ring.q += 1
        try:
            return mul(x, y)
        finally:
            x.ring.q -= 1

    CurveScalar.__mul__ = CurveScalar.__rmul__ = faulty
    try:
        yield
    finally:
        CurveScalar.__mul__ = CurveScalar.__rmul__ = mul
        cyclotomic._RING_CACHE.clear()
        cyclotomic._RING_CACHE.update(rings)


@dataclass(frozen=True)
class Fault:
    patch: object  # a callable returning the context manager of the fault
    budget: int
    fails: dict  # {check: {detail key the fault adds or changes: value, or None}}


_ASSOC_1 = "n=1 [(0, -2), (2, -1), (2, 2)]"  # the first failing triple at budget 1
_ASSOC_2 = "n=2 [(2, 3), (0, 2), (-1, -2)]"  # ... and at budget 2
_QUADRATIC = {"n=1 quadratic failures": None, "n=2 quadratic failures": None}
_U_LOC = {"error": "IdentityMismatch: u_loc must square to 1/q_loc"}
_INEXACT = "ArithmeticError: inexact polynomial division"

FAULTS = {
    # relation (2) with the opposite sign
    "relation-sign": Fault(
        lambda: _replaced(elliptic_hall, "epsilon", lambda eps: lambda x, y: -eps(x, y)),
        1, {"straightening-soundness": {"relation2": "n=2 (1, 1),(1, 0)",
                                        "associativity": _ASSOC_1,
                                        "jacobi": "n=2 (2, 0),(2, -2)",
                                        "associativity triples": "6"},
            "functional-relations": _QUADRATIC,
            "step2-cross-identity": {"n=1 d=1": "engine commutator mismatch"}}),
    # c_2 doubled in Q[s^+-1, sb^+-1]: step 2 sees it from budget 2 on
    "c2-doubled": Fault(
        lambda: _replaced(FormalRing, "c_coefficient",
                          _when(lambda ring, i: i == 2, _double)),
        2, {"straightening-soundness": {"associativity": _ASSOC_2,
                                        "jacobi": "n=2 (-2, -1),(0, -2)",
                                        "associativity triples": "10"},
            "functional-relations": {"error": _INEXACT},
            "step2-cross-identity": {"formal c_2": "lifted specialization identity fails"}}),
    # c_2 + 1 in Q[s^+-1, sb^+-1]: relation (2) then leaves values that c_2
    # and kappa no longer divide, so the exact divisions raise
    "c2-plus-one": Fault(
        lambda: _replaced(FormalRing, "c_coefficient",
                          _when(lambda ring, i: i == 2, lambda res: res + 1)),
        2, {"straightening-soundness": {"error": _INEXACT},
            "functional-relations": {"error": _INEXACT},
            "step2-cross-identity": {"formal c_2": "lifted specialization identity fails"}}),
    # kappa doubled in Q[s^+-1, sb^+-1]
    "kappa-doubled": Fault(
        lambda: _replaced(FormalRing, "kappa", _when(lambda ring, n: True, _double)),
        1, {"straightening-soundness": {"associativity": _ASSOC_1,
                                        "associativity triples": "6"},
            "functional-relations": _QUADRATIC}),
    # theta_k read from exp(...) computed one order short: theta_k = 0
    "theta-exp-short": Fault(
        lambda: _replaced(elliptic_hall, "series_exp",
                          _when(lambda a: True, _without_top)),
        1, {"straightening-soundness": {
                "error": "StraighteningError: commutator cycle at ((2, 0), (1, 2))"},
            "functional-relations": {
                "error": "StraighteningError: commutator cycle at ((1, 0), (1, 3))"},
            "step2-cross-identity": {"n=1 d=1": "engine commutator mismatch"}}),
    # #X(F_{q^2}) by enumeration one too many: budget 1 does not count N_2
    "point-count-n2": Fault(
        lambda: _replaced(CurveData, "count_points",
                          _when(lambda curve, n: n == 2, lambda res: res + 1)),
        2, {"point-counts-and-zeta": {"q=2 N_2": "10", "q=2 N_2 mismatch": "10 != 9",
                                      "q=5 N_2": "28", "q=5 N_2 mismatch": "28 != 27"}}),
    # the Green-pair closed form with the curve-side kappa doubled
    "green-pair-kappa": Fault(
        lambda: _replaced(CurveRing, "kappa", _when(lambda ring, n: True, _double)),
        1, {"twisted-scalar-product": {"error": "IdentityMismatch: (3, 3/2)"}}),
    # T_{(0,r),x} with its (r/|x|,) term doubled: at r = |x| the whole
    # generator doubles, which the Green pairing sees from budget 1 on, and
    # from r/|x| = 2 on it is no longer a multiple of F_{r/|x|}.  Scaling
    # one coefficient at one point cannot fail a rank certificate on its
    # own (it rescales one variable P(x, k)), so criterion 11 fails on its
    # F_k guard; that needs level 2, from budget 4 on
    "t0-one-part-doubled": Fault(
        lambda: _replaced(autoforms, "T0r_at_point", _one_part_term_doubled),
        4, {"twisted-scalar-product": {"error": "IdentityMismatch: (12, 3)"},
            "theta-grouplike": {"d=2": "coproduct not grouplike"},
            "twisted-average-independence": {
                "error": "IdentityMismatch: the component at x[1, 0] is not a multiple of F_2"}}),
    # one cusp form too many at rank 2: the census compares rank 2 from
    # budget 4 on
    "cusp-dimension-rank-2": Fault(
        lambda: _replaced(verification, "cusp_dimension",
                          _when(lambda curve, n: n == 2, lambda res: res + 1)),
        4, {"cusp-form-census": {"dim rank 2, degree 0": "4",
                                 "rank 2 mismatch": "4 orbits, 3 closed points"}}),
    # the Hecke closed form on the wrong norm orbit: budget 1 has no norm
    "hecke-norm-orbit": Fault(
        lambda: _replaced(CharacterOrbit, "norm_to", _next_orbit),
        2, {"hecke-action": {"error": "IdentityMismatch: (27/4*u, 0)"}}),
    # one Hall number off by one: at budget 3 each is caught by one check only
    "hall-g11-1-1": Fault(
        lambda: _hall_number_off_by_one((1, 1), (1,), (1,), 2),
        3, {"macdonald-bridge": {"Psi(F_2)": "not the power sum",
                                 "Psi(F_3)": "not the power sum",
                                 "hom": "(2,) * (1, 1)"}}),
    "hall-g21-1-2": Fault(
        lambda: _hall_number_off_by_one((2, 1), (1,), (2,), 2),
        3, {"hall-number-oracle": {"assoc": "q=2 (1,),(1,),(1,)", "comm": "q=2 (2,),(1,)"}}),
    # the census counts dim(N ∩ t^j M) as the pivots one level too deep, so
    # dim t^j(M/N) comes out too large by the pivots at depth j
    "quotient-pivots-deeper": Fault(
        lambda: _census_step_replaced("_quotient_type", _quotient_type_one_level_deep),
        3, {"hall-number-oracle": {"comm": "q=3 (2,),(1,)"},
            "macdonald-bridge": {"error": "ValueError: matrix is singular"},
            "theta-grouplike": {"d=1": "coproduct not grouplike"}}),
    # two Zech logs of F_8 swapped: sums in F_8 only go wrong, so the
    # enumerated N_3 leaves the trace recursion (budgets 1 and 2 see the
    # fault in the L-functions only)
    "zech-f8": Fault(
        lambda: _zech_entries_swapped(2, 3, 1, 2),
        3, {"point-counts-and-zeta": {"q=2 N_3": "11", "q=2 N_3 mismatch": "11 != 9"},
            "hecke-action": {
                "error": "IdentityMismatch: a point of order above the group order 11"},
            "l-functions": {"error": "KeyError: FF2^3[0, 1, 1]"}}),
    # u^2 read as q + 1 in CurveScalar products: every DvrHallAlgebra
    # checks u_loc (criterion 11 builds the local algebras of the exact
    # ring), and hecke-action compares the even powers of u in the weights
    # of the elementary eigenvalues with powers of q (l-functions does not
    # see the fault, at full budget either)
    "u-squared": Fault(
        _u_squared_is_q_plus_one,
        2, {"hall-number-oracle": _U_LOC, "macdonald-bridge": _U_LOC,
            "twisted-scalar-product": _U_LOC, "theta-grouplike": _U_LOC,
            "twisted-average-independence": _U_LOC,
            "hecke-action": {"u^2": "3 != 2"},
            "step2-cross-identity": {"c_1": "9/4*u", "c_2": "243/32*u",
                                     "n=1 d=1": "engine commutator mismatch",
                                     "n=1 d=2": "engine commutator mismatch",
                                     "n=2 d=1": "engine commutator mismatch"}}),
    # one transported orbit representative doubled: the Jacobi comparison
    # of the SL_2(Z) samples sees it from budget 2 on
    "transported-representative": Fault(
        lambda: _replaced(EllipticHallAlgebra, "_commutator_impl",
                          _when(lambda alg, a, b: (a, b) == ((1, 0), (2, 4)), _double)),
        2, {"straightening-soundness": {"associativity": _ASSOC_2,
                                        "jacobi": "n=2 (-2, -1),(0, -2)",
                                        "associativity triples": "10"},
            "functional-relations": _QUADRATIC}),
    # the (k, delta(y)) = (2, 1) per-ray series of relation (2) doubled
    "ray-series-2-1": Fault(
        lambda: _replaced(EllipticHallAlgebra, "_ray_basic",
                          _when(lambda alg, k, dy, sign: (k, dy, sign) == (2, 1, 1), _double)),
        1, {"straightening-soundness": {"relation2": "n=2 (1, 1),(1, -1)",
                                        "associativity": _ASSOC_1,
                                        "jacobi": "n=2 (2, 0),(2, -2)",
                                        "associativity triples": "6"},
            "functional-relations": _QUADRATIC}),
}


def injected(name):
    """The context manager of the fault `name`, or of no fault for None."""
    return contextlib.nullcontext() if name is None else FAULTS[name].patch()


def verify_all(name, budget):
    """run_verify_all at `budget` under the fault `name`."""
    with injected(name):
        return run_verify_all(budget_degree=budget)


def run_cli(name, budget):
    """(failing checks, exit code) of ``ellhall verify-all`` under `name`."""
    out = io.StringIO()
    with injected(name), contextlib.redirect_stdout(out):
        code = cli.main(["--budget-degree", str(budget), "--format", "json", "verify-all"])
    report = json.loads(out.getvalue())
    return sorted(c["name"] for c in report["checks"] if c["status"] == "fail"), code


def catch_matrix():
    """{fault: {"fails": [...], "exit_code": code}}, the unfaulted run (at
    the largest budget of the table) under "none"."""
    runs = {"none": run_cli(None, max(f.budget for f in FAULTS.values()))}
    runs.update((name, run_cli(name, f.budget)) for name, f in FAULTS.items())
    return {name: {"fails": fails, "exit_code": code} for name, (fails, code) in runs.items()}


if __name__ == "__main__":
    json.dump(catch_matrix(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
