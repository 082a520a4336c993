"""Acceptance suite: one test per exit criterion, full desk-scale budgets.

Every criterion is exact (no tolerances anywhere: the coefficient rings
are exact, so every comparison is ==).  Each test prints a single
ACCEPTANCE line so a verbose run doubles as the sign-off report.
"""

import pytest

from ellhall.autoforms import AutoformContext
from ellhall.elliptic_hall import EllipticHallAlgebra
from ellhall.verification import (check_cusp_census, check_functional_relations,
                                  check_hall_numbers, check_hecke_action,
                                  check_independence, check_l_functions,
                                  check_macdonald_bridge,
                                  check_point_counts_and_zeta,
                                  check_step2_identity, check_straightening,
                                  check_theta_grouplike, check_twisted_pairing,
                                  make_test_curves)


@pytest.fixture(scope="module")
def curves():
    return make_test_curves()


@pytest.fixture(scope="module")
def ctx(curves):
    return AutoformContext(curves[0], char_levels=(1, 2, 3, 4))


def _report(number, result):
    line = f"ACCEPTANCE {number:>2} {result.name}: {result.status.upper()}"
    print(line)
    assert result.status == "pass", (line, result.detail)


def test_criterion_01_point_counts_and_zeta(curves):
    _report(1, check_point_counts_and_zeta(curves, nmax=6, order=8))


def test_criterion_02_hall_number_oracle():
    _report(2, check_hall_numbers(max_total=5, qs=(2, 3), aut_max=3))


def test_criterion_03_macdonald_bridge():
    _report(3, check_macdonald_bridge(rmax=4))


def test_criterion_04_straightening_soundness(monkeypatch):
    # commutators resolved by recursion: one per orbit, not one per pair
    resolve, resolved = EllipticHallAlgebra._resolve_through, []

    def counted(self, *args):
        resolved.append(args)
        return resolve(self, *args)

    monkeypatch.setattr(EllipticHallAlgebra, "_resolve_through", counted)
    _report(4, check_straightening(coord_bound=5, triples=200, seed=1234))
    assert len(resolved) <= 400, len(resolved)


def test_criterion_05_functional_relations():
    _report(5, check_functional_relations(window=4, m_bound=3))


def test_criterion_06_twisted_scalar_product(ctx):
    _report(6, check_twisted_pairing(ctx, nmax=3))


def test_criterion_07_hecke_action(ctx):
    _report(7, check_hecke_action(ctx, nmax=2, Nmax=4))


def test_criterion_08_l_functions(ctx):
    _report(8, check_l_functions(ctx, order=8, char_order=6))


def test_criterion_09_cusp_form_census(curves):
    _report(9, check_cusp_census(curves[0], nmax=3))


def test_criterion_10_step2_cross_identity(curves):
    _report(10, check_step2_identity(curves[0], Nmax=6))


def test_criterion_11_twisted_average_independence(ctx):
    _report(11, check_independence(ctx, levels=(1, 2, 3), degree=6))


def test_supplement_theta_grouplike(ctx):
    # coproduct shape feeding criterion 11's independence statement
    _report(0, check_theta_grouplike(ctx, d_max=3))
