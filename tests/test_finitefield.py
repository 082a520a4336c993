from itertools import product

import pytest

from ellhall import finitefield
from ellhall.finitefield import FiniteField, _pmod, _pmul, get_field

FIELDS = ([(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)]
          + [(5, n) for n in range(1, 4)] + [(7, n) for n in range(1, 3)])
# larger fields for the tests linear in the field size: more digits to a
# half of the index walk, and up to 5 bits a packed digit
TABLE_FIELDS = FIELDS + [(2, 9), (3, 5), (5, 4), (7, 3), (13, 2)]


def padded(field, coeffs):
    coeffs = list(coeffs) + [0] * (field.n - len(coeffs))
    return tuple(coeffs[: field.n])


def ref_mul(field, a, b):
    """Coefficients of a * b by dense multiplication mod the modulus."""
    p = field.p
    return padded(field, _pmod(_pmul(list(a), list(b), p), field.modulus, p))


@pytest.fixture(params=FIELDS, ids=lambda pn: f"F{pn[0]}^{pn[1]}")
def field(request):
    return get_field(*request.param)


@pytest.fixture(params=TABLE_FIELDS, ids=lambda pn: f"F{pn[0]}^{pn[1]}")
def table_field(request):
    return get_field(*request.param)


def test_iteration_order_is_product_order(field):
    assert [e.coeffs for e in field] == list(product(range(field.p), repeat=field.n))
    assert len(set(field)) == field.size


def test_elements_are_interned(field):
    elems = list(field)
    p = field.p
    for a in elems[:: max(1, len(elems) // 7)]:
        assert a is field.element(a.coeffs)
        assert -a is field.element([-c for c in a.coeffs])
        for b in elems[:: max(1, len(elems) // 5)]:
            assert (a + b) is field.element([x + y for x, y in zip(a.coeffs, b.coeffs)])
            assert (a - b) is field.element([x - y for x, y in zip(a.coeffs, b.coeffs)])
            assert (a * b) is field.element(ref_mul(field, a.coeffs, b.coeffs))
    assert field.from_int(p + 1) is field.one
    assert field.from_int(0) is field.zero
    assert list(field) == elems and all(x is y for x, y in zip(field, elems))
    assert get_field(field.p, field.n) is field
    # only zero has no log, so is_zero reads the right slot
    assert [e for e in field if e.is_zero()] == [field.zero]


def test_products_match_dense_reduction(field):
    elems = list(field)
    for a in elems:
        for b in elems:
            assert (a * b).coeffs == ref_mul(field, a.coeffs, b.coeffs)


def test_exp_table(field):
    exp = field.exp
    g = exp[1 % len(exp)]
    assert len(exp) == field.size - 1
    assert len({e.coeffs for e in exp}) == field.size - 1
    assert exp[0] is field.one
    for k, e in enumerate(exp):
        assert e.log == k
        assert exp[(k + 1) % len(exp)].coeffs == ref_mul(field, e.coeffs, g.coeffs)
    # g is the first element of iteration order that generates the units
    for e in field:
        if e is g:
            break
        if e.is_zero():
            continue
        assert len({(e ** k).coeffs for k in range(field.size - 1)}) < field.size - 1


def test_inverse_and_division(field):
    for a in field:
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            with pytest.raises(ZeroDivisionError):
                field.one / a
            continue
        assert a * a.inverse() is field.one
        for b in list(field)[:: max(1, field.size // 9)]:
            assert (b / a) * a is b


def test_powers(field):
    one = field.one
    for a in field:
        if a.is_zero():
            assert a ** 0 is one
            for e in range(1, field.size + 1):
                assert a ** e is field.zero
            for e in (-1, -2, -3):
                with pytest.raises(ZeroDivisionError):
                    a ** e
            continue
        acc = one.coeffs
        for e in range(field.size + 1):
            assert (a ** e).coeffs == acc
            acc = ref_mul(field, acc, a.coeffs)
        inv = a.inverse()
        for e in (1, 2, 3):
            assert a ** -e is inv ** e


def test_sqrt_is_first_root_in_iteration_order(field):
    elems = list(field)
    for a in elems:
        want = next((z for z in elems
                     if ref_mul(field, z.coeffs, z.coeffs) == a.coeffs), None)
        assert field.sqrt(a) is want
    if field.p == 2:
        assert all(field.sqrt(a) is not None for a in elems)
    else:
        squares = sum(1 for a in elems if field.sqrt(a) is not None)
        assert squares == (field.size + 1) // 2


@pytest.mark.parametrize("pn", [(5, 1), (5, 2), (5, 3), (5, 4), (3, 5)],
                         ids=lambda pn: f"F{pn[0]}^{pn[1]}")
def test_sqrt_by_index_equals_coefficient_order(pn):
    # the root of least index is the root whose coefficient tuple is least
    field = get_field(*pn)
    for a in field:
        k = a.log
        if k is None or k % 2:
            continue
        z = field.exp[k // 2]
        assert field.sqrt(a) is min(z, -z, key=lambda e: e.coeffs)


@pytest.mark.parametrize("pn", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)],
                         ids=lambda pn: f"F{pn[0]**pn[1]}")
def test_zech_sums_match_coordinates(pn):
    # every pair: log arithmetic through the Zech table equals
    # coefficient-wise arithmetic mod p
    field = get_field(*pn)
    p = field.p
    for a in field:
        assert (-a).coeffs == tuple(-x % p for x in a.coeffs)
        for b in field:
            assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs))
            assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs))


def test_zech_table(table_field):
    field = table_field
    minus_one = field.element([-1])
    for k, e in enumerate(field.exp):
        s = field.element([e.coeffs[0] + 1] + list(e.coeffs[1:]))
        assert field.zech[k] == s.log
        assert (field.zech[k] is None) == (e is minus_one)
    assert field.exp[field.neg_log] is minus_one


def test_exp_table_equals_dense_walk(table_field):
    # the linear step x -> x g against the dense _pmul/_pmod walk of g's powers
    field = table_field
    g = list(field.exp[1 % len(field.exp)].coeffs)
    power = [1]
    for e in field.exp:
        assert e.coeffs == padded(field, power)
        power = _pmod(_pmul(power, g, field.p), field.modulus, field.p)
    assert padded(field, power) == field.one.coeffs


@pytest.mark.parametrize("pn", [(5, 1), (3, 2), (2, 4), (5, 2), (7, 2)],
                         ids=lambda pn: f"F{pn[0]}^{pn[1]}")
def test_walk_rejects_a_non_primitive_g(monkeypatch, pn):
    # with no prime divisors of p^n - 1 to test, g is the first nonzero
    # element of iteration order, which has smaller order in these fields
    p, n = pn
    divisors = finitefield._prime_divisors
    monkeypatch.setattr(finitefield, "_prime_divisors",
                        lambda k: [] if k == p ** n - 1 else divisors(k))
    with pytest.raises(ArithmeticError, match="g is not primitive"):
        FiniteField(p, n)
