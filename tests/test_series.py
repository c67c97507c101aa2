"""Truncated integer power series and cyclotomic-style infinite products."""

import random

import pytest

from flatpart.errors import NonUnitConstantTerm
from flatpart.partitions import partitions_of
from flatpart.series import (IntSeries, ProductSpec, first_difference, geom,
                             load_series, monomial, one,
                             product_from_exponents, product_series,
                             save_series, series_div, series_mul, zero)


def test_arithmetic_basics():
    f = IntSeries((1, 2, 3))
    g = IntSeries((0, 1, 0))
    assert (f + g).coeffs == (1, 3, 3)
    assert (f - f).coeffs == (0, 0, 0)
    assert (f * g).coeffs == (0, 1, 2)
    assert f[1] == 2
    assert list(f) == [1, 2, 3]
    assert f.order == 2
    assert f.truncate(1).coeffs == (1, 2)


def test_mixed_orders_truncate_to_the_shorter():
    f = IntSeries((1, 2))
    g = IntSeries((1, 2, 3))
    assert (f + g).coeffs == (2, 4)
    assert (f * g).order == 1


def test_first_difference_scans_the_shorter_series():
    f = IntSeries((1, 2))
    g = IntSeries((1, 2, 3))
    assert first_difference(f, g) is None
    assert first_difference(g, IntSeries((1, 2, 4))) == 2
    assert first_difference(IntSeries((0, 2)), g) == 0


def test_constructors():
    assert one(3).coeffs == (1, 0, 0, 0)
    assert zero(2).coeffs == (0, 0, 0)
    assert monomial(2, 4).coeffs == (0, 0, 1, 0, 0)
    assert monomial(1, 3, coeff=-2).coeffs == (0, -2, 0, 0)
    assert geom(3, 8).coeffs == (1, 0, 0, 1, 0, 0, 1, 0, 0)


def test_division_inverts_multiplication():
    rng = random.Random(23)
    for _ in range(40):
        order = rng.randrange(5, 30)
        f = IntSeries(tuple(rng.randrange(-4, 5) for _ in range(order + 1)))
        g_coeffs = [1] + [rng.randrange(-3, 4) for _ in range(order)]
        g = IntSeries(tuple(g_coeffs))
        assert series_div(series_mul(f, g), g) == f


def test_division_needs_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        series_div(one(4), IntSeries((0, 1, 0, 0, 0)))
    with pytest.raises(NonUnitConstantTerm):
        series_div(one(4), IntSeries((2, 0, 0, 0, 0)))


def test_unrestricted_partition_series():
    # 1 / prod (1 - q^m) counts all partitions
    order = 30
    f = one(order)
    for m in range(1, order + 1):
        f = series_div(f, one(order) - monomial(m, order))
    for n in range(order + 1):
        assert f[n] == len(partitions_of(n))


def test_odd_classes_match_distinct_parts():
    odd = product_series(ProductSpec.from_residues(2, [1]), 20)
    distinct = one(20)
    for m in range(1, 21):
        distinct = series_mul(distinct, one(20) + monomial(m, 20))
    assert odd == distinct


def test_product_spec_helpers():
    spec = ProductSpec.from_residues(5, [1, 4])
    assert spec.exponent(6) == 1 and spec.exponent(10) == 0
    assert spec.allows_part(4) and not spec.allows_part(5)
    assert spec.exponents_dict() == {1: 1, 4: 1}
    assert spec.render_classes() == "1:1,4:1"


def test_product_spec_accepts_dict_or_pairs():
    a = ProductSpec(6, {0: 2, 5: 1, 1: 1})
    b = ProductSpec(6, ((0, 2), (1, 1), (5, 1)))
    assert a == b
    assert a.exponent(12) == 2
    assert a.render_classes() == "0:2,1:1,5:1"


def test_repeated_classes_pile_up():
    # exponent 2 on a class squares that class's factors
    doubled = product_series(ProductSpec(3, {1: 2}), 18)
    single = product_series(ProductSpec(3, {1: 1}), 18)
    assert doubled == series_mul(single, single)


def test_product_from_exponents_agrees_with_spec_form():
    rng = random.Random(5)
    for _ in range(10):
        d = rng.randrange(2, 7)
        expo = {r: rng.randrange(0, 3) for r in range(d)}
        if not any(expo.values()):
            expo[1] = 1
        order = 24
        flat = [expo[m % d] for m in range(1, order + 1)]
        assert product_from_exponents(flat, order) == product_series(
            ProductSpec(d, expo), order)


def test_product_from_exponents_handles_negatives():
    # (1-q)^1 directly
    f = product_from_exponents([-1], 5)
    assert f.coeffs == (1, -1, 0, 0, 0, 0)


def test_save_and_load(tmp_path):
    f = IntSeries((1, 0, 2, -1, 5))
    path = tmp_path / "series.txt"
    save_series(f, path)
    assert load_series(path) == f
