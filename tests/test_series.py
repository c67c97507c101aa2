"""Truncated integer power series and cyclotomic-style infinite products.

The packed product expansion is checked against a plain list expansion,
one in-place pass over a coefficient list per unit of |c_m|, kept here
as the reference."""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from flatpart.counting import count_by_predicate
from flatpart.errors import PreconditionViolated
from flatpart.families import get_identity, registered_names
from flatpart.partitions import partitions_of
from flatpart.series import (IntSeries, ProductSpec, div_one_minus_qm,
                             first_mismatch, first_split, load_series,
                             mul_one_minus_qm, one, packed_div_one_minus_qm,
                             packed_product, partition_bits,
                             product_from_exponents, product_series, unpack)


def _list_product(exponents, order):
    """prod_m (1-q^m)^(-c_m) on a coefficient list, one in-place pass of
    multiplying or dividing by (1-q^m) per unit of |c_m|."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for m in range(1, min(len(exponents) + 1, order + 1)):
        c = exponents[m - 1]
        for _ in range(abs(c)):
            if c > 0:
                div_one_minus_qm(coeffs, m)
            else:
                mul_one_minus_qm(coeffs, m)
    return IntSeries(coeffs)


def test_a_series_is_an_immutable_tuple_with_no_arithmetic():
    f = IntSeries([1, 2, 3])
    assert f.coeffs == (1, 2, 3)
    assert f[1] == 2
    assert list(f) == [1, 2, 3]
    assert len(f) == 3 and f.order == 2
    assert f == IntSeries((1, 2, 3)) and hash(f) == hash(IntSeries((1, 2, 3)))
    with pytest.raises(AttributeError, match="immutable"):
        f.coeffs = (0,)
    # series arithmetic runs on coefficient lists or packed ints
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(f, f)
    assert not hasattr(f, "shift")


@pytest.mark.parametrize("op", [
    lambda f: f + 1, lambda f: 1 + f, lambda f: f - 1, lambda f: 1 - f,
    lambda f: f * 2, lambda f: 2 * f, lambda f: -f, lambda f: f / f,
], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "neg", "div"])
def test_only_two_series_combine(op):
    # a series combines with no scalar either
    with pytest.raises(TypeError):
        op(IntSeries((1, 2)))


def test_first_mismatch_scans_the_shorter_series():
    f = IntSeries((1, 2))
    g = IntSeries((1, 2, 3))
    assert first_mismatch(f, g) is None
    assert first_mismatch(g, IntSeries((1, 2, 4))) == (2, 3, 4)
    assert first_mismatch(IntSeries((0, 2)), g) == (0, 0, 1)


def test_constructors():
    assert one(3).coeffs == (1, 0, 0, 0)
    assert one(0).coeffs == (1,)


def test_unrestricted_partition_series():
    # 1 / prod (1 - q^m) counts all partitions
    order = 30
    f = product_series(ProductSpec(1, {0: 1}), order)
    for n in range(order + 1):
        assert f[n] == len(partitions_of(n))


def test_odd_classes_match_distinct_parts():
    odd = product_series(ProductSpec.from_residues(2, [1]), 20)
    distinct = count_by_predicate(lambda p: len(set(p)) == len(p), 20)
    assert odd == distinct


def test_product_spec_helpers():
    spec = ProductSpec.from_residues(5, [1, 4])
    assert spec.exponent(6) == 1 and spec.exponent(10) == 0
    assert spec.allows_part(4) and not spec.allows_part(5)
    assert spec.residue_exponents == ((1, 1), (4, 1))


def test_from_residues_names_a_set_of_classes():
    # congruent residues name one class, so no exponent piles up
    once = ProductSpec.from_residues(5, [1])
    assert ProductSpec.from_residues(5, [1, 6]) == once
    assert ProductSpec.from_residues(5, [1, 1, -4, 11]) == once
    assert ProductSpec.from_residues(5, [4, -1]).residue_exponents == ((4, 1),)


def test_from_residues_checks_the_modulus_first():
    for modulus in (0, -5):
        with pytest.raises(PreconditionViolated):
            ProductSpec.from_residues(modulus, [1])


def test_product_spec_accepts_dict_or_pairs():
    a = ProductSpec(6, {0: 2, 5: 1, 1: 1})
    b = ProductSpec(6, ((0, 2), (1, 1), (5, 1)))
    assert a == b
    assert a.exponent(12) == 2
    assert a.residue_exponents == ((0, 2), (1, 1), (5, 1))


def test_repeated_classes_pile_up():
    # exponent 2 on a class squares that class's factors
    doubled = product_series(ProductSpec(3, {1: 2}), 18)
    assert doubled == _list_product([2 if m % 3 == 1 else 0
                                     for m in range(1, 19)], 18)


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


def test_product_from_exponents_reads_any_iterable():
    want = product_from_exponents([1, 0, 2], 6)
    assert product_from_exponents(iter([1, 0, 2]), 6) == want
    assert product_from_exponents((c for c in [1, 0, 2, 5, 5]), 3) == (
        product_from_exponents([1, 0, 2], 3))


def test_exponents_read_the_residue_table():
    spec = ProductSpec(7, {0: 2, 3: 1, 5: 3})
    assert spec.exponents(30) == [spec.exponent(m) for m in range(1, 31)]
    assert spec.exponents(0) == []


def test_product_from_exponents_handles_negatives():
    # (1-q)^1 directly
    f = product_from_exponents([-1], 5)
    assert f.coeffs == (1, -1, 0, 0, 0, 0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(-4, 4), max_size=70), st.integers(0, 60))
def test_packed_product_equals_the_list_expansion(exponents, order):
    assert product_from_exponents(exponents, order) == _list_product(exponents, order)


def test_packed_product_equals_the_list_expansion_on_the_registry():
    # every registry product at 200, the deep benchmark's five at 600, and
    # (q;q)**-4, whose fields come nearest the width bound
    # b = E*bits(p(order)) + (E-1)*bitlen(order+1): every exponent is E
    cases = [(get_identity(name).product, 200) for name in registered_names()]
    cases += [(get_identity(name).product, 600) for name in
              ("FAM1_1_K3", "FAM1_2_K3", "FAM1_3_K3", "FAM6_K2", "FAM7_K2")]
    cases.append((ProductSpec(1, {0: 4}), 200))
    for spec, order in cases:
        exponents = [spec.exponent(m) for m in range(1, order + 1)]
        assert product_series(spec, order) == _list_product(exponents, order), spec


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 80))
def test_packed_division_equals_the_list_division(data, order):
    # m = order + 1 steps past the order and leaves the series as it is
    m = data.draw(st.integers(1, order + 1))
    coeffs = data.draw(st.lists(st.integers(0, 50), min_size=order + 1,
                                max_size=order + 1))
    # every quotient coefficient sums at most order + 1 of them: no carry
    b = (50 * (order + 1)).bit_length()
    packed = sum(c << (order - n) * b for n, c in enumerate(coeffs))
    assert list(unpack(packed, b, order)) == coeffs
    quotient = packed_div_one_minus_qm(packed, m * b, order * b)
    div_one_minus_qm(coeffs, m)
    # high-first: coefficient n in bits [(order-n)*b, (order-n+1)*b)
    assert [quotient >> (order - n) * b & (1 << b) - 1
            for n in range(order + 1)] == coeffs
    assert quotient.bit_length() <= (order + 1) * b


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 40), st.integers(1, 9))
def test_first_split_reads_the_least_differing_field(data, order, b):
    # the two series often share a prefix, and any field may be 0 or full
    field = st.integers(0, (1 << b) - 1)
    x = data.draw(st.lists(field, min_size=order + 1, max_size=order + 1))
    cut = data.draw(st.integers(0, order + 1))
    y = x[:cut] + data.draw(st.lists(field, min_size=order + 1 - cut,
                                     max_size=order + 1 - cut))

    def pack(coeffs):
        return sum(c << (order - n) * b for n, c in enumerate(coeffs))

    assert first_split(pack(x), pack(y), b, order) == first_mismatch(
        IntSeries(x), IntSeries(y))


def test_field_bits_are_the_bit_length_of_p():
    # p(n) by coin change, independent of the pentagonal recurrence
    p = [1] + [0] * 600
    for m in range(1, 601):
        for n in range(m, 601):
            p[n] += p[n - m]
    assert [partition_bits(n) for n in range(601)] == [c.bit_length() for c in p]


def test_save_and_load(tmp_path):
    # saved by hand: one integer per line, q^0 first; blank lines are skipped
    path = tmp_path / "series.txt"
    path.write_text("1\n0\n\n2\n-1\n5\n")
    assert load_series(path) == IntSeries((1, 0, 2, -1, 5))


def test_load_series_names_a_bad_line(tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("1\n1\nx\n2\n")
    with pytest.raises(PreconditionViolated, match="line 3: not an integer: 'x'"):
        load_series(path)


@pytest.mark.parametrize("make", [
    lambda: ProductSpec(5, {}), lambda: ProductSpec(5, {1: 0}),
    lambda: ProductSpec.from_residues(5, [])],
    ids=["no-classes", "zero-class", "no-residues"])
def test_the_empty_product_is_a_product_spec(make):
    # no nonzero class is the empty product 1, which allows no part
    spec = make()
    assert spec == ProductSpec(5, ()) and spec.residue_exponents == ()
    assert spec.exponents(12) == [0] * 12
    assert not any(spec.allows_part(p) for p in range(1, 30))
    assert product_series(spec, 8) == one(8)
    assert product_series(spec, 0) == one(0)
    packed, b = packed_product(spec.exponents(8), 8)
    assert b == partition_bits(8) and packed == 1 << 8 * b
    assert unpack(packed, b, 8) == one(8)
