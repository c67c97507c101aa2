"""Bad library input fails with a FlatpartError that is also a ValueError."""

import pytest

from flatpart.conditions import (ConditionSet, FlatRule, parse_condition_set,
                                 parse_rule)
from flatpart.counting import sum_series_brute, sum_series_dp
from flatpart.errors import FlatpartError, PreconditionViolated
from flatpart.euler import detect_period, euler_exponents
from flatpart.overpartitions import Overpartition
from flatpart.partitions import as_partition, kth_flattest, parse_partition
from flatpart.search import SearchBounds
from flatpart.series import (IntSeries, ProductSpec, geom, monomial, one,
                             packed_div_one_minus_qm, partition_bits,
                             product_from_exponents, product_series, zero)


def test_bad_input_raises_a_flatpart_error():
    calls = (lambda: ProductSpec(5, {1: -1}),
             lambda: as_partition((1, 2)),
             lambda: Overpartition((1, 3), frozenset()),
             lambda: parse_partition("1,2"),
             lambda: parse_partition("5,x"),
             lambda: kth_flattest(0, 2, 4),
             lambda: FlatRule(0, 2, 0, 1),
             lambda: parse_rule("1:2"),
             lambda: parse_rule("1:2:x:2"),
             lambda: SearchBounds(max_rules=0, a_range=(1, 1),
                                  b_range=(2, 2), d_range=(2, 2)),
             lambda: SearchBounds.from_json(
                 '{"max_rules": 1, "a_range": 3, "b_range": [2, 2], '
                 '"d_range": [2, 2]}'),
             lambda: SearchBounds(max_rules=1, a_range=[1.7, 2.9],
                                  b_range=(2, 2), d_range=(2, 2)),
             lambda: SearchBounds(max_rules=1, a_range=(1, 1),
                                  b_range="22", d_range=(2, 2)))
    for call in calls:
        with pytest.raises(FlatpartError) as exc:
            call()
        assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("call", [
    lambda: sum_series_dp(parse_condition_set("1:2:1:2"), -1),
    lambda: sum_series_brute(parse_condition_set("1:2:1:2"), -1),
    lambda: product_series(ProductSpec(5, {1: 1}), -1),
    lambda: one(-1),
], ids=["sum_series_dp", "sum_series_brute", "product_series", "one"])
def test_negative_order_is_refused(call):
    with pytest.raises(PreconditionViolated,
                       match=r"a series needs at least the q\^0 coefficient"):
        call()


@pytest.mark.parametrize("call", [
    lambda: sum_series_dp(parse_condition_set("1:2:1:2"), 2.5),
    lambda: sum_series_dp(parse_condition_set("1:2:1:2"), 6, largest_part=2.5),
    # unhashable arguments are checked before the cache reads them
    lambda: sum_series_dp(parse_condition_set("1:2:1:2"), [6]),
    lambda: sum_series_dp(parse_condition_set("1:2:1:2"), 6, largest_part=[2]),
    lambda: sum_series_brute(parse_condition_set("1:2:1:2"), "3"),
    lambda: product_series(ProductSpec(5, {1: 1}), 4.0),
    lambda: partition_bits(2.5),
], ids=["dp_order", "dp_largest_part", "dp_order_list", "dp_largest_part_list",
        "brute_order", "product_order", "partition_bits"])
def test_non_integer_order_or_bound_is_refused(call):
    with pytest.raises(PreconditionViolated, match="must be an int"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ProductSpec(3, {1: 1.5}),
    lambda: ProductSpec("3", {1: 1}),
    lambda: ProductSpec(3, {"1": 1}),
    lambda: product_from_exponents([1.5], 5),
    lambda: product_from_exponents(["1"], 5),
    lambda: ConditionSet((), 0, 1.5),
    lambda: ConditionSet(parse_condition_set("1:2:1:2").rules, 1.5),
    lambda: ConditionSet(("1:2:1:2",)),
    lambda: FlatRule("1", 2, 0, 2),
    lambda: FlatRule(1, 2, 0.0, 2),
    lambda: geom(2, 5.5),
    lambda: geom(2.0, 5),
    lambda: monomial(2.5, 4),
    lambda: monomial(1, 4.0),
    lambda: one(4).shift(1.5),
    lambda: one(4).truncate("2"),
    lambda: zero(2.5),
    lambda: zero("3"),
    # coefficients are refused, never rounded
    lambda: IntSeries([1.7, 2]),
    lambda: IntSeries([1, "2"]),
    # a bool bound is refused, not read as 1
    lambda: detect_period(euler_exponents(one(30)), 2.5),
    lambda: detect_period(euler_exponents(one(30)), "3"),
    lambda: detect_period(euler_exponents(one(30)), True),
    lambda: detect_period(euler_exponents(one(30)), 3, 1.5),
    lambda: detect_period(euler_exponents(one(30)), 3, True),
], ids=["spec_exponent", "spec_modulus", "spec_residue", "exponent_float",
        "exponent_str", "set_min_part", "set_zeros", "set_rule_text",
        "rule_index", "rule_residue", "geom_order", "geom_m", "monomial_k",
        "monomial_order", "shift", "truncate", "zero_float", "zero_str",
        "coeff_float", "coeff_str", "period_d_max_float", "period_d_max_str",
        "period_d_max_bool", "period_e_max_float", "period_e_max_bool"])
def test_non_integer_field_is_refused(call):
    with pytest.raises(PreconditionViolated):
        call()


@pytest.mark.parametrize("k", [-1, -5])
def test_negative_monomial_exponent_is_refused(k):
    # a negative k would index the coefficient list from its end
    with pytest.raises(PreconditionViolated, match="k must be an int >= 0"):
        monomial(k, 4)


@pytest.mark.parametrize("call", [
    lambda: sum_series_dp(parse_condition_set("1:2:1:2"), 5, largest_part=-3),
    lambda: partition_bits(-1),
    # a zero step never doubles; with an empty mask an unchecked loop
    # returns at once rather than spinning
    lambda: packed_div_one_minus_qm(1, 0, 0),
    lambda: packed_div_one_minus_qm(1, -3, (1 << 30) - 1),
], ids=["dp_largest_part", "partition_bits", "div_zero_step", "div_negative_step"])
def test_negative_bound_or_step_is_refused(call):
    with pytest.raises(PreconditionViolated):
        call()
