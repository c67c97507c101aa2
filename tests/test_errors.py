"""Bad library input fails with a FlatpartError that is also a ValueError."""

from dataclasses import replace
from functools import partial

import pytest

from flatpart.bijections import (alternating_sum_type, family_maps,
                                 length_type, stockhofe_inverse, stockhofe_map,
                                 verify_bijection)
from flatpart.conditions import (ConditionSet, FlatRule, condition_set,
                                 matches_at, matching_windows,
                                 parse_condition_set, parse_rule, satisfies)
from flatpart.counting import (count_by_predicate, packed_sum_series,
                               sum_series_brute, sum_series_dp)
from flatpart.errors import FlatpartError, PreconditionViolated
from flatpart.euler import (EulerFactorization, PeriodicVerdict,
                            detect_period, euler_exponents, exponent_stream)
from flatpart.families import (Statement, family_row, get_identity, get_refuted,
                               normalize_name)
from flatpart.overpartitions import (BiSeries, Overpartition, count_A,
                                     product_biseries, r_enumeration, r_series,
                                     specialize)
from flatpart.partitions import (as_partition, conjugate, flat_patterns,
                                 frequency_profile, kth_flattest,
                                 parse_partition, partitions_of,
                                 render_partition)
from flatpart.recursions import recursion_values, verify_recursion
from flatpart.search import (CandidateReport, SearchBounds,
                             enumerate_condition_sets, screen_condition_set,
                             search, verify_candidate)
from flatpart.series import (IntSeries, ProductSpec, div_one_minus_qm,
                             first_mismatch, load_series, mul_one_minus_qm,
                             one, packed_div_one_minus_qm, packed_product,
                             partition_bits, product_from_exponents,
                             product_series)
from flatpart.verify import verify_identity


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
    # an unhashable argument is checked before the cache reads it
    lambda: sum_series_dp(parse_condition_set("1:2:1:2"), [6]),
    lambda: sum_series_brute(parse_condition_set("1:2:1:2"), "3"),
    lambda: product_series(ProductSpec(5, {1: 1}), 4.0),
    lambda: partition_bits(2.5),
], ids=["dp_order", "dp_order_list", "brute_order", "product_order",
        "partition_bits"])
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
        "rule_index", "rule_residue", "coeff_float", "coeff_str", "period_d_max_float", "period_d_max_str",
        "period_d_max_bool", "period_e_max_float", "period_e_max_bool"])
def test_non_integer_field_is_refused(call):
    with pytest.raises(PreconditionViolated):
        call()


@pytest.mark.parametrize("call", [
    # a recursion check below the first level would check nothing
    lambda: verify_recursion("FAM2_K1", 0, 20),
    lambda: verify_recursion("FAM8_MOD9_S37", 0, 20),
    lambda: partition_bits(-1),
    # a zero step never grows, so an unchecked loop would spin even
    # with a zero top
    lambda: packed_div_one_minus_qm(1, 0, 0),
    lambda: packed_div_one_minus_qm(1, -3, (1 << 30) - 1),
    # a negative table size would return rows with no coefficients
    lambda: r_enumeration(2, 3, -1, 1),
    lambda: r_enumeration(2, -1, 3, 1),
    lambda: BiSeries([], -1, 2),
    lambda: BiSeries([], 2, -1),
    # m = 0 would zero the list or double it; m < 0 would index it from
    # its end
    lambda: mul_one_minus_qm([1, 2, 3], 0),
    lambda: div_one_minus_qm([1, 2, 3], 0),
    lambda: mul_one_minus_qm([1, 2, 3], -1),
    lambda: div_one_minus_qm([1, 2, 3], -1),
    lambda: BiSeries.one(3, 1).divide_one_minus_qm(0),
    # a negative power would put a*q^e at q^0
    lambda: BiSeries.one(3, 1).times_a_power(-2),
], ids=["recursion_below_first_level", "recursion_below_first_level_mod9",
        "partition_bits", "div_zero_step", "div_negative_step",
        "r_enumeration_n_max", "r_enumeration_j", "BiSeries_n_max",
        "BiSeries_m_max", "mul_zero_m", "div_zero_m", "mul_negative_m",
        "div_negative_m", "BiSeries_divide_zero_m", "times_a_power_negative"])
def test_negative_bound_or_step_is_refused(call):
    with pytest.raises(PreconditionViolated):
        call()


def _kth_flattest_on_a_miss(k):
    # a cold cache; the cache keys True as 1, so the warm case is its own
    kth_flattest.cache_clear()
    return kth_flattest(k, 2, 3)


# RR1's sum side screened to 25, with the verdict that names its product
RR1_REPORT = CandidateReport(
    get_identity("RR1").flat,
    PeriodicVerdict(True, 5, ((0, 0), (1, 1), (2, 0), (3, 0), (4, 1))),
    verified_to=25)

BOX = dict(max_rules=1, a_range=(1, 1), b_range=(2, 2), d_range=(2, 2))

# one call per integer argument, taking the value to pass
INTEGER_ARGUMENTS = {
    "order": lambda v: one(v),
    "mul_one_minus_qm": lambda v: mul_one_minus_qm([1, 2, 3], v),
    "div_one_minus_qm": lambda v: div_one_minus_qm([1, 2, 3], v),
    "spec_modulus": lambda v: ProductSpec(v, {0: 1}),
    "spec_exponent": lambda v: ProductSpec(3, {1: v}),
    "exponents": lambda v: product_from_exponents([v], 5),
    "period_d_max": lambda v: detect_period(euler_exponents(one(30)), v),
    "period_e_max": lambda v: detect_period(euler_exponents(one(30)), 3, v),
    "dp_order": lambda v: sum_series_dp(parse_condition_set("1:2:1:2"), v),
    "rule_index": lambda v: FlatRule(v, 2, 0, 1),
    "rule_residue": lambda v: FlatRule(1, 2, v, 2),
    "set_zeros": lambda v: ConditionSet((), v),
    "set_min_part": lambda v: ConditionSet((), 0, v),
    "bounds_d_max": lambda v: SearchBounds(**BOX, d_max=v),
    "stockhofe_map": lambda v: stockhofe_map(v, (1,)),
    "stockhofe_inverse": lambda v: stockhofe_inverse(v, (1,)),
    "length_type": lambda v: length_type((1,), v),
    "alternating_sum_type": lambda v: alternating_sum_type((1,), v),
    "family_row": lambda v: family_row("FAM2", v),
    "recursion_j_max": lambda v: verify_recursion("FAM3_K1", v, 20),
    "bijection_n_max": lambda v: verify_bijection("FAM2", 1, v),
    "count_A": lambda v: count_A(v, 5, 2),
    "biseries_n_max": lambda v: product_biseries(3, v, 2),
    "BiSeries_n_max": lambda v: BiSeries([[1, 2]], v, 1),
    "BiSeries_m_max": lambda v: BiSeries([[1, 2]], 2, v),
    "times_a_power": lambda v: BiSeries.one(3, 1).times_a_power(v),
    "coeff_m": lambda v: BiSeries.one(3, 1).coeff(v, 1),
    "coeff_n": lambda v: BiSeries.one(3, 1).coeff(0, v),
    "overpartition_k": lambda v: Overpartition((3,), {3}).satisfies(v),
    "r_series_m_max": lambda v: r_series(3, 4, 4, v),
    "r_enumeration_k": lambda v: r_enumeration(v, 3, 3, 1),
    "r_enumeration_j": lambda v: r_enumeration(2, v, 3, 1),
    "r_enumeration_n_max": lambda v: r_enumeration(2, 3, v, 1),
    "specialize_s": lambda v: specialize(2, v, 2, 10),
    "specialize_t": lambda v: specialize(2, 1, v, 10),
    "kth_flattest": _kth_flattest_on_a_miss,
    "partitions_of": lambda v: partitions_of(v),
    "flat_patterns": lambda v: flat_patterns(2, v),
    # the odd mod-9 recursions start from a literal series, not from one()
    "recursion_order": lambda v: recursion_values("FAM8_MOD9_S37", 5, v),
}


@pytest.mark.parametrize("call", [
    pytest.param(partial(call, value), id="%s-%s" % (name, kind))
    for name, call in INTEGER_ARGUMENTS.items()
    for kind, value in (("bool", True), ("float", 2.5), ("str", "3"))
] + [
    # unsorted input is refused, never read as some other partition
    pytest.param(lambda: conjugate((1, 3)), id="conjugate-unsorted"),
    pytest.param(lambda: frequency_profile((1, 3)), id="frequency_profile-unsorted"),
    # True finds the equal int key 1 in the cache unless checked first
    pytest.param(lambda: (kth_flattest(1, 2, 3), kth_flattest(True, 2, 3)),
                 id="kth_flattest-bool-cached"),
    pytest.param(lambda: as_partition((2, True)), id="as_partition-bool-part"),
    pytest.param(lambda: Overpartition((3,), 5), id="Overpartition-int-overlined"),
    # a condition set is refused unless it is a ConditionSet, before any cache
    pytest.param(lambda: sum_series_brute("1:2:1:2", 5), id="brute-set-text"),
    pytest.param(lambda: sum_series_brute(None, 5), id="brute-set-none"),
    pytest.param(lambda: sum_series_dp("1:2:1:2", 5), id="dp-set-text"),
    # the parsers read text only
    pytest.param(lambda: parse_rule(5), id="parse_rule-int"),
    pytest.param(lambda: parse_condition_set(5), id="parse_condition_set-int"),
    pytest.param(lambda: parse_partition(5), id="parse_partition-int"),
    # rules come as an iterable of rules, each tuple with four or five fields
    pytest.param(lambda: condition_set([(1, 2)]), id="condition_set-short-tuple"),
    pytest.param(lambda: condition_set(5), id="condition_set-int"),
    pytest.param(lambda: ConditionSet(None), id="ConditionSet-none"),
    # registry names are strings
    pytest.param(lambda: get_identity(5), id="get_identity-int"),
    pytest.param(lambda: get_refuted(3), id="get_refuted-int"),
    pytest.param(lambda: family_row(5, 1), id="family_row-int"),
    pytest.param(lambda: verify_identity(None), id="verify_identity-none"),
    pytest.param(lambda: verify_recursion(7, 10, 20), id="verify_recursion-int"),
    pytest.param(lambda: verify_bijection(2, 1, 5), id="verify_bijection-int"),
    # residue classes come as an iterable of (residue, exponent) pairs
    pytest.param(lambda: ProductSpec(5, 3), id="ProductSpec-int"),
    pytest.param(lambda: ProductSpec(5, [(1,)]), id="ProductSpec-short-pair"),
    pytest.param(lambda: ProductSpec(5, [1, 4]), id="ProductSpec-bare-residues"),
    pytest.param(lambda: ProductSpec.from_residues(5, 3), id="from_residues-int"),
    pytest.param(lambda: ProductSpec.from_residues(5, [[1]]),
                 id="from_residues-list-residue"),
    pytest.param(lambda: product_from_exponents(5, 3),
                 id="product_from_exponents-int"),
    # a statement pairs a ConditionSet with a ProductSpec
    pytest.param(lambda: Statement(get_identity("RR1").flat, 5),
                 id="Statement-int-product"),
    pytest.param(lambda: Statement(get_identity("RR1").flat, {1: 1}),
                 id="Statement-dict-product"),
    pytest.param(lambda: Statement("1:2:0:1", get_identity("RR1").product),
                 id="Statement-text-flat"),
    pytest.param(lambda: Statement(None, None), id="Statement-none-flat"),
    # exponents come as a factorization or an iterable
    pytest.param(lambda: detect_period(5, 1), id="detect_period-int"),
    # the verify order is an order, checked before the larger one is taken
    pytest.param(lambda: verify_candidate(RR1_REPORT, "300"),
                 id="verify_candidate-str"),
    pytest.param(lambda: verify_candidate(RR1_REPORT, None),
                 id="verify_candidate-none"),
    pytest.param(lambda: verify_candidate(RR1_REPORT, 2.5),
                 id="verify_candidate-float"),
    pytest.param(lambda: verify_candidate(RR1_REPORT, True),
                 id="verify_candidate-bool"),
    # a bool coefficient is refused, never read as 0 or 1
    pytest.param(lambda: IntSeries([True, 2]), id="IntSeries-bool"),
    pytest.param(lambda: euler_exponents(IntSeries([True, 1, 1])),
                 id="euler_exponents-bool"),
    # an object of the wrong kind is refused, never met by a bare Python
    # error; an int is no file name, since open() reads it as a descriptor
    pytest.param(lambda: IntSeries(5), id="IntSeries-int"),
    pytest.param(lambda: first_mismatch(5, 6), id="first_mismatch-int"),
    pytest.param(lambda: first_mismatch(one(3), (1, 0)),
                 id="first_mismatch-tuple"),
    pytest.param(lambda: search(5), id="search-int"),
    pytest.param(lambda: verify_candidate(5), id="verify_candidate-int"),
    pytest.param(lambda: satisfies(5, (1,)), id="satisfies-int-set"),
    pytest.param(lambda: satisfies(parse_condition_set("1:2:1:2"), "ab"),
                 id="satisfies-str-parts"),
    pytest.param(lambda: matches_at(5, (1,)), id="matches_at-int-rule"),
    pytest.param(lambda: matches_at(parse_rule("1:2:1:2"), 5),
                 id="matches_at-int-window"),
    # a report's fields are checked when it is made, and again by replace()
    pytest.param(lambda: verify_candidate(CandidateReport(5, 6)),
                 id="CandidateReport-int-fields"),
    pytest.param(lambda: CandidateReport(RR1_REPORT.condition_set, None),
                 id="CandidateReport-none-verdict"),
    pytest.param(lambda: replace(RR1_REPORT, status=5),
                 id="CandidateReport-int-status"),
    pytest.param(lambda: replace(RR1_REPORT, verified_to=-1),
                 id="CandidateReport-negative-verified_to"),
    pytest.param(lambda: replace(RR1_REPORT, failed_at=2.5),
                 id="CandidateReport-float-failed_at"),
    # a negative exponent is refused, never dropped as if it were 0
    pytest.param(lambda: packed_product([-1], 3), id="packed_product-negative"),
    pytest.param(lambda: packed_product([1.5], 3), id="packed_product-float"),
    pytest.param(lambda: count_by_predicate(5, 5), id="count_by_predicate-int"),
    pytest.param(lambda: load_series(5), id="load_series-descriptor"),
    pytest.param(lambda: load_series(0), id="load_series-stdin"),
    pytest.param(lambda: ProductSpec(5, {1: 1}).allows_part("x"),
                 id="allows_part-str"),
    pytest.param(lambda: product_series(None, 10), id="product_series-none"),
    pytest.param(lambda: product_series(5, 10), id="product_series-int"),
    pytest.param(lambda: detect_period(5, 1, order=3),
                 id="detect_period-int-with-order"),
    pytest.param(lambda: detect_period([1.0, 1.0, 1.0], 1),
                 id="detect_period-float-exponents"),
    pytest.param(lambda: detect_period(iter([1.5] * 3), 1, order=3),
                 id="detect_period-float-stream"),
    # a table's rows and their entries are checked, never kept as given
    pytest.param(lambda: BiSeries(5, 2, 1), id="BiSeries-int-rows"),
    pytest.param(lambda: BiSeries([[1, 2.5, True]], 2, 1),
                 id="BiSeries-float-and-bool-entries"),
    pytest.param(lambda: BiSeries(["ab"], 2, 1), id="BiSeries-str-row"),
    # a str is iterable, but its characters are no window entries
    pytest.param(lambda: matches_at(parse_rule("1:2:1:2"), "12"),
                 id="matches_at-str-window"),
    # a mapping iterates its keys, which are no coefficients or parts
    pytest.param(lambda: IntSeries({0: 1, 1: 5}), id="IntSeries-dict"),
    pytest.param(lambda: as_partition({3: 1}), id="as_partition-dict"),
    # a partition is printed only once as_partition has checked it
    pytest.param(lambda: render_partition(5), id="render_partition-int"),
    pytest.param(lambda: render_partition("ab"), id="render_partition-str"),
    pytest.param(lambda: render_partition((1, 3)), id="render_partition-unsorted"),
    # bounds come as JSON text, not as the object it would decode to
    pytest.param(lambda: SearchBounds.from_json(
        {"max_rules": 1, "a_range": [1, 1], "b_range": [2, 2], "d_range": [2, 2]}),
        id="from_json-dict"),
    pytest.param(lambda: parse_rule("1:2:1:2").implies("1:2:3:4"),
                 id="implies-text"),
    pytest.param(lambda: screen_condition_set(parse_condition_set("1:2:0:1"),
                                              30, 10, 4, []),
                 id="screen_condition_set-list-verdicts"),
])
def test_integer_arguments_and_partitions_are_checked(call):
    with pytest.raises(PreconditionViolated):
        call()


@pytest.mark.parametrize("exponents", [
    EulerFactorization((1, 1, 1)), (1, 1, 1), [1, 1, 1], iter([1, 1, 1])],
    ids=["factorization", "tuple", "list", "iterator"])
def test_detect_period_reads_any_iterable_of_exponents(exponents):
    # with no order, all the exponents given are read
    assert detect_period(exponents, 1) == PeriodicVerdict(True, 1, ((0, 1),))


def test_a_biseries_adds_only_a_biseries():
    with pytest.raises(TypeError):
        BiSeries.one(3, 1) + 5
    with pytest.raises(PreconditionViolated, match="mismatched truncations"):
        BiSeries.one(3, 1) + BiSeries.one(4, 1)


# one wrongly typed call per require_type check: (call, the argument the
# message names, the type name it reports)
RR1 = get_identity("RR1")
TYPE_ARGUMENTS = {
    "parse_rule": (lambda: parse_rule(5), "rule text", "int"),
    "parse_condition_set": (lambda: parse_condition_set(5),
                            "condition set text", "int"),
    "matches_at": (lambda: matches_at(5, (1,)), "rule", "int"),
    "matching_windows": (lambda: matching_windows("1:2:1:2", 5), "rule", "str"),
    "ConditionSet": (lambda: ConditionSet(("1:2:1:2",)), "a rule", "str"),
    "satisfies": (lambda: satisfies(5, (1,)), "cs", "int"),
    "sum_series_brute": (lambda: sum_series_brute("1:2:1:2", 5), "cs", "str"),
    "packed_sum_series": (lambda: packed_sum_series(None, 5), "cs", "NoneType"),
    "exponent_stream": (lambda: exponent_stream([1, 2, 3]), "series", "list"),
    "Statement-flat": (lambda: Statement("1:2:0:1", RR1.product), "flat", "str"),
    # the empty product is ProductSpec(1, ()), never None
    "Statement-product": (lambda: Statement(RR1.flat, None), "product", "NoneType"),
    "normalize_name": (lambda: normalize_name(5), "name", "int"),
    "parse_partition": (lambda: parse_partition(5), "partition text", "int"),
    "enumerate_condition_sets": (lambda: enumerate_condition_sets(BOX), "bounds",
                                 "dict"),
    "CandidateReport": (lambda: CandidateReport(RR1.flat, None), "verdict",
                        "NoneType"),
    "verify_candidate": (lambda: verify_candidate(5), "report", "int"),
    "first_mismatch": (lambda: first_mismatch(one(3), (1, 0)), "b", "tuple"),
    "product_series": (lambda: product_series({1: 1}, 10), "spec", "dict"),
    "load_series": (lambda: load_series(5), "path", "int"),
    "wrapper_map": (lambda: family_maps("FAM2", 1)[0]((3,), trace=[]), "trace",
                    "list"),
    # (1, 1, 1) is the forward image of (3,)
    "wrapper_inverse": (lambda: family_maps("FAM2", 1)[1]((1, 1, 1), trace=[]),
                        "trace", "list"),
    "search": (lambda: search(SearchBounds(**BOX), nontrivial="no"), "nontrivial",
               "str"),
}


@pytest.mark.parametrize("call, name, given", TYPE_ARGUMENTS.values(),
                         ids=TYPE_ARGUMENTS.keys())
def test_a_wrongly_typed_argument_is_refused_by_name(call, name, given):
    with pytest.raises(PreconditionViolated) as exc:
        call()
    message = str(exc.value)
    assert message.startswith(name + " must be "), message
    assert ", got %s " % given in message, message
