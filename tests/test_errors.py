"""Bad library input fails with a FlatpartError that is also a ValueError."""

import pytest

from flatpart.conditions import FlatRule, parse_condition_set, parse_rule
from flatpart.counting import sum_series_brute, sum_series_dp
from flatpart.errors import FlatpartError, PreconditionViolated
from flatpart.overpartitions import Overpartition
from flatpart.partitions import as_partition, kth_flattest, parse_partition
from flatpart.search import SearchBounds
from flatpart.series import ProductSpec, one, product_series


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
