"""Bad library input fails with a FlatpartError that is also a ValueError."""

import pytest

from flatpart.conditions import FlatRule, parse_rule
from flatpart.errors import FlatpartError
from flatpart.partitions import Partition, kth_flattest, parse_partition
from flatpart.search import SearchBounds
from flatpart.series import ProductSpec


def test_bad_input_raises_a_flatpart_error():
    calls = (lambda: ProductSpec(5, {1: -1}),
             lambda: Partition((1, 2)),
             lambda: parse_partition("1,2"),
             lambda: kth_flattest(0, 2, 4),
             lambda: FlatRule(0, 2, 0, 1),
             lambda: parse_rule("1:2"),
             lambda: SearchBounds(max_rules=0, a_range=(1, 1),
                                  b_range=(2, 2), d_range=(2, 2)))
    for call in calls:
        with pytest.raises(FlatpartError) as exc:
            call()
        assert isinstance(exc.value, ValueError)
