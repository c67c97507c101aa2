"""Registered coefficient recursions for the counting sequences."""

import hashlib

import pytest

from flatpart import recursions
from flatpart.automaton import automaton_rows
from flatpart.errors import PreconditionViolated, UnknownRecursion
from flatpart.recursions import (RecursionReport, recursion_names,
                                 recursion_values, verify_recursion)
from flatpart.series import one

EXPECTED = {
    "FAM1_1_K2", "FAM1_2_K2", "FAM1_3_K2", "FAM3_K1", "FAM2_K1",
    "FAM8_MOD9_S04", "FAM8_MOD9_S05", "FAM8_MOD9_S37", "FAM8_MOD9_S38",
}


def test_recursion_catalog():
    assert set(recursion_names()) == EXPECTED


def test_every_recursion_verifies_to_order_sixty():
    for name in recursion_names():
        report = verify_recursion(name, j_max=20, order=60)
        assert isinstance(report, RecursionReport)
        assert report.passed, (name, report.first_mismatch)
        assert report.bases_ok
        assert report.levels[0] <= report.levels[-1]


@pytest.mark.parametrize("order", [0, 1, 2, 150])
def test_every_level_has_the_asked_order(order):
    for name in recursion_names():
        orders = {j: p.order for j, p in recursion_values(name, 20, order).items()}
        assert set(orders.values()) == {order}, (name, orders)


def test_replayed_values_are_pinned():
    # every level of all nine replays, to j = 40 at five orders, hashed
    digest = hashlib.sha256()
    for name in recursion_names():
        for order in (0, 1, 2, 30, 150):
            values = recursion_values(name, 40, order)
            digest.update(repr(sorted((j, p.coeffs) for j, p in values.items()))
                          .encode())
    assert digest.hexdigest() == (
        "38fa97792d1ff19a5246a8856e2e7fc15bbb1b5948503d841f46b5a878084f71")


def test_no_level_above_j_max():
    # the builders seed P_0 or P_1 whatever j_max is
    assert recursion_values("FAM2_K1", 0, 10) == {}
    assert recursion_values("FAM8_MOD9_S37", 0, 10) == {}
    # a recursion check needs a level to check
    with pytest.raises(PreconditionViolated, match="j_max must be an int >= 1"):
        verify_recursion("FAM2_K1", 0, 10)
    for name in recursion_names():
        for j_max in range(6):
            levels = recursion_values(name, j_max, 10)
            assert max(levels, default=0) <= j_max, (name, j_max, sorted(levels))
    with pytest.raises(PreconditionViolated, match="j_max must be an int >= 0"):
        recursion_values("FAM3_K1", -1, 10)


def test_recursion_checks_leave_the_walk_cache_alone():
    # the push reads the automaton cache only; no level walks
    automaton_rows.cache_clear()
    for name in recursion_names():
        assert verify_recursion(name, j_max=30, order=150).passed, name
    info = automaton_rows.cache_info()
    assert (info.misses, info.currsize) == (0, 0)


def test_alias_resolution():
    direct = verify_recursion("FAM3_K1", j_max=10, order=40)
    via_alias = verify_recursion("NOT3MOD4", j_max=10, order=40)
    assert direct.passed and via_alias.passed
    assert direct.name == via_alias.name == "FAM3_K1"


def test_unknown_recursion_raises():
    with pytest.raises(UnknownRecursion):
        verify_recursion("RR1", j_max=5, order=20)


@pytest.mark.parametrize("name", ["FAM8_MOD9_S37", "FAM8_MOD9_S38"])
def test_a_wrong_start_fails_the_printed_base(monkeypatch, name):
    # the printed P_1 is stated apart from the series the recursion
    # starts from, so a wrong start cannot agree with it
    row = recursions._RECURSIONS[name]
    monkeypatch.setitem(recursions._RECURSIONS, name, row._replace(start=one))
    assert not verify_recursion(name, j_max=10, order=30).bases_ok
