"""Restricted overpartitions in two variables, their product form, and the
finitization that converges to it."""

import pytest

from flatpart import overpartitions
from flatpart.errors import InvalidSpecialization, PreconditionViolated
from flatpart.overpartitions import (BiSeries, Overpartition, count_A,
                                     overpartitions_of, product_biseries,
                                     r_enumeration, r_series, specialize)
from flatpart.families import cor_product, get_identity
from flatpart.partitions import partitions_of
from flatpart.series import product_series


def test_overpartition_normalization_and_text():
    o = Overpartition((3, 2, 1), frozenset({3, 1}))
    assert o.weight == 6
    assert str(o) == "3~+2+1~"
    with pytest.raises(PreconditionViolated):
        Overpartition((1, 3, 2), frozenset())     # checked, never sorted
    with pytest.raises(PreconditionViolated):
        Overpartition((3, 0), frozenset())
    with pytest.raises(PreconditionViolated):
        Overpartition((3, 2), frozenset({5}))


def test_enumeration_counts_eight_of_weight_three():
    # each part size can carry at most one overline
    assert len(list(overpartitions_of(3))) == 8
    assert len(list(overpartitions_of(0))) == 1


def test_unrestricted_row_counts_plain_partitions():
    # with no overlines the window conditions never fire
    b = count_A(2, 12, 2)
    for n in range(13):
        assert b.coeff(0, n) == len(partitions_of(n))


def test_single_overline_row_small_values():
    b = count_A(2, 8, 1)
    assert [b.coeff(1, n) for n in range(9)] == [0, 1, 1, 3, 4, 8, 11, 19, 26]


def test_overline_conditions_enforced():
    # overlined 2 forbids plain 2s and an overlined 3 (k = 2)
    assert Overpartition((4, 2), frozenset({2})).satisfies(2)
    assert not Overpartition((2, 2), frozenset({2})).satisfies(2)
    assert not Overpartition((3, 2), frozenset({3, 2})).satisfies(2)
    assert Overpartition((4, 2), frozenset({4, 2})).satisfies(2)


def test_product_form_matches_enumeration():
    for k in (2, 3, 4):
        assert count_A(k, 18, 5) == product_biseries(k, 18, 5)


def test_finite_r_matches_its_enumeration():
    for k in (2, 3):
        for j in (3, 5, 8):
            rec = r_series(k, j, 14, 4)[j]
            assert rec == r_enumeration(k, j, 14, 4)


def test_recursion_check_passes_and_stabilizes():
    # R_j has frozen every coefficient of q^n with n <= j - k + 1
    j_max, n_max, m_max = 14, 12, 4
    for k in (2, 3, 4):
        top = r_series(k, j_max, n_max, m_max)[j_max]
        prod = product_biseries(k, n_max, m_max)
        stable = min(n_max, j_max - k + 1)
        for m in range(m_max + 1):
            for n in range(stable + 1):
                assert top.coeff(m, n) == prod.coeff(m, n), (k, m, n)


def test_stabilization_is_sharp():
    # r_j agrees with the infinite product only through n = j - k + 1;
    # at n = j - k + 2 a single long overlined part is missed
    k, j = 3, 10
    fin = r_enumeration(k, j, j + 2, 2)
    full = product_biseries(k, j + 2, 2)
    horizon = j - k + 1
    for n in range(horizon + 1):
        assert fin.coeff(1, n) == full.coeff(1, n)
    assert fin.coeff(1, horizon + 1) == full.coeff(1, horizon + 1) - 1


def test_specializations_land_on_registered_families():
    for k in (2, 3):
        fam9 = specialize(k, -1, 2, 24)
        assert fam9 == get_identity("FAM9_K%d" % k).count_series(24)
        and1 = specialize(k, 2 * k - 3, 2, 24)
        assert and1 == get_identity("AND1_K%d" % k).count_series(24)


def test_corner_family_matches_direct_specialization():
    for i in (0, 1, 2):
        s = 2 * i - 1
        got = specialize(3, s, 2, 22)
        want = get_identity("COR_K3_I%d" % i).count_series(22)
        assert got == want


def test_specialization_builds_no_two_variable_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("specialize built the two-variable table")
    monkeypatch.setattr(overpartitions, "product_biseries", refuse)
    assert specialize(3, -1, 2, 40) == get_identity("FAM9_K3").count_series(40)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_parity_specialization_is_the_corollary_product(k):
    # at t = 2 the image of a -> q^(2i-1) is the corollary's product side
    for i in range(k):
        want = product_series(cor_product(k, i), 80)
        assert specialize(k, 2 * i - 1, 2, 80) == want, (k, i)


def test_bad_specializations_are_rejected():
    with pytest.raises(InvalidSpecialization):
        specialize(2, 0, 0, 10)      # t must be positive
    with pytest.raises(InvalidSpecialization):
        specialize(2, -3, 2, 10)     # t + s must stay positive


def test_biseries_equality_and_coeff_access():
    a = BiSeries.one(4, 2)
    b = BiSeries.one(4, 2)
    assert a == b
    assert a.coeff(0, 0) == 1
    assert a.coeff(1, 3) == 0
