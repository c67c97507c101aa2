"""The identity registry: flat forms, product sides, and the refuted list."""

import pytest

from flatpart.conditions import satisfies
from flatpart.counting import sum_series_brute, sum_series_dp
from flatpart.errors import UnknownFamily
from flatpart.families import (and1_sum_pred, cor_sum_pred, fam9_sum_pred,
                               family_row, family_satisfies, flat_form_of,
                               get_identity, get_refuted, refuted_names,
                               registered_names, row_conj_pred, row_flat,
                               row_product)
from flatpart.partitions import conjugate, partitions_of
from flatpart.series import product_series


def test_registry_is_populated_and_sorted():
    names = registered_names()
    assert len(names) == 85
    assert list(names) == sorted(names)
    assert len(set(names)) == len(names)


def test_lookup_normalizes_case_and_aliases():
    assert get_identity("macmahon").name == "MACMAHON"
    assert get_identity("not3mod4").name == "FAM3_K1"
    with pytest.raises(UnknownFamily):
        get_identity("NO_SUCH_IDENTITY")


def test_first_rogers_ramanujan():
    ident = get_identity("RR1")
    s = ident.count_series(30)
    assert s == ident.product_series(30)
    # first values of the classic sequence
    assert s.coeffs[:10] == (1, 1, 1, 1, 2, 2, 3, 3, 4, 5)


def test_consecutive_window_rule_matches_prose():
    # MACMAHON: no two consecutive parts, no ones
    ident = get_identity("MACMAHON")
    cs = ident.flat
    for n in range(31):
        for p in partitions_of(n):
            prose = 1 not in p and all(
                p[i] - p[i + 1] != 1 for i in range(len(p) - 1))
            assert family_satisfies("MACMAHON", p) == prose
    assert sum_series_dp(cs, 30) == ident.product_series(30)


def test_flat_form_agrees_with_predicate_where_both_exist():
    # the window rules and the prose predicate are independent encodings
    for name in registered_names():
        ident = get_identity(name)
        if ident.flat is None:
            continue
        for n in range(27):
            for p in partitions_of(n):
                assert satisfies(ident.flat, p) == ident.sum_pred(p), (name, p)


def test_every_identity_holds_to_moderate_order():
    for name in registered_names():
        ident = get_identity(name)
        got = ident.count_series(32)
        want = ident.product_series(32)
        assert got == want, name


def test_predicate_and_flat_routes_agree_on_a_sample():
    for name in ("RR2", "SCHUR", "GG", "CAPPARELLI1", "ANDREWS_236",
                 "GORDON_K3_I2", "BRESSOUD_K4_I2", "MOD9_I2"):
        ident = get_identity(name)
        brute = [0] * 26
        for n in range(26):
            brute[n] = sum(1 for p in partitions_of(n)
                           if family_satisfies(name, p))
        assert tuple(brute) == ident.count_series(25).coeffs


def test_family9_and_andrews_companion_are_the_corollary_ends():
    # FAM9_K and AND1_K keep their own predicates but take COR's products
    for k in (2, 3):
        ends = ((fam9_sum_pred(k), cor_sum_pred(k, 0)),
                (and1_sum_pred(k), cor_sum_pred(k, k - 1)))
        for n in range(25):
            for p in partitions_of(n):
                for own, cor in ends:
                    assert own(p) == cor(p), (k, p)


def test_flat_form_of_unknown_or_predicate_only():
    with pytest.raises(UnknownFamily):
        flat_form_of("NOPE")
    from flatpart.errors import NoFlatForm
    with pytest.raises(NoFlatForm):
        flat_form_of("FAM9_K2")


def test_conjugate_forms_where_registered():
    count = 0
    for name in registered_names():
        ident = get_identity(name)
        if ident.conj_pred is None:
            continue
        count += 1
        for n in range(21):
            a = sum(1 for p in partitions_of(n) if ident.sum_pred(p))
            b = sum(1 for p in partitions_of(n) if ident.conj_pred(p))
            assert a == b, name
    assert count == 22


def test_refuted_catalog_counterexamples():
    # each entry names the first weight where sum and product sides split
    assert len(refuted_names()) == 6
    for name in refuted_names():
        entry = get_refuted(name)
        n = entry.counterexample_n
        sum_side = sum_series_dp(entry.flat(), n)
        prod_side = product_series(entry.product(), n)
        assert sum_side.coeffs[:n] == prod_side.coeffs[:n]
        assert sum_side[n] == prod_side[n] + 1


def test_refuted_counterexample_brute_route():
    # independent confirmation by raw enumeration for the smallest case
    entry = get_refuted("FAM8_MOD10_S39")
    n = entry.counterexample_n
    assert n == 35
    brute = sum_series_brute(entry.flat(), n)
    prod = product_series(entry.product(), n)
    assert brute[n] == prod[n] + 1


def test_refuted_names_are_not_registered():
    for name in refuted_names():
        with pytest.raises(UnknownFamily):
            get_identity(name)


def test_param_accessors():
    ident = get_identity("GORDON_K3_I2")
    assert ident.param("k") == 3
    assert ident.param("i") == 2


# The Families 1-7 window forms, recorded from hand-typed rules: an
# encoding independent of the bans() tables the registry derives them from.
FAMILY_FORMS = {
    "FAM1_1_K1": "1:2:1:2 +1z",
    "FAM1_1_K2": "1:2:1:2;2:2:0:6;3:2:2:6;3:2:4:6 +1z",
    "FAM1_1_K3": "1:2:1:2;2:2:0:6;4:2:1:6;3:2:2:6;3:2:3:6;3:2:4:6;4:2:5:6 +1z",
    "FAM1_2_K1": "1:2:1:2 +1z",
    "FAM1_2_K2": "1:2:1:2;3:2:0:6;2:2:2:6;3:2:4:6 +1z",
    "FAM1_2_K3": "1:2:1:2;3:2:0:6;4:2:1:6;2:2:2:6;4:2:3:6;3:2:4:6;3:2:5:6 +1z",
    "FAM1_3_K1": "1:2:1:2 +1z",
    "FAM1_3_K2": "1:2:1:2;3:2:0:6;3:2:2:6;2:2:4:6 +1z",
    "FAM1_3_K3": "1:2:1:2;3:2:0:6;3:2:1:6;3:2:2:6;4:2:3:6;2:2:4:6;4:2:5:6 +1z",
    "FAM2_K1": "1:2:1:4 +1z",
    "FAM2_K2": "1:2:1:4;2:2:3:4 +1z",
    "FAM3_K1": "1:2:3:4",
    "FAM3_K2": "2:2:1:4;1:2:3:4",
    "FAM4_K1": "1:2:1:2;2:2:1:4 +1z",
    "FAM4_K2": "1:2:1:2;2:2:1:4;3:2:3:4 +1z",
    "FAM5_K1": "1:2:1:2;2:2:3:4 +1z",
    "FAM5_K2": "1:2:1:2;3:2:1:4;2:2:3:4 +1z",
    "FAM6_K1": "1:2:1:2;2:2:1:2;3:2:1:4 +1z",
    "FAM6_K2": "1:2:1:2;2:2:1:2;3:2:1:2;4:2:3:4 +1z",
    "FAM7_K1": "1:2:1:2;2:2:1:2;3:2:3:4 +1z",
    "FAM7_K2": "1:2:1:2;2:2:1:2;3:2:1:2;4:2:1:4 +1z",
}

FAMILIES = ("FAM1_1", "FAM1_2", "FAM1_3", "FAM2", "FAM3", "FAM4",
            "FAM5", "FAM6", "FAM7")


def test_family_window_forms_match_the_printed_table():
    registered = [n for n in registered_names()
                  if get_identity(n).family in FAMILIES]
    assert sorted(FAMILY_FORMS) == registered
    for name, form in FAMILY_FORMS.items():
        assert str(flat_form_of(name)) == form, name


def test_family_rows_beyond_the_registry():
    # no entry builds k=4; every derived side must still hold there
    parts = [p for n in range(19) for p in partitions_of(n)]
    for family in FAMILIES:
        row = family_row(family, 4)
        flat, prose, conj = row_flat(row), row.sum_pred(), row_conj_pred(row)
        assert (sum_series_dp(flat, 60)
                == product_series(row_product(row), 60)), family
        sum_class = set()
        for p in parts:
            assert satisfies(flat, p) == prose(p), (family, p)
            if prose(p):
                sum_class.add(conjugate(p))
        assert sum_class == {p for p in parts if conj(p)}, family
