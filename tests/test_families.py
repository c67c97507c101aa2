"""The identity registry: flat forms, product sides, and the refuted list."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from flatpart import counting, families, series
from flatpart.conditions import (CONGRUENT, NOT_CONGRUENT, condition_set,
                                 satisfies)
from flatpart.counting import sum_series_brute, sum_series_dp
from flatpart.errors import PreconditionViolated, UnknownFamily
from flatpart.families import (CorRow, Statement, cor_product, family_row,
                               family_satisfies, get_identity, get_refuted,
                               refuted_names, registered_names,
                               row_conj_pred, row_flat, row_product)
from flatpart.partitions import conjugate, partitions_of
from flatpart.series import ProductSpec, first_mismatch, product_series


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


# Family 9 and Andrews' companion as their own papers state them: an
# encoding independent of the corollary's predicate that the registry uses.
def fam9_sum_pred(k):
    def pred(parts):
        for i, p in enumerate(parts):
            if p % 2 == 1:
                for j, q in enumerate(parts):
                    if j != i and p <= q <= p + 2 * k - 2:
                        return False
        return True

    return pred


def and1_sum_pred(k):
    small = set(range(1, 2 * k - 2, 2))

    def pred(parts):
        if parts and parts[-1] in small:
            return False
        for i, p in enumerate(parts):
            if p % 2 == 1:
                for j, q in enumerate(parts):
                    if j != i and p - 2 * k + 2 <= q <= p:
                        return False
        return True

    return pred


def test_family9_and_andrews_companion_are_the_corollary_ends():
    # FAM9_K and AND1_K are registered as COR_K_I0 and COR_K_I(k-1)
    for k in (2, 3):
        ends = ((fam9_sum_pred(k), get_identity("FAM9_K%d" % k).sum_pred),
                (and1_sum_pred(k), get_identity("AND1_K%d" % k).sum_pred))
        for n in range(25):
            for p in partitions_of(n):
                for own, cor in ends:
                    assert own(p) == cor(p), (k, p)


def test_capparelli_flat_form_and_unknown_names():
    # Capparelli's initial condition is a smallest-part bound, not a zero
    assert (str(get_identity("CAPPARELLI1").flat)
            == "1:2:0:1;2:2:1:3;2:2:2:3 parts>=2")
    with pytest.raises(UnknownFamily):
        get_identity("NOPE")


def test_family_satisfies_needs_a_partition():
    assert family_satisfies("RR1", (3, 1))
    assert family_satisfies("RR1", [3, 1])
    for parts in ((1, 3), (3, 0)):
        with pytest.raises(PreconditionViolated):
            family_satisfies("RR1", parts)


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
        sum_side = sum_series_dp(entry.flat, n)
        prod_side = product_series(entry.product, n)
        assert sum_side.coeffs[:n] == prod_side.coeffs[:n]
        assert sum_side[n] == prod_side[n] + 1


def test_refuted_counterexample_brute_route():
    # independent confirmation by raw enumeration for the smallest case
    entry = get_refuted("FAM8_MOD10_S39")
    n = entry.counterexample_n
    assert n == 35
    brute = sum_series_brute(entry.flat, n)
    prod = product_series(entry.product, n)
    assert brute[n] == prod[n] + 1


# the first split of each refuted entry: (n, sum side, product side)
REFUTED_SPLITS = {
    "FAM8_MOD10_S39": (35, 4728, 4727),
    "FAM8_MOD10_S59": (45, 35591, 35590),
    "FAM8_MOD11_S04": (40, 15342, 15341),
    "FAM8_MOD11_S37": (45, 21042, 21041),
    "FAM8_MOD11_S6_10": (50, 93945, 93944),
    "FAM8_MOD11_Z1_S29": (55, 72409, 72408),
}


@pytest.mark.parametrize("name", sorted(REFUTED_SPLITS))
def test_no_zero_count_rescues_a_refuted_entry(name):
    # width-3 walks keep rows 0-3, so zero counts 0-3 cover every count;
    # each splits at the recorded n, except that FAM8_MOD11_Z1_S29
    # without its zero splits already at n=2
    entry = get_refuted(name)
    n = entry.counterexample_n
    assert entry.first_mismatch(n) == REFUTED_SPLITS[name]
    for zeros in range(4):
        moved = replace(entry, flat=replace(entry.flat, zeros=zeros))
        want = REFUTED_SPLITS[name]
        if (name, zeros) == ("FAM8_MOD11_Z1_S29", 0):
            want = (2, 2, 1)
        assert moved.first_mismatch(n) == want, zeros


def test_a_statement_pairs_any_window_form_with_any_product():
    # RR1's sum side against RR2's product: they split at once, at n=1
    rr1, rr2 = get_identity("RR1"), get_identity("RR2")
    assert Statement(rr1.flat, rr2.product).first_mismatch(10) == (1, 1, 0)
    assert Statement(rr1.flat, rr1.product).first_mismatch(10) is None
    # the empty product 1 counts only the empty partition
    assert Statement(rr1.flat, ProductSpec(1, ())).product_series(4).coeffs == (
        1, 0, 0, 0, 0)


@st.composite
def statements(draw):
    """1-3 window rules at 0-4 zeros, past the widest window's rows, and a
    product with class exponents 0-3, or the empty product."""
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 6))
        rules.append((draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                      draw(st.integers(0, d - 1)), d,
                      draw(st.sampled_from([CONGRUENT, NOT_CONGRUENT]))))
    flat = condition_set(rules, zeros=draw(st.integers(0, 4)))
    modulus = draw(st.integers(1, 6))
    exponents = draw(st.lists(st.integers(0, 3), min_size=modulus,
                              max_size=modulus))
    product = (ProductSpec(modulus, enumerate(exponents)) if any(exponents)
               else ProductSpec(1, ()))
    return Statement(flat, product)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(statements(), st.integers(0, 90))
def test_packed_comparison_equals_the_coefficient_scan(statement, order):
    # exponents above 1 take the wider-field branch, the rest compare ints
    assert statement.first_mismatch(order) == first_mismatch(
        statement.count_series(order), statement.product_series(order))


@pytest.mark.parametrize("zeros", range(4))
@pytest.mark.parametrize("name", sorted(REFUTED_SPLITS))
def test_packed_comparison_equals_the_scan_on_refuted_entries(name, zeros):
    entry = get_refuted(name)
    moved = replace(entry, flat=replace(entry.flat, zeros=zeros))
    order = entry.counterexample_n + 5
    assert moved.first_mismatch(order) == first_mismatch(
        moved.count_series(order), moved.product_series(order))


def test_equal_width_statements_never_unpack(monkeypatch):
    # every class exponent is 1, so both sides share the DP's width and
    # the split is read from the packed ints alone
    def refuse(*args):
        raise AssertionError("unpacked %r" % (args[1:],))

    for module in (families, counting, series):
        monkeypatch.setattr(module, "unpack", refuse)
    for name in registered_names():
        assert get_identity(name).first_mismatch(200) is None, name
    entry = get_refuted("FAM8_MOD10_S39")
    assert entry.first_mismatch(200) == REFUTED_SPLITS["FAM8_MOD10_S39"]


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
        assert str(get_identity(name).flat) == form, name


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


def test_family_rows_need_k_at_least_one():
    # FAM2 at k=-1 would have modulus 0, FAM1_1 at k=0 residues (2, 1)
    with pytest.raises(PreconditionViolated, match="FAM2 needs k >= 1, got k=-1"):
        family_row("FAM2", -1)
    with pytest.raises(PreconditionViolated, match="FAM1_1 needs k >= 1, got k=0"):
        family_row("fam1_1", 0)


# The corollary's window forms, recorded as row_flat renders them from
# CorRow.bans(); FAM9_K<k> and AND1_K<k> share their ends' forms.
COR_FORMS = {
    "COR_K2_I0": "2:2:0:4;1:2:2:4;1:2:3:4",
    "COR_K2_I1": "2:2:0:4;1:2:1:4;1:2:2:4 +1z",
    "COR_K3_I0": "2:2:0:4;2:2:1:4;1:2:2:4;3:2:2:4;1:2:3:4",
    "COR_K3_I1": "1:2:1:2;2:2:0:4;1:2:2:4;3:2:2:4 +1z",
    "COR_K3_I2": "2:2:0:4;1:2:1:4;1:2:2:4;3:2:2:4;2:2:3:4 +1z",
    "FAM9_K2": "2:2:0:4;1:2:2:4;1:2:3:4",
    "FAM9_K3": "2:2:0:4;2:2:1:4;1:2:2:4;3:2:2:4;1:2:3:4",
    "AND1_K2": "2:2:0:4;1:2:1:4;1:2:2:4 +1z",
    "AND1_K3": "2:2:0:4;1:2:1:4;1:2:2:4;3:2:2:4;2:2:3:4 +1z",
}


def test_corollary_window_forms_match_the_printed_table():
    registered = [n for n in registered_names()
                  if get_identity(n).family in ("FAM9", "AND1", "COR")]
    assert sorted(COR_FORMS) == registered
    for name, form in COR_FORMS.items():
        assert str(get_identity(name).flat) == form, name


def test_corollary_row_beyond_the_registry():
    # no entry builds k=4; its form must still count the product and
    # read the prose exactly
    parts = [p for n in range(19) for p in partitions_of(n)]
    for i in range(4):
        row = CorRow(4, i)
        flat, prose = row_flat(row), row.sum_pred()
        assert sum_series_dp(flat, 60) == product_series(cor_product(4, i), 60), i
        for p in parts:
            assert satisfies(flat, p) == prose(p), (i, p)
