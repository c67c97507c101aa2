"""The one-stop verification driver."""

from dataclasses import replace
from pathlib import Path

import pytest

from flatpart import families, recursions
from flatpart.errors import UnknownFamily
from flatpart.series import one
from flatpart.verify import VerifyReport, verify_all, verify_identity


def test_single_identity_report():
    report = verify_identity("RR1", nmax=60)
    assert isinstance(report, VerifyReport)
    assert report.name == "RR1"
    assert report.passed
    labels = [c.label for c in report.checks]
    assert any("count" in lbl for lbl in labels)


def test_identity_with_every_check_kind():
    # a family-1 member gets a count check, a recursion, and a bijection
    report = verify_identity("FAM1_2_K2", nmax=80)
    assert report.passed
    assert len(report.checks) >= 3


def test_specialization_check_runs_for_corner_families():
    report = verify_identity("COR_K3_I1", nmax=None)
    assert report.passed
    assert any("special" in c.label for c in report.checks)


def test_refuted_names_fail_with_counterexample():
    report = verify_identity("FAM8_MOD10_S39")
    assert not report.passed
    assert any("not a theorem" in c.detail for c in report.checks)
    assert any("n=35" in c.detail for c in report.checks)


def test_a_recorded_n_off_the_first_split_does_not_reproduce(monkeypatch):
    # the sides still differ at n=36, but the first split is at n=35
    entry = families.get_refuted("FAM8_MOD10_S39")
    monkeypatch.setitem(families._REFUTED, "FAM8_MOD10_S39",
                        replace(entry, counterexample_n=36))
    report = verify_identity("FAM8_MOD10_S39")
    assert not report.passed
    assert [c.detail for c in report.checks] == [
        "recorded counterexample at n=36 did not reproduce"]


def test_a_wrong_printed_base_fails_the_recursion_check(monkeypatch):
    # every level agrees with the DP; only the printed P_2 is wrong
    row = recursions._RECURSIONS["FAM3_K1"]
    monkeypatch.setitem(recursions._RECURSIONS, "FAM3_K1",
                        row._replace(bases=lambda order: {2: one(order)}))
    report = verify_identity("FAM3_K1", nmax=40)
    check = next(c for c in report.checks if c.label == "finite recursion")
    assert not check.passed and not report.passed
    assert check.detail == "levels 0..30 to order 150; printed base forms disagree"


def test_unknown_name_raises():
    with pytest.raises(UnknownFamily):
        verify_identity("GIBBERISH")


def test_verify_all_streams_reports():
    seen = 0
    for report in verify_all(nmax=25):
        seen += 1
        if seen >= 8:
            break
    assert seen == 8


GOLDEN = Path(__file__).resolve().parent / "golden" / "verify.txt"


def test_verify_text_is_byte_identical_to_the_golden_file():
    # what `flatpart verify --all`, then `flatpart verify --family NAME`
    # for each refuted entry and each recursion (each list sorted), print
    text = "".join(str(report) + "\n" for report in verify_all())
    for name in families.refuted_names() + recursions.recursion_names():
        text += str(verify_identity(name)) + "\n"
    assert text.encode() == GOLDEN.read_bytes()
