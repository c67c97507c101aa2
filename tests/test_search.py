"""Parameter-space search: enumeration, screening, and deep verification."""

import hashlib
import json

import pytest

from flatpart.conditions import parse_condition_set
from flatpart.counting import sum_series_dp
from flatpart.errors import PreconditionViolated
from flatpart.euler import detect_period, euler_exponents
from flatpart.search import (CandidateReport, SearchBounds,
                             enumerate_condition_sets, reports_to_json,
                             screen_condition_set, search, verify_candidate)


def small_bounds(**kw):
    base = dict(max_rules=1, a_range=(1, 1), b_range=(2, 2), d_range=(2, 2),
                zeros_range=(0, 1), n_check=25)
    base.update(kw)
    return SearchBounds(**base)


def test_bounds_json_round_trip():
    b = small_bounds()
    again = SearchBounds.from_json(b.to_json())
    assert again == b


def test_bounds_reject_unknown_keys_and_bad_ranges():
    with pytest.raises(ValueError):
        SearchBounds.from_json(json.dumps({"max_rules": 1, "a_range": [1, 1],
                                           "b_range": [2, 2], "d_range": [2, 2],
                                           "surprise": 3}))
    with pytest.raises(ValueError):
        small_bounds(a_range=(2, 1))
    with pytest.raises(ValueError):
        small_bounds(n_check=10, d_max=8)     # need n_check >= 3 * d_max
    with pytest.raises(ValueError):
        small_bounds(max_rules=0)


BOX = {"max_rules": 1, "a_range": [1, 1], "b_range": [2, 2], "d_range": [2, 2]}


@pytest.mark.parametrize("text, message", [
    ("max_rules: 1", "not valid JSON"),
    ("[1, 2]", "must be a JSON object, got list"),
    ('"x"', "must be a JSON object, got str"),
    (json.dumps({"max_rules": 1, "a_range": [1, 1]}),
     "missing bounds keys: b_range, d_range"),
    (json.dumps(dict(BOX, n_check=2.5)), "n_check must be an integer, got 2.5"),
    (json.dumps(dict(BOX, max_rules="2")), "max_rules must be an integer"),
    (json.dumps(dict(BOX, d_max=True)), "d_max must be an integer, got True"),
    (json.dumps(dict(BOX, e_max=None)), "e_max must be an integer, got None"),
    (json.dumps(dict(BOX, allow_neq=0)), "allow_neq must be true or false, got 0"),
], ids=["not-json", "list", "string", "missing", "float", "text", "bool", "null",
        "int-flag"])
def test_malformed_bounds_fail_plainly(text, message):
    with pytest.raises(PreconditionViolated, match=message):
        SearchBounds.from_json(text)


def test_enumeration_counts_single_rule_space():
    # A=1, B=2, D=2: residues 0 and 1, zeros 0 or 1 -> four sets
    sets = list(enumerate_condition_sets(small_bounds()))
    assert len(sets) == 4
    rendered = sorted((cs.render(), cs.zeros) for cs in sets)
    assert rendered == [("1:2:0:2", 0), ("1:2:0:2", 1),
                        ("1:2:1:2", 0), ("1:2:1:2", 1)]


def test_enumeration_is_sorted_and_deterministic():
    bounds = small_bounds(d_range=(2, 3), zeros_range=(0, 0))
    first = [(cs.render(), cs.zeros) for cs in
             enumerate_condition_sets(bounds)]
    second = [(cs.render(), cs.zeros) for cs in
              enumerate_condition_sets(bounds)]
    assert first == second
    keys = [cs.sort_key() for cs in enumerate_condition_sets(bounds)]
    assert keys == sorted(keys)


def test_allow_neq_enumerates_each_rule_negated():
    bounds = SearchBounds(max_rules=1, a_range=(1, 1), b_range=(2, 2),
                          d_range=(2, 2), n_check=24, allow_neq=True)
    assert [str(cs) for cs in enumerate_condition_sets(bounds)] == [
        "1:2:0:2", "1:2:0:2:n", "1:2:1:2", "1:2:1:2:n"]
    # mod 2 a sum not congruent to 1 is congruent to 0, so the two rules
    # forbid the same windows
    verdicts = {str(r.condition_set): r.verdict
                for r in search(bounds, nontrivial=False)}
    assert verdicts["1:2:1:2:n"] == verdicts["1:2:0:2"]
    assert verdicts["1:2:0:2"].period == 2
    assert verdicts["1:2:0:2"].class_exponents == ((0, 0), (1, 1))


def test_screening_keeps_periodic_emits_none_otherwise():
    hit = screen_condition_set(parse_condition_set("1:2:1:2", zeros=1),
                               n_check=25, d_max=8, e_max=4)
    assert hit is not None
    assert hit.verdict.periodic and hit.verdict.period == 6
    # same rule with the exponent cap at zero: the unit classes disqualify it
    miss = screen_condition_set(parse_condition_set("1:2:1:2", zeros=1),
                                n_check=25, d_max=8, e_max=0)
    assert miss is None


def test_streamed_screen_agrees_with_the_full_factorization():
    # the first box the screen benchmark runs
    bounds = SearchBounds(max_rules=2, a_range=(1, 2), b_range=(2, 3),
                          d_range=(1, 4), zeros_range=(0, 1), n_check=30,
                          d_max=10)
    sets = list(enumerate_condition_sets(bounds))
    assert len(sets) == 1640
    for cs in sets:
        report = screen_condition_set(cs, 30, 10, 4)
        verdict = detect_period(euler_exponents(sum_series_dp(cs, 30)), 10, 4)
        if report is None:
            assert (not verdict.periodic
                    or any(e < 0 for _r, e in verdict.class_exponents))
        else:
            assert report.verdict == verdict


def test_search_rediscovers_the_consecutive_parts_identity():
    bounds = SearchBounds(max_rules=1, a_range=(1, 1), b_range=(1, 2),
                          d_range=(1, 6), zeros_range=(0, 1), n_check=25)
    hits = search(bounds)
    by_set = {(r.condition_set.render(), r.condition_set.zeros): r
              for r in hits}
    key = ("1:2:1:2", 1)
    assert key in by_set
    verdict = by_set[key].verdict
    assert verdict.period == 6
    assert verdict.exponents_dict() == {0: 1, 1: 0, 2: 1, 3: 1, 4: 1, 5: 0}


def test_search_finds_all_five_mod_five_window_rules():
    bounds = SearchBounds(max_rules=1, a_range=(1, 5), b_range=(3, 3),
                          d_range=(5, 5), zeros_range=(2, 2), n_check=25)
    hits = search(bounds)
    found = {r.condition_set.render() for r in hits
             if r.verdict.period == 5}
    assert {"1:3:%d:5" % c for c in range(5)} <= found


def test_nontrivial_filter_requires_an_excluded_class():
    # 1:1:0:1 with zeros forbids everything except the empty partition;
    # spot check that trivial all-class products are dropped by default
    bounds = small_bounds(zeros_range=(0, 0))
    strict = search(bounds, nontrivial=True)
    loose = search(bounds, nontrivial=False)
    assert len(loose) >= len(strict)
    for r in strict:
        assert 0 in r.verdict.exponents_dict().values()


def test_verification_promotes_and_refutes():
    good = screen_condition_set(parse_condition_set("1:2:1:2", zeros=1),
                                n_check=25, d_max=8, e_max=4)
    deep = verify_candidate(good, n_big=120)
    assert deep.status == "verified-to-120"
    assert deep.verified_to == 120
    assert deep.failed_at is None

    # corrupt the verdict so the product side is wrong, then recheck
    import dataclasses
    wrong_verdict = dataclasses.replace(
        good.verdict, class_exponents=((0, 1), (1, 1), (2, 1),
                                       (3, 1), (4, 1), (5, 0)))
    bad = dataclasses.replace(good, verdict=wrong_verdict)
    refuted = verify_candidate(bad, n_big=120)
    assert refuted.status.startswith("refuted-at-")
    assert refuted.failed_at is not None
    assert refuted.verified_to == refuted.failed_at - 1


def test_verification_of_an_empty_product_hit():
    # 1:1:0:1 forbids every part: the count is 1, the empty product
    bounds = small_bounds(b_range=(1, 1), d_range=(1, 1), zeros_range=(0, 0))
    [hit] = [r for r in search(bounds, nontrivial=False)
             if r.condition_set.render() == "1:1:0:1"]
    assert not any(e for _r, e in hit.verdict.class_exponents)
    deep = verify_candidate(hit, n_big=60)
    assert deep.status == "verified-to-60"
    assert deep.verified_to == 60 and deep.failed_at is None


def test_verification_below_the_screened_order_keeps_it():
    hit = screen_condition_set(parse_condition_set("1:2:1:2", zeros=1),
                               n_check=25, d_max=8, e_max=4)
    deep = verify_candidate(hit, n_big=10)
    assert deep.status == "verified-to-25"
    assert deep.verified_to == 25 and deep.failed_at is None


def test_report_json_shape():
    hit = screen_condition_set(parse_condition_set("1:2:1:2", zeros=1),
                               n_check=25, d_max=8, e_max=4)
    blob = json.loads(reports_to_json([hit]))
    assert isinstance(blob, list) and len(blob) == 1
    entry = blob[0]
    assert set(entry) == {"rules", "zeros", "period", "class_exponents",
                          "status", "verified_to"}
    assert entry["rules"] == "1:2:1:2"
    assert entry["zeros"] == 1
    assert entry["period"] == 6
    assert entry["class_exponents"] == {"0": 1, "1": 0, "2": 1,
                                        "3": 1, "4": 1, "5": 0}
    assert entry["status"] == "screened"


# box A holds B = 1 rules, so unlike either screen box of the benchmark
# it reaches the empty product: 82 of its 749 hits
BOX_A = SearchBounds(max_rules=2, a_range=(1, 2), b_range=(1, 2),
                     d_range=(1, 4), zeros_range=(0, 1), n_check=30, d_max=10)


def test_box_a_verified_report_is_pinned():
    reports = [verify_candidate(r, 120) for r in search(BOX_A, nontrivial=False)]
    assert len(reports) == 749
    assert sum(not any(e for _r, e in r.verdict.class_exponents)
               for r in reports) == 82
    assert {r.status for r in reports} == {"verified-to-120"}
    digest = hashlib.sha256(reports_to_json(reports).encode()).hexdigest()
    assert digest == (
        "196cd3d0b914c6b1d6fa79ef57034808971f841ea19301fd148fe7a378ee7215")
