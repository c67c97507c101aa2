"""Self-test of the benchmark's correctness checks: one coefficient off by
one must count as a failed check and make fail_ratio nonzero.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from flatpart import euler_exponents, get_identity, parse_condition_set, sum_series_brute
from flatpart.series import IntSeries

import rep
import run

ORDER = 30


def off_by_one(series, n):
    coeffs = list(series)
    coeffs[n] += 1
    return IntSeries(coeffs)


def test_deep_check_counts_a_corrupted_coefficient():
    ident = get_identity("RR1")
    count = ident.count_series(ORDER)
    product = ident.product_series(ORDER)
    out = rep.Outcome()
    out.check(rep.deep_ok(count, product, euler_exponents(count).exponents,
                          ident.product), "exact")
    bad = off_by_one(count, 17)
    out.check(rep.deep_ok(bad, product, euler_exponents(bad).exponents,
                          ident.product), "corrupted")
    assert (out.attempted, out.failed, out.failures) == (2, 1, ["corrupted"])


def test_oracle_check_counts_a_corrupted_coefficient():
    cs = parse_condition_set("1:2:1:2", zeros=1)
    brute = sum_series_brute(cs, 20)
    dp = rep.counting.sum_series_dp(cs, 20)
    assert rep.series_agree(dp, brute)
    assert not rep.series_agree(off_by_one(dp, 20), brute)
    assert not rep.series_agree(IntSeries(list(dp)[:-1]), brute)


def test_screen_digest_catches_one_changed_digit():
    text = '[{"rules": "1:2:1:2", "zeros": 1, "period": 5}]'
    assert rep.digest(text) == rep.digest(text)
    assert rep.digest(text) != rep.digest(text.replace("5", "6"))


def test_failed_check_makes_fail_ratio_nonzero():
    reps = [{"attempted": 8, "failed": 0}, {"attempted": 8, "failed": 1}]
    assert run.fail_ratio(reps) == 1 / 16
    assert run.fail_ratio(reps[:1]) == 0


def test_tail_keeps_ten_items_beyond_it():
    items = list(range(1, 86))
    value, pct = run.tail(items)
    assert pct == 88
    assert sum(1 for x in items if x > value) >= 10
    assert run.tail([3, 1, 2]) == (3, 100)


def test_screen_boxes_have_distinct_digests():
    boxes = rep.load_boxes()
    assert len({b["sha256"] for b in boxes}) == len(boxes) >= 2


def test_cold_start_guard_rejects_warm_caches():
    cs = parse_condition_set("1:2:0:2", zeros=1)
    rep.counting.sum_series_dp(cs, 12)
    rep.counting.sum_series_dp(cs, 12)
    with pytest.raises(RuntimeError):
        rep.cold_start_guard()


def test_scale_follows_the_speed_around_each_stretch():
    ref = run.CALIBRATION_REFERENCE_S
    # A 4 s phase cut by one slice at t=2: the first stretch runs at full
    # speed, the second between full and a third of it.  The last item
    # spans the slice, whose own time is left out.
    rep_ = {"setup_s": 1.0, "phase_s": 4.0 + ref,
            "items": [(0.5, 1.0), (2.5 + ref, 3.0 + ref), (1.5, 2.5 + ref)],
            "calibration": [(-2 * ref, ref), (-ref, ref), (2.0, ref),
                            (4.0 + ref, 3 * ref)]}
    run.scale(rep_)
    second = (1 + 1 / 3) / 2
    assert rep_["wall_s"] == pytest.approx(4.0)
    assert rep_["scaled_setup_s"] == 1.0
    assert rep_["items_s"] == pytest.approx([0.5, 0.5, 1.0])
    assert rep_["scaled_items_s"] == pytest.approx(
        [0.5, 0.5 * second, 0.5 + 0.5 * second])
    assert rep_["scaled_wall_s"] == pytest.approx(2.0 + 2.0 * second)
