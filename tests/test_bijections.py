"""Executable proofs: hook dissection, typed maps, and the family wrappers.

The family-2 k=2 example partition 40+23+14+14+12+11+6+6+6+5+5 is traced
through both directions with every intermediate pinned, so a regression
anywhere in the pipeline shows up as a changed line rather than a silent
recount.
"""

import math

import pytest

from flatpart.bijections import (RANK_CORE, SYLVESTER_CORE,
                                 alternating_sum_type, length_type,
                                 stockhofe_core,
                                 stockhofe_inverse, stockhofe_map,
                                 sylvester_inverse, sylvester_map,
                                 verify_bijection, wrapper_inverse,
                                 wrapper_map, wrapper_spec)
from flatpart.cli import main
from flatpart.errors import (NotInProductClass, PreconditionViolated,
                             UnknownFamily)
from flatpart.partitions import partitions_of

F2_ODD = (40, 23, 14, 14, 12, 11, 6, 6, 6, 5, 5)
F2_IMAGE = (20, 20, 7, 7, 7, 7, 7, 7, 7, 7, 7, 6, 6, 4,
            3, 3, 3, 3, 3, 3, 1, 1, 1, 1, 1)
F1_SOURCE = (16, 12, 11, 11, 2)           # family 1.1, k=2: parts mod 9
F1_IMAGE = (5, 5, 4, 4, 4, 3, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1)


# ----- hook dissection -----

def test_hook_dissection_small_cases():
    assert sylvester_map((1,)) == (1,)
    assert sylvester_map((3,)) == (2, 1)
    assert sylvester_map((3, 1)) == (3, 1)
    assert sylvester_map((7, 5, 5, 3, 1)) == (8, 6, 4, 2, 1)


def test_hook_dissection_is_a_weight_preserving_bijection():
    for n in range(1, 25):
        odd_side = [p for p in partitions_of(n) if all(x % 2 for x in p)]
        distinct_side = {p for p in partitions_of(n)
                         if len(set(p)) == len(p)}
        images = [sylvester_map(p) for p in odd_side]
        assert set(images) == distinct_side
        assert len(set(images)) == len(odd_side)
        for p, q in zip(odd_side, images):
            assert sum(q) == n
            assert sylvester_inverse(q) == p


def test_hook_dissection_statistic():
    # number of odd parts maps to the alternating sum of the image
    for n in range(1, 22):
        for p in partitions_of(n):
            if not all(x % 2 for x in p):
                continue
            q = sylvester_map(p)
            alt = sum(x if i % 2 == 0 else -x for i, x in enumerate(q))
            assert len(p) == alt


def test_hook_dissection_rejects_even_parts():
    with pytest.raises(PreconditionViolated):
        sylvester_map((4, 3))
    with pytest.raises(PreconditionViolated):
        sylvester_inverse((3, 3))   # repeated part is outside the image class


# ----- typed maps -----

def test_types_of_a_partition():
    # two parts in class 1 mod 3 (4 and 1), three in class 2 (5, 2, 2)
    assert length_type((5, 4, 2, 2, 1), 3) == (2, 3)
    assert alternating_sum_type((5, 4, 2, 2, 1), 3) == (2, 3)


def test_type_domains_are_guarded():
    with pytest.raises(PreconditionViolated):
        length_type((3, 1), 3)            # part divisible by the modulus
    with pytest.raises(PreconditionViolated):
        alternating_sum_type((3, 3, 3, 1), 3)   # a part used three times


def test_typed_map_modulus_two_is_hook_dissection():
    for n in range(1, 20):
        for p in partitions_of(n):
            if not all(x % 2 for x in p):
                continue
            assert stockhofe_map(2, p) == sylvester_map(p)
            assert stockhofe_inverse(2, stockhofe_map(2, p)) == p


def test_typed_map_modulus_three_preserves_weight_and_trades_types():
    # no part divisible by 3  <->  no part used three times, with the
    # length type of the source equal to the alternating sum type of the image
    for n in range(1, 22):
        for p in partitions_of(n):
            if any(x % 3 == 0 for x in p):
                continue
            q = stockhofe_map(3, p)
            assert sum(q) == n
            assert all(q.count(x) <= 2 for x in set(q))
            assert length_type(p, 3) == alternating_sum_type(q, 3)
            assert stockhofe_inverse(3, q) == p


def test_typed_map_core_labels():
    assert stockhofe_core(2) == SYLVESTER_CORE
    assert stockhofe_core(3) == RANK_CORE
    assert stockhofe_core(7) == RANK_CORE


# ----- family wrappers -----

def test_family2_worked_example_forward():
    spec = wrapper_spec("FAM2", 2)
    trace = {}
    assert wrapper_map(spec, F2_ODD, trace=trace) == F2_IMAGE
    assert trace["evens_halved"] == (20, 20, 7, 7, 7, 7, 6, 6,
                                     3, 3, 3, 3, 3, 3)
    assert trace["mu"] == (7, 4, 1)
    assert trace["odd_mapped"] == (7, 3, 1, 1)
    assert trace["replicated"] == (7, 7, 7, 7, 7, 4, 1, 1, 1, 1, 1)


def test_family2_worked_example_inverse():
    spec = wrapper_spec("FAM2", 2)
    trace = {}
    assert wrapper_inverse(spec, F2_IMAGE, trace=trace) == F2_ODD
    assert trace["pi_1"] == (20, 20, 6, 6, 3, 3, 3, 3, 3, 3)
    assert trace["pi_2"] == (4,)
    assert trace["pi_3"] == (7, 7, 7, 7, 7, 7, 7, 7, 7, 1, 1, 1, 1, 1)
    assert trace["pi_1_prime"] == (20, 20, 7, 7, 7, 7, 6, 6,
                                   3, 3, 3, 3, 3, 3)
    assert trace["pi_2_prime"] == (4,)
    assert trace["pi_3_prime"] == (7, 1)
    assert trace["pi_1_double_prime"] == (40, 14, 14, 12, 6, 6, 6)
    assert trace["mu"] == (7, 4, 1)
    assert trace["mu_prime"] == (7, 3, 1, 1)
    assert trace["mu_double_prime"] == (23, 11, 5, 5)


def test_wrapper_rejects_parts_outside_the_class():
    spec = wrapper_spec("FAM2", 2)
    with pytest.raises(NotInProductClass):
        wrapper_map(spec, (3,))     # 3 mod 6 is neither even nor -1


def test_unsorted_input_is_refused_not_sorted():
    spec = wrapper_spec("FAM2", 2)
    calls = (lambda: wrapper_map(spec, (5, 11)),
             lambda: wrapper_inverse(spec, (1, 3)),
             lambda: sylvester_map((1, 3)),
             lambda: sylvester_inverse((1, 3)),
             lambda: stockhofe_map(3, (1, 2)),
             lambda: stockhofe_inverse(3, (1, 2)),
             lambda: length_type((1, 2), 3),
             lambda: alternating_sum_type((1, 2), 3))
    for call in calls:
        with pytest.raises(PreconditionViolated, match="weakly decreasing"):
            call()


def test_wrapper_spec_unknown_family():
    with pytest.raises(UnknownFamily):
        wrapper_spec("FAM99", 1)


def test_wrapper_instances_all_verify():
    for family in ("FAM2", "FAM3", "FAM4", "FAM5", "FAM6", "FAM7"):
        for k in range(1, 6):
            report = verify_bijection(family, k, n_max=14)
            assert report.passed, (family, k, report.failure)
            assert report.core == stockhofe_core(2)
            assert report.checked > 0


def test_family1_round_trip_all_variants():
    for variant in (1, 2, 3):
        for k in range(1, 6):
            report = verify_bijection("FAM1_%d" % variant, k, n_max=14)
            assert report.passed, (variant, k, report.failure)
            assert report.core == stockhofe_core(3)


def test_family1_map_has_trace_and_inverts():
    # variant 2, k=1: product class built from parts mod 6
    spec = wrapper_spec("FAM1_2", 1)
    for n in range(1, 16):
        for p in partitions_of(n):
            try:
                q = wrapper_map(spec, p)
            except (NotInProductClass, PreconditionViolated):
                continue
            assert sum(q) == n
            assert wrapper_inverse(spec, q) == p


def test_family1_worked_example_forward():
    trace = {}
    assert wrapper_map(wrapper_spec("FAM1_1", 2), F1_SOURCE,
                       trace=trace) == F1_IMAGE
    assert trace == {
        "triples": (4, 4, 4),
        "affine_mapped": (5, 4, 4, 1),
        "mu": (5, 3, 2, 2, 1, 1),
        "replicated": (5, 5, 3, 3, 3, 3, 3, 2, 2, 2, 2,
                       1, 1, 1, 1, 1, 1, 1),
    }


def test_family1_worked_example_inverse():
    # every one of the five piles is occupied
    trace = {}
    assert wrapper_inverse(wrapper_spec("FAM1_1", 2), F1_IMAGE,
                           trace=trace) == F1_SOURCE
    assert trace == {
        "pi_1": (4, 4, 4),
        "pi_2": (5, 5),
        "pi_3": (3, 3, 3, 3, 3),
        "pi_4": (2, 2, 2, 2),
        "pi_5": (1, 1, 1, 1, 1, 1, 1),
        "pi_1_prime": (4, 4, 4),
        "pi_1_double_prime": (12,),
        "mu": (5, 3, 2, 2, 1, 1),
        "mu_prime": (5, 4, 4, 1),
        "mu_double_prime": (16, 11, 11, 2),
    }


FAMILIES = ("FAM1_1", "FAM1_2", "FAM1_3", "FAM2", "FAM3", "FAM4",
            "FAM5", "FAM6", "FAM7")


def test_wrapper_spec_invariant():
    for family in FAMILIES:
        for k in (1, 2, 3, 4):
            spec = wrapper_spec(family, k)
            m = spec.core
            units = {c % m for c in spec.copies}
            assert len(units) == 1 and math.gcd(units.pop(), m) == 1, spec
            for p in range(1, 5 * spec.modulus + 1):
                if p % spec.modulus in spec.residues:
                    assert spec.from_core(spec.to_core(p)) == p, (spec, p)


def test_wrapper_spec_rejects_k_below_one(capsys):
    # k=0 would ask for 3k-1 = -1 copies, silently read as none
    for family in ("FAM1_1", "FAM2"):
        with pytest.raises(PreconditionViolated, match="k=0"):
            wrapper_spec(family, 0)
    with pytest.raises(PreconditionViolated, match="k=0"):
        wrapper_map(wrapper_spec("FAM1_1", 0), (5, 1))
    rc = main(["bijection", "--family", "FAM1_1", "--k", "0",
               "--input", "5,1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "error:" in captured.err and "k=0" in captured.err


def test_bijection_reports_unknown_family():
    with pytest.raises(UnknownFamily):
        verify_bijection("RR1", 2, n_max=5)
