"""Product-side analysis: Euler exponents and periodicity detection."""

import random
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from flatpart import euler, search
from flatpart.conditions import parse_condition_set
from flatpart.counting import sum_series_dp
from flatpart.errors import (InsufficientOrder, NonUnitConstantTerm,
                             PreconditionViolated)
from flatpart.euler import (_BLOCK, EulerFactorization, PeriodicVerdict,
                            detect_period, euler_exponents, exponent_stream)
from flatpart.families import get_identity
from flatpart.series import (IntSeries, ProductSpec, div_one_minus_qm,
                             mul_one_minus_qm, one, product_from_exponents,
                             product_series)

# A sum side far from any product: max |c_m| is 546,172 at order 30 and
# 104,008,536 at order 40, and has 142 digits at order 600.
NOT_A_PRODUCT = parse_condition_set("2:2:0:2;1:2:2:3", zeros=1)


def exponents_by_passes(series):
    """Euler's algorithm step by step: c_m is the residual's q^m
    coefficient, cleared by |c_m| multiplications or divisions by
    (1 - q^m).  Independent of euler_exponents, and usable only where
    the exponents are small."""
    residual = list(series.coeffs)
    exps = []
    for m in range(1, series.order + 1):
        c = residual[m]
        exps.append(c)
        for _ in range(abs(c)):
            if c > 0:
                mul_one_minus_qm(residual, m)
            else:
                div_one_minus_qm(residual, m)
    return tuple(exps)


def exponents_by_plain_convolution(series):
    """The logarithmic-derivative recursion with every convolution summed
    term by term, O(n^2): the reference for the blocked stream."""
    a, n = series.coeffs, series.order
    b, exps = [0] * (n + 1), []
    for m in range(1, n + 1):
        b[m] = m * a[m] - sum(b[j] * a[m - j] for j in range(1, m))
        # m c_m is b_m less d c_d over the proper divisors d of m
        exps.append((b[m] - sum(d * exps[d - 1] for d in range(1, m)
                                if m % d == 0)) // m)
    return tuple(exps)


def detect_period_by_definition(exps, d_max, e_max):
    """The period test in two passes over all the exponents: any entry
    above e_max rejects, else the smallest d <= d_max that every entry
    repeats with.  The reference for detect_period's single pass."""
    if any(abs(c) > e_max for c in exps):
        return PeriodicVerdict(False, 0, ())
    for d in range(1, d_max + 1):
        if all(exps[m - 1] == exps[(m - 1) % d] for m in range(1, len(exps) + 1)):
            classes = tuple(
                sorted((m % d, exps[m - 1]) for m in range(1, d + 1)))
            return PeriodicVerdict(True, d, classes)
    return PeriodicVerdict(False, 0, ())


def test_single_geometric_factor():
    # 1/(1 - q^3), written out
    fac = euler_exponents(IntSeries([1, 0, 0] * 8 + [1]))
    assert fac.exponents[2] == 1          # the m=3 slot
    assert all(e == 0 for i, e in enumerate(fac.exponents) if i != 2)


def test_exponents_recover_a_known_product():
    spec = ProductSpec(6, {1: 1, 5: 1})
    fac = euler_exponents(product_series(spec, 36))
    for m in range(1, 31):
        want = 1 if m % 6 in (1, 5) else 0
        assert fac.exponents[m - 1] == want


def test_random_products_round_trip():
    rng = random.Random(99)
    for _ in range(15):
        order = 30
        flat = [rng.randrange(-2, 3) for _ in range(order)]
        f = product_from_exponents(flat, order)
        fac = euler_exponents(f)
        for m in range(1, order + 1):
            assert fac.exponents[m - 1] == flat[m - 1]


def test_period_detection_on_even_odd():
    # 1/(q;q^2): period 2 with classes {1: 1, 0: 0}
    f = product_series(ProductSpec.from_residues(2, [1]), 40)
    verdict = detect_period(euler_exponents(f), d_max=6)
    assert verdict.periodic
    assert verdict.period == 2
    assert verdict.exponents_dict() == {0: 0, 1: 1}


def test_minimal_period_is_preferred():
    # period 3 pattern should not be reported as period 6
    f = product_series(ProductSpec(3, {1: 1, 2: 1}), 40)
    verdict = detect_period(euler_exponents(f), d_max=8)
    assert verdict.period == 3


def test_aperiodic_series_is_rejected():
    # a single extra factor 1/(1 - q^8) on 1/(q;q^2) breaks every small period
    f = product_from_exponents([m % 2 + (m == 8) for m in range(1, 41)], 40)
    verdict = detect_period(euler_exponents(f), d_max=6)
    assert not verdict.periodic


def test_negative_exponents_fail_the_screen():
    # (1-q)^2 has exponent -2 at m=1
    fac = euler_exponents(IntSeries([1, -2, 1] + [0] * 38))
    assert fac.exponents == (-2,) + (0,) * 39
    assert not detect_period(fac, d_max=4).periodic


def test_exponent_cap_is_enforced():
    f = product_series(ProductSpec(2, {1: 3}), 40)
    assert detect_period(euler_exponents(f), d_max=4, e_max=2) is not None
    verdict = detect_period(euler_exponents(f), d_max=4, e_max=4)
    assert verdict.periodic and verdict.exponents_dict()[1] == 3


def test_verdict_converts_to_product_spec():
    f = product_series(ProductSpec(5, {1: 1, 4: 1}), 50)
    verdict = detect_period(euler_exponents(f), d_max=8)
    spec = verdict.to_product_spec()
    assert product_series(spec, 50) == f


def test_too_short_series_raises():
    with pytest.raises(InsufficientOrder):
        detect_period(euler_exponents(one(4)), d_max=8)


def test_a_stream_shorter_than_its_order_certifies_no_period():
    # two exponents cannot show a period three times over order 9
    with pytest.raises(InsufficientOrder):
        detect_period(iter([1, 1]), 3, 4, order=9)
    # an entry above e_max decides the verdict before the stream ends
    assert not detect_period(iter([1, 9]), 3, 4, order=9).periodic


@pytest.mark.parametrize("order", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_blocked_convolution_equals_the_plain_sum(order, monkeypatch):
    rnd = random.Random(order)
    # random series with signed coefficients of up to 30 digits, whose
    # b_j outgrow their coefficients and are summed term by term, and
    # products with small exponents, as identities give, whose narrow
    # b_j take the packed product: one with signed coefficients, one
    # with coefficients of up to about 30 digits
    cases = [IntSeries([1] + [rnd.randint(-10 ** digits, 10 ** digits)
                              for _ in range(order)]) for digits in (1, 12, 30)]
    cases += [product_from_exponents([rnd.randint(low, high) for _ in range(order)],
                                     order) for low, high in ((-3, 3), (-2, 8))]
    packed, pack = [], euler._pack
    monkeypatch.setattr(euler, "_pack", lambda *args: packed.append(1) or pack(*args))
    for series in cases:
        assert (euler_exponents(series).exponents
                == exponents_by_plain_convolution(series)), series
    assert bool(packed) == (order > _BLOCK)


@pytest.mark.parametrize("s", [_BLOCK + 1, 4 * _BLOCK + 1])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_block_sums_hold_the_largest_fields(s, signs):
    # every b_j and a_l at the top of its bit length, one sign each, and
    # bits(b) + bits(a) + bits(s) + 1 a whole number of bytes, so that
    # the fields come as near their width as the values allow
    end = s + _BLOCK
    width = 8 - (s.bit_length() + 1) % 8
    bits_b, bits_a = width // 2, width - width // 2
    b = [0] + [signs[0] * ((1 << bits_b) - 1)] * (s - 1)
    a = [1] + [signs[1] * ((1 << bits_a) - 1)] * (end - 1)
    assert euler._block_sums(b, a, s, end) == [
        sum(b[j] * a[i - j] for j in range(1, s)) for i in range(s, end)]


def test_blocked_convolution_equals_the_plain_sum_at_order_600():
    # c_m of up to 142 digits, summed term by term, and an identity's
    # count, whose four blocks take the packed product
    for series in (sum_series_dp(NOT_A_PRODUCT, 600),
                   sum_series_dp(get_identity("FAM1_1_K3").flat, 600)):
        assert (euler_exponents(series).exponents
                == exponents_by_plain_convolution(series))


def test_early_exponents_build_no_block_product(monkeypatch):
    series = sum_series_dp(get_identity("FAM1_1_K3").flat, 600)
    first = euler_exponents(series).exponents[:5]

    def forbidden(*args):
        raise AssertionError("a block product was built")

    monkeypatch.setattr(euler, "_pack", forbidden)
    assert tuple(islice(exponent_stream(series), 5)) == first
    # an order up to _BLOCK, as every screen is, builds none at all
    euler_exponents(sum_series_dp(get_identity("FAM1_1_K3").flat, _BLOCK))
    with pytest.raises(AssertionError, match="block product"):
        euler_exponents(series)


def test_large_exponents_match_the_step_by_step_route():
    series = sum_series_dp(NOT_A_PRODUCT, 25)
    assert euler_exponents(series).exponents == exponents_by_passes(series)


def test_large_exponents_cost_nothing_extra():
    # the step-by-step route makes |c_m| passes per m: 142 s at order 40
    short = euler_exponents(sum_series_dp(NOT_A_PRODUCT, 40)).exponents
    assert max(abs(c) for c in short) == 104008536
    long = euler_exponents(sum_series_dp(NOT_A_PRODUCT, 600)).exponents
    assert len(long) == 600 and long[:40] == short
    assert len(str(max(abs(c) for c in long))) == 142


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=40))
def test_exponents_round_trip_through_the_product(exps):
    n = len(exps)
    assert euler_exponents(product_from_exponents(exps, n)).exponents == tuple(exps)


@st.composite
def exponent_runs(draw):
    """(exponents, d_max, e_max): a repeated pattern, sometimes with an
    entry or two changed, so that periodic and aperiodic runs both occur."""
    d_max = draw(st.integers(1, 10))
    e_max = draw(st.integers(0, 5))
    n = draw(st.integers(3 * d_max, 40))
    entries = st.integers(-6, 6)
    pattern = draw(st.lists(entries, min_size=1, max_size=d_max + 2))
    exps = [pattern[i % len(pattern)] for i in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        exps[i] = draw(entries)
    return tuple(exps), d_max, e_max


@settings(derandomize=True, max_examples=300, deadline=None)
@given(exponent_runs())
# periodic with period 2 until its last entry breaks every period
@example(((1, 0) * 14 + (1, 1), 4, 1))
# every period has died at c_3 before c_6 passes e_max
@example(((0, 1, 2, 0, 0, 9, 0, 0, 0, 0, 0, 0), 2, 2))
def test_single_pass_period_test_matches_its_definition(case):
    exps, d_max, e_max = case
    want = detect_period_by_definition(exps, d_max, e_max)
    assert detect_period(EulerFactorization(exps), d_max, e_max) == want
    assert detect_period(iter(exps), d_max, e_max, order=len(exps)) == want


def test_screen_stops_at_the_deciding_exponent(monkeypatch):
    read = []

    def spy(series):
        for c in exponent_stream(series):
            read.append(c)
            yield c

    monkeypatch.setattr(search, "exponent_stream", spy)
    assert search.screen_condition_set(NOT_A_PRODUCT, 40, 8, 4) is None
    # c_7 = 7 is the first exponent above e_max
    assert 0 < len(read) < 20
    fac = euler_exponents(sum_series_dp(NOT_A_PRODUCT, 40))
    assert fac.exponents[:len(read)] == tuple(read)
    assert not detect_period(fac, 8, 4).periodic


def test_non_series_input_is_refused_by_type():
    with pytest.raises(PreconditionViolated, match="got list"):
        euler_exponents([1, 2, 3])


def test_stream_checks_the_constant_term_at_the_call():
    # no next(): the check runs before the generator is first read
    with pytest.raises(NonUnitConstantTerm):
        exponent_stream(IntSeries([2, 1]))
    with pytest.raises(NonUnitConstantTerm):
        euler_exponents(IntSeries([2, 1]))


def test_an_all_zero_verdict_is_the_empty_product():
    # the unrestricted count's factorization of 1: every c_m is 0
    verdict = detect_period(euler_exponents(one(30)), d_max=8)
    assert verdict == PeriodicVerdict(True, 1, ((0, 0),))
    assert verdict.to_product_spec() == ProductSpec(1, ())
    assert product_series(verdict.to_product_spec(), 30) == one(30)


def test_a_factorization_is_read_with_or_without_its_order():
    fac = EulerFactorization((1, 1, 1))
    assert detect_period(fac, 1, order=3) == PeriodicVerdict(True, 1, ((0, 1),))
    assert detect_period(fac, 1, order=3) == detect_period(fac, 1)


def test_order_bounds_the_read_of_a_stream():
    # a stream that fails when asked for item order + 1: reading past the
    # order, as an endless stream would be read, fails the test at once
    def ones(order):
        yield from (1,) * order
        raise AssertionError("read past the order")

    assert detect_period(ones(9), 3, order=9) == PeriodicVerdict(True, 1, ((0, 1),))
    # an exponent past the order is not read, so it cannot break the verdict
    assert detect_period(iter([1] * 24 + [9]), 8, order=24).period == 1
