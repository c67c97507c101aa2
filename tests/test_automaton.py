"""The period lemma behind the minimal automaton, the product of
per-rule automata against the build from a set's own window table, the
fold of each class's moves into a head and a shared tail, and the
automaton's rows against a walk over capped profiles.

The lemma is checked on the patterns themselves, with no automaton: past
T = (A+1)B(B-1) - B, adding B to a total adds 1 to every entry of each
of the first A flattest patterns.
"""

import json
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flatpart import automaton
from flatpart.automaton import (_build, _checks_by_top, _fold, automaton_rows,
                                minimal_automaton, period_bound)
from flatpart.conditions import ConditionSet, parse_condition_set
from flatpart.families import get_identity, registered_names
from flatpart.partitions import kth_flattest
from flatpart.search import SearchBounds, enumerate_condition_sets, search
from flatpart.series import partition_bits

SCREEN_BOXES = Path(__file__).resolve().parent.parent / "perfbench" / "screen_boxes.json"


def registry_forms():
    forms = {(f.rules, f.min_part)
             for f in (get_identity(name).flat for name in registered_names())}
    return sorted(forms, key=str)


def _window_table(rules, start: int):
    """Every forbidden window among parts <= start, as checks grouped by
    bottom value, and the widest spread w[0] - w[-1] among them.

    A window of rule A:B:C:D is fixed by its total t: it is
    kth_flattest(A, B, t).  A window whose parts are all <= start has
    t <= B*start, and the all-zero window (t = 0) is exempt, so walking
    t = 1..B*start lists each window that can occur exactly once.  A
    bottom value of 0 means the window ends in fictitious zeros.

    A check (c0, eq, ge) with bottom value v says the window occurs iff
    the multiplicity of v is >= c0, the profile slots in eq (slot i holds
    the multiplicity of v+1+i) hold exactly the stated count, and the
    slots in ge hold at least it."""
    table = defaultdict(list)
    span = 0
    for rule in rules:
        for t in range(1, rule.width * start + 1):
            if not rule.sum_matches(t):
                continue
            w = kth_flattest(rule.flatness_index, rule.width, t)
            if w is None or w[0] > start:
                continue
            counts = Counter(x - w[-1] for x in w)
            top = w[0] - w[-1]
            eq = tuple((u - 1, counts[u]) for u in range(1, top))
            ge = ((top - 1, counts[top]),) if top > 0 else ()
            table[w[-1]].append((counts[0], eq, ge))
            span = max(span, top)
    return table, span


def _profile_ok(prof, eq, ge) -> bool:
    for i, val in eq:
        if prof[i] != val:
            return False
    for i, val in ge:
        if prof[i] < val:
            return False
    return True


def _lowest_completion(prof, checks, more: int) -> int:
    """Smallest multiplicity of the bottom value that completes one of
    these windows over the profile, or `more` when none does."""
    lowest = more
    for c0, eq, ge in checks:
        if c0 < lowest and _profile_ok(prof, eq, ge):
            lowest = c0
    return lowest


def _profile_walk(rules: tuple, order: int, start: int, min_part: int) -> tuple:
    """automaton_rows' rows by a value walk with no automaton: from start
    down to 1 it carries every capped profile, the multiplicities of the
    last few values, that some partition reaches, with parts in
    min_part..start."""
    cap = ConditionSet(rules).max_width()
    more = cap + 1  # capped multiplicity meaning "more than any window uses"
    windows, window_span = _window_table(rules, start)
    for v in range(1, min(min_part, start + 1)):
        windows[v].append((1, (), ()))  # any copy of v is one too many

    # Series are packed high-first, coefficient n in bits [(order-n)*b,
    # (order-n+1)*b), so q**k is a right shift.  No field carries into the
    # next (see counting's docstring), so a zero int is a zero series and
    # its profile is dropped exactly.
    b = partition_bits(order)
    top = order * b
    dp = {(0,) * window_span: 1 << top}

    for v in range(start, 0, -1):
        checks = windows.get(v, ())
        step = v * b
        ndp = defaultdict(int)
        for prof, vec in dp.items():
            lowest = _lowest_completion(prof, checks, more)
            for mu in range(min(cap, lowest - 1, order // v) + 1):
                ndp[((mu,) + prof)[:window_span]] += vec >> mu * step
            if lowest == more and more * v <= order:
                # vec * q**(more*v) / (1 - q**v), summed by doubling; each
                # partial sum still counts distinct partitions, so no carry
                tail, run = vec >> more * step, step
                while run <= top:
                    tail += tail >> run
                    run <<= 1
                ndp[((more,) + prof)[:window_span]] += tail
        dp = {prof: vec for prof, vec in ndp.items() if vec}

    # fictitious zeros: one final batch of checks, no weight.  A profile
    # counts for mu0 zeros iff the fewest zeros completing a window over
    # it exceeds mu0.  Every check needs at most cap zeros, so more zeros
    # than that change nothing.  Each row sums a subset of the profiles,
    # as a single zero count's total would.
    checks = windows.get(0, ())
    rows = [0] * more
    for prof, vec in dp.items():
        for mu0 in range(_lowest_completion(prof, checks, more)):
            rows[mu0] += vec
    return tuple(rows)


def screen_box_sets():
    """The distinct rule sets of both perfbench screen boxes."""
    with open(SCREEN_BOXES) as fh:
        boxes = json.load(fh)
    return sorted({cs.rules for box in boxes
                   for cs in enumerate_condition_sets(
                       SearchBounds.from_json(json.dumps(box["bounds"])))})


def assert_product_equals_direct_build(rules, min_part, orders):
    """minimal_automaton's product against the build from the set's own
    window table: the same class count, phases and rows."""
    direct, product = _build(rules, min_part), minimal_automaton(rules, min_part)
    assert ((len(product.moves), product.first, product.period, product.more)
            == (len(direct.moves), direct.first, direct.period, direct.more)), rules
    for order in orders:
        for start in (order // 3, order):
            rows = automaton_rows(rules, order, start, min_part)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(automaton, "minimal_automaton", lambda *_: direct)
                assert (automaton_rows.__wrapped__(rules, order, start, min_part)
                        == rows), rules


@pytest.mark.parametrize("width", range(1, 6))
def test_flat_patterns_shift_past_the_lemma_threshold(width):
    for a in range(1, 6):
        # width 1 has the one pattern (t) from t = 1
        threshold = (a + 1) * width * (width - 1) - width if width > 1 else 1
        for t in range(threshold, threshold + 61):
            w = kth_flattest(a, width, t)
            shifted = kth_flattest(a, width, t + width)
            if w is None:
                assert width == 1 and a > 1 and shifted is None
            else:
                assert shifted == tuple(x + 1 for x in w), (a, width, t)


def test_checks_repeat_with_the_period_past_the_bound():
    # the tightened bound first is at most the lemma's, and exact too
    for rules, min_part in registry_forms():
        bound, period = period_bound(rules, min_part)
        first = minimal_automaton(rules, min_part).first
        assert first <= bound
        top = bound + 3 * period + 8
        groups = _checks_by_top(rules, min_part, top)
        for u in range(first, top - period + 1):
            assert groups[u] == groups[u + period], (rules, min_part, u)


@pytest.mark.parametrize("order", [200, 600])
def test_automaton_equals_the_profile_walk_on_the_registry(order):
    for rules, min_part in registry_forms():
        assert (automaton_rows(rules, order, order, min_part)
                == _profile_walk(rules, order, order, min_part)), (rules, order)


def test_no_row_is_wider_than_its_fields():
    # packed high-first, q**k drops what passes the order: no int grows
    # past (order+1)*b bits
    order = 200
    width = (order + 1) * partition_bits(order)
    for rules, min_part in registry_forms():
        rows = automaton_rows(rules, order, order, min_part)
        assert max(row.bit_length() for row in rows) <= width, rules


def test_product_equals_the_direct_build():
    sets = screen_box_sets()
    assert sets
    for rules in sets:
        assert_product_equals_direct_build(rules, 1, (30,))
    for rules, min_part in registry_forms():
        assert_product_equals_direct_build(rules, min_part, (30, 200))


def test_screen_box_builds_each_rule_once_and_each_pair_once(monkeypatch):
    # one cache holds single rules and sets alike: screen box 0's 40 rules
    # are built from their window tables once each, and each of its 780
    # two-rule sets is one product of two cached rules, save the 52 whose
    # one rule implies the other: those are counted on the one rule
    with open(SCREEN_BOXES) as fh:
        bounds = SearchBounds.from_json(json.dumps(json.load(fh)[0]["bounds"]))
    calls = Counter()

    def counted(name):
        original = getattr(automaton, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("_build", "_product"):
        monkeypatch.setattr(automaton, name, counted(name))
    automaton_rows.cache_clear()
    minimal_automaton.cache_clear()
    search(bounds)
    assert calls == {"_build": 40, "_product": 728}


def test_minimization_merges_profiles():
    # FAM1_1_K3's profile walk carries 73 or more profiles per stage at
    # order 600; its minimal automaton has 41 classes in 10 phases
    auto = minimal_automaton(get_identity("FAM1_1_K3").flat.rules, 1)
    assert (auto.first, auto.period, len(auto.moves)) == (7, 3, 41)
    assert max(map(len, auto.classes)) == 6
    # no rules: one class, every multiplicity allowed
    auto = minimal_automaton(parse_condition_set("").rules, 1)
    assert len(auto.moves) == 1 and len(auto.moves[0]) == auto.more + 1


def assert_fold_reproduces_the_moves(auto):
    """Every class's head and (k, t) tail give its move row back at every
    multiplicity, k is the smallest index the tail can start at, and past
    the head a class with no tail forbids the multiplicity (None)."""
    more = auto.more
    for row in auto.moves:
        head, tail = _fold(row, more)
        if tail is not None:
            k, t = tail
            assert len(head) == k and not (k and head[-1] == t), row
        for m in range(more + 3):
            capped = min(m, more)
            expected = row[capped] if capped < len(row) else None
            if m < len(head):
                got = head[m]
            else:
                got = tail[1] if tail is not None else None
            assert got == expected, (row, m)


def test_fold_reproduces_every_move_row():
    for rules, min_part in registry_forms():
        assert_fold_reproduces_the_moves(minimal_automaton(rules, min_part))
    for rules in screen_box_sets():
        assert_fold_reproduces_the_moves(minimal_automaton(rules, 1))


def test_fold_leaves_one_explicit_move_per_class():
    # every class of FAM1_1_K3 moves to one class on 1, 2 and "3 or more",
    # so the walk adds one unshifted series and one shared tail per class
    auto = minimal_automaton(get_identity("FAM1_1_K3").flat.rules, 1)
    assert max(len(_fold(row, auto.more)[0]) for row in auto.moves) == 1


@st.composite
def rule_sets(draw):
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 6))
        text = "%d:%d:%d:%d" % (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                                draw(st.integers(0, d - 1)), d)
        rules.append(text + ("" if draw(st.booleans()) else ":n"))
    return parse_condition_set(";".join(rules)).rules


@settings(derandomize=True, max_examples=25, deadline=None)
@given(rule_sets(), st.integers(1, 3), st.integers(0, 2))
def test_automaton_equals_the_profile_walk_below_the_order(rules, min_part, which):
    # a largest part below the order leaves tails that start past it:
    # k*u > order on the high values, k*u <= order on the low ones
    order = 150
    bound, period = period_bound(rules, min_part)
    start = min((1, bound + period - 1, order // 3)[which], order - 1)
    assert (automaton_rows(rules, order, start, min_part)
            == _profile_walk(rules, order, start, min_part)), (rules, start)
