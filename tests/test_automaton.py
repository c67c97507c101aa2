"""The period lemma behind the minimal automaton, the pair lemma behind
its product states, the product of per-rule automata against the build
from a set's own window table, the fold of each class's moves into a
head and a shared tail, and the automaton's rows, pulled past the order
and pushed to every largest part, against a walk over capped profiles.

The lemma is checked on the patterns themselves, with no automaton: past
T = (A+1)B(B-1) - B, adding B to a total adds 1 to every entry of each
of the first A flattest patterns.
"""

import hashlib
import json
from collections import Counter, defaultdict
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flatpart import automaton
from flatpart.automaton import (_build, _checks_by_top, _fold, automaton_rows,
                                minimal_automaton, period_bound, pushed_rows)
from flatpart.conditions import ConditionSet, parse_condition_set
from flatpart.counting import packed_sum_series, sum_series_brute, sum_series_dp
from flatpart.families import get_identity, registered_names
from flatpart.partitions import kth_flattest, partitions_of
from flatpart.search import (SearchBounds, enumerate_condition_sets, reports_to_json,
                             search)
from flatpart.series import partition_bits, unpack
from flatpart.verify import verify_all

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
    """The automaton's rows for every zero count, parts in min_part..start,
    by a value walk with no automaton: from start down to 1 it carries
    every capped profile, the multiplicities of the last few values, that
    some partition reaches."""
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


def folded(rules, min_part):
    """The product construction, chained by hand: the first rule's
    automaton with the bound, then each later rule's, every factor built
    from its own window table."""
    return reduce(automaton._product, (_build((rule,), 1) for rule in rules[1:]),
                  _build(rules[:1], min_part))


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
        assert (automaton_rows(rules, order, min_part)
                == _profile_walk(rules, order, order, min_part)), (rules, order)


def test_no_row_is_wider_than_its_fields():
    # packed high-first, q**k drops what passes the order: no int grows
    # past (order+1)*b bits
    order = 200
    width = (order + 1) * partition_bits(order)
    for rules, min_part in registry_forms():
        rows = automaton_rows(rules, order, min_part)
        assert max(row.bit_length() for row in rows) <= width, rules


def test_product_equals_the_direct_build():
    # minimal_automaton folds only on cached factors, so the fold is
    # chained here on every set of both screen boxes and every registry
    # form, multi-rule or not, and must give the very same automaton
    forms = [(rules, 1) for rules in screen_box_sets()] + registry_forms()
    assert (len(forms), sum(len(rules) > 1 for rules, _ in forms)) == (887, 836)
    for rules, min_part in forms:
        assert folded(rules, min_part) == _build(rules, min_part), rules


def test_screen_box_builds_each_rule_once_and_each_pair_once(monkeypatch):
    # one cache holds single rules and sets alike: screen box 0's 40 rules
    # are built from their window tables once each, and each of its 780
    # two-rule sets is one product of two cached rules, save the 52 whose
    # one rule implies the other: those are counted on the one rule
    with open(SCREEN_BOXES) as fh:
        bounds = SearchBounds.from_json(json.dumps(json.load(fh)[0]["bounds"]))
    calls, classes = Counter(), []

    def counted(name):
        original = getattr(automaton, name)

        def wrapper(*args):
            calls[name] += 1
            auto = original(*args)
            classes.append(len(auto.moves))
            return auto
        return wrapper

    for name in ("_build", "_product"):
        monkeypatch.setattr(automaton, name, counted(name))
    automaton_rows.cache_clear()
    minimal_automaton.cache_clear()
    search(bounds)
    assert calls == {"_build": 40, "_product": 728}
    # Moore refinement's classes over all 768 automata, pinned
    assert sum(classes) == 9970


def count_constructions(monkeypatch) -> list:
    """Clear the walk and automaton caches, and log the rules of every
    _build call and None for every _product call."""
    log = []
    build, product = automaton._build, automaton._product

    def logged_build(rules, min_part):
        log.append(rules)
        return build(rules, min_part)

    def logged_product(x, y):
        log.append(None)
        return product(x, y)

    monkeypatch.setattr(automaton, "_build", logged_build)
    monkeypatch.setattr(automaton, "_product", logged_product)
    automaton_rows.cache_clear()
    minimal_automaton.cache_clear()
    return log


def test_a_cold_registry_check_builds_most_sets_once(monkeypatch):
    # each registry form is a set no other form shares: from a cold cache
    # its 56 multi-rule forms are made once each, 52 built from their own
    # window tables and 4 folded on rules already cached; the fold of
    # every form would make 78 builds and 91 products
    log = count_constructions(monkeypatch)
    assert all(report.passed for report in verify_all(200))
    info = minimal_automaton.cache_info()
    assert (info.builds, info.folds) == (66, 4)
    assert (len(log) - log.count(None), log.count(None)) == (66, 4)
    assert sum(rules is not None and len(rules) > 1 for rules in log) == 52
    assert info.misses == info.currsize == 70


GOLDEN_BOX = Path(__file__).resolve().parent / "golden" / "search_box0_max_rules3.json"


def test_the_many_rule_box_folds_every_set_of_more_than_one_rule(monkeypatch):
    # screen box 0 with up to three rules per set: every set of two or
    # three rules is a fold, as its rules or its prefix are cached by the
    # depth-first enumeration, and the report keeps its recorded digest
    golden = json.loads(GOLDEN_BOX.read_text())
    with open(SCREEN_BOXES) as fh:
        box = json.load(fh)[golden["box"]]
    bounds = SearchBounds.from_json(json.dumps(dict(box["bounds"],
                                                    max_rules=golden["max_rules"])))
    log = count_constructions(monkeypatch)
    reports = search(bounds)
    assert len(reports) == golden["hits"]
    digest = hashlib.sha256(reports_to_json(reports).encode()).hexdigest()
    assert digest == golden["sha256"]
    assert max(len(rules) for rules in log if rules is not None) == 1
    info = minimal_automaton.cache_info()
    assert (info.builds, info.folds) == (187, 8879)
    assert info.maxsize == 256 and info.currsize == 256


def explore_pairs(x, y, first: int, period: int, keyed) -> dict:
    """Breadth first over x's and y's move rows in lockstep from (0, 0),
    each row padded with its tail move to the wider more, following each
    state's phase; returns {keyed(phase, a, b): phase}."""
    more = max(x.more, y.more)
    x_moves, y_moves = ([row + (row[-1],) * (more - f.more) if len(row) > f.more else row
                         for row in f.moves] for f in (x, y))
    found, queue = {keyed(0, 0, 0): 0}, [(0, 0, 0)]
    for phase, a, b in queue:
        nxt = phase + 1 if phase + 1 < first + period else first
        for s, t in zip(x_moves[a], y_moves[b]):
            key = keyed(nxt, s, t)
            if key not in found:
                found[key] = nxt
                queue.append((nxt, s, t))
    return found


def test_a_pair_of_classes_fixes_the_phase():
    # the product explores pairs (a, b) only: keyed with the phase too,
    # the exploration reaches no more states, and each pair at one phase
    forms = [(rules, 1) for rules in screen_box_sets()] + registry_forms()
    pairs = {(rules[:k], min_part) for rules, min_part in forms
             for k in range(2, len(rules) + 1)}
    assert len(pairs) > 100
    for rules, min_part in sorted(pairs, key=str):
        x = minimal_automaton(rules[:-1], min_part)
        y = minimal_automaton(rules[-1:], 1)
        product = minimal_automaton(rules, min_part)
        triples = explore_pairs(x, y, product.first, product.period,
                                lambda p, a, b: (p, a, b))
        by_pair = explore_pairs(x, y, product.first, product.period,
                                lambda p, a, b: (a, b))
        # as many states either way, so each pair occurs at one phase
        assert sorted((a, b) for _, a, b in triples) == sorted(by_pair), rules
        assert all(by_pair[a, b] == p for p, a, b in triples), rules


@pytest.mark.parametrize("text, lengths", [
    ("1:1:0:1", {1, 3}),  # past value 0 every class has one move
    ("1:1:0:2;2:3:1:3 +1z", {1, 2, 5}),
])
def test_one_move_rows_refine_like_longer_ones(text, lengths):
    # Moore reads a one-move row as a bare label, a longer one as a tuple
    cs = parse_condition_set(text)
    auto = minimal_automaton(cs.rules, cs.min_part)
    assert {len(row) for row in auto.moves} == lengths
    assert folded(cs.rules, cs.min_part) == _build(cs.rules, cs.min_part) == auto
    # with the automaton of no rules on either side, the product is itself
    none = minimal_automaton((), 1)
    assert automaton._product(auto, none) == auto == automaton._product(none, auto)
    assert sum_series_dp(cs, 30) == sum_series_brute(cs, 30)


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
    # the push to a largest part below the order, at every zero count:
    # k*u > order on the high values, k*u <= order on the low ones
    order = 150
    bound, period = period_bound(rules, min_part)
    start = min((1, bound + period - 1, order // 3)[which], order - 1)
    walk = _profile_walk(rules, order, start, min_part)
    assert (tuple(pushed_rows(rules, order, z, min_part, start)[start]
                  for z in range(len(walk))) == walk), (rules, start)


def test_push_without_rules_counts_partitions_by_largest_part():
    order = 20
    b = partition_bits(order)
    rows = pushed_rows((), order, 0, 1, order + 2)
    for j, row in enumerate(rows):
        assert unpack(row, b, order).coeffs == tuple(
            len(partitions_of(n, max_part=j)) for n in range(order + 1)), j


def test_push_to_largest_part_zero_is_the_empty_partition():
    for text in ("", "1:2:1:2", "1:3:0:1;2:2:1:2 +5z"):
        cs = parse_condition_set(text)
        for order in (0, 7):
            assert (pushed_rows(cs.rules, order, cs.zeros, 2, 0)
                    == (1 << order * partition_bits(order),)), (text, order)


@pytest.mark.parametrize("text", ["1:2:1:2 +1z", "1:3:0:1;2:2:1:2 +5z",
                                  "2:1:1:4;2:2:1:2 +2z"])
def test_push_past_the_order_is_the_pull(text):
    # more zeros than any rule is wide take the pull's clamp; every
    # largest part from the order up gives the pull's row
    cs = parse_condition_set(text)
    for order in (0, 1, 20):
        row = packed_sum_series(cs, order)[0]
        rows = pushed_rows(cs.irredundant_rules(), order, cs.zeros, cs.min_part,
                           order + 3)
        assert rows[order:] == (row,) * 4, (text, order)


def test_push_reproduces_the_walk_on_the_registry():
    # the walk's rows to largest part j <= 30 at order 150 on every
    # registry entry, as "name j row" lines, hashed before the walk lost
    # its largest part
    lines = []
    for name in registered_names():
        cs = get_identity(name).flat
        rows = pushed_rows(cs.irredundant_rules(), 150, cs.zeros, cs.min_part, 30)
        lines += ["%s %d %d" % (name, j, row) for j, row in enumerate(rows)]
    assert len(lines) == 2635
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "32ebe3e359ef57ce7bf342637fd1dc7b6bfa64479b3fa6b157ad3508b5ce590e")
