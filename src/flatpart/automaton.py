"""The sum side of a rule set as a minimal periodic automaton.

A rule set with a zero count is a linked partition ideal (Andrews, The
Theory of Partitions, ch. 8), so its partitions are the words of a
finite automaton.  Read the multiplicities of the values 0, 1, 2, ...
upward, the multiplicity of 0 being the zero count.  A window begins at
its bottom value and is decided when its top value is read; trailing
zero multiplicities complete no window, so every live state accepts.
Takigiku and Tsuchioka (arXiv:1910.12461) prove identities from an
automaton of this kind.

Period lemma.  Take a rule A:B:C:D with B >= 2, and write W(t) for its
window of total t, kth_flattest(A, B, t).  The patterns of total s in
flatness (lexicographic) order begin at the first entry ceil(s/B), and
every first entry f from there to s occurs (f, then s - f spread over
B - 1 entries <= f).  Hence
  (a) the k-th pattern's first entry is at most ceil(s/B) + k - 1,
      below s/B + k;
  (b) a pattern that ends in 0 has its first entry >= ceil(s/(B-1)).
Let s = t + B with t >= T = (A+1)B(B-1) - B.  Then ceil(s/(B-1)) -
ceil(s/B) > s/(B(B-1)) - 1 >= A, so at least A first entries, and so
the first A patterns, come before any pattern ending in 0.  Taking 1
from every entry maps the patterns of s that end in a part >= 1 onto
the patterns of t, in order, so W(t + B) is W(t) plus 1 in every entry.
A total t and t + kB fire together when D divides kB, that is when k is
a multiple of D/gcd(B, D); with L the lcm of these over the rules,
W(t + LB) = W(t) + L, and both fire or neither, for every t >= T.
By (a) a window whose top value is u has total t > B(u - A), so
t >= T once u >= U = A + (A+1)(B-1) - 1; a window whose top is u + L
then has total t'' > B(u + L - A), so it is W(t'' - LB) + L with
t'' - LB >= T.  Stated relative to its top value, the checks at u and
at u + L are therefore the same for every u >= U.  For B = 1, W(t) is (t) when
A = 1 and absent otherwise, so U = 1.  period_bound takes U as the
maximum over the rules and min_part (values below min_part carry their
own check), and the build tightens it to the smallest U0 with equal
checks at u and u + L for every u in [U0, U); by the lemma that bound
is exact too.

The phase of value u is u below U0 and U0 + (u - U0) mod L from there
on.  A raw state is the phase of the next value and the windows begun
below it that may still occur (see _build), and Moore refinement seeded
by phase minimizes it, so at each value only the few classes of its
phase are live.  FAM1_1_K3 has 41 classes, at most 6 per phase, where a
walk over the capped multiplicities of the last few values carries 73
or more of them per stage at order 600.

A partition avoids a rule set exactly when it avoids each rule and obeys
the smallest-part bound, so the set's sum side is the intersection of
linked partition ideals, one per rule and one for the bound.  The
product construction of Rabin and Scott (1959) reads the automaton of
the set's prefix (the first rule with the bound, at the bottom) and that
of its last rule in lockstep, and completes a window when a factor
does.  Its period is the lcm of the factors' periods, and U0 is placed
on the union of their checks, so the product refined by phase is the
automaton the set's own window table gives.  minimal_automaton takes
the product when its cache holds the factors, the prefix's automaton or
every rule's, as in a depth-first search, where this fold is about
three times cheaper than a build.  A set that shares neither, such as a
registry form, is built once from its own window table, which on
seven-rule forms costs under half of the n builds and n - 1 products of
a cold fold.  One cache, bounded at 256 and least recently used out,
holds every automaton, a rule's or a set's, and _minimize explores and
refines the raw machine that _build or _product states.

_minimize explores breadth first from the start, of phase 0, and gives
a state first found from a state of phase p the phase follow[p] of the
next value.  A raw state of _build carries its phase; one of _product
is only the pair (a, b) of the factors' classes, since the pair fixes
the phase.  Pair lemma.  Each factor class lies in one phase, as
refinement is seeded by phase; let S = max(x.first, y.first) and f a
factor with f.first = S.  At a value u < S, f's phase is u itself, so
the pair gives u.  At u >= S, f's phase is at least S, so the pair
tells this case apart, and x's and y's phases give u mod Lx and u mod
Ly, so u mod lcm(Lx, Ly), which fixes the product's phase, since its
U0 is at most S.  So no two states that the phase would keep apart
share a pair.  Moore refinement reads each raw row through one
itemgetter made for it, every round and at assembly.

automaton_rows counts on it by a downward pull: r = 1 on every class
past the order, then r(s) = sum over m of q**(m*u) r(next(s, m)) for
each value u from the order down to 1, packed as in counting.py.  _fold
splits a row into a head row[:k] and a tail (k, t), k the least index
from which every move goes to t, and once per walk _stages makes each
phase's classes a stage table of entries (class, head[0], the heads
(mu, target) for 0 < mu < k, the tail).  At value u the walk reads
stages[phase(u)]: r(s) is r(head[0]), unshifted, plus each shifted head
up to the first mu*u past the order, plus r(t) q**(k*u) / (1 - q**u),
which is divided once per value u and distinct (k, t).  Each new r(s)
is written in place, and the reads come from prev, a copy of r's
references taken before value u, since a period-1 automaton's classes
past U0 move within their own phase.  Row z is r at the class the
start, class 0, reaches after z zeros.  These rows are the package's
one series cache.

pushed_rows reads the same stage tables upward, for the truncations P_j
(parts at most j): v = 1 on the class the start reaches after the
zeros, then at each value u = 1, 2, ... each class s of phase(u) sends
q**(m*u) v(s) to next(s, m), with one division by (1 - q**u) per
distinct tail, and P_u is the sum of v, since every live class accepts.
It keeps no cache.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from .partitions import _kth_flattest
from .series import packed_div_one_minus_qm, partition_bits


def period_bound(rules, min_part: int) -> tuple:
    """(U, L) of the period lemma: the checks whose top value is u are
    those at u + L, relative to their top, for every u >= U."""
    bound, period = min_part, 1
    for r in rules:
        a, b = r.flatness_index, r.width
        bound = max(bound, 1 if b == 1 else a + (a + 1) * (b - 1) - 1)
        period = lcm(period, r.modulus // gcd(b, r.modulus))
    return bound, period


def _checks_by_top(rules, min_part: int, top: int) -> list:
    """The windows of every value 0..top, grouped by the value read last
    (the window's top) and stated relative to it.

    A window whose top is s above its bottom is the tuple (c_s, ...,
    c_0), c_i its count of the value i above the bottom: it occurs iff
    its top and bottom values have multiplicities >= c_s and >= c_0 and
    every value between has exactly its count.  A bottom value of 0
    means the window ends in fictitious zeros."""
    groups = [set() for _ in range(top + 1)]
    for rule in rules:
        # a rule's window is fixed by its total t: it is
        # kth_flattest(A, B, t), and one whose parts are all <= top has
        # t <= B*top; the all-zero window (t = 0) is exempt
        for t in range(1, rule.width * top + 1):
            if not rule.sum_matches(t):
                continue
            w = _kth_flattest(rule.flatness_index, rule.width, t)
            if w is not None and w[0] <= top:
                counts = Counter(w)
                groups[w[0]].add(tuple(counts[u] for u in range(w[0], w[-1] - 1, -1)))
    for v in range(1, min(min_part, top + 1)):
        groups[v].add((1,))  # any copy of v is one too many
    return groups


class Automaton(NamedTuple):
    """A minimal automaton over multiplicities.  Class c moves on
    multiplicity m to moves[c][m] while m < len(moves[c]); any larger m
    completes a window.  Index more stands for every multiplicity >= more
    (cap + 1, cap the widest rule's width).  classes[p] lists the
    classes whose next value has phase p; class 0 is the start, the class
    before value 0 is read.  checks[p] holds the windows whose top value
    has phase p, as _checks_by_top states them; a product reads them to
    place its first phase."""

    first: int
    period: int
    more: int
    classes: tuple
    moves: tuple
    checks: tuple

    def phase(self, u: int) -> int:
        return u if u < self.first else self.first + (u - self.first) % self.period


def _phases(checks, first: int, period: int) -> tuple:
    """(U0, follow): the least U0 <= first with checks(u) == checks(u +
    period) on [U0, first), and the phase after each phase."""
    while first > 0 and checks(first - 1) == checks(first - 1 + period):
        first -= 1
    phases = first + period
    return first, [p + 1 if p + 1 < phases else first for p in range(phases)]


def _minimize(start, successors, follow: list, first: int, period: int,
              more: int, checks: tuple) -> Automaton:
    """The one construction step: explore the raw automaton breadth first
    from start, which becomes class 0 and has phase 0, along
    successors(state), the states reached on multiplicities 0, 1, ..;
    a state first found from a state of phase p has phase follow[p].
    Then Moore refinement, seeded by phase, splits classes by the classes
    they move to.  Each raw row is read through one itemgetter, made
    once: a row of one move gives a bare label, which equals no longer
    row's tuple, so the signatures part the states as the tuples would."""
    index, states, phases, moves = {start: 0}, [start], [0], []
    for s, state in enumerate(states):  # grows as new states are found
        phase, row = follow[phases[s]], []
        for target in successors(state):
            i = index.get(target)
            if i is None:
                i = index[target] = len(states)
                states.append(target)
                phases.append(phase)
            row.append(i)
        moves.append(row)
    reads = [itemgetter(*row) for row in moves]  # no row is empty: m = 0 ends no window
    label, count = phases, len(set(phases))
    while True:
        signatures = {}
        key = signatures.setdefault
        label = [key((c, read(label)), len(signatures))
                 for c, read in zip(label, reads)]
        if len(signatures) == count:
            break
        count = len(signatures)
        if count == len(moves):  # every state a class of its own
            break
    class_moves = [None] * count
    classes = [[] for _ in range(first + period)]
    for s, read in enumerate(reads):
        c = label[s]
        if class_moves[c] is None:
            row = read(label)
            class_moves[c] = row if len(moves[s]) > 1 else (row,)
            classes[phases[s]].append(c)
    return Automaton(first, period, more, tuple(map(tuple, classes)),
                     tuple(class_moves), checks)


def _build(rules: tuple, min_part: int) -> Automaton:
    """The phase-seeded minimal automaton of any rule set's sum side with
    any min_part, straight from its window table.

    A raw state is the phase of the next value and the set of windows
    begun below it that may still occur, each cut to the part not yet
    read: a window begins when its bottom is read and dies at the first
    value whose multiplicity differs from its count.  That is exactly
    what the values read so far tell every later window."""
    bound, period = period_bound(rules, min_part)
    groups = _checks_by_top(rules, min_part, bound + period - 1)
    first, follow = _phases(groups.__getitem__, bound, period)
    phases = first + period
    # ends[p]: a window whose top has phase p completes on a multiplicity
    # >= these; begins[p]: windows whose bottom has phase p, as (what is
    # left after the bottom, the bottom's count)
    ends = [{w[0] for w in groups[p] if len(w) == 1} for p in range(phases)]
    longest = max((len(w) for g in groups for w in g), default=1)
    begins = [set() for _ in range(phases)]
    for p in range(phases):
        q = p
        for s in range(1, longest):
            q = follow[q]
            begins[p].update((w[:-1], w[-1]) for w in groups[q] if len(w) == s + 1)
    more = max((r.width for r in rules), default=1) + 1

    def successors(state):
        # a window that m completes is completed by every larger m too;
        # a longer pending window lives on only when m is its next count
        phase, pending = state
        lowest, alive = min(ends[phase], default=more + 1), {}
        for w in pending:
            if len(w) == 1:
                lowest = min(lowest, w[0])
            else:
                alive.setdefault(w[-1], []).append(w[:-1])
        return [(follow[phase],
                 frozenset(alive.get(m, []) + [w for w, c0 in begins[phase] if m >= c0]))
                for m in range(min(lowest, more + 1))]

    return _minimize((0, frozenset()), successors, follow, first, period, more,
                     tuple(frozenset(groups[p]) for p in range(phases)))


def _product(x: Automaton, y: Automaton) -> Automaton:
    """The minimal automaton of the intersection of x's and y's sum
    sides: read both in lockstep from value 0, and complete a window
    when either does.  A state is the pair (a, b) of x's and y's classes,
    its phase found by the exploration (see the module docstring for why
    the pair fixes it).  The period is the lcm of theirs, and the first
    phase is placed on the union of their checks as _build places it;
    each union is formed once."""
    period = lcm(x.period, y.period)
    bound = max(x.first, y.first)
    checks = [x.checks[x.phase(u)] | y.checks[y.phase(u)]
              for u in range(bound + period)]
    first, follow = _phases(checks.__getitem__, bound, period)
    more = max(x.more, y.more)

    # a multiplicity at or above a factor's more takes its tail move
    x_moves, y_moves = ([row + row[-1:] * (more - f.more) if len(row) > f.more else row
                         for row in f.moves] for f in (x, y))

    def successors(state):
        a, b = state
        return zip(x_moves[a], y_moves[b])

    return _minimize((0, 0), successors, follow, first, period, more,
                     tuple(checks[:first + period]))


class CacheInfo(NamedTuple):
    """lru_cache's four fields, and how each miss was made: folds by
    _product, builds by _build (misses == folds + builds)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int
    folds: int
    builds: int


_AUTOMATA = OrderedDict()  # (rules, min_part) -> Automaton, least recent first
_AUTOMATA_MAX = 256
_COUNTS = Counter()  # hits, folds, builds


def minimal_automaton(rules: tuple, min_part: int) -> Automaton:
    """The phase-seeded minimal automaton of the rule set's sum side.

    A set of two or more rules is folded, the product of its prefix's
    automaton and its last rule's, when the cache holds the prefix's or
    every one of its rules' (min_part 1), as it does for the sets of a
    depth-first enumeration.  Any other set, one rule included, is built
    once from its own window table.  Both routes give the same automaton.
    One cache, least recently used out past 256 entries, holds rules and
    sets alike; cache_info() counts its misses by route too."""
    key = (rules, min_part)
    auto = _AUTOMATA.get(key)
    if auto is not None:
        _AUTOMATA.move_to_end(key)
        _COUNTS["hits"] += 1
        return auto
    if len(rules) > 1 and ((rules[:-1], min_part) in _AUTOMATA
                           or all(((r,), 1) in _AUTOMATA for r in rules)):
        _COUNTS["folds"] += 1
        auto = _product(minimal_automaton(rules[:-1], min_part),
                        minimal_automaton(rules[-1:], 1))
    else:
        _COUNTS["builds"] += 1
        auto = _build(rules, min_part)
    _AUTOMATA[key] = auto
    if len(_AUTOMATA) > _AUTOMATA_MAX:
        _AUTOMATA.popitem(last=False)
    return auto


def _cache_info() -> CacheInfo:
    folds, builds = _COUNTS["folds"], _COUNTS["builds"]
    return CacheInfo(_COUNTS["hits"], folds + builds, _AUTOMATA_MAX,
                     len(_AUTOMATA), folds, builds)


def _cache_clear() -> None:
    _AUTOMATA.clear()
    _COUNTS.clear()


minimal_automaton.cache_info = _cache_info
minimal_automaton.cache_clear = _cache_clear


def _fold(row: tuple, more: int) -> tuple:
    """A move row's (head, tail); tail None: any m past the head is forbidden."""
    if len(row) <= more:
        return row, None
    k = more
    while k and row[k - 1] == row[more]:
        k -= 1
    return row[:k], (k, row[more])


def _stages(auto: Automaton) -> list:
    """Each phase's stage table, read by the pull and the push: per class
    (class, head[0] or None, the heads (mu, target) for 0 < mu < k, the
    tail (k, t) or None)."""
    stages = []
    for cls in auto.classes:
        stage = []
        for c in cls:
            head, tail = _fold(auto.moves[c], auto.more)
            stage.append((c, head[0] if head else None,
                          tuple(enumerate(head))[1:], tail))
        stages.append(stage)
    return stages


@lru_cache(maxsize=128)
def automaton_rows(rules: tuple, order: int, min_part: int) -> tuple:
    """sum_series_dp's rows, cached for every zero count: row z holds the
    partitions with parts in min_part..order that no window forbids when
    z fictitious zeros sit below the smallest part, packed high-first in
    b-bit fields, b = partition_bits(order), as counting.py describes.

    Each value u pulls its stage's rows from prev, the snapshot of the
    rows of u + 1, into r."""
    auto = minimal_automaton(rules, min_part)
    b = partition_bits(order)
    top = order * b
    stages, first, period = _stages(auto), auto.first, auto.period
    r = [1 << top] * len(auto.moves)
    for u in range(order, 0, -1):
        step, most = u * b, order // u  # m*u <= order iff m <= most
        phase = u if u < first else first + (u - first) % period
        prev, tails = r[:], {}
        for c, h0, heads, tail in stages[phase]:
            vec = prev[h0] if h0 is not None else 0
            for mu, t in heads:
                if mu > most:
                    break
                vec += prev[t] >> mu * step
            if tail is not None and tail[0] <= most:
                if tail not in tails:  # r[t] * q**(k*u) / (1 - q**u)
                    k, t = tail
                    tails[tail] = packed_div_one_minus_qm(
                        prev[t] >> k * step, step, top)
                vec += tails[tail]
            r[c] = vec
    zeros = auto.moves[0]
    return tuple(r[zeros[z]] if z < len(zeros) else 0 for z in range(auto.more))


def pushed_rows(rules: tuple, order: int, zeros: int, min_part: int,
                largest: int) -> tuple:
    """P_0..P_largest, packed as automaton_rows packs its rows: P_j holds
    the partitions with parts in min_part..j that no window forbids after
    zeros fictitious zeros; from the order on it is the pull's row.  The
    tails that lead to one class are summed before their one division."""
    auto = minimal_automaton(rules, min_part)
    b = partition_bits(order)
    top = order * b
    stages, first, period = _stages(auto), auto.first, auto.period
    r = [0] * len(auto.moves)
    z = min(zeros, auto.more - 1)  # the pull's clamp of the zero count
    if z < len(auto.moves[0]):  # else the zeros alone complete a window
        r[auto.moves[0][z]] = 1 << top
    rows = [sum(r)]
    for u in range(1, largest + 1):
        step, most = u * b, order // u
        phase = u if u < first else first + (u - first) % period
        nxt, tails = [0] * len(r), {}
        for c, h0, heads, tail in stages[phase]:
            vec = r[c]
            if h0 is not None:
                nxt[h0] += vec
            for mu, t in heads:
                if mu > most:
                    break
                nxt[t] += vec >> mu * step
            if tail is not None and tail[0] <= most:
                tails[tail] = tails.get(tail, 0) + vec
        for (k, t), vec in tails.items():  # vec * q**(k*u) / (1 - q**u)
            nxt[t] += packed_div_one_minus_qm(vec >> k * step, step, top)
        r = nxt
        rows.append(sum(r))
    return tuple(rows)
