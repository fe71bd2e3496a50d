"""Shared fixtures: the automaton zoo plus independent semantic membership
oracles for each fixture language, used to validate the automata themselves,
and brute-force oracles for the normal form and the union automata."""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass

import pytest

from posaut import zoo
from posaut.automaton import EPS, UPWord, even_cycle_sccs, tarjan_scc


def _expand(u, v, n):
    out = list(u)
    while len(out) < n:
        out.extend(v)
    return "".join(out[:n])


def occurs_infinitely(u, v, factor):
    """Does `factor` occur infinitely often in u . v^omega?"""
    reps = (len(factor) // len(v) + 2) * "".join(v)
    return factor in reps


def occurs_at_all(u, v, factor):
    prefix = _expand(u, v, len(u) + len(factor) + 2 * len(v))
    return factor in prefix or occurs_infinitely(u, v, factor)


def oracle_inf_a_or_fin_bb(u, v):
    if "a" in v:
        return True
    if "a" in u:
        return False
    return not occurs_infinitely(u, v, "bb")


def oracle_buchi_a_or_reach_aa(u, v):
    return "a" in v or occurs_at_all(u, v, "aa")


def oracle_reach_aa(u, v):
    return occurs_at_all(u, v, "aa")


def oracle_reach_two_a(u, v):
    text = _expand(u, v, len(u) + 2 * len(v) + 4)
    if "a" in v:
        return True
    return text.count("a") >= 2 or ("".join(u)).count("a") >= 2


def oracle_fin_ac_or_fin_bb(u, v):
    return not occurs_infinitely(u, v, "ac") or not occurs_infinitely(u, v, "bb")


_NCV_NFA = {
    ("f0", "c"): {"f1"},
    ("f1", "a"): {"f1"},
    ("f1", "c"): {"f2"},
    ("f2", "a"): {"f1"},
    ("f2", "b"): {"f2"},
    ("f2", "c"): {"f2", "acc"},
}


def _has_factor_prefix(period):
    """Does period^omega have a prefix in c(a*cb*)+c?"""
    state = frozenset({"f0"})
    seen = set()
    pos = 0
    while (state, pos) not in seen:
        seen.add((state, pos))
        letter = period[pos]
        nxt = set()
        for q in state:
            nxt |= _NCV_NFA.get((q, letter), set())
        if "acc" in nxt:
            return True
        if not nxt:
            return False
        state = frozenset(nxt)
        pos = (pos + 1) % len(period)
    return False


def oracle_fin_nested_c_factors(u, v):
    """Some tail is free of c(a*cb*)+c factors: no rotation of the period
    starts one."""
    v = tuple(v)
    return not any(_has_factor_prefix(v[i:] + v[:i]) for i in range(len(v)))


def oracle_tail_const_or_two_c(u, v):
    if set(v) == {"a"} or set(v) == {"b"}:
        return True
    text = "".join(u) + "".join(v) * 3
    return text.startswith("c") and "c" in text[1:]


def oracle_first_letter_inf(u, v):
    first = (list(u) + list(v))[0]
    return first in v


def oracle_min_letter_even(u, v):
    m = min(int(x) for x in tuple(u) + tuple(v))
    return m % 2 == 0


def oracle_parity_letters(u, v):
    return min(int(x) for x in v) % 2 == 0


FIXTURES = {
    "inf_a_or_fin_bb": (zoo.aut_inf_a_or_fin_bb, oracle_inf_a_or_fin_bb),
    "buchi_a_or_reach_aa": (zoo.aut_buchi_a_or_reach_aa, oracle_buchi_a_or_reach_aa),
    "reach_aa": (zoo.aut_reach_aa, oracle_reach_aa),
    "reach_two_a": (zoo.aut_reach_two_a, oracle_reach_two_a),
    "fin_ac_or_fin_bb": (zoo.aut_fin_ac_or_fin_bb, oracle_fin_ac_or_fin_bb),
    "fin_nested_c_factors": (
        zoo.aut_fin_nested_c_factors,
        oracle_fin_nested_c_factors,
    ),
    "tail_const_or_two_c": (zoo.aut_tail_const_or_two_c, oracle_tail_const_or_two_c),
    "first_letter_inf": (zoo.aut_first_letter_inf, oracle_first_letter_inf),
    "min_letter_even": (zoo.aut_min_letter_even, oracle_min_letter_even),
    "parity_letters": (zoo.aut_parity_letters, oracle_parity_letters),
}

POSITIONAL_FIXTURES = [
    "inf_a_or_fin_bb",
    "buchi_a_or_reach_aa",
    "reach_two_a",
    "fin_ac_or_fin_bb",
    "fin_nested_c_factors",
    "tail_const_or_two_c",
    "min_letter_even",
    "parity_letters",
]

NOT_POSITIONAL_FIXTURES = ["reach_aa", "first_letter_inf"]


def random_upword(rng, alphabet, max_u=4, max_v=4):
    u = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_u)))
    v = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_v)))
    return u, v


def random_automaton(rng, n, letters, dmax=3, initial=0):
    from posaut.automaton import build

    trans = [
        (q, a, rng.randint(0, dmax), rng.randrange(n))
        for q in range(n)
        for a in letters
    ]
    return build(n, letters, initial, trans)


def random_eps_automaton(rng, letters):
    """A random automaton with eps-transitions, possibly nondeterministic and
    incomplete, over `letters`, with priorities in 0..4."""
    from posaut.automaton import build

    n = rng.randint(1, 5)
    trans = [
        (rng.randrange(n), rng.choice(letters + (EPS, EPS)), rng.randint(0, 4), rng.randrange(n))
        for _ in range(rng.randint(1, 4 * n))
    ]
    return build(n, letters, rng.randrange(n), trans, deterministic=False)


def blowup(aut, k, seed):
    """k copies of every state of the deterministic `aut`; each copied
    transition goes to a copy of its target drawn by random.Random(seed).
    The copies are bisimilar to their original, so the trimmed result
    recognises the language of `aut`."""
    from posaut.automaton import build

    rng = random.Random(seed)
    trans = [
        (t.src * k + i, t.letter, t.priority, t.dst * k + rng.randrange(k))
        for t in aut.transitions
        for i in range(k)
    ]
    return build(
        aut.n_states * k, aut.alphabet, aut.initial * k, trans, deterministic=True
    ).trim()


def seed_65_blowup(k):
    """The non-positional blow-ups of the ROADMAP baseline: a random DPA
    drawn from random.Random(65) (n = 18, 3 letters, d_max = 4; the draws of
    `bench/inputs.random_dpa`), trimmed and blown up k times."""
    rng = random.Random(65)
    n = rng.randint(13, 20)
    letters = ("a", "b", "c")[: rng.choice((2, 3))]
    aut = random_automaton(rng, n, letters, dmax=rng.choice((2, 3, 4, 5))).trim()
    return blowup(aut, k, 65)


def enumerate_cycles(aut):
    """All transition subsets that form a strongly connected subgraph, i.e.
    support a closed walk using exactly those transitions.  Exponential;
    for small oracle automata only."""
    from posaut.automaton import tarjan_scc

    m = len(aut.transitions)
    cycles = []
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(m), size):
            states = set()
            for i in combo:
                t = aut.transitions[i]
                states.add(t.src)
                states.add(t.dst)
            remap = {q: k for k, q in enumerate(sorted(states))}
            comps = tarjan_scc(
                len(states),
                ((remap[aut.transitions[i].src], remap[aut.transitions[i].dst]) for i in combo),
            )
            if len(comps) == 1 and (len(states) > 1 or combo):
                # single SCC covering all touched states
                cycles.append(frozenset(combo))
    return cycles


def brute_force_minimal_labelling(aut, max_priority):
    """Pointwise-minimal equivalent labelling restricted to cycle transitions.

    Enumerates all labellings with priorities in [0, max_priority] that agree
    with the original on the parity of every cycle's minimum and returns, per
    cycle transition, the least priority any of them assigns.
    """
    cycles = enumerate_cycles(aut)
    cycle_trans = sorted({i for c in cycles for i in c})
    orig = [t.priority for t in aut.transitions]
    want = [min(orig[i] for i in c) % 2 for c in cycles]
    best: dict[int, int] = {}
    for labels in itertools.product(range(max_priority + 1), repeat=len(cycle_trans)):
        assign = dict(zip(cycle_trans, labels))
        ok = True
        for c, parity in zip(cycles, want):
            if min(assign[i] for i in c) % 2 != parity:
                ok = False
                break
        if not ok:
            continue
        for i in cycle_trans:
            if i not in best or assign[i] < best[i]:
                best[i] = assign[i]
    return best


def union_accepts(letters_inf, tuples) -> bool:
    """Direct evaluation: some stream's minimum over the recurring letters is even."""
    k = len(next(iter(tuples.values())))
    for i in range(k):
        m = min(tuples[a][i] for a in letters_inf)
        if m % 2 == 0:
            return True
    return False


def run_lasso(aut, u, v) -> bool:
    """Does the deterministic automaton `aut` accept u . v^omega (min-even
    over the recurring priorities)?"""
    q = aut.initial
    for a in u:
        q = aut.delta[a][q].dst
    seen = {}
    trace = []
    pos = 0
    while (q, pos) not in seen:
        seen[(q, pos)] = len(trace)
        t = aut.delta[v[pos]][q]
        q = t.dst
        trace.append(t.priority)
        pos = (pos + 1) % len(v)
    start = seen[(q, pos)]
    return min(trace[start:]) % 2 == 0



# ---------------------------------------------------------------------------
# Reference union DPA: the Zielonka tree on frozensets of letters, each
# node's children computed anew, and each transition found by walking the
# leaf's branch from the root
# ---------------------------------------------------------------------------


def _reference_f_union(letters, tuples):
    if not letters:
        return False
    k = len(next(iter(tuples.values())))
    return any(min(tuples[a][i] for a in letters) % 2 == 0 for i in range(k))


def reference_children_sets(letters, tuples, accept):
    """The maximal subsets of `letters` whose acceptance differs from
    `accept`: each candidate tests every letter against its threshold tuple,
    and the maximal ones are kept in candidate order."""
    k = len(next(iter(tuples.values())))
    values = [sorted({tuples[a][i] for a in letters}) for i in range(k)]
    candidates = []
    if accept:
        options = [[None] + [v for v in values[i] if v % 2 == 1] for i in range(k)]
        for thresholds in itertools.product(*options):
            sub = frozenset(
                a
                for a in letters
                if all(t is None or tuples[a][i] >= t for i, t in enumerate(thresholds))
            )
            if sub and not _reference_f_union(sub, tuples):
                candidates.append(sub)
    else:
        for i in range(k):
            for e in values[i]:
                if e % 2 != 0:
                    continue
                sub = frozenset(a for a in letters if tuples[a][i] >= e)
                if sub and _reference_f_union(sub, tuples):
                    candidates.append(sub)
    out = []
    for s in candidates:
        if any(s < t for t in candidates):
            continue
        if s not in out:
            out.append(s)
    return out


@dataclass
class _RefZNode:
    letters: frozenset
    accept: bool
    depth: int
    children: list
    leaf_index: int | None = None


def reference_union_parity_automaton(letters, tuples):
    """The Zielonka-tree DPA of the union condition over `letters`: the tree
    built subset by subset, children sorted by their sorted letters, and
    each transition found by walking the leaf's branch."""
    from posaut.automaton import build

    def subtree(subset, depth):
        node = _RefZNode(frozenset(subset), _reference_f_union(subset, tuples), depth, [])
        for child in sorted(reference_children_sets(subset, tuples, node.accept), key=sorted):
            node.children.append(subtree(child, depth + 1))
        return node

    root = subtree(frozenset(letters), 0)
    leaves = []  # branches, root first

    def collect(node, path):
        path = path + [node]
        if not node.children:
            node.leaf_index = len(leaves)
            leaves.append(path)
        for ch in node.children:
            collect(ch, path)

    collect(root, [])
    base = 0 if root.accept else 1
    trans = []
    for idx, branch in enumerate(leaves):
        for a in letters:
            support = None
            for node in branch:
                if a in node.letters:
                    support = node
                else:
                    break
            if not support.children:
                nxt = support.leaf_index
            else:
                on_branch = branch[support.depth + 1]
                pos = support.children.index(on_branch)
                node = support.children[(pos + 1) % len(support.children)]
                while node.children:
                    node = node.children[0]
                nxt = node.leaf_index
            trans.append((idx, a, support.depth + base, nxt))
    return build(len(leaves), letters, 0, trans, deterministic=True)


@pytest.fixture
def rng():
    return random.Random(12345)


# ---------------------------------------------------------------------------
# Safe inclusion and progress consistency pair by pair, as `lang` and
# `progress` decided them before the all-pairs searches: the references for
# their relations, separating words and witnesses.  Progress consistency
# intersects two finite-word DFAs per ordered pair: the (>= x) routes from q
# to p, and p's nonempty loops at an odd least priority
# ---------------------------------------------------------------------------


def reference_safe_incl(aut, x, q, p):
    """`lang.safe_incl` by one forward breadth-first search over pairs from
    (q, p): True, or the first separating word it meets."""
    from posaut.lang import check_det_over_geq

    ok = check_det_over_geq(aut, x)
    if ok is not True:
        raise ValueError(f"not deterministic over >= {x} transitions: {ok}")

    def step(s, a):
        for t in aut.succ(s, a):
            if t.priority >= x and not t.is_eps:
                return t.dst
        return None

    start = (q, p)
    prev = {start: None}
    queue = deque([start])
    while queue:
        s, t = queue.popleft()
        for a in aut.alphabet:
            s2 = step(s, a)
            if s2 is None:
                continue
            t2 = step(t, a)
            if t2 is None:
                word = [a]
                node = (s, t)
                while prev[node] is not None:
                    node, letter = prev[node]
                    word.append(letter)
                return tuple(reversed(word))
            if (s2, t2) not in prev:
                prev[(s2, t2)] = ((s, t), a)
                queue.append((s2, t2))
    return True


@dataclass(frozen=True)
class WordDfa:
    """Partial DFA over finite words (missing transitions reject)."""

    n: int
    alphabet: tuple[str, ...]
    initial: int
    accepting: frozenset[int]
    delta: dict[tuple[int, str], int]

    def accepts(self, word) -> bool:
        q = self.initial
        for a in word:
            if (q, a) not in self.delta:
                return False
            q = self.delta[(q, a)]
        return q in self.accepting


def intersect_shortest(d1: WordDfa, d2: WordDfa):
    """Shortest word accepted by both, or None."""
    start = (d1.initial, d2.initial)
    acc = lambda s: s[0] in d1.accepting and s[1] in d2.accepting
    if acc(start):
        return ()
    prev = {start: None}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for a in d1.alphabet:
            if (s[0], a) not in d1.delta or (s[1], a) not in d2.delta:
                continue
            nxt = (d1.delta[(s[0], a)], d2.delta[(s[1], a)])
            if nxt not in prev:
                prev[nxt] = (s, a)
                if acc(nxt):
                    word = []
                    t = nxt
                    while prev[t] is not None:
                        t, letter = prev[t]
                        word.append(letter)
                    return tuple(reversed(word))
                queue.append(nxt)
    return None


def finite_path_language(aut, q, p, mode) -> WordDfa:
    """DFA for the finite words labelling q-to-p paths.

    mode ("at-least", x): paths producing no priority < x (the empty path
    included when q == p); mode ("exactly", x): paths whose minimal priority
    is exactly x, via a product with a min-priority tracker.
    """
    kind, x = mode
    if kind == "at-least":
        delta = {}
        for t in aut.transitions:
            if t.is_eps or t.priority < x:
                continue
            key = (t.src, t.letter)
            if key in delta and delta[key] != t.dst:
                raise ValueError(f"not deterministic over >= {x} transitions at {key}")
            delta[key] = t.dst
        return WordDfa(aut.n_states, aut.alphabet, q, frozenset([p]), delta)
    if kind != "exactly":
        raise ValueError(f"unknown mode {kind!r}")
    return _tracker_dfa(aut, q, frozenset([(p, x)]))


def _tracker_dfa(aut, q, accepting_pairs) -> WordDfa:
    """Product with a running-minimum tracker; state None means 'no step yet'."""
    states = {(q, None): 0}
    delta = {}
    queue = deque([(q, None)])
    while queue:
        s, m = queue.popleft()
        sid = states[(s, m)]
        for a in aut.alphabet:
            ts = aut.succ(s, a)
            if not ts:
                continue
            if len(ts) != 1:
                raise ValueError(f"the run of state {q} forks at state {s} on {a!r}")
            t = ts[0]
            m2 = t.priority if m is None else min(m, t.priority)
            key = (t.dst, m2)
            if key not in states:
                states[key] = len(states)
                queue.append(key)
            delta[(sid, a)] = states[key]
    accepting = frozenset(
        states[(s, m)] for (s, m) in states if (s, m) in accepting_pairs
    )
    return WordDfa(len(states), aut.alphabet, 0, accepting, delta)


def odd_cycle_dfa(aut, p) -> WordDfa:
    """Nonempty words looping p back to p with odd minimal priority."""
    prios = {t.priority for t in aut.transitions}
    accepting = frozenset((p, y) for y in prios if y % 2 == 1)
    return _tracker_dfa(aut, p, accepting)


def _reference_first_failure(aut, rank, x):
    for q in sorted(rank):
        for p in sorted(rank):
            if rank[q] >= rank[p]:
                continue
            route = finite_path_language(aut, q, p, ("at-least", x))
            w = intersect_shortest(route, odd_cycle_dfa(aut, p))
            if w is not None:
                return q, p, w
    return None


def reference_progress_consistency(aut, rp):
    """`progress.check_progress_consistency(aut, rp)` with two DFAs and one
    intersection per ordered pair."""
    from posaut.witnesses import ProgressWitness

    if not rp.total:
        raise ValueError("residual preorder is not total; use its witness instead")
    found = _reference_first_failure(aut, rp.rank, 0)
    if found is None:
        return True
    q, p, w = found
    return ProgressWitness(
        kind="plain", q=q, p=p, w=w, context_u=reference_access_word(aut, q)
    )


def reference_full_progress_consistency(sig):
    """`progress.check_full_progress_consistency(sig)`, pair by pair."""
    from posaut.witnesses import ProgressWitness

    for x in range(0, sig.d + 1, 2):
        found = _reference_first_failure(sig.automaton, sig.preorders.levels[x], x)
        if found is not None:
            q, p, w = found
            return ProgressWitness(kind="full", q=q, p=p, w=w, level_x=x)
    return True


# ---------------------------------------------------------------------------
# Polishing with one breadth-first search per ordered pair of class members
# and per-state reach sets: the references for `signature._aux_graph` and
# `signature._class_unpolished`
# ---------------------------------------------------------------------------


def _reference_reach(aut, x):
    """Per state, the states reached by a (possibly empty) path of
    (>=x)-transitions."""
    adj = [[] for _ in range(aut.n_states)]
    for t in aut.transitions:
        if t.priority >= x:
            adj[t.src].append(t.dst)
    reach = []
    for q in aut.states():
        seen = {q}
        stack = [q]
        while stack:
            s = stack.pop()
            for u in adj[s]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        reach.append(seen)
    return reach


def reference_class_unpolished(aut, x, members) -> bool:
    """`signature._class_unpolished`: some member fails to reach another by
    (>x)-transitions, or some letter has an x-transition from some members
    but not from all."""
    reach_gtx = _reference_reach(aut, x + 1)
    if any(q1 != q2 and q2 not in reach_gtx[q1] for q1 in members for q2 in members):
        return True
    for a in aut.alphabet:
        with_x = sum(1 for q in members if any(t.priority == x for t in aut.succ(q, a)))
        if with_x and with_x != len(members):
            return True
    return False


def reference_aux_graph(aut, x, members):
    """`signature._aux_graph`, one search over (path state, witness state,
    flag) per ordered pair (q1, s) of members; the flag records whether the
    witness run ever produced a priority <= x."""
    from posaut.signature import PipelineError

    mem = set(members)
    edges = set()
    for q1 in members:
        for s in members:
            start = (q1, s, False)
            seen = {start}
            queue = deque([start])
            while queue:
                m, t, low = queue.popleft()
                for a in aut.alphabet:
                    mts = [tr for tr in aut.succ(m, a) if tr.priority >= x]
                    sts = aut.succ(t, a)
                    if not mts or not sts:
                        continue
                    if len(mts) != 1 or len(sts) != 1:
                        raise PipelineError("polish expects a deterministic automaton")
                    mt, st = mts[0], sts[0]
                    low2 = low or st.priority <= x
                    if mt.dst in mem:
                        if not low2:
                            edges.add((q1, mt.dst))
                        continue
                    node = (mt.dst, st.dst, low2)
                    if node not in seen:
                        seen.add(node)
                        queue.append(node)
    return edges


# ---------------------------------------------------------------------------
# Shortest witness words, each from its own breadth-first search as
# `automaton` and `signature` built them before they shared `explore`'s
# tree: the references for access words and two-loop witnesses
# ---------------------------------------------------------------------------


def reference_access_word(aut, target):
    """`automaton.access_word`: shortest word reaching `target` from the
    initial state, eps moves skipped."""
    if target == aut.initial:
        return ()
    prev = {aut.initial: None}
    queue = deque([aut.initial])
    while queue:
        q = queue.popleft()
        for t in aut.by_src[q]:
            if t.is_eps:
                continue
            if t.dst not in prev:
                prev[t.dst] = (q, t.letter)
                if t.dst == target:
                    word = []
                    s = target
                    while prev[s] is not None:
                        s0, a = prev[s]
                        word.append(a)
                        s = s0
                    return tuple(reversed(word))
                queue.append(t.dst)
    return None


def _reference_loops_back(aut, r, s):
    top = aut.d_max + 1
    start = (r, s, top, top)
    prev = {start: None}
    queue = deque([start])
    found = {}
    while queue:
        node = queue.popleft()
        s1, s2, m1, m2 = node
        for a, ts in aut.delta.items():
            t1, t2 = ts[s1], ts[s2]
            nxt = (t1.dst, t2.dst, min(m1, t1.priority), min(m2, t2.priority))
            if nxt in prev:
                continue
            prev[nxt] = (node, a)
            queue.append(nxt)
            if nxt[0] == nxt[1] == r and nxt[2] % 2 and nxt[3] not in found:
                word, back = [], nxt
                while prev[back] is not None:
                    back, letter = prev[back]
                    word.append(letter)
                found[nxt[3]] = tuple(reversed(word))
    return found


def reference_hub_loops(aut):
    """`signature._hub_loops`: the two-loop witness of the first ordered hub
    pair that carries one, or None."""
    from itertools import permutations

    from posaut.witnesses import TwoLoopData

    for r1, r2 in permutations(aut.states(), 2):
        back1 = _reference_loops_back(aut, r1, r2)
        if not back1:
            continue
        back2 = _reference_loops_back(aut, r2, r1)
        pairs = [
            (len(w1) + len(w2), w1, w2)
            for m1, w1 in back1.items()
            for m2, w2 in back2.items()
            if min(m1, m2) % 2 == 0
        ]
        if pairs:
            _, l1, l2 = min(pairs)
            return TwoLoopData(reference_access_word(aut, r1), l1, l2)
    return None


def reference_monoid_loops(aut):
    """`signature._monoid_loops`: a two-loop witness from the transition
    monoid, each element with the shortest word found first, or None."""
    from posaut.signature import _accepts_rounds
    from posaut.witnesses import TwoLoopData

    words = {}
    queue = deque()
    for a, ts in aut.delta.items():
        e = tuple((t.dst, t.priority) for t in ts)
        if e not in words:
            words[e] = (a,)
            queue.append(e)
    while queue:
        e = queue.popleft()
        for a, ts in aut.delta.items():
            f = tuple((ts[d].dst, min(m, ts[d].priority)) for d, m in e)
            if f not in words:
                words[f] = words[e] + (a,)
                queue.append(f)
    for q in aut.states():
        rejected = [e for e in words if not _accepts_rounds(q, (e,))]
        for e in rejected:
            for f in rejected:
                if _accepts_rounds(q, (e, f)):
                    return TwoLoopData(reference_access_word(aut, q), words[e], words[f])
    return None


# ---------------------------------------------------------------------------
# The even-pair product search, as `lang` ran it before the parity-cycle
# kernel: the reference for every parity-cycle question and every lasso
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PEdge:
    src: int
    dst: int
    letter: str  # EPS when only the first coordinate moved
    pr1: int
    pr2: int | None  # None when the second coordinate stuttered


def _explore_product(a1: ParityAutomaton, a2: ParityAutomaton, starts):
    """Product of a1 (may have eps) with deterministic a2, reachable from the
    (q1, q2) pairs in `starts`, which get the first node ids in that order.

    Eps moves of a1 stutter a2 and carry no second-coordinate priority.
    Returns (node index map, edge list).
    """
    nodes: dict[tuple[int, int], int] = {}

    def nid(key):
        if key not in nodes:
            nodes[key] = len(nodes)
            queue.append(key)
        return nodes[key]

    queue: deque[tuple[int, int]] = deque()
    for key in starts:
        nid(key)
    edges: list[_PEdge] = []
    while queue:
        s, t = queue.popleft()
        sid = nodes[(s, t)]
        for tr in a1.by_src[s]:
            if tr.is_eps:
                edges.append(_PEdge(sid, nid((tr.dst, t)), EPS, tr.priority, None))
            else:
                u = a2.dsucc(t, tr.letter)
                edges.append(
                    _PEdge(sid, nid((tr.dst, u.dst)), tr.letter, tr.priority, u.priority)
                )
    return nodes, edges


def _even_pair_sccs(n, edges):
    """For each even pair (x, y): the edges with coordinate priorities
    >= (x, y), their SCC map, and the accepting SCCs among them.

    An SCC is accepting when it holds a coordinate-1 priority-x edge and a
    coordinate-2 priority-y edge inside it; it maps to those anchor edges.
    Coordinate-2 stutters (pr2 None) may lie on its cycles but never anchor
    them, which excludes cycles that are all-eps in coordinate 1.  The
    product accepts a common word from a node iff the node reaches an
    accepting SCC of some even pair.
    """
    pr1s = sorted({e.pr1 for e in edges if e.pr1 % 2 == 0})
    pr2s = sorted({e.pr2 for e in edges if e.pr2 is not None and e.pr2 % 2 == 0})
    for x in pr1s:
        for y in pr2s:
            sub = [e for e in edges if e.pr1 >= x and (e.pr2 is None or e.pr2 >= y)]
            comp_of = _scc_map(n, sub)
            comps_x: dict[int, list[_PEdge]] = {}
            comps_y: dict[int, list[_PEdge]] = {}
            for e in sub:
                if comp_of[e.src] == comp_of[e.dst]:
                    c = comp_of[e.src]
                    if e.pr1 == x:
                        comps_x.setdefault(c, []).append(e)
                    if e.pr2 == y:
                        comps_y.setdefault(c, []).append(e)
            accepting = {
                c: (comps_x[c], comps_y[c]) for c in sorted(comps_x.keys() & comps_y.keys())
            }
            yield sub, comp_of, accepting


def _even_pair_lasso(nodes, edges, start) -> UPWord | None:
    """Shortest lasso from `start` through an accepting SCC of some even pair,
    or None; every node of the product must be reachable from `start`."""
    n = len(nodes)
    best: tuple[int, tuple, tuple] | None = None  # (length, u, v)
    pred = _bfs_tree(n, edges, start)
    for sub, comp_of, accepting in _even_pair_sccs(n, edges):
        for c, (x_edges, y_edges) in accepting.items():
            entry, cycle_edges = _cycle_through(sub, comp_of, c, x_edges, y_edges)
            u = _path_letters(pred, start, entry)
            v = tuple(e.letter for e in cycle_edges if e.letter != EPS)
            cand = (len(u) + len(v), u, v)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    return UPWord(best[1], best[2]).canonical()


def _bfs_tree(n, edges, start):
    adj = [[] for _ in range(n)]
    for e in edges:
        adj[e.src].append(e)
    pred: list[_PEdge | None] = [None] * n
    seen = [False] * n
    seen[start] = True
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for e in adj[v]:
            if not seen[e.dst]:
                seen[e.dst] = True
                pred[e.dst] = e
                queue.append(e.dst)
    return pred


def _path_letters(pred, start, target):
    letters = []
    v = target
    while v != start:
        e = pred[v]
        if e.letter != EPS:
            letters.append(e.letter)
        v = e.src
    return tuple(reversed(letters))


def _scc_map(n, edges):
    comps = tarjan_scc(n, ((e.src, e.dst) for e in edges))
    comp_of = [0] * n
    for i, comp in enumerate(comps):
        for q in comp:
            comp_of[q] = i
    return comp_of


def _cycle_through(sub, comp_of, comp, x_edges, y_edges):
    """Shortest cycle inside one SCC through one x-anchor and one y-anchor:
    the first pair among the shortest, joined by paths of the breadth-first
    trees from the anchors' heads (one tree per start serves every pair)."""
    adj: dict[int, list[_PEdge]] = {}
    for e in sub:
        if comp_of[e.src] == comp and comp_of[e.dst] == comp:
            adj.setdefault(e.src, []).append(e)

    trees: dict[int, tuple[dict, dict]] = {}  # start -> (tree edge, depth)

    def tree(src):
        if src not in trees:
            prev, depth = {src: None}, {src: 0}
            queue = deque([src])
            while queue:
                v = queue.popleft()
                for e in adj.get(v, ()):
                    if e.dst not in prev:
                        prev[e.dst], depth[e.dst] = e, depth[v] + 1
                        queue.append(e.dst)
            trees[src] = prev, depth
        return trees[src]

    def shortest(src, dst):
        """The path from src to dst in the breadth-first tree from src."""
        prev, path = tree(src)[0], []
        while dst != src:
            path.append(prev[dst])
            dst = prev[dst].src
        return path[::-1]

    best = None  # (length, ex, ey): the first pair among the shortest
    for ex in x_edges:
        for ey in y_edges:
            if ex is ey:
                legs = [tree(ex.dst)[1].get(ex.src)]
            else:
                legs = [tree(ex.dst)[1].get(ey.src), tree(ey.dst)[1].get(ex.src)]
            if None in legs:
                continue
            if best is None or len(legs) + sum(legs) < best[0]:
                best = (len(legs) + sum(legs), ex, ey)
    if best is None:
        return None
    _, ex, ey = best
    if ex is ey:
        return ex.src, [ex] + shortest(ex.dst, ex.src)
    return ex.src, [ex] + shortest(ex.dst, ey.src) + [ey] + shortest(ey.dst, ex.src)


def reference_incl(a, q, b, p):
    """`lang.incl_nd_in_det(a, b, q, p)` (and `incl_det`) by the even-pair
    search: True, or the shortest canonical lasso."""
    from posaut.lang import complement_det

    nodes, edges = _explore_product(a, complement_det(b), [(q, p)])
    witness = _even_pair_lasso(nodes, edges, 0)
    return True if witness is None else witness


def reference_lang_equal_det(a, b):
    """`lang.lang_equal_det` as two inclusions, one product each: True, or
    the first failing side with `incl_det`'s word."""
    from posaut.lang import incl_det

    r = incl_det(a, a.initial, b, b.initial)
    if r is not True:
        return ("left-minus-right", r)
    r = incl_det(b, b.initial, a, a.initial)
    if r is not True:
        return ("right-minus-left", r)
    return True


def has_common_word(product) -> bool:
    """Whether a pair that the start pair of the `lang.DetProduct` reaches
    lies on a cycle that reads a letter and whose least first and least
    second priorities are both even, by one kernel run from the start pair:
    the from-scratch answer that `try_push`'s incremental tests must give."""
    return next(even_cycle_sccs(product, [product.start]), None) is not None


def reference_disjoint(a, co):
    """Whether L(a) and L(co) share no word (`not has_common_word(DetProduct(a,
    co))`), as `lang` decided it before the integer product: explore the
    reachable product afresh and run one Tarjan pass per even pair."""
    nodes, edges = _explore_product(a, co, [(a.initial, co.initial)])
    return not any(accepting for _, _, accepting in _even_pair_sccs(len(nodes), edges))


def reference_close_relations(aut, d):
    """Transitive closure of each eps-relation, then downward closure along
    the preference order (restricted to eps-transitions), by a naive
    fixpoint; the added eps-edges come after `aut`'s transitions, by
    priority and then by (source, target)."""
    from dataclasses import replace

    from posaut.automaton import Transition, priority_span
    from posaut.epscomplete import preference_rank

    rel = {y: set() for y in range(0, d + 2)}
    for t in aut.transitions:
        if t.is_eps:
            rel[t.priority].add((t.src, t.dst))
    for y in rel:
        changed = True
        while changed:
            changed = False
            for (q, p) in list(rel[y]):
                for (p2, s) in list(rel[y]):
                    if p2 == p and (q, s) not in rel[y]:
                        rel[y].add((q, s))
                        changed = True
    for y in sorted(range(0, d + 2), key=lambda v: -preference_rank(v, d)):
        for y2 in range(0, d + 2):
            if preference_rank(y2, d) < preference_rank(y, d):
                rel[y2] |= rel[y]
    trans = list(aut.transitions)
    seen = set((t.src, t.letter, t.priority, t.dst) for t in trans)
    for y in range(0, d + 2):
        for (q, p) in sorted(rel[y]):
            key = (q, EPS, y, p)
            if key not in seen:
                seen.add(key)
                trans.append(Transition(*key))
    return replace(aut, transitions=tuple(trans), priority_range=priority_span(trans))


def reference_p2(aut, w_det=None):
    """`decide_positionality_p2` with its greedy loop as it was before the
    integer product: a fresh automaton and a fresh product per candidate,
    every candidate tested, then each eps-relation closed by
    `reference_close_relations`, then merge and prune.

    It is the guard for p2's shortcuts: candidates that p2 accepts as implied
    by a letter-free walk or rejects as doomed by an earlier rejection are
    tested here, and p2 reads the closed relations off its walk minima."""
    from dataclasses import replace

    from posaut.automaton import Transition
    from posaut.epscomplete import (
        EpsCompleteAutomaton,
        _prune_even_eps,
        even_bound,
        merge_top_equivalent,
        validate_eps_complete,
    )
    from posaut.lang import complement_det, incl_nd_in_det
    from posaut.witnesses import CompletionFailure, NotPositional, Positional

    if w_det is None:
        assert aut.deterministic and not aut.has_eps
        w_det = aut
    else:
        assert incl_nd_in_det(aut, w_det) is True
    co_w = complement_det(w_det)
    d = even_bound(aut)
    current = replace(aut, priority_range=(0, d + 1), deterministic=False)

    def has(s, y, t):
        return any(
            tr.is_eps and tr.priority == y and tr.dst == t for tr in current.by_src[s]
        )

    for x in range(0, d + 1, 2):
        for q in sorted(current.states()):
            for p in sorted(current.states()):
                if has(q, x, p) or has(p, x + 1, q):
                    continue
                with_even = replace(
                    current,
                    transitions=current.transitions + (Transition(q, EPS, x, p),),
                )
                if reference_disjoint(with_even, co_w):
                    current = with_even
                    continue
                with_odd = replace(
                    current,
                    transitions=current.transitions + (Transition(p, EPS, x + 1, q),),
                )
                if reference_disjoint(with_odd, co_w):
                    current = with_odd
                    continue
                r1 = incl_nd_in_det(with_even, w_det)
                r2 = incl_nd_in_det(with_odd, w_det)
                return NotPositional(CompletionFailure(q, p, x, r1, r2, current))
    current = reference_close_relations(current, d)
    current = merge_top_equivalent(current, d)
    current = _prune_even_eps(current, d)
    assert validate_eps_complete(current, d) is True
    return Positional(EpsCompleteAutomaton(current, d))


# Seed 58 of the random sweep in ROADMAP item 1, trimmed: not positional.
# p1 gets stuck polishing level 0; its loops are words of length 6 and 12.
SEED_58_DPA = """dpa
alphabet: a b
states: 7
initial: 0
priorities: 0 2
deterministic: true
trans: 0 a 2 3
trans: 0 b 0 3
trans: 1 a 1 5
trans: 1 b 1 4
trans: 2 a 1 6
trans: 2 b 2 5
trans: 3 a 1 1
trans: 3 b 0 6
trans: 4 a 0 6
trans: 4 b 0 6
trans: 5 a 0 1
trans: 5 b 2 2
trans: 6 a 1 0
trans: 6 b 0 4
"""


# ---------------------------------------------------------------------------
# Gadget checks as they were before the completion objective was stepped on
# demand and the oracle ran on the solved game: the composite objective built
# in full, and each positional strategy checked by a product of the
# restricted arena with the objective's complement, one start vertex at a
# time
# ---------------------------------------------------------------------------


def reference_composite_objective(w_det, alphabet, tokens):
    """Deterministic parity automaton for W_Sigma u OddParity u GType over the
    token alphabet: product of w_det with the Zielonka-tree automaton of the
    three-stream union condition, with every transition built."""
    from posaut.automaton import ParityAutomaton, Transition, priority_span

    dw = w_det.d_max
    stutter1 = dw + 1 if (dw + 1) % 2 == 0 else dw + 2
    type_map = {"s": 1, "e": 2, "n": 3}
    letter_streams = {}
    for t, (letter, pr, typ) in tokens.items():
        letter_streams[t] = (pr + 1, type_map[typ])
    combos = set()
    for t, (letter, pr, typ) in tokens.items():
        s2, s3 = letter_streams[t]
        if letter == EPS:
            combos.add((stutter1, s2, s3))
        else:
            for tr in w_det.transitions:
                if tr.letter == letter:
                    combos.add((tr.priority, s2, s3))
    combo_letters = sorted(combos)
    names = {c: f"c{i}" for i, c in enumerate(combo_letters)}
    union = reference_union_parity_automaton(
        [names[c] for c in combo_letters], {names[c]: c for c in combo_letters}
    )
    n_states = w_det.n_states * union.n_states

    def sid(wq, uq):
        return wq * union.n_states + uq

    rows = w_det.delta
    ordered = sorted(tokens.items())
    trans = []
    for wq in w_det.states():
        steps = []
        for t, (letter, pr, typ) in ordered:
            s2, s3 = letter_streams[t]
            if letter == EPS:
                steps.append((t, names[(stutter1, s2, s3)], wq))
            else:
                tr = rows[letter][wq]
                steps.append((t, names[(tr.priority, s2, s3)], tr.dst))
        for uq in union.states():
            for t, name, wq2 in steps:
                ut = union.delta[name][uq]
                trans.append(Transition(sid(wq, uq), t, ut.priority, sid(wq2, ut.dst)))
    return ParityAutomaton(
        n_states=n_states,
        alphabet=alphabet,
        initial=sid(w_det.initial, union.initial),
        transitions=tuple(trans),
        priority_range=priority_span(trans),
        deterministic=True,
    )


def _reference_strategy_wins(comp, restricted, vertex) -> bool:
    """No play from `vertex` under the restricted moves is rejected: the
    product with the complement `comp` has no accepting cycle."""
    from posaut.automaton import even_cycle_sccs
    from posaut.lang import product

    g, _ = product(restricted, comp, [(vertex, comp.initial)])
    return next(even_cycle_sccs(g, [0]), None) is None


def reference_brute_force(arena, objective, bound=1_000_000):
    """`games.brute_force_positional` with a product per strategy and start
    vertex; the region is read from `solve(...).eve_wins_from`.  A stepped
    objective is materialised first."""
    from itertools import product as iproduct

    from posaut.automaton import Transition
    from posaut.games import EVE, NoUniformStrategy, PositionalStrategy, UniformlyPositional, solve
    from posaut.lang import complement_det

    objective = getattr(objective, "materialise", lambda: objective)()
    arena.check_valid()
    sv = solve(arena, objective)
    region0 = frozenset(v for v in range(arena.n_vertices) if sv.eve_wins_from(v))
    eve_vertices = [v for v in range(arena.n_vertices) if arena.owner[v] == EVE]
    per_vertex = [arena.by_src[v] for v in eve_vertices]
    total = 1
    for outs in per_vertex:
        total *= max(len(outs), 1)
        if total > bound:
            raise ValueError(f"strategy space exceeds bound {bound}")
    comp = complement_det(objective)
    moves = [Transition(s, a, 0, t) for (s, a, t) in arena.edges]
    restricted = [[moves[i] for i, _ in outs] for outs in arena.by_src]
    index_lists = [[i for (i, _) in outs] for outs in per_vertex]
    for combo in iproduct(*index_lists):
        choice = dict(zip(eve_vertices, combo))
        for v, idx in choice.items():
            restricted[v] = [moves[idx]]
        if all(_reference_strategy_wins(comp, restricted, v) for v in region0):
            return UniformlyPositional(PositionalStrategy(choice))
    return NoUniformStrategy(region0)
