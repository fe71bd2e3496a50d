"""Input sets of the three workloads, generated from a seed.

Every input is an automaton *shape* drawn from a fixed construction seed.
Where the work does not hinge on it, the workload seed sets the state
numbering and transition order the shape is presented in.  The shapes are
fixed because the cost of the procedures is heavy-tailed in the shape (one
10-state random DPA takes 0.01 s, another 12 s), so fresh shapes per seed
would make the batch time a measure of the seed.  Numberings are fixed
where p1 may raise depending on them (see README.md, "Kept fault") or where
p2's early exit follows them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from posaut import zoo
from posaut.automaton import ParityAutomaton, build, emit_dpa, parse_dpa

from languages import BIPOSITIONAL, POSITIONAL

WORKLOADS = ("p1-blowup", "p2-blowup", "random-corpus")


@dataclass
class Case:
    """One input of a workload and the procedures it goes through."""

    id: str
    procs: tuple[str, ...]  # subset of ("p1", "p2", "bipos")
    aut: ParityAutomaton
    language: str | None = None  # fixture name when the language is known
    expected: bool | None = None  # known verdict of every procedure in procs


# -- constructions ----------------------------------------------------------


def blowup(aut: ParityAutomaton, k: int, rng: random.Random) -> ParityAutomaton:
    """Up to k copies of every state; each copied transition leads to a
    random copy of its target.

    The copies are bisimilar to their original, so the language is kept.  A
    state gets fewer than k copies when fewer transition copies (plus the
    initial arrow) enter it.  Each copy is entered at least once, and draws
    are repeated until every copy is reachable, which fixes the size.
    """
    copies = [k] * aut.n_states
    while True:  # shrink copy counts to the number of entering arrows
        entering = [1 if q == aut.initial else 0 for q in aut.states()]
        for t in aut.transitions:
            entering[t.dst] += copies[t.src]
        fewer = [min(c, e) for c, e in zip(copies, entering)]
        if fewer == copies:
            break
        copies = fewer
    first = [sum(copies[:q]) for q in aut.states()]
    arrows = {q: [(t, i) for t in aut.transitions if t.dst == q for i in range(copies[t.src])]
              for q in aut.states()}
    n = sum(copies)
    for _ in range(10000):
        target = {}
        for q, ins in arrows.items():
            rng.shuffle(ins)
            # the initial arrow enters copy 0 of the initial state
            must = list(range(1 if q == aut.initial else 0, copies[q]))
            rng.shuffle(must)
            for j, (t, i) in enumerate(ins):
                target[(t, i)] = must[j] if j < len(must) else rng.randrange(copies[q])
        trans = [
            (first[t.src] + i, t.letter, t.priority, first[t.dst] + target[(t, i)])
            for t in aut.transitions
            for i in range(copies[t.src])
        ]
        out = build(n, aut.alphabet, first[aut.initial], trans, deterministic=True)
        if len(out.reachable()) == n:
            return out
    raise RuntimeError("no blow-up with every copy reachable was drawn")


def random_dpa(rng: random.Random, n: int, letters, dmax: int) -> ParityAutomaton:
    """A complete DPA with uniform random targets and priorities in [0, dmax]."""
    trans = [
        (q, a, rng.randint(0, dmax), rng.randrange(n)) for q in range(n) for a in letters
    ]
    return build(n, letters, 0, trans, deterministic=True)


def renumber(aut: ParityAutomaton, rng: random.Random) -> ParityAutomaton:
    """The same automaton under a random state numbering and transition order."""
    perm = list(aut.states())
    rng.shuffle(perm)
    trans = [(perm[t.src], t.letter, t.priority, perm[t.dst]) for t in aut.transitions]
    rng.shuffle(trans)
    return build(aut.n_states, aut.alphabet, perm[aut.initial], trans, deterministic=True)


def _fixture(name: str, d: int | None = None) -> ParityAutomaton:
    return zoo.ZOO[name]() if d is None else zoo.ZOO[name](d)


def _shape_rng(*parts) -> random.Random:
    # str seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random("shape/" + "/".join(map(str, parts)))


# -- workloads ----------------------------------------------------------------

# (fixture, d or None, k, shape index); the verdict is the fixture's
P1_FIXED = [
    ("inf_a_or_fin_bb", None, 5, 0),
    ("buchi_a_or_reach_aa", None, 5, 0),
    ("reach_two_a", None, 5, 0),
    ("fin_ac_or_fin_bb", None, 4, 0),
    ("min_letter_even", 4, 3, 0),
]
P1_RENUMBERED = [
    ("reach_aa", None, 5, 0),
    ("reach_aa", None, 4, 0),
    ("reach_aa", None, 4, 1),
    ("reach_aa", None, 4, 2),
    ("first_letter_inf", None, 6, 0),
    ("first_letter_inf", None, 7, 0),
]

P2_BLOWUPS = [
    (name, None, 2, index)
    for index in (0, 1, 2)
    for name in ("inf_a_or_fin_bb", "buchi_a_or_reach_aa", "reach_two_a", "reach_aa",
                 "first_letter_inf")
]
P2_MIN_LETTER_EVEN = (2, 3, 4, 5, 6)

# (count, n range, letter counts, maximal priorities)
CORPUS = (16, (6, 10), (2, 3), (3, 5))
BIPOS = [("min_letter_even", d) for d in (2, 4, 6)] + [
    ("parity_letters", d) for d in (2, 4)
] + [("reach_aa", None)]


def _blowup_case(proc, spec, seed, keep_numbering):
    name, d, k, index = spec
    shape = blowup(_fixture(name, d), k, _shape_rng(name, d, k, index))
    cid = f"{proc}/{name}{'' if d is None else d}/k{k}/{index}"
    aut = shape if keep_numbering else renumber(shape, random.Random(f"{seed}/{cid}"))
    return Case(cid, (proc,), aut, name, POSITIONAL[name])


def make_cases(workload: str, seed: int, tiny: bool = False) -> list[Case]:
    """The workload's inputs for `seed`; `tiny` keeps a few small ones."""
    if workload == "p1-blowup":
        fixed, renum = P1_FIXED, P1_RENUMBERED
        if tiny:
            fixed = [(n, d, 2, i) for (n, d, _, i) in fixed[:3]]
            renum = [(n, d, 2, i) for (n, d, _, i) in renum[:2]]
        return [_blowup_case("p1", s, seed, True) for s in fixed] + [
            _blowup_case("p1", s, seed, False) for s in renum
        ]
    if workload == "p2-blowup":
        specs = P2_BLOWUPS[:5] if tiny else P2_BLOWUPS
        degrees = P2_MIN_LETTER_EVEN[:2] if tiny else P2_MIN_LETTER_EVEN
        # p2's witness, and so the size of its gadget game, follows the
        # greedy order, which the numbering sets: negative inputs keep theirs
        cases = [_blowup_case("p2", s, seed, not POSITIONAL[s[0]]) for s in specs]
        for d in degrees:
            cases.append(Case(f"p2/min_letter_even{d}", ("p2",), zoo.aut_min_letter_even(d),
                              "min_letter_even", True))
        return cases
    if workload == "random-corpus":
        # the same automata for every seed: p1 runs on them, and p2's cost on
        # a non-positional input follows the numbering (one corpus automaton
        # took 0.010-0.233 s over four numberings)
        count, (n_lo, n_hi), letter_counts, dmaxes = CORPUS
        if tiny:
            count, n_hi = 4, n_lo
        rng = _shape_rng("corpus")
        cases = []
        for i in range(count):
            n = rng.randint(n_lo, n_hi)
            letters = ("a", "b", "c")[: rng.choice(letter_counts)]
            aut = random_dpa(rng, n, letters, rng.choice(dmaxes))
            cases.append(Case(f"corpus/{i}", ("p1", "p2"), aut))
        bipos = BIPOS[:2] if tiny else BIPOS
        for name, d in bipos:
            cases.append(Case(f"bipos/{name}{'' if d is None else d}", ("bipos",),
                              _fixture(name, d), name, BIPOSITIONAL[name]))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def round_trip(cases: list[Case]) -> None:
    """Replace each automaton by its .dpa emit/parse round trip, validated;
    the procedures see only parsed inputs."""
    for case in cases:
        parsed = parse_dpa(emit_dpa(case.aut))
        parsed.check_valid()
        case.aut = parsed
