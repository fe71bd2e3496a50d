import itertools
import random

import pytest

from posaut import parityunion
from posaut.automaton import emit_dpa, up_membership, upword
from posaut.parityunion import StreamObjective, union_parity_automaton, zielonka_tree

from conftest import (
    reference_children_sets,
    reference_union_parity_automaton,
    run_lasso,
    union_accepts,
)


def test_small_exhaustive():
    rng = random.Random(1)
    for _ in range(120):
        k = rng.randint(1, 3)
        letters = [f"x{i}" for i in range(rng.randint(1, 5))]
        tuples = {a: tuple(rng.randint(0, 4) for _ in range(k)) for a in letters}
        aut = union_parity_automaton(letters, tuples)
        for ulen in range(0, 2):
            for vlen in range(1, 3):
                for u in itertools.product(letters, repeat=ulen):
                    for v in itertools.product(letters, repeat=vlen):
                        assert run_lasso(aut, u, v) == union_accepts(set(v), tuples)


def test_longer_random_lassos():
    rng = random.Random(2)
    for _ in range(100):
        k = rng.randint(1, 3)
        letters = [f"x{i}" for i in range(rng.randint(2, 8))]
        tuples = {a: tuple(rng.randint(0, 5) for _ in range(k)) for a in letters}
        aut = union_parity_automaton(letters, tuples)
        for _ in range(30):
            u = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
            v = [rng.choice(letters) for _ in range(rng.randint(1, 6))]
            assert run_lasso(aut, u, v) == union_accepts(set(v), tuples)


def test_tree_alternates():
    letters = ["p", "q"]
    tuples = {"p": (1,), "q": (2,)}
    root = zielonka_tree(parityunion._Condition(letters, tuples))
    assert root.accept is False  # min over all letters is 1
    assert root.children and root.children[0].accept is True


def test_constant_condition():
    letters = ["a"]
    aut = union_parity_automaton(letters, {"a": (0, 1)})
    assert run_lasso(aut, (), ("a",))
    aut2 = union_parity_automaton(letters, {"a": (1, 3)})
    assert not run_lasso(aut2, (), ("a",))


def random_tuple_maps(seed, count):
    """Seeded maps from 1-24 letters to tuples of 1-3 priorities in 0-6."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 3)
        letters = [f"x{i}" for i in range(rng.randint(1, 24))]
        yield letters, {a: tuple(rng.randint(0, 6) for _ in range(k)) for a in letters}


@pytest.mark.parametrize("seed", range(3))
def test_children_sets_match_reference(seed):
    # `children` takes and gives bitmasks; compared as sets of letters,
    # in the tree's children order (sorted by their sorted letters)
    for letters, tuples in random_tuple_maps(seed, 60):
        cond = parityunion._Condition(sorted(letters), tuples)
        for accept in (False, True):
            got = cond.children(cond.full, accept)
            got = [frozenset(cond.names[j] for j in cond.bits(s)) for s in got]
            ref = reference_children_sets(frozenset(letters), tuples, accept)
            assert got == sorted(ref, key=sorted)


@pytest.mark.parametrize("seed", range(3))
def test_union_dpa_matches_reference(seed):
    for letters, tuples in random_tuple_maps(seed, 60):
        aut = union_parity_automaton(letters, tuples)
        assert emit_dpa(aut) == emit_dpa(reference_union_parity_automaton(letters, tuples))


def lasso_cycle_accepts(obj, u, v) -> bool:
    """Run `obj.step` on u . v^omega: some stream's least priority over the
    steps of the cycle the run takes through v-blocks is even."""
    q = obj.initial
    for a in u:
        q = obj.step(q, a)[1]
    starts, blocks = {}, []  # state at a v-block's start -> its index; per block, its tuples
    while q not in starts:
        starts[q] = len(blocks)
        block = []
        for a in v:
            s, q = obj.step(q, a)
            block.append(s)
        blocks.append(block)
    cycle = [s for block in blocks[starts[q]:] for s in block]
    return any(min(s[i] for s in cycle) % 2 == 0 for i in range(obj.streams))


def random_stream_objectives(seed, count):
    """Seeded `StreamObjective`s with 1-4 states, 2-3 letters, 1-3 streams
    and priorities 0-6."""
    rng = random.Random(seed)
    for _ in range(count):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        alphabet = "abc"[: rng.randint(2, 3)]
        table = {
            (q, a): (tuple(rng.randint(0, 6) for _ in range(k)), rng.randrange(n))
            for q in range(n)
            for a in alphabet
        }
        yield StreamObjective(n, rng.randrange(n), alphabet, lambda q, a, t=table: t[q, a], k, 6)


@pytest.mark.parametrize("seed", range(3))
def test_materialise_accepts_the_stream_lassos(seed):
    rng = random.Random(100 + seed)
    colours = []
    for obj in random_stream_objectives(seed, 80):
        aut = obj.materialise()
        colours.append(len({obj.step(q, a)[0] for q in range(obj.n_states) for a in obj.alphabet}))
        assert aut.deterministic and aut.n_states % obj.n_states == 0
        for _ in range(15):
            u = [rng.choice(obj.alphabet) for _ in range(rng.randint(0, 3))]
            v = [rng.choice(obj.alphabet) for _ in range(rng.randint(1, 4))]
            assert up_membership(aut, upword(u, v)) == lasso_cycle_accepts(obj, u, v)
    assert max(colours) >= 11
