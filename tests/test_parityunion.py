import itertools
import random

import pytest

from posaut import parityunion
from posaut.automaton import emit_dpa
from posaut.parityunion import union_parity_automaton, zielonka_tree

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
    root = zielonka_tree(letters, tuples)
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
    # `_children_sets` takes and gives bitmasks; compared as sets of letters,
    # in the tree's children order (sorted by their sorted letters)
    for letters, tuples in random_tuple_maps(seed, 60):
        cond = parityunion._Condition(letters, tuples)
        for accept in (False, True):
            got = parityunion._children_sets(cond, cond.full, accept)
            got = [frozenset(cond.names[j] for j in cond.bits(s)) for s in got]
            ref = reference_children_sets(frozenset(letters), tuples, accept)
            assert got == sorted(ref, key=sorted)


@pytest.mark.parametrize("seed", range(3))
def test_union_dpa_matches_reference(seed):
    for letters, tuples in random_tuple_maps(seed, 60):
        aut = union_parity_automaton(letters, tuples)
        assert emit_dpa(aut) == emit_dpa(reference_union_parity_automaton(letters, tuples))
