"""Membership predicates and a direct simulator, written apart from posaut.

The predicates decide the fixture languages of `posaut.zoo` on an ultimately
periodic word u.v^omega given as two tuples of letters.  They restate the
languages from the fixtures' docstrings; they share no code with the
program, so a disagreement with `up_membership` points at one of the two.
"""

from __future__ import annotations

import re


def _infinitely(v, factor):
    """Does `factor` occur infinitely often in u.v^omega?"""
    text = "".join(v) * (len(factor) // len(v) + 2)
    return factor in text


def _somewhere(u, v, factor):
    text = "".join(u) + "".join(v) * (len(factor) // len(v) + 2)
    return factor in text


_NESTED_C = re.compile(r"c(?:a*cb*)+c")


def _nested_c_infinitely(v):
    # An occurrence of c(a*cb*)+c starting inside the period recurs in every
    # period.  A four-state recogniser over a period of length m repeats its
    # (state set, position) pair within 16m letters, so 17 copies suffice.
    for i in range(len(v)):
        rotation = "".join(v[i:] + v[:i])
        if _NESTED_C.match(rotation * 17):
            return True
    return False


def inf_a_or_fin_bb(u, v):
    if "a" in v:
        return True
    return "a" not in u and not _infinitely(v, "bb")


def buchi_a_or_reach_aa(u, v):
    return "a" in v or _somewhere(u, v, "aa")


def reach_aa(u, v):
    return _somewhere(u, v, "aa")


def reach_two_a(u, v):
    return "a" in v or u.count("a") >= 2


def fin_ac_or_fin_bb(u, v):
    return not (_infinitely(v, "ac") and _infinitely(v, "bb"))


def fin_nested_c_factors(u, v):
    return not _nested_c_infinitely(tuple(v))


def tail_const_or_two_c(u, v):
    if len(set(v)) == 1 and v[0] in ("a", "b"):
        return True
    word = tuple(u) + tuple(v)
    return word[0] == "c" and ("c" in word[1:] or "c" in v)


def first_letter_inf(u, v):
    return (tuple(u) + tuple(v))[0] in v


def min_letter_even(u, v):
    return min(int(x) for x in tuple(u) + tuple(v)) % 2 == 0


def parity_letters(u, v):
    return min(int(x) for x in v) % 2 == 0


PREDICATES = {
    "inf_a_or_fin_bb": inf_a_or_fin_bb,
    "buchi_a_or_reach_aa": buchi_a_or_reach_aa,
    "reach_aa": reach_aa,
    "reach_two_a": reach_two_a,
    "fin_ac_or_fin_bb": fin_ac_or_fin_bb,
    "fin_nested_c_factors": fin_nested_c_factors,
    "tail_const_or_two_c": tail_const_or_two_c,
    "first_letter_inf": first_letter_inf,
    "min_letter_even": min_letter_even,
    "parity_letters": parity_letters,
}

#: whether each fixture language is positional (the zoo's documented verdicts)
POSITIONAL = {
    "inf_a_or_fin_bb": True,
    "buchi_a_or_reach_aa": True,
    "reach_aa": False,
    "reach_two_a": True,
    "fin_ac_or_fin_bb": True,
    "fin_nested_c_factors": True,
    "tail_const_or_two_c": True,
    "first_letter_inf": False,
    "min_letter_even": True,
    "parity_letters": True,
}

#: whether each fixture language and its complement are both positional
BIPOSITIONAL = {
    "min_letter_even": True,
    "parity_letters": True,
    "reach_aa": False,
}


def det_accepts(aut, u, v, start=None):
    """Run a complete deterministic automaton on u.v^omega and apply min-even
    parity to the priorities seen on the cycle the run settles into.

    Reads only `transitions`, `initial` and `n_states`.
    """
    delta = {(t.src, t.letter): (t.priority, t.dst) for t in aut.transitions}
    q = aut.initial if start is None else start
    for a in u:
        q = delta[(q, a)][1]
    first_seen = {}
    priorities = []
    pos = 0
    while (q, pos) not in first_seen:
        first_seen[(q, pos)] = len(priorities)
        prio, q = delta[(q, v[pos])]
        priorities.append(prio)
        pos = (pos + 1) % len(v)
    return min(priorities[first_seen[(q, pos)]:]) % 2 == 0


def sample_words(rng, alphabet, count, max_u=4, max_v=4):
    words = []
    for _ in range(count):
        u = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_u)))
        v = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_v)))
        words.append((u, v))
    return words
