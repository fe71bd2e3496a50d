import pytest

from posaut.epscomplete import (
    EpsCompleteAutomaton,
    decide_positionality_p2,
    eps_complete_from_signature,
    priority_close,
)
from posaut.signature import decide_positionality_p1
from posaut.ugraph import (
    MonotoneGraph,
    all_cycles_even_min,
    all_paths_satisfy,
    build_uaut,
    build_upar,
    check_monotone,
    check_sinkless,
    check_universality_bounded,
    emit_mgraph,
    parse_mgraph,
    with_top,
)
from posaut.zoo import aut_accept_all, aut_inf_a_or_fin_bb, aut_parity_letters


def closed_completion(aut):
    sig = decide_positionality_p1(aut).certificate
    eps_aut = eps_complete_from_signature(sig)
    return EpsCompleteAutomaton(
        priority_close(eps_aut.automaton, eps_aut.d), eps_aut.d
    ), sig.automaton


# -- U_Par ----------------------------------------------------------------------


def test_upar_single_vertex_edges():
    g = build_upar(2, 1)
    assert g.n == 1
    letters = {a for (_, a, _) in g.edges}
    assert letters == {"0", "2"}


def test_upar_d2_n3_properties():
    g = build_upar(2, 3)
    assert check_monotone(g) is True
    assert all_cycles_even_min(g) is True
    assert check_sinkless(g) is True
    # golden vertex order: lexicographic tuples
    assert g.names == ("0", "1", "2")


def test_upar_nesting():
    small = build_upar(2, 2, max_letter=3)
    large = build_upar(2, 3, max_letter=3)
    # vertex names of the small graph appear in order inside the large one,
    # and every small edge is a large edge
    pos = {nm: i for i, nm in enumerate(large.names)}
    idx = [pos[nm] for nm in small.names]
    assert idx == sorted(idx)
    large_edges = {
        (large.names[s], a, large.names[t]) for (s, a, t) in large.edges
    }
    for (s, a, t) in small.edges:
        assert (small.names[s], a, small.names[t]) in large_edges


def test_with_top_shape():
    g = build_upar(2, 2)
    t = with_top(g)
    assert t.n == g.n + 1
    assert t.names[-1] == "top"
    assert check_monotone(t) is True
    out_top = [e for e in t.edges if e[0] == g.n]
    assert len(out_top) == len(g.alphabet) * (g.n + 1)


def test_fault_injection_detected():
    g = build_upar(2, 3)
    bad = MonotoneGraph(g.names, g.edges + ((2, "1", 2),), g.alphabet)
    assert all_cycles_even_min(bad) is not True


# -- bounded universality -----------------------------------------------------------


def test_universality_k1():
    g = build_upar(2, 3, max_letter=3)
    rep = check_universality_bounded(g, aut_parity_letters(3), 1)
    assert rep["failures"] == []


def test_universality_k3_sampled():
    g = build_upar(2, 3, max_letter=3)
    rep = check_universality_bounded(g, aut_parity_letters(3), 3, sample=60, seed=1)
    assert rep["failures"] == []


def test_universality_refuses_past_limit():
    # 6 letters, k = 2: 63 + 4095^2 sinkless graphs, refused before any is built
    g = build_upar(2, 1)
    with pytest.raises(ValueError, match="16769088 sinkless graphs"):
        check_universality_bounded(g, aut_parity_letters(5), 2)


def test_universality_needs_a_graph_size():
    g = build_upar(2, 1)
    for k in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            check_universality_bounded(g, aut_parity_letters(3), k)


# -- U_Aut ---------------------------------------------------------------------------


def test_uaut_three_priorities():
    closed, core = closed_completion(aut_inf_a_or_fin_bb())
    g, vmap = build_uaut(closed, 2)
    assert check_monotone(g) is True
    assert check_sinkless(g) is True
    assert all_paths_satisfy(g, core, lambda v: vmap[g.names[v]][0]) is True


def test_uaut_degenerate_bound_one():
    closed, core = closed_completion(aut_inf_a_or_fin_bb())
    g, vmap = build_uaut(closed, 1)
    assert check_monotone(g) is True
    # no vertex at all would pass both checks vacuously
    for n in (0, -2):
        with pytest.raises(ValueError, match="bound must be at least 1"):
            build_uaut(closed, n)


def test_uaut_accept_all_complete_graph():
    res = decide_positionality_p2(aut_accept_all())
    cert = res.certificate
    closed = EpsCompleteAutomaton(priority_close(cert.automaton, cert.d), cert.d)
    n = 3
    g, vmap = build_uaut(closed, n)
    d = closed.d
    assert g.n == closed.automaton.n_states * n ** (d // 2 + 1)
    assert check_monotone(g) is True
    assert all_paths_satisfy(
        g, aut_accept_all(), lambda v: vmap[g.names[v]][0]
    ) is True


# -- format ----------------------------------------------------------------------------


def test_mgraph_roundtrip():
    g = build_upar(2, 2)
    back = parse_mgraph(emit_mgraph(g))
    assert back.names == g.names
    assert back.alphabet == g.alphabet
    assert back.edges == g.edges
