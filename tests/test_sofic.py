"""I-component labeling, determinization, sofic entropy."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tigraph import (
    Digraph,
    LabeledGraph,
    StateCapExceeded,
    TIGraph,
    UGraph,
    clique_components_check,
    component_labeling,
    oracle_separated_count,
    right_resolve,
    sft_entropy,
    sofic_entropy,
)

from tigraph.graph import component_of
from tigraph.sofic import DEFAULT_STATE_CAP

from conftest import label_words_anywhere, random_pruned_tigraph

GOLDEN = (1 + math.sqrt(5)) / 2


def test_component_labeling_dbl(dbl):
    lg = component_labeling(dbl)
    assert lg.labels == (1, 1, 1, 1)  # I is a connected 4-cycle


def test_component_labeling_edgeless():
    g = TIGraph(Digraph.from_edges(3, [(1, 2), (2, 3), (3, 1)]), UGraph.from_edges(3, []))
    assert component_labeling(g).labels == (1, 2, 3)


def test_component_labeling_gm(gm):
    assert component_labeling(gm).labels == (1, 2, 1)


def test_right_resolve_gm_is_golden_mean_presentation(gm):
    pres = right_resolve(component_labeling(gm))
    # all out-neighbors of each state carry distinct labels
    for s in range(1, pres.t.n + 1):
        out = [pres.labels[q - 1] for q in pres.t.succ[s - 1]]
        assert len(out) == len(set(out))


def test_right_resolve_one_label_graph(dbl):
    pres = right_resolve(component_labeling(dbl))
    assert pres.t.n == 1
    assert pres.t.edges() == [(1, 1)]
    assert pres.state_sets == ((1, 2, 3, 4),)


def test_right_resolve_distinct_labels_is_isomorphic():
    t = Digraph.from_edges(3, [(1, 2), (2, 3), (3, 1), (1, 1)])
    g = TIGraph(t, UGraph.from_edges(3, []))
    val, pres = sofic_entropy(g)
    assert pres.t.n == 3
    assert {frozenset(s) for s in pres.state_sets} == {frozenset({v}) for v in (1, 2, 3)}
    assert abs(val - sft_entropy(t)) <= 1e-9


def test_right_resolve_state_cap(gm):
    with pytest.raises(StateCapExceeded):
        right_resolve(component_labeling(gm), state_cap=1)


def test_right_resolve_state_cap_counts_initial_states():
    # edgeless I on three vertices: three labels, so three initial states
    lg = component_labeling(
        TIGraph(Digraph.from_edges(3, [(1, 2), (2, 3), (3, 1)]), UGraph.from_edges(3, []))
    )
    for cap in (1, 2):
        with pytest.raises(StateCapExceeded, match=f"more than {cap} subset states"):
            right_resolve(lg, state_cap=cap)
    assert right_resolve(lg, state_cap=3).t.n == 3


def _reference_right_resolve(lg, state_cap=DEFAULT_STATE_CAP):
    """The subset construction trying every label from every state: states x labels ANDs."""
    r = lg.num_labels
    label_mask = [0] * (r + 1)
    for v, lab in enumerate(lg.labels, start=1):
        label_mask[lab] |= 1 << (v - 1)
    state_id, states, edges = {}, [], []
    for lab in range(1, r + 1):
        if label_mask[lab] not in state_id:
            if len(states) >= state_cap:
                raise StateCapExceeded(f"more than {state_cap} subset states")
            state_id[label_mask[lab]] = len(states)
            states.append((label_mask[lab], lab))
    head = 0
    while head < len(states):
        out = 0
        for v in range(lg.t.n):
            if states[head][0] >> v & 1:
                out |= lg.t.rows[v]
        for lab in range(1, r + 1):
            nxt = out & label_mask[lab]
            if not nxt:
                continue
            if nxt not in state_id:
                if len(states) >= state_cap:
                    raise StateCapExceeded(f"more than {state_cap} subset states")
                state_id[nxt] = len(states)
                states.append((nxt, lab))
            edges.append((head + 1, state_id[nxt] + 1))
        head += 1
    state_sets = tuple(tuple(v + 1 for v in range(lg.t.n) if mask >> v & 1) for mask, _ in states)
    return Digraph.from_edges(len(states), edges), tuple(lab for _, lab in states), state_sets


@st.composite
def labeled_graphs(draw, n_max=12):
    """Any T with any surjective labeling, not only I-component ones."""
    n = draw(st.integers(1, n_max))
    vertex = st.integers(1, n)
    t_edges = draw(st.sets(st.tuples(vertex, vertex)))
    raw = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    rank = {x: k for k, x in enumerate(sorted(set(raw)), start=1)}
    return LabeledGraph(Digraph.from_edges(n, sorted(t_edges)), tuple(rank[x] for x in raw))


@given(labeled_graphs(), st.one_of(st.just(DEFAULT_STATE_CAP), st.integers(1, 30)))
@settings(max_examples=200, deadline=None)
def test_right_resolve_matches_all_labels_reference(lg, state_cap):
    try:
        ref = _reference_right_resolve(lg, state_cap)
    except StateCapExceeded:
        with pytest.raises(StateCapExceeded):
            right_resolve(lg, state_cap)
        return
    pres = right_resolve(lg, state_cap)
    assert (pres.t, pres.labels, pres.state_sets) == ref


def test_right_resolve_many_labels_visits_only_present_ones():
    # directed 4,100-cycle, I a perfect matching: 2,050 labels, 6,150 subset
    # states each with one successor label, so trying every label from every
    # state would be 12.6 million ANDs
    n = 4100
    t = Digraph.from_edges(n, [(v, v % n + 1) for v in range(1, n + 1)])
    g = TIGraph(t, UGraph.from_edges(n, [(v, v + 1) for v in range(1, n, 2)]))
    lg = component_labeling(g)
    start = time.perf_counter()
    pres = right_resolve(lg)
    elapsed = time.perf_counter() - start
    assert pres.t.n == 6150
    assert elapsed < 0.6


def test_sofic_entropy_gm(gm):
    val, _ = sofic_entropy(gm)
    assert abs(val - math.log(GOLDEN)) <= 1e-9


def test_sofic_entropy_dbl_is_zero(dbl):
    val, pres = sofic_entropy(dbl)
    assert val == 0.0
    assert pres.t.n == 1


def test_sofic_entropy_never_exceeds_classical(dbl, gm):
    rng = random.Random(5)
    graphs = [dbl, gm] + [random_pruned_tigraph(rng) for _ in range(30)]
    for g in graphs:
        val, _ = sofic_entropy(g)
        assert val <= sft_entropy(g.t) + 2e-10


def test_clique_components(gm, dbl):
    assert clique_components_check(gm)
    assert not clique_components_check(dbl)
    path_i = TIGraph(
        Digraph.from_edges(3, [(1, 2), (2, 3), (3, 1)]),
        UGraph.from_edges(3, [(1, 2), (2, 3)]),
    )
    assert not clique_components_check(path_i)
    edgeless = TIGraph(Digraph.from_edges(2, [(1, 2), (2, 1)]), UGraph.from_edges(2, []))
    assert clique_components_check(edgeless)


def test_language_preserved_on_fixtures(gm, dbl):
    for g in (gm, dbl):
        lg = component_labeling(g)
        pres = right_resolve(lg)
        from tigraph.sofic import _prune_presentation

        pruned = _prune_presentation(pres)
        original = label_words_anywhere(lg.t, lg.labels, 8)
        determinized = label_words_anywhere(pruned.t, pruned.labels, 8)
        assert original == determinized


def test_language_preserved_on_random_graphs():
    rng = random.Random(23)
    from tigraph.sofic import _prune_presentation

    done = 0
    while done < 20:
        g = random_pruned_tigraph(rng, n_max=6)
        lg = component_labeling(g)
        max_len = 8 if lg.num_labels <= 3 else 5
        pres = _prune_presentation(right_resolve(lg))
        original = label_words_anywhere(lg.t, lg.labels, max_len)
        determinized = label_words_anywhere(pres.t, pres.labels, max_len)
        assert original == determinized
        done += 1


def test_separated_count_equals_label_words_when_cliques(gm):
    # every I-component a clique: distinguishable words correspond exactly
    # to label sequences
    lg = component_labeling(gm)
    words = label_words_anywhere(lg.t, lg.labels, 6)
    for m in range(1, 7):
        count = sum(1 for w in words if len(w) == m)
        assert oracle_separated_count(gm, m).count == count


def _reference_component_labeling(g):
    """Union-find labels on the edge list, numbered by smallest vertex."""
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.i.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = {}
    return tuple(roots.setdefault(find(v), len(roots) + 1) for v in range(1, g.n + 1))


def _reference_clique_components_check(g):
    """Every vertex has as many I-neighbours as its component has other members."""
    labels = _reference_component_labeling(g)
    degree = [0] * (g.n + 1)
    for a, b in g.i.edges:
        degree[a] += 1
        degree[b] += 1
    return all(degree[v] == labels.count(labels[v - 1]) - 1 for v in range(1, g.n + 1))


@st.composite
def i_graphs(draw, n_max=12):
    """(I built by from_edges, the same I built by from_rows)."""
    n = draw(st.integers(1, n_max))
    vertex = st.integers(1, n)
    pairs = draw(st.sets(st.tuples(vertex, vertex).filter(lambda e: e[0] < e[1])))
    if draw(st.booleans()):  # a union of cliques instead, where the check holds
        block = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        pairs = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if block[i - 1] == block[j - 1]
        }
    rows = [0] * n
    for i, j in pairs:
        rows[i - 1] |= 1 << (j - 1)
        rows[j - 1] |= 1 << (i - 1)
    return UGraph.from_edges(n, pairs), UGraph.from_rows(rows)


@given(i_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_components_match_networkx(graphs, data):
    import networkx as nx

    for i in graphs:
        nxg = nx.Graph(i.edges)
        nxg.add_nodes_from(range(1, i.n + 1))
        expect = sorted((sorted(c) for c in nx.connected_components(nxg)), key=min)
        assert [[v + 1 for v in range(i.n) if comp >> v & 1] for comp in i.components] == expect
        # the search inside a vertex subset, as the MIS solver runs it
        within = data.draw(st.integers(1, (1 << i.n) - 1))
        seed = within & -within
        sub = nxg.subgraph(v + 1 for v in range(i.n) if within >> v & 1)
        expect = sum(1 << (v - 1) for v in nx.node_connected_component(sub, seed.bit_length()))
        assert component_of(i.adj, seed, within) == expect


@given(i_graphs())
@settings(max_examples=150, deadline=None)
def test_labeling_and_clique_check_match_reference(graphs):
    for i in graphs:
        g = TIGraph(Digraph.from_edges(i.n, [(v, v % i.n + 1) for v in range(1, i.n + 1)]), i)
        assert component_labeling(g).labels == _reference_component_labeling(g)
        assert clique_components_check(g) == _reference_clique_components_check(g)
