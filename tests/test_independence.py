"""Exact and greedy maximum independent set."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tigraph
from tigraph import UGraph, greedy_independent_set, higher_graph, max_independent_set
from tigraph.independence import _Solver

from conftest import brute_force_mis


def _cycle(n):
    return UGraph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _reference_greedy(adj, p):
    """Min-degree greedy by rescanning every vertex on each pick: O(n^2)."""
    closed = [a | (1 << v) for v, a in enumerate(adj)]
    chosen = 0
    while p:
        best_v = -1
        best_d = 1 << 62
        m = p
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            d = (adj[v] & p).bit_count()
            if d < best_d:
                best_d = d
                best_v = v
        chosen |= 1 << best_v
        p &= ~closed[best_v]
    return chosen


def test_four_cycle(dbl):
    res = max_independent_set(dbl.i)
    assert res.size == 2
    assert res.exact
    assert res.witness in ((1, 3), (2, 4))


def test_edgeless():
    res = max_independent_set(UGraph.from_edges(5, []))
    assert res.size == 5
    assert res.witness == (1, 2, 3, 4, 5)
    assert res.exact


def test_complete_graph():
    g = UGraph.from_edges(6, [(i, j) for i in range(1, 7) for j in range(i + 1, 7)])
    res = max_independent_set(g)
    assert res.size == 1
    assert res.exact


def test_lifted_intersection_graph_of_dbl(dbl):
    lift = higher_graph(dbl, 2)
    res = max_independent_set(lift.lifted.i)
    assert res.size == 4
    words = {lift.vertex_words[v - 1] for v in res.witness}
    assert words == {(1, 1), (2, 3), (3, 1), (4, 3)}


def test_witness_is_independent(dbl):
    lift = higher_graph(dbl, 3)
    res = max_independent_set(lift.lifted.i)
    chosen = set(res.witness)
    for a, b in lift.lifted.i.edges:
        assert not (a in chosen and b in chosen)


def test_budget_exhaustion_flags_inexact():
    import random

    rng = random.Random(3)
    n = 40
    g = UGraph.from_edges(
        n,
        [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.15],
    )
    res = max_independent_set(g, budget=3)
    assert not res.exact
    assert res.size >= 1
    chosen = set(res.witness)
    for a, b in g.edges:
        assert not (a in chosen and b in chosen)


def test_tight_budget_can_still_close_at_root():
    # alternating greedy incumbent + clique-cover bound prove C30 optimal
    # in a single node expansion, so the result stays exact
    res = max_independent_set(_cycle(30), budget=2)
    assert res.size == 15
    assert res.exact


def test_greedy_edgeless():
    res = greedy_independent_set(UGraph.from_edges(4, []))
    assert res.size == 4
    assert res.exact


def test_greedy_four_cycle():
    res = greedy_independent_set(_cycle(4))
    assert res.size == 2
    assert not res.exact


def test_greedy_star_picks_leaves():
    g = UGraph.from_edges(6, [(1, k) for k in range(2, 7)])
    res = greedy_independent_set(g)
    assert res.size == 5
    assert res.witness == (2, 3, 4, 5, 6)


@st.composite
def ugraphs(draw, n_max=12):
    n = draw(st.integers(1, n_max))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1]),
            max_size=3 * n,
        )
    )
    return UGraph.from_edges(n, pairs)


@given(ugraphs())
@settings(max_examples=120, deadline=None)
def test_exact_matches_brute_force(g):
    assert max_independent_set(g).size == brute_force_mis(g)


@given(ugraphs(n_max=16))
@settings(max_examples=40, deadline=None)
def test_exact_matches_brute_force_larger(g):
    assert max_independent_set(g).size == brute_force_mis(g)


@given(ugraphs())
@settings(max_examples=100, deadline=None)
def test_greedy_never_beats_exact(g):
    assert greedy_independent_set(g).size <= max_independent_set(g).size


@given(ugraphs(n_max=24), st.data())
@settings(max_examples=150, deadline=None)
def test_solver_greedy_matches_reference_scan(g, data):
    p = data.draw(st.integers(0, (1 << g.n) - 1))
    assert _Solver(g.adj, 1)._greedy(p) == _reference_greedy(g.adj, p)


def test_budget_gone_finishes_remaining_components_greedily():
    import random

    # C5 (vertices 1-5) cannot close at the root, so budget=1 runs out there;
    # the random graph on 6..25 is then finished by the greedy alone.
    rng = random.Random(17)
    edges = [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(i, j) for i in range(6, 26) for j in range(i + 1, 26) if rng.random() < 0.2]
    g = UGraph.from_edges(25, edges)
    res = max_independent_set(g, budget=1)
    assert not res.exact
    c5, rest = (1 << 5) - 1, ((1 << 25) - 1) ^ ((1 << 5) - 1)
    expect = _reference_greedy(g.adj, c5) | _reference_greedy(g.adj, rest)
    assert res.witness == tuple(v + 1 for v in range(25) if expect >> v & 1)


def test_doubling_lift_m11_closes_at_root(dbl):
    # the greedy incumbent meets the clique-cover bound on 4,096 vertices
    g = higher_graph(dbl, 11).lifted.i
    assert g.n == 4096
    res = max_independent_set(g, budget=1)
    assert res.exact
    assert res.size == 2048
    chosen = set(res.witness)
    assert not any(a in chosen and b in chosen for a, b in g.edges)


_BAD_WITNESS = {
    "max_independent_set": (
        "ind._dominated_pruned = lambda adj, closed, p: p\n"
        "ind._Solver._greedy = lambda self, p: p\n"
        "ind._Solver.solve = lambda self, p, chosen: None\n"
        "ind.max_independent_set(g)\n"
    ),
    "greedy_independent_set": (
        "g.__dict__['adj_sets'] = (frozenset(), frozenset())\n"
        "ind.greedy_independent_set(g)\n"
    ),
}


@pytest.mark.parametrize("name", sorted(_BAD_WITNESS))
def test_bad_witness_raises_under_python_O(name):
    script = (
        "assert False, 'asserts are live'\n"
        "import tigraph.independence as ind\n"
        "from tigraph import UGraph\n"
        "g = UGraph.from_edges(2, [(1, 2)])\n" + _BAD_WITNESS[name]
    )
    src = str(Path(tigraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode != 0
    assert "AssertionError: witness is not independent" in proc.stderr
