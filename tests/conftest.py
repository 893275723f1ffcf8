"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from tigraph import (
    Digraph,
    EmptyGraphError,
    TIGraph,
    UGraph,
    prune_stranded,
    ti_from_circle,
)
from tigraph.ingest import Arc, IntervalCover, doubling_map


@pytest.fixture(scope="session")
def dbl() -> TIGraph:
    """Doubling-map TI-graph, regenerated from its interval cover.

    Four closed arcs around the circle under x -> 2x.  Regenerating through
    the ingest route (rather than hand-entering edge lists) keeps the
    fixture and the covering oracle from drifting apart.  Expected result:
    T = 1->{1,2}, 2->{3,4}, 3->{1,2}, 4->{3,4}; I = the 4-cycle
    {1,2},{2,3},{3,4},{1,4}.
    """
    cover = IntervalCover(
        tuple(
            Arc.from_endpoints(a, b)
            for a, b in [("-0.1", "0.35"), ("0.15", "0.6"), ("0.4", "0.85"), ("0.65", "1.1")]
        )
    )
    return ti_from_circle(doubling_map(), cover)


@pytest.fixture(scope="session")
def gm() -> TIGraph:
    """Three-symbol graph whose I-component shift is the golden mean shift.

    Merging the overlapping symbols 1 and 3 into one label yields the
    sofic shift forbidding consecutive occurrences of the second label;
    its entropy is log((1+sqrt(5))/2).
    """
    return TIGraph(
        Digraph.from_edges(3, [(1, 1), (1, 2), (2, 3), (3, 1), (3, 2)]),
        UGraph.from_edges(3, [(1, 3)]),
    )


@pytest.fixture(scope="session")
def survey_corpus() -> list[dict]:
    """The 200 graphs of the benchmark's ``survey`` workload, as JSON dicts."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.survey_corpus()


@pytest.fixture(scope="session")
def plastic() -> Digraph:
    """Transition graph with characteristic polynomial x^3 - x - 1."""
    return Digraph.from_edges(3, [(1, 2), (2, 3), (3, 1), (3, 2)])


@pytest.fixture(scope="session")
def period2_fixture() -> TIGraph:
    """Constructed period-2 graph scoring log(4)/(2*4) in the component bound.

    The referenced 11-vertex example exists only as a figure, so this is a
    constructed replacement with the same arithmetic: one irreducible
    component of period 2 whose two cyclic classes both have
    class-transition primitivity index 4; the first class {1,2,3,4} carries
    no I-edges (independence number 4), the second {5,6,7,8} is an I-clique
    (independence number 1).  Built as a bipartite double of the 4-vertex
    primitive graph H = {1->2, 1->3, 2->3, 3->4, 3->1, 4->1} (gamma(H) = 4):
    i -> i+4 for i <= 4, and (i+4) -> j for every H-edge i -> j.
    """
    h_edges = [(1, 2), (1, 3), (2, 3), (3, 4), (3, 1), (4, 1)]
    t_edges = [(i, i + 4) for i in range(1, 5)]
    t_edges += [(i + 4, j) for i, j in h_edges]
    i_edges = [(a, b) for a in range(5, 9) for b in range(a + 1, 9)]
    return TIGraph(Digraph.from_edges(8, t_edges), UGraph.from_edges(8, i_edges))


@pytest.fixture(scope="session")
def too_large_for_gamma() -> TIGraph:
    """The 16,385-cycle with a loop at vertex 1, and edgeless I.

    T is primitive, one vertex above ``MAX_PRIMITIVITY_VERTICES``, so its
    gamma search is refused for size.
    """
    n = 16_385
    t = Digraph.from_edges(n, [(1, 1)] + [(v, v % n + 1) for v in range(1, n + 1)])
    return TIGraph(t, UGraph.from_edges(n, []))


def random_pruned_tigraph(rng: random.Random, n_max: int = 6) -> TIGraph:
    """Random TI-graph that survives pruning; deterministic for a given rng."""
    while True:
        n = rng.randint(1, n_max)
        p_t = rng.uniform(0.25, 0.65)
        p_i = rng.uniform(0.0, 0.6)
        t_edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < p_t
        ]
        i_edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < p_i
        ]
        try:
            g = TIGraph(Digraph.from_edges(n, t_edges), UGraph.from_edges(n, i_edges))
            pruned, _ = prune_stranded(g)
        except EmptyGraphError:
            continue
        return pruned


def adjacency_matrix(t: Digraph) -> np.ndarray:
    """Dense 0/1 adjacency of T as an int64 array; entry [i-1, j-1] is edge i -> j."""
    a = np.zeros((t.n, t.n), dtype=np.int64)
    for i, j in t.edges():
        a[i - 1, j - 1] = 1
    return a


def brute_force_mis(g: UGraph) -> int:
    """Independence number by enumerating all 2^n subsets (n <= 20)."""
    assert g.n <= 20
    adj = list(g.adj)
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() <= best:
            continue
        ok = True
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if adj[v] & mask:
                ok = False
                break
        if ok:
            best = mask.bit_count()
    return best


def label_words_anywhere(t: Digraph, labels: tuple[int, ...], max_len: int) -> set[tuple[int, ...]]:
    """All label sequences spelled by some vertex path, up to a length."""
    out: set[tuple[int, ...]] = set()
    cur: dict[tuple[int, ...], set[int]] = {}
    for v in range(1, t.n + 1):
        cur.setdefault((labels[v - 1],), set()).add(v)
    for _ in range(max_len):
        out.update(cur)
        nxt: dict[tuple[int, ...], set[int]] = {}
        for w, ends in cur.items():
            for v in ends:
                for s in t.succ[v - 1]:
                    nxt.setdefault(w + (labels[s - 1],), set()).add(s)
        cur = nxt
    return out
