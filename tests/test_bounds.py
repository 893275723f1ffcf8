"""Bound methods, the limit sequence, the oracle, and the aggregator."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tigraph
from tigraph import (
    Config,
    Digraph,
    EmptyGraphError,
    NotPrimitiveError,
    SizeCapExceeded,
    StateCapExceeded,
    TIGraph,
    UGraph,
    ValidationError,
    analyze_structure,
    best_bound,
    clique_components_check,
    complete_digraph_bound,
    component_bound,
    graph_digest,
    higher_graph,
    independent_subshift_bound,
    induced_subgraph,
    limit_sequence,
    max_independent_set,
    oracle_separated_count,
    parse_tigraph,
    perron_eigenvalue,
    primitive_bound,
    primitivity_index,
    prune_stranded,
    serialize_tigraph,
    sft_entropy,
    sofic_bound,
    verify_bound,
)

from tigraph.bounds import SeparatedCount, _indistinguishable_rows
from tigraph.graph import bits_of
from tigraph.higher import _enumerate_words, count_paths, words_indistinguishable
from tigraph.ingest import AffinePiece, Arc, CircleMap, IntervalCover, ti_from_circle

from conftest import random_pruned_tigraph

LN2 = math.log(2)
GOLDEN = (1 + math.sqrt(5)) / 2


def _complete_t(n):
    return Digraph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)])


def _edgeless_i_graph(t):
    return TIGraph(t, UGraph.from_edges(t.n, []))


# --- independent_subshift_bound -------------------------------------------

def test_independent_subshift_dbl_contributes_zero(dbl):
    b = independent_subshift_bound(dbl)
    assert b.value == 0.0
    assert b.certified


def test_independent_subshift_edgeless_i(dbl):
    g = _edgeless_i_graph(dbl.t)
    b = independent_subshift_bound(g)
    assert abs(b.value - sft_entropy(dbl.t)) <= 1e-9
    assert b.exact


def test_independent_subshift_complete_t_with_cycle_i():
    g = TIGraph(_complete_t(4), UGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    b = independent_subshift_bound(g)
    assert abs(b.value - LN2) <= 1e-9
    assert set(b.certificate["independent_set"]) in ({1, 3}, {2, 4})


def test_independent_subshift_prefers_entropy_over_size():
    # the unique maximum independent set {2,4,6} induces no cycle, while the
    # smaller independent set {1,3} induces a full 2-shift
    t_edges = [
        (1, 1), (1, 3), (3, 1), (3, 3),
        (1, 2), (2, 4), (4, 6), (6, 1), (1, 5), (5, 1),
    ]
    i_edges = [
        (1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5),
        (3, 4), (3, 5), (3, 6), (4, 5), (5, 6),
    ]
    g = TIGraph(Digraph.from_edges(6, t_edges), UGraph.from_edges(6, i_edges))
    mis = max_independent_set(g.i)
    assert mis.witness == (2, 4, 6)
    b = independent_subshift_bound(g)
    assert abs(b.value - LN2) <= 1e-9
    assert set(b.certificate["independent_set"]) == {1, 3}


def _reference_independent_subshift_bound(g, tol=1e-10):
    """Each candidate scored alone: full induced subgraph, pruned, one Perron solve."""
    mis = max_independent_set(g.i)
    candidates = [mis.witness]
    adj = [set() for _ in range(g.n)]
    for i, j in g.i.edges:
        adj[i - 1].add(j)
        adj[j - 1].add(i)
    seeds = range(1, g.n + 1) if g.n <= 128 else range(1, g.n + 1, max(1, g.n // 128))
    for seed in seeds:
        chosen = [seed]
        excluded = set(adj[seed - 1]) | {seed}
        for v in range(1, g.n + 1):
            if v not in excluded:
                chosen.append(v)
                excluded |= adj[v - 1] | {v}
        candidates.append(tuple(sorted(chosen)))
    best_value, best_set, best_lambda = -1.0, (), 0.0
    for cand in dict.fromkeys(candidates):
        sub, _ = induced_subgraph(g, cand)
        try:
            pruned_sub, _ = prune_stranded(sub)
        except EmptyGraphError:
            continue
        lam = perron_eigenvalue(pruned_sub.t, tol=tol).value
        value = math.log(max(lam, 1.0))
        if value > best_value + tol:
            best_value, best_set, best_lambda = value, cand, lam
    if not best_set:
        return tigraph.Bound("independent_subshift", 0.0, True, False, {})
    cert = {"independent_set": list(best_set), "lambda": best_lambda, "mis_exact": mis.exact}
    return tigraph.Bound(
        "independent_subshift", max(best_value, 0.0), True, g.i.num_edges() == 0, cert
    )


def _assert_subshift_matches_reference(g):
    got = independent_subshift_bound(g)
    expect = _reference_independent_subshift_bound(g)
    assert got == expect
    assert got.value.hex() == expect.value.hex()


def _pruned_or_reject(n, t_edges, i_edges):
    try:
        g, _ = prune_stranded(
            TIGraph(Digraph.from_edges(n, t_edges), UGraph.from_edges(n, i_edges))
        )
    except EmptyGraphError:
        assume(False)
    return g


def _i_edge_sets(n, min_size=0):
    vs = st.integers(1, n)
    pairs = st.tuples(vs, vs).filter(lambda p: p[0] != p[1])
    return st.sets(pairs, min_size=min_size, max_size=2 * n)


@st.composite
def pruned_tigraphs(draw, n_max=30, dense=False):
    # dense draws at least n T-edges and min(n, n(n - 1)) ordered I-pairs,
    # so that pruning keeps several vertices and the independent-subshift
    # bound sees several distinct candidates
    n = draw(st.integers(1, n_max))
    vs = st.integers(1, n)
    t_edges = draw(st.sets(st.tuples(vs, vs), min_size=n if dense else 1, max_size=3 * n))
    i_edges = draw(_i_edge_sets(n, min(n, n * (n - 1)) if dense else 0))
    return _pruned_or_reject(n, t_edges, i_edges)


@given(pruned_tigraphs(dense=True))
@settings(max_examples=150, deadline=None)
def test_independent_subshift_matches_one_solve_per_candidate(g):
    _assert_subshift_matches_reference(g)


@pytest.mark.parametrize("rotation", [0, 55])
def test_independent_subshift_matches_one_solve_per_candidate_on_wide_cover(rotation):
    # 200 arcs under x -> 3x: 100 distinct candidates
    arcs = [
        Arc.from_endpoints(Fraction(5 * i - 1, 1000), Fraction(5 * (i + 1) + 1, 1000))
        for i in range(200)
    ]
    cover = IntervalCover(tuple(arcs[rotation:] + arcs[:rotation]))
    cmap = CircleMap((AffinePiece(Fraction(0), Fraction(1), Fraction(3), Fraction(0)),))
    g, _ = prune_stranded(ti_from_circle(cmap, cover))
    _assert_subshift_matches_reference(g)


def _counting_perron(monkeypatch):
    """Record every matrix the subshift bound solves."""
    solved = []
    solve = tigraph.bounds.perron_eigenvalue

    def counting(a, **kwargs):
        solved.append(a)
        return solve(a, **kwargs)

    monkeypatch.setattr(tigraph.bounds, "perron_eigenvalue", counting)
    return solved


@pytest.mark.parametrize("rotation", [0, 55])
def test_independent_subshift_skips_candidates_that_cannot_win_on_wide_cover(
    rotation, monkeypatch
):
    # every candidate has lambda <= 2 by row and column sums, and the MIS
    # witness already reaches log 2: only the MIS witness is solved
    arcs = [
        Arc.from_endpoints(Fraction(5 * i - 1, 1000), Fraction(5 * (i + 1) + 1, 1000))
        for i in range(200)
    ]
    cover = IntervalCover(tuple(arcs[rotation:] + arcs[:rotation]))
    cmap = CircleMap((AffinePiece(Fraction(0), Fraction(1), Fraction(3), Fraction(0)),))
    g, _ = prune_stranded(ti_from_circle(cmap, cover))
    expect = _reference_independent_subshift_bound(g)
    solved = _counting_perron(monkeypatch)
    got = independent_subshift_bound(g)
    assert len(solved) == 1
    assert got == expect
    assert got.value.hex() == expect.value.hex()


def test_independent_subshift_winner_after_skipped_candidates_is_solved(monkeypatch):
    # I pairs 2k-1 with 2k, and first fit from the even seed 2k swaps 2k-1
    # for 2k in the all-odd set.  Every vertex has a loop; 1 <-> 3 gives the
    # earlier candidates lambda 2, and {18, 19, 21} is a complete digraph, so
    # only the seed-18 set reaches lambda 3.  Some candidates before it are
    # skipped; its smallest row sum is 1, so a bound that took minima would
    # skip it too.
    n = 24
    triangle = [(a, b) for a in (18, 19, 21) for b in (18, 19, 21)]
    t = Digraph.from_edges(n, [(v, v) for v in range(1, n + 1)] + [(1, 3), (3, 1)] + triangle)
    g = TIGraph(t, UGraph.from_edges(n, [(2 * k - 1, 2 * k) for k in range(1, n // 2 + 1)]))
    winner = sorted({*range(1, n, 2), 18} - {17})
    assert 18 not in max_independent_set(g.i).witness
    expect = _reference_independent_subshift_bound(g)
    solved = _counting_perron(monkeypatch)
    got = independent_subshift_bound(g)
    assert got.certificate["independent_set"] == winner
    assert abs(got.value - math.log(3)) <= 1e-9
    # the all-odd set and the 12 even-seed sets are 13 distinct candidates
    assert 0 < len(solved) < 13
    assert got == expect


@st.composite
def many_candidate_tigraphs(draw):
    """Pruned graphs on 9..40 vertices, so that many distinct candidates exist.

    Complete T and disjoint complete blocks have u_S = lambda_S for every
    S, the tight case of the skip's margin; circulant T is regular.
    """
    n = draw(st.integers(9, 40))
    kind = draw(st.sampled_from(["random", "complete", "blocks", "circulant"]))
    vs = st.integers(1, n)
    if kind == "random":
        t_edges = draw(st.sets(st.tuples(vs, vs), min_size=1, max_size=3 * n))
    elif kind == "complete":
        t_edges = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    elif kind == "blocks":
        size = draw(st.integers(1, 5))
        t_edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if (i - 1) // size == (j - 1) // size
        ]
    else:
        offsets = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4))
        t_edges = [(i, (i - 1 + a) % n + 1) for i in range(1, n + 1) for a in offsets]
    # at least n I-edges, or most first-fit candidates coincide
    pairs = st.tuples(vs, vs).filter(lambda p: p[0] != p[1])
    return _pruned_or_reject(n, t_edges, draw(st.sets(pairs, min_size=n, max_size=3 * n)))


@given(many_candidate_tigraphs(), st.sampled_from([1e-10, 1e-4, 0.5]))
@settings(max_examples=120, deadline=None)
def test_independent_subshift_skip_never_changes_the_result(g, tol):
    got = independent_subshift_bound(g, tol=tol)
    expect = _reference_independent_subshift_bound(g, tol)
    assert got == expect
    assert got.value.hex() == expect.value.hex()


# --- complete_digraph_bound -------------------------------------------------

def test_complete_digraph_bound_cycle_i():
    g = TIGraph(_complete_t(4), UGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    b = complete_digraph_bound(g)
    assert abs(b.value - LN2) <= 1e-9


def test_complete_digraph_bound_edgeless_i():
    g = _edgeless_i_graph(_complete_t(5))
    b = complete_digraph_bound(g)
    assert abs(b.value - math.log(5)) <= 1e-9


def test_complete_digraph_bound_rejects_incomplete_t(dbl):
    with pytest.raises(ValidationError, match="not the complete digraph"):
        complete_digraph_bound(dbl)


# --- primitive_bound ---------------------------------------------------------

def test_primitive_bound_dbl(dbl):
    b = primitive_bound(dbl)
    assert abs(b.value - LN2 / 2) <= 1e-9
    assert b.certificate["gamma"] == 2


def test_primitive_bound_all_ones_edgeless_i():
    g = _edgeless_i_graph(_complete_t(4))
    b = primitive_bound(g)
    assert abs(b.value - math.log(4)) <= 1e-9


def test_primitive_bound_on_lifted_dbl(dbl):
    lifted = higher_graph(dbl, 2).lifted
    b = primitive_bound(lifted)
    assert abs(b.value - math.log(4) / 3) <= 1e-9


def test_primitive_bound_rejects_periodic(period2_fixture, dbl):
    with pytest.raises(NotPrimitiveError):
        primitive_bound(period2_fixture)
    # a primitive certificate checked against a periodic graph fails, not raises
    assert verify_bound(period2_fixture, primitive_bound(dbl)) is False


# --- component_bound ---------------------------------------------------------

def test_component_bound_period2_arithmetic(period2_fixture):
    b = component_bound(period2_fixture)
    assert abs(b.value - math.log(4) / 8) <= 1e-9
    assert round(b.value, 3) == 0.173
    cert = b.certificate
    assert cert["period"] == 2
    assert cert["gamma"] == 4
    assert set(cert["independent_set"]) == {1, 2, 3, 4}


def test_component_bound_equals_primitive_when_aperiodic(dbl):
    assert abs(component_bound(dbl).value - primitive_bound(dbl).value) <= 1e-12


def test_component_bound_zero_when_classes_are_cliques():
    # period-2 two-cycle with the lone cross pair I-joined in each class
    t = Digraph.from_edges(4, [(1, 2), (2, 1), (3, 4), (4, 3), (1, 4), (3, 2)])
    g = TIGraph(t, UGraph.from_edges(4, [(1, 3), (2, 4)]))
    b = component_bound(g)
    assert b.value == 0.0


# --- the three class bounds against their separate implementations -----------

def _reference_complete_digraph_bound(g):
    n = g.n
    if g.t.num_edges() != n * n:
        raise ValidationError("transition graph is not the complete digraph")
    mis = max_independent_set(g.i)
    return tigraph.Bound(
        "complete_digraph",
        math.log(mis.size),
        True,
        False,
        {"applicable": True, "independent_set": list(mis.witness), "mis_exact": mis.exact},
    )


def _reference_primitive_bound(g):
    gamma = g.t.structure.gamma()
    mis = max_independent_set(g.i)
    value = math.log(mis.size) / gamma
    return tigraph.Bound(
        "primitive",
        value,
        True,
        False,
        {"independent_set": list(mis.witness), "gamma": gamma, "mis_exact": mis.exact},
    )


def _reference_component_bound(g):
    report = g.t.structure
    adj = g.i.adj
    masks = [sum(1 << (v - 1) for v in cls) for _, _, cls, _ in report.classes]
    if all(c & (adj[v] | 1 << v) == c for c in masks for v in bits_of(c)):
        return tigraph.Bound("component", 0.0, True, False, {})
    best = None
    for k, p, cls, gamma in report.classes:
        if gamma is None:
            continue
        sub, idx_map = induced_subgraph(g, cls)
        mis = max_independent_set(sub.i)
        value = math.log(mis.size) / (p * gamma)
        back = {v: old for old, v in idx_map.items()}
        cert = {
            "scc": list(report.sccs[k]),
            "class": list(cls),
            "period": p,
            "gamma": gamma,
            "independent_set": sorted(back[v] for v in mis.witness),
            "mis_exact": mis.exact,
        }
        if best is None or value > best[0]:
            best = (value, cert)
    if best is None:
        return tigraph.Bound("component", 0.0, True, False, {})
    return tigraph.Bound("component", best[0], True, False, best[1])


_CLASS_BOUNDS = (
    (complete_digraph_bound, _reference_complete_digraph_bound),
    (primitive_bound, _reference_primitive_bound),
    (component_bound, _reference_component_bound),
)


@st.composite
def complete_t_graphs(draw):
    n = draw(st.integers(1, 6))
    return TIGraph(_complete_t(n), UGraph.from_edges(n, draw(_i_edge_sets(n))))


@st.composite
def doubled_graphs(draw):
    """Bipartite double of a random H on k vertices: period 2 when H is primitive."""
    k = draw(st.integers(1, 5))
    ks = st.integers(1, k)
    h_edges = draw(st.sets(st.tuples(ks, ks), min_size=1, max_size=3 * k))
    t_edges = [(i, i + k) for i in range(1, k + 1)] + [(i + k, j) for i, j in h_edges]
    return _pruned_or_reject(2 * k, t_edges, draw(_i_edge_sets(2 * k)))


@given(st.one_of(pruned_tigraphs(n_max=12, dense=True), complete_t_graphs(), doubled_graphs()))
@settings(max_examples=200, deadline=None)
def test_class_bounds_match_separate_implementations(g):
    for fn, reference in _CLASS_BOUNDS:
        try:
            expect = reference(g)
        except (NotPrimitiveError, ValidationError) as exc:
            with pytest.raises(type(exc)):
                fn(g)
            continue
        got = fn(g)
        assert (got.method, got.certified, got.exact) == (
            expect.method, expect.certified, expect.exact)
        assert got.value.hex() == expect.value.hex()
        assert list(got.certificate.items()) == list(expect.certificate.items())


# --- sofic_bound -------------------------------------------------------------

def test_sofic_bound_gm_exact(gm):
    b = sofic_bound(gm)
    assert abs(b.value - math.log(GOLDEN)) <= 1e-9
    assert b.exact
    assert b.certified


def test_sofic_bound_dbl_zero_not_exact(dbl):
    b = sofic_bound(dbl)
    assert b.value == 0.0
    assert not b.exact


def test_sofic_bound_edgeless_i_exact(dbl):
    g = _edgeless_i_graph(dbl.t)
    b = sofic_bound(g)
    assert abs(b.value - sft_entropy(dbl.t)) <= 1e-9
    assert b.exact


# --- limit_sequence ----------------------------------------------------------

def test_limit_sequence_dbl(dbl):
    seq = limit_sequence(dbl, 4)
    assert seq.primitive and not seq.truncated
    for e in seq.entries:
        assert e.ind == 2**e.m
        assert e.gamma == e.m + 1
        assert abs(e.bound_via_gamma - e.m * LN2 / (e.m + 1)) <= 1e-9
        assert abs(e.bound_via_m - LN2) <= 1e-9
    value, m = seq.best()
    assert m == 4
    assert abs(value - 4 * LN2 / 5) <= 1e-9


def test_limit_sequence_edgeless_i(dbl):
    g = _edgeless_i_graph(dbl.t)
    seq = limit_sequence(g, 5)
    h = sft_entropy(dbl.t)
    # every word distinguishable: log(ind)/m = log(paths)/m -> h from above
    for e in seq.entries:
        assert e.bound_via_m >= h - 1e-9
    assert abs(seq.entries[-1].bound_via_m - math.log(4 * 2**4) / 5) <= 1e-9


def test_limit_sequence_m1_matches_primitive_bound(dbl):
    seq = limit_sequence(dbl, 1)
    assert abs(seq.entries[0].bound_via_gamma - primitive_bound(dbl).value) <= 1e-12


def test_limit_sequence_truncates_on_cap(dbl):
    seq = limit_sequence(dbl, 10, size_cap=50)
    assert seq.truncated
    assert seq.entries[-1].m < 10


def test_limit_sequence_nonprimitive_reports_estimates(period2_fixture):
    seq = limit_sequence(period2_fixture, 3)
    assert not seq.primitive
    for e in seq.entries:
        assert e.gamma is None
        assert e.bound_via_gamma is None
        assert e.bound_via_m >= 0.0


def test_running_supremum_is_monotone_in_m_max(dbl):
    values = [limit_sequence(dbl, m).best()[0] for m in range(1, 6)]
    assert values == sorted(values)


def test_doubling_limit_script_prints_the_gamma_normalized_sequence():
    # the lifted gammas m + 1 come from gamma(T) = 2 by the shift law
    script = Path(__file__).resolve().parents[1] / "scripts" / "doubling_limit.py"
    src = str(Path(tigraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(script), "--m-max", "4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "  m      ind  gamma  ln(ind)/gamma    ln(ind)/m\n"
        "  1        2      2    0.346573590  0.693147181\n"
        "  2        4      3    0.462098120  0.693147181\n"
        "  3        8      4    0.519860385  0.693147181\n"
        "  4       16      5    0.554517744  0.693147181\n"
        "\n"
        "best certified bound: 0.554517744 at m=4 (target ln 2 = 0.693147181)\n"
    )


# --- oracle ------------------------------------------------------------------

def test_oracle_dbl_counts(dbl):
    assert oracle_separated_count(dbl, 1).count == 2
    assert oracle_separated_count(dbl, 2).count == 4


def test_oracle_gm_hand_enumeration(gm):
    sep = oracle_separated_count(gm, 2)
    assert sep.count == 3


def test_oracle_edgeless_i_counts_all_paths(dbl):
    from tigraph.higher import count_paths

    g = _edgeless_i_graph(dbl.t)
    for n in (1, 2, 3, 4):
        assert oracle_separated_count(g, n).count == count_paths(g.t, n)


def test_oracle_witness_words_are_valid_separated_paths(dbl):
    from tigraph import is_vertex_path, words_indistinguishable

    sep = oracle_separated_count(dbl, 3)
    assert len(sep.witness) == sep.count
    for w in sep.witness:
        assert is_vertex_path(dbl.t, w)
    for i, a in enumerate(sep.witness):
        for b in sep.witness[i + 1 :]:
            assert not words_indistinguishable(dbl, a, b)


def test_oracle_size_cap(dbl):
    with pytest.raises(SizeCapExceeded):
        oracle_separated_count(dbl, 12, size_cap=100)


def test_oracle_builds_its_graph_one_row_at_a_time(dbl):
    # 4,096 words at n = 11: a table of every pair at every position would
    # take 4096**2 * 11 bytes (176 MiB); the bitset rows take 2 MiB
    tracemalloc.start()
    try:
        sep = oracle_separated_count(dbl, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sep.count == 2048
    assert peak < 32 * 2**20, peak


def test_oracle_matches_lifted_independence_number():
    rng = random.Random(17)
    for _ in range(25):
        g = random_pruned_tigraph(rng, n_max=5)
        for m in (1, 2, 3, 4):
            lifted = higher_graph(g, m).lifted
            assert (
                oracle_separated_count(g, m).count
                == max_independent_set(lifted.i).size
            )


def _reference_oracle_separated_count(g, n):
    """The oracle with its graph built from one (i, j) tuple per pair."""
    words = _enumerate_words(g.t, n)
    compat = np.eye(g.n + 1, dtype=bool)
    for a, b in g.i.edges:
        compat[a, b] = compat[b, a] = True
    arr = np.array(words, dtype=np.int64)
    pairwise = compat[arr[:, None, :], arr[None, :, :]].all(axis=2)
    np.fill_diagonal(pairwise, False)
    edges = [(int(a) + 1, int(b) + 1) for a, b in zip(*np.nonzero(np.triu(pairwise)))]
    mis = max_independent_set(UGraph.from_edges(len(words), edges))
    return SeparatedCount(n, mis.size, tuple(words[v - 1] for v in mis.witness))


def test_oracle_matches_the_pair_list_graph():
    rng = random.Random(23)
    graphs = [random_pruned_tigraph(rng, n_max=6) for _ in range(20)]
    vs = range(1, 5)
    graphs.append(
        TIGraph(_complete_t(4), UGraph.from_edges(4, [(i, j) for i in vs for j in vs if i < j]))
    )
    for g in graphs:
        for n in (1, 2, 3):
            if count_paths(g.t, n) <= 300:
                assert oracle_separated_count(g, n) == _reference_oracle_separated_count(g, n)


@st.composite
def word_families(draw):
    """A TI-graph and 1..12 equal-length words over its vertices, repeats allowed."""
    n = draw(st.integers(1, 6))
    g = TIGraph(Digraph.from_edges(n, []), UGraph.from_edges(n, draw(_i_edge_sets(n))))
    m = draw(st.integers(1, 4))
    words = draw(st.lists(st.tuples(*[st.integers(1, n)] * m), min_size=1, max_size=12))
    return g, words


@given(word_families())
@settings(max_examples=200, deadline=None)
def test_indistinguishable_rows_match_the_pairwise_definition(case):
    g, words = case
    expect = [
        sum(1 << l for l, b in enumerate(words) if l != k and words_indistinguishable(g, a, b))
        for k, a in enumerate(words)
    ]
    assert _indistinguishable_rows(g, words) == expect
    assert _indistinguishable_rows(g, words[:1]) == [0]


def test_oracle_subadditive_counts():
    rng = random.Random(19)
    from tigraph.higher import count_paths

    for _ in range(15):
        g = random_pruned_tigraph(rng, n_max=4)
        counts = {m: oracle_separated_count(g, m).count for m in (1, 2, 3, 4)}
        blocks = {m: count_paths(g.t, m) for m in (1, 2, 3, 4)}
        for m in (1, 2, 3, 4):
            assert counts[m] <= blocks[m]
        for m, k in [(1, 1), (1, 2), (1, 3), (2, 2), (3, 1)]:
            assert counts[m + k] <= blocks[m] * counts[k]


def test_concatenation_lower_bound_dbl(dbl):
    # primitive graph: words of length k*gamma pack ind(I)^k separated words
    from tigraph import primitivity_index

    gamma = primitivity_index(dbl.t)
    ind = max_independent_set(dbl.i).size
    for k in (1, 2, 3):
        assert oracle_separated_count(dbl, k * gamma).count >= ind**k


# --- best_bound aggregator ---------------------------------------------------

def test_best_bound_dbl_m4(dbl):
    report = best_bound(dbl, Config(m_max=4))
    best = report.best_bound()
    assert best.method == "higher_limit"
    assert abs(best.value - 4 * LN2 / 5) <= 1e-9
    assert best.certified


def test_best_bound_gm_sofic_exact(gm):
    report = best_bound(gm, Config(m_max=3))
    best = report.best_bound()
    assert best.method == "sofic"
    assert best.exact
    assert abs(best.value - math.log(GOLDEN)) <= 1e-9


def test_best_bound_edgeless_i_exact(dbl):
    g = _edgeless_i_graph(dbl.t)
    report = best_bound(g, Config(m_max=2))
    best = report.best_bound()
    assert best.exact
    assert abs(best.value - sft_entropy(dbl.t)) <= 1e-9


def test_best_bound_records_failures_without_aborting(dbl):
    report = best_bound(dbl, Config(m_max=6, size_cap=3))
    methods = [b.method for b in report.bounds]
    assert "higher_limit" in methods
    failed = next(b for b in report.bounds if b.method == "higher_limit")
    assert "error" in failed.certificate
    assert report.best_bound().value >= LN2 / 2 - 1e-9  # others still ran


@pytest.mark.parametrize(
    "field, value",
    [
        ("m_max", True),
        ("m_max", 2.5),
        ("m_max", "3"),
        ("mis_budget", 1.5),
        ("size_cap", True),
        ("state_cap", 10.0),
        ("tol", True),
        ("m_max", 0),
        ("mis_budget", 0),
        ("size_cap", -1),
        ("state_cap", 0),
        ("output_format", "xml"),
    ],
    ids=["m_max_bool", "m_max_float", "m_max_str", "mis_budget_float", "size_cap_bool",
         "state_cap_float", "tol_bool", "m_max_zero", "mis_budget_zero", "size_cap_negative",
         "state_cap_zero", "output_format_xml"],
)
def test_config_rejects_wrongly_typed_fields(field, value):
    # a bool passes as 1, and m_max=2.5 reached best_bound as a raw TypeError
    with pytest.raises(ValidationError, match=field):
        Config(**{field: value})


def test_best_bound_deterministic(dbl):
    r1 = best_bound(dbl, Config(m_max=3))
    r2 = best_bound(dbl, Config(m_max=3))
    assert r1 == r2
    assert r1.to_json_dict() == r2.to_json_dict()


def test_best_bound_index_attains_maximum(dbl, gm, period2_fixture):
    for g in (dbl, gm, period2_fixture):
        report = best_bound(g, Config(m_max=3))
        assert report.best_bound().value == max(b.value for b in report.bounds)


def test_graph_digest_stable_and_distinct(dbl, gm):
    assert graph_digest(dbl) == graph_digest(dbl)
    assert graph_digest(dbl) != graph_digest(gm)


# --- cross-cutting properties ------------------------------------------------

def test_no_bound_exceeds_classical_entropy():
    rng = random.Random(29)
    for _ in range(30):
        g = random_pruned_tigraph(rng, n_max=6)
        h = sft_entropy(g.t)
        report = best_bound(g, Config(m_max=3))
        for b in report.bounds:
            assert b.value <= h + 2e-10


def test_certificates_reverify():
    rng = random.Random(31)
    for _ in range(30):
        g = random_pruned_tigraph(rng, n_max=6)
        report = best_bound(g, Config(m_max=3))
        for b in report.bounds:
            assert verify_bound(g, b), (g, b)


def test_pruning_reports_and_rechecks_read_i_as_rows(dbl, survey_corpus):
    # a stranded source ahead of the doubling fixture (so pruning renumbers),
    # the fixture itself, and the survey graphs whose T is periodic or
    # reducible with a proper cyclic class: none builds I's pair tuple
    stranded = {"n": 5, "t_edges": [[1, 2]], "i_edges": [[1, 3]]}
    stranded["t_edges"] += [[i + 1, j + 1] for i, j in dbl.t.edges()]
    stranded["i_edges"] += [[a + 1, b + 1] for a, above in enumerate(dbl.i.neighbors_above(), 1) for b in above]
    graphs = [json.dumps(stranded), serialize_tigraph(dbl)]
    for d in survey_corpus:
        t = Digraph.from_edges(d["n"], [tuple(e) for e in d["t_edges"]])
        if not t.structure.primitive and any(len(c) < t.n for _, _, c, _ in t.structure.classes):
            graphs.append(json.dumps(d))
    assert len(graphs) > 10
    proper_class_solved = False
    for blob in graphs[:14]:
        g = parse_tigraph(blob)
        pruned, _ = prune_stranded(g)
        for b in best_bound(pruned, Config(m_max=3)).bounds:
            assert verify_bound(pruned, b), b
            proper_class_solved |= len(b.certificate.get("class", ())) not in (0, pruned.n)
        assert "edges" not in g.i.__dict__
        assert "edges" not in pruned.i.__dict__
    assert proper_class_solved


def test_certificates_made_at_a_coarse_tol_verify_at_that_tol_plus_1e_9():
    # the independent_subshift lambda and the sofic value are Perron values
    # certified to the report's tol only, so the default tol refuses some
    rng = random.Random(1)
    nontrivial = set()
    refused_at_default = 0
    for _ in range(12):
        g = random_pruned_tigraph(rng, n_max=6)
        for b in best_bound(g, Config(m_max=2, tol=1e-4)).bounds:
            assert verify_bound(g, b, tol=1e-4 + 1e-9), (g, b)
            if b.method in ("independent_subshift", "sofic") and b.value > 0:
                nontrivial.add(b.method)
                refused_at_default += not verify_bound(g, b)
    assert nontrivial == {"independent_subshift", "sofic"}
    assert refused_at_default > 0


def test_higher_shift_pipeline_invariance(dbl):
    # running the pipeline on the lift shifts the sequence index: entry k of
    # the lift matches entry m+k-1 of the base
    base_seq = limit_sequence(dbl, 5)
    lift = higher_graph(dbl, 2).lifted
    lift_seq = limit_sequence(lift, 4)
    for k, e in enumerate(lift_seq.entries, start=1):
        base_e = base_seq.entries[2 + k - 2]  # m + k - 1 with m = 2
        assert e.ind == base_e.ind
        assert e.gamma == base_e.gamma
        assert abs(e.bound_via_gamma - base_e.bound_via_gamma) <= 1e-9


def _complete_dbl_t(dbl):
    return TIGraph(_complete_t(dbl.n), dbl.i)


def _doubled_dbl(dbl):
    """Bipartite double of dbl's T, I on the first class: period 2, gamma 2 per class.

    The component bound picks the edgeless class [5, 6, 7, 8].
    """
    t_edges = [(i, i + 4) for i in range(1, 5)] + [(i + 4, j) for i, j in dbl.t.edges()]
    return TIGraph(Digraph.from_edges(8, t_edges), UGraph.from_edges(8, dbl.i.edges))


_DROP = object()  # a certificate change that deletes the key

# (method, graph builder, value or None to keep the honest one, certificate changes)
_TAMPERED = {
    "primitive-adjacent": ("primitive", None, None, {"independent_set": [1, 2]}),
    "primitive-repeated": (
        "primitive", None, math.log(3) / 2, {"independent_set": [1, 1, 1]}),
    "primitive-out-of-range": (
        "primitive", None, math.log(3) / 2, {"independent_set": [1, 3, 9]}),
    "primitive-empty": ("primitive", None, None, {"independent_set": []}),
    "primitive-non-integer": (
        "primitive", None, math.log(3) / 2, {"independent_set": [1, 3, 3.5]}),
    "component-repeated": (
        "component", None, math.log(3) / 2, {"independent_set": [1, 1, 1]}),
    "complete_digraph-repeated": (
        "complete_digraph", _complete_dbl_t, math.log(3), {"independent_set": [1, 1, 1]}),
    "independent_subshift-out-of-range": (
        "independent_subshift", None, None, {"independent_set": [1, 3, 9]}),
    "higher_limit-unequal-lengths": (
        "higher_limit", None, None, {"witness_words": [[1, 1], [2, 3, 1]]}),
    "higher_limit-no-words": ("higher_limit", None, None, {"witness_words": []}),
    # two valid words would support log 2 / gamma(T_[2]) > 0.01: only the
    # refused claim fails these; 1 -> 3 is no T-edge, and 1 ~ 2 ~ 3 in I
    "higher_limit-not-a-t-path": ("higher_limit", None, 0.01, {"witness_words": [[1, 1], [1, 3]]}),
    "higher_limit-indistinguishable-pair": (
        "higher_limit", None, 0.01, {"witness_words": [[1, 2], [2, 3]]}),
    # a word listed twice is indistinguishable from its copy
    "higher_limit-repeated-word": ("higher_limit", None, 0.01, {"witness_words": [[1, 1], [1, 1]]}),
    "primitive-error-entry": ("primitive", None, None, {"error": "SizeCapExceeded: x"}),
    # vertex 2 has no loop, so the set holds no cycle and supports only 0
    "independent_subshift-acyclic-set": ("independent_subshift", None, 0.3, {"independent_set": [2]}),
    # value 0 is all an acyclic set supports, but its lambda is still checked
    "independent_subshift-acyclic-set-string-lambda": (
        "independent_subshift", None, 0.0, {"independent_set": [2], "lambda": "x", "mis_exact": True}),
    "independent_subshift-acyclic-set-missing-lambda": (
        "independent_subshift", None, 0.0, {"independent_set": [2], "lambda": _DROP, "mis_exact": True}),
    "independent_subshift-missing-set": (
        "independent_subshift", None, None, {"independent_set": _DROP}),
    "primitive-missing-set": ("primitive", None, None, {"independent_set": _DROP}),
    "component-missing-set": ("component", None, None, {"independent_set": _DROP}),
    "higher_limit-missing-words": ("higher_limit", None, None, {"witness_words": _DROP}),
    "higher_limit-words-not-a-list": ("higher_limit", None, None, {"witness_words": 4}),
    "higher_limit-float-symbol": (
        "higher_limit", None, None, {"witness_words": [[1.5, 1], [2, 3]]}),
    "higher_limit-string-word": ("higher_limit", None, None, {"witness_words": ["ab"]}),
    "primitive-missing-gamma": ("primitive", None, None, {"gamma": _DROP}),
    "component-missing-class": ("component", None, None, {"class": _DROP}),
    "component-period-plus-one": ("component", _doubled_dbl, None, {"period": 3}),
    "component-period-minus-one": ("component", _doubled_dbl, None, {"period": 1}),
    "component-gamma-plus-one": ("component", _doubled_dbl, None, {"gamma": 3}),
    "component-gamma-minus-one": ("component", _doubled_dbl, None, {"gamma": 1}),
    "component-class-is-whole-scc": (
        "component", _doubled_dbl, None, {"class": list(range(1, 9))}),
    "component-list-period": ("component", _doubled_dbl, None, {"period": [2]}),
    "component-aperiodic-period-plus-one": ("component", None, None, {"period": 2}),
    "sofic-missing-states": ("sofic", None, None, {"num_states": _DROP}),
    # claimed integers must be ints: JSON true and 1.0 equal 1 but are not counts
    "primitive-bool-gamma": ("primitive", _complete_dbl_t, None, {"gamma": True}),
    "primitive-float-gamma": ("primitive", _complete_dbl_t, None, {"gamma": 1.0}),
    "component-bool-period": ("component", _complete_dbl_t, None, {"period": True}),
    "component-float-gamma": ("component", _complete_dbl_t, None, {"gamma": 1.0}),
    "component-float-period": ("component", _doubled_dbl, None, {"period": 2.0}),
    "sofic-bool-states": ("sofic", None, None, {"num_states": True}),
    "sofic-float-states": ("sofic", None, None, {"num_states": 1.0}),
    # claim fields that do not enter the value are checked all the same
    "sofic-clique-components-forged": ("sofic", None, None, {"clique_components": True}),
    "sofic-clique-components-int": ("sofic", None, None, {"clique_components": 0}),
    "sofic-wrong-labels": ("sofic", None, None, {"num_labels": 7}),
    "sofic-string-labels": ("sofic", None, None, {"num_labels": "x"}),
    "sofic-bool-labels": ("sofic", None, None, {"num_labels": True}),
    "sofic-missing-labels": ("sofic", None, None, {"num_labels": _DROP}),
    "independent_subshift-wrong-lambda": (
        "independent_subshift", None, None, {"lambda": 99.0}),
    "independent_subshift-int-lambda": ("independent_subshift", None, None, {"lambda": 1}),
    "independent_subshift-missing-lambda": (
        "independent_subshift", None, None, {"lambda": _DROP}),
    "independent_subshift-string-mis-exact": (
        "independent_subshift", None, None, {"mis_exact": "no"}),
    "primitive-int-mis-exact": ("primitive", None, None, {"mis_exact": 1}),
    "component-missing-mis-exact": ("component", _doubled_dbl, None, {"mis_exact": _DROP}),
    "complete_digraph-none-mis-exact": (
        "complete_digraph", _complete_dbl_t, None, {"mis_exact": None}),
}


@pytest.mark.parametrize("case", list(_TAMPERED))
def test_verify_bound_rejects_tampered_certificates(dbl, case):
    method, build, value, changes = _TAMPERED[case]
    g = build(dbl) if build else dbl
    report = best_bound(g, Config(m_max=2))
    b = next(b for b in report.bounds if b.method == method)
    assert verify_bound(g, b)
    cert = {k: v for k, v in {**b.certificate, **changes}.items() if v is not _DROP}
    tampered = type(b)(b.method, b.value if value is None else value, b.certified, b.exact, cert)
    assert verify_bound(g, tampered) is False


def _leaky_pair():
    """T = {1, 2 complete with loops; 3 -> 3; 3 -> 1}, I = {1-2}: overlap entropy 0.

    A word is 3...3 then a walk in {1, 2}, and 1 and 2 overlap, so length-n
    words fall into n + 1 classes.  T is reducible, so higher_limit is an
    estimate: log ind(I) = log 2 at m = 1.
    """
    t = Digraph.from_edges(3, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 1)])
    return TIGraph(t, UGraph.from_edges(3, [(1, 2)]))


def test_verify_bound_rejects_forged_flags(dbl):
    # no method proves its value exact on the doubling fixture, where the
    # overlap entropy is ln 2 and higher_limit gives 0.5545 at m = 4
    for b in best_bound(dbl, Config(m_max=4)).bounds:
        assert verify_bound(dbl, b)
        assert verify_bound(dbl, dataclasses.replace(b, exact=True)) is False, b.method
    g = _leaky_pair()
    b = next(b for b in best_bound(g, Config(m_max=3)).bounds if b.method == "higher_limit")
    assert not b.certified and abs(b.value - LN2) <= 1e-9
    assert verify_bound(g, b)
    assert verify_bound(g, dataclasses.replace(b, certified=True)) is False


def test_verify_bound_accepts_provable_exact_claims(dbl, gm):
    g = _edgeless_i_graph(dbl.t)
    exact = [b for b in best_bound(g, Config(m_max=2)).bounds if b.exact]
    assert [b.method for b in exact] == ["independent_subshift", "sofic"]
    assert all(verify_bound(g, b) for b in exact)
    b = next(b for b in best_bound(gm, Config(m_max=2)).bounds if b.method == "sofic")
    assert b.exact and verify_bound(gm, b)
    # {1, 2} is independent in edgeless I, but induces entropy 0 < ln 2
    cert = {"independent_set": [1, 2], "lambda": 1.0, "mis_exact": True}
    partial = tigraph.Bound("independent_subshift", 0.0, True, True, cert)
    assert verify_bound(g, dataclasses.replace(partial, exact=False))
    assert verify_bound(g, partial) is False


def test_verify_bound_is_false_where_a_recheck_hits_a_cap(dbl, too_large_for_gamma, monkeypatch):
    # T is primitive but too large for the gamma search, so this certified
    # family cannot be re-checked
    forged = tigraph.Bound("higher_limit", 0.1, True, False, {"witness_words": [[1], [2]]})
    assert too_large_for_gamma.t.structure.primitive
    assert verify_bound(too_large_for_gamma, forged) is False
    b = next(b for b in best_bound(dbl, Config(m_max=2)).bounds if b.method == "sofic")
    assert verify_bound(dbl, b)

    def capped(g):
        raise StateCapExceeded("state cap reached")

    monkeypatch.setattr("tigraph.bounds.sofic_entropy", capped)
    assert verify_bound(dbl, b) is False


def test_forged_flags_verify_only_where_provable():
    rng = random.Random(41)
    for _ in range(30):
        g = random_pruned_tigraph(rng, n_max=6)
        cliques = clique_components_check(g)
        primitive = analyze_structure(g.t).primitive
        for b in best_bound(g, Config(m_max=3)).bounds:
            assert verify_bound(g, b), (g, b)
            weaker = dataclasses.replace(b, certified=False, exact=False)
            assert verify_bound(g, weaker), (g, weaker)
            if "error" in b.certificate:
                continue
            provable = (b.method == "independent_subshift" and g.i.num_edges() == 0) or (
                b.method == "sofic" and cliques
            )
            assert verify_bound(g, dataclasses.replace(b, exact=True)) is provable, (g, b)
            if b.method == "higher_limit":
                forged = dataclasses.replace(b, certified=True)
                assert verify_bound(g, forged) is primitive, (g, b)


def _reference_verify_class_bound(g, bound, tol=1e-9):
    """The separate checks of the complete_digraph, primitive and component certificates."""
    cert = bound.certificate
    if "error" in cert:
        return bound.value == 0.0
    method = bound.method

    def vertex_list(x):
        return isinstance(x, (list, tuple)) and all(type(v) is int and 1 <= v <= g.n for v in x)

    def independent(vertices):
        if not vertex_list(vertices):
            return False
        vs = set(vertices)
        if not vs or len(vs) != len(vertices):
            return False
        return all(not (a in vs and b in vs) for a, b in g.i.edges)

    if method == "complete_digraph":
        if type(cert.get("mis_exact")) is not bool:
            return False
        if g.t.num_edges() != g.n * g.n or not independent(cert.get("independent_set")):
            return False
        return abs(math.log(len(cert["independent_set"])) - bound.value) <= tol

    if method == "primitive":
        if not independent(cert.get("independent_set")):
            return False
        if type(cert.get("mis_exact")) is not bool:
            return False
        if type(cert.get("gamma")) is not int:
            return False
        if not analyze_structure(g.t).primitive or primitivity_index(g.t) != cert.get("gamma"):
            return False
        return abs(math.log(len(cert["independent_set"])) / cert["gamma"] - bound.value) <= tol

    assert method == "component"
    if not cert:
        return bound.value == 0.0
    if type(cert.get("mis_exact")) is not bool:
        return False
    cls = cert.get("class")
    if not vertex_list(cls) or not independent(cert.get("independent_set")):
        return False
    if not set(cert["independent_set"]) <= set(cls):
        return False
    comps = {frozenset(c): (p, gs) for _, p, c, gs in analyze_structure(g.t).classes}
    key = frozenset(cls)
    if key not in comps:
        return False
    p, gamma = comps[key]
    if type(cert.get("period")) is not int or type(cert.get("gamma")) is not int:
        return False
    if p != cert.get("period") or gamma != cert.get("gamma"):
        return False
    expect = math.log(len(cert["independent_set"])) / (p * gamma)
    return abs(expect - bound.value) <= tol


def _certificate_pool(g):
    """Replacement values: JSON scalars and containers, vertex lists, classes, SCCs."""
    report = analyze_structure(g.t)
    pool = [
        True, False, None, 0, 1, 2, 3, 4, -1, 1.0, 2.0, 0.5, math.nan, math.inf,
        "1", "class", {}, {"gamma": 1}, [], [[1]], [1.0], [True], [0], [g.n + 1],
        [1], [2], [1, 2], [1, 3], [2, 4], [5, 6, 7, 8], [1, 1], [2],
        list(range(1, g.n + 1)), list(range(1, g.n + 2)), list(range(g.n, 0, -1)),
    ]
    pool += [list(c) for _, _, c, _ in report.classes]
    pool += [list(c) + list(c) for _, _, c, _ in report.classes]
    pool += [list(scc) for scc in report.sccs]
    pool += [q + d for _, q, _, _ in report.classes for d in (-1, 1)]
    pool += [gs + d for _, _, _, gs in report.classes if gs for d in (-1, 1)]
    return pool


def test_verify_bound_matches_separate_checks_on_mutated_certificates(dbl, period2_fixture):
    rng = random.Random(12)
    graphs = [
        dbl,
        period2_fixture,
        _complete_dbl_t(dbl),
        _doubled_dbl(dbl),
        TIGraph(_complete_t(2), UGraph.from_edges(2, [])),
        TIGraph(_complete_t(2), UGraph.from_edges(2, [(1, 2)])),
    ]
    graphs += [random_pruned_tigraph(rng, n_max=6) for _ in range(6)]
    decisions = {True: 0, False: 0}
    for g in graphs:
        pool = _certificate_pool(g)
        for b in best_bound(g, Config(m_max=1)).bounds:
            if b.method not in ("complete_digraph", "primitive", "component"):
                continue
            keys = list(b.certificate) + ["applicable", "independent_set", "class", "period",
                                          "gamma"]
            for k in range(300):
                cert = dict(b.certificate) if k % 50 else {}
                for key in rng.sample(keys, rng.randint(1, 2)):
                    if rng.random() < 0.2:
                        cert.pop(key, None)
                    else:
                        cert[key] = rng.choice(pool)
                value = rng.choice([b.value, b.value, 0.0])
                mutated = type(b)(b.method, value, b.certified, b.exact, cert)
                expect = _reference_verify_class_bound(g, mutated)
                assert verify_bound(g, mutated) is expect, (g, mutated)
                decisions[expect] += 1
    assert min(decisions.values()) > 100, decisions


def test_sofic_and_independent_subshift_share_one_log():
    # both are exact and equal h(T); np.log put sofic one ulp higher, so it
    # was best by rounding alone
    t = Digraph.from_edges(
        5, [(1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 3), (4, 5), (5, 1), (5, 3)]
    )
    report = best_bound(TIGraph(t, UGraph.from_rows([0] * 5)))
    values = {b.method: b.value for b in report.bounds}
    assert values["sofic"].hex() == values["independent_subshift"].hex()
    assert report.best == 0


def test_best_bound_analyses_base_t_once(dbl):
    import tigraph.structure

    # a fresh copy: the session fixture's T may already hold its analysis
    g = TIGraph(Digraph(dbl.n, dbl.t.succ), dbl.i)
    names = {
        getattr(tigraph.structure, name).__code__: name
        for name in ("scc_decompose", "_gamma")
    }
    calls = dict.fromkeys(names.values(), 0)

    def count(frame, event, arg):
        # keyed by code object: calls through any module's binding, on T or
        # on any lift, are all counted
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        best_bound(g, Config(m_max=3))
    finally:
        sys.setprofile(previous)
    assert calls == {"scc_decompose": 1, "_gamma": 1}


_BROKEN_INVARIANT = {
    "unknown Bound method": (
        "from tigraph.bounds import Bound\n"
        "Bound('no_such_method', 0.0, True, False)\n",
        "AssertionError: unknown method 'no_such_method'",
    ),
    "non-surjective LabeledGraph": (
        "from tigraph import Digraph\n"
        "from tigraph.sofic import LabeledGraph\n"
        "LabeledGraph(Digraph.from_edges(2, [(1, 2)]), (1, 3))\n",
        "AssertionError: labels must be surjective onto 1..r",
    ),
}


@pytest.mark.parametrize("name", sorted(_BROKEN_INVARIANT))
def test_invariant_checks_raise_under_python_O(name):
    body, expected = _BROKEN_INVARIANT[name]
    script = "assert False, 'asserts are live'\n" + body
    src = str(Path(tigraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode != 0
    assert expected in proc.stderr


def test_oracle_refuses_when_its_budget_runs_out():
    # at length 1 the word graph is I itself: a 5-cycle, which one branch
    # of the exact search cannot close
    complete = [(a, b) for a in range(1, 6) for b in range(1, 6)]
    g = TIGraph(Digraph.from_edges(5, complete), UGraph.from_edges(5, [(v, v % 5 + 1) for v in range(1, 6)]))
    assert oracle_separated_count(g, 1).count == 2
    with pytest.raises(SizeCapExceeded, match="budget exhausted inside the oracle"):
        oracle_separated_count(g, 1, mis_budget=1)


def test_limit_bound_clamps_at_the_report_tol(survey_corpus):
    # survey graph 11 is reducible, and its finite-m estimate passes h(T):
    # the ceiling is h(T) certified to the report's tol, not to the default
    g = parse_tigraph(json.dumps(survey_corpus[11]))
    assert not g.t.structure.primitive
    for tol in (1e-4, 1e-10):
        b = best_bound(g, Config(tol=tol)).bounds[-1]
        assert b.method == "higher_limit" and b.certificate["clamped_to_classical"]
        assert b.value.hex() == sft_entropy(g.t, tol=tol).hex()
        assert verify_bound(g, b, tol=tol + 1e-9)
    assert sft_entropy(g.t, tol=1e-4) != sft_entropy(g.t)
