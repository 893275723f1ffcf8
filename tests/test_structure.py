"""SCC decomposition, periods, primitive components, primitivity index."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tigraph import (
    Digraph,
    NotPrimitiveError,
    ValidationError,
    analyze_structure,
    primitive_components,
    primitivity_index,
    scc_decompose,
    wielandt_cap,
)
from tigraph.structure import _bool_mul, _bool_power

from conftest import adjacency_matrix


def test_dbl_single_scc(dbl):
    assert scc_decompose(dbl.t) == [(1, 2, 3, 4)]


def test_scc_topological_order():
    t = Digraph.from_edges(2, [(1, 1), (1, 2), (2, 2)])
    assert scc_decompose(t) == [(1,), (2,)]


def test_scc_two_components_one_singleton():
    # pruned shape with two irreducible components, one of them a singleton
    t = Digraph.from_edges(
        4, [(1, 2), (2, 1), (1, 3), (3, 3), (2, 4), (4, 1)]
    )
    comps = scc_decompose(t)
    assert sorted(map(len, comps)) == [1, 3]
    assert (3,) in comps


def test_period_two_cycle():
    t = Digraph.from_edges(2, [(1, 2), (2, 1)])
    assert t.structure.periods == (2,)


def test_period_dbl(dbl):
    assert dbl.t.structure.periods == (1,)


def test_period_self_loop():
    t = Digraph.from_edges(1, [(1, 1)])
    assert t.structure.periods == (1,)


def test_period_rejects_acyclic_singleton():
    t = Digraph.from_edges(2, [(1, 2), (2, 2)])
    assert t.structure.periods == (None, 1)
    for g in (t, Digraph.from_edges(2, [(1, 2), (2, 1)])):
        with pytest.raises(ValidationError, match="no cycle"):
            primitive_components(g, (1,))


def test_primitive_components_rejects_a_set_that_does_not_reach_its_smallest():
    # 1 -> 2 and a loop at 2: both are reached from 1, but 2 never returns
    t = Digraph.from_edges(2, [(1, 2), (2, 2)])
    with pytest.raises(ValidationError, match="strongly connected"):
        primitive_components(t, (1, 2))


def test_primitive_components_four_cycle():
    t = Digraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    comps = primitive_components(t, (1, 2, 3, 4))
    assert [cls for cls, _ in comps] == [(1,), (2,), (3,), (4,)]
    for _, block in comps:
        assert block.edges() == [(1, 1)]


def test_primitive_components_trivial_when_aperiodic(dbl):
    comps = primitive_components(dbl.t, (1, 2, 3, 4))
    assert len(comps) == 1
    cls, block = comps[0]
    assert cls == (1, 2, 3, 4)
    assert block.edges() == dbl.t.edges()


def test_primitive_components_period_two(period2_fixture):
    t = period2_fixture.t
    assert t.structure.periods == (2,)
    comps = primitive_components(t, range(1, 9))
    assert [cls for cls, _ in comps] == [(1, 2, 3, 4), (5, 6, 7, 8)]
    for _, block in comps:
        assert primitivity_index(block) == 4


def test_primitivity_index_dbl(dbl):
    assert primitivity_index(dbl.t) == 2


def test_primitivity_index_all_ones():
    t = Digraph.from_edges(3, [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])
    assert primitivity_index(t) == 1


def test_primitivity_index_wielandt_extremal():
    # 5-cycle plus the chord 5->2: the extremal primitive graph
    t = Digraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (5, 2)])
    gamma = primitivity_index(t)
    assert gamma == wielandt_cap(5) == 17
    # independent check by integer matrix powers
    a = adjacency_matrix(t)
    p = np.linalg.matrix_power(a, gamma)
    assert (p > 0).all()
    assert not (np.linalg.matrix_power(a, gamma - 1) > 0).all()


def test_primitivity_index_rejects_periodic():
    t = Digraph.from_edges(2, [(1, 2), (2, 1)])
    with pytest.raises(NotPrimitiveError):
        primitivity_index(t)


def test_is_primitive(dbl, period2_fixture):
    assert dbl.t.structure.primitive
    assert not period2_fixture.t.structure.primitive
    assert not Digraph.from_edges(2, [(1, 1), (1, 2), (2, 2)]).structure.primitive
    assert Digraph.from_edges(1, [(1, 1)]).structure.primitive
    assert not Digraph.from_edges(2, [(1, 2), (2, 1)]).structure.primitive


def test_analyze_structure_skips_acyclic_singletons():
    t = Digraph.from_edges(3, [(1, 1), (1, 2), (2, 3), (3, 3)])
    report = analyze_structure(t)
    assert report.sccs == ((1,), (2,), (3,))
    assert report.periods == (1, None, 1)
    assert report.components[1] is None
    assert report.gammas == ((1,), None, (1,))


def test_analyze_structure_lets_a_class_gamma_failure_propagate(monkeypatch):
    # a class's p-step digraph is primitive: NotPrimitiveError there is a bug,
    # never a class without gamma
    import tigraph.structure

    def refuse(t):
        raise NotPrimitiveError("class digraph is not primitive")

    monkeypatch.setattr(tigraph.structure, "primitivity_index", refuse)
    with pytest.raises(NotPrimitiveError):
        analyze_structure(Digraph.from_edges(2, [(1, 2), (2, 1)]))


@st.composite
def pruned_digraphs(draw, n_max=8):
    n = draw(st.integers(1, n_max))
    edges = set(draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n * n)))
    # close the degree invariant by adding a covering cycle
    edges |= {(v, v % n + 1) for v in range(1, n + 1)}
    return Digraph.from_edges(n, edges)


@given(pruned_digraphs())
@settings(max_examples=100, deadline=None)
def test_scc_matches_reachability_closure(t):
    n = t.n
    reach = adjacency_matrix(t).astype(bool) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    mutual = reach & reach.T
    expected = {frozenset(np.nonzero(mutual[v])[0] + 1) for v in range(n)}
    got = {frozenset(c) for c in scc_decompose(t)}
    assert got == expected


@given(pruned_digraphs(n_max=8))
@settings(max_examples=80, deadline=None)
def test_period_divides_every_cycle_length(t):
    import networkx as nx

    nxg = nx.DiGraph(t.edges())
    report = analyze_structure(t)
    for comp, p in zip(report.sccs, report.periods):
        lengths = [len(c) for c in nx.simple_cycles(nxg.subgraph(comp))]
        # the period is the gcd of the cycle lengths; an acyclic singleton has none
        assert p == (math.gcd(*lengths) if lengths else None)


@given(pruned_digraphs(n_max=7))
@settings(max_examples=60, deadline=None)
def test_primitive_component_blocks_are_primitive(t):
    report = analyze_structure(t)
    for comps, gammas in zip(report.components, report.gammas):
        if comps is None:
            continue
        for (cls, block), gamma in zip(comps, gammas):
            assert gamma is not None
            assert gamma <= wielandt_cap(len(cls))
            # gamma is minimal: power gamma-1 is not all-positive
            a = adjacency_matrix(block)
            assert (np.linalg.matrix_power(a, gamma) > 0).all()
            if gamma > 1:
                assert not (np.linalg.matrix_power(a, gamma - 1) > 0).all()


@given(pruned_digraphs(n_max=7))
@settings(max_examples=60, deadline=None)
def test_class_edges_rotate_between_classes(t):
    report = analyze_structure(t)
    for scc, p, comps in zip(report.sccs, report.periods, report.components):
        if comps is None or p == 1:
            continue
        position = {}
        for k, (cls, _) in enumerate(comps):
            for v in cls:
                position[v] = k
        members = set(scc)
        for u in scc:
            for w in t.succ[u - 1]:
                if w in members:
                    assert position[w] == (position[u] + 1) % p


# --- boolean powers against the A^k * A order ----------------------------------


def _reference_primitivity_index(t):
    """Least all-positive power, stepping A^(k+1) = A^k * A."""
    cap = wielandt_cap(t.n)
    full = (1 << t.n) - 1
    rows = list(t.rows)
    power = rows
    k = 1
    while k <= cap:
        if all(r == full for r in power):
            return k
        power = _bool_mul(power, rows)
        k += 1
    raise NotPrimitiveError(f"no all-positive power up to the Wielandt bound {cap}")


def _reference_primitive_components(t, scc):
    """Cyclic classes and their p-step digraphs, with A^(k+1) = A^k * A."""
    comp = sorted(set(scc))
    members = set(comp)
    level = {comp[0]: 0}
    frontier = [comp[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for w in t.succ[u - 1]:
                if w in members and w not in level:
                    level[w] = level[u] + 1
                    nxt.append(w)
        frontier = nxt
    # every cycle's length is a sum of level(u) + 1 - level(w) over its edges
    p = 0
    for u in comp:
        for w in t.succ[u - 1]:
            if w in members:
                p = math.gcd(p, level[u] + 1 - level[w])
    classes = [sorted(v for v in comp if level[v] % p == r) for r in range(p)]
    local = {v: k for k, v in enumerate(comp)}
    rows = [0] * len(comp)
    for v in comp:
        for w in t.succ[v - 1]:
            if w in members:
                rows[local[v]] |= 1 << local[w]
    power = rows
    for _ in range(p - 1):
        power = _bool_mul(power, rows)
    out = []
    for cls in classes:
        pos = {v: k for k, v in enumerate(cls)}
        edges = [
            (pos[v] + 1, pos[w] + 1) for v in cls for w in cls if power[local[v]] >> local[w] & 1
        ]
        out.append((tuple(cls), Digraph.from_edges(len(cls), edges)))
    return out


@st.composite
def shaped_digraphs(draw, n_max=12):
    """Primitive, periodic or reducible digraphs with a covering cycle or two."""
    n = draw(st.integers(1, n_max))
    kind = draw(st.sampled_from(["random", "periodic", "reducible"]))
    vs = st.integers(1, n)
    if kind == "random":
        edges = set(draw(st.sets(st.tuples(vs, vs), max_size=2 * n)))
        edges |= {(v, v % n + 1) for v in range(1, n + 1)}
    elif kind == "periodic":
        p = draw(st.integers(1, n))
        n -= n % p
        extra = draw(st.sets(st.tuples(st.integers(1, n), st.integers(0, n // p - 1)), max_size=n))
        edges = {(v, v % n + 1) for v in range(1, n + 1)}
        edges |= {(u, v_class * p + u % p + 1) for u, v_class in extra}
    else:
        cut = draw(st.integers(0, n))
        edges = {(v, v % cut + 1) for v in range(1, cut + 1)}
        edges |= {(v, (v - cut) % (n - cut) + cut + 1) for v in range(cut + 1, n + 1)}
        edges |= set(draw(st.sets(st.tuples(vs, vs), max_size=n)))
    return Digraph.from_edges(n, edges)


def _gamma_or_error(fn, t):
    try:
        return fn(t)
    except NotPrimitiveError as exc:
        return str(exc)


@given(shaped_digraphs())
@settings(max_examples=200, deadline=None)
def test_primitivity_index_matches_the_other_power_order(t):
    expect = _gamma_or_error(_reference_primitivity_index, t)
    assert _gamma_or_error(primitivity_index, t) == expect


@given(shaped_digraphs())
@settings(max_examples=150, deadline=None)
def test_primitive_components_match_the_other_power_order(t):
    report = analyze_structure(t)
    for comp, p, comps in zip(report.sccs, report.periods, report.components):
        if comps is None:
            continue
        assert comps == tuple(_reference_primitive_components(t, comp))
        assert p == len(comps)


@st.composite
def periodic_sccs(draw, n_max=40):
    """A strongly connected digraph whose classes mod p step to the next class."""
    p = draw(st.integers(1, 12))
    n = p * draw(st.integers(1, n_max // p))
    extra = draw(st.sets(st.tuples(st.integers(1, n), st.integers(0, n // p - 1)), max_size=2 * n))
    edges = {(v, v % n + 1) for v in range(1, n + 1)}
    edges |= {(u, (v_class * p + u) % n + 1) for u, v_class in extra}
    return Digraph.from_edges(n, edges)


@given(periodic_sccs(), st.integers(1, 120))
@settings(max_examples=200, deadline=None)
def test_bool_power_matches_stepping(t, k):
    rows = list(t.rows)
    (p,) = analyze_structure(t).periods
    for e in (p, k):
        stepped = rows
        for _ in range(e - 1):
            stepped = _bool_mul(stepped, rows)
        assert _bool_power(rows, e) == stepped


def test_analyze_structure_of_a_long_cycle_is_fast():
    # period 2,000: one product per step of the power took 1.8 s on a 2-vCPU Xeon
    n = 2000
    t = Digraph(n, tuple((v % n + 1,) for v in range(1, n + 1)))
    start = time.perf_counter()
    report = analyze_structure(t)
    elapsed = time.perf_counter() - start
    assert report.periods == (n,)
    assert report.gammas == ((1,) * n,)
    assert elapsed < 0.25
