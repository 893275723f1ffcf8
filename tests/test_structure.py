"""SCC decomposition, periods, cyclic classes, primitivity index."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tigraph.structure
from tigraph import (
    Digraph,
    NotPrimitiveError,
    analyze_structure,
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
    assert t.structure.classes == ((1, 1, (2,), 1),)


def test_primitive_components_four_cycle():
    t = Digraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert t.structure.classes == tuple((0, 4, (v,), 1) for v in (1, 2, 3, 4))


def test_primitive_components_trivial_when_aperiodic(dbl):
    assert dbl.t.structure.classes == ((0, 1, (1, 2, 3, 4), 2),)


def test_primitive_components_period_two(period2_fixture):
    report = period2_fixture.t.structure
    assert report.periods == (2,)
    assert report.classes == ((0, 2, (1, 2, 3, 4), 4), (0, 2, (5, 6, 7, 8), 4))


def test_structure_report_holds_sccs_periods_and_classes_only():
    assert [f.name for f in dataclasses.fields(tigraph.StructureReport)] == [
        "sccs",
        "periods",
        "classes",
    ]
    assert "primitive_components" not in tigraph.__all__


def test_analyze_structure_builds_no_digraph(monkeypatch):
    # a period-3 SCC: 1 -> 2 -> 3 -> {1, 4}, 4 -> 5 -> 6 -> 1
    t = Digraph.from_edges(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 1)])
    built = []
    post_init = Digraph.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(Digraph, "__post_init__", counting)
    report = analyze_structure(t)
    assert report.periods == (3,)
    assert [cls for _, _, cls, _ in report.classes] == [(1, 4), (2, 5), (3, 6)]
    assert built == []


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
    assert report.classes == ((0, 1, (1,), 1), (2, 1, (3,), 1))


def test_analyze_structure_lets_a_class_gamma_failure_propagate(monkeypatch):
    # a class's p-step digraph is primitive: NotPrimitiveError there is a bug,
    # never a class without gamma
    def refuse(rows):
        raise NotPrimitiveError("class p-step graph is not primitive")

    monkeypatch.setattr(tigraph.structure, "_gamma", refuse)
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


def _bool_matrix_power(a, k):
    """k-th boolean power of a 0/1 matrix, kept 0/1 after every product."""
    power = np.eye(len(a), dtype=a.dtype)
    for _ in range(k):
        power = np.minimum(power @ a, 1)
    return power


def _class_step_matrix(t, scc, p, cls):
    """0/1 matrix of the length-p paths of T inside ``scc`` between vertices of ``cls``."""
    inside = [v - 1 for v in scc]
    step = _bool_matrix_power(adjacency_matrix(t)[np.ix_(inside, inside)], p)
    at = [scc.index(v) for v in cls]
    return step[np.ix_(at, at)]


@given(pruned_digraphs(n_max=7))
@settings(max_examples=60, deadline=None)
def test_primitive_component_blocks_are_primitive(t):
    report = analyze_structure(t)
    for k, p, cls, gamma in report.classes:
        assert gamma is not None
        assert gamma <= wielandt_cap(len(cls))
        # gamma is minimal: power gamma-1 is not all-positive
        block = _class_step_matrix(t, report.sccs[k], p, cls)
        assert _bool_matrix_power(block, gamma).all()
        if gamma > 1:
            assert not _bool_matrix_power(block, gamma - 1).all()


@given(pruned_digraphs(n_max=7))
@settings(max_examples=60, deadline=None)
def test_class_edges_rotate_between_classes(t):
    report = analyze_structure(t)
    for k, (scc, p) in enumerate(zip(report.sccs, report.periods)):
        if p is None or p == 1:
            continue
        classes = [cls for j, _, cls, _ in report.classes if j == k]
        assert len(classes) == p
        position = {v: c for c, cls in enumerate(classes) for v in cls}
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
    assert [k for k, _, _, _ in report.classes] == sorted(k for k, _, _, _ in report.classes)
    for k, (comp, p) in enumerate(zip(report.sccs, report.periods)):
        rows = [(q, cls, gamma) for j, q, cls, gamma in report.classes if j == k]
        if p is None:
            assert rows == []
            continue
        expect = _reference_primitive_components(t, comp)
        assert p == len(expect)
        assert [q for q, _, _ in rows] == [p] * p
        assert [cls for _, cls, _ in rows] == [cls for cls, _ in expect]
        assert [gamma for _, _, gamma in rows] == [
            _reference_primitivity_index(block) for _, block in expect
        ]


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


def test_analyze_structure_of_a_long_cycle_is_fast(monkeypatch):
    # period 2,000: stepping the power takes 1,999 products (1.8 s on a 2-vCPU
    # Xeon), squaring at most two per bit of the period
    n = 2000
    t = Digraph(n, tuple((v % n + 1,) for v in range(1, n + 1)))
    products = []
    bool_mul = tigraph.structure._bool_mul

    def counting(a, b):
        products.append(len(a))
        return bool_mul(a, b)

    monkeypatch.setattr(tigraph.structure, "_bool_mul", counting)
    report = analyze_structure(t)
    assert report.periods == (n,)
    assert report.classes == tuple((0, n, (v,), 1) for v in range(1, n + 1))
    assert len(products) <= 2 * n.bit_length()


def test_primitivity_index_reads_the_cached_analysis(monkeypatch):
    # a power search on the 400-cycle steps to the Wielandt bound, 159,202
    # products, before it calls the cycle non-primitive; the analysis squares
    # its way to the period and finds each one-vertex class's gamma at once
    n = 400
    cycle = Digraph(n, tuple((v % n + 1,) for v in range(1, n + 1)))
    products = []
    searched = []
    bool_mul, gamma = tigraph.structure._bool_mul, tigraph.structure._gamma

    def counting_mul(a, b):
        products.append(len(a))
        return bool_mul(a, b)

    def counting_gamma(rows):
        searched.append(len(rows))
        return gamma(rows)

    monkeypatch.setattr(tigraph.structure, "_bool_mul", counting_mul)
    monkeypatch.setattr(tigraph.structure, "_gamma", counting_gamma)
    with pytest.raises(NotPrimitiveError, match=f"Wielandt bound {wielandt_cap(n)}$"):
        primitivity_index(cycle)
    assert len(products) <= 2 * n.bit_length()
    assert searched == [1] * n  # one per cyclic class, none on all n rows

    # a primitive T analysed once is not searched again
    t = Digraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (5, 2)])
    assert t.structure.gamma() == 17
    del products[:], searched[:]
    assert primitivity_index(t) == 17
    assert products == searched == []


@pytest.mark.parametrize(
    "t, gamma",
    [
        (Digraph.from_edges(1, [(1, 1)]), 1),
        (Digraph.from_edges(2, [(1, 1), (1, 2), (2, 1)]), 2),
        (Digraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (5, 2)]), 17),
    ],
    ids=["loop", "golden_mean", "wielandt"],
)
def test_structure_gamma_of_the_lifts(t, gamma):
    # gamma(T_[m]) = gamma(T) - 1 + m; a single loop lifts to itself
    report = analyze_structure(t)
    assert report.gamma() == report.gamma(1) == gamma
    for m in range(2, 6):
        assert report.gamma(m) == (gamma if t.n == 1 else gamma - 1 + m)
