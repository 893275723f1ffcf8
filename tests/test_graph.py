"""Core graph types, parsing, pruning, induced subgraphs, DOT export."""

import functools
import json
import operator
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tigraph.graph
from tigraph import (
    Digraph,
    EmptyGraphError,
    ParseError,
    SizeCapExceeded,
    TIGraph,
    UGraph,
    ValidationError,
    export_dot,
    induced_subgraph,
    is_vertex_path,
    parse_tigraph,
    prune_stranded,
    serialize_tigraph,
)

DBL_JSON = (
    '{"n":4,"t_edges":[[1,1],[1,2],[2,3],[2,4],[3,1],[3,2],[4,3],[4,4]],'
    '"i_edges":[[1,2],[2,3],[3,4],[1,4]]}'
)


def test_parse_smallest_graph():
    g = parse_tigraph('{"n":1,"t_edges":[[1,1]],"i_edges":[]}')
    assert g.n == 1
    assert g.t.edges() == [(1, 1)]
    assert g.i.edges == ()


def test_parse_dbl_fixture(dbl):
    g = parse_tigraph(DBL_JSON)
    assert g == dbl  # ingest-regenerated fixture matches the reference JSON


def test_parse_rejects_i_self_loop():
    with pytest.raises(ValidationError):
        parse_tigraph('{"n":3,"t_edges":[[1,2],[2,3],[3,1]],"i_edges":[[2,2]]}')


def test_parse_rejects_out_of_range():
    with pytest.raises(ValidationError):
        parse_tigraph('{"n":2,"t_edges":[[1,3]],"i_edges":[]}')


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_tigraph("{not json")
    with pytest.raises(ParseError):
        parse_tigraph('{"n":2,"t_edges":[[1]],"i_edges":[]}')
    with pytest.raises(ParseError):
        parse_tigraph('{"n":2,"i_edges":[]}')
    with pytest.raises(ValidationError):
        parse_tigraph('{"n":0,"t_edges":[],"i_edges":[]}')


def test_parse_text_format():
    text = """
    # comment
    n=3
    T 1 2   # trailing comment
    T 2 3
    T 3 1
    I 1 2
    """
    g = parse_tigraph(text, fmt="text")
    assert g.t.edges() == [(1, 2), (2, 3), (3, 1)]
    assert g.i.edges == ((1, 2),)


def test_parse_text_diagnostics_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_tigraph("n=2\nT 1 x\n", fmt="text")
    with pytest.raises(ParseError, match="line 1"):
        parse_tigraph("T 1 2\n", fmt="text")


def test_mismatched_vertex_counts_rejected():
    with pytest.raises(ValidationError):
        TIGraph(Digraph.from_edges(2, [(1, 2), (2, 1)]), UGraph.from_edges(3, []))


def test_roundtrip_identity(dbl):
    assert parse_tigraph(serialize_tigraph(dbl)) == dbl


def test_prune_removes_out_and_in_stranded():
    # vertex 3 has no outgoing edge, vertex 4 has no incoming edge
    g = TIGraph(
        Digraph.from_edges(4, [(1, 2), (2, 1), (1, 3), (4, 1)]),
        UGraph.from_edges(4, [(1, 3), (3, 4)]),
    )
    pruned, index_map = prune_stranded(g)
    assert index_map == {1: 1, 2: 2}
    assert pruned.t.edges() == [(1, 2), (2, 1)]
    assert pruned.i.edges == ()


def test_digraph_cols_are_the_transposed_rows(dbl):
    t = Digraph.from_edges(3, [(1, 2), (1, 3), (3, 3)])
    assert t.rows == (0b110, 0b000, 0b100)
    assert t.cols == (0b000, 0b001, 0b101)
    for j, col in enumerate(dbl.t.cols, start=1):
        assert col == sum(1 << (i - 1) for i in range(1, 5) if dbl.t.rows[i - 1] >> (j - 1) & 1)


def test_prune_keeps_two_cycle():
    g = TIGraph(Digraph.from_edges(2, [(1, 2), (2, 1)]), UGraph.from_edges(2, []))
    pruned, index_map = prune_stranded(g)
    assert pruned == g
    assert index_map == {1: 1, 2: 2}


def test_prune_cascades_to_empty():
    g = TIGraph(Digraph.from_edges(2, [(1, 2)]), UGraph.from_edges(2, []))
    with pytest.raises(EmptyGraphError):
        prune_stranded(g)


def test_prune_idempotent(dbl):
    once, _ = prune_stranded(dbl)
    twice, _ = prune_stranded(once)
    assert once == twice
    assert once.t.is_pruned()


def test_induced_subgraph_dbl(dbl):
    sub, index_map = induced_subgraph(dbl, {1, 3})
    # both endpoints inside {1,3}: the self-loop 1->1 and 3->1
    assert sub.t.edges() == [(1, 1), (2, 1)]
    assert sub.i.edges == ()
    assert index_map == {1: 1, 3: 2}


def test_induced_subgraph_full_set_is_identity(dbl):
    sub, index_map = induced_subgraph(dbl, range(1, 5))
    assert sub == dbl
    assert index_map == {v: v for v in range(1, 5)}


def test_induced_subgraph_singleton(dbl):
    sub, _ = induced_subgraph(dbl, {1})
    assert sub.t.edges() == [(1, 1)]
    assert sub.i.edges == ()


def test_induced_subgraph_rejects_empty_or_bad_set(dbl):
    with pytest.raises(ValidationError):
        induced_subgraph(dbl, set())
    with pytest.raises(ValidationError):
        induced_subgraph(dbl, {0, 1})


def test_export_dot_single_loop():
    g = parse_tigraph('{"n":1,"t_edges":[[1,1]],"i_edges":[]}')
    dot = export_dot(g)
    assert dot.count("->") == 1
    assert "1 -> 1;" in dot


def test_export_dot_dbl_edge_counts(dbl):
    dot = export_dot(dbl)
    solid = [ln for ln in dot.splitlines() if "->" in ln and "dashed" not in ln]
    dashed = [ln for ln in dot.splitlines() if "style=dashed" in ln]
    assert len(solid) == 8
    assert len(dashed) == 4
    assert all("dir=none" in ln and "constraint=false" in ln for ln in dashed)


def test_export_dot_deterministic(dbl):
    blob = serialize_tigraph(dbl)
    a = export_dot(parse_tigraph(blob))
    b = export_dot(parse_tigraph(blob))
    assert a == b


def test_is_vertex_path(dbl):
    assert is_vertex_path(dbl.t, (1, 2, 3, 1))
    assert not is_vertex_path(dbl.t, (1, 3))
    assert not is_vertex_path(dbl.t, ())
    assert not is_vertex_path(dbl.t, (0, 1))


@st.composite
def tigraphs(draw, n_max=6):
    n = draw(st.integers(1, n_max))
    t_edges = draw(
        st.sets(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n * n)
    )
    i_pairs = draw(
        st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1]),
            max_size=n * n,
        )
    )
    return TIGraph(Digraph.from_edges(n, t_edges), UGraph.from_edges(n, i_pairs))


def _reference_bfs(adj, seed, within):
    """Vertices of ``within`` reached from ``seed`` inside it, one vertex at a time."""
    inside = {v for v in range(len(adj)) if within >> v & 1}
    reached = {v for v in inside if seed >> v & 1}
    queue = list(reached)
    while queue:
        u = queue.pop()
        for w in inside - reached:
            if adj[u] >> w & 1:
                reached.add(w)
                queue.append(w)
    return sum(1 << v for v in reached)


@given(st.integers(1, 80), st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_component_of_matches_a_reference_bfs(n, prob, graph_seed, data):
    # sparse draws leave long paths, so the search runs many levels, and
    # dense ones reach all of within in one or two
    rng = random.Random(graph_seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < prob]
    adj = UGraph.from_edges(n, pairs).adj
    full = (1 << n) - 1
    within = data.draw(st.one_of(st.just(full), st.integers(1, full)))
    seed = data.draw(st.integers(1, full)) & within or within & -within
    assert tigraph.graph.component_of(adj, seed, within) == _reference_bfs(adj, seed, within)


def _or_of_rows(rows, mask):
    return functools.reduce(operator.or_, (rows[v] for v in tigraph.graph.bits_of(mask)), 0)


@given(st.integers(1, 80), st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_union_rows_is_the_or_of_the_rows_of_the_mask(n, prob, rows_seed, data):
    rng = random.Random(rows_seed)
    rows = [sum(1 << j for j in range(n) if rng.random() < prob) for _ in range(n)]
    full = (1 << n) - 1
    mask = data.draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    assert tigraph.graph.union_rows(rows, mask) == _or_of_rows(rows, mask)
    assert tigraph.graph.union_rows(tuple(rows), mask) == _or_of_rows(rows, mask)
    # the table restrict_rows passes: a dict from the bits of a subset to
    # their new single bits, read inside the subset only
    keys = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    new_bit = {b: 1 << pos for pos, b in enumerate(keys)}
    inside = mask & sum(1 << b for b in keys)
    assert tigraph.graph.union_rows(new_bit, inside) == _or_of_rows(new_bit, inside)


@given(st.integers(2, 80), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_restrict_rows_on_a_non_prefix_subset_matches_a_per_pair_reference(n, rows_seed, data):
    rng = random.Random(rows_seed)
    rows = [rng.getrandbits(n) for _ in range(n)]  # loops included
    vertices = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    assume(vertices[-1] != len(vertices))  # a prefix 1..k takes the fast path
    expect = [
        sum(1 << pos for pos, w in enumerate(vertices) if rows[v - 1] >> (w - 1) & 1)
        for v in vertices
    ]
    assert tigraph.graph.restrict_rows(rows, vertices) == expect


@given(tigraphs())
@settings(max_examples=150)
def test_serialize_parse_roundtrip(g):
    assert parse_tigraph(serialize_tigraph(g)) == g


@given(st.data())
@settings(max_examples=100)
def test_induced_subgraph_edge_counts(data):
    # an arbitrary subset renumbers its vertices; the pairs of the input,
    # kept and mapped through index_map, are the restriction's own
    g = data.draw(tigraphs())
    vs = data.draw(st.sets(st.integers(1, g.n), min_size=1))
    sub, index_map = induced_subgraph(g, vs)
    assert index_map == {v: k for k, v in enumerate(sorted(vs), start=1)}
    expect_t = {(index_map[i], index_map[j]) for i, j in g.t.edges() if i in vs and j in vs}
    expect_i = {(index_map[a], index_map[b]) for a, b in g.i.edges if a in vs and b in vs}
    assert set(sub.t.edges()) == expect_t
    assert set(sub.i.edges) == expect_i
    assert sub.t.num_edges() == len(expect_t)
    assert sub.i.num_edges() == len(expect_i)


@given(tigraphs())
@settings(max_examples=100)
def test_prune_output_satisfies_degree_invariant(g):
    try:
        pruned, _ = prune_stranded(g)
    except EmptyGraphError:
        return
    assert pruned.t.is_pruned()
    again, _ = prune_stranded(pruned)
    assert again == pruned


def test_json_serialization_is_canonical(dbl):
    blob = serialize_tigraph(dbl)
    obj = json.loads(blob)
    assert list(obj) == ["n", "t_edges", "i_edges"]
    assert obj["t_edges"] == sorted(obj["t_edges"])
    assert obj["i_edges"] == sorted(obj["i_edges"])
    # reordered input serializes to the same canonical bytes
    shuffled = json.dumps(
        {"n": 4, "t_edges": list(reversed(obj["t_edges"])), "i_edges": list(reversed(obj["i_edges"]))}
    )
    assert serialize_tigraph(parse_tigraph(shuffled)) == blob


@st.composite
def row_graphs(draw, n_max=70):
    """(n, edge pairs, bitset rows) of a random simple graph; rows past 64 bits too."""
    n = draw(st.integers(1, n_max))
    pairs = draw(
        st.sets(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1]))
    )
    rows = [0] * n
    for i, j in pairs:
        rows[i - 1] |= 1 << (j - 1)
        rows[j - 1] |= 1 << (i - 1)
    return n, pairs, rows


@given(row_graphs())
@settings(max_examples=150)
def test_from_rows_matches_from_edges(case):
    n, pairs, rows = case
    by_edges = UGraph.from_edges(n, pairs)
    by_rows = UGraph.from_rows(rows)
    assert by_rows.num_edges() == by_edges.num_edges()
    assert by_rows.adj == by_edges.adj
    assert by_rows == by_edges and by_edges == by_rows
    assert hash(by_rows) == hash(by_edges)
    # counted, compared and hashed from the rows alone, whichever
    # constructor built the graph
    assert "edges" not in by_rows.__dict__
    assert "edges" not in by_edges.__dict__
    assert by_rows.edges == by_edges.edges
    assert by_rows.components == by_edges.components


def test_bitset_cap_fires_at_construction(monkeypatch):
    monkeypatch.setattr(tigraph.graph, "MAX_BITSET_VERTICES", 8)
    with pytest.raises(SizeCapExceeded, match="n=9"):
        UGraph.from_edges(9, [])
    with pytest.raises(SizeCapExceeded, match="n=9"):
        UGraph.from_rows([0] * 9)
    assert UGraph.from_edges(8, [(1, 8)]).num_edges() == 1


def test_from_rows_rejects_empty_row_list():
    with pytest.raises(ValidationError, match="vertex count"):
        UGraph.from_rows([])


def test_from_rows_rejects_diagonal_bit():
    with pytest.raises(ValidationError, match=r"\(2,2\): self-loops"):
        UGraph.from_rows([0b010, 0b011, 0b000])


def test_from_rows_rejects_bit_past_last_vertex():
    with pytest.raises(ValidationError, match="row 3: neighbor out of range 1..3"):
        UGraph.from_rows([0b100, 0b000, 0b1001])


def test_ugraph_is_immutable():
    for g in (UGraph.from_edges(2, [(1, 2)]), UGraph.from_rows([0b10, 0b01])):
        with pytest.raises(AttributeError):
            g.n = 3
        with pytest.raises(AttributeError):
            del g.edges


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Digraph(0, ()), ValidationError, "vertex count must be >= 1"),
        (lambda: Digraph(2, ((2,),)), ValidationError, "successor table length differs from n"),
        (lambda: Digraph(2, ((3,), (1,))), ValidationError, r"T edge \(1,3\): endpoint out of range 1..2"),
        (lambda: Digraph(2, ((0,), (1,))), ValidationError, r"T edge \(1,0\): endpoint out of range"),
        (lambda: Digraph(2, ((2, 1), (1,))), ValidationError, "successors of vertex 1 not strictly"),
        (lambda: Digraph(2, ((1,), (1, 1))), ValidationError, "successors of vertex 2 not strictly"),
        (lambda: UGraph(2, (0,)), ValidationError, "I row count differs from n"),
        (lambda: UGraph.from_edges(2, [(1, 3)]), ValidationError, r"I edge \(1,3\): endpoint out of range"),
        (lambda: parse_tigraph('{"n":2,"t_edges":{},"i_edges":[]}'), ParseError, "'t_edges' must be a list"),
        (lambda: parse_tigraph("n=1", fmt="yaml"), ParseError, "unknown format 'yaml'"),
        (lambda: parse_tigraph('{"n":"2","t_edges":[],"i_edges":[]}'), ParseError, "'n' must be an integer"),
        (lambda: parse_tigraph('{"n":true,"t_edges":[],"i_edges":[]}'), ParseError, "'n' must be an integer"),
        (lambda: parse_tigraph("[1, 2]"), ParseError, "top-level JSON value must be an object"),
        (lambda: parse_tigraph("n=two", fmt="text"), ParseError, "line 1: bad vertex count 'two'"),
        (lambda: parse_tigraph("n=2\nT 1", fmt="text"), ParseError, "line 2: expected 'T i j'"),
        (lambda: parse_tigraph("n=2\nX 1 2", fmt="text"), ParseError, "line 2: expected 'T i j'"),
        (lambda: parse_tigraph("# no header\n\n", fmt="text"), ParseError, "missing 'n=<int>' header"),
    ],
    ids=[
        "digraph_no_vertex", "digraph_short_table", "digraph_endpoint_high", "digraph_endpoint_zero",
        "digraph_descending", "digraph_repeated", "ugraph_short_rows", "ugraph_endpoint_high",
        "json_pairs_not_list", "unknown_format", "json_n_string", "json_n_bool", "json_not_object",
        "text_bad_count", "text_short_line", "text_bad_kind", "text_no_header",
    ],
)
def test_graph_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])),
    st.integers(0, (1 << n) - 1),
)))
@settings(max_examples=200, deadline=None)
def test_is_clique_is_the_pairwise_test(case):
    n, pairs, mask = case
    g = UGraph.from_edges(n, pairs)
    vs = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
    edges = set(g.edges)
    assert g.is_clique(mask) == all((a, b) in edges for a in vs for b in vs if a < b)
