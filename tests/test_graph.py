"""Core graph types, parsing, pruning, induced subgraphs, DOT export."""

import json

import pytest
from hypothesis import given, settings
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


@given(tigraphs())
@settings(max_examples=150)
def test_serialize_parse_roundtrip(g):
    assert parse_tigraph(serialize_tigraph(g)) == g


@given(tigraphs())
@settings(max_examples=100)
def test_induced_subgraph_edge_counts(g):
    vs = set(range(1, (g.n + 1) // 2 + 1))
    sub, _ = induced_subgraph(g, vs)
    expect_t = sum(1 for i, j in g.t.edges() if i in vs and j in vs)
    expect_i = sum(1 for a, b in g.i.edges if a in vs and b in vs)
    assert sub.t.num_edges() == expect_t
    assert sub.i.num_edges() == expect_i


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
