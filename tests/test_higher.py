"""Higher vertex graph construction and word indistinguishability."""

import json
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tigraph.bounds
import tigraph.higher
from tigraph import (
    Config,
    Digraph,
    EmptyGraphError,
    HigherGraph,
    LengthMismatchError,
    SizeCapExceeded,
    TIGraph,
    UGraph,
    ValidationError,
    best_bound,
    higher_graph,
    max_independent_set,
    oracle_separated_count,
    primitivity_index,
    prune_stranded,
    serialize_tigraph,
    words_indistinguishable,
)
from tigraph.cli import main
from tigraph.graph import bits_of
from tigraph.higher import _enumerate_words, count_paths

from conftest import adjacency_matrix, random_pruned_tigraph


def test_indistinguishable_equal_or_adjacent():
    g = TIGraph(
        Digraph.from_edges(3, [(1, 3), (2, 3), (3, 1), (3, 2)]),
        UGraph.from_edges(3, [(1, 2)]),
    )
    assert words_indistinguishable(g, (1, 3), (2, 3))
    assert words_indistinguishable(g, (1, 3), (1, 3))
    assert words_indistinguishable(g, (3, 1), (3, 2))
    assert not words_indistinguishable(g, (1, 3), (3, 1))


def test_indistinguishable_dbl_missing_edge(dbl):
    assert not words_indistinguishable(dbl, (1, 1), (3, 1))  # {1,3} not in I
    assert words_indistinguishable(dbl, (1, 1), (2, 1))


def test_indistinguishable_length_mismatch(dbl):
    with pytest.raises(LengthMismatchError):
        words_indistinguishable(dbl, (1, 2), (1,))


def test_indistinguishable_refuses_symbols_outside_the_alphabet(dbl):
    # index -1 would read vertex 4's row, and index 4 is past the rows
    for a, b in (((0,), (1,)), ((1,), (0,)), ((5,), (1,)), ((1, 1), (1, 5))):
        with pytest.raises(ValidationError, match=r"out of range 1\.\.4"):
            words_indistinguishable(dbl, a, b)


def test_higher_m1_is_isomorphic_copy(dbl):
    lift = higher_graph(dbl, 1)
    assert lift.vertex_words == ((1,), (2,), (3,), (4,))
    assert lift.lifted.t.edges() == dbl.t.edges()
    assert lift.lifted.i.edges == dbl.i.edges


def test_higher_single_self_loop_vertex():
    g = TIGraph(Digraph.from_edges(1, [(1, 1)]), UGraph.from_edges(1, []))
    for m in (1, 2, 5):
        lift = higher_graph(g, m)
        assert lift.lifted.n == 1
        assert lift.lifted.t.edges() == [(1, 1)]
        assert lift.lifted.i.edges == ()


def test_higher_dbl_m2_structure(dbl):
    lift = higher_graph(dbl, 2)
    assert lift.lifted.n == 8
    assert lift.vertex_words == (
        (1, 1), (1, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 3), (4, 4),
    )
    # hand-enumerated indistinguishable pairs under the componentwise rule
    expected = {
        ((1, 1), (1, 2)), ((1, 1), (2, 4)), ((1, 1), (4, 4)),
        ((1, 2), (2, 3)), ((1, 2), (4, 3)),
        ((2, 3), (2, 4)), ((2, 3), (3, 2)),
        ((2, 4), (3, 1)),
        ((3, 1), (3, 2)), ((3, 1), (4, 4)),
        ((3, 2), (4, 3)),
        ((4, 3), (4, 4)),
    }
    got = {
        (lift.vertex_words[a - 1], lift.vertex_words[b - 1]) for a, b in lift.lifted.i.edges
    }
    assert got == expected
    assert lift.lifted.i.num_edges() == 12


def test_higher_vertex_count_follows_path_counts(dbl):
    for m in range(1, 7):
        lift = higher_graph(dbl, m)
        expect = int(np.linalg.matrix_power(adjacency_matrix(dbl.t), m - 1).sum())
        assert lift.lifted.n == expect


def test_higher_t_edges_are_overlaps(dbl):
    lift = higher_graph(dbl, 3)
    words = lift.vertex_words
    base = adjacency_matrix(dbl.t)
    for a, b in lift.lifted.t.edges():
        assert words[a - 1][1:] == words[b - 1][:-1]
        assert base[words[a - 1][-1] - 1, words[b - 1][-1] - 1]


def test_size_cap(dbl):
    with pytest.raises(SizeCapExceeded):
        higher_graph(dbl, 10, size_cap=100)


def test_size_cap_stops_counting_once_passed(dbl):
    # every vertex has a successor, so 100,000 steps are never counted
    with pytest.raises(SizeCapExceeded, match="more than 100 words of length 100000"):
        higher_graph(dbl, 100_000, size_cap=100)
    with pytest.raises(SizeCapExceeded):
        oracle_separated_count(dbl, 100_000, size_cap=100)


def test_size_cap_fires_before_any_word_or_level(monkeypatch, dbl):
    # 64 words at m = 5: one over the cap is refused before the words or the
    # prefix tree are made, and the cap itself is allowed
    def refuse(*args):
        raise AssertionError("built past the size cap")

    with monkeypatch.context() as patch:
        patch.setattr(tigraph.higher, "_enumerate_words", refuse)
        patch.setattr(tigraph.higher, "_levels", refuse)
        with pytest.raises(SizeCapExceeded, match="more than 63 words of length 5"):
            higher_graph(dbl, 5, size_cap=63)
    assert higher_graph(dbl, 5, size_cap=64).lifted.n == 64


def _flatten(words, base_words):
    out = base_words[words[0] - 1]
    for x in words[1:]:
        out = out + (base_words[x - 1][-1],)
    return out


def _tower_isomorphic(g, m, k):
    inner = higher_graph(g, m)
    outer = higher_graph(inner.lifted, k)
    direct = higher_graph(g, m + k - 1)

    flat = {
        idx + 1: _flatten(w, inner.vertex_words) for idx, w in enumerate(outer.vertex_words)
    }
    direct_idx = {w: idx + 1 for idx, w in enumerate(direct.vertex_words)}
    assert sorted(flat.values()) == sorted(direct.vertex_words)

    mapped_t = {
        (direct_idx[flat[a]], direct_idx[flat[b]]) for a, b in outer.lifted.t.edges()
    }
    assert mapped_t == set(direct.lifted.t.edges())
    mapped_i = set()
    for a, b in outer.lifted.i.edges:
        x, y = direct_idx[flat[a]], direct_idx[flat[b]]
        mapped_i.add((x, y) if x < y else (y, x))
    assert mapped_i == set(direct.lifted.i.edges)


def test_tower_identity_dbl(dbl):
    _tower_isomorphic(dbl, 2, 2)
    _tower_isomorphic(dbl, 2, 3)
    _tower_isomorphic(dbl, 3, 2)


def test_tower_identity_random():
    rng = random.Random(7)
    for _ in range(25):
        g = random_pruned_tigraph(rng, n_max=5)
        _tower_isomorphic(g, 2, 2)


def test_ind_monotone_under_lifting_random():
    rng = random.Random(11)
    for _ in range(40):
        g = random_pruned_tigraph(rng, n_max=6)
        base = max_independent_set(g.i).size
        for m in (2, 3, 4):
            lifted = higher_graph(g, m).lifted
            assert max_independent_set(lifted.i).size >= base


def test_gamma_formula_on_random_primitive_graphs():
    rng = random.Random(13)
    checked = 0
    while checked < 25:
        g = random_pruned_tigraph(rng, n_max=6)
        if g.n < 2 or not g.t.structure.primitive:
            continue
        gamma = primitivity_index(g.t)
        for m in (2, 3, 4):
            lift = higher_graph(g, m)
            assert primitivity_index(lift.lifted.t) == gamma - 1 + m
        checked += 1


def test_gamma_formula_on_dbl(dbl):
    lift = higher_graph(dbl, 2)
    assert primitivity_index(lift.lifted.t) == 3


def _complete4():
    vs = range(1, 5)
    return TIGraph(
        Digraph.from_edges(4, [(i, j) for i in vs for j in vs]),
        UGraph.from_edges(4, [(i, j) for i in vs for j in vs if i < j]),
    )


def _assert_rows_match_walk(g, m):
    # the definition: bit j of row k is set iff j != k and the words agree
    # or are I-adjacent at every position
    lift = higher_graph(g, m)
    words = lift.vertex_words
    i = lift.lifted.i
    for k, row in enumerate(i.adj):
        expect = sum(
            1 << j
            for j, w in enumerate(words)
            if j != k and words_indistinguishable(g, words[k], w)
        )
        assert row == expect
    assert i.adj == UGraph.from_edges(i.n, i.edges).adj


def test_lifted_i_rows_match_walk_dbl(dbl):
    for m in range(1, 7):
        _assert_rows_match_walk(dbl, m)


def test_lifted_i_rows_match_walk_complete():
    g = _complete4()
    for m in range(1, 5):
        _assert_rows_match_walk(g, m)
    assert higher_graph(g, 4).lifted.i.num_edges() == 256 * 255 // 2


@st.composite
def tigraphs(draw, n_max=5):
    n = draw(st.integers(1, n_max))
    vs = st.integers(1, n)
    t_edges = draw(st.sets(st.tuples(vs, vs), min_size=1))
    i_edges = draw(st.sets(st.tuples(vs, vs).filter(lambda p: p[0] != p[1])))
    try:
        g, _ = prune_stranded(
            TIGraph(Digraph.from_edges(n, t_edges), UGraph.from_edges(n, i_edges))
        )
    except EmptyGraphError:
        assume(False)
    return g


@given(tigraphs(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_lifted_i_rows_match_walk_random(g, m):
    _assert_rows_match_walk(g, m)


@given(tigraphs(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_lifted_t_edges_are_the_paths_one_step_longer(g, m):
    # higher --stats prints this count without building the lifted T
    assert count_paths(g.t, m + 1) == higher_graph(g, m).lifted.t.num_edges()


def _reference_enumerate_words(t, m):
    """Depth-first words that copy the word tuple at every step."""
    words = []
    for start in range(1, t.n + 1):
        stack = [((start,), 1)]
        while stack:
            word, length = stack.pop()
            if length == m:
                words.append(word)
                continue
            for j in reversed(t.succ[word[-1] - 1]):
                stack.append((word + (j,), length + 1))
    return words


@st.composite
def digraphs(draw, n_max=6):
    """Any digraph, sinks and sources included."""
    n = draw(st.integers(1, n_max))
    vs = st.integers(1, n)
    return Digraph.from_edges(n, draw(st.sets(st.tuples(vs, vs), max_size=3 * n)))


@given(digraphs(), st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_enumerate_words_matches_reference(t, m):
    assert _enumerate_words(t, m) == _reference_enumerate_words(t, m)


def test_enumerate_words_is_linear_in_m():
    # a cycle keeps 3 words at every length, so no size cap ever stops it;
    # copying the word at every step took seconds here
    cycle = Digraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    start = time.perf_counter()
    words = _enumerate_words(cycle, 20_000)
    elapsed = time.perf_counter() - start
    assert [w[:4] for w in words] == [(1, 2, 3, 1), (2, 3, 1, 2), (3, 1, 2, 3)]
    assert all(len(w) == 20_000 for w in words)
    assert elapsed < 0.5


def test_higher_graph_is_linear_in_m():
    # 3 words at every length; a tuple per prefix, or a scan of the word per
    # level, would make this quadratic in m
    g = TIGraph(Digraph.from_edges(3, [(1, 2), (2, 3), (3, 1)]), UGraph.from_edges(3, [(1, 2)]))
    start = time.perf_counter()
    lift = higher_graph(g, 20_000)
    elapsed = time.perf_counter() - start
    assert [w[:4] for w in lift.vertex_words] == [(1, 2, 3, 1), (2, 3, 1, 2), (3, 1, 2, 3)]
    assert lift.lifted.t.succ == ((2,), (3,), (1,))
    assert lift.lifted.i.adj == (0, 0, 0)
    assert elapsed < 0.5


def _ref_higher_graph(g, m):
    """The lift built word by word, independently of the prefix tree.

    Lifted T through a dict from each word to its index, one slice and one
    lookup per edge; lifted I as one mask per (position, symbol) of the words
    with an equal or I-adjacent symbol there, and m ANDs per word.
    """
    words = _reference_enumerate_words(g.t, m)
    index = {w: k for k, w in enumerate(words)}
    lifted_t = Digraph(
        len(words),
        tuple(tuple(index[w[1:] + (s,)] + 1 for s in g.t.succ[w[-1] - 1]) for w in words),
    )
    at = [[0] * (g.n + 1) for _ in range(m)]  # at[pos][s]: the words with s at pos
    for k, w in enumerate(words):
        for pos, s in enumerate(w):
            at[pos][s] |= 1 << k
    closed = [0] + [a | 1 << s for s, a in enumerate(g.i.adj)]
    masks = [[sum(col[t + 1] for t in bits_of(c)) for c in closed] for col in at]
    rows = []
    for k, w in enumerate(words):
        row = masks[0][w[0]]
        for pos in range(1, m):
            row &= masks[pos][w[pos]]
        rows.append(row ^ 1 << k)
    return TIGraph(lifted_t, UGraph.from_rows(rows)), tuple(words)


@st.composite
def any_tigraphs(draw, n_max=6):
    """A TI-graph on any digraph, sinks and sources included, with any I."""
    t = draw(digraphs(n_max))
    vs = st.integers(1, t.n)
    pairs = st.tuples(vs, vs).filter(lambda p: p[0] != p[1])
    return TIGraph(t, UGraph.from_edges(t.n, draw(st.sets(pairs, max_size=2 * t.n))))


@given(any_tigraphs(), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_higher_graph_matches_reference(g, m):
    if not g.t.is_pruned():
        with pytest.raises(ValidationError, match="graph must be pruned first"):
            higher_graph(g, m)
    try:
        g, _ = prune_stranded(g)
    except EmptyGraphError:
        return
    ref_lifted, ref_words = _ref_higher_graph(g, m)
    # the lifted T and the words are built on first read, in either order
    words_first = higher_graph(g, m)
    assert words_first.vertex_words == ref_words
    assert words_first.lifted.t == ref_lifted.t
    assert words_first.lifted.i == ref_lifted.i
    lift = higher_graph(g, m)
    assert lift.i == ref_lifted.i
    assert lift.lifted.t == ref_lifted.t
    assert lift.lifted.i is lift.i
    assert lift.vertex_words == ref_words
    assert lift == words_first == HigherGraph(g, m, ref_lifted.i)
    # lifts of lifts (_tower_isomorphic) rely on this
    assert lift.lifted.t.is_pruned()


def test_lift_above_bitset_cap_ends_in_exit_3(tmp_path, capsys, monkeypatch, dbl):
    # 4, 8, 16 words at m = 1, 2, 3 fit the cap of 16; 32 at m = 4 do not
    monkeypatch.setattr(tigraph.higher, "MAX_BITSET_VERTICES", 16)
    path = tmp_path / "dbl.json"
    path.write_text(serialize_tigraph(dbl))
    dbl_path = str(path)
    assert main(["report", dbl_path, "--m-max", "5", "--format", "json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert "best" in report and report["bounds"]
    (limit,) = [b for b in report["bounds"] if b["method"] == "higher_limit"]
    assert limit["certificate"]["truncated"] is True
    assert [e["m"] for e in limit["certificate"]["sequence"]] == [1, 2, 3]
    assert main(["higher", dbl_path, "-m", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap reached" in captured.err


_HIGHER_STATS = {
    "dbl": (
        "m=1 vertices=4 t_edges=8 i_edges=4 gamma=2",
        "m=2 vertices=8 t_edges=16 i_edges=12 gamma=3",
        "m=3 vertices=16 t_edges=32 i_edges=32 gamma=4",
        "m=4 vertices=32 t_edges=64 i_edges=80 gamma=5",
        "m=5 vertices=64 t_edges=128 i_edges=192 gamma=6",
        "m=6 vertices=128 t_edges=256 i_edges=448 gamma=7",
    ),
    "complete4": (
        "m=1 vertices=4 t_edges=16 i_edges=6 gamma=1",
        "m=2 vertices=16 t_edges=64 i_edges=120 gamma=2",
        "m=3 vertices=64 t_edges=256 i_edges=2016 gamma=3",
        "m=4 vertices=256 t_edges=1024 i_edges=32640 gamma=4",
    ),
}


def test_higher_stats_counts(tmp_path, capsys, dbl):
    # edge counts come from row popcounts and successor tuples, not edge lists
    for name, g in (("dbl", dbl), ("complete4", _complete4())):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_tigraph(g))
        for m, line in enumerate(_HIGHER_STATS[name], start=1):
            assert main(["higher", str(path), "-m", str(m), "--stats"]) == 0
            assert capsys.readouterr().out == line + "\n"


def test_report_keeps_lifted_i_as_rows(tmp_path, capsys, monkeypatch):
    # 523,776 lifted I-edges at m=5: the report reads them as bitset rows only
    lifts = []

    def spy(*args, **kwargs):
        lifts.append(higher_graph(*args, **kwargs))
        return lifts[-1]

    monkeypatch.setattr(tigraph.bounds, "higher_graph", spy)
    path = tmp_path / "complete4.json"
    path.write_text(serialize_tigraph(_complete4()))
    assert main(["report", str(path), "--m-max", "5"]) == 0
    assert "higher_limit" in capsys.readouterr().out
    assert {lift.m for lift in lifts} == {1, 2, 3, 4, 5}
    assert all("edges" not in lift.i.__dict__ for lift in lifts)


def _count_lift_builds(monkeypatch) -> dict[str, int]:
    """Calls to the lifted T and word builders, counted from here on."""
    calls = {"_lift_succ": 0, "_enumerate_words": 0}

    def counted(name):
        original = getattr(tigraph.higher, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(tigraph.higher, name, counted(name))
    return calls


def test_best_bound_builds_no_lifted_t_and_words_once(monkeypatch, dbl):
    # the limit sequence reads each lift's I only; the certificate reads the
    # words of the best_m lift, and no bound reads a lifted T
    calls = _count_lift_builds(monkeypatch)
    report = best_bound(dbl, Config(m_max=6))
    (limit,) = [b for b in report.bounds if b.method == "higher_limit"]
    assert len(limit.certificate["sequence"]) == 6
    assert calls == {"_lift_succ": 0, "_enumerate_words": 1}


def test_higher_stats_builds_no_lifted_t_and_no_words(tmp_path, capsys, monkeypatch, dbl):
    # vertices and I-edges are read off the lifted I, T-edges are (m+1)-paths
    path = tmp_path / "dbl.json"
    path.write_text(serialize_tigraph(dbl))
    calls = _count_lift_builds(monkeypatch)
    assert main(["higher", str(path), "-m", "6", "--stats"]) == 0
    assert capsys.readouterr().out == _HIGHER_STATS["dbl"][5] + "\n"
    assert calls == {"_lift_succ": 0, "_enumerate_words": 0}
