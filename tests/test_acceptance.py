"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
explicit CRITERION lines).  Criterion 2 is split so that its lifted
I-edge-count clause, which the engine cannot reproduce under its own
indistinguishability convention, fails in isolation; see the repository
README for the count the construction actually yields.
"""

import json
import math
import random
import time

from tigraph import (
    Config,
    best_bound,
    higher_graph,
    limit_sequence,
    max_independent_set,
    oracle_separated_count,
    perron_eigenvalue,
    primitive_bound,
    primitivity_index,
    scc_decompose,
    sft_entropy,
    sofic_bound,
    verify_bound,
    wielandt_cap,
    component_bound,
)
from tigraph.higher import count_paths

from conftest import random_pruned_tigraph

LN2 = math.log(2)
GOLDEN = (1 + math.sqrt(5)) / 2


def _report(k: int, detail: str) -> None:
    print(f"CRITERION {k}: PASS — {detail}")


def test_criterion_1_doubling_fixture(dbl):
    start = time.perf_counter()
    assert scc_decompose(dbl.t) == [(1, 2, 3, 4)]
    assert dbl.t.structure.periods == (1,)
    assert primitivity_index(dbl.t) == 2
    mis = max_independent_set(dbl.i)
    assert mis.size == 2 and mis.exact
    b = primitive_bound(dbl)
    assert abs(b.value - LN2 / 2) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"irreducible, period 1, gamma 2, ind 2, bound ln2/2 in {elapsed:.3f}s")


def test_criterion_2_higher_shift_sequence(dbl):
    start = time.perf_counter()
    lift2 = higher_graph(dbl, 2)
    assert lift2.lifted.n == 8
    ind2 = max_independent_set(lift2.lifted.i)
    assert ind2.size == 4 and ind2.exact
    assert primitivity_index(lift2.lifted.t) == 3
    b = primitive_bound(lift2.lifted)
    assert abs(b.value - 2 * LN2 / 3) <= 1e-9

    for m in range(1, 9):
        lift = higher_graph(dbl, m)
        res = max_independent_set(lift.lifted.i)
        assert res.exact and res.size == 2**m, (m, res.size)
        assert primitivity_index(lift.lifted.t) == m + 1

    report = best_bound(dbl, Config(m_max=8))
    best = report.best_bound()
    assert best.method == "higher_limit"
    assert abs(best.value - 8 * LN2 / 9) <= 1e-9  # consistent with the ln2 limit
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"ind(I_[m]) = 2^m and gamma = m+1 for m <= 8, best (8/9)ln2 in {elapsed:.2f}s")


def test_criterion_2_lifted_i_edge_count_as_stated(dbl):
    # Stated count for the m = 2 lift of the doubling fixture.  Under the
    # engine's componentwise equal-or-adjacent rule the lift has 12 such
    # pairs (hand enumeration in test_higher.py); no self-consistent
    # convention reproduces 9, so this assertion documents the discrepancy
    # by failing.
    lift = higher_graph(dbl, 2)
    assert lift.lifted.i.num_edges() == 9, (
        f"stated lifted I-edge count 9, construction yields {lift.lifted.i.num_edges()}"
    )


def test_criterion_3_golden_mean_sofic(gm):
    start = time.perf_counter()
    b = sofic_bound(gm)
    assert abs(b.value - math.log(GOLDEN)) <= 1e-9
    assert b.exact and b.certified
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"sofic bound ln((1+sqrt5)/2), EXACT via clique check, in {elapsed:.3f}s")


def test_criterion_4_one_component_sofic_zero(dbl):
    b = sofic_bound(dbl)
    assert b.value == 0.0
    _report(4, "single I-component gives sofic bound exactly 0")


def test_criterion_5_cubic_spectral_fixture(plastic):
    res = perron_eigenvalue(plastic)
    assert abs(math.log(res.value) - 0.2812) <= 5e-4
    _report(5, f"ln(lambda) = {math.log(res.value):.6f} for the x^3 = x + 1 fixture")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(1006)
    graphs = []
    while len(graphs) < 200:
        g = random_pruned_tigraph(rng, n_max=5)
        if count_paths(g.t, 5) <= 800:
            graphs.append(g)
    for g in graphs:
        for m in range(1, 6):
            sep = oracle_separated_count(g, m)
            lifted = higher_graph(g, m).lifted
            mis = max_independent_set(lifted.i)
            assert mis.exact
            assert sep.count == mis.size, (g, m, sep.count, mis.size)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, f"200 graphs x m <= 5: separated count == ind(I_[m]) in {elapsed:.2f}s")


def test_criterion_7_property_suite(dbl):
    start = time.perf_counter()
    rng = random.Random(1007)
    checked_gamma = 0
    for _ in range(500):
        g = random_pruned_tigraph(rng, n_max=6)
        base_ind = max_independent_set(g.i).size

        # lifting never shrinks the independence number
        for m in (2, 3, 4):
            lift = higher_graph(g, m)
            assert max_independent_set(lift.lifted.i).size >= base_ind

        # primitivity-index shift law on primitive instances
        if g.n >= 2 and g.t.structure.primitive:
            gamma = primitivity_index(g.t)
            assert gamma <= wielandt_cap(g.n)
            for m in (2, 3, 4):
                lift = higher_graph(g, m)
                if lift.lifted.n <= 1500:
                    assert primitivity_index(lift.lifted.t) == gamma - 1 + m
                    checked_gamma += 1

        # tower identity via the flattening bijection
        inner = higher_graph(g, 2)
        outer = higher_graph(inner.lifted, 2)
        direct = higher_graph(g, 3)
        flat = {}
        for idx, w in enumerate(outer.vertex_words, start=1):
            base_word = inner.vertex_words[w[0] - 1]
            flat[idx] = base_word + tuple(inner.vertex_words[x - 1][-1] for x in w[1:])
        direct_idx = {w: i + 1 for i, w in enumerate(direct.vertex_words)}
        assert sorted(flat.values()) == sorted(direct.vertex_words)
        mapped_t = {(direct_idx[flat[a]], direct_idx[flat[b]]) for a, b in outer.lifted.t.edges()}
        assert mapped_t == set(direct.lifted.t.edges())
        mapped_i = {
            tuple(sorted((direct_idx[flat[a]], direct_idx[flat[b]])))
            for a, b in outer.lifted.i.edges
        }
        assert mapped_i == set(direct.lifted.i.edges)

        # every reported bound stays below classical entropy and re-verifies
        h = sft_entropy(g.t)
        report = best_bound(g, Config(m_max=3))
        for b in report.bounds:
            assert b.value <= h + 2e-10
            assert verify_bound(g, b)
    elapsed = time.perf_counter() - start
    _report(7, f"500 instances, zero failures ({checked_gamma} gamma cross-checks) in {elapsed:.2f}s")


def test_criterion_8_constructed_fixtures(period2_fixture):
    # the period-2 arithmetic (p = 2, gamma = 4, ind = 4) on a constructed
    # graph, since the referenced example exists only as a figure
    b = component_bound(period2_fixture)
    assert abs(b.value - math.log(4) / 8) <= 1e-9
    assert abs(b.value - 0.1733) <= 5e-4
    assert b.certificate["period"] == 2
    assert b.certificate["gamma"] == 4
    assert len(b.certificate["independent_set"]) == 4

    # the substitution is documented on the fixture itself
    import conftest

    doc = conftest.period2_fixture.__wrapped__.__doc__
    assert "constructed" in doc.lower()
    assert "figure" in doc.lower()

    # raw gamma-normalized sequence values may dip; only the running
    # supremum is monotone, and the engine must accept such sequences
    from tigraph import Digraph, TIGraph, UGraph

    dip = TIGraph(
        Digraph.from_edges(3, [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]),
        UGraph.from_edges(3, []),
    )
    seq = limit_sequence(dip, 3)
    vals = [e.bound_via_gamma for e in seq.entries]
    assert vals[0] > vals[1]  # genuine dip, handled without complaint
    sups = [max(vals[: k + 1]) for k in range(len(vals))]
    assert sups == sorted(sups)
    _report(8, "constructed fixtures reproduce the figure-only arithmetic; dips tolerated")


def test_criterion_9_deterministic_reports(dbl, gm, period2_fixture, capsys):
    from tigraph.cli import main
    from tigraph.graph import serialize_tigraph
    import tempfile, os

    for g in (dbl, gm, period2_fixture):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            fh.write(serialize_tigraph(g))
            path = fh.name
        try:
            for fmt in ("text", "json"):
                outputs = []
                for _ in range(2):
                    code = main(["report", path, "--m-max", "3", "--format", fmt])
                    assert code == 0
                    outputs.append(capsys.readouterr().out)
                assert outputs[0] == outputs[1]
                if fmt == "json":
                    json.loads(outputs[0])  # well-formed
        finally:
            os.unlink(path)
    _report(9, "byte-identical reports across reruns (text and JSON)")
