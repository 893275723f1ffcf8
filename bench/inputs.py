"""Seeded input files for the four benchmark workloads.

Every workload is a list of ``tigraph`` command lines run in order; one run
of the list is a pass.  The seed changes the files the program receives but
not the work they ask for, so a run's cost does not depend on the seed:

- ``lift_mis`` and ``lift_dense`` shuffle the order in which the edges are
  listed and the orientation of each ``I`` pair.  Relabelling the vertices
  instead would reorder the lifted words, and the branch and bound's cost
  on the doubling fixture moves by up to 65 % between labellings.
- ``wide_cover`` rotates the order of the arcs, which relabels the 200
  vertices cyclically.  A rotation keeps the local search's candidate count
  (100 Perron solves) where a random shuffle moves it by 10 %.
- ``survey`` always holds the same 200 graphs, the corpus that
  ``scripts/random_survey.py`` draws with its default seed 0; the seed
  shuffles the order of the reports and of the edges in each file.  Drawing
  a fresh corpus per seed moves a pass from 1.1 s to 9.0 s (seeds 0-9),
  because one or two tail graphs hold most of the time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

DOUBLING = {
    "n": 4,
    "t_edges": [[1, 1], [1, 2], [2, 3], [2, 4], [3, 1], [3, 2], [4, 3], [4, 4]],
    "i_edges": [[1, 2], [2, 3], [3, 4], [1, 4]],
}
DENSE_N = 4
COVER_ARCS = 200
COVER_SLOPE = 3
SURVEY_COUNT = 200
SURVEY_N_MAX = 6
SURVEY_CORPUS_SEED = 0

WORKLOADS = ("lift_mis", "lift_dense", "wide_cover", "survey")


@dataclass
class Step:
    """One ``tigraph`` invocation; ``save_to`` keeps its stdout as a file."""

    argv: list[str]
    save_to: Path | None = None
    graph: Path | None = None  # the graph file a report reads
    reference_key: str | int | None = None

    @property
    def is_report(self) -> bool:
        return self.argv[0] == "report"


@dataclass
class Workload:
    name: str
    steps: list[Step] = field(default_factory=list)


def _shuffled_graph_json(g: dict, rng: random.Random) -> str:
    t_edges = [list(e) for e in g["t_edges"]]
    i_edges = [list(e) if rng.random() < 0.5 else [e[1], e[0]] for e in g["i_edges"]]
    rng.shuffle(t_edges)
    rng.shuffle(i_edges)
    return json.dumps({"n": g["n"], "t_edges": t_edges, "i_edges": i_edges})


def dense_graph() -> dict:
    """Complete T (loops included) and complete I on ``DENSE_N`` vertices."""
    vs = range(1, DENSE_N + 1)
    return {
        "n": DENSE_N,
        "t_edges": [[i, j] for i in vs for j in vs],
        "i_edges": [[i, j] for i in vs for j in vs if i < j],
    }


def cover_arcs() -> list[list[Decimal]]:
    """Arcs [i/200 - 0.001, (i+1)/200 + 0.001], as exact decimals."""
    step = 1000 // COVER_ARCS
    return [
        [Decimal(step * i - 1).scaleb(-3), Decimal(step * (i + 1) + 1).scaleb(-3)]
        for i in range(COVER_ARCS)
    ]


def cover_spec(rotation: int) -> str:
    arcs = cover_arcs()
    arcs = arcs[rotation:] + arcs[:rotation]
    intervals = ", ".join(f"[{a}, {b}]" for a, b in arcs)
    return (
        '{"pieces": [{"from": [0, 1], "slope": %d, "intercept": 0}], "intervals": [%s]}'
        % (COVER_SLOPE, intervals)
    )


def _pruned(n: int, t_edges, i_edges) -> dict | None:
    """Drop vertices without an in- or out-edge until none is left to drop."""
    alive = set(range(1, n + 1))
    while True:
        has_out = {i for i, j in t_edges if i in alive and j in alive}
        has_in = {j for i, j in t_edges if i in alive and j in alive}
        keep = alive & has_out & has_in
        if keep == alive:
            break
        alive = keep
    if not alive:
        return None
    index = {old: new for new, old in enumerate(sorted(alive), start=1)}
    return {
        "n": len(alive),
        "t_edges": sorted([index[i], index[j]] for i, j in t_edges if i in alive and j in alive),
        "i_edges": sorted([index[i], index[j]] for i, j in i_edges if i in alive and j in alive),
    }


def survey_corpus() -> list[dict]:
    """The graphs ``scripts/random_survey.py`` draws with its default seed.

    Same random stream and the same pruning rule, written out here so that
    the corpus does not depend on the code under test.
    """
    rng = random.Random(SURVEY_CORPUS_SEED)
    corpus = []
    while len(corpus) < SURVEY_COUNT:
        n = rng.randint(1, SURVEY_N_MAX)
        p_t = rng.uniform(0.25, 0.65)
        p_i = rng.uniform(0.0, 0.6)
        vs = range(1, n + 1)
        t_edges = [(i, j) for i in vs for j in vs if rng.random() < p_t]
        i_edges = [(i, j) for i in vs for j in range(i + 1, n + 1) if rng.random() < p_i]
        g = _pruned(n, t_edges, i_edges)
        if g is not None:
            corpus.append(g)
    return corpus


def _report(path: Path, m_max: int, key) -> Step:
    argv = ["report", str(path), "--m-max", str(m_max), "--format", "json"]
    return Step(argv, graph=path, reference_key=key)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the seeded input files of ``name`` into ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    wl = Workload(name)
    if name in ("lift_mis", "lift_dense"):
        graph, m_max = (DOUBLING, 10) if name == "lift_mis" else (dense_graph(), 5)
        path = workdir / f"{name}.json"
        path.write_text(_shuffled_graph_json(graph, rng))
        wl.steps.append(_report(path, m_max, name))
    elif name == "wide_cover":
        spec = workdir / "cover_spec.json"
        spec.write_text(cover_spec(rng.randrange(COVER_ARCS)))
        graph_path = workdir / "cover_graph.json"
        wl.steps.append(Step(["ingest", str(spec)], save_to=graph_path))
        wl.steps.append(_report(graph_path, 2, name))
    elif name == "survey":
        corpus = survey_corpus()
        order = list(range(len(corpus)))
        rng.shuffle(order)
        for k in order:
            path = workdir / f"survey_{k:03d}.json"
            path.write_text(_shuffled_graph_json(corpus[k], rng))
            wl.steps.append(_report(path, 4, k))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl
