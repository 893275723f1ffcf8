"""``scripts/random_survey.py``: a smoke run, and its seed-0 stream is the survey corpus.

The benchmark's ``survey`` workload writes out the same random stream in
``bench/inputs.survey_corpus()`` so that its inputs do not depend on the code
under test; the second test checks the two still agree graph for graph.
"""

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

from tigraph import Digraph, TIGraph, UGraph

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_random_survey_smoke_run():
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "random_survey.py"), "--count", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("instances: 3  (n <= 6, m_max = 4)")
    assert "mean gap to classical entropy:" in proc.stdout


def test_seed_0_stream_is_the_bench_survey_corpus():
    survey = _load(ROOT / "scripts" / "random_survey.py", "_random_survey")
    inputs = _load(ROOT / "bench" / "inputs.py", "_bench_inputs")
    corpus = inputs.survey_corpus()
    rng = random.Random(inputs.SURVEY_CORPUS_SEED)
    drawn = [survey.random_pruned(rng, inputs.SURVEY_N_MAX) for _ in corpus]
    expect = [
        TIGraph(
            Digraph.from_edges(d["n"], [tuple(e) for e in d["t_edges"]]),
            UGraph.from_edges(d["n"], [tuple(e) for e in d["i_edges"]]),
        )
        for d in corpus
    ]
    assert len(corpus) == 200
    assert drawn == expect
