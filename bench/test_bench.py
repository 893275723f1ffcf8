"""Tests of the benchmark itself: trace keys, the gate, and what it prints."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import run  # first: puts the checkout's src/ on the import path
import gate  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_M_MAX = 3
BUILD = inputs.build


def tiny_build(name, seed, workdir: Path) -> inputs.Workload:
    """The lift_mis workload at a small m-max, so that a pass takes milliseconds."""
    wl = BUILD("lift_mis", seed, workdir)
    wl.steps[0].argv[wl.steps[0].argv.index("--m-max") + 1] = str(TINY_M_MAX)
    return wl


def run_once(workload):
    cli = run.require_tigraph()
    return run.run_pass(cli, workload, run.SpeedProbe())


def test_benchmark_json_lists_what_the_benchmark_prints():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tracer.metric_names()
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == inputs.WORKLOADS


def test_trace_keys_and_duplicate_counts(tmp_path):
    wl = tiny_build("lift_mis", 0, tmp_path)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = run_once(wl)
    finally:
        tr.uninstall()
    table = tr.layer_table()
    layer_names = [n for n, _ in tracer.metric_names() if not n.startswith("trace.")]
    assert list(table) == layer_names
    assert tr.absent() == []
    # base I solved by three bound methods and the m=1 lift, m_max re-solved
    assert (table["independence.calls"], table["independence.dup_calls"]) == (TINY_M_MAX + 4, 4)
    assert (table["higher.calls"], table["higher.dup_calls"]) == (TINY_M_MAX + 1, 1)
    assert table["independence.exact_frac"] == 1.0
    assert all(s.parent is None or s.parent < k for k, s in enumerate(tr.spans))
    assert tr.spans[0].name == "main" and tr.spans[0].layer == "cli"
    # wrapping leaves stdout byte-identical, and uninstall restores the originals
    assert traced.outputs == run_once(wl).outputs
    import tigraph.bounds

    assert not hasattr(tigraph.bounds.max_independent_set, "__wrapped__")


def test_missing_function_is_reported_absent(monkeypatch):
    import tigraph

    monkeypatch.setattr(tigraph, "__all__", [n for n in tigraph.__all__ if n != "higher_graph"])
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent() == ["higher_graph"]


def test_gate_flags_perturbed_reference(tmp_path):
    wl = tiny_build("lift_mis", 0, tmp_path)
    step = wl.steps[0]
    code, out = run_once(wl).outputs[0]
    expected = gate.summarize(json.loads(out))
    assert gate.check_report(code, out, step.graph, expected) == []

    perturbed = json.loads(json.dumps(expected))
    perturbed["methods"]["primitive"] += 1e-6
    assert any(p.startswith("primitive:") for p in gate.check_report(code, out, step.graph, perturbed))

    wrong_best = dict(expected, best="primitive")
    assert any("best method" in p for p in gate.check_report(code, out, step.graph, wrong_best))

    # methods the reference lacks are ignored
    fewer = {"methods": {"primitive": expected["methods"]["primitive"]}, "best": expected["best"]}
    assert gate.check_report(code, out, step.graph, fewer) == []

    assert gate.check_report(3, out, step.graph, expected) == ["exit code 3"]

    report = json.loads(out)
    report["bounds"][0]["certificate"] = {"error": "SizeCapExceeded: test"}
    assert gate.check_report(code, json.dumps(report), step.graph, expected)

    report = json.loads(out)
    report["bounds"][report["best"]]["certificate"]["witness_words"][0] = [1, 1, 3]
    assert any("verify_bound" in p for p in gate.check_report(code, json.dumps(report), step.graph, expected))


def test_recorded_reference_covers_every_report(tmp_path):
    reference = gate.load_reference()
    for name in inputs.WORKLOADS:
        for step in inputs.build(name, 0, tmp_path / name).steps:
            if step.is_report:
                assert gate.reference_entry(reference, name, step.reference_key)["best"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_command_prints_every_metric_with_its_unit(tmp_path, monkeypatch, trace):
    wl = tiny_build("lift_mis", 0, tmp_path / "ref")
    code, out = run_once(wl).outputs[0]
    monkeypatch.setattr(run.inputs, "build", tiny_build)
    monkeypatch.setattr(gate, "load_reference", lambda: {"lift_mis": gate.summarize(json.loads(out))})
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(["--workload", "lift_mis", "--seconds", "0", "--trace", trace]) == 0
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1])


def test_table_prints_every_metric_with_its_unit():
    def part(listed):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in listed}}

    results = {name: {"end_to_end": part(BENCHMARK["end_to_end"]),
                      "per_layer": part(BENCHMARK["per_layer"])} for name in inputs.WORKLOADS}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_table(results)
    rows = {line.split()[0]: line.split()[1] for line in buf.getvalue().splitlines()
            if len(line.split()) > 2}
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert rows[m["name"]] == m["unit"]
    assert rows["failed_frac"] == "ratio"
