"""CLI commands, exit codes, output determinism, schema conformance."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tigraph.graph
from tigraph import higher_graph, serialize_tigraph
from tigraph.cli import main

from conftest import random_pruned_tigraph

REPO_ROOT = Path(__file__).resolve().parents[1]

DBL_MAP = (
    '{"pieces": [{"from": [0, 1], "slope": 2, "intercept": 0}],'
    ' "intervals": [[-0.1, 0.35], [0.15, 0.6], [0.4, 0.85], [0.65, 1.1]]}'
)


@pytest.fixture
def dbl_path(tmp_path, dbl):
    p = tmp_path / "dbl.json"
    p.write_text(serialize_tigraph(dbl))
    return str(p)


@pytest.fixture
def gm_path(tmp_path, gm):
    p = tmp_path / "gm.json"
    p.write_text(serialize_tigraph(gm))
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_report_dbl_m4(dbl_path, capsys):
    code, out, _ = _run(capsys, ["report", dbl_path, "--m-max", "4"])
    assert code == 0
    assert "best: higher_limit = 0.554517744" in out
    assert "CERTIFIED" in out
    assert "pruned vertices: none" in out


def test_report_gm_sofic_exact(gm_path, capsys):
    code, out, _ = _run(capsys, ["report", gm_path])
    assert code == 0
    assert "best: sofic = 0.481211825" in out
    assert "EXACT" in out


def test_report_edgeless_i_exact(tmp_path, capsys, dbl):
    p = tmp_path / "noi.json"
    p.write_text(json.dumps({"n": 4, "t_edges": [list(e) for e in dbl.t.edges()], "i_edges": []}))
    code, out, _ = _run(capsys, ["report", str(p)])
    assert code == 0
    assert "best: independent_subshift = 0.693147181" in out
    assert "EXACT" in out


def test_report_lists_pruned_vertices(tmp_path, capsys):
    # vertex 2 lacks an outgoing edge, vertex 3 an incoming one
    p = tmp_path / "stranded.json"
    p.write_text('{"n":3,"t_edges":[[1,1],[1,2],[3,1]],"i_edges":[]}')
    code, out, _ = _run(capsys, ["report", str(p)])
    assert code == 0
    assert "pruned vertices: 2, 3" in out


def test_report_json_validates_against_schema(dbl_path, capsys):
    import jsonschema

    code, out, _ = _run(capsys, ["report", dbl_path, "--format", "json", "--m-max", "3"])
    assert code == 0
    schema = json.loads((REPO_ROOT / "schemas" / "bound_report.schema.json").read_text())
    jsonschema.validate(json.loads(out), schema)


def test_report_method_enum_is_method_order():
    from tigraph.bounds import METHOD_ORDER

    schema = json.loads((REPO_ROOT / "schemas" / "bound_report.schema.json").read_text())
    method = schema["properties"]["bounds"]["items"]["properties"]["method"]
    assert tuple(method["enum"]) == METHOD_ORDER


def test_report_json_config_has_no_seed(dbl_path, capsys):
    code, out, _ = _run(capsys, ["report", dbl_path, "--format", "json", "--m-max", "2"])
    assert code == 0
    assert json.loads(out)["config"] == {
        "m_max": 2,
        "tol": 1e-10,
        "mis_budget": 10_000_000,
        "size_cap": 2_000_000,
        "state_cap": 100_000,
        "output_format": "json",
    }


def test_report_invalid_input_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n":2,"t_edges":[[1,5]],"i_edges":[]}')
    code, _, err = _run(capsys, ["report", str(p)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [["higher", "-m", "0"], ["higher", "-m", "-2"], ["oracle", "-n", "0"]],
    ids=["higher_m_0", "higher_m_negative", "oracle_n_0"],
)
def test_length_below_one_exit_2(dbl_path, capsys, argv):
    code, out, err = _run(capsys, [argv[0], dbl_path, *argv[1:]])
    assert code == 2
    assert out == ""
    assert "must be >= 1" in err


_PIECE = '{"from": [0, 1], "slope": 2, "intercept": 0}'


@pytest.mark.parametrize(
    "spec",
    [
        '{"pieces": 5, "intervals": [[0.2, 0.7]]}',
        '{"pieces": [%s], "intervals": 5}' % _PIECE,
        '{"pieces": [%s], "intervals": [["x", 0.7]]}' % _PIECE,
        '{"pieces": [%s], "intervals": [["nan", 0.7]]}' % _PIECE,
        '{"pieces": [%s], "intervals": [[NaN, 0.7]]}' % _PIECE,
        '{"pieces": [%s], "intervals": [[0.2, 0.7]], "margin": Infinity}' % _PIECE,
        '{"pieces": [%s], "intervals": [[0.2, 0.7]], "margin": "0.x"}' % _PIECE,
        '{"pieces": [{"from": ["x", 1], "slope": 2, "intercept": 0}], "intervals": []}',
        '{"pieces": [{"from": [0, 1], "slope": true, "intercept": 0}], "intervals": [[0.2, 0.7]]}',
        '{"pieces": [{"from": [0, 1], "slope": 2, "intercept": false}], "intervals": [[0.2, 0.7]]}',
        '{"pieces": [%s], "intervals": [[0.2, 0.7]], "margin": true}' % _PIECE,
    ],
    ids=[
        "pieces_not_list",
        "intervals_not_list",
        "interval_unparseable",
        "interval_nan_string",
        "interval_nan",
        "margin_infinity",
        "margin_unparseable",
        "piece_unparseable",
        "slope_bool",
        "intercept_bool",
        "margin_bool",
    ],
)
def test_ingest_malformed_spec_exit_2(tmp_path, capsys, spec):
    p = tmp_path / "spec.json"
    p.write_text(spec)
    code, out, err = _run(capsys, ["ingest", str(p)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "spec",
    [
        '{"pieces": [{"from": [0, 1], "slope": "1/0", "intercept": 0}], "intervals": [[0.2, 0.7]]}',
        '{"pieces": [%s], "intervals": [["1/0", 0.7]]}' % _PIECE,
        '{"pieces": [{"from": [0, "1/0"], "slope": 2, "intercept": 0}], "intervals": [[0.2, 0.7]]}',
        '{"pieces": [%s], "intervals": [[0.2, 0.7]], "margin": "3/0"}' % _PIECE,
    ],
    ids=["slope", "arc_endpoint", "piece_from", "margin"],
)
def test_ingest_zero_denominator_exit_2(tmp_path, capsys, spec):
    p = tmp_path / "spec.json"
    p.write_text(spec)
    code, out, err = _run(capsys, ["ingest", str(p)])
    assert code == 2
    assert out == ""
    assert "cannot interpret" in err


@pytest.mark.parametrize(
    "spec",
    [
        '{"pieces": [%s], "intervals": [[0.2, 0.7]], "margin": 1e-30000000}' % _PIECE,
        '{"pieces": [{"from": [0, 1], "slope": "2E+30000000", "intercept": 0}],'
        ' "intervals": [[0.2, 0.7]]}',
        '{"pieces": [%s], "intervals": [[0.2, "7e-3_0000_000"]]}' % _PIECE,
    ],
    ids=["margin_literal", "slope_string", "arc_endpoint_string_underscores"],
)
def test_ingest_huge_decimal_exponent_exit_2(tmp_path, spec):
    # Fraction would build 10**30000000 before anything else ran, which
    # took over a minute; the spec is refused before any Fraction is built
    p = tmp_path / "spec.json"
    p.write_text(spec)
    src = str(Path(tigraph.graph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = "import sys; from tigraph.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, "ingest", str(p)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "cannot interpret" in proc.stderr


@pytest.mark.parametrize(
    "value",
    ["[" * 200_000 + "]" * 200_000, "1" * 5000],
    ids=["nested_200000_deep", "int_of_5000_digits"],
)
@pytest.mark.parametrize("command", ["report", "ingest"])
def test_json_beyond_the_decoder_limits_exit_2(tmp_path, capsys, command, value):
    # json.loads raises RecursionError long before 200,000 levels, and
    # ValueError on an int literal above Python's 4,300-digit limit
    p = tmp_path / "deep.json"
    p.write_text('{"n": %s, "margin": %s}' % (value, value))
    code, out, err = _run(capsys, [command, str(p)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON: ")


@pytest.mark.parametrize("case", ["not_utf8", "directory"])
def test_report_unreadable_graph_file_exit_2(tmp_path, capsys, case):
    p = tmp_path / "latin1.txt"
    p.write_bytes("n=2\nT 1 2\nT 2 1\n# caf\xe9\n".encode("latin-1"))
    code, out, err = _run(capsys, ["report", str(p if case == "not_utf8" else tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
def test_report_tol_not_positive_and_finite_exit_2(dbl_path, capsys, tol):
    # with nan no candidate ever beats the incumbent by more than tol, and
    # with inf every Perron interval "converges" after one step
    code, out, err = _run(capsys, ["report", dbl_path, f"--tol={tol}"])
    assert code == 2
    assert out == ""
    assert "tol must be positive and finite" in err


def test_report_empty_after_prune_exit_2(tmp_path, capsys):
    p = tmp_path / "chain.json"
    p.write_text('{"n":2,"t_edges":[[1,2]],"i_edges":[]}')
    code, _, err = _run(capsys, ["report", str(p)])
    assert code == 2


def test_report_cap_exhaustion_exit_3_with_partial_report(dbl_path, capsys):
    code, out, _ = _run(capsys, ["report", dbl_path, "--m-max", "8", "--size-cap", "20"])
    assert code == 3
    assert "best:" in out  # partial report still printed
    assert "FAILED" in out or "higher_limit" in out


def test_report_primitivity_search_cap_exit_3(dbl_path, dbl, capsys, monkeypatch):
    import tigraph.structure

    monkeypatch.setattr(tigraph.structure, "MAX_PRIMITIVITY_VERTICES", dbl.n - 1)
    code, out, _ = _run(capsys, ["report", dbl_path, "--format", "json", "--m-max", "3"])
    assert code == 3
    errors = {b["method"]: b["certificate"].get("error") for b in json.loads(out)["bounds"]}
    message = f"SizeCapExceeded: primitivity search unavailable for n={dbl.n}"
    assert errors["primitive"] == errors["higher_limit"] == message
    assert errors["component"] is None
    code, _, err = _run(capsys, ["higher", dbl_path, "-m", "2", "--stats"])
    assert code == 3
    assert err == f"cap reached: primitivity search unavailable for n={dbl.n}\n"


def test_report_state_cap_below_the_label_count_exit_3(tmp_path, capsys):
    # a 3-cycle with edgeless I has three I-components: three initial subset
    # states, one over a cap of 2
    p = tmp_path / "cycle3.json"
    p.write_text(json.dumps({"n": 3, "t_edges": [[1, 2], [2, 3], [3, 1]], "i_edges": []}))
    code, out, _ = _run(capsys, ["report", str(p), "--state-cap", "2", "--format", "json"])
    assert code == 3
    errors = {b["method"]: b["certificate"].get("error") for b in json.loads(out)["bounds"]}
    assert errors["sofic"] == "StateCapExceeded: more than 2 subset states"
    assert [m for m, e in errors.items() if e] == ["sofic"]
    assert _run(capsys, ["report", str(p), "--state-cap", "3"])[0] == 0


def test_oracle_counts(dbl_path, gm_path, capsys):
    code, out, _ = _run(capsys, ["oracle", dbl_path, "-n", "2"])
    assert code == 0
    assert out.splitlines()[0] == "n=2 count=4"
    code, out, _ = _run(capsys, ["oracle", dbl_path, "-n", "1"])
    assert out.splitlines()[0] == "n=1 count=2"
    code, out, _ = _run(capsys, ["oracle", gm_path, "-n", "2"])
    assert out.splitlines()[0] == "n=2 count=3"


def test_oracle_json_format(dbl_path, capsys):
    code, out, _ = _run(capsys, ["oracle", dbl_path, "-n", "2", "--format", "json"])
    payload = json.loads(out)
    assert payload["count"] == 4
    assert sorted(payload["witness"]) == [[1, 1], [2, 3], [3, 1], [4, 3]]


def test_higher_stats(dbl_path, capsys):
    code, out, _ = _run(capsys, ["higher", dbl_path, "-m", "2", "--stats"])
    assert code == 0
    assert out.strip() == "m=2 vertices=8 t_edges=16 i_edges=12 gamma=3"


def test_higher_stats_without_gamma_exits_3(tmp_path, too_large_for_gamma, capsys):
    # T is primitive but too large for the gamma search: the counts are
    # still printed, without gamma
    path = tmp_path / "big.json"
    path.write_text(serialize_tigraph(too_large_for_gamma))
    code, out, err = _run(capsys, ["higher", str(path), "-m", "1", "--stats"])
    assert code == 3
    assert out == "m=1 vertices=16385 t_edges=16386 i_edges=0\n"
    assert err == "cap reached: primitivity search unavailable for n=16385\n"


def test_higher_stats_and_dot_exclude_each_other(dbl_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["higher", dbl_path, "-m", "2", "--stats", "--dot"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument --stats" in captured.err


def test_higher_m1_echoes_graph(dbl_path, capsys, dbl):
    code, out, _ = _run(capsys, ["higher", dbl_path, "-m", "1"])
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["t_edges"] == [list(e) for e in dbl.t.edges()]
    assert payload["vertex_words"] == [[1], [2], [3], [4]]


@pytest.mark.parametrize("seed", range(12))
def test_higher_dump_is_the_compact_json_of_the_lift(tmp_path, capsys, seed):
    # written piece by piece, byte for byte json.dumps of the edge pairs
    g = random_pruned_tigraph(random.Random(seed))
    path = tmp_path / "g.json"
    path.write_text(serialize_tigraph(g))
    for m in (1, 2, 3):
        lift = higher_graph(g, m)
        payload = {
            "n": lift.i.n,
            "t_edges": [list(e) for e in lift.lifted.t.edges()],
            "i_edges": [list(e) for e in lift.i.edges],
        }
        assert serialize_tigraph(lift.lifted) == json.dumps(payload, separators=(",", ":"))
        payload["vertex_words"] = [list(w) for w in lift.vertex_words]
        code, out, _ = _run(capsys, ["higher", str(path), "-m", str(m)])
        assert code == 0
        assert out == json.dumps(payload, separators=(",", ":")) + "\n"


def test_higher_dump_validates_against_schema(dbl_path, capsys):
    import jsonschema

    code, out, _ = _run(capsys, ["higher", dbl_path, "-m", "2"])
    schema = json.loads((REPO_ROOT / "schemas" / "tigraph.schema.json").read_text())
    jsonschema.validate(json.loads(out), schema)


def test_higher_size_cap_exit_3(dbl_path, capsys):
    code, _, err = _run(capsys, ["higher", dbl_path, "-m", "9", "--size-cap", "100"])
    assert code == 3
    assert "cap" in err


def test_ingest_doubling_map(tmp_path, capsys, dbl):
    p = tmp_path / "map.json"
    p.write_text(DBL_MAP)
    code, out, _ = _run(capsys, ["ingest", str(p)])
    assert code == 0
    assert out.strip() == serialize_tigraph(dbl)


def test_ingest_identity_single_interval(tmp_path, capsys):
    p = tmp_path / "map.json"
    p.write_text(
        '{"pieces": [{"from": [0, 1], "slope": 1, "intercept": 0}], "intervals": [[0.2, 0.7]]}'
    )
    code, out, _ = _run(capsys, ["ingest", str(p)])
    assert code == 0
    assert json.loads(out) == {"n": 1, "t_edges": [[1, 1]], "i_edges": []}


def test_ingest_above_the_vertex_cap_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tigraph.graph, "MAX_BITSET_VERTICES", 3)
    p = tmp_path / "map.json"
    p.write_text(DBL_MAP)
    code, out, err = _run(capsys, ["ingest", str(p)])
    assert code == 3
    assert out == ""
    assert err == "cap reached: bitset adjacency unavailable for n=4\n"


def test_cover_above_4096_arcs_ingests_and_reports(tmp_path, capsys):
    # x -> 3x over arcs [(5i - 1)/25000, (5i + 6)/25000]: ingest and report
    # refuse graphs above one vertex cap, so what ingest writes report reads
    intervals = ", ".join(f'["{5 * i - 1}/25000", "{5 * i + 6}/25000"]' for i in range(5000))
    spec = tmp_path / "map.json"
    spec.write_text(
        '{"pieces": [{"from": [0, 1], "slope": 3, "intercept": 0}], "intervals": [%s]}' % intervals
    )
    code, out, _ = _run(capsys, ["ingest", str(spec)])
    assert code == 0
    graph = tmp_path / "cover.json"
    graph.write_text(out)
    code, out, err = _run(capsys, ["report", str(graph), "--m-max", "1"])
    assert (code, err) == (0, "")
    assert "pruned vertices: none" in out


def test_parse_above_the_vertex_cap_exit_3(dbl_path, capsys, monkeypatch):
    monkeypatch.setattr(tigraph.graph, "MAX_BITSET_VERTICES", 3)
    code, out, err = _run(capsys, ["report", dbl_path])
    assert code == 3
    assert out == ""
    assert err == "cap reached: bitset adjacency unavailable for n=4\n"


def test_ingest_degenerate_tie_exit_2(tmp_path, capsys):
    p = tmp_path / "map.json"
    p.write_text(
        '{"pieces": [{"from": [0, 1], "slope": 2, "intercept": 0}],'
        ' "intervals": [[0, 0.5], [0.5000000000001, 0.9]]}'
    )
    code, _, err = _run(capsys, ["ingest", str(p)])
    assert code == 2
    assert "perturb" in err


def test_export_dot(dbl_path, capsys):
    code, out, _ = _run(capsys, ["export-dot", dbl_path])
    assert code == 0
    assert out.startswith("digraph tigraph {")
    assert out.count("style=dashed") == 4


@pytest.mark.parametrize(
    "argv, graph, sha",
    [
        # digests of the output before DOT was streamed row by row
        (["higher", "{}", "-m", "3", "--dot"], "dbl", "8218cd627a05a92945dd760e5023a7f4ae76be7db8d97576a62406bc5526d401"),
        (["export-dot", "{}"], "dense", "4efd60dfc8f68316a4c34a4f9125ae19a0c9943282722d8444fb2b059e651188"),
        # digests of the oracle's output while it built its graph with numpy
        (["oracle", "{}", "-n", "8", "--format", "json"], "dbl", "ac617404e0086d7cdcb4097c87aace66649a52dd380cdde49097e5c7be6e0dcf"),
        (["oracle", "{}", "-n", "4", "--format", "json"], "dense", "356bc2b76dbd2726bce8d901af24cb8d4b6c0f45e705c985fc5d41d86412ce9b"),
    ],
)
def test_rewritten_commands_keep_their_bytes(tmp_path, capsys, dbl, argv, graph, sha):
    vs = range(1, 5)
    dense = {"n": 4, "t_edges": [[i, j] for i in vs for j in vs], "i_edges": [[i, j] for i in vs for j in vs if i < j]}
    p = tmp_path / "g.json"
    p.write_text(serialize_tigraph(dbl) if graph == "dbl" else json.dumps(dense))
    code, out, _ = _run(capsys, [a.format(p) for a in argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_export_dot_does_not_prune(tmp_path, capsys):
    p = tmp_path / "stranded.json"
    p.write_text('{"n":3,"t_edges":[[1,1],[1,2],[1,3],[3,1]],"i_edges":[]}')
    code, out, _ = _run(capsys, ["export-dot", str(p)])
    assert code == 0
    assert "  2;" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "map.json", "--m-max", "3"],
        ["export-dot", "g.json", "--tol", "1"],
        ["report", "g.json", "--seed", "1"],
        ["oracle", "g.json", "-n", "2", "--m-max", "3"],
        ["oracle", "g.json", "-n", "2", "--tol", "1"],
        ["oracle", "g.json", "-n", "2", "--state-cap", "5"],
        ["oracle", "g.json", "-n", "2", "--seed", "1"],
        ["higher", "g.json", "-m", "2", "--m-max", "3"],
        ["higher", "g.json", "-m", "2", "--tol", "1"],
        ["higher", "g.json", "-m", "2", "--mis-budget", "5"],
        ["higher", "g.json", "-m", "2", "--state-cap", "5"],
        ["higher", "g.json", "-m", "2", "--format", "json"],
        ["higher", "g.json", "-m", "2", "--seed", "1"],
    ],
)
def test_subcommands_without_common_flags_reject_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    code, _, err = _run(capsys, ["report", "/nonexistent/g.json"])
    assert code == 2


def test_text_format_input(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("n=2\nT 1 2\nT 2 1\nI 1 2\n")
    code, out, _ = _run(capsys, ["report", str(p)])
    assert code == 0
    assert "sofic" in out


def test_byte_identical_reruns(dbl_path, gm_path, capsys):
    for path in (dbl_path, gm_path):
        for fmt in ("text", "json"):
            outs = []
            for _ in range(2):
                code, out, _ = _run(
                    capsys, ["report", path, "--m-max", "3", "--format", fmt]
                )
                assert code == 0
                outs.append(out)
            assert outs[0] == outs[1]


def test_reused_parser_keeps_no_state_between_calls(dbl_path, capsys):
    # main builds its parser once per process; flags of one call must not
    # reach the next
    _, text_first, _ = _run(capsys, ["report", dbl_path, "--m-max", "2"])
    code, as_json, _ = _run(capsys, ["report", dbl_path, "--m-max", "3", "--format", "json"])
    assert code == 0
    assert json.loads(as_json)
    _, text_again, _ = _run(capsys, ["report", dbl_path, "--m-max", "2"])
    assert text_again == text_first
    assert text_first.startswith("graph digest")
    _, default_m, _ = _run(capsys, ["report", dbl_path])
    _, explicit_m, _ = _run(capsys, ["report", dbl_path, "--m-max", "4"])
    assert default_m == explicit_m
    code, stats, _ = _run(capsys, ["higher", dbl_path, "-m", "2", "--stats"])
    assert code == 0 and stats.startswith("m=2 ")
    code, dumped, _ = _run(capsys, ["higher", dbl_path, "-m", "2"])
    assert code == 0 and json.loads(dumped)["n"] == 8


@pytest.mark.parametrize(
    "graph, flags, method",
    [("dbl", ["--size-cap", "1"], "higher_limit"), ("gm", ["--state-cap", "1"], "sofic")],
)
def test_text_report_flags_a_failed_method(dbl_path, gm_path, capsys, graph, flags, method):
    path = {"dbl": dbl_path, "gm": gm_path}[graph]
    code, out, _ = _run(capsys, ["report", path, *flags])
    assert code == 3  # a cap failed the method
    rows = {line.split()[0]: line for line in out.splitlines()[3:-1]}
    assert rows[method].endswith("ESTIMATE   FAILED")
    assert [m for m, line in rows.items() if "FAILED" in line] == [method]
