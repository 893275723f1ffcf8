"""``scripts/scale_probe.py`` runs a report, a ``higher`` dump or an oracle per row and prints one line for each."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LINE = r" +wall +\d+\.\d\d s  peak_rss +\d+\.\d MB  exit 0  sha256 [0-9a-f]{64}"


def test_scale_probe_prints_one_line_per_row():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_probe.py"), "dbl:3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch("dbl:3" + LINE, proc.stdout.strip()), proc.stdout


@pytest.mark.parametrize("row", ["higher:dbl:3", "dot:dbl:3", "oracle:dbl:3"])
def test_scale_probe_runs_a_higher_dump_per_higher_row(row):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_probe.py"), row],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(row + LINE, proc.stdout.strip()), proc.stdout


def test_scale_probe_ingests_the_random_overlap_cover():
    # 2,000 arcs through ``tigraph ingest``; its report solves blocks in numpy
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_probe.py"), "rcover:1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch("rcover:1" + LINE, proc.stdout.strip()), proc.stdout


def test_scale_probe_ingests_the_10000_arc_cover():
    # row 3 of the scale table, through ``tigraph ingest``
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_probe.py"), "cover10k:1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch("cover10k:1" + LINE, proc.stdout.strip()), proc.stdout


def test_every_default_row_is_a_report_on_a_known_graph():
    # parsed only: run, the six rows take minutes
    spec = importlib.util.spec_from_file_location("scale_probe", ROOT / "scripts" / "scale_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    rows = [probe.parse_row(r) for r in probe.DEFAULT_ROWS]
    assert [name for _, name, _ in rows] == ["dbl", "dbl", "cover10k", "cover", "cover", "rcover"]
    assert all(command == "report" and name in probe.GRAPHS for command, name, _ in rows)


def test_scale_probe_refuses_an_unknown_row():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_probe.py"), "dbl"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "expected name:m" in proc.stderr
