"""Reports stay byte-identical on the benchmark inputs.

``scripts/report_digest.py`` runs every step of every benchmark workload
through the CLI and hashes the exit codes and outputs; its ``all`` line
changes whenever any report on those inputs changes by a byte.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SEED_0_ALL = "3ff88c2396a8efc244cddebe9e15bf02e0ac25c91eb3fe11915abb402f9af1b1"
# seed 7 rotates the wide_cover arcs differently from seed 0, so the
# independent-subshift candidates come in another order
SEED_7_ALL = "d74d8c65321028463a0d2a0679997557dc8bbe69500bd91378aee4f0fa94d09f"


def _assert_all_digest(seed, expect):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_digest.py"), "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    all_line = proc.stdout.splitlines()[-1].split()
    assert all_line[:2] == ["all", expect], proc.stdout


def test_report_digest_at_seed_0_is_pinned():
    _assert_all_digest(0, SEED_0_ALL)


def test_report_digest_at_seed_7_is_pinned():
    _assert_all_digest(7, SEED_7_ALL)
