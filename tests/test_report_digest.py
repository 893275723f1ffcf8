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


def test_report_digest_at_seed_0_is_pinned():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_digest.py"), "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    all_line = proc.stdout.splitlines()[-1].split()
    assert all_line[:2] == ["all", SEED_0_ALL], proc.stdout
