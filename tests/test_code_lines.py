"""``scripts/code_lines.py`` counts each module's lines and code lines under ``src/``."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# 20 lines; code on lines 5, 8, 10-13, 16 and 20
SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # code with a comment


def f():
    """Function docstring."""
    text = """a multi-line
string that is
not a docstring"""
    return text


class C:
    """Class docstring
    on two lines."""

    x = 1
'''


def _run(*roots):
    argv = [sys.executable, str(ROOT / "scripts" / "code_lines.py")]
    for root in roots:
        argv += ["--root", str(root)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def test_code_lines_skip_comments_blank_lines_and_docstrings(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(SOURCE)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text('"""Only a docstring."""\n')
    assert _run(tmp_path) == [
        ["module", "lines", "code"],
        ["pkg/__init__.py", "1", "0"],
        ["pkg/mod.py", "20", "8"],
        ["total", "21", "8"],
    ]


def test_two_roots_print_the_change_per_module(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, source in ((old, SOURCE), (new, SOURCE + "y = 2  # one more\n")):
        (root / "src").mkdir(parents=True)
        (root / "src" / "mod.py").write_text(source)
    (new / "src" / "extra.py").write_text("z = 3\n")
    assert _run(old, new) == [
        ["module", "lines1", "lines2", "delta", "code1", "code2", "delta"],
        ["extra.py", "0", "1", "+1", "0", "1", "+1"],
        ["mod.py", "20", "21", "+1", "8", "9", "+1"],
        ["total", "20", "22", "+2", "8", "10", "+2"],
    ]


def test_code_lines_runs_on_this_checkout():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^total +\d+ +\d+$", proc.stdout, re.MULTILINE), proc.stdout
