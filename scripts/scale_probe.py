#!/usr/bin/env python3
"""Wall time and peak memory of one ``tigraph`` run per row of the scale table.

Each row ``name:m`` runs ``tigraph report GRAPH --m-max m --format json``,
each row ``higher:name:m`` runs ``tigraph higher GRAPH -m m`` (the JSON
dump of the m-th higher vertex graph), each row ``dot:name:m`` runs
``tigraph higher GRAPH -m m --dot`` (its DOT export) and each row
``oracle:name:n`` runs ``tigraph oracle GRAPH -n n --format json`` (the
brute-force separated-word count), in a subprocess of its own.  It prints
the wall seconds, that child's peak resident set size (from ``os.wait4``),
its exit code and the sha256 of its stdout.  The graphs ``dbl``,
``dense`` and ``cover`` are those of ``bench/inputs.py``: ``dbl`` is the
doubling fixture, ``dense`` is ``dense_graph()`` (complete T and I on 4
vertices) and ``cover`` the 200-arc cover of x -> 3x, ``cover_spec(0)`` run
through ``tigraph ingest``.  ``rcover`` is a 2,000-arc cover of x -> 3x with
random overlaps (``rcover_spec()``), also run through ``tigraph ingest``;
its Perron blocks have about 1,000 vertices and unequal row sums, so they
iterate in numpy.  ``cover10k`` is x -> 3x on the 10,000 arcs
[(i - 0.2)/N, (i + 1.2)/N], N = 10,000 (``cover10k_spec()``), the same
family as ``cover`` and row 3 of the scale table, also run through
``tigraph ingest``.  The graphs are written to a temporary directory, so
nothing under ``bench/`` changes.

Usage: python3 scripts/scale_probe.py [--root DIR] [[higher:|dot:|oracle:]name:m ...]

Without rows it runs dbl:13 dbl:14 cover:5 cover:6, the scale table of
ROADMAP.md.  ``--root`` names the checkout whose ``src/`` and
``bench/inputs.py`` are used (default: the one holding this script), so two
commits can be probed with the same script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_ROWS = ("dbl:13", "dbl:14", "cover:5", "cover:6")
GRAPHS = ("dbl", "dense", "cover", "rcover", "cover10k")
RCOVER_ARCS = 2000
RCOVER_SEED = 5
COVER10K_ARCS = 10_000


def _spec(arcs: list[str]) -> str:
    return '{"pieces": [{"from": [0, 1], "slope": 3, "intercept": 0}], "intervals": [%s]}' % ", ".join(arcs)


def rcover_spec() -> str:
    """x -> 3x on the arcs [(i - r_i)/N, (i + 1 + r_i)/N], i < N = 2,000, as
    exact decimals, where r_i = randint(5, 45)/100 from ``random.Random(5)``."""
    rng = random.Random(RCOVER_SEED)
    arcs = []
    for i in range(RCOVER_ARCS):
        r = rng.randint(5, 45)
        # (i - r/100) / N = 5 (100 i - r) / 10^6, exactly; likewise i + 1 + r/100
        lo = Decimal(5 * (100 * i - r)).scaleb(-6)
        hi = Decimal(5 * (100 * (i + 1) + r)).scaleb(-6)
        arcs.append(f"[{lo}, {hi}]")
    return _spec(arcs)


def cover10k_spec() -> str:
    """x -> 3x on the arcs [(i - 0.2)/N, (i + 1.2)/N], i < N = 10,000, as exact decimals."""
    # (i - 0.2) / N = (10 i - 2) / 10^5, exactly; likewise i + 1.2
    return _spec([f"[{Decimal(10 * i - 2).scaleb(-5)}, {Decimal(10 * i + 12).scaleb(-5)}]" for i in range(COVER10K_ARCS)])


def parse_row(text: str) -> tuple[str, str, int]:
    """(command, graph name, m) of a row ``name:m`` (a report), ``higher:name:m``, ``dot:name:m`` or ``oracle:name:m``."""
    command, _, rest = text.partition(":")
    if command not in ("higher", "dot", "oracle"):
        command, rest = "report", text
    name, _, m = rest.partition(":")
    if name not in GRAPHS or not m.isdigit() or int(m) < 1:
        raise argparse.ArgumentTypeError(
            f"expected name:m, higher:name:m, dot:name:m or oracle:name:m with name in {GRAPHS} and m >= 1, got {text!r}"
        )
    return command, name, int(m)


def run_child(argv: list[str], env: dict[str, str], out: Path) -> tuple[float, int, int]:
    """(wall seconds, peak RSS in KiB, exit code) of ``argv`` writing its stdout to ``out``."""
    with out.open("wb") as f:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=f, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_maxrss, proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rows", nargs="*", type=parse_row, help="name:m (default: %s)" % " ".join(DEFAULT_ROWS))
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.path.insert(0, str(root / "bench"))
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    import inputs

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cli = [sys.executable, "-m", "tigraph.cli"]
    rows = args.rows or [parse_row(r) for r in DEFAULT_ROWS]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        needed = {name for _, name, _ in rows}
        graph = {name: tmp / f"{name}.json" for name in needed}
        if "dbl" in needed:
            graph["dbl"].write_text(json.dumps(inputs.DOUBLING))
        if "dense" in needed:
            graph["dense"].write_text(json.dumps(inputs.dense_graph()))
        specs = {"cover": lambda: inputs.cover_spec(0), "rcover": rcover_spec, "cover10k": cover10k_spec}
        for name in needed & specs.keys():
            spec = tmp / f"{name}_spec.json"
            spec.write_text(specs[name]())
            _, _, code = run_child(cli + ["ingest", str(spec)], env, graph[name])
            if code != 0:
                print(f"error: tigraph ingest exited {code}", file=sys.stderr)
                return 1
        for command, name, m in rows:
            out = tmp / "out.json"
            row = f"{name}:{m}" if command == "report" else f"{command}:{name}:{m}"
            if command == "report":
                argv = cli + ["report", str(graph[name]), "--m-max", str(m), "--format", "json"]
            elif command == "oracle":
                argv = cli + ["oracle", str(graph[name]), "-n", str(m), "--format", "json"]
            else:
                argv = cli + ["higher", str(graph[name]), "-m", str(m)] + (["--dot"] if command == "dot" else [])
            wall, rss_kib, code = run_child(argv, env, out)
            digest = hashlib.sha256()
            with out.open("rb") as f:  # in blocks: a child forked later starts at this process's size
                for block in iter(lambda: f.read(1 << 20), b""):
                    digest.update(block)
            print(f"{row:<9} wall {wall:8.2f} s  peak_rss {rss_kib / 1024:8.1f} MB  exit {code}  sha256 {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
