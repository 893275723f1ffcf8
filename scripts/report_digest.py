#!/usr/bin/env python3
"""Hash the output of every benchmark step, to check that reports did not change.

Writes the seeded inputs of each benchmark workload (``bench/inputs.py``)
into a temporary directory, runs every step in order through
``tigraph.cli.main`` in this process, as ``bench/run.py`` does, and prints
one sha256 per workload over each step's exit code and stdout, then one
over all workloads.  Two checkouts produce byte-identical reports on these
inputs exactly when their lines agree.

Usage: python3 scripts/report_digest.py [--seed S] [--workload W ...] [--root DIR]

``--root`` names the checkout whose ``src/`` and ``bench/inputs.py`` are
used (default: the one holding this script), so a commit that predates this
script can be hashed with the same code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("lift_mis", "lift_dense", "wide_cover", "survey")


def workload_digest(cli, inputs, name: str, seed: int) -> tuple[str, int]:
    """(sha256 hex, step count) of one workload's outputs at ``seed``."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        workload = inputs.build(name, seed, Path(tmp))
        for step in workload.steps:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(step.argv)
            out = buf.getvalue()
            if step.save_to is not None:
                step.save_to.write_text(out)
            h.update(f"{code}\n{len(out)}\n".encode())
            h.update(out.encode())
    return h.hexdigest(), len(workload.steps)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import inputs
    import tigraph.cli

    if not Path(tigraph.cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: tigraph was imported from outside {root / 'src'}", file=sys.stderr)
        return 2

    combined = hashlib.sha256()
    for name in args.workload or WORKLOADS:
        digest, steps = workload_digest(tigraph.cli, inputs, name, args.seed)
        combined.update(f"{name} {digest}\n".encode())
        print(f"{name:<12} {digest}  ({steps} steps)")
    print(f"{'all':<12} {combined.hexdigest()}  (seed {args.seed})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
