#!/usr/bin/env python3
"""Record the reference values the gate compares reports against.

    python3 bench/make_reference.py

Runs every workload's reports once on the seed-0 inputs and writes, for
each report, the value of every method and the best method to
``bench/reference.json``.  The seed does not change these values (it only
reorders edges, arcs and reports), so one recording serves every seed.
Re-record only when a change is meant to alter the reported values.
"""

import json
import shutil

import run  # first: puts the checkout's src/ on the import path
import gate  # noqa: E402
import inputs  # noqa: E402


def main() -> None:
    cli = run.require_tigraph()
    reference: dict = {}
    workdir = run.ROOT / ".bench_work" / "reference"
    try:
        for name in inputs.WORKLOADS:
            workload = inputs.build(name, 0, workdir / name)
            result = run.run_pass(cli, workload, run.SpeedProbe())
            for step, (code, out) in zip(workload.steps, result.outputs):
                if code != 0:
                    raise SystemExit(f"{name}: {' '.join(step.argv)} exited with {code}")
                if not step.is_report:
                    continue
                entry = gate.summarize(json.loads(out))
                if isinstance(step.reference_key, int):
                    reference.setdefault(name, {})[step.reference_key] = entry
                else:
                    reference[name] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference["survey"] = [reference["survey"][k] for k in sorted(reference["survey"])]
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
