"""Correctness gate for one ``tigraph report --format json`` output.

A report fails when its exit code is not 0, when a bound carries
``error``, when ``verify_bound`` rejects a bound, or when a method that the
recorded reference holds differs from it by more than ``TOLERANCE`` or the
best method differs.  Methods the reference lacks are not compared, so a
later method (an upper bound, say) does not trip the gate.
"""

from __future__ import annotations

import json
from pathlib import Path

from tigraph import Bound, parse_tigraph, prune_stranded, verify_bound

TOLERANCE = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def reference_entry(reference: dict, workload: str, key):
    """The recorded entry of one report: a workload name or a survey index."""
    return reference[workload][key] if isinstance(key, int) else reference[key]


def summarize(report: dict) -> dict:
    """The part of a report the reference records."""
    return {
        "methods": {b["method"]: b["value"] for b in report["bounds"]},
        "best": report["bounds"][report["best"]]["method"],
    }


def check_report(exit_code: int, stdout: str, graph_path: Path, expected: dict) -> list[str]:
    """Reasons the report fails the gate; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    g, _ = prune_stranded(parse_tigraph(graph_path.read_text()))
    for b in report["bounds"]:
        cert = b["certificate"]
        if "error" in cert:
            problems.append(f"{b['method']}: {cert['error']}")
            continue
        bound = Bound(b["method"], b["value"], b["certified"], b["exact"], cert)
        if not verify_bound(g, bound):
            problems.append(f"{b['method']}: verify_bound rejects the certificate")
    got = summarize(report)
    for method, value in expected["methods"].items():
        if method not in got["methods"]:
            problems.append(f"{method}: missing from the report")
        elif abs(got["methods"][method] - value) > TOLERANCE:
            problems.append(f"{method}: {got['methods'][method]!r} != reference {value!r}")
    if got["best"] != expected["best"]:
        problems.append(f"best method {got['best']} != reference {expected['best']}")
    return problems
