#!/usr/bin/env python3
"""Outside-in benchmark of ``tigraph report``.

Runs ``tigraph`` the way users run it -- ``tigraph.cli.main`` on generated
input files, JSON output -- in this process, single-threaded, with the
package imported from ``src/`` of the checkout this file sits in.

    python3 bench/run.py --workload lift_mis --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

A run writes the seeded inputs, makes one untimed warm-up pass, then
repeats passes for ``--seconds``.  With ``--trace 0`` it reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates
traced and untraced passes and reports the per-layer metrics (see
``tracer.py``) and the tracing overhead.  Every report is checked by the
gate in ``gate.py``, outside the timed region.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported in *reference seconds*: each measured interval is
scaled by how much slower than ``CAL_REFERENCE_S`` two fixed pure-Python
probes ran just before and after it (see ``SpeedProbe``).  On a shared
2-vCPU Xeon the interpreter's speed drifts by up to 40 % over tens of
seconds; the quartile spread of the raw medians of separate runs reached
30 %, and that of the scaled medians stays under 9 %.

``--workload all`` runs every workload, untraced and traced, each in its
own process and one after another, and prints one table of all metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

DEFAULT_SECONDS = 20
SETUP_REPEATS = 5
# The two probes take 14.5 ms and 8.9 ms on an idle Intel Xeon vCPU (Python
# 3.11); a time in reference seconds is what the interval would take at that
# speed.
CAL_REFERENCE_S = (0.0145, 0.0089)
CAL_LOOPS = (3, 5)
CAL_INTERVAL_S = 0.5  # longest stretch of work between two probes, when steps allow
CHILD_TIMEOUT_S = 600
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import tigraph.cli"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("report_p50_s", "s"),
    ("report_p95_s", "s"),
    ("peak_rss_mb", "MB"),
)


def require_tigraph():
    """Import ``tigraph.cli`` from this checkout's ``src/``, or exit with 2."""
    try:
        import tigraph.cli
    except ImportError as exc:
        print(f"error: cannot import tigraph from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(tigraph.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: tigraph was imported from outside {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return tigraph.cli


def _tight_loop() -> int:
    acc = 0
    table = {}
    for i in range(20_000):
        m = (i * 2654435761) & 0xFFFFFFFFFFFF
        acc ^= m >> (i & 7)
        table[i & 255] = (i, acc & 1023)
    return acc


def _broad_loop() -> int:
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("a", "b", "c", "d", "e"):
        p = sub.add_parser(name)
        p.add_argument("path")
        for opt in ("--one", "--two", "--three", "--four", "--five", "--six"):
            p.add_argument(opt, type=int, default=1)
    args = parser.parse_args(["c", "x.json", "--two", "4", "--five", "5"])
    doc = {"rows": [{"k": i, "v": i / 7, "s": list(range(i % 9))} for i in range(40)]}
    return len(json.loads(json.dumps(doc))["rows"]) + args.two


class SpeedProbe:
    """Scales intervals to reference seconds by timing fixed code around them.

    A shared machine does not slow all code alike: a tight arithmetic loop
    (like the branch and bound) slows more than code that spreads over many
    functions (like argument parsing and JSON in a small report).  The
    probe times one of each and takes the geometric mean of their scales.
    """

    def __init__(self):
        self.last = self._probe()
        self.last_at = time.perf_counter()

    @staticmethod
    def _probe() -> tuple[float, float]:
        times = []
        for loop, repeats in zip((_tight_loop, _broad_loop), CAL_LOOPS):
            t0 = time.perf_counter()
            for _ in range(repeats):
                loop()
            times.append(time.perf_counter() - t0)
        return times[0], times[1]

    def factor(self) -> float:
        """Scale for the work done since the previous probe."""
        now = self._probe()
        f = 1.0
        for ref, before, after in zip(CAL_REFERENCE_S, self.last, now):
            f *= ref / ((before + after) / 2)
        self.last, self.last_at = now, time.perf_counter()
        return math.sqrt(f)


def measure_setup(probe: SpeedProbe) -> float:
    """Median time, in reference seconds, of a fresh interpreter importing ``tigraph.cli``."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)], check=True, cwd=ROOT)
        times.append((time.perf_counter() - t0) * probe.factor())
    return statistics.median(times)


@dataclass
class Pass:
    wall: float = 0.0  # reference seconds
    raw_wall: float = 0.0  # seconds as measured
    latencies: list[float] = field(default_factory=list)  # one per report, reference seconds
    outputs: list[tuple[int, str]] = field(default_factory=list)  # (exit code, stdout)


def run_pass(cli, workload: inputs.Workload, probe: SpeedProbe) -> Pass:
    """Run every step once; a probe between steps closes each half second of work."""
    p = Pass()
    pending: list[float] = []  # raw latencies since the last probe
    ran = False  # a step ran since the last probe
    seg_start = time.perf_counter()

    def close_segment() -> None:
        nonlocal seg_start, ran
        ran = False
        raw = time.perf_counter() - seg_start
        f = probe.factor()
        p.raw_wall += raw
        p.wall += raw * f
        p.latencies.extend(x * f for x in pending)
        pending.clear()
        seg_start = time.perf_counter()

    for step in workload.steps:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(step.argv)
        dt = time.perf_counter() - t0
        out = buf.getvalue()
        if step.save_to is not None:
            step.save_to.write_text(out)
        if step.is_report:
            pending.append(dt)
        p.outputs.append((code, out))
        ran = True
        if time.perf_counter() - probe.last_at >= CAL_INTERVAL_S:
            close_segment()
    if ran:
        close_segment()
    return p


def gate_failures(workload: inputs.Workload, warmup: Pass, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over the report steps of ``passes``.

    The warm-up pass is checked in full; a later report fails when its exit
    code or stdout differs from the warm-up's, since reports are
    deterministic.
    """
    import gate

    reference = gate.load_reference()
    bad_steps, reasons = set(), []
    for k, (step, (code, out)) in enumerate(zip(workload.steps, warmup.outputs)):
        if step.is_report:
            expected = gate.reference_entry(reference, workload.name, step.reference_key)
            problems = gate.check_report(code, out, step.graph, expected)
        else:
            problems = [f"exit code {code}"] if code != 0 else []
        if problems:
            bad_steps.add(k)
            reasons += [f"{' '.join(step.argv[:2])}: {p}" for p in problems]
    attempted = failed = 0
    for p in passes:
        for k, (step, result) in enumerate(zip(workload.steps, p.outputs)):
            if not step.is_report:
                continue
            attempted += 1
            differs = result != warmup.outputs[k]
            if differs and k not in bad_steps:
                reasons.append(f"{' '.join(step.argv[:2])}: output differs from the warm-up pass")
            failed += differs or k in bad_steps
    return attempted, failed, reasons


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample.

    Over the 200 reports of ``survey``, the 95th percentile has ten beyond it.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result object."""
    cli = require_tigraph()
    probe = SpeedProbe()
    setup = None if trace else measure_setup(probe)
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        workload = inputs.build(name, seed, workdir)
        tr = tracing.Tracer() if trace else None
        warmup = run_pass(cli, workload, probe)
        plain: list[Pass] = []
        traced: list[Pass] = []
        tables = []
        deadline = time.perf_counter() + seconds
        while not plain or (trace and not traced) or time.perf_counter() < deadline:
            if trace and len(traced) <= len(plain):
                tr.reset()
                tr.install()
                try:
                    traced.append(run_pass(cli, workload, probe))
                finally:
                    tr.uninstall()
                tables.append(tr.layer_table(traced[-1].wall / traced[-1].raw_wall))
            else:
                plain.append(run_pass(cli, workload, probe))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, reasons = gate_failures(workload, warmup, plain + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    correct = failed == 0
    if trace:
        metrics, steady = tracing.aggregate(tables)
        if not steady:
            reasons.append("per-layer counts differ between traced passes")
            correct = False
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1
        )
        absent = tr.absent()
        metrics["trace.absent"] = len(absent)
        units = dict(tracing.metric_names())
        if absent:
            print("absent from the traced program: " + ", ".join(absent), file=sys.stderr)
    else:
        # each report's latency is its median over the passes, so that the
        # percentiles spread over the reports, not over the machine's noise
        per_report = [statistics.median(col) for col in zip(*(p.latencies for p in plain))]
        metrics = {
            "setup_s": setup,
            "wall_s": statistics.median(p.wall for p in plain),
            "report_p50_s": statistics.median(per_report),
            "report_p95_s": quantile(per_report, 95),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    for reason in reasons:
        print(f"gate: {reason}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "passes": len(plain) + len(traced),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_single(name: str, result: dict) -> None:
    print(f"workload {name}: {result['passes']} timed passes, "
          f"{result['attempted']} reports, {result['failed']} failed")
    rows = list(result["metrics"].items())
    rows.append(("failed_frac", {"value": result["failed"] / result["attempted"], "unit": "ratio"}))
    for metric, m in rows:
        print(f"  {metric:<34} {_fmt(m['value']):>14} {m['unit']}")


def run_all(seed: int, seconds: float, out: Path | None) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for name in inputs.WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} --trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            results[name]["per_layer" if trace else "end_to_end"] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    print_table(results)
    summary = {
        "correct": all(r[k]["correct"] for r in results.values() for k in r),
        "attempted": sum(r[k]["attempted"] for r in results.values() for k in r),
        "failed": sum(r[k]["failed"] for r in results.values() for k in r),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for part in r.values() for metric, m in part["metrics"].items()},
    }
    if out is not None:
        record = {
            "seed": seed,
            "seconds": seconds,
            "machine": machine(),
            "workloads": results,
        }
        out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def print_table(results: dict) -> None:
    names = list(results)
    head = f"{'metric':<34} {'unit':<6}" + "".join(f"{n:>14}" for n in names)
    print(head)
    print("-" * len(head))
    for metric, unit in list(END_TO_END) + [("failed_frac", "ratio")]:
        cells = []
        for n in names:
            r = results[n]["end_to_end"]
            value = (r["failed"] / r["attempted"] if metric == "failed_frac"
                     else r["metrics"][metric]["value"])
            cells.append(f"{_fmt(value):>14}")
        print(f"{metric:<34} {unit:<6}" + "".join(cells))
    print()
    print(head)
    print("-" * len(head))
    for metric, unit in tracing.metric_names():
        cells = "".join(f"{_fmt(results[n]['per_layer']['metrics'][metric]['value']):>14}"
                        for n in names)
        print(f"{metric:<34} {unit:<6}{cells}")
    print()
    print(f"{'self-time share':<41}" + "".join(f"{n:>14}" for n in names))
    for layer in tracing.LAYERS:
        cells = []
        for n in names:
            m = results[n]["per_layer"]["metrics"]
            total = sum(m[f"{x}.self_s"]["value"] for x in tracing.LAYERS)
            cells.append(f"{m[f'{layer}.self_s']['value'] / total:>14.1%}")
        print(f"{layer:<41}" + "".join(cells))


def machine() -> str:
    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return f"{model}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="with --workload all: write the results here")
    args = parser.parse_args(argv)
    require_tigraph()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_single(args.workload, result)
    del result["passes"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
