"""Command-line frontend: report, oracle, higher, ingest, export-dot.

Exit codes: 0 success, 2 invalid input, 3 resource cap reached (partial
output is still printed when possible).  Output is byte-identical across
runs for a fixed input and configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .bounds import BoundReport, best_bound, oracle_separated_count
from .config import Config
from .errors import SizeCapExceeded, StateCapExceeded, TigraphError
from .graph import TIGraph, dot_pieces, parse_tigraph, prune_stranded, serialize_tigraph, tigraph_json_pieces
from .higher import count_paths, higher_graph
from .ingest import load_map_spec, ti_from_circle

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAP = 3


def _read_graph(path: str) -> TIGraph:
    text = Path(path).read_text(encoding="utf-8")
    fmt = "json" if text.lstrip()[:1] == "{" else "text"
    return parse_tigraph(text, fmt=fmt)


def _load(args: argparse.Namespace) -> tuple[Config, TIGraph, TIGraph, dict[int, int]]:
    """Config, the graph at ``args.path``, its pruned graph and the old->new index map.

    Config takes the flags the subcommand registers; the rest keep their
    defaults.  It is checked before the graph is read.
    """
    cfg = Config(**{k: v for k, v in vars(args).items() if k in Config.__dataclass_fields__})
    g = _read_graph(args.path)
    return (cfg, g, *prune_stranded(g))


def _format_report(report: BoundReport, removed: list[int], fmt: str) -> str:
    if fmt == "json":
        payload = report.to_json_dict()
        payload["pruned_vertices"] = removed
        return json.dumps(payload, separators=(",", ":")) + "\n"
    lines = [f"graph digest: {report.graph_digest}"]
    lines.append(
        "pruned vertices: " + (", ".join(map(str, removed)) if removed else "none")
    )
    lines.append(f"{'method':<22} {'ln':>14} {'log2':>14} {'status':<10} flags")
    for b in report.bounds:
        status = "CERTIFIED" if b.certified else "ESTIMATE"
        flags = []
        if b.exact:
            flags.append("EXACT")
        if "error" in b.certificate:
            flags.append("FAILED")
        lines.append(
            f"{b.method:<22} {b.value:>14.9f} {b.value / math.log(2):>14.9f} "
            f"{status:<10} {' '.join(flags)}".rstrip()
        )
    best = report.best_bound()
    exact_note = " EXACT" if best.exact else ""
    lines.append(
        f"best: {best.method} = {best.value:.9f} (log2 {best.value / math.log(2):.9f})"
        f" {'CERTIFIED' if best.certified else 'ESTIMATE'}{exact_note}"
    )
    return "\n".join(lines) + "\n"


def _cap_hit(report: BoundReport) -> bool:
    for b in report.bounds:
        err = b.certificate.get("error", "")
        if err.startswith(("SizeCapExceeded", "StateCapExceeded")):
            return True
        if b.method == "higher_limit" and b.certificate.get("truncated"):
            return True
    return False


def cmd_report(args: argparse.Namespace) -> int:
    cfg, g, pruned, index_map = _load(args)
    removed = sorted(set(range(1, g.n + 1)) - set(index_map))
    report = best_bound(pruned, cfg)
    sys.stdout.write(_format_report(report, removed, cfg.output_format))
    return EXIT_CAP if _cap_hit(report) else EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg, _, pruned, _ = _load(args)
    sep = oracle_separated_count(
        pruned, args.n, size_cap=cfg.size_cap, mis_budget=cfg.mis_budget
    )
    if cfg.output_format == "json":
        payload = {"n": sep.n, "count": sep.count, "witness": [list(w) for w in sep.witness]}
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(f"n={sep.n} count={sep.count}\n")
        for w in sep.witness:
            sys.stdout.write("  " + " ".join(map(str, w)) + "\n")
    return EXIT_OK


def cmd_higher(args: argparse.Namespace) -> int:
    cfg, _, pruned, _ = _load(args)
    lift = higher_graph(pruned, args.m, size_cap=cfg.size_cap)
    if args.stats:
        gamma = ""
        structure = pruned.t.structure
        try:  # a T too large for the gamma search keeps its counts; main then exits 3
            if structure.primitive:
                gamma = f" gamma={structure.gamma(args.m)}"
        finally:
            sys.stdout.write(
                # the lifted T's edges are the (m+1)-paths of T
                f"m={args.m} vertices={lift.i.n} t_edges={count_paths(pruned.t, args.m + 1)}"
                f" i_edges={lift.i.num_edges()}{gamma}\n"
            )
        return EXIT_OK
    if args.dot:
        labels = {
            v: "(" + ",".join(map(str, w)) + ")" for v, w in enumerate(lift.vertex_words, start=1)
        }
        sys.stdout.writelines(dot_pieces(lift.lifted, node_labels=labels))
        return EXIT_OK
    sys.stdout.writelines(tigraph_json_pieces(lift.lifted, lift.vertex_words))
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    data = Path(args.path).read_text(encoding="utf-8")
    cmap, cover, margin = load_map_spec(data)
    g = ti_from_circle(cmap, cover, margin=margin)
    sys.stdout.write(serialize_tigraph(g) + "\n")
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    sys.stdout.writelines(dot_pieces(_read_graph(args.path)))
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser, *fields: str) -> None:
    """Register one flag per named Config field, with Config's default."""
    for name in fields:
        default = getattr(Config, name)
        if name == "output_format":
            parser.add_argument("--format", dest=name, choices=("text", "json"), default=default)
        else:
            flag = "--" + name.replace("_", "-")
            parser.add_argument(flag, dest=name, type=type(default), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tigraph",
        description="Entropy lower bounds for shift spaces with overlapping alphabets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="prune, run all bound methods, print the report")
    p.add_argument("path")
    _add_config_flags(p, "m_max", "tol", "mis_budget", "size_cap", "state_cap", "output_format")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("oracle", help="brute-force maximum separated word family")
    p.add_argument("path")
    p.add_argument("-n", type=int, required=True, help="word length")
    _add_config_flags(p, "mis_budget", "size_cap", "output_format")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("higher", help="dump the m-th higher vertex graph")
    p.add_argument("path")
    p.add_argument("-m", type=int, required=True, help="block length")
    form = p.add_mutually_exclusive_group()
    form.add_argument("--stats", action="store_true", help="print counts instead of the graph")
    form.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    _add_config_flags(p, "size_cap")
    p.set_defaults(fn=cmd_higher)

    p = sub.add_parser("ingest", help="build a TI-graph from a circle map and cover")
    p.add_argument("path")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("export-dot", help="render a TI-graph as Graphviz DOT")
    p.add_argument("path")
    p.set_defaults(fn=cmd_export_dot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, so one per process serves all
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SizeCapExceeded, StateCapExceeded) as exc:
        print(f"cap reached: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (TigraphError, OSError, UnicodeDecodeError) as exc:  # invalid or unreadable input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
