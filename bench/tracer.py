"""Per-layer tracing of ``tigraph`` from outside the package.

``install`` wraps every function that ``tigraph`` exports, plus
``tigraph.cli.main``, at every ``tigraph.*`` module attribute that holds it,
so calls made through another module's imported name (``bounds`` calls
``max_independent_set`` that way) are caught too.  A layer is the module
that defines the function.  Each call becomes a span with a parent; a
layer's self time is its spans' time minus the time of their child spans.

A call into a layer from outside it is an *entry call*.  Entry calls are
keyed on their arguments (graphs by content, scalars such as ``m`` by
value); an entry call whose key was already seen in the same ``tigraph``
command is a *duplicate*.  The time the wrappers spend on keys and
statistics is kept out of every span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import time
from dataclasses import dataclass, field

# layer -> the statistics it reports, beside self_s/calls/dup_calls
LAYERS = {
    "cli": ("self_s",),
    "graph": ("self_s", "calls"),
    "bounds": (
        "self_s",
        "independent_subshift_s",
        "complete_digraph_s",
        "primitive_s",
        "component_s",
        "sofic_s",
        "limit_sequence_s",
    ),
    "independence": ("self_s", "calls", "dup_calls", "dup_s", "vertices", "edges", "exact_frac"),
    "higher": ("self_s", "calls", "dup_calls", "words", "i_edges"),
    "ingest": ("self_s", "calls", "arcs"),
    "spectral": ("self_s", "calls", "dup_calls", "iterations"),
    "structure": ("self_s", "calls", "dup_calls"),
    "sofic": ("self_s", "calls", "states"),
}

# bounds.<method>_s: inclusive time of the public function that computes it
BOUND_FUNCTIONS = {
    "independent_subshift_bound": "independent_subshift_s",
    "complete_digraph_bound": "complete_digraph_s",
    "primitive_bound": "primitive_s",
    "component_bound": "component_s",
    "sofic_bound": "sofic_s",
    "limit_sequence": "limit_sequence_s",
}


def _mis_stats(args, result):
    g = next(iter(args.values()))
    return {"vertices": g.n, "edges": len(g.edges), "exact": int(result.exact)}


# function -> extractor of counted work, called on every span of that function
EXTRACTORS = {
    "max_independent_set": _mis_stats,
    "higher_graph": lambda a, r: {"words": r.lifted.n, "i_edges": len(r.lifted.i.edges)},
    "ti_from_circle": lambda a, r: {"arcs": r.n},
    "perron_eigenvalue": lambda a, r: {"iterations": r.iterations},
    "right_resolve": lambda a, r: {"states": r.t.n},
}

UNITS = {"self_s": "s", "dup_s": "s", "exact_frac": "ratio"}

COUNT_STATS = ("calls", "dup_calls", "vertices", "edges", "exact_frac", "words", "i_edges",
               "arcs", "iterations", "states")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"{layer}.{stat}", UNITS.get(stat, "s" if stat.endswith("_s") else "count"))
           for layer, stats in LAYERS.items() for stat in stats]
    return out + [("trace.overhead_frac", "ratio"), ("trace.absent", "count")]


_unkeyed = itertools.count()


def _fingerprint(value):
    """A hashable stand-in for an argument; graphs are keyed by content.

    Graphs are reduced to hashes so that the keys hold no reference to
    the lifts; an unhashable argument makes the call unique.
    """
    t, i = getattr(value, "t", None), getattr(value, "i", None)
    if t is not None and i is not None:  # TIGraph
        return ("TIGraph", _fingerprint(t), _fingerprint(i))
    if isinstance(getattr(value, "succ", None), tuple):  # Digraph
        return ("Digraph", value.n, hash(value.succ))
    if isinstance(getattr(value, "edges", None), tuple):  # UGraph
        return ("UGraph", value.n, len(value.edges), hash(value.edges))
    try:
        hash(value)
    except TypeError:
        return ("unkeyed", next(_unkeyed))
    return value


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None  # index into Tracer.spans
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0  # wall time of child calls, wrapper time included
    entry: bool = False
    duplicate: bool = False
    stats: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.seen: set = set()
        self.layers_found: set[str] = set()
        self.functions_found: set[str] = set()
        self.broken: set[str] = set()  # functions whose statistics no longer read
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.seen.clear()

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        signature = inspect.signature(fn)
        extract = EXTRACTORS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            parent = tracer.stack[-1] if tracer.stack else None
            if parent is None:
                tracer.seen.clear()  # duplicates count within one command
            entry = parent is None or tracer.spans[parent].layer != layer
            span = Span(layer, name, parent, entry=entry)
            bound = signature.bind(*args, **kwargs)
            if entry:
                key = (name,) + tuple(
                    (k, _fingerprint(v)) for k, v in bound.arguments.items()
                )
                span.duplicate = key in tracer.seen
                tracer.seen.add(key)
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if extract is not None and result is not None:
                    try:
                        span.stats = extract(bound.arguments, result)
                    except (AttributeError, KeyError, TypeError, StopIteration):
                        tracer.broken.add(name)
                if parent is not None:
                    tracer.spans[parent].child += time.perf_counter() - t0

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap the exported functions wherever a ``tigraph`` module holds them.

        ``uninstall`` puts the originals back, so untraced passes run the
        program exactly as users do.
        """
        import tigraph
        import tigraph.cli

        targets = [getattr(tigraph, n) for n in getattr(tigraph, "__all__", ())]
        targets.append(getattr(tigraph.cli, "main", None))
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "tigraph" or k.startswith("tigraph."))]
        for fn in targets:
            if not inspect.isfunction(fn):
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            self.layers_found.add(layer)
            self.functions_found.add(fn.__name__)
            wrapper = self._wrap(fn, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def absent(self) -> list[str]:
        """Layers, and named functions whose statistics are reported, not found."""
        missing = [layer for layer in LAYERS if layer not in self.layers_found]
        wanted = list(EXTRACTORS) + list(BOUND_FUNCTIONS)
        return missing + [f for f in wanted if f not in self.functions_found or f in self.broken]

    def layer_table(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        Times are multiplied by ``scale``, which converts measured seconds
        to the caller's unit.
        """
        acc = {(layer, stat): 0.0 for layer in LAYERS for stat in LAYERS[layer]}
        exact = mis_calls = 0
        for s in self.spans:
            acc[(s.layer, "self_s")] += s.duration - s.child
            if s.entry:
                for stat, add in (("calls", 1), ("dup_calls", int(s.duplicate)),
                                  ("dup_s", s.duration if s.duplicate else 0.0)):
                    if (s.layer, stat) in acc:
                        acc[(s.layer, stat)] += add
            for stat, value in s.stats.items():
                if stat == "exact":
                    exact += value
                    mis_calls += 1
                elif (s.layer, stat) in acc:
                    acc[(s.layer, stat)] += value
            if s.layer == "bounds" and s.name in BOUND_FUNCTIONS:
                acc[("bounds", BOUND_FUNCTIONS[s.name])] += s.duration
        acc[("independence", "exact_frac")] = exact / mis_calls if mis_calls else 0.0
        return {f"{layer}.{stat}": (v if stat == "exact_frac" else int(v)) if stat in COUNT_STATS
                else v * scale for (layer, stat), v in acc.items()}


def aggregate(tables: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median of each time over passes; counts from the first pass.

    The second value is False when some count differs between passes,
    which would make a count-based claim meaningless.
    """
    first = tables[0]
    out, steady = {}, True
    for name in first:
        stat = name.split(".", 1)[1]
        if stat in COUNT_STATS:
            out[name] = first[name]
            steady &= all(t[name] == first[name] for t in tables)
        else:
            out[name] = statistics.median(t[name] for t in tables)
    return out, steady
