"""Core TI-graph types and operations.

A TI-graph is a directed transition graph T and a simple undirected
intersection graph I sharing one vertex set.  Vertices are 1-indexed in
every public interface; the bit-packed adjacency used by the fast kernels
is 0-indexed (bit j-1 of row i-1 means edge i -> j).

Each graph is stored in one form and read through one adjacency view.  T
stores its successor tuples ``succ`` and derives ``pred`` and bitset
``rows``.  I stores only its bitset rows ``adj``, whichever constructor
built it, and is refused above ``MAX_BITSET_VERTICES`` vertices before
``from_edges`` makes a row.  ``UGraph.components``, the canonical pair
tuple ``edges`` (for restriction to a vertex subset) and its row-by-row
form ``neighbors_above`` (for serialization) are derived from the rows;
``component_of`` is the one breadth-first search on them, which the exact
MIS solver also runs inside a candidate mask.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import EmptyGraphError, ParseError, SizeCapExceeded, ValidationError

Word = tuple[int, ...]

# Bit-packed neighbor rows get dense beyond this; algorithms that need them
# refuse larger graphs rather than silently allocating gigabytes.
MAX_BITSET_VERTICES = 262_144


def _check_vertex_count(n: int) -> None:
    """Refuse n < 1, and n above ``MAX_BITSET_VERTICES`` before any row is made."""
    if n < 1:
        raise ValidationError("vertex count must be >= 1")
    if n > MAX_BITSET_VERTICES:
        raise SizeCapExceeded(f"bitset adjacency unavailable for n={n}")


def component_of(adj: tuple[int, ...], seed: int, within: int) -> int:
    """Mask of the vertices of ``within`` connected to ``seed`` inside it.

    Breadth-first on the bitset rows ``adj``: a level ORs its frontier's
    rows and keeps the vertices of ``within`` not reached before.  ``seed``
    is a mask inside ``within``.
    """
    rest = within ^ seed
    frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            u = frontier.bit_length() - 1
            frontier ^= 1 << u
            nxt |= adj[u]
        frontier = nxt & rest
        rest ^= frontier
    return within ^ rest


def bits_of(mask: int) -> Iterable[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 1..n without parallel edges.

    ``succ[i-1]`` is the strictly increasing tuple of successors of vertex i.
    """

    n: int
    succ: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError("vertex count must be >= 1")
        if len(self.succ) != self.n:
            raise ValidationError("successor table length differs from n")
        for i, row in enumerate(self.succ, start=1):
            prev = 0
            for j in row:
                if not 1 <= j <= self.n:
                    raise ValidationError(f"T edge ({i},{j}): endpoint out of range 1..{self.n}")
                if j <= prev:
                    raise ValidationError(f"successors of vertex {i} not strictly increasing")
                prev = j

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Digraph":
        table: list[set[int]] = [set() for _ in range(max(n, 0))]
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValidationError(f"T edge ({i},{j}): endpoint out of range 1..{n}")
            table[i - 1].add(j)
        return cls(n, tuple(tuple(sorted(row)) for row in table))

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Bit-packed adjacency rows (bit j-1 of rows[i-1] iff edge i->j)."""
        return tuple(sum(1 << (j - 1) for j in row) for row in self.succ)

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Bit-packed predecessor rows (bit i-1 of cols[j-1] iff edge i->j)."""
        return tuple(sum(1 << (i - 1) for i in p) for p in self.pred)

    @cached_property
    def pred(self) -> tuple[tuple[int, ...], ...]:
        table: list[list[int]] = [[] for _ in range(self.n)]
        for i, row in enumerate(self.succ, start=1):
            for j in row:
                table[j - 1].append(i)
        return tuple(tuple(p) for p in table)

    @cached_property
    def structure(self):
        """The ``analyze_structure`` report (SCCs, periods, gammas), computed once."""
        from .structure import analyze_structure

        return analyze_structure(self)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.succ, start=1) for j in row]

    def num_edges(self) -> int:
        return sum(len(row) for row in self.succ)

    def is_pruned(self) -> bool:
        return all(self.succ[v] for v in range(self.n)) and all(self.pred[v] for v in range(self.n))


@dataclass(frozen=True)
class UGraph:
    """Simple undirected graph on vertices 1..n, stored as bitset rows.

    Bit j-1 of ``adj[i-1]`` is set iff i and j are adjacent.  Rows carry no
    diagonal bit and no bit at or above n; their symmetry is the caller's to
    keep.  The canonical pair tuple ``edges`` is derived from the rows on
    first access and cached.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise ValidationError("I row count differs from n")
        for i, row in enumerate(self.adj):
            if row >> self.n:
                raise ValidationError(f"I row {i + 1}: neighbor out of range 1..{self.n}")
            if row >> i & 1:
                raise ValidationError(f"I edge ({i + 1},{i + 1}): self-loops are not allowed")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "UGraph":
        _check_vertex_count(n)
        rows = [0] * n
        for i, j in pairs:
            if i == j:
                raise ValidationError(f"I edge ({i},{j}): self-loops are not allowed")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValidationError(f"I edge ({i},{j}): endpoint out of range 1..{n}")
            rows[i - 1] |= 1 << (j - 1)
            rows[j - 1] |= 1 << (i - 1)
        return cls(n, tuple(rows))

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "UGraph":
        """Graph whose bit-packed neighbor rows are ``rows`` (0-indexed bits)."""
        rows = tuple(rows)
        return cls(len(rows), rows)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical pairs (i, j), i < j, in sorted order."""
        return tuple((i, j) for i, above in enumerate(self.neighbors_above(), start=1) for j in above)

    def neighbors_above(self) -> Iterator[list[int]]:
        """Row by row, each vertex's neighbors j > i, ascending: ``edges`` a row at a time."""
        for i, row in enumerate(self.adj, start=1):
            yield [i + 1 + j for j in bits_of(row >> i)]

    @cached_property
    def components(self) -> tuple[int, ...]:
        """Vertex masks of the connected components, in order of lowest vertex."""
        comps = []
        rest = (1 << self.n) - 1
        while rest:
            comp = component_of(self.adj, rest & -rest, rest)
            rest ^= comp
            comps.append(comp)
        return tuple(comps)

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


@dataclass(frozen=True)
class TIGraph:
    """Transition graph T and intersection graph I on a shared vertex set."""

    t: Digraph
    i: UGraph

    def __post_init__(self) -> None:
        if self.t.n != self.i.n:
            raise ValidationError(f"T has {self.t.n} vertices but I has {self.i.n}")

    @property
    def n(self) -> int:
        return self.t.n


def _as_pair_list(value, key: str) -> list[tuple[int, int]]:
    if not isinstance(value, list):
        raise ParseError(f"field {key!r} must be a list of [i,j] pairs")
    out = []
    for k, item in enumerate(value):
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise ParseError(f"field {key!r}, entry {k}: expected a pair of integers")
        out.append((item[0], item[1]))
    return out


def parse_tigraph(data: str | bytes, fmt: str = "json") -> TIGraph:
    """Parse a TI-graph from JSON or line-oriented text.

    JSON: ``{"n": int, "t_edges": [[i,j],...], "i_edges": [[i,j],...]}``.
    Text: first line ``n=<int>``, then ``T i j`` / ``I i j`` lines; ``#``
    starts a comment.  Raises ParseError for malformed input and
    ValidationError for invariant breaches (self-loops in I, out-of-range
    indices, n < 1).  Raises SizeCapExceeded, before any row is made, when
    n exceeds ``MAX_BITSET_VERTICES``.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if fmt == "json":
        n, t_edges, i_edges = _parse_json(data)
    elif fmt == "text":
        n, t_edges, i_edges = _parse_text(data)
    else:
        raise ParseError(f"unknown format {fmt!r} (expected 'json' or 'text')")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("field 'n' must be an integer")
    if n < 1:
        raise ValidationError("n must be >= 1")
    _check_vertex_count(n)
    return TIGraph(Digraph.from_edges(n, t_edges), UGraph.from_edges(n, i_edges))


def _parse_json(data: str):
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:  # malformed, nested too deep or int too long
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("n", "t_edges", "i_edges"):
        if key not in obj:
            raise ParseError(f"missing required field {key!r}")
    return obj["n"], _as_pair_list(obj["t_edges"], "t_edges"), _as_pair_list(obj["i_edges"], "i_edges")


def _parse_text(data: str):
    n = None
    t_edges: list[tuple[int, int]] = []
    i_edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise ParseError(f"line {lineno}: expected 'n=<int>' header")
            try:
                n = int(line[2:])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad vertex count {line[2:]!r}") from exc
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("T", "I"):
            raise ParseError(f"line {lineno}: expected 'T i j' or 'I i j'")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer endpoint") from exc
        (t_edges if parts[0] == "T" else i_edges).append((i, j))
    if n is None:
        raise ParseError("missing 'n=<int>' header line")
    return n, t_edges, i_edges


def serialize_tigraph(g: TIGraph) -> str:
    """Canonical compact JSON; parse(serialize(g)) reproduces g field for field."""
    return "".join(tigraph_json_pieces(g))


def tigraph_json_pieces(g: TIGraph, vertex_words: Iterable[Word] | None = None) -> Iterator[str]:
    """The canonical compact JSON of g in pieces, one per row of T and of I.

    With ``vertex_words`` (the ``higher`` dump) a "vertex_words" key follows,
    one piece per word.  Written as they come, the pieces never hold a
    graph's edges as pairs.
    """
    yield f'{{"n":{g.n},"t_edges":'
    yield from _json_pairs(g.t.succ)
    yield ',"i_edges":'
    yield from _json_pairs(g.i.neighbors_above())
    if vertex_words is not None:
        sep = ',"vertex_words":['
        for w in vertex_words:
            yield sep + "[" + ",".join(map(str, w)) + "]"
            sep = ","
        yield "]" if sep == "," else sep + "]"
    yield "}"


def _json_pairs(rows: Iterable[Iterable[int]]) -> Iterator[str]:
    """The JSON array of the pairs [i, j], j in row i (1-based), a piece per nonempty row."""
    sep = "["
    for i, row in enumerate(rows, start=1):
        if row:
            yield f"{sep}[{i}," + f"],[{i},".join(map(str, row)) + "]"
            sep = ","
    yield "]" if sep == "," else "[]"


def prune_digraph(d: Digraph) -> tuple[Digraph, dict[int, int]]:
    """Iteratively delete vertices with in- or out-degree 0.

    Returns the pruned digraph and the old->new index map for survivors.
    Raises EmptyGraphError if nothing survives.
    """
    alive = set(range(1, d.n + 1))
    out_deg = {v: len(d.succ[v - 1]) for v in alive}
    in_deg = {v: len(d.pred[v - 1]) for v in alive}
    queue = [v for v in alive if out_deg[v] == 0 or in_deg[v] == 0]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.remove(v)
        for u in d.pred[v - 1]:
            if u in alive:
                out_deg[u] -= 1
                if out_deg[u] == 0:
                    queue.append(u)
        for w in d.succ[v - 1]:
            if w in alive:
                in_deg[w] -= 1
                if in_deg[w] == 0:
                    queue.append(w)
    if not alive:
        raise EmptyGraphError("pruning removed every vertex")
    return induced_digraph(d, alive)


def prune_stranded(g: TIGraph) -> tuple[TIGraph, dict[int, int]]:
    """Remove vertices that cannot lie on an infinite vertex path.

    Deletes T-stranded vertices (and their I-edges) until the degree
    invariant holds.  Returns the pruned TI-graph plus the old->new index
    map; raises EmptyGraphError when everything is stranded.
    """
    return induced_subgraph(g, prune_digraph(g.t)[1])


def require_pruned(t: Digraph) -> None:
    """Refuse a T with a vertex that has no successor or no predecessor."""
    if not t.is_pruned():
        raise ValidationError("graph must be pruned first (use prune_stranded)")


def induced_digraph(t: Digraph, vertices: Iterable[int]) -> tuple[Digraph, dict[int, int]]:
    """Restrict T to ``vertices`` and reindex them in ascending order.

    Keeps exactly the edges with both endpoints inside the set.  Returns the
    subgraph and the old->new index map.
    """
    v_set = set(vertices)
    if not v_set:
        raise ValidationError("vertex subset must be nonempty")
    for v in v_set:
        if not 1 <= v <= t.n:
            raise ValidationError(f"vertex {v} out of range 1..{t.n}")
    index_map = {old: new for new, old in enumerate(sorted(v_set), start=1)}
    succ = tuple(
        tuple(index_map[j] for j in t.succ[old - 1] if j in index_map) for old in index_map
    )
    return Digraph(len(index_map), succ), index_map


def induced_subgraph(g: TIGraph, vertices: Iterable[int]) -> tuple[TIGraph, dict[int, int]]:
    """Restrict both T and I to ``vertices`` and reindex.

    Keeps exactly the edges with both endpoints inside the set.  Returns the
    subgraph and the old->new index map.
    """
    t, index_map = induced_digraph(g.t, vertices)
    i_edges = [
        (index_map[a], index_map[b]) for a, b in g.i.edges if a in index_map and b in index_map
    ]
    return TIGraph(t, UGraph.from_edges(t.n, i_edges)), index_map


def export_dot(g: TIGraph, node_labels: dict[int, str] | None = None) -> str:
    """Render as one Graphviz digraph: T-edges solid, I-edges dashed segments.

    Output is deterministic: vertices ascending, then T-edges, then I-edges.
    """
    lines = ["digraph tigraph {"]
    for v in range(1, g.n + 1):
        if node_labels and v in node_labels:
            lines.append(f'  {v} [label="{node_labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for i, j in g.t.edges():
        lines.append(f"  {i} -> {j};")
    for a, b in g.i.edges:
        lines.append(f"  {a} -> {b} [style=dashed, dir=none, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def is_vertex_path(t: Digraph, word: Word) -> bool:
    """True iff consecutive symbols of ``word`` are joined by T-edges."""
    if not word:
        return False
    if any(not 1 <= v <= t.n for v in word):
        return False
    return all(b in t.succ[a - 1] for a, b in zip(word, word[1:]))
