"""Core TI-graph types and operations.

A TI-graph is a directed transition graph T and a simple undirected
intersection graph I sharing one vertex set.  Vertices are 1-indexed in
every public interface; the bit-packed adjacency used by the fast kernels
is 0-indexed (bit j-1 of row i-1 means edge i -> j).

Each graph is stored in one form and read through one adjacency view.  T
stores its successor tuples ``succ`` and derives ``pred`` and bitset
``rows``.  I stores only its bitset rows ``adj``, whichever constructor
built it, and is refused above ``MAX_BITSET_VERTICES`` vertices before
``from_edges`` makes a row.  ``UGraph.components`` and ``neighbors_above``
(each vertex's higher neighbours, row by row, for serialization) are
derived from the rows; ``component_of`` is the one breadth-first search on
them, which the exact MIS solver also runs inside a candidate mask,
``UGraph.is_clique`` is the one test that a vertex mask is a clique of I,
and ``restrict_rows`` is the one restriction of rows to a vertex subset.
The canonical pair tuple ``edges`` is kept for callers outside the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
    rows and keeps the vertices of ``within`` not reached before.  It stops
    once every vertex of ``within`` is reached, so a last frontier that can
    add nothing is never expanded.  ``seed`` is a mask inside ``within``.
    """
    rest = within ^ seed
    frontier = seed
    while frontier and rest:
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


def restrict_rows(rows: Sequence[int], vertices: Sequence[int]) -> list[int]:
    """Bitset rows of the subgraph on ``vertices``, renumbered 1..k in their order.

    ``vertices`` ascend, 1-based: bit j-1 of ``rows[i-1]`` is the edge i -> j.
    The k-th vertex's row keeps the bits of the subset, each moved to the
    position of its vertex in ``vertices``.  A prefix 1..k keeps its numbers.
    """
    k = len(vertices)
    if not k or vertices[-1] == k:
        mask = (1 << k) - 1
        return [rows[v - 1] & mask for v in vertices]
    mask = sum(1 << (v - 1) for v in vertices)
    new_bit = {v - 1: 1 << pos for pos, v in enumerate(vertices)}
    return [sum(new_bit[b] for b in bits_of(rows[v - 1] & mask)) for v in vertices]


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
    first access and cached; the package itself reads rows only.
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

    def is_clique(self, mask: int) -> bool:
        """True iff the vertices of ``mask`` (bit v-1 for vertex v) are pairwise adjacent."""
        adj = self.adj
        return all(mask & (adj[v] | 1 << v) == mask for v in bits_of(mask))


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


def essential_vertices(t: Digraph) -> list[int]:
    """The vertices of T's essential graph, ascending.

    Iteratively deletes vertices with in- or out-degree 0; the survivors are
    the vertices on a bi-infinite path.  Raises EmptyGraphError if nothing
    survives.
    """
    out_deg = [len(row) for row in t.succ]
    in_deg = [len(row) for row in t.pred]
    dead = [not (o and i) for o, i in zip(out_deg, in_deg)]
    queue = [v for v in range(1, t.n + 1) if dead[v - 1]]
    while queue:
        v = queue.pop()
        # v's predecessors lose an out-edge, its successors an in-edge
        for deg, nbrs in ((out_deg, t.pred[v - 1]), (in_deg, t.succ[v - 1])):
            for u in nbrs:
                deg[u - 1] -= 1
                if not deg[u - 1] and not dead[u - 1]:
                    dead[u - 1] = True
                    queue.append(u)
    survivors = [v for v in range(1, t.n + 1) if not dead[v - 1]]
    if not survivors:
        raise EmptyGraphError("pruning removed every vertex")
    return survivors


def prune_stranded(g: TIGraph) -> tuple[TIGraph, dict[int, int]]:
    """Remove vertices that cannot lie on an infinite vertex path.

    Deletes T-stranded vertices (and their I-edges) until the degree
    invariant holds.  Returns the pruned TI-graph plus the old->new index
    map; raises EmptyGraphError when everything is stranded.
    """
    return induced_subgraph(g, essential_vertices(g.t))


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
    return TIGraph(t, UGraph.from_rows(restrict_rows(g.i.adj, list(index_map)))), index_map


def export_dot(g: TIGraph, node_labels: dict[int, str] | None = None) -> str:
    """Render as one Graphviz digraph: T-edges solid, I-edges dashed segments.

    Output is deterministic: vertices ascending, then T-edges, then I-edges.
    """
    return "".join(dot_pieces(g, node_labels))


def dot_pieces(g: TIGraph, node_labels: dict[int, str] | None = None) -> Iterator[str]:
    """``export_dot``'s text in pieces, one per vertex and per row of T and of I."""
    yield "digraph tigraph {\n"
    labels = node_labels or {}
    for v in range(1, g.n + 1):
        yield f'  {v} [label="{labels[v]}"];\n' if v in labels else f"  {v};\n"
    for i, row in enumerate(g.t.succ, start=1):
        yield "".join(f"  {i} -> {j};\n" for j in row)
    for a, above in enumerate(g.i.neighbors_above(), start=1):
        yield "".join(f"  {a} -> {b} [style=dashed, dir=none, constraint=false];\n" for b in above)
    yield "}\n"


def is_vertex_path(t: Digraph, word: Word) -> bool:
    """True iff consecutive symbols of ``word`` are joined by T-edges."""
    if not word:
        return False
    if any(not 1 <= v <= t.n for v in word):
        return False
    return all(b in t.succ[a - 1] for a, b in zip(word, word[1:]))
