"""Higher vertex graphs: lift a TI-graph to words of a fixed length.

The m-th higher vertex graph has one vertex per length-m vertex path of T;
two word-vertices are joined in the lifted T when the second word extends
the first by one step (overlap in m-1 symbols), and in the lifted I when the
words are indistinguishable: at every position the symbols are equal or
I-adjacent.  Lifted vertices are ordered lexicographically by their words.

T must be pruned, as for every bound; ``higher_graph`` refuses any other T
rather than prune it.  So every prefix extends to a word, and the children
of a prefix ending in v are the successors of v.

``higher_graph`` builds the lifted I and nothing else: one walk down the
tree of word prefixes, level j holding the length-j prefixes as flat int
lists, and only two levels held at a time.  The words under a node form one
contiguous index range, as long as the paths of the remaining length from
its last symbol, which the cap check counts anyway.  The lifted I is built
as bitset rows: a node's row is its parent's ANDed with the words whose
symbol at the node's level is equal or I-adjacent to its own, one AND of
words-bit integers per tree node.  The lifted ``UGraph`` stores these rows
and nothing else, as every ``UGraph`` does; its ``edges`` tuple is derived
only if something reads it, which the report path does not.

The lifted T and the words are built on first read of ``HigherGraph.lifted``
and ``HigherGraph.vertex_words``, from the base graph, and then cached; the
report path reads the words of one lift only and the lifted T of none.  The
words come from the same walk, ``_levels``, the one walk of the word-prefix
tree: level j, each node repeated once per word under it, is the column of
the words' j-th symbols.  The lifted T is read off the words: the words
extending w are those whose first m-1 symbols are w's last m-1, one run in
lexicographic order as long as the successor list of w's last symbol.  A
lift is refused with ``SizeCapExceeded`` above ``size_cap`` or
``MAX_BITSET_VERTICES`` words, whichever is smaller, before any word or
tree level is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator

from .errors import LengthMismatchError, SizeCapExceeded, ValidationError
from .graph import MAX_BITSET_VERTICES, Digraph, TIGraph, UGraph, Word, bits_of, require_pruned

DEFAULT_SIZE_CAP = 2_000_000


@dataclass(frozen=True)
class HigherGraph:
    """The m-th higher vertex graph of ``base``, a TI-graph with pruned T.

    ``i`` is the lifted I, built by ``higher_graph``.  ``vertex_words``
    (the words, in vertex order) is built from ``base`` on first read, and
    ``lifted`` (the lifted T, read off the words, with ``i``) from those;
    both are cached.
    """

    base: TIGraph
    m: int
    i: UGraph

    @cached_property
    def lifted(self) -> TIGraph:
        return TIGraph(Digraph(self.i.n, _lift_succ(self.base.t, self.vertex_words)), self.i)

    @cached_property
    def vertex_words(self) -> tuple[Word, ...]:
        return tuple(_enumerate_words(self.base.t, self.m))  # already lexicographic


def words_indistinguishable(g: TIGraph, a: Word, b: Word) -> bool:
    """True iff at every position the symbols are equal or I-adjacent.

    Equal symbols count as indistinguishable (a symbol always overlaps
    itself), so every word is indistinguishable from itself.  Raises
    ValidationError for a symbol outside 1..n.
    """
    if len(a) != len(b):
        raise LengthMismatchError(f"word lengths differ: {len(a)} vs {len(b)}")
    if not all(0 < x <= g.n for x in (*a, *b)):
        raise ValidationError(f"word symbol out of range 1..{g.n}")
    adj = g.i.adj
    return all(x == y or adj[x - 1] >> (y - 1) & 1 for x, y in zip(a, b))


def _path_counts(t: Digraph, m: int) -> Iterator[list[int]]:
    """Per-vertex counts of the vertex paths of T of length k that start there, k = 1..m."""
    counts = [1] * t.n
    yield counts
    for _ in range(m - 1):
        counts = [sum(counts[j - 1] for j in row) for row in t.succ]
        yield counts


def count_paths(t: Digraph, m: int) -> int:
    """Number of vertex paths of length m (m vertices, m-1 edge steps)."""
    if m < 1:
        raise ValidationError("m must be >= 1")
    for counts in _path_counts(t, m):
        pass
    return sum(counts)


def _enumerate_words(t: Digraph, m: int) -> list[Word]:
    """Length-m paths of T in lexicographic order, read off the word-prefix tree.

    Level j of ``_levels`` gives every word's j-th symbol: a node ending in
    v stands for the words under it, one contiguous run as long as the paths
    of m-j+1 vertices from v, so the column repeats v that often.  The words
    are the rows of the m columns; a prefix is never copied, so the cost is
    linear in m.
    """
    spans = list(_path_counts(t, m))
    columns = []
    for j, (last, _) in enumerate(_levels(t, m), start=1):
        if j < m:  # a leaf is its own word, so the last column is the leaves
            runs = [()] + [(v,) * c for v, c in enumerate(spans[m - j], start=1)]
            last = list(chain.from_iterable(map(runs.__getitem__, last)))
        columns.append(last)
    return list(zip(*columns))


def _capped_counts(t: Digraph, m: int, size_cap: int) -> list[list[int]]:
    """Per-vertex path counts at lengths 1..m, checked against the cap before any word is made.

    ``counts[k][v-1]`` is the number of paths of k+1 vertices from v.
    Raises SizeCapExceeded when there are more than ``size_cap`` or
    ``MAX_BITSET_VERTICES`` words of length m, whichever is smaller.  T is
    pruned, so every path extends and the count never falls as the length
    grows: counting stops once it passes the cap.
    """
    cap = min(size_cap, MAX_BITSET_VERTICES)
    kept = []
    for counts in _path_counts(t, m):
        if sum(counts) > cap:
            raise SizeCapExceeded(f"more than {cap} words of length {m}")
        kept.append(counts)
    return kept


def higher_graph(g: TIGraph, m: int, size_cap: int = DEFAULT_SIZE_CAP) -> HigherGraph:
    """The m-th higher vertex graph of g, whose T must be pruned, with its lifted I built.

    Raises ValidationError for an unpruned T, and SizeCapExceeded before
    enumeration when more than ``size_cap`` or ``MAX_BITSET_VERTICES`` words
    have length m.  The lifted T and the words are built only when read.
    The lift is pruned too; for m = 1 it is a copy of g.
    """
    require_pruned(g.t)
    if m < 1:
        raise ValidationError("m must be >= 1")
    counts = _capped_counts(g.t, m, size_cap)
    return HigherGraph(g, m, UGraph.from_rows(_lift_rows(g, counts)))


def _levels(t: Digraph, m: int) -> Iterator[tuple[list[int], list[tuple[int, ...]]]]:
    """The word-prefix tree of T, level by level: (last, kids) for levels 1..m.

    ``last`` lists, in lexicographic order, the last symbol of each
    length-j prefix; ``kids[p]`` lists the last symbols of the children of
    node p of level j-1 (``kids`` is empty at level 1).  The children of a
    node ending in v are ``succ[v-1]``, in order; where T is not pruned, a
    prefix ending in a vertex without successors has none.
    """
    succ = t.succ
    last = list(range(1, t.n + 1))
    kids: list[tuple[int, ...]] = []
    yield last, kids
    for _ in range(m - 1):
        kids = [succ[v - 1] for v in last]
        last = list(chain.from_iterable(kids))
        yield last, kids


def _lift_rows(g: TIGraph, counts: list[list[int]]) -> list[int]:
    """Lifted I rows, one AND per node of the word-prefix tree.

    Row k of level j has bit i set for every word i that is
    indistinguishable from node k in the first j positions, so at level m it
    is word k's lifted I row plus bit k.
    """
    m = len(counts)
    # near[s]: the symbols equal or I-adjacent to s
    near = [()] + [tuple(bits_of(a << 1 | 2 << s)) for s, a in enumerate(g.i.adj)]
    rows: list[int] = []
    for j, (last, kids) in enumerate(_levels(g.t, m), start=1):
        # a level-j node ending in v has the counts[m-j][v-1] words of one
        # contiguous range under it
        masks = _level_masks(last, counts[m - j], near)
        if j == 1:
            rows = [masks[v] for v in last]
            continue
        nxt_rows = []
        for p, row in enumerate(rows):
            rows[p] = None  # freed as its children's rows are made
            for s in kids[p]:
                nxt_rows.append(row & masks[s])
        rows = nxt_rows
    for k in range(len(rows)):
        rows[k] ^= 1 << k
    return rows


def _lift_succ(t: Digraph, words: tuple[Word, ...]) -> tuple[tuple[int, ...], ...]:
    """Lifted T successor tuples, read off the lexicographically ordered words.

    The successors of word w are the words with prefix w[1:]: one run of
    indices, from the first word with that prefix, as long as the successor
    list of that prefix's last symbol.  Words sharing that prefix share one
    tuple.
    """
    if len(words[0]) == 1:
        return t.succ
    succ = t.succ
    runs: dict[Word, tuple[int, ...]] = {}  # (m-1)-prefix -> the 1-based indices of its words
    for k, w in enumerate(words, start=1):
        prefix = w[:-1]
        if prefix not in runs:
            runs[prefix] = tuple(range(k, k + len(succ[w[-2] - 1])))
    # tuple() of a list: one of a generator resizes a guessed size, which
    # grows CPython's free lists of small tuples with every lift
    return tuple([runs[w[1:]] for w in words])


def _level_masks(last: list[int], span: list[int], near: list[tuple[int, ...]]) -> list[int]:
    """masks[s]: the words under the level's nodes whose symbol is equal or I-adjacent to s."""
    col = [0] * len(near)  # col[s]: the words under the level's nodes ending in s
    lo = 0
    for s in last:
        size = span[s - 1]
        col[s] |= ((1 << size) - 1) << lo
        lo += size
    # the columns are disjoint, so their sum is their union
    return [sum(map(col.__getitem__, ts)) for ts in near]
