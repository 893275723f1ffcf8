"""Higher vertex graphs: lift a TI-graph to words of a fixed length.

The m-th higher vertex graph has one vertex per length-m vertex path of T;
two word-vertices are joined in the lifted T when the second word extends
the first by one step (overlap in m-1 symbols), and in the lifted I when the
words are indistinguishable: at every position the symbols are equal or
I-adjacent.  Lifted vertices are ordered lexicographically by their words.

The lifted T is built as successor tuples straight from the word index.
The lifted I is built as bitset rows: one mask per (position, symbol) of
the words whose symbol there is I-compatible with it, and each word's row
is the AND of its m masks, so a lift costs O(words * m) ANDs of words-bit
integers.  The lifted ``UGraph`` stores these rows and nothing else, as
every ``UGraph`` does; its ``edges`` tuple is derived only if something
reads it, which the report path does not.  A lift is refused with
``SizeCapExceeded`` above ``size_cap`` or ``MAX_BITSET_VERTICES`` words,
whichever is smaller, before any word is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterator

from .errors import LengthMismatchError, SizeCapExceeded, ValidationError
from .graph import MAX_BITSET_VERTICES, Digraph, TIGraph, UGraph, Word, bits_of

DEFAULT_SIZE_CAP = 2_000_000


@dataclass(frozen=True)
class HigherGraph:
    m: int
    lifted: TIGraph
    vertex_words: tuple[Word, ...]


def words_indistinguishable(g: TIGraph, a: Word, b: Word) -> bool:
    """True iff at every position the symbols are equal or I-adjacent.

    Equal symbols count as indistinguishable (a symbol always overlaps
    itself), so every word is indistinguishable from itself.
    """
    if len(a) != len(b):
        raise LengthMismatchError(f"word lengths differ: {len(a)} vs {len(b)}")
    adj = g.i.adj
    return all(x == y or adj[x - 1] >> (y - 1) & 1 for x, y in zip(a, b))


def _path_totals(t: Digraph, m: int) -> Iterator[int]:
    """Number of vertex paths of T of length k, for k = 1..m in turn."""
    counts = [1] * t.n
    yield t.n
    for _ in range(m - 1):
        counts = [sum(counts[j - 1] for j in row) for row in t.succ]
        yield sum(counts)


def count_paths(t: Digraph, m: int) -> int:
    """Number of vertex paths of length m (m vertices, m-1 edge steps)."""
    if m < 1:
        raise ValidationError("m must be >= 1")
    for total in _path_totals(t, m):
        pass
    return total


def _enumerate_words(t: Digraph, m: int) -> list[Word]:
    """Length-m paths of T in lexicographic order: one shared path, one tuple per word."""
    words: list[Word] = []
    succ = t.succ
    path = [0] * m
    stack = [iter(range(1, t.n + 1))]
    while stack:
        depth = len(stack) - 1
        for v in stack[-1]:
            path[depth] = v
            if depth == m - 1:
                words.append(tuple(path))
            else:
                stack.append(iter(succ[v - 1]))
                break
        else:
            stack.pop()
    return words


def _capped_words(t: Digraph, m: int, size_cap: int) -> list[Word]:
    """The length-m words of T in lexicographic order, counted before made.

    Raises SizeCapExceeded when there are more than ``size_cap`` or
    ``MAX_BITSET_VERTICES`` of them, whichever is smaller.  When every
    vertex has a successor each path extends, so the count never falls as
    the length grows, and counting stops once it passes the cap.  With a
    sink the count runs to length m.
    """
    cap = min(size_cap, MAX_BITSET_VERTICES)
    growing = all(t.succ)
    for total in _path_totals(t, m):
        if growing and total > cap:
            break
    if total > cap:
        raise SizeCapExceeded(f"more than {cap} words of length {m}")
    return _enumerate_words(t, m)


def higher_graph(g: TIGraph, m: int, size_cap: int = DEFAULT_SIZE_CAP) -> HigherGraph:
    """Build the m-th higher vertex graph of g.

    Raises SizeCapExceeded before enumeration when the path count at length
    m exceeds ``size_cap`` or ``MAX_BITSET_VERTICES``.  For m = 1 the lift
    is an isomorphic copy of g.
    """
    if m < 1:
        raise ValidationError("m must be >= 1")
    words = _capped_words(g.t, m, size_cap)  # already lexicographic
    index = {w: k for k, w in enumerate(words)}
    succ_base = g.t.succ
    # the words are lexicographic and succ_base rows increase, so each
    # successor tuple comes out strictly increasing, as Digraph requires
    t_graph = Digraph(
        len(words),
        tuple(tuple(index[w[1:] + (s,)] + 1 for s in succ_base[w[-1] - 1]) for w in words),
    )
    i_graph = UGraph.from_rows(_i_rows(g, words))
    return HigherGraph(m, TIGraph(t_graph, i_graph), tuple(words))


def _i_rows(g: TIGraph, words: list[Word]) -> list[int]:
    """Lifted I as bitset rows; bit j of row k marks words[j] ~ words[k], j != k."""
    m = len(words[0])
    at = [[0] * (g.n + 1) for _ in range(m)]  # at[pos][s]: words with symbol s at pos
    for k, w in enumerate(words):
        bit = 1 << k
        for pos, s in enumerate(w):
            at[pos][s] |= bit
    # closed[s]: symbol s and its I-neighbours, bit t-1 for symbol t
    closed = [0] + [a | 1 << s for s, a in enumerate(g.i.adj)]
    masks = [[reduce(or_, (col[t + 1] for t in bits_of(c)), 0) for c in closed] for col in at]
    rows = []
    for k, w in enumerate(words):
        row = masks[0][w[0]]
        for pos in range(1, m):
            row &= masks[pos][w[pos]]
        rows.append(row ^ (1 << k))
    return rows

