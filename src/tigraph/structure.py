"""Irreducible decomposition, periods, cyclic classes, primitivity index and its lift.

``analyze_structure`` splits each SCC of period p into its p cyclic classes
and keeps one flat table, ``StructureReport.classes``, of (SCC index,
period, class vertices, gamma).  A class's gamma is read off the SCC's p-th
boolean power restricted to the class.  One routine, ``_gamma``, searches
for the least all-positive power of bit-packed rows, for the classes only.
Every other reader of gamma, ``primitivity_index`` and the lifted index
gamma(T_[m]) = gamma(T) - 1 + m included, goes through
``StructureReport.gamma``, which reads the cached analysis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

from .errors import NotPrimitiveError, SizeCapExceeded
from .graph import Digraph, restrict_rows

# Direct primitivity search needs n^2-bit scratch matrices; refuse beyond this.
MAX_PRIMITIVITY_VERTICES = 16_384


def wielandt_cap(n: int) -> int:
    """Largest possible primitivity index of a primitive graph on n vertices."""
    return n * n - 2 * n + 2


def scc_decompose(t: Digraph) -> list[tuple[int, ...]]:
    """Strongly connected components, topologically ordered.

    The condensation order is made canonical by breaking ties toward the
    component containing the smallest vertex; vertices inside each component
    are sorted ascending.
    """
    comps = _tarjan(t.n, t.succ)
    comp_of = {}
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    out_edges: list[set[int]] = [set() for _ in comps]
    in_deg = [0] * len(comps)
    for i, row in enumerate(t.succ, start=1):
        for j in row:
            a, b = comp_of[i], comp_of[j]
            if a != b and b not in out_edges[a]:
                out_edges[a].add(b)
                in_deg[b] += 1
    heap = [(min(comp), k) for k, comp in enumerate(comps) if in_deg[k] == 0]
    heapq.heapify(heap)
    order: list[tuple[int, ...]] = []
    while heap:
        _, k = heapq.heappop(heap)
        order.append(tuple(sorted(comps[k])))
        for b in out_edges[k]:
            in_deg[b] -= 1
            if in_deg[b] == 0:
                heapq.heappush(heap, (min(comps[b]), b))
    return order


def _tarjan(n: int, succ: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    index = [0] * (n + 1)  # 0 = unvisited
    low = [0] * (n + 1)
    on_stack = [False] * (n + 1)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 1
    for root in range(1, n + 1):
        if index[root]:
            continue
        work = [(root, iter(succ[root - 1]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w - 1])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _cyclic_classes(t: Digraph, comp: tuple[int, ...]) -> list[tuple[tuple[int, ...], list[int]]]:
    """Split an SCC of T that holds a cycle into its p cyclic classes.

    ``comp`` is an ascending SCC from ``scc_decompose``.  The period is the
    gcd of level(u) + 1 - level(w) over the SCC's edges, with levels from a
    BFS from its smallest vertex.  Returns, for each class in cyclic order
    starting at the class of the smallest vertex, the class vertex tuple and
    its p-step rows: the length-p paths of T that stay inside the SCC,
    bit-packed onto the class's own vertices in ascending order.
    """
    members = set(comp)
    root = comp[0]
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in t.succ[u - 1]:
                if w in members and w not in level:
                    level[w] = level[u] + 1
                    nxt.append(w)
        frontier = nxt
    p = 0
    for u in comp:
        for w in t.succ[u - 1]:
            if w in members:
                p = gcd(p, level[u] + 1 - level[w])

    # comp is sorted, so each class is too
    classes: list[list[int]] = [[] for _ in range(p)]
    for v in comp:
        classes[level[v] % p].append(v)

    # p-th boolean power of T's rows cut to the SCC, then cut to each class
    power = _bool_power(restrict_rows(t.rows, comp), p)
    local = {v: k for k, v in enumerate(comp, start=1)}
    return [(tuple(cls), restrict_rows(power, [local[v] for v in cls])) for cls in classes]


def _bool_mul(a: list[int] | tuple[int, ...], b: list[int] | tuple[int, ...]) -> list[int]:
    """Boolean matrix product on bit-packed rows: out[i] = OR of b[j] for j in a[i].

    The cost is one OR per set bit of ``a``, so a power is stepped as
    A^(k+1) = A * A^k with the sparse adjacency rows on the left: one OR per
    edge, where A^k * A would walk every bit of an already dense power.
    """
    out = []
    for ra in a:
        acc = 0
        m = ra
        while m:
            low = m & -m
            acc |= b[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return out


def _bool_power(rows: list[int], p: int) -> list[int]:
    """The p-th boolean power of the bit-packed adjacency rows, for p >= 1.

    Walks the bits of p from the top: each bit doubles the exponent k, and a
    set bit then steps it once.  Doubling by squaring costs one OR per set
    bit of A^k, doubling by k steps A * A^j costs k ORs per edge, and the
    cheaper is taken: a sparse power such as a long cycle's is squared, a
    dense one of a small period is stepped.
    """
    edges = sum(r.bit_count() for r in rows)
    power, k = rows, 1
    for bit in bin(p)[3:]:
        if sum(r.bit_count() for r in power) < k * edges:
            power = _bool_mul(power, power)
        else:
            for _ in range(k):
                power = _bool_mul(rows, power)
        k *= 2
        if bit == "1":
            power = _bool_mul(rows, power)
            k += 1
    return power


def _check_search_size(n: int) -> None:
    if n > MAX_PRIMITIVITY_VERTICES:
        raise SizeCapExceeded(f"primitivity search unavailable for n={n}")


def _gamma(rows: list[int]) -> int:
    """Least k with the k-th boolean power of the bit-packed rows all-positive.

    Run on a cyclic class's p-step graph, which is primitive.  Searches
    incrementally up to the Wielandt bound n^2 - 2n + 2 and, as a guard,
    raises NotPrimitiveError beyond it.  Each step is A^(k+1) = A * A^k, one
    OR per edge of the graph.
    """
    n = len(rows)
    _check_search_size(n)
    cap = wielandt_cap(n)
    full = (1 << n) - 1
    power = rows
    k = 1
    while k <= cap:
        if all(r == full for r in power):
            return k
        power = _bool_mul(rows, power)
        k += 1
    raise NotPrimitiveError(f"no all-positive power up to the Wielandt bound {cap}")


def primitivity_index(t: Digraph) -> int:
    """Least k with the k-th boolean power of the adjacency matrix all-positive.

    Read from the cached analysis ``t.structure``, so no power is searched
    here.  Raises NotPrimitiveError when T is not primitive (more than one
    SCC, or a period > 1): then no power up to the Wielandt bound is
    all-positive.
    """
    if not t.structure.primitive:
        cap = wielandt_cap(t.n)
        raise NotPrimitiveError(f"no all-positive power up to the Wielandt bound {cap}")
    return t.structure.gamma()


@dataclass(frozen=True)
class StructureReport:
    """Per-SCC decomposition data and one table of cyclic classes.

    ``periods[k]`` is None for a singleton SCC without a self-loop (no
    recurrent dynamics).  ``classes`` holds (SCC index, period, class
    vertices, gamma) for every cyclic class of the other SCCs, in SCC order
    and then in cyclic order; gamma is the primitivity index of the class's
    p-step graph, None where the class is too large for the search.
    """

    sccs: tuple[tuple[int, ...], ...]
    periods: tuple[int | None, ...]
    classes: tuple[tuple[int, int, tuple[int, ...], int | None], ...]

    @property
    def primitive(self) -> bool:
        """True iff the graph is one recurrent SCC of period 1."""
        return len(self.sccs) == 1 and self.periods[0] == 1

    def gamma(self, m: int = 1) -> int:
        """Primitivity index of the graph's m-th higher graph; m = 1 is the graph itself.

        gamma(T_[m]) = gamma(T) - 1 + m for T on n >= 2 vertices; a
        one-vertex T (a single loop) lifts to itself, so its index stays
        gamma(T).  Raises NotPrimitiveError when the graph is not primitive
        and SizeCapExceeded when it is too large for the primitivity search.
        """
        if not self.primitive:
            raise NotPrimitiveError("transition graph is not primitive")
        gamma = self.classes[0][3]
        n = len(self.sccs[0])
        if gamma is None:  # a primitive graph is refused only for its size
            _check_search_size(n)
        return gamma if n == 1 else gamma - 1 + m


def analyze_structure(t: Digraph) -> StructureReport:
    """SCCs, periods, cyclic classes and their gammas; ``Digraph.structure`` caches it."""
    sccs = tuple(scc_decompose(t))
    periods: list[int | None] = []
    classes: list[tuple[int, int, tuple[int, ...], int | None]] = []
    for k, comp in enumerate(sccs):
        if len(comp) == 1 and comp[0] not in t.succ[comp[0] - 1]:
            periods.append(None)
            continue
        split = _cyclic_classes(t, comp)
        p = len(split)  # one cyclic class per residue of the period
        periods.append(p)
        for cls, rows in split:
            # a class's p-step graph is primitive, so only its size can refuse it
            try:
                gamma = _gamma(rows)
            except SizeCapExceeded:
                gamma = None
            classes.append((k, p, cls, gamma))
    return StructureReport(sccs, tuple(periods), tuple(classes))
