"""Exact maximum independent set computation on UGraphs.

The exact solver is branch-and-bound on bit-packed candidate masks: branch
on a maximum-degree vertex (include it and delete its closed neighborhood,
then exclude it), prune with greedy clique-cover upper bounds, and apply
degree-0/degree-1/domination reductions.  The search runs depth first on an
explicit stack, so it needs no recursion limit.  All tie-breaking is by
lowest vertex index, so witnesses are reproducible.

The bound is one routine, the first-fit clique cover built one class at a
time on bitsets (the greedy colouring of San Segundo et al., BBMC, applied
to cliques of the graph), run over a list of level masks in turn.  It runs
first with p as the only level, which is index order: one AND per vertex.
Only when that cannot prune is the degree table of the node read, and the
routine runs again with its levels in ascending degree (Tomita & Kameda's
colouring order), which is usually smaller; the same table gives the branch
vertex.  A node below the root builds its table there; the root of a
component reads the one domination pruning formed, when it has one (see
below).  A node's bound is never above the first order's alone, and the
incumbent changes only on a strict improvement, so the search visits a
subset of the nodes the first order alone would, in the same order, and
returns the same witness.

Where both orders leave more classes than the incumbent can afford, the
degree-order classes are refined by disjoint inconsistent subsets, the
MaxSAT-style bound of Li & Quan (AAAI 2010): sets of classes that no
independent set meets in every class, so each one lowers the bound by one.
Unit propagation on bitsets finds them: a one-vertex class forces its vertex
in and deletes that vertex's neighbours from the other classes, and a class
left empty, with the classes whose forced vertices emptied it, is one such
set.  When propagation finds none, each two-vertex class is tested for a
failed literal: if both its vertices propagate to a conflict, the class and
both conflicts form one.  The refined bound is still an upper bound on the
independence number, and it only runs where both covers failed to prune, so
again the search visits a subset of the nodes, in the same order, with the
same incumbents and the same witness.  One node is never refined: a
connected p whose top degree is 2, which after the reductions is one cycle.
One branch and the reductions close a cycle in 3 nodes, where refining its
cover would record n/2 classes of n bits and propagate around the whole
cycle, as on the 2-regular lifts of circle covers.  Where the refinement
would have pruned, no set beats the incumbent, so branching there changes
no witness; it only adds nodes.  Connectivity matters:
cycles left disjoint by domination (a hub on many odd cycles) are closed at
once by the refinement, and branching on them doubles the search per cycle.

Both reductions revisit only what a removal touched (the worklist discipline
of Akiba & Iwata, TCS 609, 2016), with the decisions of full rescans.
Domination pruning runs once per component; after dropping v it rescans the
unscanned vertices and v's neighbours, the only vertices whose closed
neighbourhood or containments changed.  Degree-0/1 peeling sweeps all of p
once; after that, a sweep visits only the vertices whose degree a take
lowered, in ascending order: the neighbours of the taken vertex's neighbour,
in this sweep when above the taken vertex and in the next otherwise.

Each fact of a component is computed once.  Domination's scan forms N(u)
within p for every vertex u; when it drops nothing, their popcounts are the
component's degree table, which it returns with p.  The greedy incumbent
reads that table, and so does the search root: it skips its degree-0/1
sweep when the lowest degree is at least 2, as the sweep would take
nothing, and reads the table in place of its own when the index-order
cover fails.  The root is the same node with or without the table, so the
search visits the same nodes in the same order.

The connected components are ``UGraph.components``, solved one at a time.
Each component starts from a minimum-degree greedy incumbent whose degrees,
seeded from the degree table, are bit-sliced counters: b = bit_length(max
degree) masks, one per degree bit, so a pick costs b ANDs and dropping a
vertex one borrow-propagating subtract across the slices (Biham's bit-slicing, FSE 1997, on the bitset
rows of San Segundo et al.).  That is O(n b) word-parallel operations on
n-bit masks over the whole greedy, not one per edge.  Once the node budget
is spent, every remaining component keeps that incumbent.  The solver reads
only bitset rows, the one form a ``UGraph`` stores, so it never meets a
graph above ``MAX_BITSET_VERTICES``: ``UGraph`` refuses to build one.  It
stores no closed rows: N[v] is formed from ``adj[v]`` where it is read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .graph import UGraph, bits_of, component_of

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class IndependenceResult:
    size: int
    witness: tuple[int, ...]
    exact: bool


class _Solver:
    def __init__(self, adj: tuple[int, ...], budget: int):
        self.adj = adj
        self.budget = budget
        self.nodes = 0
        self.best_size = 0
        self.best_mask = 0

    def _cover_bound(self, p: int, levels: list[int], classes: list[int] | None = None) -> int:
        # Greedy clique cover of p: each class is a clique, so an independent
        # set meets it at most once.  Vertices are placed level by level, in
        # index order within a level.  Built one class at a time, this is
        # exactly first-fit: the first uncovered vertex opens a class, which
        # then takes the first uncovered vertex adjacent to all its members.
        # The levels are only read (p holds the uncovered vertices), and
        # candidates left after the other levels lie in the last one.  Each
        # class is p before it minus p after it, appended to classes if given.
        adj = self.adj
        bound = 0
        last = len(levels) - 1
        for i, level in enumerate(levels):
            masked = levels[i:last]
            rest = level & p
            while rest:
                start = p
                low = rest & -rest
                p ^= low
                cand = adj[low.bit_length() - 1] & p
                for mask in masked:
                    hit = cand & mask
                    while hit:
                        low = hit & -hit
                        p ^= low
                        a = adj[low.bit_length() - 1]
                        cand &= a
                        hit &= a
                while cand:
                    low = cand & -cand
                    p ^= low
                    cand &= adj[low.bit_length() - 1]
                bound += 1
                if classes is not None:
                    classes.append(start ^ p)
                rest = level & p
        return bound

    def _greedy(self, p: int, degrees: dict[int, int] | None = None) -> int:
        # Minimum degree within p, lowest index on ties, on bit-sliced degree
        # counters: bit v of zeros[j] is set when v is in p and bit j of its
        # degree within p is 0.  A pick goes from the top slice down, keeping
        # the candidates with a 0 bit whenever there are any, and takes the
        # lowest of those left: one AND per slice.  Dropping N[v] decrements
        # the remaining neighbours of each dropped vertex with one
        # borrow-propagating subtract across the slices.  The slices stay
        # non-negative and vertices are taken from the top bit down where
        # order does not matter: CPython's bitwise operations on negative
        # ints cost several times more.  degrees, if given, is _levels(p).
        adj = self.adj
        if degrees is None:
            degrees = self._levels(p)
        zeros = [p] * max(degrees, default=0).bit_length()
        for d, level in degrees.items():
            j = 0
            while d:
                if d & 1:
                    zeros[j] ^= level
                d >>= 1
                j += 1
        chosen = 0
        while p:
            cand = p
            for z in reversed(zeros):
                z &= cand
                if z:
                    cand = z
            low = cand & -cand
            chosen |= low
            dropped = (adj[low.bit_length() - 1] & p) | low
            p ^= dropped
            while dropped:
                u = dropped.bit_length() - 1
                dropped ^= 1 << u
                borrow = adj[u] & p
                j = 0
                while borrow:
                    z = zeros[j]
                    zeros[j] = z ^ borrow
                    borrow &= z
                    j += 1
        return chosen

    def _levels(self, p: int) -> dict[int, int]:
        # degree within p -> mask of the vertices of that degree, in ascending
        # degree; vertices are taken from the top bit down, where order does
        # not matter
        adj = self.adj
        levels: dict[int, int] = {}
        m = p
        while m:
            v = m.bit_length() - 1
            low = 1 << v
            m ^= low
            d = (adj[v] & p).bit_count()
            levels[d] = levels.get(d, 0) | low
        return dict(sorted(levels.items()))

    def _reduce(self, p: int, chosen: int) -> tuple[int, int]:
        # Degree-0/1 reductions to a fixed point, by ascending sweeps.  Only
        # a removal changes a degree: taking v with its single neighbour w
        # lowers the degree of w's other neighbours, so those are the only
        # vertices a later look can find at degree <= 1.  The first sweep
        # visits all of p; a touched vertex above v joins this sweep, one
        # below v the next.  Every vertex left out still has the degree >= 2
        # it was last seen with, so the takes are those of repeated full
        # sweeps, in the same order.
        adj = self.adj
        m = p
        while m:
            later = 0
            while m:
                low = m & -m
                m ^= low
                if not p & low:  # removed earlier in this sweep
                    continue
                v = low.bit_length() - 1
                nb = adj[v] & p
                if nb == 0:
                    chosen |= low
                    p ^= low
                elif nb & (nb - 1) == 0:
                    # single neighbor: taking v is never worse
                    chosen |= low
                    p ^= nb | low
                    touched = adj[nb.bit_length() - 1] & p
                    above = touched >> v << v
                    m |= above
                    later |= touched ^ above
            m = later & p
        return p, chosen

    def _conflicts(self, classes: list[int], need: int) -> bool:
        # True when `need` pairwise disjoint inconsistent subsets of the
        # clique classes turn up: sets of classes that no independent set
        # meets in every class.  A subset is a bit mask of class indices;
        # each one found is dropped (its classes emptied) and the search
        # starts again on the rest.  owner[v] is the class of v, and live
        # the union of the classes not dropped.
        adj = self.adj
        owner = [0] * len(adj)
        live = 0
        for j, c in enumerate(classes):
            live |= c
            while c:
                v = c.bit_length() - 1
                c ^= 1 << v
                owner[v] = j

        def propagate(masks: list[int], reasons: list[int], units: list[int]) -> int:
            # Unit propagation: a one-vertex class forces its vertex in,
            # which deletes that vertex's neighbours from the other classes.
            # An independent set meeting every class of reasons[j] meets
            # class j inside masks[j] only, so when class j is left empty,
            # reasons[j] (j and, transitively, the classes whose forced
            # vertices shrank it) is an inconsistent subset.  A class joins
            # units when it shrinks to one vertex; shrinking again empties it.
            for u in units:
                nb = adj[masks[u].bit_length() - 1]
                why = reasons[u]
                touched = nb & live
                while touched:
                    j = owner[touched.bit_length() - 1]
                    touched ^= touched & classes[j]
                    m = masks[j]
                    hit = m & nb
                    if hit:
                        m ^= hit
                        masks[j] = m
                        reasons[j] |= why
                        if not m:
                            return reasons[j]
                        if not m & (m - 1):
                            units.append(j)
            return 0

        while need:
            masks = classes.copy()
            reasons = [1 << j for j in range(len(classes))]
            units = [j for j, m in enumerate(masks) if m and not m & (m - 1)]
            found = propagate(masks, reasons, units)
            if not found:
                # failed literals: a two-vertex class whose vertices each
                # propagate to a conflict is inconsistent with both conflicts
                for c, m in enumerate(masks):
                    if m.bit_count() != 2:
                        continue
                    found = reasons[c]
                    for low in (m & -m, m & (m - 1)):
                        trial = masks.copy()
                        trial[c] = low
                        conflict = propagate(trial, reasons.copy(), [c])
                        if not conflict:
                            found = 0
                            break
                        found |= conflict
                    if found:
                        break
                else:
                    return False
            need -= 1
            while found:
                j = found.bit_length() - 1
                found ^= 1 << j
                live ^= classes[j]
                classes[j] = 0
        return True

    def solve(self, p: int, chosen: int, root_degrees: dict[int, int] | None = None) -> bool:
        # The include child is pushed last, so nodes pop in preorder.
        # root_degrees, if given, is _levels(p) of the root: when its lowest
        # degree is at least 2, _reduce would take nothing there, and the
        # root reads it in place of its own table.
        stack = [(p, chosen)]
        while stack:
            p, chosen = stack.pop()
            self.nodes += 1
            if self.nodes > self.budget:
                return False
            degrees, root_degrees = root_degrees, None
            if degrees is None or min(degrees) < 2:
                p, chosen = self._reduce(p, chosen)
                degrees = None
            size = chosen.bit_count()
            if size > self.best_size:
                self.best_size = size
                self.best_mask = chosen
            if not p:
                continue
            room = self.best_size - size
            if self._cover_bound(p, [p]) <= room:
                continue
            if degrees is None:
                degrees = self._levels(p)
            levels = list(degrees.values())
            # branch vertex: maximum degree within p, lowest index on ties
            top = levels[-1]
            v = (top & -top).bit_length() - 1
            # _reduce left every degree >= 2, so a top degree of 2 makes the
            # degree-order cover the index-order one that just failed, and a
            # connected p one cycle, which is branched unrefined
            if max(degrees) > 2 or component_of(self.adj, 1 << v, p) != p:
                classes: list[int] = []  # the degree-order cover, for the refinement
                bound = self._cover_bound(p, levels, classes)
                if bound <= room or self._conflicts(classes, bound - room):
                    continue
            stack.append((p ^ (1 << v), chosen))
            stack.append((p ^ ((self.adj[v] & p) | 1 << v), chosen | (1 << v)))
        return True


def _dominated_pruned(adj: tuple[int, ...], p: int) -> tuple[int, dict[int, int] | None]:
    # If u, v are adjacent and N[u] subset of N[v], some maximum independent
    # set avoids v; drop the higher-indexed vertex on exact ties.  Each step
    # drops the lowest v dominated by the lowest u that dominates any.  The
    # scan is a worklist in ascending order: a vertex leaves it when it
    # dominates nothing.  A vertex not adjacent to v keeps its closed
    # neighbourhood and every containment it was in, so a drop can only give
    # a dominated neighbour to a neighbour of v; those (u among them) rejoin.
    # So a tie is only met from its lower vertex v: u above it is scanned
    # after v last left the worklist, and N[v] has not changed since.
    # u's lowest dominated neighbour is found by witness elimination: a
    # w in N[u] outside N[v] rules out v and every other candidate not
    # adjacent to w, w too, as v is in N[u] but not in N[w].  As u is in
    # N(v), the highest vertex of N(u) outside N(v) other than v is one.
    # Until the first drop each vertex is scanned once, against all of p, so
    # when nothing drops the popcounts of the scanned N(u) are the degree
    # table _Solver._levels(p), returned with p; otherwise None is.
    levels: dict[int, int] | None = {}
    m = p
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        nu = cand = adj[u] & p
        if levels is not None:
            d = nu.bit_count()
            levels[d] = levels.get(d, 0) | low
        while cand:
            vlow = cand & -cand
            v = vlow.bit_length() - 1
            av = adj[v]
            miss = (nu | av) ^ av  # nu & ~av without a negative int; holds v
            if miss != vlow:
                cand &= adj[(miss ^ vlow).bit_length() - 1]
            else:
                p ^= vlow
                m = (m | av) & p  # av holds u
                levels = None
                break
    if levels is not None:
        levels = dict(sorted(levels.items()))
    return p, levels


def max_independent_set(g: UGraph, budget: int = DEFAULT_BUDGET) -> IndependenceResult:
    """Maximum independent set with witness; exact unless the budget runs out.

    Budget counts branch-and-bound node expansions; the search returns, rather
    than raises, when it is spent, and leaves the recursion limit alone.  On
    exhaustion the best set found so far is returned with ``exact=False``
    (still a valid independent set, hence still usable as a certificate); each
    component not yet searched contributes the greedy incumbent its search
    would have started from, on its dominance-pruned vertices.

    Works on the bitset rows ``g.adj`` only, the final independence check
    included, so no per-edge ``edges`` tuple is made here.  A budget that is
    not an int (a bool included) or is below 1 raises ``ValidationError``,
    as ``Config`` does.
    """
    if type(budget) is not int:
        raise ValidationError("budget must be an int")
    if budget < 1:
        raise ValidationError("budget must be positive")
    adj = g.adj
    solver = _Solver(adj, budget)

    # independent components are solved separately, in order of their lowest vertex
    chosen_total = 0
    exact = True
    for comp in g.components:
        comp, degrees = _dominated_pruned(adj, comp)
        solver.best_mask = solver._greedy(comp, degrees)
        solver.best_size = solver.best_mask.bit_count()
        if exact:  # once the budget is gone, a component keeps this incumbent
            exact = solver.solve(comp, 0, degrees)
        chosen_total |= solver.best_mask

    # tuple() of a list: from a generator it starts from a guessed size and
    # resizes, and CPython's free lists of small tuples grow with every solve
    witness = tuple([v + 1 for v in bits_of(chosen_total)])
    if any(adj[v - 1] & chosen_total for v in witness):
        raise AssertionError("witness is not independent")
    return IndependenceResult(len(witness), witness, exact)

