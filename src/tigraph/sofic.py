"""The I-component shift: relabel by connected components of I, determinize.

Merging each connected component of the intersection graph into one label
turns the vertex shift of T into a sofic shift whose entropy is a lower
bound for the overlap entropy.  Entropy of a sofic shift is the log Perron
eigenvalue of any right-resolving presentation, which the subset
construction below produces: states are label-homogeneous sets of original
vertices; from state S and label L the successor is the set of L-labeled
T-successors of S.

The components are the vertex masks of ``UGraph.components``, the one
connected-components routine, which the exact MIS solver also uses.  The
subset construction works on bitset rows: T's ``rows`` and I's ``adj``;
the clique check is ``UGraph.is_clique`` on each component.
``essential_vertices``, the pruning rule of ``prune_stranded``, cuts the
presentation to its essential states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import StateCapExceeded
from .graph import Digraph, TIGraph, bits_of, essential_vertices, induced_digraph
from .spectral import DEFAULT_TOL, perron_eigenvalue

DEFAULT_STATE_CAP = 100_000


@dataclass(frozen=True)
class LabeledGraph:
    """Transition graph with a vertex labeling onto 1..r."""

    t: Digraph
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        r = max(self.labels)
        if sorted(set(self.labels)) != list(range(1, r + 1)):
            raise AssertionError("labels must be surjective onto 1..r")

    @property
    def num_labels(self) -> int:
        return max(self.labels)


@dataclass(frozen=True)
class RightResolvingPresentation:
    """Determinized presentation: states are sets of original vertices.

    Right-resolving by construction: all out-neighbors of a state carry
    distinct labels.  ``state_sets[k]`` lists the original vertices merged
    into state k+1.
    """

    t: Digraph
    labels: tuple[int, ...]
    state_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for s in range(1, self.t.n + 1):
            out_labels = [self.labels[q - 1] for q in self.t.succ[s - 1]]
            if len(out_labels) != len(set(out_labels)):
                raise AssertionError("presentation is not right-resolving")


def component_labeling(g: TIGraph) -> LabeledGraph:
    """Label each vertex by its I-connected component (singletons included).

    Components are numbered 1..r in the order of ``UGraph.components``, by
    their smallest vertex, so the labeling is deterministic.
    """
    labels = [0] * g.n
    for lab, comp in enumerate(g.i.components, start=1):
        for v in bits_of(comp):
            labels[v] = lab
    return LabeledGraph(g.t, tuple(labels))


def right_resolve(lg: LabeledGraph, state_cap: int = DEFAULT_STATE_CAP) -> RightResolvingPresentation:
    """Subset construction producing a right-resolving presentation.

    Initial states are the full per-label vertex sets; from state S and
    label L the successor state is the set of L-labeled T-successors of S.
    All reachable states are retained, and StateCapExceeded is raised when
    there would be more than ``state_cap`` of them, initial states included.
    The presentation generates the same label-sequence language as the
    input.
    """
    r = lg.num_labels
    label_of = lg.labels
    label_mask = [0] * (r + 1)
    for v, lab in enumerate(label_of, start=1):
        label_mask[lab] |= 1 << (v - 1)
    succ_mask = lg.t.rows

    # the labeling is onto 1..r, so the r initial masks are nonempty and
    # distinct, and each is a state under the cap like any other
    if r > state_cap:
        raise StateCapExceeded(f"more than {state_cap} subset states")
    states = [(label_mask[lab], lab) for lab in range(1, r + 1)]  # (vertex mask, label)
    state_id = {mask: k for k, (mask, _) in enumerate(states)}
    edges: list[tuple[int, int]] = []
    head = 0
    while head < len(states):
        mask, _ = states[head]
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= succ_mask[low.bit_length() - 1]
            m ^= low
        # only the labels present in out: the lowest vertex left names the
        # next one; successors are then made in ascending label order
        found = []
        while out:
            lab = label_of[(out & -out).bit_length() - 1]
            nxt = out & label_mask[lab]
            out ^= nxt
            found.append((lab, nxt))
        found.sort()  # labels are distinct, so only they are compared
        for lab, nxt in found:
            if nxt not in state_id:
                if len(states) >= state_cap:
                    raise StateCapExceeded(f"more than {state_cap} subset states")
                state_id[nxt] = len(states)
                states.append((nxt, lab))
            edges.append((head + 1, state_id[nxt] + 1))
        head += 1

    t = Digraph.from_edges(len(states), edges)
    labels = tuple(lab for _, lab in states)
    state_sets = tuple(tuple(v + 1 for v in bits_of(mask)) for mask, _ in states)
    return RightResolvingPresentation(t, labels, state_sets)


def _prune_presentation(p: RightResolvingPresentation) -> RightResolvingPresentation:
    # Non-essential states (e.g. unreachable-from-cycles initials) do not
    # affect the spectral radius but are dropped so reports stay minimal.
    keep = essential_vertices(p.t)
    return RightResolvingPresentation(
        induced_digraph(p.t, keep)[0],
        tuple(p.labels[v - 1] for v in keep),
        tuple(p.state_sets[v - 1] for v in keep),
    )


def sofic_entropy(
    g: TIGraph, tol: float = DEFAULT_TOL, state_cap: int = DEFAULT_STATE_CAP
) -> tuple[float, RightResolvingPresentation]:
    """Entropy of the I-component shift plus the presentation that attains it.

    The value is log of the Perron eigenvalue of the pruned right-resolving
    presentation; it is always a lower bound for the overlap entropy, and
    equals it exactly when every I-component is a clique.
    """
    presentation = right_resolve(component_labeling(g), state_cap=state_cap)
    essential = _prune_presentation(presentation)
    res = perron_eigenvalue(essential.t, tol=tol)
    return math.log(max(res.value, 1.0)), essential


def clique_components_check(g: TIGraph) -> bool:
    """True iff every connected component of I is a clique.

    In that case the I-component shift has exactly the same separated word
    counts as the original, so the sofic value is exact, not just a bound.
    """
    return all(map(g.i.is_clique, g.i.components))

