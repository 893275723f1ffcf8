"""Entropy lower bounds for TI-graphs, the limit sequence, and the oracle.

The bounds, ``limit_sequence`` and ``verify_bound`` read T's SCCs, periods,
cyclic classes and primitivity indices from ``Digraph.structure``, so one
report analyses T once; a lift's index gamma(T_[m]) = gamma(T) - 1 + m is
``StructureReport.gamma(m)``.

The complete-digraph, primitive and component bounds are one class bound,
log ind(I_C) / (p * gamma) on a cyclic class C of T: picking one vertex of
an independent set of I_C every p * gamma steps spells separated words.
Complete T is the all-vertex class with p = gamma = 1, primitive T the
all-vertex class with p = 1.  ``_class_ind`` solves ind(I_C) for all three,
and ``verify_bound`` checks their certificates in one branch.

Every bound carries a machine-checkable certificate and two flags:

``certified``
    the value is a proven lower bound for the overlap entropy (an
    independent set of any size certifies one; so does a sofic relabeling
    or a primitive-component estimate).  Per-m values of the higher-shift
    sequence normalized by m are only certified when T is primitive; for
    reducible or periodic T they are reported as estimates.

``exact``
    the value equals the overlap entropy, which the engine can only prove
    when I is edgeless or every I-component is a clique.

The brute-force oracle (``oracle_separated_count``) enumerates all length-n
words, builds their indistinguishability graph from per-position bitsets of
the words (``_indistinguishable_rows``, which ``verify_bound`` also runs on
a ``higher_limit`` witness family), and takes its exact independence
number; this equals the independence number of the lifted intersection
graph, giving the dual route used by the test suite.
Raw per-m sequence values need not be monotone; only the running supremum
of the gamma-normalized values is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

try:  # CPython's own SHA-256: hashlib loads OpenSSL, about 3.5 MB resident, for one digest a report
    from _sha256 import sha256
except ImportError:  # named _sha2 from Python 3.12 on
    try:
        from _sha2 import sha256
    except ImportError:  # not built
        from hashlib import sha256

from .config import Config
from .errors import SizeCapExceeded, TigraphError, ValidationError
from .graph import (
    Digraph,
    TIGraph,
    UGraph,
    Word,
    bits_of,
    induced_digraph,
    is_vertex_path,
    require_pruned,
    restrict_rows,
    serialize_tigraph,
)
from .higher import (
    DEFAULT_SIZE_CAP,
    _capped_counts,
    _enumerate_words,
    higher_graph,
)
from .independence import DEFAULT_BUDGET, max_independent_set
from .sofic import DEFAULT_STATE_CAP, clique_components_check, sofic_entropy
from .spectral import DEFAULT_TOL, perron_eigenvalue, sft_entropy

METHOD_ORDER = (
    "independent_subshift",
    "complete_digraph",
    "primitive",
    "component",
    "sofic",
    "higher_limit",
)

@dataclass(frozen=True)
class Bound:
    method: str
    value: float
    certified: bool
    exact: bool
    certificate: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method not in METHOD_ORDER:
            raise AssertionError(f"unknown method {self.method!r}")
        if not self.value >= 0.0:
            raise AssertionError(f"bound value {self.value!r} is not >= 0")


@dataclass(frozen=True)
class SeparatedCount:
    """Maximum number of pairwise-distinguishable words of one length."""

    n: int
    count: int
    witness: tuple[Word, ...]


@dataclass(frozen=True)
class LimitEntry:
    m: int
    ind: int
    ind_exact: bool
    gamma: int | None
    bound_via_gamma: float | None
    bound_via_m: float


@dataclass(frozen=True)
class LimitSequence:
    entries: tuple[LimitEntry, ...]
    truncated: bool
    primitive: bool

    def best(self) -> tuple[float, int]:
        """(value, m) of the best certified bound (primitive T) or estimate."""
        if self.primitive:
            scored = [(e.bound_via_gamma, e.m) for e in self.entries]
        else:
            scored = [(e.bound_via_m, e.m) for e in self.entries]
        value, m = max(scored, key=lambda vm: (vm[0], -vm[1]))
        return value, m


def graph_digest(g: TIGraph) -> str:
    return sha256(serialize_tigraph(g).encode()).hexdigest()[:16]


def _sum_bound(t: Digraph, vertices: tuple[int, ...]) -> int:
    """min(max row sum, max column sum) of T on ``vertices``: >= its Perron value."""
    rows, cols = t.rows, t.cols
    mask = sum(1 << (v - 1) for v in vertices)
    return min(
        max((rows[v - 1] & mask).bit_count() for v in vertices),
        max((cols[v - 1] & mask).bit_count() for v in vertices),
    )


def independent_subshift_bound(
    g: TIGraph, tol: float = DEFAULT_TOL, mis_budget: int = DEFAULT_BUDGET
) -> Bound:
    """Best entropy among subshifts induced on an independent set of I.

    The largest independent set need not induce the most entropy, so after
    the exact search a deterministic family of maximal independent sets
    (one greedily grown from each seed vertex) is also scored, one Perron
    solve per candidate on T restricted to it, unpruned: the cyclic blocks
    are those of the pruned restriction, in the same order, and every other
    vertex is a block of value 0, so the value is the pruned one bit for
    bit, and 0.0 exactly when the candidate holds no cycle.  A candidate
    whose row- and column-sum bound shows it cannot beat the best so far is
    never restricted or solved, so it cannot raise NoConvergenceError
    either; the result is the one scoring every candidate gives.  Returns a
    zero bound with an empty certificate when no candidate holds a cycle.
    """
    require_pruned(g.t)
    mis = max_independent_set(g.i, budget=mis_budget)
    candidates = [mis.witness]

    # first fit from each seed: repeatedly take the lowest vertex not yet
    # in or next to the set, as an index-order scan would.  free only loses
    # bits, by ^ of its own bits: CPython's & with a negative ~mask costs
    # several times more.
    adj = g.i.adj
    full = (1 << g.n) - 1
    for seed in range(0, g.n, max(1, g.n // 128)):
        chosen = [seed + 1]
        free = full ^ (adj[seed] | 1 << seed)
        while free:
            low = free & -free
            v = low.bit_length() - 1
            chosen.append(v + 1)
            free ^= free & (adj[v] | low)
        candidates.append(tuple(sorted(chosen)))

    best_value = -1.0
    best_set: tuple[int, ...] = ()
    best_lambda = 0.0
    for cand in dict.fromkeys(candidates):
        # Skip S when it cannot beat the best so far.  lambda_S <= u =
        # _sum_bound(S) (Frobenius; the block split only drops entries).
        # A solve returns a diagonal entry (<= u) or
        # fl(fl(lo + hi) / 2 - 1) for Collatz-Wielandt ratio bounds lo <= hi
        # of a block of A + Id with fl(hi - lo) <= 2 tol.  The exact smallest
        # ratio is <= u + 1, and a computed ratio rounds at most n + 1 times
        # (row sum, then division), so with eps = 2**-53,
        # lo <= (u + 1)(1 + eps)**(n + 1); the width, the midpoint and the
        # "- 1" round three more times.  To first order in eps
        # lambda <= u + tol + ((u + 1)(n + 3) + 3 tol) eps; the ceiling's
        # margin is twice (u + 1 + tol)(n + 3) eps, which also covers the
        # ceiling's own roundings and, for n far below 2**26, every
        # higher-order term.  math.log is monotone, so
        # value = log(max(lambda, 1)) <= log(max(ceiling, 1)) <=
        # best_value + tol, and S would fail the test below.
        u = _sum_bound(g.t, cand)
        ceiling = u + tol + (u + 1 + tol) * (g.n + 3) * 2.0**-52
        if math.log(max(ceiling, 1.0)) <= best_value + tol:
            continue
        lam = perron_eigenvalue(induced_digraph(g.t, cand)[0], tol=tol).value
        if lam == 0.0:  # S holds no cycle
            continue
        value = math.log(max(lam, 1.0))
        if value > best_value + tol:
            best_value = value
            best_set = cand
            best_lambda = lam
    if not best_set:
        # no candidate holds a cycle
        return Bound("independent_subshift", 0.0, True, False, {})
    exact = g.i.num_edges() == 0  # no overlaps at all: this IS the entropy
    cert = {"independent_set": list(best_set), "lambda": best_lambda, "mis_exact": mis.exact}
    return Bound("independent_subshift", max(best_value, 0.0), True, exact, cert)


def _class_ind(g: TIGraph, cls: tuple[int, ...], mis_budget: int) -> tuple[float, list[int], bool]:
    """log ind(I_C), a witness in g's vertex numbers, and mis_exact, for C = ``cls``.

    ``cls`` lists the class in ascending order.  When it is every vertex,
    ``g.i`` itself is solved; otherwise only I is restricted to it.
    """
    i = g.i if len(cls) == g.n else UGraph.from_rows(restrict_rows(g.i.adj, cls))
    mis = max_independent_set(i, budget=mis_budget)
    return math.log(mis.size), [cls[v - 1] for v in mis.witness], mis.exact


def complete_digraph_bound(g: TIGraph, mis_budget: int = DEFAULT_BUDGET) -> Bound:
    """log(ind(I)) when T is the complete digraph (all n^2 edges).

    The class bound on the all-vertex class with p = gamma = 1.  Raises
    ValidationError when T is not complete.
    """
    if g.t.num_edges() != g.n * g.n:
        raise ValidationError("transition graph is not the complete digraph")
    log_ind, witness, exact = _class_ind(g, tuple(range(1, g.n + 1)), mis_budget)
    cert = {"applicable": True, "independent_set": witness, "mis_exact": exact}
    return Bound("complete_digraph", log_ind, True, False, cert)


def primitive_bound(g: TIGraph, mis_budget: int = DEFAULT_BUDGET) -> Bound:
    """log(ind(I)) / gamma(T) for primitive T.

    The class bound on the all-vertex class with p = 1.  Raises
    NotPrimitiveError when T is not primitive.
    """
    require_pruned(g.t)
    gamma = g.t.structure.gamma()
    log_ind, witness, exact = _class_ind(g, tuple(range(1, g.n + 1)), mis_budget)
    cert = {"independent_set": witness, "gamma": gamma, "mis_exact": exact}
    return Bound("primitive", log_ind / gamma, True, False, cert)


def component_bound(g: TIGraph, mis_budget: int = DEFAULT_BUDGET) -> Bound:
    """Best log(ind(I_C)) / (p * gamma) over all primitive components.

    C runs over the cyclic classes of each irreducible component of period
    p; gamma is the primitivity index of the class-transition graph.  A
    fast pre-check: if some class contains two vertices not joined by an
    I-edge, a positive bound exists; if no class does, the answer is 0.
    The first class in SCC order wins ties.
    """
    require_pruned(g.t)
    report = g.t.structure
    if all(g.i.is_clique(sum(1 << (v - 1) for v in cls)) for _, _, cls, _ in report.classes):
        return Bound("component", 0.0, True, False, {})

    best = None
    for k, p, cls, gamma in report.classes:
        if gamma is None:
            continue
        log_ind, witness, exact = _class_ind(g, cls, mis_budget)
        value = log_ind / (p * gamma)
        if best is None or value > best.value:
            cert = {
                "scc": list(report.sccs[k]),
                "class": list(cls),
                "period": p,
                "gamma": gamma,
                "independent_set": witness,
                "mis_exact": exact,
            }
            best = Bound("component", value, True, False, cert)
    return best or Bound("component", 0.0, True, False, {})


def sofic_bound(
    g: TIGraph, tol: float = DEFAULT_TOL, state_cap: int = DEFAULT_STATE_CAP
) -> Bound:
    """Entropy of the I-component shift; exact when all I-components are cliques."""
    require_pruned(g.t)
    value, presentation = sofic_entropy(g, tol=tol, state_cap=state_cap)
    cliques = clique_components_check(g)
    return Bound(
        "sofic",
        max(value, 0.0),
        True,
        cliques,
        {
            "num_states": presentation.t.n,
            "num_labels": max(presentation.labels),
            "clique_components": cliques,
        },
    )


def limit_sequence(
    g: TIGraph,
    m_max: int,
    size_cap: int = DEFAULT_SIZE_CAP,
    mis_budget: int = DEFAULT_BUDGET,
) -> LimitSequence:
    """Per-m data of the higher-shift sequence for m = 1..m_max.

    For primitive T the lifted primitivity index gamma(T_[m]) =
    gamma(T) - 1 + m is read from T's own analysis, so no lift is analysed,
    and the running supremum of log(ind)/gamma is a certified bound.
    Otherwise only log(ind)/m is reported, as an estimate.  The sequence is truncated (with a flag) when the word count
    passes ``size_cap``.  Raw values need not be monotone in m.  An
    ``m_max`` that is a bool or not an int >= 1 raises ValidationError, as
    ``Config`` does.
    """
    if type(m_max) is not int or m_max < 1:
        raise ValidationError("m_max must be an int >= 1")
    require_pruned(g.t)
    report = g.t.structure
    if report.primitive:
        report.gamma()  # a T too large for the gamma search is refused before any lift

    entries: list[LimitEntry] = []
    truncated = False
    for m in range(1, m_max + 1):
        try:
            lift = higher_graph(g, m, size_cap=size_cap)
        except SizeCapExceeded:
            truncated = True
            break
        mis = max_independent_set(lift.i, budget=mis_budget)
        gamma = report.gamma(m) if report.primitive else None
        entries.append(
            LimitEntry(
                m=m,
                ind=mis.size,
                ind_exact=mis.exact,
                gamma=gamma,
                bound_via_gamma=(math.log(mis.size) / gamma) if gamma else None,
                bound_via_m=math.log(mis.size) / m,
            )
        )
    if not entries:
        raise SizeCapExceeded("size cap too small for m = 1")
    return LimitSequence(tuple(entries), truncated, report.primitive)


def _limit_bound(g: TIGraph, seq: LimitSequence, cfg: Config) -> Bound:
    value, best_m = seq.best()
    clamped = False
    if not seq.primitive:
        # finite-m estimates of the limsup may overshoot; the overlap
        # entropy never exceeds the classical entropy, so cap there, at the
        # report's tolerance
        ceiling = sft_entropy(g.t, tol=cfg.tol)
        if value > ceiling:
            value = ceiling
            clamped = True
    # store the separated word family for the best m so the certificate
    # re-verifies without rebuilding the whole sequence
    lift = higher_graph(g, best_m, size_cap=cfg.size_cap)
    mis = max_independent_set(lift.i, budget=cfg.mis_budget)
    witness_words = [list(lift.vertex_words[v - 1]) for v in mis.witness]
    cert = {
        # fields in certificate key order; asdict's deep copy costs 11 us an
        # entry against 0.6 us for this shallow one
        "sequence": [dict(vars(e)) for e in seq.entries],
        "best_m": best_m,
        "witness_words": witness_words,
        "truncated": seq.truncated,
        "primitive": seq.primitive,
        "clamped_to_classical": clamped,
    }
    return Bound("higher_limit", max(value, 0.0), seq.primitive, False, cert)


def _indistinguishable_rows(g: TIGraph, words: list[Word]) -> list[int]:
    """Bitset rows of the indistinguishability graph on ``words``, one per word.

    Bit l of row k is set iff words k and l, k != l, are equal or I-adjacent
    at every position; the words share one length and their symbols lie in
    1..n.  At each position j, ``masks[s]`` holds the words whose j-th symbol
    is s or an I-neighbour of s, read off I's closed neighbourhoods; row k is
    the AND of word k's masks with bit k cleared, so a word listed twice has
    its copy in its row.  Nothing of the lift is read.
    """
    closed = [row | 1 << v for v, row in enumerate(g.i.adj)]
    rows = [((1 << len(words)) - 1) ^ 1 << k for k in range(len(words))]
    for column in zip(*words):
        at = dict.fromkeys(column, 0)  # at[s]: the words whose j-th symbol is s
        for k, s in enumerate(column):
            at[s] |= 1 << k
        present = sum(1 << (s - 1) for s in at)
        masks = {s: sum(at[v + 1] for v in bits_of(closed[s - 1] & present)) for s in at}
        rows = [row & masks[s] for row, s in zip(rows, column)]
    return rows


def oracle_separated_count(
    g: TIGraph, n: int, size_cap: int = DEFAULT_SIZE_CAP, mis_budget: int = DEFAULT_BUDGET
) -> SeparatedCount:
    """Exact maximum n-separated word family, by brute force.

    Enumerates every length-n vertex path, builds their
    indistinguishability graph (equal or I-adjacent at every slot) with
    ``_indistinguishable_rows``, and solves it exactly.
    Independent of the higher-shift construction; used to cross-check it.
    Words are counted and capped as ``higher_graph`` counts them.
    """
    require_pruned(g.t)
    if n < 1:
        raise ValidationError("word length must be >= 1")
    _capped_counts(g.t, n, size_cap)
    words = _enumerate_words(g.t, n)
    graph = UGraph.from_rows(_indistinguishable_rows(g, words))
    mis = max_independent_set(graph, budget=mis_budget)
    if not mis.exact:
        raise SizeCapExceeded("independent-set budget exhausted inside the oracle")
    witness = tuple(words[v - 1] for v in mis.witness)
    return SeparatedCount(n, mis.size, witness)


@dataclass(frozen=True)
class BoundReport:
    graph_digest: str
    bounds: tuple[Bound, ...]
    best: int
    parameters: dict

    def best_bound(self) -> Bound:
        return self.bounds[self.best]

    def to_json_dict(self) -> dict:
        return {
            "graph_digest": self.graph_digest,
            # a row's keys are Bound's fields, in their order
            "bounds": [dict(vars(b)) for b in self.bounds],
            "best": self.best,
            "config": self.parameters,
        }


def best_bound(g: TIGraph, config: Config | None = None) -> BoundReport:
    """Run every applicable bound method and aggregate.

    Individual method failures never abort the report; they are recorded as
    zero-value entries whose certificate explains the error.  The report is
    deterministic for a fixed graph and configuration: methods appear in a
    fixed order and ``best`` is the first index attaining the maximum.
    """
    cfg = config or Config()
    require_pruned(g.t)
    bounds: list[Bound] = []

    def run(method: str, fn):
        try:
            bounds.append(fn())
        except TigraphError as exc:
            bounds.append(
                Bound(method, 0.0, False, False, {"error": f"{type(exc).__name__}: {exc}"})
            )

    run(
        "independent_subshift",
        lambda: independent_subshift_bound(g, tol=cfg.tol, mis_budget=cfg.mis_budget),
    )
    if g.t.num_edges() == g.n * g.n:
        run("complete_digraph", lambda: complete_digraph_bound(g, mis_budget=cfg.mis_budget))
    if g.t.structure.primitive:
        run("primitive", lambda: primitive_bound(g, mis_budget=cfg.mis_budget))
    run("component", lambda: component_bound(g, mis_budget=cfg.mis_budget))
    run("sofic", lambda: sofic_bound(g, tol=cfg.tol, state_cap=cfg.state_cap))
    run(
        "higher_limit",
        lambda: _limit_bound(
            g, limit_sequence(g, cfg.m_max, size_cap=cfg.size_cap, mis_budget=cfg.mis_budget), cfg
        ),
    )

    # ties: prefer provably exact, then certified, then method order
    best = max(
        range(len(bounds)),
        key=lambda k: (bounds[k].value, bounds[k].exact, bounds[k].certified, -k),
    )
    return BoundReport(graph_digest(g), tuple(bounds), best, cfg.to_dict())


def verify_bound(g: TIGraph, bound: Bound, tol: float = 1e-9) -> bool:
    """Re-check a bound's certificate against the graph it came from.

    Returns False when any claim fails to reproduce: a witness set that is
    missing, empty, repeats a vertex, names one outside 1..n or is not
    independent, a wrong induced eigenvalue or a ``lambda`` that is not a
    float within ``tol`` of it, a class, period, gamma, state or label count
    that T or the presentation does not have or that is not an int, a class
    or SCC that is not listed exactly as T lists it, a ``complete_digraph``
    ``applicable`` other than True, a ``clique_components`` flag other than
    the graph's, a ``mis_exact`` that is not a bool, separated witness words
    that are missing or are not pairwise distinguishable vertex paths of one
    length, a ``best_m`` other than that length, a ``primitive`` flag other
    than T's, a ``truncated`` or ``clamped_to_classical`` that is not a bool
    or a clamp on primitive T, ``exact`` other than on
    ``independent_subshift`` with edgeless I (at h(T)) or on ``sofic`` with
    clique I-components, or ``certified`` on ``higher_limit`` for
    non-primitive T.  A certificate that is malformed or not a dict, or a
    re-check that hits a cap or a solve that does not converge, fails the
    check; it never raises.  The ``higher_limit`` ``sequence`` is not
    re-checked: its ``ind`` values would need the MIS solve on every lift
    that the stored witness words exist to avoid.
    The ``independent_subshift`` ``lambda`` and the ``sofic`` value are
    Perron values certified to the report's ``Config.tol`` only, so ``tol``
    must be at least that plus 1e-9.
    """
    try:
        return _recheck(g, bound, tol)
    except TigraphError:
        return False


def _recheck(g: TIGraph, bound: Bound, tol: float) -> bool:
    cert = bound.certificate
    if not isinstance(cert, dict):
        return False
    method = bound.method
    if bound.exact:
        if method == "independent_subshift":
            # no overlaps: the overlap entropy is the classical entropy
            h = math.log(max(perron_eigenvalue(g.t).value, 1.0))
            if g.i.num_edges() or abs(h - bound.value) > tol:
                return False
        elif method != "sofic" or not clique_components_check(g):
            return False
    if "error" in cert:
        return bound.value == 0.0

    def vertex_list(x) -> bool:
        return isinstance(x, (list, tuple)) and all(type(v) is int and 1 <= v <= g.n for v in x)

    def independent(vertices) -> bool:
        if not vertex_list(vertices):
            return False
        vs = set(vertices)
        if not vs or len(vs) != len(vertices):
            return False
        mask = sum(1 << (v - 1) for v in vs)
        return not any(g.i.adj[v - 1] & mask for v in vs)

    if method == "independent_subshift":
        if not cert:
            return bound.value == 0.0
        if not independent(cert.get("independent_set")) or type(cert.get("mis_exact")) is not bool:
            return False
        lam = perron_eigenvalue(induced_digraph(g.t, cert["independent_set"])[0]).value
        claimed = cert.get("lambda")
        if not isinstance(claimed, float) or abs(claimed - lam) > tol:
            return False
        if lam == 0.0:  # the set holds no cycle
            return bound.value == 0.0
        return abs(math.log(max(lam, 1.0)) - bound.value) <= tol

    if method in ("complete_digraph", "primitive", "component"):
        # each is log ind(I_C) / (p * gamma) on a cyclic class C of T; only
        # complete T has p = gamma = 1 on the all-vertex class
        if method == "component" and not cert:
            return bound.value == 0.0
        if method == "complete_digraph" and cert.get("applicable") is not True:
            return False
        every = list(range(1, g.n + 1))
        cls, p, gamma = {
            "complete_digraph": (every, 1, 1),
            "primitive": (every, 1, cert.get("gamma")),
            "component": (cert.get("class"), cert.get("period"), cert.get("gamma")),
        }[method]
        chosen = cert.get("independent_set")
        if not vertex_list(cls) or not independent(chosen) or not set(chosen) <= set(cls):
            return False
        if type(p) is not int or type(gamma) is not int or type(cert.get("mis_exact")) is not bool:
            return False
        report = g.t.structure
        for k, q, c, gs in report.classes:
            if gs is not None and list(c) == list(cls) and q == p and gs == gamma:
                scc = cert.get("scc")
                if method == "component" and not (vertex_list(scc) and list(scc) == list(report.sccs[k])):
                    return False
                return abs(math.log(len(chosen)) / (q * gs) - bound.value) <= tol
        return False

    if method == "sofic":
        value, presentation = sofic_entropy(g)
        states, labels = cert.get("num_states"), cert.get("num_labels")
        if type(states) is not int or states != presentation.t.n:
            return False
        if type(labels) is not int or labels != max(presentation.labels):
            return False
        if cert.get("clique_components") is not clique_components_check(g):
            return False
        return abs(value - bound.value) <= tol

    if method == "higher_limit":
        report = g.t.structure
        if cert.get("primitive") is not report.primitive or type(cert.get("truncated")) is not bool:
            return False
        clamped = cert.get("clamped_to_classical")
        if type(clamped) is not bool or clamped and report.primitive:
            return False
        words = cert.get("witness_words")
        if not isinstance(words, (list, tuple)) or not all(vertex_list(w) for w in words):
            return False
        words = [tuple(w) for w in words]
        if not words:
            return bound.value == 0.0
        m = cert.get("best_m")  # the length of every witness word
        if type(m) is not int or any(len(w) != m for w in words):
            return False
        if any(not is_vertex_path(g.t, w) for w in words):
            return False
        if any(_indistinguishable_rows(g, words)):
            return False
        divisor = m
        if bound.certified:
            # only primitive T turns the per-m values into bounds
            if not report.primitive:
                return False
            divisor = report.gamma(m)
        # the stored family certifies at least log(len(words)) / divisor; the
        # reported value may not exceed what the witness supports
        return bound.value <= math.log(len(words)) / divisor + tol

    return False
