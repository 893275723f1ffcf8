"""Generate TI-graphs from piecewise-affine circle maps and interval covers.

A cover arc N_i gets a T-edge to N_j when some monotone continuous stretch
of the image f(N_i) contains N_j with the requested slack on both ends;
it gets an I-edge to N_j when the closed arcs intersect.  All endpoint
arithmetic is exact (fractions built from the decimal literals of the
input), so covering and intersection tests cannot suffer float ties.  The
image of each arc is computed once in fractions (n computations); then
every endpoint is written as an integer over one common denominator, and
the n**2 pairwise tests are integer comparisons.  The common denominator
grows with the input's denominators, which changes the cost of a
comparison but never its outcome.  A comparison whose outcome would flip
under a perturbation of at most 1e-12 raises DegenerateCoverError: the
caller must move the offending endpoint.  Exact ties are allowed and
resolved by the closed-arc reading (touching arcs intersect; a cover with
zero slack satisfies margin 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateCoverError, ParseError, ValidationError
from .graph import Digraph, TIGraph, UGraph

TIE_WIDTH = Fraction(1, 10**12)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):  # JSON true/false are refused
        return Fraction(x)
    if isinstance(x, float):
        # decimal reading of the literal, not the binary float
        x = repr(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError:  # an unparseable string, nan or infinity
            pass
    raise ParseError(f"cannot interpret {x!r} as an exact number")


@dataclass(frozen=True)
class AffinePiece:
    """y = slope * x + intercept on [lo, hi); fields are read with ``_frac``."""

    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction

    def __post_init__(self) -> None:
        for name in ("lo", "hi", "slope", "intercept"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    def value(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class CircleMap:
    """Piecewise-affine map of the circle R/Z; pieces tile [0, 1)."""

    pieces: tuple[AffinePiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValidationError("circle map needs at least one piece")
        expect = Fraction(0)
        for p in self.pieces:
            if p.lo != expect:
                raise ValidationError(f"pieces do not tile [0,1): gap or overlap at {float(p.lo)}")
            if p.hi <= p.lo:
                raise ValidationError("piece has nonpositive width")
            if p.slope == 0:
                raise ValidationError("pieces must be monotone (nonzero slope)")
            expect = p.hi
        if expect != 1:
            raise ValidationError("pieces must end exactly at 1")


@dataclass(frozen=True)
class Arc:
    """Closed circle arc [start, start + length] with 0 < length < 1.

    Fields are read with ``_frac``, so a float means its decimal literal.
    """

    start: Fraction
    length: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _frac(self.start))
        object.__setattr__(self, "length", _frac(self.length))
        if not 0 < self.length < 1:
            raise ValidationError("arc length must lie strictly between 0 and 1")

    @classmethod
    def from_endpoints(cls, a, b) -> "Arc":
        a, b = _frac(a), _frac(b)
        return cls(a - math.floor(a), b - a)


@dataclass(frozen=True)
class IntervalCover:
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        if not self.arcs:
            raise ValidationError("cover needs at least one arc")


def _image_runs(cmap: CircleMap, arc: Arc) -> list[tuple[Fraction, Fraction]]:
    """Maximal monotone continuous stretches of f(arc), as lift intervals.

    The arc is cut at every piece boundary; consecutive segment images are
    merged when the map is continuous across the junction (values agree
    mod 1) and the slope keeps its sign, tracking one consistent lift.
    """
    lo, hi = arc.start, arc.start + arc.length
    segments: list[tuple[Fraction, Fraction, AffinePiece, int]] = []
    k = math.floor(lo)
    while Fraction(k) < hi:
        for p in cmap.pieces:
            u = max(lo, p.lo + k)
            v = min(hi, p.hi + k)
            if u < v:
                segments.append((u, v, p, k))
        k += 1

    runs: list[tuple[Fraction, Fraction]] = []
    cur_lo = cur_hi = None
    prev = None
    offset = Fraction(0)
    for u, v, p, k in segments:
        y_u = p.value(u - k)
        y_v = p.value(v - k)
        if prev is not None:
            pv, pp, pk = prev
            left_limit = pp.value(pv - pk) + offset
            delta = left_limit - y_u
            if pv == u and delta.denominator == 1 and (p.slope > 0) == (pp.slope > 0):
                offset = delta  # continuous junction: keep extending the lift
            else:
                runs.append((cur_lo, cur_hi))
                cur_lo = cur_hi = None
                offset = Fraction(0)
        a, b = sorted((y_u + offset, y_v + offset))
        if cur_lo is None:
            cur_lo, cur_hi = a, b
        else:
            cur_lo, cur_hi = min(cur_lo, a), max(cur_hi, b)
        prev = (v, p, k)
    if cur_lo is not None:
        runs.append((cur_lo, cur_hi))
    return runs


def ti_from_circle(cmap: CircleMap, cover: IntervalCover, margin=0) -> TIGraph:
    """Build the TI-graph of a circle map over an interval cover.

    T-edge i -> j when a monotone stretch of f(N_i) contains N_j with slack
    at least ``margin`` at both ends (so every finite itinerary through the
    interiors is realized by an actual orbit); I-edge {i, j} when the
    closed arcs N_i and N_j intersect.  The output is not pruned.

    The n image-run computations use ``Fraction``.  Every endpoint is then
    scaled by one common denominator ``den`` (the lcm of all denominators
    and 10**12) to an exact integer, so the n**2 covering and intersection
    tests are integer comparisons.  ``den`` may grow with the input; the
    results do not depend on its size, only the cost of each comparison does.
    """
    margin = _frac(margin)
    if margin < 0:
        raise ValidationError("margin must be >= 0")
    arcs = cover.arcs
    n = len(arcs)
    runs = [_image_runs(cmap, arc) for arc in arcs]
    den = math.lcm(
        TIE_WIDTH.denominator,
        margin.denominator,
        *(x.denominator for arc in arcs for x in (arc.start, arc.length)),
        *(y.denominator for arc_runs in runs for run in arc_runs for y in run),
    )
    width = den // TIE_WIDTH.denominator  # TIE_WIDTH in units of 1/den

    def scaled(x: Fraction) -> int:
        return x.numerator * (den // x.denominator)

    def decided(cases: list[list[list[int]]], what: tuple[str, ...], count: int) -> list[int]:
        # The tests k < count that some case passes.  cases[c][s][k] is
        # slack s (named what[s]) of case c in test k, in units of 1/den; a
        # case passes when its slacks are all >= 0 (closed), checked in
        # order up to the first that is not.  A slack with 0 < |d/den| <=
        # 1e-12 is a near-tie (ambiguous input): the first test that no case
        # passes raises the last tie among its cases, if any.
        named = [list(zip(case, what)) for case in cases]
        hits = []
        for k in range(count):
            tie = None
            for case in named:
                for slacks, name in case:
                    d = slacks[k]
                    if d == 0 or d > width:
                        continue
                    if d >= -width:
                        tie = DegenerateCoverError(
                            f"{name} decided by {float(Fraction(d, den)):+.2e}; perturb the input"
                        )
                    break
                else:
                    hits.append(k)
                    break
            else:
                if tie is not None:
                    raise tie
        return hits

    m = scaled(margin)
    starts = [scaled(arc.start) for arc in arcs]
    lengths = [scaled(arc.length) for arc in arcs]
    covering = ("covering (lower end)", "covering (upper end)")
    t_edges = []
    for i, arc_runs in enumerate(runs, start=1):
        cases = []
        for ylo, yhi in arc_runs:
            # the run shrunk by the margin is the window a target must fit
            # in; lift each start to the first start + k*den >= lo
            lo, room = scaled(ylo) + m, scaled(yhi) - scaled(ylo) - 2 * m
            below = [(start - lo) % den for start in starts]
            cases.append([below, [room - b - length for b, length in zip(below, lengths)]])
        t_edges += [(i, j + 1) for j in decided(cases, covering, n)]
    i_edges = []
    for i in range(n):
        # Closed arcs on the circle: lift each later start next to i's and
        # compare, on either side of it.
        d = [(start - starts[i]) % den for start in starts[i + 1 :]]
        inside = [lengths[i] - dj for dj in d]
        around = [dj - den + length for dj, length in zip(d, lengths[i + 1 :])]
        hits = decided([[inside], [around]], ("arc intersection",), n - i - 1)
        i_edges += [(i + 1, i + 2 + k) for k in hits]
    return TIGraph(Digraph.from_edges(n, t_edges), UGraph.from_edges(n, i_edges))


def load_map_spec(data: str | bytes) -> tuple[CircleMap, IntervalCover, Fraction]:
    """Parse the JSON map/cover format.

    ``{"pieces": [{"from": [a, b], "slope": s, "intercept": c}, ...],
       "intervals": [[a, b], ...], "margin": m?}``

    Decimal literals are read exactly (no float rounding).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "pieces" not in obj or "intervals" not in obj:
        raise ParseError("expected an object with 'pieces' and 'intervals'")
    if not isinstance(obj["pieces"], list) or not isinstance(obj["intervals"], list):
        raise ParseError("'pieces' and 'intervals' must be lists")
    pieces = []
    for k, item in enumerate(obj["pieces"]):
        try:
            lo, hi = item["from"]
            pieces.append(AffinePiece(lo, hi, item["slope"], item["intercept"]))
        except (KeyError, TypeError, ValueError, ParseError) as exc:
            raise ParseError(f"piece {k}: {exc}") from exc
    arcs = []
    for k, pair in enumerate(obj["intervals"]):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"interval {k}: expected [a, b]")
        arcs.append(Arc.from_endpoints(pair[0], pair[1]))
    pieces.sort(key=lambda p: p.lo)
    margin = _frac(obj.get("margin", 0))
    return CircleMap(tuple(pieces)), IntervalCover(tuple(arcs)), margin


def doubling_map() -> CircleMap:
    """The angle-doubling map x -> 2x on R/Z as a single affine piece."""
    return CircleMap((AffinePiece(Fraction(0), Fraction(1), Fraction(2), Fraction(0)),))
