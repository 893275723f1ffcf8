"""Generate TI-graphs from piecewise-affine circle maps and interval covers.

A cover arc N_i gets a T-edge to N_j when some monotone continuous stretch
of the image f(N_i) contains N_j with the requested slack on both ends;
it gets an I-edge to N_j when the closed arcs intersect.  The inputs are
read exactly (fractions built from the decimal literals), and one common
denominator is fixed from them alone; every piece, arc and the margin is
scaled once to integers over it, and the images, the covering and the
intersection tests are all integer arithmetic, so nothing can suffer a
float tie.  Only the pairs that can pass or tie are tested: the arcs are
sorted once by start on the circle, and bisection finds the arcs that
start inside an image run or near another arc, so the work grows with
n log n and the number of pairs tested, not with n**2.  The common
denominator grows with the input's denominators, which changes the cost
of a comparison but never its outcome.  A
comparison whose outcome would flip under a perturbation of at most 1e-12
raises DegenerateCoverError: the caller must move the offending endpoint.
Exact ties are allowed and resolved by the closed-arc reading (touching
arcs intersect; a cover with zero slack satisfies margin 0).
"""

from __future__ import annotations

import json
import math
import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateCoverError, ParseError, ValidationError
from .graph import Digraph, TIGraph, UGraph, _check_vertex_count

TIE_WIDTH = Fraction(1, 10**12)
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # a decimal literal's exponent


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):  # JSON true/false are refused
        return Fraction(x)
    if isinstance(x, float):
        # decimal reading of the literal, not the binary float
        x = repr(x)
    if isinstance(x, str):
        # Fraction("1e-30000000") builds 10**30000000 first, which takes
        # minutes; an exponent is refused where Python refuses an int literal
        # of that many digits (no cap when that limit is switched off)
        exponent = _EXPONENT.search(x)
        limit = sys.get_int_max_str_digits()
        try:
            if not (exponent and limit and abs(int(exponent[1])) > limit):
                return Fraction(x)
        except (ValueError, ZeroDivisionError):  # unparseable, nan, infinity or p/0
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


def _image_runs(
    pieces: list[tuple[int, int, int, int, int]], lo: int, hi: int, den: int
) -> list[tuple[int, int]]:
    """Maximal monotone continuous stretches of f([lo, hi]), as lift intervals.

    Every number is an integer in units of 1/den: a piece is ``(lo, hi,
    num, q, c)`` for y = (num / q) * x + c on [lo, hi), and each q divides
    den, lo, hi and every piece bound, so each image is an exact integer.
    The arc is cut at every piece boundary; consecutive segment images are
    merged when the map is continuous across the junction (values agree
    mod 1, i.e. mod den) and the slope keeps its sign, tracking one
    consistent lift.
    """
    segments: list[tuple[int, int, int, int, int, int]] = []
    shift = lo // den * den
    while shift < hi:
        for p_lo, p_hi, num, q, c in pieces:
            u = max(lo, p_lo + shift)
            v = min(hi, p_hi + shift)
            if u < v:
                segments.append((u, v, num, q, c, shift))
        shift += den

    runs: list[tuple[int, int]] = []
    cur_lo = cur_hi = None
    prev = None
    offset = 0
    for u, v, num, q, c, shift in segments:
        y_u = num * (u - shift) // q + c
        y_v = num * (v - shift) // q + c
        if prev is not None:
            pv, p_num, left_limit = prev
            delta = left_limit + offset - y_u
            if pv == u and delta % den == 0 and (num > 0) == (p_num > 0):
                offset = delta  # continuous junction: keep extending the lift
            else:
                runs.append((cur_lo, cur_hi))
                cur_lo = cur_hi = None
                offset = 0
        a, b = sorted((y_u + offset, y_v + offset))
        if cur_lo is None:
            cur_lo, cur_hi = a, b
        else:
            cur_lo, cur_hi = min(cur_lo, a), max(cur_hi, b)
        prev = (v, num, y_v)
    if cur_lo is not None:
        runs.append((cur_lo, cur_hi))
    return runs


def ti_from_circle(cmap: CircleMap, cover: IntervalCover, margin=0) -> TIGraph:
    """Build the TI-graph of a circle map over an interval cover.

    T-edge i -> j when a monotone stretch of f(N_i) contains N_j with slack
    at least ``margin`` at both ends (so every finite itinerary through the
    interiors is realized by an actual orbit); I-edge {i, j} when the
    closed arcs N_i and N_j intersect.  The output is not pruned.

    Raises SizeCapExceeded, before any image run is computed, when the
    cover has more arcs than ``UGraph`` takes vertices.

    One common denominator ``den`` is fixed from the inputs alone: the lcm
    of the slope denominators times the lcm of the denominators of 10**-12,
    the margin, the arc starts and lengths and the piece bounds and
    intercepts.  Every input is scaled once to an integer in units of
    1/den, and the image runs, the covering and the intersection tests are
    all integer arithmetic.  The arcs are sorted once by start on the
    circle; bisection then finds, for each image run and for each arc, the
    only arcs whose slacks can pass or tie, and just those pairs are tested.
    ``den`` may grow with the input; the results do not depend on its size,
    only the cost of each comparison does.
    """
    margin = _frac(margin)
    if margin < 0:
        raise ValidationError("margin must be >= 0")
    arcs = cover.arcs
    n = len(arcs)
    _check_vertex_count(n)
    den = math.lcm(*(p.slope.denominator for p in cmap.pieces)) * math.lcm(
        TIE_WIDTH.denominator,
        margin.denominator,
        *(x.denominator for arc in arcs for x in (arc.start, arc.length)),
        *(x.denominator for p in cmap.pieces for x in (p.lo, p.hi, p.intercept)),
    )
    width = den // TIE_WIDTH.denominator  # TIE_WIDTH in units of 1/den

    def scaled(x: Fraction) -> int:
        return x.numerator * (den // x.denominator)

    def decided(cases: list[tuple[int, ...]], what: tuple[str, ...]) -> bool:
        # Whether some case passes.  case[s] is slack s (named what[s]), in
        # units of 1/den; a case passes when its slacks are all >= 0
        # (closed), checked in order up to the first that is not.  A slack
        # with 0 < |d/den| <= 1e-12 is a near-tie (ambiguous input): when no
        # case passes, the last tie among the cases is raised, if any.
        tie = None
        for case in cases:
            for d, name in zip(case, what):
                if d == 0 or d > width:
                    continue
                if d >= -width:
                    tie = DegenerateCoverError(
                        f"{name} decided by {d / den:+.2e}; perturb the input"
                    )
                break
            else:
                return True
        if tie is not None:
            raise tie
        return False

    m = scaled(margin)
    pieces = [
        (scaled(p.lo), scaled(p.hi), p.slope.numerator, p.slope.denominator, scaled(p.intercept))
        for p in cmap.pieces
    ]
    starts = [scaled(arc.start) for arc in arcs]
    lengths = [scaled(arc.length) for arc in arcs]
    # the arcs in order of their start on the circle, and those starts
    order = sorted(range(n), key=lambda j: starts[j] % den)
    keys = [starts[j] % den for j in order]

    def window(a: int, w: int) -> list[int]:
        # The arcs whose start lies in [a, a + w] on the circle.
        if w >= den:
            return order
        a %= den
        first = bisect_left(keys, a)
        if a + w < den:
            return order[first : bisect_right(keys, a + w)]
        return order[first:] + order[: bisect_right(keys, a + w - den)]

    covering = ("covering (lower end)", "covering (upper end)")
    shortest = min(lengths)
    t_edges = []
    for i, (start, length) in enumerate(zip(starts, lengths), start=1):
        # the run shrunk by the margin is the window a target must fit in;
        # lift each start to the first start + k*den >= lo
        runs = _image_runs(pieces, start, start + length, den)
        shrunk = [(ylo + m, yhi - ylo - 2 * m) for ylo, yhi in runs]
        # A case passes or ties only if its lower slack b is a tie (b <=
        # width) or its upper slack room - b - length is >= -width, which
        # needs b <= room + width - shortest.
        candidates = set()
        for lo, room in shrunk:
            candidates.update(window(lo, max(width, room + width - shortest)))
        for j in sorted(candidates):
            cases = []
            for lo, room in shrunk:
                b = (starts[j] - lo) % den
                cases.append((b, room - b - lengths[j]))
            if decided(cases, covering):
                t_edges.append((i, j + 1))
    # Closed arcs i < j on the circle: lift j's start next to i's, at
    # distance d, and compare on either side of it.  The inside slack
    # length_i - d passes or ties only if j starts within length_i + width
    # of i; for d > 0 the around slack d - den + length_j is length_j minus
    # the distance from j's start to i's, so it passes or ties only if i
    # starts within length_j + width of j.  Each arc's own window finds both.
    pairs = set()
    for i in range(n):
        for j in window(starts[i], lengths[i] + width):
            if j != i:
                pairs.add((min(i, j), max(i, j)))
    i_edges = []
    for i, j in sorted(pairs):
        d = (starts[j] - starts[i]) % den
        if decided([(lengths[i] - d,), (d - den + lengths[j],)], ("arc intersection",)):
            i_edges.append((i + 1, j + 1))
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
        obj = json.loads(data, parse_float=_frac)
    except (ValueError, RecursionError) as exc:  # malformed, nested too deep or int too long
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
