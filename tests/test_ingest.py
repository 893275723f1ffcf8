"""Circle-map ingest: covering relations, intersections, degeneracy guards."""

import hashlib
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tigraph.graph
import tigraph.ingest
from tigraph import (
    DegenerateCoverError,
    Digraph,
    EmptyGraphError,
    ParseError,
    SizeCapExceeded,
    TIGraph,
    UGraph,
    ValidationError,
    prune_stranded,
    serialize_tigraph,
    ti_from_circle,
)
from tigraph.ingest import (
    TIE_WIDTH,
    AffinePiece,
    Arc,
    CircleMap,
    IntervalCover,
    _frac,
    doubling_map,
    load_map_spec,
)


def _cover(*pairs):
    return IntervalCover(tuple(Arc.from_endpoints(a, b) for a, b in pairs))


def test_doubling_cover_reproduces_reference_graph(dbl):
    # the session fixture is itself generated by ti_from_circle; check the
    # edges against the hand-derived covering/intersection arithmetic
    assert dbl.t.edges() == [(1, 1), (1, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 3), (4, 4)]
    assert dbl.i.edges == ((1, 2), (1, 4), (2, 3), (3, 4))


def test_two_piece_doubling_gives_same_graph(dbl):
    # x -> 2x written as two affine pieces, continuous across 1/2 on the circle
    cmap = CircleMap(
        (
            AffinePiece(Fraction(0), Fraction(1, 2), Fraction(2), Fraction(0)),
            AffinePiece(Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-1)),
        )
    )
    cover = _cover(("-0.1", "0.35"), ("0.15", "0.6"), ("0.4", "0.85"), ("0.65", "1.1"))
    assert ti_from_circle(cmap, cover) == dbl


def test_identity_map_single_interval_self_loop():
    cmap = CircleMap((AffinePiece(Fraction(0), Fraction(1), Fraction(1), Fraction(0)),))
    g = ti_from_circle(cmap, _cover(("0.2", "0.7")))
    assert g.n == 1
    assert g.t.edges() == [(1, 1)]
    assert g.i.edges == ()


def test_disjoint_arcs_without_covering_prune_to_empty():
    # images [0.6, 0.64] and [0.4, 0.44] miss both arcs entirely
    g = ti_from_circle(doubling_map(), _cover(("0.3", "0.32"), ("0.7", "0.72")))
    assert g.t.num_edges() == 0
    with pytest.raises(EmptyGraphError):
        prune_stranded(g)


def test_near_tie_raises_degenerate():
    # arcs separated by 1e-13: intersection is decided by a near-tie
    with pytest.raises(DegenerateCoverError):
        ti_from_circle(
            doubling_map(), _cover(("0", "0.5"), ("0.5000000000001", "0.9"))
        )


def test_exact_touch_counts_as_intersection():
    cmap = CircleMap((AffinePiece(Fraction(0), Fraction(1), Fraction(1), Fraction(0)),))
    g = ti_from_circle(cmap, _cover(("0", "0.5"), ("0.5", "0.9")))
    assert g.i.edges == ((1, 2),)


def test_margin_drops_marginal_covers():
    cmap = CircleMap((AffinePiece(Fraction(0), Fraction(1), Fraction(1), Fraction(0)),))
    cover = _cover(("0.2", "0.7"))
    assert ti_from_circle(cmap, cover).t.num_edges() == 1
    # identity cover has zero slack, so any positive margin kills it
    assert ti_from_circle(cmap, cover, margin="0.01").t.num_edges() == 0


def test_shrinking_cover_never_adds_t_edges():
    eps = Fraction(1, 100)
    base_pairs = [("-0.1", "0.35"), ("0.15", "0.6"), ("0.4", "0.85"), ("0.65", "1.1")]
    base = ti_from_circle(doubling_map(), _cover(*base_pairs), margin="0.02")
    shrunk_arcs = tuple(
        Arc(a.start + eps, a.length - 2 * eps)
        for a in _cover(*base_pairs).arcs
    )
    shrunk = ti_from_circle(doubling_map(), IntervalCover(shrunk_arcs), margin="0.02")
    assert set(shrunk.t.edges()) <= set(base.t.edges())


def test_i_edges_match_rational_arc_intersections(dbl):
    # independent recomputation of pairwise intersection on the lifts
    pairs = [
        (Fraction(9, 10), Fraction(27, 20)),
        (Fraction(23, 20), Fraction(8, 5)),
        (Fraction(7, 5), Fraction(37, 20)),
        (Fraction(33, 20), Fraction(21, 10)),
    ]

    def intersect(a, b):
        for shift in (-1, 0, 1):
            lo = max(a[0], b[0] + shift)
            hi = min(a[1], b[1] + shift)
            if lo <= hi:
                return True
        return False

    expected = tuple(
        (i + 1, j + 1)
        for i in range(4)
        for j in range(i + 1, 4)
        if intersect(pairs[i], pairs[j])
    )
    assert dbl.i.edges == expected


def test_arc_validation():
    with pytest.raises(ValidationError):
        Arc(Fraction(0), Fraction(0))
    with pytest.raises(ValidationError):
        Arc(Fraction(0), Fraction(1))


def test_map_validation():
    with pytest.raises(ValidationError):
        CircleMap((AffinePiece(Fraction(0), Fraction(1, 2), Fraction(2), Fraction(0)),))
    with pytest.raises(ValidationError):
        CircleMap((AffinePiece(Fraction(0), Fraction(1), Fraction(0), Fraction(0)),))


def test_float_fields_are_read_as_their_decimal_literals(dbl):
    # floats used to stay floats and break the integer arithmetic of ingest
    g = ti_from_circle(doubling_map(), IntervalCover((Arc(0.2, 0.5),)))
    assert g == ti_from_circle(doubling_map(), IntervalCover((Arc(Fraction("0.2"), Fraction("0.5")),)))
    assert Arc(0.2, 0.5) == Arc(Fraction(1, 5), Fraction(1, 2))
    assert AffinePiece(0, 0.5, 2, -0.25) == AffinePiece(
        Fraction(0), Fraction(1, 2), Fraction(2), Fraction(-1, 4)
    )
    halves = CircleMap((AffinePiece(0, 0.5, 2, 0), AffinePiece(0.5, 1, 2, -1)))
    arcs = tuple(Arc(a % 1, b - a) for a, b in ((-0.1, 0.35), (0.15, 0.6), (0.4, 0.85), (0.65, 1.1)))
    assert ti_from_circle(halves, IntervalCover(arcs)) == dbl


def test_load_map_spec_reads_decimals_exactly():
    cmap, cover, margin = load_map_spec(
        '{"pieces": [{"from": [0, 1], "slope": 2, "intercept": 0}],'
        ' "intervals": [[-0.1, 0.35], [0.15, 0.6]], "margin": 0.01}'
    )
    assert cover.arcs[0].start == Fraction(9, 10)
    assert cover.arcs[0].length == Fraction(45, 100)
    assert margin == Fraction(1, 100)
    assert cmap.pieces[0].slope == 2


def test_exponent_is_capped_at_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert _frac(f"1e-{limit}") == Fraction(1, 10**limit)
    assert _frac(f" 3E+{limit} ") == 3 * 10**limit
    for text in (f"1e-{limit + 1}", f"1e{limit + 1}", "1e" + "9" * 5000):
        with pytest.raises(ParseError, match="cannot interpret"):
            _frac(text)


def test_wrapping_image_covers_across_zero():
    # arc [0.9, 1.1] under doubling maps onto [1.8, 2.2]; it covers [0.85, 1.15]
    g = ti_from_circle(doubling_map(), _cover(("0.9", "1.1"), ("0.85", "1.15")))
    assert (1, 2) in g.t.edges()


# --- reference: the covering and intersection tests in Fraction arithmetic ---


def _ref_value(p: AffinePiece, x: Fraction) -> Fraction:
    return p.slope * x + p.intercept


def _ref_image_runs(cmap: CircleMap, arc: Arc) -> list[tuple[Fraction, Fraction]]:
    # Maximal monotone continuous stretches of f(arc), as lift intervals: the
    # arc is cut at every piece boundary, and consecutive segment images are
    # merged when the values agree mod 1 and the slope keeps its sign.
    lo, hi = arc.start, arc.start + arc.length
    segments = []
    k = math.floor(lo)
    while k < hi:
        for p in cmap.pieces:
            u = max(lo, p.lo + k)
            v = min(hi, p.hi + k)
            if u < v:
                segments.append((u, v, p, k))
        k += 1
    runs = []
    cur = None
    prev = None
    offset = Fraction(0)
    for u, v, p, k in segments:
        y_u = _ref_value(p, u - k)
        y_v = _ref_value(p, v - k)
        if prev is not None:
            pv, pp, pk = prev
            delta = _ref_value(pp, pv - pk) + offset - y_u
            if pv == u and delta.denominator == 1 and (p.slope > 0) == (pp.slope > 0):
                offset = delta
            else:
                runs.append(cur)
                cur = None
                offset = Fraction(0)
        a, b = sorted((y_u + offset, y_v + offset))
        cur = (a, b) if cur is None else (min(cur[0], a), max(cur[1], b))
        prev = (v, p, k)
    runs.append(cur)
    return runs


def _ref_guarded_ge(x: Fraction, y: Fraction, what: str) -> bool:
    d = x - y
    if d == 0:
        return True
    if abs(d) <= TIE_WIDTH:
        raise DegenerateCoverError(f"{what} decided by {float(d):+.2e}; perturb the input")
    return d > 0


def _ref_arcs_intersect(a: Arc, b: Arc) -> bool:
    d = (b.start - a.start) % 1
    tie = None
    try:
        if _ref_guarded_ge(a.length, d, "arc intersection"):
            return True
    except DegenerateCoverError as exc:
        tie = exc
    try:
        if _ref_guarded_ge(d, 1 - b.length, "arc intersection"):
            return True
    except DegenerateCoverError as exc:
        tie = exc
    if tie is not None:
        raise tie
    return False


def _ref_run_covers(run, target: Arc, margin: Fraction) -> bool:
    ylo, yhi = run
    k = math.ceil(ylo + margin - target.start)
    if not _ref_guarded_ge(target.start + k, ylo + margin, "covering (lower end)"):
        return False
    return _ref_guarded_ge(yhi - margin, target.start + k + target.length, "covering (upper end)")


def _ref_ti_from_circle(cmap: CircleMap, cover: IntervalCover, margin=0) -> TIGraph:
    margin = _frac(margin)
    arcs = cover.arcs
    n = len(arcs)
    t_edges = []
    for i, src in enumerate(arcs, start=1):
        runs = _ref_image_runs(cmap, src)
        for j, dst in enumerate(arcs, start=1):
            covered = False
            tie = None
            for run in runs:
                try:
                    if _ref_run_covers(run, dst, margin):
                        covered = True
                        break
                except DegenerateCoverError as exc:
                    tie = exc
            if not covered and tie is not None:
                raise tie
            if covered:
                t_edges.append((i, j))
    i_edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if _ref_arcs_intersect(arcs[i - 1], arcs[j - 1])
    ]
    return TIGraph(Digraph.from_edges(n, t_edges), UGraph.from_edges(n, i_edges))


def _outcome(build, cmap, cover, margin=0):
    try:
        return build(cmap, cover, margin)
    except DegenerateCoverError as exc:
        return f"DegenerateCoverError: {exc}"


def _assert_matches_reference(cmap, cover, margin=0):
    got = _outcome(ti_from_circle, cmap, cover, margin)
    assert got == _outcome(_ref_ti_from_circle, cmap, cover, margin)
    return got


NEAR = Fraction(1, 10**13)
IDENTITY = CircleMap((AffinePiece(Fraction(0), Fraction(1), Fraction(1), Fraction(0)),))


@st.composite
def circle_maps(draw):
    k = draw(st.integers(1, 3))
    cuts = sorted(draw(st.sets(st.integers(1, 99), min_size=k - 1, max_size=k - 1)))
    bounds = [Fraction(0)] + [Fraction(c, 100) for c in cuts] + [Fraction(1)]
    slopes = st.sampled_from(
        [Fraction(s) for s in (-4, -3, -2, -1, 1, 2, 3, 4)]
        + [Fraction(3, 2), Fraction(-3, 2), Fraction(5, 2), Fraction(2, 3)]
    )
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        slope = draw(slopes)
        if pieces and draw(st.booleans()):
            # continuous junction: start where the previous piece ends, mod 1
            intercept = _ref_value(pieces[-1], lo) - slope * lo + draw(st.integers(-1, 1))
        else:
            intercept = Fraction(draw(st.integers(-1000, 1000)), 1000)
        pieces.append(AffinePiece(lo, hi, slope, intercept))
    return CircleMap(tuple(pieces))


@st.composite
def arcs(draw):
    start = Fraction(draw(st.integers(-1500, 2500)), 1000)
    length = Fraction(draw(st.integers(1, 999)), 1000)
    # occasionally move an endpoint by 1e-13 to land inside the tie band
    nudge = st.sampled_from([0, 0, 0, NEAR, -NEAR])
    start += draw(nudge)
    length += draw(nudge)
    if draw(st.booleans()):
        return Arc.from_endpoints(start, start + length)
    return Arc(start, length)  # start outside [0, 1) on purpose


@given(
    circle_maps(),
    st.lists(arcs(), min_size=1, max_size=6),
    st.sampled_from(["0", "0.001", "0.01", "0.05", "0.0000000000001"]),
)
@settings(max_examples=300, deadline=None)
def test_integer_ingest_matches_fraction_reference(cmap, arc_list, margin):
    _assert_matches_reference(cmap, IntervalCover(tuple(arc_list)), margin)


def _near_cover(*pairs):
    return IntervalCover(tuple(Arc(Fraction(a), Fraction(b) - Fraction(a)) for a, b in pairs))


@pytest.mark.parametrize(
    "pairs, expected",
    [
        # lower end: target starts 1e-13 inside the image of [0.2, 0.7]
        (
            [("0.2", "0.7"), (Fraction("0.2") + NEAR, "0.5")],
            "DegenerateCoverError: covering (lower end) decided by +1.00e-13; perturb the input",
        ),
        # upper end, target 1e-13 short of and past the image's end
        (
            [("0.2", "0.7"), ("0.3", Fraction("0.7") - NEAR)],
            "DegenerateCoverError: covering (upper end) decided by +1.00e-13; perturb the input",
        ),
        (
            [("0.2", "0.7"), ("0.3", Fraction("0.7") + NEAR)],
            "DegenerateCoverError: covering (upper end) decided by -1.00e-13; perturb the input",
        ),
        # the tie band is closed: a difference of exactly 1e-12 is a tie
        (
            [("0.2", "0.7"), ("0.3", Fraction("0.7") - TIE_WIDTH)],
            "DegenerateCoverError: covering (upper end) decided by +1.00e-12; perturb the input",
        ),
        # arc intersection, 1e-13 apart and 1e-13 overlapping
        (
            [("0", "0.5"), (Fraction("0.5") + NEAR, "0.9")],
            "DegenerateCoverError: arc intersection decided by -1.00e-13; perturb the input",
        ),
        (
            [("0", "0.5"), (Fraction("0.5") - NEAR, "0.9")],
            "DegenerateCoverError: arc intersection decided by +1.00e-13; perturb the input",
        ),
        # both sides of the intersection test tie: the far side's tie is reported
        (
            [("0", "0.5"), (Fraction("0.5") + NEAR, 1 - 2 * NEAR)],
            "DegenerateCoverError: arc intersection decided by -2.00e-13; perturb the input",
        ),
    ],
)
def test_near_ties_raise_like_reference(pairs, expected):
    assert _assert_matches_reference(IDENTITY, _near_cover(*pairs)) == expected


def test_lower_end_tie_raises_when_no_arc_fits_the_run():
    # margin 0.3 leaves the image of [0.2, 0.7] no room for any arc, yet the
    # second arc starts 1e-13 past the shrunk image's lower end
    cover = _near_cover(("0.2", "0.7"), (Fraction("0.5") + NEAR, "0.9"))
    assert _assert_matches_reference(IDENTITY, cover, "0.3") == (
        "DegenerateCoverError: covering (lower end) decided by +1.00e-13; perturb the input"
    )


def test_exact_touch_and_zero_slack_are_edges():
    cover = _near_cover(("0.2", "0.7"), ("0.2", "0.7"), ("0.7", "0.9"))
    g = _assert_matches_reference(IDENTITY, cover)
    assert g.t.edges() == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
    assert g.i.edges == ((1, 2), (1, 3), (2, 3))


# jump at 1/2: the image of [0.1, 0.9] is the two runs [0.1, 0.5] and [0.75, 1.15]
JUMP = CircleMap(
    (
        AffinePiece(Fraction(0), Fraction(1, 2), Fraction(1), Fraction(0)),
        AffinePiece(Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1, 4)),
    )
)


def test_tie_in_one_run_is_overridden_by_a_cover_in_another():
    # the target ties the first run's lower end but fits the second with zero slack
    cover = _near_cover(("0.1", "0.9"), (Fraction("0.1") + NEAR, "0.15"))
    g = _assert_matches_reference(JUMP, cover)
    assert (1, 2) in g.t.edges()


def test_ties_in_two_runs_report_the_later_run():
    # lower end of the first run ties by +1e-13, upper end of the second by -2e-13
    cover = _near_cover(("0.1", "0.9"), (Fraction("0.1") + NEAR, Fraction("0.15") + 2 * NEAR))
    assert _assert_matches_reference(JUMP, cover) == (
        "DegenerateCoverError: covering (upper end) decided by -2.00e-13; perturb the input"
    )


def test_intersection_tie_on_one_side_is_overridden_by_the_other():
    # the second arc wraps past 1: 1e-13 short on the near side, overlapping on the far side
    cover = _near_cover(("0", "0.5"), (Fraction("0.5") + NEAR, "1.2"))
    g = _assert_matches_reference(IDENTITY, cover)
    assert g.i.edges == ((1, 2),)


def _slope3_cover(rotation):
    arcs = [
        Arc.from_endpoints(Fraction(5 * i - 1, 1000), Fraction(5 * (i + 1) + 1, 1000))
        for i in range(200)
    ]
    return IntervalCover(tuple(arcs[rotation:] + arcs[:rotation]))


@pytest.mark.parametrize("rotation", [0, 55, 199])
def test_wide_slope3_cover_matches_reference(rotation):
    cmap = CircleMap((AffinePiece(Fraction(0), Fraction(1), Fraction(3), Fraction(0)),))
    g = _assert_matches_reference(cmap, _slope3_cover(rotation))
    assert g.n == 200 and g.i.num_edges() == 200


@st.composite
def short_arc_covers(draw):
    # Many short arcs, so each image run and each arc sees only part of the
    # circle, and starts in [-1.5, 2.5] put windows across 0 in both lifts.
    nudge = st.sampled_from([0, 0, 0, NEAR, -NEAR] if draw(st.booleans()) else [0])
    arc_list = []
    for _ in range(40 - draw(st.integers(0, 39))):
        start = Fraction(draw(st.integers(-1500, 2500)), 1000) + draw(nudge)
        length = Fraction(draw(st.integers(1, 50)), 1000) + draw(nudge)
        arc_list.append(Arc(start, length))
    return IntervalCover(tuple(arc_list))


@given(
    circle_maps(),
    short_arc_covers(),
    st.sampled_from(["0", "0.001", "0.01", "0.0000000000001"]),
)
@settings(max_examples=150, deadline=None)
def test_short_arc_ingest_matches_fraction_reference(cmap, cover, margin):
    _assert_matches_reference(cmap, cover, margin)


TRIPLING = CircleMap((AffinePiece(Fraction(0), Fraction(1), Fraction(3), Fraction(0)),))


@pytest.mark.parametrize("cmap", [IDENTITY, TRIPLING, JUMP], ids=["identity", "tripling", "jump"])
@pytest.mark.parametrize(
    "arc_list",
    [
        # one start, written in several lifts
        [Arc(Fraction(3, 10) + k, Fraction(k + 2, 100)) for k in (-1, 0, 1, 2)],
        [Arc(0, "0.01"), Arc(1, "0.02"), Arc(-1, "0.5")],
        # long arcs: under x -> 3x the image of the first takes every arc,
        # and the second's intersection window is the whole circle
        [Arc("0.1", "0.999")] + [Arc(Fraction(k, 7), "0.05") for k in range(7)],
        [Arc("0.3", 1 - TIE_WIDTH / 2), Arc("0.5", "0.01"), Arc("0.2", "0.05")],
        # starts below 0 and at or above 1
        [
            Arc("-0.001", "0.001"),
            Arc(1, "0.01"),
            Arc("-1.5", "0.03"),
            Arc("1.99", "0.02"),
            Arc("-0.01", "0.02"),
        ],
    ],
    ids=["one-start", "one-start-at-0", "long-arc", "whole-circle-window", "starts-outside-0-1"],
)
def test_windows_at_the_edges_match_reference(cmap, arc_list):
    _assert_matches_reference(cmap, IntervalCover(tuple(arc_list)))


def test_cover_above_the_vertex_cap_is_refused_before_any_image_run(monkeypatch):
    def no_image_runs(pieces, lo, hi, den):
        raise AssertionError("image run computed above the cap")

    monkeypatch.setattr(tigraph.graph, "MAX_BITSET_VERTICES", 3)
    monkeypatch.setattr(tigraph.ingest, "_image_runs", no_image_runs)
    cover = _cover(("-0.1", "0.35"), ("0.15", "0.6"), ("0.4", "0.85"), ("0.65", "1.1"))
    with pytest.raises(SizeCapExceeded, match="bitset adjacency unavailable for n=4"):
        ti_from_circle(doubling_map(), cover)


# sha256 of the serialized graph, as computed by the all-pairs ingest
PIN_3000 = "8328b5bba6e29e371054eb43264235296b43ed6a8f92c2437838a26154a1f1d0"


def test_3000_arc_tripling_cover_is_pinned():
    # x -> 3x over arcs [(5i - 1)/15000, (5i + 6)/15000]: each image covers
    # three arcs and each arc meets its two neighbours.  Too large for the
    # Fraction reference in test time, so the bytes are pinned instead.
    intervals = ", ".join(f'["{5 * i - 1}/15000", "{5 * i + 6}/15000"]' for i in range(3000))
    spec = '{"pieces": [{"from": [0, 1], "slope": 3, "intercept": 0}], "intervals": [%s]}'
    cmap, cover, margin = load_map_spec(spec % intervals)
    g = ti_from_circle(cmap, cover, margin)
    assert (g.t.num_edges(), g.i.num_edges()) == (9000, 3000)
    digest = hashlib.sha256(serialize_tigraph(g).encode()).hexdigest()
    assert digest == PIN_3000


_PIECE = '{"from": [0, 1], "slope": 2, "intercept": 0}'


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CircleMap(()), ValidationError, "at least one piece"),
        (
            lambda: CircleMap((AffinePiece(0, Fraction(1, 2), 2, 0), AffinePiece(Fraction(3, 4), 1, 2, 0))),
            ValidationError,
            "gap or overlap at 0.75",
        ),
        (
            lambda: CircleMap((AffinePiece(0, Fraction(1, 2), 2, 0), AffinePiece(Fraction(1, 4), 1, 2, 0))),
            ValidationError,
            "gap or overlap at 0.25",
        ),
        (
            lambda: CircleMap((AffinePiece(0, 0, 2, 0), AffinePiece(0, 1, 2, 0))),
            ValidationError,
            "nonpositive width",
        ),
        (lambda: IntervalCover(()), ValidationError, "at least one arc"),
        (
            lambda: ti_from_circle(doubling_map(), _cover((0, 0.5), (0.5, 1)), margin=Fraction(-1, 100)),
            ValidationError,
            "margin must be >= 0",
        ),
        (lambda: load_map_spec("[]"), ParseError, "expected an object with 'pieces' and 'intervals'"),
        (lambda: load_map_spec('{"pieces": []}'), ParseError, "expected an object with 'pieces'"),
        (
            lambda: load_map_spec(f'{{"pieces": [{_PIECE}], "intervals": [[0.1, 0.6], [0.2]]}}'),
            ParseError,
            r"interval 1: expected \[a, b\]",
        ),
        (
            lambda: load_map_spec(f'{{"pieces": [{_PIECE}], "intervals": [{{"a": 0.1}}]}}'),
            ParseError,
            r"interval 0: expected \[a, b\]",
        ),
    ],
    ids=[
        "no_piece", "gap", "overlap", "empty_piece", "no_arc", "negative_margin",
        "spec_not_object", "spec_without_intervals", "interval_short", "interval_not_list",
    ],
)
def test_ingest_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()
