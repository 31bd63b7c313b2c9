import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermaj import hypercore
from hypermaj.errors import FormatError
from hypermaj.genlab import GenSpec, generate
from hypermaj.hypercore import (
    MAX_VERTICES,
    Colouring,
    Hypergraph,
    Weighting,
    parse_colouring,
    parse_hypergraph,
    parse_weights,
    serialize_colouring,
    serialize_hypergraph,
    serialize_weights,
)
from hypermaj.linearhg import colour_linear
from hypermaj.lll import resample_colour
from hypermaj.partition import colour_partition
from hypermaj.rounder import round_weights


def test_parse_basic():
    h = parse_hypergraph("3 4\n1 2 3\n2 3 4\n1 4\n")
    assert h.n_vertices == 4
    assert len(h.edges) == 3
    assert h.rank() == 3
    assert h.edges[0] == frozenset({0, 1, 2})
    assert h.edges[2] == frozenset({0, 3})


def test_parse_single_edge():
    h = parse_hypergraph("1 2\n1 2\n")
    assert h.n_vertices == 2
    assert h.edges == (frozenset({0, 1}),)
    assert h.rank() == 2


def test_parse_duplicate_vertex_reports_line():
    with pytest.raises(FormatError) as exc:
        parse_hypergraph("2 3\n1 1 2\n3 1\n")
    assert exc.value.line == 2
    assert "duplicate" in str(exc.value)


def test_parse_out_of_range_vertex():
    with pytest.raises(FormatError) as exc:
        parse_hypergraph("1 3\n1 4\n")
    assert exc.value.line == 2


def test_parse_bad_header():
    with pytest.raises(FormatError) as exc:
        parse_hypergraph("3\n1 2\n")
    assert exc.value.line == 1
    for text in ("", "% c\n"):
        with pytest.raises(FormatError) as exc:
            parse_hypergraph(text)
        assert (exc.value.line, exc.value.message) == (1, "missing header")


def test_parse_missing_and_extra_edges():
    with pytest.raises(FormatError):
        parse_hypergraph("2 3\n1 2\n")
    with pytest.raises(FormatError):
        parse_hypergraph("1 3\n1 2\n2 3\n")


def test_parse_comments_and_crlf():
    h = parse_hypergraph("% header comment\r\n2 3\r\n1 2  \r\n% mid\r\n2 3\r\n")
    assert len(h.edges) == 2
    assert h.n_vertices == 3


@pytest.mark.parametrize(
    "parse, data, line, byte",
    [
        (parse_hypergraph, b"\xff\xfe1 2\n1 2\n", 1, "ff"),
        # a valid multi-byte character before the bad byte, and a break
        # that str.splitlines honours (U+2028)
        (parse_hypergraph, "% é\u2028".encode() + b"1 2\r\n1 \xff\n", 3, "ff"),
        # a multi-byte sequence cut short at the end of the file
        (parse_colouring, b"# palette 2\r1\r\n2\n\xc3", 4, "c3"),
        (parse_weights, b"1/2\n\n%\x80\n", 3, "80"),
    ],
)
def test_parsers_refuse_bytes_that_are_not_utf8(parse, data, line, byte):
    with pytest.raises(FormatError) as exc:
        parse(data)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: not UTF-8: cannot decode byte 0x{byte}"


def test_parse_serialize_round_trip():
    rng = random.Random(20)
    for _ in range(25):
        n = rng.randint(1, 12)
        m = rng.randint(0, 15)
        edges = []
        for _ in range(m):
            size = rng.randint(1, min(4, n))
            edges.append(tuple(rng.sample(range(n), size)))
        h = Hypergraph(n, edges)
        again = parse_hypergraph(serialize_hypergraph(h))
        assert again.n_vertices == h.n_vertices
        assert sorted(map(sorted, again.edges)) == sorted(map(sorted, h.edges))


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(3, [()])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(-1, [])


def test_degree_triangle():
    h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    assert h.degree(0) == 2
    assert h.degrees() == (2, 2, 2)
    with pytest.raises(ValueError):
        h.degree(3)


def test_degree_no_edges():
    h = Hypergraph(4, [])
    assert all(h.degree(v) == 0 for v in range(4))
    assert h.rank() == 0
    assert h.min_degree() == 0


def test_degree_multi_edges():
    h = Hypergraph(2, [(0, 1), (0, 1), (0, 1)])
    assert h.degree(1) == 3


def test_min_degree_rank_linear_trivia():
    tri = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    assert tri.min_degree() == 2
    assert tri.rank() == 2


def test_min_degree_zero_vertices_is_error():
    with pytest.raises(ValueError):
        Hypergraph(0, []).min_degree()


def test_min_degree_at_most_average():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 10)
        m = rng.randint(1, 20)
        edges = [
            tuple(rng.sample(range(n), rng.randint(1, min(3, n)))) for _ in range(m)
        ]
        h = Hypergraph(n, edges)
        total = sum(len(e) for e in h.edges)
        assert h.min_degree() <= Fraction(total, n)


def test_incident_edges_sorted():
    h = Hypergraph(3, [(1, 2), (0, 1), (0, 2), (0, 1, 2)])
    assert h.incident_edges(0) == (1, 2, 3)
    assert h.incident_edges(1) == (0, 1, 3)


def test_colouring_validation():
    Colouring([1, 2, 3], 3)
    with pytest.raises(ValueError):
        Colouring([0, 1], 2)
    with pytest.raises(ValueError):
        Colouring([1, 4], 3)
    with pytest.raises(ValueError):
        Colouring([1], 0)


def reference_colouring(colours, palette_size):
    """Colouring's validation before its bulk range check: every colour
    checked by index. Returns (colours, palette_size) or raises."""
    colours = tuple(int(c) for c in colours)
    palette_size = int(palette_size)
    if palette_size < 0:
        raise ValueError("palette_size must be non-negative")
    for i, c in enumerate(colours):
        if not 1 <= c <= palette_size:
            raise ValueError(f"colour {c} of edge {i} outside palette [1, {palette_size}]")
    return colours, palette_size


def reference_serialize_colouring(colours, palette_size):
    """serialize_colouring as it was: one str per line, then one join."""
    lines = [f"# palette {palette_size}"]
    lines.extend(str(col) for col in colours)
    return "\n".join(lines) + "\n"


@st.composite
def colouring_inputs(draw):
    """(colours, palette): colours in the palette, with entries outside it
    (0, negatives, palette + 1 and beyond) inserted at any position,
    palettes from 0 up (and a few negative ones), empty lists, and colours
    given as ints or as digit strings."""
    palette = draw(st.one_of(st.integers(0, 12), st.integers(-2, -1)))
    colours = draw(st.lists(st.integers(1, palette), max_size=16)) if palette >= 1 else []
    # the two values just outside the palette, then wider ones
    outside = st.one_of(
        st.sampled_from((0, palette + 1)),
        st.integers(-3, 0),
        st.integers(max(palette, 0) + 1, palette + 4),
    )
    for _ in range(draw(st.integers(0, 2))):
        colours.insert(draw(st.integers(0, len(colours))), draw(outside))
    if draw(st.booleans()):
        colours = [str(c) for c in colours]
    return colours, palette


def bulk_colouring(colours, palette_size):
    c = Colouring(colours, palette_size)
    return c.colours, c.palette_size


def outcome(build, colours, palette):
    try:
        return "ok", build(colours, palette)
    except ValueError as exc:
        return "ValueError", str(exc)


@settings(max_examples=500, deadline=None)
@given(colouring_inputs())
def test_colouring_bulk_check_matches_per_index_reference(case):
    colours, palette = case
    expected = outcome(reference_colouring, colours, palette)
    assert outcome(bulk_colouring, colours, palette) == expected
    if expected[0] == "ok":
        text = serialize_colouring(Colouring(colours, palette))
        assert text == reference_serialize_colouring(*expected[1])


def test_colouring_round_trip():
    c = Colouring([1, 3, 2, 1], 4)
    text = serialize_colouring(c)
    again = parse_colouring(text)
    assert again.colours == c.colours
    assert again.palette_size == 4


def test_parse_colouring_without_header_uses_max():
    c = parse_colouring("2\n1\n3\n")
    assert c.palette_size == 3
    assert c.colours == (2, 1, 3)


def test_parse_colouring_bad_entry():
    with pytest.raises(FormatError):
        parse_colouring("# palette 3\n1\nx\n")
    with pytest.raises(FormatError):
        parse_colouring("# palette 2\n3\n")


def test_parse_colouring_reports_the_offending_line():
    # line numbers count the header, edges count from 1
    cases = [
        ("# palette 3\n1\n2\n5\n", 4, "colour 5 of edge 3 outside palette [1, 3]"),
        ("# palette 2\n3\n", 2, "colour 3 of edge 1 outside palette [1, 2]"),
        ("# palette 0\n1\n", 2, "colour 1 of edge 1 outside palette [1, 0]"),
        ("# palette -1\n", 1, "palette size -1 must be non-negative"),
        ("# palette -2\n1\n", 1, "palette size -2 must be non-negative"),
        ("# pal 3\n1\n", 1, "malformed colouring header '# pal 3'; expected '# palette <C>'"),
        ("# palette 3\n1\n\n2\n", 3, "empty line in colouring file"),
        ("# palette 3\n0\n", 2, "colour 0 must be at least 1"),
        ("1\n-1\n", 2, "colour -1 must be at least 1"),
    ]
    for text, line, message in cases:
        with pytest.raises(FormatError) as exc:
            parse_colouring(text)
        assert (exc.value.line, exc.value.message) == (line, message)
    assert parse_colouring("# palette 0\n") == Colouring([], 0)


def test_weighting_validation():
    w = Weighting([Fraction(1, 3), 0, 1])
    assert w.weights == (Fraction(1, 3), Fraction(0), Fraction(1))
    assert all(type(x) is Fraction for x in Weighting([0, 1]).weights)
    with pytest.raises(ValueError):
        Weighting([Fraction(3, 2)])
    with pytest.raises(ValueError):
        Weighting([-1])


def test_weighting_wraps_and_range_checks_like_fraction():
    w = Weighting([0, 1, "1/2", "0.25", 0.5, Fraction(2, 4), Fraction(1)])
    half = Fraction(1, 2)
    assert w.weights == (Fraction(0), Fraction(1), half, Fraction(1, 4), half, half, Fraction(1))
    assert all(type(x) is Fraction for x in w.weights)
    for bad, text in (
        (Fraction(3, 2), "3/2"),
        (Fraction(-1, 3), "-1/3"),
        (Fraction(-1), "-1"),
        ("4/3", "4/3"),
        (2, "2"),
    ):
        with pytest.raises(ValueError, match=f"^weight {text} of edge 1 outside \\[0, 1\\]$"):
            Weighting([Fraction(1, 3), bad])
    with pytest.raises(ValueError):
        Weighting(["x"])


def test_parse_rejects_vertex_count_over_limit_before_allocating(monkeypatch):
    def no_build(*args):
        raise AssertionError("Hypergraph built for an over-limit header")

    monkeypatch.setattr(hypercore, "Hypergraph", no_build)
    for n in (MAX_VERTICES + 1, 10**10):
        with pytest.raises(FormatError, match=f"line 1: vertex count {n} exceeds the limit of {MAX_VERTICES}"):
            parse_hypergraph(f"0 {n}\n")


def test_parse_weights_forms():
    w = parse_weights("1/3\n0.25\n1\n0\n")
    assert w.weights == (Fraction(1, 3), Fraction(1, 4), Fraction(1), Fraction(0))
    text = serialize_weights(w)
    assert parse_weights(text).weights == w.weights


def test_parse_weights_expected_count():
    with pytest.raises(FormatError):
        parse_weights("1/2\n", expected=2)
    with pytest.raises(FormatError):
        parse_weights("1/2\n1/2\n1/2\n", expected=2)
    assert len(parse_weights("1/2\n1/2\n", expected=2)) == 2


def test_parse_weights_rejects_out_of_range():
    with pytest.raises(FormatError):
        parse_weights("3/2\n")
    with pytest.raises(FormatError):
        parse_weights("nope\n")


LONG = "9" * 50
CUT = "9" * 32 + "..."
OVER = "7" * 4400  # past the default limit of 4300 digits on int(text)


@pytest.mark.parametrize(
    "parse, text, line, message",
    [
        (parse_hypergraph, f"1 3\n1 {LONG}\n", 2, f"vertex-id {CUT} out of range [1, 3]"),
        (parse_hypergraph, f"1 3\n1 x{LONG}\n", 2, f"invalid vertex-id 'x{'9' * 30}..."),
        (parse_hypergraph, f"1 3\n1 {OVER}\n", 2,
         f"vertex-id '{OVER[:31]}... has 4400 digits, more than Python's limit of 4300 "
         "on converting text to an int"),
        (parse_hypergraph, f"{LONG} 3\n", 1, f"expected {CUT} edges, found 0"),
        (parse_hypergraph, f"{OVER} 3\n", 1, f"header '{OVER[:31]}... has 4400 digits"),
        (parse_colouring, f"# palette 2\n{LONG}\n", 2,
         f"colour {CUT} of edge 1 outside palette [1, 2]"),
        (parse_colouring, f"# palette {LONG}\n{OVER}\n", 2, f"colour '{OVER[:31]}... has 4400"),
        (parse_colouring, f"# palette {OVER}\n", 1, f"palette size '{OVER[:31]}... has 4400"),
        (parse_weights, f"x{LONG}\n", 1, f"invalid weight 'x{'9' * 30}..."),
        (parse_weights, f"1/{OVER}\n", 1, f"weight '1/{OVER[:29]}... has 4400 digits"),
        (parse_weights, f"{LONG}/3\n", 1, f"weight {CUT} outside [0, 1]"),
    ],
    ids=["id-range", "id-invalid", "id-limit", "header-count", "header-limit",
         "colour-palette", "colour-limit", "palette-limit", "weight-invalid", "weight-limit",
         "weight-range"],
)
def test_errors_quote_a_bounded_prefix_of_the_token(parse, text, line, message):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert exc.value.line == line
    assert exc.value.message.startswith(message)
    assert len(exc.value.message) < 160


def test_parse_weights_rejects_exponents():
    # Fraction("1e999999999") would build a billion-digit integer
    for entry in ("1e999999999", "1E-5", "2.5e-1"):
        with pytest.raises(FormatError, match="exponent") as exc:
            parse_weights(f"1/2\n{entry}\n")
        assert exc.value.line == 2


@settings(max_examples=300, deadline=None)
@given(
    (st.integers(0, 8) | st.integers(0, 300)).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sets(st.integers(0, max(n - 1, 0)), min_size=1).map(sorted),
                max_size=12 if n else 0,
            ),
        )
    )
)
# the serializer's labels end at the largest id in use, the last vertex
# or an earlier one
@example((300, [[0, 299], [7]]))
@example((300, [[0, 298], [7]]))
def test_hypergraph_round_trip_property(case):
    n, edges = case
    h = Hypergraph(n, edges)
    assert parse_hypergraph(serialize_hypergraph(h)) == h


def test_serialize_formats_only_the_ids_in_use():
    # one label per vertex up to n would take about 11 MB here
    h = Hypergraph(200_000, [[0, 1]])
    tracemalloc.start()
    try:
        text = serialize_hypergraph(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "1 200000\n1 2\n"
    assert peak < 2**16


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda palette: st.tuples(
            st.just(palette),
            st.lists(st.integers(1, palette), max_size=20),
        )
    )
)
def test_colouring_round_trip_property(case):
    palette, colours = case
    c = Colouring(colours, palette)
    back = parse_colouring(serialize_colouring(c))
    assert (back.colours, back.palette_size) == (c.colours, c.palette_size)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10**6), max_size=20))
def test_weights_round_trip_property(weights):
    w = Weighting(weights)
    assert parse_weights(serialize_weights(w), expected=len(w)).weights == w.weights


def reference_parse(text):
    """parse_hypergraph as it was before edges reached the trusted build:
    the same per-token loop, then the validating constructor, which checks
    range and duplicates again and indexes the edges itself."""
    lines = hypercore._content_lines(text)
    if not lines:
        raise FormatError(1, "missing header")
    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 2:
        raise FormatError(head_no, f"malformed header {head!r}; expected '<num_edges> <num_vertices>'")
    try:
        n_edges, n_vertices = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(head_no, f"malformed header {head!r}; counts must be integers") from None
    if n_edges < 0 or n_vertices < 0:
        raise FormatError(head_no, "header counts must be non-negative")
    if n_vertices > MAX_VERTICES:
        raise FormatError(
            head_no, f"vertex count {n_vertices} exceeds the limit of {MAX_VERTICES}"
        )
    edges = []
    last_no = head_no
    for no, line in lines[1:]:
        last_no = no
        if not line:
            raise FormatError(no, "empty edge line")
        if len(edges) == n_edges:
            raise FormatError(no, f"unexpected extra edge line; header declared {n_edges} edges")
        members = []
        seen = set()
        for tok in line.split():
            try:
                v = int(tok)
            except ValueError:
                raise FormatError(no, f"invalid vertex-id {tok!r}") from None
            if not 1 <= v <= n_vertices:
                raise FormatError(no, f"vertex-id {v} out of range [1, {n_vertices}]")
            if v in seen:
                raise FormatError(no, f"duplicate vertex {v} in edge")
            seen.add(v)
            members.append(v - 1)
        edges.append(members)
    if len(edges) != n_edges:
        raise FormatError(last_no, f"expected {n_edges} edges, found {len(edges)}")
    return Hypergraph(n_vertices, edges)


@st.composite
def hgr_texts(draw):
    """HGR text of a random hypergraph (members in random order, so the
    file order is not sorted), with ids spelled several ways (7, 07, 007,
    +7) and tokens split by spaces or tabs, and up to three corruptions: a
    bad, out-of-range or repeated token (a repeat may be spelled
    differently, as in 2 02), bad tokens on two lines at once, empty,
    blank, extra or missing lines, comments, a broken header. Lines end in
    LF, CRLF, or another break that str.splitlines honours (FF, FS, U+2028),
    and the text comes as str or bytes."""
    # ids up to 20 collide in a small set's hash table, where a frozenset's
    # iteration order depends on the order its members were added
    n = draw(st.integers(0, 20))
    edge = st.lists(st.integers(1, max(n, 1)), min_size=1, max_size=5, unique=True)
    edges = draw(st.lists(edge, max_size=8)) if n else []
    spelling = st.sampled_from(("", "", "0", "00", "+"))
    spaced = st.sampled_from((" ", " ", "\t", " \t "))
    lines = [f"{len(edges)} {n}"] + [
        draw(spaced).join(draw(spelling) + str(v) for v in e) for e in edges
    ]
    bad = st.sampled_from(("x", "1.5", "-1", "0", str(n + 1), "+2", "1_0", "٣"))

    def corrupt(at, tok):
        toks = lines[at].split() or ["1"]
        toks[draw(st.integers(0, len(toks) - 1))] = tok
        lines[at] = " ".join(toks)

    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ("token", "repeat", "two", "empty", "blank", "extra", "missing", "comment", "header")
        ))
        at = draw(st.integers(1, len(lines)))
        if kind == "token" and len(lines) > 1:
            corrupt(min(at, len(lines) - 1), draw(bad))
        elif kind == "two" and len(lines) > 2:
            first, second = sorted(draw(st.sets(st.integers(1, len(lines) - 1), min_size=2, max_size=2)))
            corrupt(first, draw(bad))
            corrupt(second, draw(bad))
        elif kind == "repeat" and len(lines) > 1:
            at = min(at, len(lines) - 1)
            toks = lines[at].split() or ["1"]
            i = draw(st.integers(0, len(toks) - 1))
            toks.insert(draw(st.integers(0, len(toks))), draw(spelling) + toks[i])
            lines[at] = " ".join(toks)
        elif kind in ("empty", "blank", "comment", "extra"):
            text = {"empty": "", "blank": "   ", "comment": draw(st.sampled_from(("% c", "  %x 1 2", "\t%")))}
            lines.insert(at, text.get(kind, "1"))
        elif kind == "missing" and len(lines) > 1:
            del lines[at if at < len(lines) else 1]
        elif kind == "header":
            lines[0] = draw(st.sampled_from(
                ("", "3", "x 2", f"{len(edges)} {n} 1", f"-1 {n}", f"{len(edges) + 1} {n}",
                 f"{len(edges)} {MAX_VERTICES + 1}", f"{max(len(edges) - 1, 0)} {n}")
            ))
    sep = draw(st.sampled_from(("\n", "\r\n", "\x0c", "\x1c", "\u2028")))
    text = sep.join(lines) + draw(st.sampled_from(("", sep, "  " + sep)))
    return text.encode() if draw(st.booleans()) else text


def parse_outcome(parse, text):
    try:
        h = parse(text)
    except FormatError as exc:
        return ("error", exc.line, str(exc))
    return (
        h.n_vertices,
        h.edges,
        [list(e) for e in h.edges],
        h.degrees(),
        [h.incident_edges(v) for v in range(h.n_vertices)],
    )


@settings(max_examples=400, deadline=None)
@given(hgr_texts())
def test_parse_matches_reference_property(text):
    assert parse_outcome(parse_hypergraph, text) == parse_outcome(reference_parse, text)


def test_parse_stops_at_the_first_extra_edge_line():
    # a file far longer than its header says is refused without an edge
    # built for every line: 100000 frozensets would take about 21 MB more
    text = "1 2\n" + "1 2\n" * 100_000
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="^line 3: unexpected extra edge line"):
            parse_hypergraph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_trusted_build_indexes_like_the_constructor():
    edges = [(2, 0), (1,), (0, 1, 2), (1,)]
    public = Hypergraph(4, edges)
    h = Hypergraph._trusted(4, [frozenset(e) for e in edges])
    assert h == public
    assert h.degrees() == public.degrees() == (2, 3, 2, 0)
    assert h.incidence() == public.incidence() == ((0, 2), (1, 2, 3), (0, 2), ())


@st.composite
def shuffled_instances(draw):
    """A uniform instance at the partition bound 2rk^2 for k = 2 (r 2-3,
    n 9-14), fractional weights for it, and its edges with their members
    in a random order. Ids past 8 collide in a small set's hash table, so
    the shuffled frozensets can iterate in another order."""
    r = draw(st.integers(2, 3))
    n = draw(st.integers(9, 14))
    h = generate(GenSpec("uniform", n, r, 8 * r, draw(st.integers(0, 10**6))))
    # a Random from one drawn seed makes the weights and the orders, as
    # some hundred drawn values would overrun hypothesis's data buffer
    rng = random.Random(draw(st.integers(0, 2**32)))
    qs = (1, 2, 3, 5, 12, 97)
    z = Weighting([Fraction(rng.randint(0, q), q) for q in rng.choices(qs, k=len(h.edges))])
    shuffled = [rng.sample(sorted(fs), len(fs)) for fs in h.edges]
    return h, z, shuffled


def routes(h, z):
    run = resample_colour(h, 2, 5, max_rounds=200)
    return (
        round_weights(h, z),
        colour_partition(h, 2).colours,
        (run.outcome, run.rounds_used, run.colouring.colours),
        colour_linear(h, 2).colours,
    )


@settings(max_examples=25, deadline=None)
@given(shuffled_instances())
def test_member_order_leaves_every_route_unchanged(case):
    # the rounder, the partition colourer, the resampler and the linear
    # colourer read an edge as a set: the order its members were given in,
    # through the constructor or an HGR line, changes none of their results
    h, z, shuffled = case
    text = f"{len(shuffled)} {h.n_vertices}\n" + "".join(
        " ".join(str(v + 1) for v in members) + "\n" for members in shuffled
    )
    expected = routes(h, z)
    assert routes(Hypergraph(h.n_vertices, shuffled), z) == expected
    assert routes(parse_hypergraph(text), z) == expected
