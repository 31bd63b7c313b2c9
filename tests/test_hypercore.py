import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermaj import hypercore
from hypermaj.errors import FormatError
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


def test_parse_missing_and_extra_edges():
    with pytest.raises(FormatError):
        parse_hypergraph("2 3\n1 2\n")
    with pytest.raises(FormatError):
        parse_hypergraph("1 3\n1 2\n2 3\n")


def test_parse_comments_and_crlf():
    h = parse_hypergraph("% header comment\r\n2 3\r\n1 2  \r\n% mid\r\n2 3\r\n")
    assert len(h.edges) == 2
    assert h.n_vertices == 3


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
    assert not h.is_linear()  # repeated size-2 edge shares both vertices


def test_min_degree_rank_linear_trivia():
    tri = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    assert tri.min_degree() == 2
    assert tri.rank() == 2
    assert tri.is_linear()

    h = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
    assert not h.is_linear()
    assert h.linearity_witness() == (0, 1)

    h2 = Hypergraph(6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    assert h2.is_linear()
    assert h2.linearity_witness() is None


def test_min_degree_zero_vertices_is_error():
    with pytest.raises(ValueError):
        Hypergraph(0, []).min_degree()


def test_is_linear_edge_order_invariant():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(3, 10)
        edges = [
            tuple(rng.sample(range(n), rng.randint(2, 3))) for _ in range(rng.randint(2, 8))
        ]
        h = Hypergraph(n, edges)
        shuffled = list(edges)
        rng.shuffle(shuffled)
        assert h.is_linear() == Hypergraph(n, shuffled).is_linear()


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


def test_parse_weights_rejects_exponents():
    # Fraction("1e999999999") would build a billion-digit integer
    for entry in ("1e999999999", "1E-5", "2.5e-1"):
        with pytest.raises(FormatError, match="exponent") as exc:
            parse_weights(f"1/2\n{entry}\n")
        assert exc.value.line == 2


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sets(st.integers(0, n - 1), min_size=1).map(sorted), max_size=12
            ),
        )
    )
)
def test_hypergraph_round_trip_property(case):
    n, edges = case
    h = Hypergraph(n, edges)
    back = parse_hypergraph(serialize_hypergraph(h))
    assert (back.n_vertices, back.edges) == (h.n_vertices, h.edges)


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
    file order is not sorted), with up to three corruptions: a bad,
    out-of-range or repeated token, empty, blank, extra or missing lines,
    comments, a broken header, CRLF line ends, bytes instead of str."""
    # ids up to 20 collide in a small set's hash table, where a frozenset's
    # iteration order depends on the order its members were added
    n = draw(st.integers(0, 20))
    edge = st.lists(st.integers(1, max(n, 1)), min_size=1, max_size=5, unique=True)
    edges = draw(st.lists(edge, max_size=8)) if n else []
    lines = [f"{len(edges)} {n}"] + [" ".join(map(str, e)) for e in edges]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ("token", "repeat", "empty", "blank", "extra", "missing", "comment", "header")
        ))
        at = draw(st.integers(1, len(lines)))
        if kind in ("token", "repeat") and len(lines) > 1:
            at = min(at, len(lines) - 1)
            toks = lines[at].split() or ["1"]
            i = draw(st.integers(0, len(toks) - 1))
            if kind == "token":
                toks[i] = draw(st.sampled_from(("x", "1.5", "-1", "0", str(n + 1), "+2", "1_0", "٣")))
            else:
                toks.insert(draw(st.integers(0, len(toks))), toks[i])
            lines[at] = " ".join(toks)
        elif kind in ("empty", "blank", "comment", "extra"):
            text = {"empty": "", "blank": "   ", "comment": draw(st.sampled_from(("% c", "  %x 1 2")))}
            lines.insert(at, text.get(kind, "1"))
        elif kind == "missing" and len(lines) > 1:
            del lines[at if at < len(lines) else 1]
        elif kind == "header":
            lines[0] = draw(st.sampled_from(
                ("", "3", "x 2", f"{len(edges)} {n} 1", f"-1 {n}", f"{len(edges) + 1} {n}",
                 f"{len(edges)} {MAX_VERTICES + 1}", f"{max(len(edges) - 1, 0)} {n}")
            ))
    sep = draw(st.sampled_from(("\n", "\r\n")))
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


def test_trusted_build_indexes_like_the_constructor():
    edges = [(2, 0), (1,), (0, 1, 2), (1,)]
    public = Hypergraph(4, edges)
    trusted = Hypergraph._trusted(4, [frozenset(e) for e in edges])
    given_incidence = Hypergraph._trusted(4, [frozenset(e) for e in edges], [[0, 2], [1, 2, 3], [0, 2], []])
    for h in (trusted, given_incidence):
        assert h == public
        assert h.degrees() == public.degrees() == (2, 3, 2, 0)
        assert h.incidence() == public.incidence() == ((0, 2), (1, 2, 3), (0, 2), ())
