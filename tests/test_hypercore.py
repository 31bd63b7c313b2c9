import random
from fractions import Fraction

import pytest

from hypermaj.errors import FormatError
from hypermaj.hypercore import (
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
