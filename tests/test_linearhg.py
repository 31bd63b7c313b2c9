import random

import pytest

from hypermaj import linearhg
from hypermaj.errors import InvariantBreach, PreconditionError
from hypermaj.genlab import GenSpec, complete_graph, generate, verify
from hypermaj.hypercore import Colouring, Hypergraph
from hypermaj.linearhg import (
    LineGraph,
    colour_linear,
    greedy_colour,
    line_graph,
    split_degrees,
    split_hypergraph,
)

FANO = Hypergraph(
    7,
    [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)],
)


def test_split_degrees_mixed():
    assert split_degrees(7, 3) == (1, 2)


def test_split_degrees_at_minimum():
    for k in (2, 3, 4, 5):
        assert split_degrees(k * k - k, k) == (0, k - 1)


def test_split_degrees_even():
    assert split_degrees(8, 2) == (0, 4)


def test_split_degrees_preconditions():
    with pytest.raises(PreconditionError):
        split_degrees(5, 1)
    with pytest.raises(PreconditionError):
        split_degrees(1, 2)
    with pytest.raises(PreconditionError):
        split_degrees(5, 3)  # below 3^2 - 3 = 6


def test_split_fano_is_identity():
    # all degrees 3, k=2: m=1, t=1, a single sub-vertex of degree 3
    assert FANO.is_linear()
    h_star, smap = split_hypergraph(FANO, 2)
    assert h_star.n_vertices == 7
    assert h_star.max_degree() == 3  # = k+1
    assert h_star.is_linear()
    assert all(s.m == 1 and s.t == 1 for s in smap.splits)
    assert sorted(map(sorted, h_star.edges)) == sorted(map(sorted, FANO.edges))


def test_split_degree2_graph_identity():
    # every degree exactly 2, k=2: (m, t) = (0, 1), no actual split
    cycle = Hypergraph(5, [(i, (i + 1) % 5) for i in range(5)])
    h_star, smap = split_hypergraph(cycle, 2)
    assert h_star.n_vertices == 5
    assert all(s.m == 0 and s.t == 1 for s in smap.splits)


def test_split_counts_conserved():
    rng = random.Random(17)
    for seed in range(4):
        h = generate(GenSpec(model="linear", n=30, r=3, min_degree=7, seed=seed))
        for k in (2, 3):
            h_star, smap = split_hypergraph(h, k)
            assert h_star.n_vertices == sum(s.t for s in smap.splits)
            assert h_star.rank() == h.rank()
            assert h_star.max_degree() <= k + 1
            assert h_star.is_linear()
            for u in range(h.n_vertices):
                sizes = sorted(len(b) for b in smap.splits[u].blocks)
                assert sum(sizes) == h.degree(u)
                m, t = smap.splits[u].m, smap.splits[u].t
                assert sizes == sorted([k + 1] * m + [k] * (t - m))


def test_split_rejects_low_degree():
    path = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    with pytest.raises(PreconditionError):
        split_hypergraph(path, 2)  # vertex 0 has degree 1 < k^2 - k


def test_split_blocks_ascending_edge_order():
    # K5 with a sixth vertex tied to 0 and 1: those two reach degree 5,
    # so k=2 gives (m, t) = (1, 2) with block sizes 3 then 2, dealt in
    # ascending edge-id order
    base = complete_graph(5)
    h = Hypergraph(6, list(base.edges) + [(0, 5), (1, 5)])
    h_star, smap = split_hypergraph(h, 2)
    split0 = smap.splits[0]
    assert (split0.m, split0.t) == (1, 2)
    incident0 = h.incident_edges(0)
    assert split0.blocks == (incident0[:3], incident0[3:])
    # an untouched degree-4 vertex splits evenly
    split4 = smap.splits[4]
    assert (split4.m, split4.t) == (0, 2)
    assert all(len(b) == 2 for b in split4.blocks)


def test_split_rejects_non_linear():
    h = Hypergraph(4, [(0, 1, 2), (0, 1, 3), (2, 3, 0), (1, 2, 3)])
    with pytest.raises(PreconditionError) as exc:
        split_hypergraph(h, 2)
    assert "linear" in str(exc.value)
    # edges are named 1-based, as in every diagnostic
    assert "edges 1 and 2" in str(exc.value)


def test_line_graph_triangle():
    tri = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    lg = line_graph(tri)
    assert lg.neighbours == ((1, 2), (0, 2), (0, 1))


def test_line_graph_single_edge():
    lg = line_graph(Hypergraph(3, [(0, 1, 2)]))
    assert lg.n_nodes == 1
    assert lg.neighbours == ((),)


def test_line_graph_star_is_clique():
    star3 = Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
    lg = line_graph(star3)
    assert lg.neighbours == ((1, 2), (0, 2), (0, 1))
    assert lg.max_degree() == 2


def test_line_graph_of_fano_is_k7():
    lg = line_graph(FANO)
    assert lg.n_nodes == 7
    assert all(len(nb) == 6 for nb in lg.neighbours)


def test_greedy_on_clique_uses_clique_size():
    tri = LineGraph(3, ((1, 2), (0, 2), (0, 1)))
    assert greedy_colour(tri) == (1, 2, 3)


def test_greedy_no_edges_single_colour():
    lg = LineGraph(4, ((), (), (), ()))
    assert greedy_colour(lg) == (1, 1, 1, 1)


def test_greedy_path_default_order():
    # ascending node order: node 0 takes 1, the middle 2, node 2 reuses 1;
    # with the hub at node 0 both leaves take 2
    path = LineGraph(3, ((1,), (0, 2), (1,)))
    assert greedy_colour(path) == (1, 2, 1)
    middle_first = LineGraph(3, ((1, 2), (0,), (0,)))
    assert greedy_colour(middle_first) == (1, 2, 2)


def test_greedy_properties_random():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 15)
        nbrs = [set() for _ in range(n)]
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.sample(range(n), 2) if n >= 2 else (0, 0)
            if a != b:
                nbrs[a].add(b)
                nbrs[b].add(a)
        lg = LineGraph(n, tuple(tuple(sorted(s)) for s in nbrs))
        colours = greedy_colour(lg)
        for node in range(n):
            assert colours[node] <= len(lg.neighbours[node]) + 1
            for nb in lg.neighbours[node]:
                assert colours[node] != colours[nb]


def test_colour_linear_fano_exactly_proper():
    c = colour_linear(FANO, 2)
    assert c.palette_size == 2 * 3 + 1
    assert verify(FANO, 2, c).valid
    # t_u = 1 everywhere forces a proper edge colouring, and the line
    # graph is K7, so all seven colours appear
    assert sorted(set(c.colours)) == [1, 2, 3, 4, 5, 6, 7]
    for i in range(7):
        for j in range(i + 1, 7):
            if set(FANO.edges[i]) & set(FANO.edges[j]):
                assert c[i] != c[j]


def test_colour_linear_graph_palette_5():
    h = generate(GenSpec(model="graph", n=18, r=2, min_degree=5, seed=9))
    c = colour_linear(h, 2)
    assert c.palette_size == 5
    assert verify(h, 2, c).valid


def test_colour_linear_complete_graph():
    h = complete_graph(9)
    c = colour_linear(h, 2)
    assert verify(h, 2, c).valid


def test_colour_linear_seeded_grid():
    rng = random.Random(29)
    for r, k in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for _ in range(3):
            h = generate(
                GenSpec(
                    model="linear",
                    n=12 * r,
                    r=r,
                    min_degree=k * k - k + rng.randint(0, 2),
                    seed=rng.randint(0, 10**6),
                )
            )
            c = colour_linear(h, k)
            assert c.palette_size == k * h.rank() + 1
            rep = verify(h, k, c)
            assert rep.valid
            # per-colour count at u never exceeds floor(d(u)/k)
            for u in range(h.n_vertices):
                per = {}
                for e in h.incident_edges(u):
                    per[c[e]] = per.get(c[e], 0) + 1
                if per:
                    assert max(per.values()) <= h.degree(u) // k


def test_colour_linear_propagates_preconditions():
    with pytest.raises(PreconditionError):
        colour_linear(Hypergraph(4, [(0, 1, 2), (0, 1, 3)]), 2)
    low = Hypergraph(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionError):
        colour_linear(low, 3)


def test_colour_linear_empty_hypergraph():
    assert colour_linear(Hypergraph(0, []), 2) == Colouring((), 1)


def test_colour_linear_breach_when_greedy_overflows_palette(monkeypatch):
    # a greedy step that ignored its degree bound would hand back a
    # colour beyond k*rank+1; the colourer must refuse it
    monkeypatch.setattr(linearhg, "greedy_colour", lambda lg: (6,) * lg.n_nodes)
    with pytest.raises(InvariantBreach) as exc:
        colour_linear(complete_graph(4), 2)
    assert exc.value.context == {"colour": 6, "palette": 5}
