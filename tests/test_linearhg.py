import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermaj import cli, linearhg
from hypermaj.errors import InvariantBreach, PreconditionError
from hypermaj.genlab import GenSpec, complete_graph, generate, verify
from hypermaj.hypercore import Colouring, Hypergraph, serialize_colouring
from hypermaj.linearhg import (
    LineGraph,
    SplitMap,
    VertexSplit,
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


def reference_split(h_graph, k):
    """split_hypergraph as it was before H* was built from its blocks: a
    sub-vertex lookup per vertex, H* through the validating constructor,
    and its linearity checked by a second pass over H*."""
    witness = h_graph.linearity_witness()
    if witness is not None:
        raise PreconditionError(
            f"input is not linear: edges {witness[0] + 1} and {witness[1] + 1}"
            " share two or more vertices"
        )
    delta = min(h_graph.degrees(), default=k * k - k)
    if delta < k * k - k:
        raise PreconditionError(
            f"min degree {delta} below k^2 - k = {k * k - k} for k = {k}"
        )
    splits, sub_of, total = [], [], 0
    for u in range(h_graph.n_vertices):
        incident = h_graph.incident_edges(u)
        m, t = split_degrees(len(incident), k)
        blocks, lookup, pos = [], {}, 0
        for j in range(t):
            size = k + 1 if j < m else k
            block = tuple(incident[pos : pos + size])
            blocks.append(block)
            for e in block:
                lookup[e] = total + j
            pos += size
        splits.append(VertexSplit(m, t, tuple(blocks)))
        sub_of.append(lookup)
        total += t
    new_edges = [tuple(sub_of[v][e] for v in edge) for e, edge in enumerate(h_graph.edges)]
    h_star = Hypergraph(total, new_edges)
    assert max(h_star.degrees(), default=0) <= k + 1
    assert h_star.linearity_witness() is None
    assert h_star.rank() == h_graph.rank()
    return h_star, SplitMap(tuple(splits))


def reference_line_graph(h_star):
    """Line graph from every pair of edges at each vertex."""
    neighbour_sets = [set() for _ in h_star.edges]
    for v in range(h_star.n_vertices):
        incident = h_star.incident_edges(v)
        for a in range(len(incident)):
            for b in range(a + 1, len(incident)):
                neighbour_sets[incident[a]].add(incident[b])
                neighbour_sets[incident[b]].add(incident[a])
    return tuple(tuple(sorted(s)) for s in neighbour_sets)


@st.composite
def linear_cases(draw):
    """(h, k): generated linear and graph instances, and hand-made linear
    ones whose low-degree vertices are topped up with repeated size-1
    edges; some keep an isolated vertex or a vertex below k^2 - k, which
    the split must reject exactly as the reference does."""
    k = draw(st.integers(2, 3))
    model = draw(st.sampled_from(("linear", "graph", "hand")))
    if model != "hand":
        r = 2 if model == "graph" else draw(st.integers(3, 4))
        degree = draw(st.integers(k * k - k, k * k - k + 3))
        # about twice the vertices a vertex's edges span, so the generator
        # never runs out of linear edges to draw
        n = draw(st.integers(2 * degree * (r - 1) + 2, 2 * degree * (r - 1) + 10))
        return generate(GenSpec(model, n, r, degree, draw(st.integers(0, 2**16)))), k
    n = draw(st.integers(1, 10))
    edges, pairs = [], set()
    edge = st.lists(st.integers(0, n - 1), min_size=min(n, 2), max_size=4, unique=True)
    for members in draw(st.lists(edge, max_size=14)):
        inside = {(a, b) for a in members for b in members if a < b}
        if not inside & pairs:
            pairs |= inside
            edges.append(members)
    degree = [0] * n
    for e in edges:
        for v in e:
            degree[v] += 1
    skipped = draw(st.sets(st.integers(0, n - 1), max_size=1))
    for v in range(n):
        if v not in skipped:
            edges += [[v]] * max(0, k * k - k - degree[v] + draw(st.integers(0, 3)))
    draw(st.randoms()).shuffle(edges)
    return Hypergraph(n, edges), k


def split_outcome(split, lg, h, k):
    try:
        h_star, smap = split(h, k)
    except PreconditionError as exc:
        return ("precondition", str(exc))
    return (
        h_star.n_vertices,
        h_star.edges,
        h_star.degrees(),
        [h_star.incident_edges(v) for v in range(h_star.n_vertices)],
        smap,
        lg(h_star),
    )


@settings(max_examples=300, deadline=None)
@given(linear_cases())
def test_split_matches_reference_property(case):
    h, k = case
    assert split_outcome(
        split_hypergraph, lambda hs: line_graph(hs).neighbours, h, k
    ) == split_outcome(reference_split, reference_line_graph, h, k)


# sha256 of golden_linear_digest(), recorded before H* was built from its
# blocks: the colouring file and the --emit-split text of each instance.
GOLDEN_LINEAR_SHA256 = "5631c2a483d7e82734f715a1f5b57e1178a4e34b85db038152d91b3a82620579"


def golden_linear_digest():
    cases = [
        (GenSpec("graph", 30, 2, 6, 1), 2),
        (GenSpec("graph", 40, 2, 9, 2), 3),
        (GenSpec("linear", 36, 3, 4, 3), 2),
        (GenSpec("linear", 45, 3, 7, 4), 3),
        (GenSpec("linear", 48, 4, 5, 5), 2),
        (GenSpec("linear", 60, 4, 12, 6), 4),
    ]
    digest = hashlib.sha256()
    for spec, k in cases:
        h = generate(spec)
        digest.update(serialize_colouring(colour_linear(h, k)).encode())
        digest.update(cli._split_lines(split_hypergraph(h, k)[1]).encode())
    return digest.hexdigest()


def test_colour_linear_golden_digest():
    assert golden_linear_digest() == GOLDEN_LINEAR_SHA256


def test_split_breach_sub_vertex_above_degree_k_plus_1(monkeypatch):
    # one block per vertex: sub-vertex degree d(u) = 4 in K5, one above k+1
    monkeypatch.setattr(linearhg, "_deal", lambda incident, k: VertexSplit(0, 1, (incident,)))
    with pytest.raises(InvariantBreach, match="above degree k\\+1") as exc:
        split_hypergraph(complete_graph(5), 2)
    assert exc.value.context == {"max_degree": 4, "k": 2}


def test_split_breach_not_linear(monkeypatch):
    # dealing each vertex's first block twice puts vertex 0's first edge
    # pair in blocks 0 and 2, so those two edges share two sub-vertices
    real = linearhg._deal

    def deal_twice(incident, k):
        split = real(incident, k)
        return VertexSplit(split.m, split.t + 1, split.blocks + split.blocks[:1])

    monkeypatch.setattr(linearhg, "_deal", deal_twice)
    h = complete_graph(5)
    with pytest.raises(InvariantBreach, match="not linear") as exc:
        split_hypergraph(h, 2)
    first = real(h.incident_edges(0), 2).blocks[0]
    assert exc.value.context == {"edges": first[:2], "sub_vertices": (0, 2)}


def test_split_breach_edge_size(monkeypatch):
    # dropping a vertex's last block leaves its edges one member short
    real = linearhg._deal

    def drop_last(incident, k):
        split = real(incident, k)
        return VertexSplit(split.m, split.t - 1, split.blocks[:-1])

    monkeypatch.setattr(linearhg, "_deal", drop_last)
    with pytest.raises(InvariantBreach, match="size of an edge") as exc:
        split_hypergraph(FANO, 2)
    assert exc.value.context == {"edge": 0, "size": 3, "split_size": 0, "dealt": 0}

