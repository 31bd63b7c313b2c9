"""Majority colouring of linear hypergraphs via vertex splitting.

For a linear hypergraph (no two edges share more than one vertex) with
minimum degree at least k^2 - k, a kr+1 palette suffices where r is the
rank. The route:

  1. Split every vertex u into t_u = floor(d(u)/k) sub-vertices, the
     first m_u = d(u) mod k of degree k+1 and the rest of degree k.
     The resulting hypergraph H* has max degree k+1 and stays linear.
  2. Build the line graph of H*; its max degree is at most kr.
  3. Greedily colour the line graph with at most kr+1 colours.
  4. Read the node colours back as edge colours of H (the split leaves
     edge ids untouched). No colour repeats at a sub-vertex, so at each
     original vertex u a colour appears at most t_u times.

Determinism: incident edges are dealt to sub-vertices in ascending
edge-id order, and the greedy scan also runs in ascending node order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantBreach, PreconditionError
from .hypercore import Colouring, Hypergraph

__all__ = [
    "VertexSplit",
    "SplitMap",
    "LineGraph",
    "split_degrees",
    "split_hypergraph",
    "line_graph",
    "greedy_colour",
    "colour_linear",
]


@dataclass(frozen=True)
class VertexSplit:
    """How one vertex splits: blocks[j] lists the edge ids handled by
    sub-vertex j. The first m blocks have k+1 edges, the remaining
    t - m have k."""

    m: int
    t: int
    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SplitMap:
    """Per-vertex splits; sub-vertices are numbered vertex by vertex, so
    sub-vertex j of u has global id j plus the t of all vertices before
    u."""

    splits: tuple[VertexSplit, ...]


@dataclass(frozen=True)
class LineGraph:
    """Nodes are hyperedge ids; two nodes are adjacent when their
    hyperedges share at least one vertex."""

    n_nodes: int
    neighbours: tuple[tuple[int, ...], ...]

    def max_degree(self) -> int:
        return max((len(nb) for nb in self.neighbours), default=0)


def split_degrees(d: int, k: int) -> tuple[int, int]:
    """(m, t) with d = m + t*k, 0 <= m < k, i.e. m = d mod k and
    t = floor(d/k). Requires d >= k^2 - k so that t >= m."""
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    if d < k * k - k:
        raise PreconditionError(
            f"degree {d} below k^2 - k = {k * k - k} for k = {k}"
        )
    return d % k, d // k


def split_hypergraph(h_graph: Hypergraph, k: int) -> tuple[Hypergraph, SplitMap]:
    """Replace each vertex by its sub-vertices; every edge keeps its id
    and size, with each endpoint swapped for the sub-vertex it was dealt
    to. The result has max degree at most k+1 and is again linear."""
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
    splits: list[VertexSplit] = []
    sub_of: list[dict[int, int]] = []
    total = 0
    for u in range(h_graph.n_vertices):
        incident = h_graph.incident_edges(u)
        m, t = split_degrees(len(incident), k)
        blocks: list[tuple[int, ...]] = []
        lookup: dict[int, int] = {}
        pos = 0
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
    new_edges = [
        tuple(sub_of[v][e] for v in edge) for e, edge in enumerate(h_graph.edges)
    ]
    h_star = Hypergraph(total, new_edges)
    max_degree = max(h_star.degrees(), default=0)
    if max_degree > k + 1:
        raise InvariantBreach(
            "split left a sub-vertex above degree k+1", max_degree=max_degree, k=k
        )
    witness = h_star.linearity_witness()
    if witness is not None:
        raise InvariantBreach("split hypergraph is not linear", edges=witness)
    if h_star.rank() != h_graph.rank():
        raise InvariantBreach(
            "split changed the rank", rank=h_graph.rank(), split_rank=h_star.rank()
        )
    return h_star, SplitMap(tuple(splits))


def line_graph(h_star: Hypergraph) -> LineGraph:
    """Line graph of a hypergraph. The degree of any node is at most
    rank * (max_degree - 1), since each of its at most `rank` vertices
    contributes at most max_degree - 1 other edges."""
    m = len(h_star.edges)
    neighbour_sets: list[set[int]] = [set() for _ in range(m)]
    for v in range(h_star.n_vertices):
        incident = h_star.incident_edges(v)
        for a in range(len(incident)):
            for b in range(a + 1, len(incident)):
                neighbour_sets[incident[a]].add(incident[b])
                neighbour_sets[incident[b]].add(incident[a])
    lg = LineGraph(m, tuple(tuple(sorted(s)) for s in neighbour_sets))
    if m:
        cap = h_star.rank() * max(h_star.max_degree() - 1, 0)
        if lg.max_degree() > cap:
            raise InvariantBreach(
                "line graph degree exceeded its cap",
                max_degree=lg.max_degree(),
                cap=cap,
            )
    return lg


def greedy_colour(lg: LineGraph) -> tuple[int, ...]:
    """First-fit proper node colouring in ascending node order. Each node
    gets the smallest colour unused among its already-coloured
    neighbours, so no colour exceeds its degree + 1."""
    colours = [0] * lg.n_nodes
    for node in range(lg.n_nodes):
        used = {colours[nb] for nb in lg.neighbours[node] if colours[nb]}
        c = 1
        while c in used:
            c += 1
        colours[node] = c
    return tuple(colours)


def colour_linear(h_graph: Hypergraph, k: int) -> Colouring:
    """Colouring with palette k*rank+1 in which every vertex u sees each
    colour at most floor(d(u)/k) times. Input must be linear with
    minimum degree at least k^2 - k."""
    h_star, _ = split_hypergraph(h_graph, k)
    colours = greedy_colour(line_graph(h_star))
    palette = k * h_graph.rank() + 1
    top = max(colours, default=0)
    if top > palette:
        raise InvariantBreach(
            "greedy colouring exceeded the k*rank+1 palette", colour=top, palette=palette
        )
    return Colouring(colours, palette)
