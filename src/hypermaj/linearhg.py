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

H* is built from the split itself: block j of vertex u is the incidence
of one sub-vertex, so the blocks are H*'s incidence lists and each edge's
members are collected in the same pass, with nothing re-derived or
re-validated. Its guarantees are certified from what that pass has:
every block holds at most k+1 edges; no edge pair occurs in two blocks
(two edges sharing two sub-vertices would put their pair in both), so
H* is linear; and every edge gets as many distinct sub-vertices as it
has vertices, so sizes and the rank are unchanged.

Determinism: incident edges are dealt to sub-vertices in ascending
edge-id order, and the greedy scan also runs in ascending node order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvariantBreach, PreconditionError
from .hypercore import Colouring, Hypergraph

__all__ = [
    "VertexSplit",
    "LineGraph",
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
class LineGraph:
    """Nodes are hyperedge ids; two nodes are adjacent when their
    hyperedges share at least one vertex."""

    n_nodes: int
    neighbours: tuple[tuple[int, ...], ...]

    def max_degree(self) -> int:
        return max((len(nb) for nb in self.neighbours), default=0)


def _deal(incident: tuple[int, ...], k: int) -> VertexSplit:
    """Deal a vertex's ascending incident edge ids into blocks: the
    first m = d mod k blocks take k+1 edges, the remaining t - m take k,
    where t = floor(d/k) for degree d; t >= m needs d >= k^2 - k."""
    t, m = divmod(len(incident), k)
    cut = m * (k + 1)
    blocks = [incident[i : i + k + 1] for i in range(0, cut, k + 1)]
    blocks += [incident[i : i + k] for i in range(cut, len(incident), k)]
    return VertexSplit(m, t, tuple(blocks))


def split_hypergraph(
    h_graph: Hypergraph, k: int
) -> tuple[Hypergraph, tuple[VertexSplit, ...]]:
    """Replace each vertex by its sub-vertices; every edge keeps its id
    and size, with each endpoint swapped for the sub-vertex it was dealt
    to. The result has max degree at most k+1 and is again linear.

    Returns H* and one VertexSplit per vertex. Sub-vertices are numbered
    vertex by vertex, so sub-vertex j of u has global id j plus the t of
    all vertices before u."""
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
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
    edges = h_graph.edges
    splits = [_deal(incident, k) for incident in h_graph.incidence()]
    # Sub-vertices are numbered vertex by vertex, so the s-th block overall
    # is the incidence of sub-vertex s; an edge pair seen in two blocks is
    # two edges sharing two sub-vertices.
    blocks = [block for split in splits for block in split.blocks]
    members: list[list[int]] = [[] for _ in edges]
    first: dict[tuple[int, int], int] = {}
    for s, block in enumerate(blocks):
        for e in block:
            members[e].append(s)
        for pair in itertools.combinations(block, 2):
            if pair in first:
                raise InvariantBreach(
                    "split hypergraph is not linear",
                    edges=pair,
                    sub_vertices=(first[pair], s),
                )
            first[pair] = s
    max_degree = max(map(len, blocks), default=0)
    if max_degree > k + 1:
        raise InvariantBreach(
            "split left a sub-vertex above degree k+1", max_degree=max_degree, k=k
        )
    # |e| distinct sub-vertices per edge also keeps the rank
    new_edges = [frozenset(ms) for ms in members]
    for e, (fs, ms, sub) in enumerate(zip(edges, members, new_edges)):
        if not len(fs) == len(ms) == len(sub):
            raise InvariantBreach(
                "split changed the size of an edge",
                edge=e,
                size=len(fs),
                split_size=len(sub),
                dealt=len(ms),
            )
    h_star = Hypergraph._trusted(len(blocks), new_edges, blocks)
    return h_star, tuple(splits)


def line_graph(h_star: Hypergraph) -> LineGraph:
    """Line graph of a hypergraph. The degree of any node is at most
    rank * (max_degree - 1), since each of its at most `rank` vertices
    contributes at most max_degree - 1 other edges."""
    m = len(h_star.edges)
    incidence = h_star.incidence()
    neighbours = []
    for e, fs in enumerate(h_star.edges):
        nb = {f for v in fs for f in incidence[v]}
        nb.discard(e)
        neighbours.append(tuple(sorted(nb)))
    lg = LineGraph(m, tuple(neighbours))
    if m:
        cap = h_star.rank() * max(h_star.max_degree() - 1, 0)
        top = lg.max_degree()
        if top > cap:
            raise InvariantBreach(
                "line graph degree exceeded its cap", max_degree=top, cap=cap
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
