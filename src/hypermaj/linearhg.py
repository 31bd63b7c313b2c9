"""Majority colouring of linear hypergraphs via vertex splitting.

For a linear hypergraph (no two edges share more than one vertex) with
minimum degree at least k^2 - k, a kr+1 palette suffices where r is the
rank. The route:

  1. Split every vertex u into t_u = floor(d(u)/k) sub-vertices, the
     first m_u = d(u) mod k of degree k+1 and the rest of degree k.
     The resulting hypergraph H* has max degree k+1 and stays linear.
  2. Colour the line graph of H*, whose max degree is at most kr,
     first-fit in ascending edge order, with at most kr+1 colours.
  3. Read the colours back as edge colours of H (the split leaves edge
     ids untouched). No colour repeats at a sub-vertex, so at each
     original vertex u a colour appears at most t_u times.

colour_linear does steps 2 and 3 in one pass in ascending edge order,
with a cursor per vertex u instead of H* or the line graph. Block j of
u is the incidence of one sub-vertex, and since the dealing cuts u's
ascending incidence into consecutive runs, the cursor needs only the
block lengths: the edges left in u's current block, a bit mask of the
colours that block already holds, and the lengths still to come. An
edge e takes the lowest colour missing from the OR of its vertices'
masks; the blocks of e hold only earlier edges at that point, so this
is exactly the set first-fit on the line graph reads. split_hypergraph,
line_graph and greedy_colour stay public as the reference construction
of the same route, and the CLI's --emit-split prints split_hypergraph's
blocks.

split_hypergraph certifies the split from the blocks, with nothing
re-derived or re-validated: every block holds at most k+1 edges; no
edge pair occurs in two blocks (two edges sharing two sub-vertices would
put their pair in both), so H* is linear; and every edge gets as many
distinct sub-vertices as it has vertices, so sizes and the rank are
unchanged. colour_linear checks only what its cursor reads: every block
length lies in 1..k+1 and each vertex's lengths add up to its degree.
Those runs give every edge one sub-vertex per vertex, and H* is linear
because the input is. When that check fails, the full certification
runs to name the fault, and a fault it accepts (an empty block, say)
is a breach of colour_linear's own. colour_linear also checks the
line-graph degree against rank * (largest block - 1) and the colours
against the palette.

Determinism: incident edges are dealt to sub-vertices in ascending
edge-id order, and first-fit also runs in ascending edge order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat, starmap
from operator import eq

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
    # zip over one shared iterator cuts consecutive runs: m of k+1, then
    # the d - m(k+1) = (t - m)k edges left in runs of k
    it = iter(incident)
    return VertexSplit(m, t, (*islice(zip(*[it] * (k + 1)), m), *zip(*[it] * k)))


def _check_splittable(h_graph: Hypergraph, k: int) -> None:
    """The split's preconditions: k >= 2, a linear input and minimum
    degree at least k^2 - k."""
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


def _split(
    h_graph: Hypergraph, k: int
) -> tuple[list[VertexSplit], list[tuple[int, ...]], list[list[int]]]:
    """The split behind split_hypergraph: check the preconditions, deal
    every vertex, and certify H* from the blocks.

    Returns the VertexSplits, the blocks (block s is the incidence of
    sub-vertex s) and, per edge, the ids of the sub-vertices it was dealt
    to in ascending order."""
    _check_splittable(h_graph, k)
    edges = h_graph.edges
    splits = [_deal(incident, k) for incident in h_graph.incidence()]
    # Sub-vertices are numbered vertex by vertex, so the s-th block overall
    # is the incidence of sub-vertex s; an edge pair seen in two blocks is
    # two edges sharing two sub-vertices.
    blocks = [block for split in splits for block in split.blocks]
    members: list[list[int]] = [[] for _ in edges]
    for s, block in enumerate(blocks):
        for e in block:
            members[e].append(s)
    pairs = list(chain.from_iterable(map(combinations, blocks, repeat(2))))
    if len(set(pairs)) != len(pairs):
        first: dict[tuple[int, int], int] = {}
        for s, block in enumerate(blocks):
            for pair in combinations(block, 2):
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
    # |e| distinct sub-vertices per edge also keeps the rank; a sub-vertex
    # repeated in an edge's list is an edge repeated in a block, which
    # gives the pair (e, e)
    if list(map(len, members)) != list(map(len, edges)) or any(starmap(eq, pairs)):
        for e, (fs, ms) in enumerate(zip(edges, members)):
            sub = len(frozenset(ms))
            if not len(fs) == len(ms) == sub:
                raise InvariantBreach(
                    "split changed the size of an edge",
                    edge=e,
                    size=len(fs),
                    split_size=sub,
                    dealt=len(ms),
                )
    return splits, blocks, members


def split_hypergraph(
    h_graph: Hypergraph, k: int
) -> tuple[Hypergraph, tuple[VertexSplit, ...]]:
    """Replace each vertex by its sub-vertices; every edge keeps its id
    and size, with each endpoint swapped for the sub-vertex it was dealt
    to. The result has max degree at most k+1 and is again linear.

    Returns H* and one VertexSplit per vertex. Sub-vertices are numbered
    vertex by vertex, so sub-vertex j of u has global id j plus the t of
    all vertices before u."""
    splits, blocks, members = _split(h_graph, k)
    h_star = Hypergraph._trusted(len(blocks), [frozenset(ms) for ms in members])
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


def _cursor_fit(
    edges: tuple[frozenset[int], ...], lengths: list[tuple[int, ...]]
) -> tuple[list[int], int]:
    """greedy_colour(line_graph(H*)) for the H* whose sub-vertices are
    runs of each vertex's ascending incidence, lengths[u] long.

    One pass in ascending edge order with a cursor per vertex u: the
    edges left in its current block, a bit mask of the colours that block
    already holds (bit c - 1 for colour c) and an iterator over the block
    lengths still to come. The blocks of e hold only earlier edges, so
    the OR of their masks is the set first-fit reads, and e takes its
    lowest clear bit. Returns the colours and the line graph's max degree:
    sum(block length - 1) over e's blocks is |N(e)| - 1 when H* is linear,
    N(e) being the edges sharing a sub-vertex with e, e included."""
    coming = list(map(iter, lengths))
    size = [next(it, 0) for it in coming]
    left = size[:]
    mask = [0] * len(lengths)
    colours = [0] * len(edges)
    top = 0
    for e, fs in enumerate(edges):
        used = 0
        degree = -len(fs)
        for u in fs:
            used |= mask[u]
            degree += size[u]
        bit = ~used & (used + 1)
        colours[e] = bit.bit_length()
        if degree > top:
            top = degree
        for u in fs:
            n = left[u] - 1
            if n:
                left[u] = n
                mask[u] |= bit
            else:
                left[u] = size[u] = next(coming[u], 0)
                mask[u] = 0
    return colours, top


def colour_linear(h_graph: Hypergraph, k: int) -> Colouring:
    """Colouring with palette k*rank+1 in which every vertex u sees each
    colour at most floor(d(u)/k) times. Input must be linear with
    minimum degree at least k^2 - k."""
    _check_splittable(h_graph, k)
    degrees = h_graph.degrees()
    lengths = [tuple(map(len, _deal(incident, k).blocks)) for incident in h_graph.incidence()]
    sizes = list(chain.from_iterable(lengths))
    largest = max(sizes, default=0)
    # The cursor walks runs of 1 to k+1 edges that cover each incidence;
    # blocks that do not are a fault in the dealing, named by the full
    # certification when it is one that it knows.
    if 0 in sizes or largest > k + 1 or tuple(map(sum, lengths)) != degrees:
        _split(h_graph, k)
        u = next(
            u for u, ls in enumerate(lengths) if 0 in ls or sum(ls) != degrees[u]
        )
        raise InvariantBreach(
            "split blocks are not runs covering the incidence",
            vertex=u,
            block_sizes=lengths[u],
            degree=degrees[u],
        )
    colours, degree = _cursor_fit(h_graph.edges, lengths)
    rank = h_graph.rank()
    if h_graph.edges:
        # the split keeps the rank, and H*'s max degree is the largest block
        cap = rank * (largest - 1)
        if degree > cap:
            raise InvariantBreach(
                "line graph degree exceeded its cap", max_degree=degree, cap=cap
            )
    palette = k * rank + 1
    top = max(colours, default=0)
    if top > palette:
        raise InvariantBreach(
            "greedy colouring exceeded the k*rank+1 palette", colour=top, palette=palette
        )
    return Colouring(colours, palette)
