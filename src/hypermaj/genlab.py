"""Majority-condition verifier, exhaustive oracle, and instance generators.

A colouring is accepted when, at every vertex v, each colour is used by at
most floor(d(v)/k) of the incident edges. The brute-force oracle enumerates
colour vectors lexicographically and is the ground truth for small cases;
generators are deterministic functions of their seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import GenerationError, PreconditionError
from .hypercore import Colouring, Hypergraph

__all__ = [
    "Violation",
    "VerifyReport",
    "verify",
    "brute_force",
    "GenSpec",
    "generate",
    "gen_uniform",
    "gen_linear",
    "gen_graph",
    "gen_regular",
    "complete_graph",
]

BRUTE_FORCE_LIMIT = 10**8

GEN_MODELS = ("uniform", "linear", "graph", "regular")

# consecutive rejected samples before gen_linear gives up
LINEAR_RETRY_BUDGET = 10_000


class Violation(NamedTuple):
    vertex: int
    colour: int
    count: int
    bound: int


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: tuple[Violation, ...]


def verify(h: Hypergraph, k: int, colouring: Colouring) -> VerifyReport:
    """Check the majority condition at every vertex; list all breaches."""
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    if len(colouring) != len(h.edges):
        raise ValueError(
            f"colouring has {len(colouring)} entries for {len(h.edges)} edges"
        )
    counts: list[dict[int, int]] = [dict() for _ in range(h.n_vertices)]
    for c, fs in zip(colouring.colours, h.edges):
        for v in fs:
            per = counts[v]
            per[c] = per.get(c, 0) + 1
    violations = []
    for v, d in enumerate(h.degrees()):
        per = counts[v]
        bound = d // k
        if per and max(per.values()) > bound:
            violations.extend(
                Violation(v, c, per[c], bound) for c in sorted(per) if per[c] > bound
            )
    return VerifyReport(valid=not violations, violations=tuple(violations))


def brute_force(h: Hypergraph, k: int, palette: int) -> Optional[Colouring]:
    """Lexicographically first valid colouring over {1..palette}, or None.

    Depth-first search over edges in order with early pruning: a partial
    assignment is abandoned as soon as some vertex exceeds its per-colour
    bound. Guarded to max(palette, 2)**|E| <= 10^8 states: counting at
    least two choices per edge also caps the recursion depth at 27.
    """
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    if palette < 1:
        raise PreconditionError(f"palette must be at least 1, got {palette}")
    m = len(h.edges)
    choices = max(palette, 2)
    # 2**m passes the limit once m reaches its bit length; testing that
    # first keeps choices**m small whatever palette a caller passes.
    if m >= BRUTE_FORCE_LIMIT.bit_length() or choices**m > BRUTE_FORCE_LIMIT:
        raise PreconditionError(
            f"search space {choices}^{m} exceeds the {BRUTE_FORCE_LIMIT} guard"
        )
    bounds = [h.degree(v) // k for v in range(h.n_vertices)]
    counts = [[0] * (palette + 1) for _ in range(h.n_vertices)]
    chosen = [0] * m

    def search(e: int) -> bool:
        if e == m:
            return True
        for c in range(1, palette + 1):
            ok = True
            for v in h.edges[e]:
                if counts[v][c] + 1 > bounds[v]:
                    ok = False
                    break
            if not ok:
                continue
            for v in h.edges[e]:
                counts[v][c] += 1
            chosen[e] = c
            if search(e + 1):
                return True
            for v in h.edges[e]:
                counts[v][c] -= 1
        return False

    if not search(0):
        return None
    return Colouring(chosen, palette)


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a seeded random instance."""

    model: str
    n: int
    r: int
    min_degree: int
    seed: int

    def __post_init__(self):
        if self.model not in GEN_MODELS:
            raise PreconditionError(
                f"unknown model {self.model!r}; choose from {GEN_MODELS}"
            )
        if self.n < 1:
            raise PreconditionError(f"n must be at least 1, got {self.n}")
        if self.r < 1:
            raise PreconditionError(f"r must be at least 1, got {self.r}")
        if self.min_degree < 0:
            raise PreconditionError(
                f"min_degree must be non-negative, got {self.min_degree}"
            )


def generate(spec: GenSpec) -> Hypergraph:
    if spec.model == "uniform":
        return gen_uniform(spec)
    if spec.model == "linear":
        return gen_linear(spec)
    if spec.model == "graph":
        return gen_graph(spec)
    return gen_regular(spec)


def gen_uniform(spec: GenSpec) -> Hypergraph:
    """Random r-subsets added until every vertex reaches min_degree.

    Duplicate edges can occur; callers needing simplicity should use the
    linear or graph models.
    """
    if spec.r > spec.n:
        raise PreconditionError(f"r={spec.r} exceeds n={spec.n}")
    rng = random.Random(spec.seed)
    vertices = list(range(spec.n))
    edges: list[list[int]] = []
    deg = [0] * spec.n
    while min(deg) < spec.min_degree:
        e = rng.sample(vertices, spec.r)
        edges.append(e)
        for v in e:
            deg[v] += 1
    return Hypergraph(spec.n, edges)


def gen_linear(spec: GenSpec) -> Hypergraph:
    """Greedy linear instance: sampled r-subsets kept only when no two
    accepted edges would share a vertex pair.

    Aborts with GenerationError once LINEAR_RETRY_BUDGET consecutive samples
    are rejected, which signals an infeasible n/r/min_degree combination.
    """
    if spec.r > spec.n:
        raise PreconditionError(f"r={spec.r} exceeds n={spec.n}")
    rng = random.Random(spec.seed)
    vertices = list(range(spec.n))
    edges: list[list[int]] = []
    used_pairs: set[tuple[int, int]] = set()
    deg = [0] * spec.n
    rejects = 0
    while min(deg) < spec.min_degree:
        e = rng.sample(vertices, spec.r)
        pairs = list(itertools.combinations(sorted(e), 2))
        if any(p in used_pairs for p in pairs):
            rejects += 1
            if rejects > LINEAR_RETRY_BUDGET:
                raise GenerationError(
                    f"retry budget exhausted after {rejects} consecutive rejects; "
                    f"n={spec.n}, r={spec.r}, min_degree={spec.min_degree} looks infeasible"
                )
            continue
        rejects = 0
        used_pairs.update(pairs)
        edges.append(e)
        for v in e:
            deg[v] += 1
    return Hypergraph(spec.n, edges)


def gen_graph(spec: GenSpec) -> Hypergraph:
    """Random simple graph with the requested minimum degree (r must be 2)."""
    if spec.r != 2:
        raise PreconditionError(f"graph model requires r=2, got r={spec.r}")
    return gen_linear(spec)


def gen_regular(spec: GenSpec) -> Hypergraph:
    """Exactly min_degree-regular r-uniform instance via permutation rounds.

    Each round shuffles the vertices and chops them into n/r blocks, adding
    one to every degree; requires r to divide n. Duplicate edges can occur.
    """
    if spec.r > spec.n:
        raise PreconditionError(f"r={spec.r} exceeds n={spec.n}")
    if spec.n % spec.r != 0:
        raise PreconditionError(
            f"regular model requires r to divide n; got n={spec.n}, r={spec.r}"
        )
    rng = random.Random(spec.seed)
    edges = []
    for _ in range(spec.min_degree):
        perm = list(range(spec.n))
        rng.shuffle(perm)
        for i in range(0, spec.n, spec.r):
            edges.append(perm[i : i + spec.r])
    return Hypergraph(spec.n, edges)


def complete_graph(n: int) -> Hypergraph:
    """K_n as a rank-2 hypergraph; every vertex has degree n-1."""
    return Hypergraph(n, list(itertools.combinations(range(n), 2)))
