"""Majority-condition verifier, exhaustive oracle, and instance generators.

A colouring is accepted when, at every vertex v, each colour is used by at
most floor(d(v)/k) of the incident edges. The brute-force oracle enumerates
colour vectors lexicographically and is the ground truth for small cases;
generators are deterministic functions of their seed.

The generators draw from random.Random(seed) by the resampler's rule
(lll._draws): one getrandbits(b) per attempt, b the bit length of the
bound, until the value is below the bound. _shuffle draws as
random.shuffle and _samples as random.sample(range(n), k) do on CPython
3.10-3.13, so every instance matches earlier releases while the stream is
fixed by this module.
"""

from __future__ import annotations

import itertools
import random
from math import ceil, log
from typing import Iterator, NamedTuple, Optional

from . import GEN_MODELS
from ._record import frozen_record
from .errors import GenerationError, PreconditionError
from .hypercore import MAX_VERTICES, Colouring, Hypergraph

__all__ = [
    "Violation",
    "VerifyReport",
    "verify",
    "brute_force",
    "GenSpec",
    "generate",
]

BRUTE_FORCE_LIMIT = 10**8

# consecutive rejected samples before a gen_linear pass is a dead end
LINEAR_RETRY_BUDGET = 10_000

# greedy passes gen_linear makes, each from an empty instance, before it
# gives up on an n/r/min_degree combination
LINEAR_PASSES = 3

# Generated instances hold at most this many vertex-edge incidences, the
# generator counterpart of MAX_VERTICES: GenSpec rejects n * min_degree
# above it before anything is allocated, and the sampling models, which
# overshoot n * min_degree, stop once their edges reach it. A 2-uniform
# regular instance at the bound peaks in `hypermaj generate` (CPython 3.11)
# at about 380 MB with n=4, min_degree=2**19, and at about 795 MB with
# n=2**21, min_degree=1.
MAX_GEN_INCIDENCES = 2**21

# gen_linear stores the r(r-1)/2 vertex pairs of each accepted edge, more
# than its r incidences from r = 4 on, and stops before they would pass
# this bound.
MAX_GEN_PAIRS = 2**21


class Violation(NamedTuple):
    vertex: int
    colour: int
    count: int
    bound: int


@frozen_record
class VerifyReport:
    valid: bool
    violations: tuple[Violation, ...]


def verify(h: Hypergraph, k: int, colouring: Colouring) -> VerifyReport:
    """Check the majority condition at every vertex; list all breaches."""
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    if len(colouring) != len(h.edges):
        raise PreconditionError(
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
    bound. Guarded to c**|E| <= 10^8 states for the c = min(palette, |E|)
    colours tried per edge: counting at least two choices per edge also
    caps the recursion depth at 27.
    """
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    if palette < 1:
        raise PreconditionError(f"palette must be at least 1, got {palette}")
    m = len(h.edges)
    # In the lexicographically first valid colouring no edge's colour
    # exceeds one more than the colours used before it (swapping two unused
    # labels would give a smaller one), so colours above m are never tried.
    top = min(palette, m)
    choices = max(top, 2)
    # 2**m passes the limit once m reaches its bit length; testing that
    # first keeps choices**m small.
    if m >= BRUTE_FORCE_LIMIT.bit_length() or choices**m > BRUTE_FORCE_LIMIT:
        raise PreconditionError(
            f"search space {choices}^{m} exceeds the {BRUTE_FORCE_LIMIT} guard"
        )
    bounds = [d // k for d in h.degrees()]
    counts = [[0] * (top + 1) if d else () for d in h.degrees()]
    chosen = [0] * m

    def search(e: int) -> bool:
        if e == m:
            return True
        for c in range(1, top + 1):
            if any(counts[v][c] >= bounds[v] for v in h.edges[e]):
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


@frozen_record
class GenSpec:
    """Parameters of a seeded random instance. Construction checks every
    precondition of the model, so a generator only samples: n, r and
    min_degree in range, a non-negative seed (random.Random seeds from
    |seed|, so -s would repeat s), the incidence limit, then graph's
    r = 2, r <= n, linear and graph's span 1 + min_degree * (r - 1) <= n
    (the edges at one vertex meet only there), and regular's r | n."""

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
        if self.n > MAX_VERTICES:
            raise PreconditionError(
                f"n={self.n} exceeds the vertex limit of {MAX_VERTICES}"
            )
        if self.r < 1:
            raise PreconditionError(f"r must be at least 1, got {self.r}")
        if self.min_degree < 0:
            raise PreconditionError(
                f"min_degree must be non-negative, got {self.min_degree}"
            )
        if self.seed < 0:
            raise PreconditionError(f"seed must be non-negative, got {self.seed}")
        if self.n * self.min_degree > MAX_GEN_INCIDENCES:
            raise PreconditionError(
                f"n * min_degree = {self.n * self.min_degree} exceeds the "
                f"incidence limit of {MAX_GEN_INCIDENCES}"
            )
        if self.model == "graph" and self.r != 2:
            raise PreconditionError(f"graph model requires r=2, got r={self.r}")
        if self.r > self.n:
            raise PreconditionError(f"r={self.r} exceeds n={self.n}")
        span = 1 + self.min_degree * (self.r - 1)
        if self.model in ("linear", "graph") and span > self.n:
            raise PreconditionError(
                f"a linear {self.r}-uniform instance at min_degree={self.min_degree} "
                f"needs at least {span} vertices, got n={self.n}"
            )
        if self.model == "regular" and self.n % self.r != 0:
            raise PreconditionError(
                f"regular model requires r to divide n; got n={self.n}, r={self.r}"
            )


def generate(spec: GenSpec) -> Hypergraph:
    if spec.model == "uniform":
        return gen_uniform(spec)
    if spec.model == "regular":
        return gen_regular(spec)
    return gen_linear(spec)  # a graph is a linear instance at r = 2


def gen_uniform(spec: GenSpec) -> Hypergraph:
    """Random r-subsets added until every vertex reaches min_degree.

    Duplicate edges can occur; callers needing simplicity should use the
    linear or graph models.
    """
    samples = _samples(random.Random(spec.seed), spec.n, spec.r)
    edges: list[list[int]] = []
    deg = [0] * spec.n
    below = spec.n if spec.min_degree > 0 else 0  # vertices under min_degree
    max_edges = MAX_GEN_INCIDENCES // spec.r
    while below:
        e = next(samples)
        edges.append(e)
        if len(edges) > max_edges:
            raise _over_incidence_limit(spec, len(edges))
        for v in e:
            deg[v] += 1
            if deg[v] == spec.min_degree:
                below -= 1
    return Hypergraph(spec.n, edges)


def gen_linear(spec: GenSpec) -> Hypergraph:
    """Greedy linear instance, for the linear and graph models: sampled
    r-subsets kept only when no two accepted edges would share a vertex
    pair. GenSpec has already refused an n below the 1 + min_degree *
    (r - 1) vertices that the edges at one vertex span.

    A pass whose LINEAR_RETRY_BUDGET consecutive samples are all rejected
    is a dead end: the greedy choice can strand a vertex below min_degree
    on a feasible combination, so the next pass starts again from no
    edges, drawing on from the same samples. Aborts with GenerationError
    once LINEAR_PASSES passes dead-end, which signals an infeasible
    n/r/min_degree combination.
    """
    samples = _samples(random.Random(spec.seed), spec.n, spec.r)
    for _ in range(LINEAR_PASSES):
        edges = _linear_pass(spec, samples)
        if edges is not None:
            return Hypergraph(spec.n, edges)
    raise GenerationError(
        f"retry budget exhausted after {LINEAR_RETRY_BUDGET + 1} consecutive rejects "
        f"in each of {LINEAR_PASSES} passes; n={spec.n}, r={spec.r}, "
        f"min_degree={spec.min_degree} looks infeasible"
    )


def _linear_pass(spec: GenSpec, samples: Iterator[list[int]]) -> Optional[list[list[int]]]:
    """One greedy pass of gen_linear from no edges; None at a dead end."""
    edges: list[list[int]] = []
    used_pairs: set[tuple[int, int]] = set()
    deg = [0] * spec.n
    below = spec.n if spec.min_degree > 0 else 0  # vertices under min_degree
    max_edges = MAX_GEN_INCIDENCES // spec.r
    per_edge = spec.r * (spec.r - 1) // 2  # pairs an accepted edge adds
    rejects = 0
    while below:
        # checked before sampling: the first edge alone may pass the bound
        if len(used_pairs) + per_edge > MAX_GEN_PAIRS:
            raise GenerationError(
                f"{len(used_pairs) + per_edge} vertex pairs of edges of size {spec.r} "
                f"exceed the pair limit of {MAX_GEN_PAIRS} before every vertex "
                f"reached min_degree={spec.min_degree}"
            )
        e = next(samples)
        members = sorted(e)
        # any() stops at the first used pair, so a rejection is cheap
        if any(p in used_pairs for p in itertools.combinations(members, 2)):
            rejects += 1
            if rejects > LINEAR_RETRY_BUDGET:
                return None
            continue
        rejects = 0
        used_pairs.update(itertools.combinations(members, 2))
        edges.append(e)
        if len(edges) > max_edges:
            raise _over_incidence_limit(spec, len(edges))
        for v in e:
            deg[v] += 1
            if deg[v] == spec.min_degree:
                below -= 1
    return edges


def _over_incidence_limit(spec: GenSpec, m: int) -> GenerationError:
    return GenerationError(
        f"{m} edges of size {spec.r} exceed the incidence limit of "
        f"{MAX_GEN_INCIDENCES} before every vertex reached "
        f"min_degree={spec.min_degree}; n={spec.n} is too large for model {spec.model!r}"
    )


def gen_regular(spec: GenSpec) -> Hypergraph:
    """Exactly min_degree-regular r-uniform instance via permutation rounds.

    Each round shuffles the vertices and chops them into n/r blocks, adding
    one to every degree; GenSpec has checked that r divides n. Duplicate
    edges can occur.
    """
    return Hypergraph(spec.n, _regular_edges(spec))


def _regular_edges(spec: GenSpec) -> Iterator[tuple[int, ...]]:
    # yielded as they are cut, so the edges never exist all at once as lists
    rng = random.Random(spec.seed)
    ids = list(range(spec.n))  # one object per id, shared by every round
    for _ in range(spec.min_degree):
        perm = ids[:]
        _shuffle(rng, perm)
        yield from zip(*[iter(perm)] * spec.r)  # perm's r-blocks, in order


def _shuffle(rng: random.Random, x: list) -> None:
    """rng.shuffle(x), Durstenfeld's shuffle: for i from len(x) - 1 down to
    1, draw j below i + 1 and swap positions i and j."""
    n = len(x)
    getrandbits = rng.getrandbits
    for bits in range(n.bit_length(), 1, -1):
        # the i with (i + 1).bit_length() == bits, falling
        for i in range(min(n, (1 << bits) - 1) - 1, (1 << (bits - 1)) - 2, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            x[i], x[j] = x[j], x[i]


def _samples(rng: random.Random, n: int, k: int) -> Iterator[list[int]]:
    """rng.sample(range(n), k) again and again, without end: its pool
    branch while n is at most its set size, else its set branch. Each
    sample is a list of exactly k ids taken from one list, so a kept edge
    holds no spare slots and each id is one object, not one per incidence."""
    getrandbits = rng.getrandbits
    setsize = 21  # sample's own rule for when a pool list beats a set
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    ids = list(range(n))
    if n <= setsize:
        bounds = [(i, n - i, (n - i).bit_length()) for i in range(k)]
        while True:
            pool, e = ids[:], [0] * k  # the unchosen ids are pool[:b]
            for i, b, bits in bounds:
                j = getrandbits(bits)
                while j >= b:
                    j = getrandbits(bits)
                e[i] = pool[j]
                pool[j] = pool[b - 1]
            yield e
    bits = n.bit_length()
    while True:
        e, chosen = [0] * k, set()
        for i in range(k):
            j = getrandbits(bits)
            while j >= n or j in chosen:
                j = getrandbits(bits)
            chosen.add(j)
            e[i] = ids[j]
        yield e
