import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from hypermaj.errors import InvariantBreach, PreconditionError
from hypermaj.genlab import GenSpec, generate, verify
from hypermaj.hypercore import Hypergraph, serialize_colouring
from hypermaj.partition import (
    alpha_schedule,
    check_class_bounds,
    colour_partition,
    partition_rounds,
)

F = Fraction


def complete_graph(n):
    """K_n as a rank-2 hypergraph; every vertex has degree n-1."""
    return Hypergraph(n, list(itertools.combinations(range(n), 2)))


def test_alpha_first_round():
    assert alpha_schedule(16, 2, 2)[0] == F(3, 8)


def test_alpha_second_round():
    assert alpha_schedule(16, 2, 2)[1] == F(1, 2)


def test_alpha_at_minimum_degree():
    # delta = 2rk^2 exactly: alpha_1 = (2rk - r) / (2rk^2) = (2k-1)/(2k^2)
    assert alpha_schedule(36, 3, 2)[0] == F(5, 18)
    # k=2, r=2 instance of the same identity
    assert alpha_schedule(16, 2, 2)[0] == F(3, 8)


def test_alpha_preconditions():
    with pytest.raises(PreconditionError, match="^min degree 15 with rank 2 and k 2 requires at least 16$"):
        alpha_schedule(15, 2, 2)


def test_alpha_schedule_interior():
    for delta, k, r in [(16, 2, 2), (36, 3, 2), (100, 2, 3), (250, 5, 2)]:
        alphas = alpha_schedule(delta, k, r)
        assert len(alphas) == k
        assert all(0 < a < 1 for a in alphas)


def test_alpha_schedule_breach_outside_interval():
    # rank 0 slips past the degree precondition and drives alpha_2 to 1
    with pytest.raises(InvariantBreach, match="escaped"):
        alpha_schedule(5, 2, 0)


def test_colour_k17():
    h = complete_graph(17)  # min degree 16 = 2 * 2 * 2^2
    c = colour_partition(h, 2)
    assert c.palette_size == 3
    rep = verify(h, 2, c)
    assert rep.valid
    # every vertex sees each colour at most floor(16/2) = 8 times
    for v in range(17):
        per_colour = {}
        for e in h.incident_edges(v):
            per_colour[c[e]] = per_colour.get(c[e], 0) + 1
        assert max(per_colour.values()) <= 8


def test_colour_k16_below_bound():
    with pytest.raises(PreconditionError) as exc:
        colour_partition(complete_graph(16), 2)
    msg = str(exc.value)
    assert "15" in msg and "16" in msg


def test_colour_requires_k_at_least_2():
    with pytest.raises(PreconditionError):
        colour_partition(complete_graph(17), 1)


def test_colour_no_edges_is_trivial():
    h = Hypergraph(4, [])
    c = colour_partition(h, 3)
    assert len(c) == 0
    assert c.palette_size == 4


def test_regular_at_exact_bound():
    # d-regular with d = 2rk^2: every colour class degree <= d/k at every vertex
    for k, r, seed in [(2, 2, 1), (2, 3, 2), (3, 2, 3)]:
        d = 2 * r * k * k
        n = 6 * r
        h = generate(GenSpec(model="regular", n=n, r=r, min_degree=d, seed=seed))
        c = colour_partition(h, k)
        assert verify(h, k, c).valid
        for v in range(n):
            per_colour = {}
            for e in h.incident_edges(v):
                per_colour[c[e]] = per_colour.get(c[e], 0) + 1
            assert max(per_colour.values()) <= d // k


def test_partition_covers_every_edge_once():
    h = complete_graph(17)
    colouring, alphas = partition_rounds(h, 2)
    assert alphas == alpha_schedule(16, 2, 2)
    assert colouring.palette_size == 3
    assert len(colouring) == len(h.edges)
    assert set(colouring.colours) == {1, 2, 3}


# sha256 over the serialized colourings of these four instances (m = 451-847,
# kernel windows of up to n = 40 and 60 rows), recorded with the kernel walk
# that kept its weights as Fractions
GOLDEN_PARTITION_SHA256 = "39cf30c26431d8e591e383e080966d1d4e2310d6dd1d4c7323ad991fd9f1bfe1"


def test_colour_partition_golden_digest():
    digest = hashlib.sha256()
    for n, r, delta in ((40, 3, 24), (60, 2, 16)):
        for seed in (1, 2):
            h = generate(GenSpec("uniform", n, r, delta, seed))
            digest.update(serialize_colouring(colour_partition(h, 2)).encode())
    assert digest.hexdigest() == GOLDEN_PARTITION_SHA256


def test_partition_deterministic():
    h = generate(GenSpec(model="uniform", n=12, r=2, min_degree=16, seed=21))
    assert colour_partition(h, 2).colours == colour_partition(h, 2).colours


def test_check_class_bounds_flags_overfull_class():
    # hand the checker a fabricated round-1 outcome that dumps every
    # edge into one class; B * delta / k caps must fire
    h = complete_graph(17)
    all_edges = tuple(range(len(h.edges)))
    with pytest.raises(InvariantBreach) as exc:
        check_class_bounds(h, 1, all_edges, (), delta=16, k=2, r=2)
    ctx = exc.value.context
    assert ctx["observed"] > ctx["bound"]
    assert ctx["i"] == 1


def test_check_class_bounds_flags_stalled_remaining():
    # nothing extracted after round 1: remaining degrees stay at delta,
    # above the shrinking cap B * (delta - (delta/k - 2r))
    h = complete_graph(17)
    remaining = range(len(h.edges))
    with pytest.raises(InvariantBreach) as exc:
        check_class_bounds(h, 1, (), remaining, delta=16, k=2, r=2)
    assert exc.value.context["observed"] > exc.value.context["bound"]


def test_check_class_bounds_quiet_on_real_runs():
    rng = random.Random(40)
    for _ in range(6):
        h = generate(
            GenSpec(model="uniform", n=10, r=2, min_degree=16, seed=rng.randint(0, 999))
        )
        colour_partition(h, 2)  # InvariantBreach would propagate


def test_exact_bound_arithmetic_with_fractional_b():
    # K17 plus a repeated edge {0,1}: vertices 0 and 1 have degree 17
    # while delta stays 16, so their B = 17/16 and the class cap
    # B * delta / k = 17/2 admits 8 edges but not 9
    base = complete_graph(17)
    h = Hypergraph(17, list(base.edges) + [(0, 1)])
    assert h.min_degree() == 16
    assert h.degree(0) == 17
    c, _ = partition_rounds(h, 2)
    for colour in (1, 2, 3):
        for v in range(h.n_vertices):
            count = sum(1 for e in h.incident_edges(v) if c[e] == colour)
            assert count <= F(h.degree(v), 16) * F(16, 2)
    assert verify(h, 2, c).valid
