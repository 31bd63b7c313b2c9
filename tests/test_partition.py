import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# sha256 over the serialized colourings of these four instances (m = 451-847),
# recorded with the kept-window kernel walk; partition_rounds over
# reference_round_weights in tests/test_rounder.py gives the same colourings
GOLDEN_PARTITION_SHA256 = "e31685f2e5856314e987deffb713dfbd1f8ba69f5d3c6faa2aeca546d639552c"


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


def fraction_caps(d, delta, k, r, i):
    """The round-i caps of a vertex of degree d, as the peeling argument
    states them: B*delta/k and B*(delta - i*(delta/k - 2r)), B = d/delta."""
    b = F(d, delta)
    return b * F(delta, k), b * (delta - i * (F(delta, k) - 2 * r))


def check_one_vertex(d, delta, k, r, i, class_deg, rem_deg):
    """check_class_bounds on one vertex of degree d (d singleton edges), with
    the first class_deg edges as the class and the first rem_deg as the
    remaining edges; returns the breach or None."""
    h = Hypergraph(1, [(0,)] * d)
    try:
        check_class_bounds(h, i, range(class_deg), range(rem_deg), delta, k, r)
    except InvariantBreach as exc:
        return exc
    return None


@st.composite
def cap_cases(draw):
    """Degrees, parameters and counts on, next to and away from both caps, so
    that the equality edge comes up often."""
    k = draw(st.integers(2, 5))
    r = draw(st.integers(1, 4))
    i = draw(st.integers(1, k))
    delta = draw(st.integers(1, 40))
    d = draw(st.integers(delta, 3 * delta))
    counts = []
    for cap in fraction_caps(d, delta, k, r, i):
        near = {c for c in (math.floor(cap) - 1, math.floor(cap), math.floor(cap) + 1) if 0 <= c <= d}
        pick = st.sampled_from(sorted(near)) if near else st.integers(0, d)
        counts.append(draw(st.one_of(pick, st.integers(0, d))))
    return d, delta, k, r, i, counts[0], counts[1]


@settings(max_examples=400, deadline=None)
@given(cap_cases())
def test_check_class_bounds_agrees_with_fraction_caps(case):
    d, delta, k, r, i, class_deg, rem_deg = case
    class_cap, rem_cap = fraction_caps(d, delta, k, r, i)
    exc = check_one_vertex(*case)
    if class_deg > class_cap:
        assert str(exc) == "colour class degree exceeded its cap"
        assert exc.context == {"v": 0, "i": i, "observed": class_deg, "bound": class_cap}
    elif rem_deg > rem_cap:
        assert str(exc) == "remaining degree exceeded its cap"
        assert exc.context == {"v": 0, "i": i, "observed": rem_deg, "bound": rem_cap}
    else:
        assert exc is None


def test_check_class_bounds_equality_edge():
    # delta = 16, k = 2, r = 2, round 1: a degree-17 vertex has caps 17/2
    # and 17/16 * 12 = 51/4, a degree-16 vertex 8 and 12; a count on the
    # cap passes and one past it breaks
    assert fraction_caps(16, 16, 2, 2, 1) == (8, 12)
    assert check_one_vertex(16, 16, 2, 2, 1, 8, 12) is None
    assert check_one_vertex(16, 16, 2, 2, 1, 9, 0).context["bound"] == 8
    assert check_one_vertex(16, 16, 2, 2, 1, 0, 13).context["bound"] == 12
    assert check_one_vertex(17, 16, 2, 2, 1, 8, 12) is None
    assert check_one_vertex(17, 16, 2, 2, 1, 9, 0).context["bound"] == F(17, 2)
    assert check_one_vertex(17, 16, 2, 2, 1, 0, 13).context["bound"] == F(51, 4)
