import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermaj import lll
from hypermaj.errors import InvariantBreach, PreconditionError
from hypermaj.genlab import GenSpec, Violation, generate, verify
from hypermaj.hypercore import Colouring, Hypergraph
from hypermaj.lll import (
    bad_vertices,
    inequalities_hold,
    random_colouring,
    resample_colour,
    threshold,
    threshold_details,
)

# Frozen on the first verified run of the scan; reproduced below by an
# independent double-precision scan.
KNOWN_THRESHOLDS = {
    (2, 2): 323,
    (2, 3): 351,
    (2, 4): 367,
    (3, 2): 1134,
    (3, 3): 1217,
    (4, 2): 2790,
    (4, 8): 3297,
}


def float_threshold(k, r):
    """Plain-float rendition of the scan, as an order-of-magnitude oracle
    for the high-precision implementation."""
    a = 3 * k * k * (k + 1)
    d = a
    while True:
        decay = math.exp(-d / a)
        if 4 * (k + 1) * decay <= 1 and 8 * (k + 1) * (r - 1) * decay * d <= 1:
            return d
        d += 1


def test_inequalities_fail_at_tiny_degree():
    assert not inequalities_hold(2, 2, 1)


def test_inequalities_eventually_hold():
    assert inequalities_hold(2, 2, 10_000)
    assert inequalities_hold(4, 8, 100_000)


def test_inequalities_parameter_guards():
    with pytest.raises(PreconditionError):
        inequalities_hold(1, 2, 10)
    with pytest.raises(PreconditionError):
        inequalities_hold(2, 1, 10)
    with pytest.raises(PreconditionError):
        inequalities_hold(2, 2, 0)


def test_threshold_regression_values():
    for (k, r), expected in KNOWN_THRESHOLDS.items():
        assert threshold(k, r) == expected


def test_threshold_agrees_with_float_scan():
    for (k, r), expected in KNOWN_THRESHOLDS.items():
        assert abs(float_threshold(k, r) - expected) <= 1


def test_threshold_is_boundary():
    for k, r in [(2, 2), (3, 2), (2, 4)]:
        d = threshold(k, r)
        assert not inequalities_hold(k, r, d - 1)
        assert all(inequalities_hold(k, r, x) for x in range(d, d + 101))


def test_threshold_exceeds_first_inequality_bound():
    # inequality one alone forces delta >= 3k^2(k+1) * ln(4(k+1))
    for k, r in KNOWN_THRESHOLDS:
        lower = 3 * k * k * (k + 1) * math.log(4 * (k + 1))
        assert threshold(k, r) >= lower


def test_threshold_monotone_in_r():
    assert threshold(2, 2) <= threshold(2, 3) <= threshold(2, 4)
    assert threshold(3, 2) <= threshold(3, 3)


def test_threshold_rejects_inequalities_at_stationary_point(monkeypatch):
    # a raise, not an assert, so that the guard survives python -O
    monkeypatch.setattr(lll, "inequalities_hold", lambda k, r, delta: True)
    with pytest.raises(InvariantBreach):
        threshold(2, 2)


@pytest.fixture(scope="module")
def mpmath():
    return pytest.importorskip("mpmath")


def mpmath_reference(mpmath, k, r, delta):
    """(holds, lhs1, lhs2) evaluated in binary multiprecision at 40
    digits with the same 2^-30 margin, independently of the library's
    decimal arithmetic."""
    with mpmath.workdps(40):
        decay = mpmath.exp(mpmath.mpf(-delta) / (3 * k * k * (k + 1)))
        lhs1 = 4 * (k + 1) * decay
        lhs2 = 8 * (k + 1) * (r - 1) * decay * delta
        cutoff = 1 - mpmath.mpf(2) ** -30
        return bool(lhs1 <= cutoff and lhs2 <= cutoff), float(lhs1), float(lhs2)


cached_threshold = functools.lru_cache(maxsize=None)(threshold)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(2, 6),
    r=st.sampled_from((2, 3, 4, 5, 7, 10, 16, 32, 100)),
    offset=st.integers(-400, 300),
)
def test_inequalities_match_mpmath_reference(mpmath, k, r, offset):
    # points from below the stationary point up to well past delta*
    delta = max(1, cached_threshold(k, r) + offset)
    assert inequalities_hold(k, r, delta) == mpmath_reference(mpmath, k, r, delta)[0]


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 6), r=st.integers(2, 100))
def test_threshold_details_match_mpmath_reference(mpmath, k, r):
    delta, lhs1, lhs2 = threshold_details(k, r)
    holds, ref1, ref2 = mpmath_reference(mpmath, k, r, delta)
    assert holds and not mpmath_reference(mpmath, k, r, delta - 1)[0]
    assert (lhs1, lhs2) == (ref1, ref2)


def test_threshold_details_at_star():
    d, lhs1, lhs2 = threshold_details(2, 2)
    assert d == 323
    assert 0 < lhs1 <= 1
    assert 0 < lhs2 <= 1
    # the second inequality is the binding one at the boundary
    assert lhs2 > 0.9


def test_random_colouring_deterministic():
    h = generate(GenSpec(model="uniform", n=8, r=3, min_degree=10, seed=1))
    a = random_colouring(h, 2, seed=5)
    b = random_colouring(h, 2, seed=5)
    assert a.colours == b.colours
    assert a.palette_size == 3
    assert all(1 <= c <= 3 for c in a.colours)


def test_random_colouring_roughly_uniform():
    h = generate(GenSpec(model="uniform", n=20, r=2, min_degree=300, seed=2))
    m = len(h.edges)
    assert m >= 2500
    c = random_colouring(h, 2, seed=8)
    counts = [0, 0, 0]
    for col in c.colours:
        counts[col - 1] += 1
    expected = m / 3
    chi2 = sum((obs - expected) ** 2 / expected for obs in counts)
    assert chi2 < 15  # 2 dof; fixed seed, so this is a frozen fact


def test_bad_vertices_arithmetic():
    h = Hypergraph(2, [(0, 1)] * 5)
    assert bad_vertices(h, Colouring([1, 1, 1, 2, 3], 3), 2) == {0, 1}
    assert bad_vertices(h, Colouring([1, 1, 2, 2, 3], 3), 2) == set()


def test_bad_vertices_palette_guard():
    h = Hypergraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        bad_vertices(h, Colouring([1], 4), 2)
    with pytest.raises(ValueError):
        bad_vertices(Hypergraph(2, [(0, 1), (0, 1)]), Colouring([1], 3), 2)


def test_bad_vertices_matches_verifier():
    rng = random.Random(55)
    h = generate(GenSpec(model="uniform", n=9, r=3, min_degree=8, seed=3))
    for _ in range(200):
        c = Colouring([rng.randint(1, 3) for _ in h.edges], 3)
        rep = verify(h, 2, c)
        bad = bad_vertices(h, c, 2)
        assert (not bad) == rep.valid
        assert bad == {v.vertex for v in rep.violations}


@st.composite
def coloured_hypergraphs(draw):
    n = draw(st.integers(0, 7))
    edges = (
        draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=16))
        if n
        else []
    )
    k = draw(st.integers(2, 4))
    colours = draw(st.lists(st.integers(1, k + 1), min_size=len(edges), max_size=len(edges)))
    return Hypergraph(n, edges), k, Colouring(colours, k + 1)


def naive_violations(h, k, c):
    """Per vertex and colour, recount the incident edges from scratch."""
    out = []
    for v in range(h.n_vertices):
        incident = [e for e, fs in enumerate(h.edges) if v in fs]
        bound = len(incident) // k
        for colour in range(1, c.palette_size + 1):
            count = sum(1 for e in incident if c[e] == colour)
            if count > bound:
                out.append(Violation(v, colour, count, bound))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(coloured_hypergraphs())
def test_verify_and_bad_vertices_match_naive_recount(case):
    h, k, c = case
    expected = naive_violations(h, k, c)
    report = verify(h, k, c)
    assert report.violations == expected
    assert report.valid == (not expected)
    assert bad_vertices(h, c, k) == {vio.vertex for vio in expected}


def test_resample_success_high_degree():
    h = generate(GenSpec(model="uniform", n=10, r=2, min_degree=340, seed=77))
    assert h.min_degree() >= threshold(2, 2)
    run = resample_colour(h, 2, seed=0)
    assert run.outcome == "success"
    assert run.rounds_used == 0  # the very first draw is already valid
    assert verify(h, 2, run.colouring).valid


def test_resample_deterministic():
    h = generate(GenSpec(model="uniform", n=12, r=3, min_degree=20, seed=4))
    a = resample_colour(h, 2, seed=31, max_rounds=500)
    b = resample_colour(h, 2, seed=31, max_rounds=500)
    assert a == b


def test_resample_exhausts_on_impossible_instance():
    # a lone edge gives both endpoints degree 1 < k, so no colouring is
    # ever valid and the budget must run out
    h = Hypergraph(2, [(0, 1)])
    run = resample_colour(h, 2, seed=9, max_rounds=37)
    assert run.outcome == "exhausted"
    assert run.rounds_used == 37
    assert run.max_rounds == 37


def test_resample_default_budget():
    h = Hypergraph(2, [(0, 1)] * 4)
    run = resample_colour(h, 2, seed=1)
    assert run.max_rounds == 40_000


def test_resample_success_passes_verify():
    rng = random.Random(66)
    for _ in range(10):
        h = generate(
            GenSpec(model="uniform", n=8, r=2, min_degree=30, seed=rng.randint(0, 999))
        )
        run = resample_colour(h, 2, seed=rng.randint(0, 999))
        if run.outcome == "success":
            assert verify(h, 2, run.colouring).valid
            assert not bad_vertices(h, run.colouring, 2)
