import functools
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermaj import lll
from hypermaj.errors import InvariantBreach, PreconditionError
from hypermaj.genlab import GenSpec, Violation, brute_force, generate, verify
from hypermaj.hypercore import Colouring, Hypergraph
from hypermaj.lll import (
    ResampleRun,
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


def test_threshold_search_is_logarithmic(monkeypatch):
    # a unit-step scan took about 55000 evaluations for (10, 10)
    calls = []
    real = lll.inequalities_hold

    def counting(k, r, delta):
        calls.append(delta)
        return real(k, r, delta)

    monkeypatch.setattr(lll, "inequalities_hold", counting)
    d = threshold(10, 10)
    assert d == 58235
    assert len(calls) <= 2 * math.log2(d) + 4
    assert real(10, 10, d) and not real(10, 10, d - 1)


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


FANO = Hypergraph(
    7,
    [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)],
)


def test_resample_exhausts_on_impossible_instance():
    # every vertex of the Fano plane has degree 3 >= k, so no vertex is
    # infeasible on its own, but at k = 2 each vertex needs its 3 edges in
    # distinct colours and the line graph is K7: no 3-colouring is valid
    # and the budget must run out
    assert brute_force(FANO, 2, 3) is None
    run = resample_colour(FANO, 2, seed=9, max_rounds=37)
    assert run.outcome == "exhausted"
    assert run.rounds_used == 37
    assert run.max_rounds == 37


def test_resample_infeasible_fails_fast():
    # a lone edge gives both endpoints degree 1 < k, so their bound is 0:
    # the run stops at round 0 with the first draw instead of resampling
    h = Hypergraph(2, [(0, 1)])
    run = resample_colour(h, 2, seed=9, max_rounds=37)
    assert run == ResampleRun(9, 37, 0, "infeasible", random_colouring(h, 2, 9))
    # the default cap is still reported, and never spent
    assert resample_colour(h, 2, seed=9).max_rounds == 10_000
    # degree 0 is not infeasible: an isolated vertex has nothing to violate
    isolated = Hypergraph(3, [(0, 1)] * 4)
    assert resample_colour(isolated, 2, seed=1, max_rounds=50).outcome == "success"


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


def test_resample_rejects_negative_round_cap():
    # a negative cap used to report any invalid first draw as "exhausted"
    h = Hypergraph(2, [(0, 1)])
    with pytest.raises(PreconditionError):
        resample_colour(h, 2, seed=1, max_rounds=-1)


def rescan_resample(h, k, seed, max_rounds):
    """The resampler without incremental bookkeeping: a full bad_vertices
    rescan of every incidence each round, then the lowest bad id. An
    instance with a vertex of degree 0 < d < k stops at round 0."""
    rng = random.Random(seed)
    colours = [rng.randint(1, k + 1) for _ in h.edges]
    if any(0 < h.degree(v) < k for v in range(h.n_vertices)):
        return ResampleRun(seed, max_rounds, 0, "infeasible", Colouring(colours, k + 1))
    rounds = 0
    while True:
        current = Colouring(colours, k + 1)
        bad = bad_vertices(h, current, k)
        if not bad:
            return ResampleRun(seed, max_rounds, rounds, "success", current)
        if rounds >= max_rounds:
            return ResampleRun(seed, max_rounds, rounds, "exhausted", current)
        for e in h.incident_edges(min(bad)):
            colours[e] = rng.randint(1, k + 1)
        rounds += 1


@st.composite
def resample_cases(draw):
    """(h, k, seed, max_rounds): generated uniform, regular and graph
    instances, and hand-made ones with repeated edges, isolated vertices
    and vertices of degree 0 < d < k, which no colouring satisfies. The
    caps stay explicit and small, because the rescan costs O(m r) a round."""
    k = draw(st.integers(2, 4))
    model = draw(st.sampled_from(("uniform", "regular", "graph", "hand")))
    if model == "hand":
        n = draw(st.integers(1, 8))
        edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
        edges = draw(st.lists(edge, max_size=20))
        edges += draw(st.lists(st.sampled_from(edges), max_size=6)) if edges else []
        h = Hypergraph(n, edges)
    else:
        r = 2 if model == "graph" else draw(st.integers(2, 4))
        n = draw(st.integers(r, 12))
        if model == "regular":
            n -= n % r
        degree = draw(st.integers(1, n // 2 if model == "graph" else 16))
        h = generate(GenSpec(model, n, r, degree, draw(st.integers(0, 2**16))))
    max_rounds = draw(
        st.one_of(st.sampled_from((0, 1)), st.integers(2, 12), st.integers(200, 400))
    )
    return h, k, draw(st.integers(0, 2**32)), max_rounds


@settings(max_examples=200, deadline=None)
@given(resample_cases())
def test_resample_matches_rescan_reference(case):
    h, k, seed, max_rounds = case
    assert resample_colour(h, k, seed, max_rounds) == rescan_resample(h, k, seed, max_rounds)


# sha256 of golden_resample_digest(), recorded before infeasible inputs
# failed fast, over the runs the fail-fast leaves alone (every vertex has
# degree 0 or at least k); the digest of these same runs was first
# recorded with the rescan resampler (rescan_resample's loop) before the
# incremental counts replaced it. A change to the round count, outcome or
# colouring of any run changes it.
GOLDEN_RESAMPLE_SHA256 = "e7634379608a1989d14f3b10054d57e02515f2d5697270828142e228ad981bda"


def golden_resample_runs():
    """Seeded resample_colour runs on generated uniform, regular and graph
    instances at k = 2, 3, 4."""
    cases = [
        (GenSpec("uniform", 10, 2, 12, 3), 2, 400),
        (GenSpec("uniform", 9, 3, 14, 5), 2, 400),
        (GenSpec("regular", 12, 3, 20, 8), 2, 400),
        (GenSpec("regular", 12, 3, 30, 2), 3, 400),
        (GenSpec("graph", 14, 2, 9, 4), 3, 60),
        (GenSpec("uniform", 6, 2, 50, 3), 4, 400),
    ]
    for spec, k, max_rounds in cases:
        h = generate(spec)
        for seed in (0, 1, 2):
            yield resample_colour(h, k, seed, max_rounds)


def golden_resample_digest():
    digest = hashlib.sha256()
    for run in golden_resample_runs():
        digest.update(
            f"{run.seed} {run.max_rounds} {run.rounds_used} {run.outcome} "
            f"{run.colouring.palette_size} {run.colouring.colours}\n".encode()
        )
    return digest.hexdigest()


def test_resample_golden_digest():
    assert golden_resample_digest() == GOLDEN_RESAMPLE_SHA256


def test_resample_infeasible_golden_runs():
    # The hand-made instance has a repeated edge, an isolated vertex (4)
    # and a vertex of degree 1 < k (3). These runs used to spend every cap
    # (0, 1, 9 and 150 rounds) and end "exhausted"; each now stops at
    # round 0 with its first draw.
    lone = Hypergraph(5, [(0, 1), (0, 1), (1, 2), (0, 1, 2), (2, 3)])
    draws = {7: (2, 1, 2, 3, 1), 8: (1, 2, 2, 1, 1)}
    for seed, max_rounds in ((7, 0), (7, 1), (7, 9), (8, 150)):
        assert resample_colour(lone, 2, seed, max_rounds) == ResampleRun(
            seed, max_rounds, 0, "infeasible", Colouring(draws[seed], 3)
        )
