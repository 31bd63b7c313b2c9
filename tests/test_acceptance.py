"""End-to-end acceptance checks for the whole package.

Each test covers one advertised guarantee, prints a single PASS/FAIL
line (run with `pytest -s` to see them on success), and enforces the
stated runtime budget where one applies.  Expected values are either
recomputed here by independent means (enumeration, exact rational
arithmetic, a double-precision scan) or frozen after such a
cross-check; none are invented.
"""

import itertools
import math
import time
from fractions import Fraction
from random import Random

import pytest
from conftest import reference_linearity_witness

from hypermaj.genlab import GenSpec, brute_force, generate, verify
from hypermaj.hypercore import Colouring, Hypergraph, serialize_colouring
from hypermaj.linearhg import colour_linear, greedy_colour, line_graph, split_hypergraph
from hypermaj.lll import (
    bad_vertices,
    inequalities_hold,
    resample_colour,
    threshold,
)
from hypermaj.partition import colour_partition
from hypermaj.rounder import round_weights
from hypermaj.errors import PreconditionError


def complete_graph(n):
    """K_n as a rank-2 hypergraph; every vertex has degree n-1."""
    return Hypergraph(n, list(itertools.combinations(range(n), 2)))


def _report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")


def _rounding_instance(rng, n, m, r):
    """Random hypergraph with rank pinned at exactly r."""
    edges = []
    for _ in range(m - 1):
        size = rng.randint(1, r)
        edges.append(rng.sample(range(n), size))
    edges.append(rng.sample(range(n), r))
    return Hypergraph(n, edges)


def _rational_weights(rng, m):
    out = []
    for _ in range(m):
        q = rng.randint(2, 20)
        out.append(Fraction(rng.randint(0, q), q))
    return out


def _vertex_sums(h, values):
    sums = [Fraction(0)] * h.n_vertices
    for e, edge in enumerate(h.edges):
        for v in edge:
            sums[v] += values[e]
    return sums


# --- 1: rounding keeps every vertex sum strictly within the rank ----------

SIZE_MIX = [
    (8, 12), (10, 20), (12, 24), (16, 32), (20, 40),
    (24, 60), (30, 80), (40, 120), (50, 160), (60, 200),
]


def test_rounding_discrepancy_bound():
    rng = Random(20101)
    t0 = time.perf_counter()
    total = 1000
    worst = Fraction(0)
    for i in range(total):
        n, m = SIZE_MIX[i % len(SIZE_MIX)]
        r = 2 + i % 3
        h = _rounding_instance(rng, n, m, r)
        rank = h.rank()
        z = _rational_weights(rng, m)
        x, _ = round_weights(h, z)
        zs = _vertex_sums(h, z)
        xs = _vertex_sums(h, x.weights)
        for v in range(n):
            gap = abs(xs[v] - zs[v])
            worst = max(worst, gap / rank)
            assert gap < rank, (i, v, gap, rank)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(
        1, ok,
        f"{total} instances, every vertex gap under the rank "
        f"(worst gap/rank {float(worst):.4f}), {elapsed:.1f}s",
    )
    assert ok, f"runtime {elapsed:.1f}s over the 60s budget"


# --- 2: rounded vector lies in the enumerated feasible set ----------------


def test_rounding_matches_enumerated_feasible_set():
    rng = Random(20202)
    t0 = time.perf_counter()
    total = 200
    for i in range(total):
        n = rng.randint(4, 7)
        m = rng.randint(4, 10)
        r = rng.choice((2, 3))
        h = _rounding_instance(rng, n, m, r)
        rank = h.rank()
        z = _rational_weights(rng, m)
        zs = _vertex_sums(h, z)

        feasible = set()
        incidences = [[e for e in range(m) if v in h.edges[e]] for v in range(n)]
        for bits in itertools.product((0, 1), repeat=m):
            if all(
                abs(sum(bits[e] for e in incidences[v]) - zs[v]) < rank
                for v in range(n)
            ):
                feasible.add(bits)
        assert feasible, f"instance {i} has an empty feasible set"

        x, _ = round_weights(h, z)
        assert tuple(int(w) for w in x.weights) in feasible, i
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _report(
        2, ok,
        f"{total} instances, rounded vector always inside the nonempty "
        f"enumerated set, {elapsed:.1f}s",
    )
    assert ok, f"runtime {elapsed:.1f}s over the 30s budget"


# --- 3 and 4: partition colourer end to end, plus per-round bounds --------

PARTITION_COMBOS = ((2, 2), (2, 3), (3, 2))
RUNS_PER_COMBO = 50


def _partition_instance(k, r, j):
    bound = 2 * r * k * k
    if (k, r) == (2, 2):
        if j == 0:
            return complete_graph(17)
        if j % 3 == 1:
            n = 18 + 2 * (j % 3)
            return generate(GenSpec("regular", n, 2, bound + j % 3, 3000 + j))
        return generate(GenSpec("uniform", 17 + j % 6, 2, bound + j % 4, 3100 + j))
    if (k, r) == (2, 3):
        if j % 2 == 0:
            n = 18 + 3 * (j % 3)
            return generate(GenSpec("regular", n, 3, bound + j % 3, 3200 + j))
        return generate(GenSpec("uniform", 18 + j % 7, 3, bound + j % 4, 3300 + j))
    if j % 2 == 0:
        n = 14 + 2 * (j % 4)
        return generate(GenSpec("regular", n, 2, bound + j % 3, 3400 + j))
    return generate(GenSpec("uniform", 14 + j % 6, 2, bound + j % 4, 3500 + j))


@pytest.fixture(scope="module")
def partition_corpus():
    runs = []
    t0 = time.perf_counter()
    for k, r in PARTITION_COMBOS:
        for j in range(RUNS_PER_COMBO):
            h = _partition_instance(k, r, j)
            assert h.rank() == r and h.min_degree() >= 2 * r * k * k
            colouring = colour_partition(h, k)
            runs.append((k, r, h, colouring, verify(h, k, colouring)))
    return runs, time.perf_counter() - t0


def test_partition_end_to_end(partition_corpus):
    runs, build_time = partition_corpus
    good = sum(
        1 for k, r, h, col, rep in runs if rep.valid and col.palette_size == k + 1
    )
    ok = good == len(runs) and build_time < 300.0
    _report(
        3, ok,
        f"{good}/{len(runs)} runs valid with palette k+1 across "
        f"(k,r) in {PARTITION_COMBOS}, no internal bound tripped, "
        f"{build_time:.1f}s",
    )
    assert good == len(runs)
    assert build_time < 300.0, f"runtime {build_time:.1f}s over the 5min budget"


def test_partition_per_round_bounds(partition_corpus):
    runs, _ = partition_corpus
    checked = 0
    for k, r, h, colouring, _rep in runs:
        delta = h.min_degree()
        counts = [[0] * (k + 2) for _ in range(h.n_vertices)]
        for e, edge in enumerate(h.edges):
            c = colouring.colours[e]
            for v in edge:
                counts[v][c] += 1
        step = Fraction(delta, k) - 2 * r
        for v in range(h.n_vertices):
            d_v = h.degree(v)
            used = 0
            for i in range(1, k + 1):
                assert counts[v][i] <= Fraction(d_v, k), (v, i)
                used += counts[v][i]
                remaining = d_v - used
                assert remaining <= Fraction(d_v, delta) * (delta - i * step), (v, i)
                checked += 2
            assert counts[v][k + 1] <= Fraction(2 * r * k * d_v, delta), v
            checked += 1
    _report(
        4, True,
        f"{checked} exact rational class/remaining/leftover bounds hold "
        f"over all {len(runs)} runs",
    )


# --- 5: linear-hypergraph pipeline stays within its stage bounds ----------


def test_linear_pipeline_stage_bounds():
    t0 = time.perf_counter()
    runs = 0
    for r, k in itertools.product((2, 3), (2, 3)):
        dmin = k * k - k
        for j in range(25):
            n = (16 if r == 2 else 24) + j % 5
            h = generate(GenSpec("linear", n, r, dmin + j % 3, 5000 + 100 * r + j))
            assert reference_linearity_witness(h) is None
            assert h.rank() == r and h.min_degree() >= dmin
            h_star, _ = split_hypergraph(h, k)
            assert h_star.max_degree() <= k + 1
            assert reference_linearity_witness(h_star) is None
            lg = line_graph(h_star)
            assert lg.max_degree() <= k * r
            greedy = greedy_colour(lg)
            assert max(greedy) <= k * r + 1
            colouring = colour_linear(h, k)
            assert verify(h, k, colouring).valid
            runs += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report(
        5, ok,
        f"{runs} linear instances: split degree <= k+1, intersection-graph "
        f"degree <= kr, palette <= kr+1, all colourings valid, {elapsed:.1f}s",
    )
    assert ok, f"runtime {elapsed:.1f}s over the 2min budget"


# --- 6: degree threshold grid --------------------------------------------

# Frozen after computing them with this package and reproducing every value
# with the independent double-precision scan in _float_threshold below.
THRESHOLD_GRID = {
    (2, 2): 323, (2, 3): 351, (2, 4): 367, (2, 8): 401,
    (3, 2): 1134, (3, 3): 1217, (3, 4): 1265, (3, 8): 1365,
    (4, 2): 2790, (4, 3): 2971, (4, 4): 3077, (4, 8): 3297,
}


def _float_threshold(k, r):
    d = 3 * k * k * (k + 1)
    while True:
        d += 1
        decay = math.exp(-d / (3 * k * k * (k + 1)))
        if 4 * (k + 1) * decay <= 1.0 and 8 * (k + 1) * (r - 1) * decay * d <= 1.0:
            return d


def test_threshold_grid():
    for (k, r), frozen in THRESHOLD_GRID.items():
        d_star = threshold(k, r)
        assert d_star == frozen, (k, r, d_star)
        assert d_star == _float_threshold(k, r), (k, r)
        assert d_star - 1 > 3 * k * k * (k + 1)  # past the hump, so decreasing
        assert not inequalities_hold(k, r, d_star - 1), (k, r)
        for d in range(d_star, d_star + 101):
            assert inequalities_hold(k, r, d), (k, r, d)
    for k in (2, 3, 4):
        row = [THRESHOLD_GRID[(k, r)] for r in (2, 3, 4, 8)]
        assert row == sorted(row), k
    _report(
        6, True,
        f"all {len(THRESHOLD_GRID)} thresholds match the frozen grid and the "
        f"independent scan; boundaries sharp; nondecreasing in r",
    )


# --- 7: resampling succeeds essentially always above the threshold --------


def test_resampling_success_rate_and_reproducibility():
    t0 = time.perf_counter()
    total = 100
    instances = []
    for i in range(total):
        h = generate(GenSpec("uniform", 10, 2, 324 + i % 7, 9000 + i))
        assert len(h.edges) <= 2000 and h.min_degree() >= threshold(2, 2)
        instances.append(h)

    def full_pass():
        lines = []
        successes = 0
        for i, h in enumerate(instances):
            run = resample_colour(h, 2, seed=100 + i)
            if run.outcome == "success":
                successes += 1
                assert verify(h, 2, run.colouring).valid, i
            lines.append(
                f"{i} seed={run.seed} outcome={run.outcome} "
                f"rounds={run.rounds_used}\n"
                + serialize_colouring(run.colouring)
            )
        return successes, "".join(lines)

    successes, first = full_pass()
    _, second = full_pass()
    elapsed = time.perf_counter() - t0
    ok = successes >= 99 and first == second and elapsed < 300.0
    _report(
        7, ok,
        f"{successes}/{total} instances recoloured successfully, every "
        f"success verified, two passes byte-identical, {elapsed:.1f}s",
    )
    assert successes >= 99
    assert first == second
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s over the 5min budget"


# --- 8: the fast checker and the verifier agree; dead ends are reported ---


def test_checker_coherence_and_failure_paths():
    cases = [
        (Hypergraph(3, [(0, 1), (1, 2), (0, 2)]), 2),
        (Hypergraph(2, [(0, 1)] * 6), 2),
        (generate(GenSpec("uniform", 8, 3, 9, 41)), 2),
        (generate(GenSpec("uniform", 10, 2, 330, 42)), 2),
        (complete_graph(9), 4),
    ]
    colourings = 0
    agreements = 0
    for h, k in cases:
        for s in range(200):
            rng = Random(s)
            c = Colouring([rng.randint(1, k + 1) for _ in h.edges], k + 1)
            bad = bad_vertices(h, c, k)
            if (len(bad) == 0) == verify(h, k, c).valid:
                agreements += 1
            colourings += 1

    # a vertex of degree below k admits no colouring at all
    ok_paths = True
    for h, k in [
        (Hypergraph(2, [(0, 1)]), 2),
        (Hypergraph(3, [(0, 1), (1, 2)]), 3),
    ]:
        assert brute_force(h, k, k + 1) is None
        with pytest.raises(PreconditionError):
            colour_partition(h, k)
        with pytest.raises(PreconditionError):
            colour_linear(h, k)
        run = resample_colour(h, k, seed=0, max_rounds=50)
        ok_paths = ok_paths and run.outcome == "infeasible" and run.rounds_used == 0

    ok = agreements == colourings and ok_paths
    _report(
        8, ok,
        f"checker and verifier agree on {agreements}/{colourings} random "
        f"colourings; degree-starved instances fail on every route",
    )
    assert agreements == colourings
    assert ok_paths
