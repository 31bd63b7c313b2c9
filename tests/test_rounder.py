import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermaj.errors import InvariantBreach
from hypermaj.genlab import GenSpec, generate
from hypermaj.hypercore import Hypergraph, Weighting
from hypermaj.partition import alpha_schedule
from hypermaj.rounder import (
    TraceStep,
    finalize_low_degree,
    kernel_direction,
    round_weights,
    step_to_boundary,
)

F = Fraction


def reference_kernel(matrix):
    """Independent kernel solver used as an oracle.

    Textbook Gauss-Jordan over Fractions (divide through by each pivot,
    clear the whole column) under the same convention as the library:
    eliminate in column order, first free variable 1, later free
    variables 0, first nonzero entry of the result positive. The library
    uses fraction-free integer elimination instead, so agreement is a
    real cross-check.
    """
    rows = [[F(x) for x in row] for row in matrix]
    n_rows, n_cols = len(rows), len(rows[0])
    pivot_cols = []
    free_col = None
    piv = 0
    for col in range(n_cols):
        hit = next((i for i in range(piv, n_rows) if rows[i][col] != 0), None)
        if hit is None:
            free_col = col
            break
        rows[piv], rows[hit] = rows[hit], rows[piv]
        inv = rows[piv][col]
        rows[piv] = [x / inv for x in rows[piv]]
        for i in range(n_rows):
            if i != piv and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[piv])]
        pivot_cols.append(col)
        piv += 1
        if piv == n_rows:
            free_col = col + 1
            break
    d = [F(0)] * n_cols
    d[free_col] = F(1)
    for i, pc in enumerate(pivot_cols):
        d[pc] = -rows[i][free_col]
    for x in d:
        if x != 0:
            if x < 0:
                d = [-y for y in d]
            break
    return d


def incidence_sums(h, w):
    return [
        sum((w[e] for e in h.incident_edges(v)), F(0))
        for v in range(h.n_vertices)
    ]


def within_rank_band(h, z, x):
    r = h.rank()
    return all(
        zs - r < xs < zs + r
        for zs, xs in zip(incidence_sums(h, z), incidence_sums(h, x))
    )


def random_instance(rng, max_n=12, max_m=25, ranks=(2, 3, 4)):
    n = rng.randint(2, max_n)
    r = rng.choice([x for x in ranks if x <= n])
    m = rng.randint(1, max_m)
    edges = [tuple(rng.sample(range(n), rng.randint(2, r))) for _ in range(m - 1)]
    edges.append(tuple(rng.sample(range(n), r)))  # pin the rank
    return Hypergraph(n, edges)


def random_weights(rng, m):
    out = []
    for _ in range(m):
        q = rng.choice([2, 3, 7, 16, 64])
        out.append(F(rng.randint(0, q), q))
    return Weighting(out)


def test_kernel_convention_single_row():
    assert kernel_direction([[1, 1, 1]]) == [F(1), F(-1), F(0)]


def test_kernel_convention_free_second_column():
    assert kernel_direction([[1, 0]]) == [F(0), F(1)]


def test_kernel_convention_two_rows():
    assert kernel_direction([[1, 1, 0], [0, 1, 1]]) == [F(1), F(-1), F(1)]


def test_kernel_matches_reference_on_random_binary():
    rng = random.Random(5)
    for _ in range(200):
        n_rows = rng.randint(1, 8)
        n_cols = n_rows + rng.randint(1, 5)
        mat = [[rng.randint(0, 1) for _ in range(n_cols)] for _ in range(n_rows)]
        d = kernel_direction(mat)
        assert d == reference_kernel(mat)
        assert any(d)
        for row in mat:
            assert sum(a * b for a, b in zip(row, d)) == 0


def test_kernel_matches_reference_on_random_rationals():
    rng = random.Random(6)
    for _ in range(100):
        n_rows = rng.randint(1, 6)
        n_cols = n_rows + rng.randint(1, 4)
        mat = [
            [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        d = kernel_direction(mat)
        assert d == reference_kernel(mat)
        for row in mat:
            assert sum(a * b for a, b in zip(row, d)) == 0


@st.composite
def kernel_matrices(draw):
    n_rows = draw(st.integers(1, 7))
    n_cols = n_rows + draw(st.integers(1, 4))
    entries = draw(
        st.sampled_from(
            [
                st.integers(0, 1),
                st.integers(-9, 9),
                st.builds(F, st.integers(-6, 6), st.integers(1, 5)),
            ]
        )
    )
    row = st.lists(entries, min_size=n_cols, max_size=n_cols)
    return draw(st.lists(row, min_size=n_rows, max_size=n_rows))


@settings(max_examples=300, deadline=None)
@given(kernel_matrices())
def test_kernel_matches_reference_property(mat):
    assert kernel_direction(mat) == reference_kernel(mat)


def test_kernel_big_entries_stay_exact():
    # large integer entries must still agree with the rational oracle
    rng = random.Random(7)
    mat = [[rng.randint(0, 999) for _ in range(21)] for _ in range(20)]
    assert kernel_direction(mat) == reference_kernel(mat)
    mat2 = [[2**35, 1, 1], [1, 2**35, 1]]
    assert kernel_direction(mat2) == reference_kernel(mat2)


def test_kernel_rejects_bad_shapes():
    with pytest.raises(ValueError):
        kernel_direction([])
    with pytest.raises(ValueError):
        kernel_direction([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        kernel_direction([[1, 2], [3]])


def test_step_to_boundary_worked_examples():
    t, hits = step_to_boundary([F(2, 3)] * 3, [F(1), F(-1), F(0)])
    assert t == F(1, 3)
    assert hits == (0,)
    t, hits = step_to_boundary([F(1, 2)], [F(1)])
    assert (t, hits) == (F(1, 2), (0,))
    t, hits = step_to_boundary([F(1, 4), F(3, 4)], [F(1), F(1)])
    assert (t, hits) == (F(1, 4), (1,))


def test_step_to_boundary_simultaneous_hits():
    t, hits = step_to_boundary([F(1, 2), F(1, 2)], [F(1), F(-1)])
    assert t == F(1, 2)
    assert hits == (0, 1)


def test_step_to_boundary_errors():
    with pytest.raises(ValueError):
        step_to_boundary([F(0)], [F(1)])
    with pytest.raises(ValueError):
        step_to_boundary([F(1, 2)], [F(0)])
    with pytest.raises(ValueError):
        step_to_boundary([F(1, 2)], [F(1), F(1)])


def test_round_star_system():
    # one constrained vertex over three fractional edges: the system is
    # [[1, 1, 1]] with kernel (1, -1, 0)
    h = Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
    x, trace = round_weights(h, Weighting([F(2, 3)] * 3), verify_invariants=True)
    assert trace.iterations == (TraceStep(1, 3, F(1, 3), (0,)),)
    assert x.weights == (F(1), F(0), F(1))


def test_round_block_diagonal_system():
    # two constrained vertices with disjoint fractional stars; the first
    # window [[1, 1, 1], [0, 0, 0]] has an empty row, the second an empty
    # column, whose unit vector is the kernel
    h = Hypergraph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
    x, trace = round_weights(h, Weighting([F(1, 2)] * 6), verify_invariants=True)
    assert trace.iterations == (
        TraceStep(2, 6, F(1, 2), (0, 1)),
        TraceStep(1, 4, F(1, 2), (2,)),
        TraceStep(1, 3, F(1, 2), (3, 4)),
    )
    assert x.weights == (F(1), F(0), F(1), F(1), F(0), F(1))


def test_finalize_threshold_rule():
    h = Hypergraph(2, [(0, 1)])
    assert finalize_low_degree(h, {0: F(1, 3)}) == {0: F(0)}
    assert finalize_low_degree(h, {0: F(1, 2)}) == {0: F(1)}
    assert finalize_low_degree(h, {}) == {}


def test_finalize_rejects_constrained_leftovers():
    h = Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(InvariantBreach):
        finalize_low_degree(h, {e: F(1, 3) for e in range(3)})


def test_round_integral_input_is_identity():
    h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    z = Weighting([1, 0, 1])
    x, trace = round_weights(h, z, verify_invariants=True)
    assert x.weights == (F(1), F(0), F(1))
    assert trace.iterations == ()


def test_round_star_lands_in_feasible_set():
    h = Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
    z = Weighting([F(2, 3)] * 3)
    feasible = {
        bits
        for bits in itertools.product((0, 1), repeat=3)
        if within_rank_band(h, z, Weighting(list(bits)))
    }
    assert feasible == set(itertools.product((0, 1), repeat=3)) - {(0, 0, 0)}
    x, _ = round_weights(h, z, verify_invariants=True)
    assert tuple(int(w) for w in x.weights) in feasible


def test_round_single_edge_tie_goes_up():
    h = Hypergraph(3, [(0, 1, 2)])
    x, _ = round_weights(h, Weighting([F(1, 2)]), verify_invariants=True)
    assert x.weights == (F(1),)


def test_round_integral_entries_pass_through():
    h = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    z = Weighting([F(1), F(1, 3), F(0), F(2, 3), F(1, 2)])
    x, _ = round_weights(h, z, verify_invariants=True)
    assert x[0] == 1
    assert x[2] == 0


def test_round_weights_length_mismatch():
    h = Hypergraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        round_weights(h, Weighting([F(1, 2), F(1, 2)]))


def test_round_parallel_singletons():
    # rank 1: two copies of a singleton edge, half each; the sum at the
    # vertex must stay strictly within 1 of the original total of 1
    h = Hypergraph(1, [(0,), (0,)])
    x, _ = round_weights(h, Weighting([F(1, 2), F(1, 2)]), verify_invariants=True)
    assert sum(x.weights) == 1


def test_round_random_instances_keep_invariants():
    rng = random.Random(11)
    for _ in range(120):
        h = random_instance(rng)
        z = random_weights(rng, len(h.edges))
        x, trace = round_weights(h, z, verify_invariants=True)
        assert all(w in (0, 1) for w in x.weights)
        assert within_rank_band(h, z, x)
        for e in range(len(h.edges)):
            if z[e] in (0, 1):
                assert x[e] == z[e]


def test_round_trace_progress():
    rng = random.Random(12)
    for _ in range(40):
        h = random_instance(rng)
        z = random_weights(rng, len(h.edges))
        _, trace = round_weights(h, z)
        fracs = [step.n_frac for step in trace.iterations]
        assert fracs == sorted(fracs, reverse=True)
        assert len(set(fracs)) == len(fracs)  # strict decrease
        assert all(step.fixed for step in trace.iterations)
        assert len(trace.iterations) <= len(h.edges)
        assert all(step.step > 0 for step in trace.iterations)


def test_round_deterministic():
    rng = random.Random(13)
    h = random_instance(rng)
    z = random_weights(rng, len(h.edges))
    first = round_weights(h, z)
    second = round_weights(h, z)
    assert first[0].weights == second[0].weights
    assert first[1] == second[1]


def test_round_small_instances_match_brute_force():
    rng = random.Random(14)
    for _ in range(60):
        h = random_instance(rng, max_n=6, max_m=10)
        assert len(h.edges) <= 10
        z = random_weights(rng, len(h.edges))
        feasible = {
            bits
            for bits in itertools.product((0, 1), repeat=len(h.edges))
            if within_rank_band(h, z, Weighting(list(bits)))
        }
        assert feasible
        x, _ = round_weights(h, z)
        assert tuple(int(w) for w in x.weights) in feasible


# sha256 of golden_rounding_digest(), recorded with the dense Bareiss kernel
# that preceded the sparse one; a change to any rounded weight or trace step
# of these calls changes it.
GOLDEN_ROUNDING_SHA256 = "ccfe05f9cad0257f141967fcddb3b1438c6c65cbc0618afe9c99ce01c31c2559"


def golden_rounding_calls():
    """Seeded round_weights calls, yielding (h, z, x, trace).

    Alpha weights on uniform instances with r = 2, 3 at min degree 2rk^2,
    chained over the k = 2 peeling rounds as the partition colourer does,
    then random rationals with mixed denominators on uniform instances.
    """
    k = 2
    for r in (2, 3):
        for n in (8, 11, 14):
            for seed in (1, 2):
                h = generate(GenSpec("uniform", n, r, 2 * r * k * k, seed))
                remaining = set(range(len(h.edges)))
                for a in alpha_schedule(h.min_degree(), k, r):
                    z = Weighting([a if e in remaining else 0 for e in range(len(h.edges))])
                    x, trace = round_weights(h, z)
                    remaining -= {e for e in remaining if x[e] == 1}
                    yield h, z, x, trace
    rng = random.Random(2024)
    for n, r, d in ((12, 2, 10), (10, 3, 12), (14, 2, 12), (9, 3, 8)):
        h = generate(GenSpec("uniform", n, r, d, rng.randrange(2**31)))
        for _ in range(2):
            z = []
            for _ in h.edges:
                q = rng.choice((2, 3, 5, 7, 12, 97, 1000))
                z.append(F(rng.randint(1, q - 1), q))
            z = Weighting(z)
            x, trace = round_weights(h, z)
            yield h, z, x, trace


def golden_rounding_digest():
    digest = hashlib.sha256()
    for _, _, x, trace in golden_rounding_calls():
        digest.update(",".join(str(w) for w in x.weights).encode())
        for step in trace.iterations:
            digest.update(
                f"|{step.n_constrained} {step.n_frac} {step.step} {step.fixed}".encode()
            )
        digest.update(b"\n")
    return digest.hexdigest()


def test_round_weights_golden_digest():
    assert golden_rounding_digest() == GOLDEN_ROUNDING_SHA256
