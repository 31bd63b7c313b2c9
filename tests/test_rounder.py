import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermaj import partition, rounder
from hypermaj.errors import InvariantBreach
from hypermaj.genlab import GenSpec, generate
from hypermaj.hypercore import Hypergraph, Weighting
from hypermaj.partition import alpha_schedule
from hypermaj.rounder import (
    RoundingTrace,
    TraceStep,
    _finalize_low_degree,
    _first_dependent,
    _step,
    round_weights,
)

F = Fraction


def kernel_direction(matrix):
    """The library's kernel vector of a dense rational matrix with more
    columns than rows, as round_weights' trace steps along it: the first
    n_rows+1 columns, each row scaled to integers (which leaves the kernel
    unchanged), go through _first_dependent, and its w is returned as
    w/|w[j]|, padded with zeros to the full width."""
    n_rows, n_cols = len(matrix), len(matrix[0])
    rows = {}
    holders = [set() for _ in range(n_rows + 1)]
    for i, row in enumerate(matrix):
        fracs = [F(x) for x in row[: n_rows + 1]]
        scale = math.lcm(*(f.denominator for f in fracs))
        rows[i] = {c: int(f * scale) for c, f in enumerate(fracs) if f}
        for c in rows[i]:
            holders[c].add(i)
    w, j = _first_dependent(rows, holders)
    return [F(x, abs(w[j])) for x in w] + [F(0)] * (n_cols - n_rows - 1)


def test_first_dependent_without_a_dependent_column_is_a_breach():
    # one row nonzero in the only column: that column is independent, so
    # no kernel vector ends in it; the walk never hands over such a system
    with pytest.raises(InvariantBreach, match="no dependent column"):
        _first_dependent({"a": {0: 1}}, [{"a"}])


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


def reference_round_weights(h, z):
    """The kernel walk in Fractions, with its window recounted from scratch
    at every growth step. Used as an oracle.

    Each iteration first groups the fractional edges by their constrained
    members; when two share them (twins), it steps along e_a - e_b, with a
    the lowest edge that has a twin and b the lowest of a's twins. Otherwise
    it steps on the window: a set of fractional edges, each with a
    constrained member, kept from one iteration to the next; its rows are
    the constrained vertices it touches. Such a step drops the window edges
    left with no constrained member, then, while the window has no more
    columns than rows, adds the fractional edge outside it with a
    constrained member that brings the fewest new rows, ties to the lowest
    id. The system of the rows over the window's columns in ascending id is
    solved densely by reference_kernel. Every step length and weight is a
    Fraction, and the fixed edges leave the window.

    After every step it asserts the walk's invariants: each vertex
    constrained in that step keeps its incident sum of z, and every weight
    still fractional stays strictly inside (0, 1)."""
    r = h.rank()
    target = incidence_sums(h, z)
    x = {e: w for e, w in enumerate(z.weights) if w.denominator == 1}
    hv = {e: w for e, w in enumerate(z.weights) if w.denominator != 1}
    window = set()
    steps = []
    while True:
        frac_deg = {}
        for e in hv:
            for v in h.edges[e]:
                frac_deg[v] = frac_deg.get(v, 0) + 1
        constrained = {v for v, d in frac_deg.items() if d > r}
        if not constrained:
            break
        # twins: fractional edges with the same constrained members
        groups = {}
        for e in hv:  # ascending
            members = h.edges[e] & constrained
            if members:
                groups.setdefault(frozenset(members), []).append(e)
        pairs = [group[:2] for group in groups.values() if len(group) > 1]
        if pairs:
            a, b = min(pairs)
            moving = [(a, F(1)), (b, F(-1))]
        else:
            window = {e for e in window if h.edges[e] & constrained}
            while True:
                rows = set()
                for e in window:
                    rows |= h.edges[e] & constrained
                if len(window) > len(rows):
                    break
                candidates = [e for e in hv if e not in window and h.edges[e] & constrained]
                assert candidates, "the walk guarantees a candidate while |W| <= |R|"
                window.add(
                    min(candidates, key=lambda e: (len((h.edges[e] & constrained) - rows), e))
                )
            cols = sorted(window)
            d = reference_kernel(
                [[1 if v in h.edges[e] else 0 for e in cols] for v in sorted(rows)]
            )
            moving = [(e, de) for e, de in zip(cols, d) if de]
        t = min((1 - hv[e]) / de if de > 0 else hv[e] / -de for e, de in moving)
        n_frac = len(hv)
        fixed = []
        for e, de in moving:
            val = hv[e] + t * de
            if val in (0, 1):
                x[e] = val
                del hv[e]
                window.discard(e)
                fixed.append(e)
            else:
                hv[e] = val
        for v in constrained:
            total = sum((hv.get(e, x.get(e)) for e in h.incident_edges(v)), F(0))
            assert total == target[v]
        assert all(0 < val < 1 for val in hv.values())
        steps.append(TraceStep(len(constrained), n_frac, t, tuple(fixed)))
    for e, val in hv.items():
        x[e] = F(1) if val >= F(1, 2) else F(0)
    return Weighting([x[e] for e in range(len(z))]), RoundingTrace(tuple(steps))


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


def test_step_to_boundary_worked_examples():
    # _step(nums, dens, dirs) steps h[i] = nums[i]/dens[i] along the integer
    # direction dirs; the step length comes back as an unreduced pair
    assert F(*_step([2, 2, 2], [3, 3, 3], [1, -1, 0])) == F(1, 3)
    assert F(*_step([1], [2], [1])) == F(1, 2)
    assert F(*_step([1, 3], [4, 4], [1, 1])) == F(1, 4)
    assert F(*_step([1, 1], [4, 2], [6, -1])) == F(1, 8)
    assert F(*_step([1, 1, 2], [2, 3, 5], [3, -2, 0])) == F(1, 6)
    # a large direction entry shrinks the step exactly
    assert F(*_step([1, 999], [1000, 1000], [2**40, -1])) == F(999, 1000 * 2**40)


def test_step_to_boundary_errors():
    # only a fault in the walk can reach these: it hands _step interior
    # weights and a nonzero kernel vector
    with pytest.raises(InvariantBreach):
        _step([0], [1], [1])
    with pytest.raises(InvariantBreach):
        _step([1], [2], [0])


def test_round_star_system():
    # one constrained vertex over three fractional edges, each with only
    # that vertex constrained: edges 0 and 1 are twins, and the step along
    # e_0 - e_1 fixes edge 0
    h = Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
    x, trace = round_weights(h, Weighting([F(2, 3)] * 3))
    assert trace.iterations == (TraceStep(1, 3, F(1, 3), (0,)),)
    assert x.weights == (F(1), F(0), F(1))


def test_round_block_diagonal_system():
    # two constrained vertices with disjoint fractional stars. Edges 0 and
    # 1 are the lowest twins, and the step along e_0 - e_1 fixes both.
    # Vertex 0 then leaves the constrained set, and the next twins are
    # edges 3 and 4 on vertex 4
    h = Hypergraph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
    x, trace = round_weights(h, Weighting([F(1, 2)] * 6))
    assert trace.iterations == (
        TraceStep(2, 6, F(1, 2), (0, 1)),
        TraceStep(1, 4, F(1, 2), (3, 4)),
    )
    assert x.weights == (F(1), F(0), F(1), F(1), F(0), F(1))


# no two edges of K4 share their constrained members, so its walk starts
# with a window step
K4 = Hypergraph(4, list(itertools.combinations(range(4), 2)))


def test_round_k4_starts_with_a_window_step():
    # every vertex is constrained; the window grows to edges 0-4 over all
    # four rows, and its kernel (0, 1, -1, -1, 1) fixes edges 1 and 4
    x, trace = round_weights(K4, Weighting([F(2, 3)] * 6))
    assert trace.iterations == (TraceStep(4, 6, F(1, 3), (1, 4)),)
    assert x.weights == (F(1), F(1), F(0), F(0), F(1), F(1))


def test_round_twins_before_the_window():
    # the HGR file "4 3 / 1 2 / 2 3 / 1 3 / 1 2", all weights 1/2: vertices
    # 0 and 1 are constrained, and the parallel edges 0 and 3 are twins. The
    # step along e_0 - e_3 fixes both, both vertices leave, and edges 1 and
    # 2 round up
    h = Hypergraph(3, [(0, 1), (1, 2), (0, 2), (0, 1)])
    x, trace = round_weights(h, Weighting([F(1, 2)] * 4))
    assert trace.iterations == (TraceStep(2, 4, F(1, 2), (0, 3)),)
    assert x.weights == (F(1), F(1), F(1), F(0))


def test_round_twins_after_a_vertex_leaves():
    # vertex 1 is constrained over edges 1-3 and vertex 2 over 0-3, so
    # edge 0 (constrained members {2}) has no twin at first. The twin step
    # on 1 and 2 fixes edge 2, vertex 1 leaves, and edges 1 and 3 are left
    # with {2}: edge 0 now twins with edge 1, and that step fixes edge 0
    h = Hypergraph(3, [(0, 2), (1, 2), (1, 2), (1, 2)])
    z = Weighting([F(2, 3), F(1, 3), F(1, 3), F(2, 3)])
    x, trace = round_weights(h, z)
    assert trace.iterations == (
        TraceStep(2, 4, F(1, 3), (2,)),
        TraceStep(1, 3, F(1, 3), (0,)),
    )
    assert x.weights == (F(1), F(0), F(0), F(1))
    assert (x, trace) == reference_round_weights(h, z)


def test_round_checks_its_output(monkeypatch):
    # a core whose rounding leaves the rank band is caught at the boundary,
    # and the band is strict: rounding the star's three 2/3 edges down puts
    # its centre a gap of exactly the rank below its sum of 2
    monkeypatch.setattr(rounder, "_walk", lambda h_graph, num, den: ([0, 0, 0], []))
    with pytest.raises(InvariantBreach, match="left the rank band"):
        round_weights(Hypergraph(4, [(0, 1), (0, 2), (0, 3)]), Weighting([F(2, 3)] * 3))


def test_window_growth_without_candidates_is_a_breach(monkeypatch):
    # the walk always finds a candidate while the window has no more
    # columns than rows; a bookkeeping fault that loses them all is
    # reported, not looped on or stepped through
    monkeypatch.setattr(rounder, "_pop_candidate", lambda grow, key, window, n_out: -1)
    with pytest.raises(InvariantBreach, match="ran out of candidate edges"):
        round_weights(K4, Weighting([F(2, 3)] * 6))


def test_finalize_threshold_rule():
    # edge e of weight num[e]/den[e] rounds up exactly when 2*num >= den,
    # in place; edges outside frac are left as they are
    h = Hypergraph(3, [(0, 1), (1, 2)])
    for frac, num, den, after in [
        ([0], [1, 0], [3, 1], ([0, 0], [1, 1])),
        ([0], [1, 0], [2, 1], ([1, 0], [1, 1])),
        ([0, 1], [499, 501], [1000, 1000], ([0, 1], [1, 1])),
        ([1], [0, 2], [1, 3], ([0, 1], [1, 1])),
        ([], [0, 1], [1, 1], ([0, 1], [1, 1])),
        ([0], [1, 2], [3, 3], ([0, 2], [1, 3])),
    ]:
        assert _finalize_low_degree(h, frac, num, den) is None
        assert (num, den) == after


def half_step(monkeypatch):
    """Halve every step length _step returns, so that no edge lands on 0 or
    1."""
    step = rounder._step

    def half(nums, dens, dirs):
        tn, tq = step(nums, dens, dirs)
        return tn, 2 * tq

    monkeypatch.setattr(rounder, "_step", half)


def test_step_that_fixes_nothing_is_a_breach(monkeypatch):
    # half the window step lands no edge on 0 or 1; the walk reports that
    # rather than stepping again without end
    half_step(monkeypatch)
    with pytest.raises(InvariantBreach, match="kernel step fixed no edge"):
        round_weights(K4, Weighting([F(2, 3)] * 6))


def test_twin_step_that_fixes_nothing_is_a_breach(monkeypatch):
    # three parallel edges are twins, so the walk steps without a window,
    # and half that step fixes nothing either
    half_step(monkeypatch)

    def no_window(rows, holders):
        raise AssertionError("a window step on twins")

    monkeypatch.setattr(rounder, "_first_dependent", no_window)
    h = Hypergraph(2, [(0, 1), (0, 1), (0, 1)])
    with pytest.raises(InvariantBreach, match="kernel step fixed no edge"):
        round_weights(h, Weighting([F(1, 2)] * 3))


def test_finalize_rejects_constrained_leftovers():
    h = Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(InvariantBreach):
        _finalize_low_degree(h, [0, 1, 2], [1, 1, 1], [3, 3, 3])


def test_round_integral_input_is_identity():
    h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    z = Weighting([1, 0, 1])
    x, trace = round_weights(h, z)
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
    x, _ = round_weights(h, z)
    assert tuple(int(w) for w in x.weights) in feasible


def test_round_single_edge_tie_goes_up():
    h = Hypergraph(3, [(0, 1, 2)])
    x, _ = round_weights(h, Weighting([F(1, 2)]))
    assert x.weights == (F(1),)


def test_round_integral_entries_pass_through():
    h = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    z = Weighting([F(1), F(1, 3), F(0), F(2, 3), F(1, 2)])
    x, _ = round_weights(h, z)
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
    x, _ = round_weights(h, Weighting([F(1, 2), F(1, 2)]))
    assert sum(x.weights) == 1


def test_round_random_instances_keep_invariants():
    rng = random.Random(11)
    for _ in range(120):
        h = random_instance(rng)
        z = random_weights(rng, len(h.edges))
        x, trace = round_weights(h, z)
        assert all(w in (0, 1) for w in x.weights)
        assert within_rank_band(h, z, x)
        for e in range(len(h.edges)):
            if z[e] in (0, 1):
                assert x[e] == z[e]
        # the reference walk asserts conservation and interiority per step
        assert (x, trace) == reference_round_weights(h, z)


@st.composite
def weighted_hypergraphs(draw):
    """Rank-r hypergraphs (r 2-4) with repeated edges and isolated
    vertices, and weights in [0, 1] that include exact 0s and 1s."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 9))
    vertices = st.integers(0, n - 1)
    edges = [draw(st.lists(vertices, min_size=r, max_size=r, unique=True))]
    edges += draw(st.lists(st.lists(vertices, min_size=1, max_size=r, unique=True), max_size=14))
    edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    weight = st.one_of(
        st.sampled_from((F(0), F(1))),
        st.fractions(min_value=0, max_value=1, max_denominator=1000),
    )
    z = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return Hypergraph(n, edges), Weighting(z)


@settings(max_examples=200, deadline=None)
@given(weighted_hypergraphs())
def test_round_discrepancy_below_rank_property(case):
    h, z = case
    x, _ = round_weights(h, z)
    assert all(w in (0, 1) for w in x.weights)
    assert within_rank_band(h, z, x)


@st.composite
def walk_cases(draw):
    """Denser rank-r hypergraphs (r 2-4) than weighted_hypergraphs, so that
    most draws walk several iterations, with repeated edges and weights over
    mixed denominators, some of them 0 or 1."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 8))
    vertices = st.integers(0, n - 1)
    edges = [draw(st.lists(vertices, min_size=r, max_size=r, unique=True))]
    edges += draw(
        st.lists(st.lists(vertices, min_size=1, max_size=r, unique=True), min_size=6, max_size=28)
    )
    edges += draw(st.lists(st.sampled_from(edges), max_size=6))
    # a denominator of 1 gives a 0 or a 1
    weight = st.builds(
        lambda q, p: F(p % (q + 1), q),
        st.sampled_from((1, 2, 3, 5, 7, 12, 97, 1000)),
        st.integers(0, 1000),
    )
    z = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return Hypergraph(n, edges), Weighting(z)


@settings(max_examples=300, deadline=None)
@given(walk_cases())
def test_round_matches_fraction_reference_property(case):
    h, z = case
    assert round_weights(h, z) == reference_round_weights(h, z)


def test_kernel_windows_stay_local(monkeypatch):
    # counts, not times: every step is a window step or a twin step, every
    # system the walk hands _first_dependent has more columns than rows,
    # and its rows are well short of the whole constrained set. On this
    # instance (m = 1541) 95 of 1820 steps are twin steps, and the kept
    # windows average about 65 rows against about 107 constrained vertices;
    # windows over the whole constrained set, as the walk once used,
    # average about 108 rows
    systems = []
    steps = []
    twin_steps = []

    def first_dependent(rows, holders):
        systems.append((len(rows), len(holders)))
        return solve(rows, holders)

    def step_counted(nums, dens, dirs):
        # a window step moves at least three edges: a kernel vector on two
        # 0/1 columns makes them twins, and twins are stepped on first
        if len(dirs) == 2:
            twin_steps.append(tuple(dirs))
        return step(nums, dens, dirs)

    def walk_traced(h_graph, num, den):
        bits, trace = walk(h_graph, num, den)
        steps.extend(trace)
        return bits, trace

    solve, step, walk = rounder._first_dependent, rounder._step, partition._walk
    monkeypatch.setattr(rounder, "_first_dependent", first_dependent)
    monkeypatch.setattr(rounder, "_step", step_counted)
    monkeypatch.setattr(partition, "_walk", walk_traced)
    partition.colour_partition(generate(GenSpec("uniform", 120, 3, 24, 5)), 2)
    assert len(systems) + len(twin_steps) == len(steps) > 1000
    assert set(twin_steps) == {(1, -1)}
    assert all(cols > rows for rows, cols in systems)
    mean_rows = sum(rows for rows, _ in systems) / len(systems)
    mean_constrained = sum(n_constrained for n_constrained, *_ in steps) / len(steps)
    assert mean_rows < 0.75 * mean_constrained


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


# sha256 of golden_rounding_digest() under the twin-step and kept-window
# rules, which reference_round_weights reproduces; a change to any rounded
# weight or trace step of these calls changes it.
GOLDEN_ROUNDING_SHA256 = "a8debeb5436f7ca4f0a58c3fc46378f6bbb74257f50d7cf0d8955c7ed29f8b1d"


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


# The largest TraceStep.step denominator in bits over golden_rounding_calls(),
# as the window walk without twin steps left it: 8 over the 24 alpha-weight
# calls of the partition rounds, and 24 over the 8 calls with random
# rationals. The twin steps give 7 and 25: with input denominators from 2 to
# 1000, one window step of the 31st call carries a denominator one bit
# longer.
WINDOW_WALK_ALPHA_STEP_BITS = 8
TWIN_WALK_RATIONAL_STEP_BITS = 25


def test_step_denominators_stay_short():
    bits = [
        max((step.step.denominator.bit_length() for step in trace.iterations), default=0)
        for _, _, _, trace in golden_rounding_calls()
    ]
    assert len(bits) == 32
    assert max(bits[:24]) <= WINDOW_WALK_ALPHA_STEP_BITS
    assert max(bits[24:]) <= TWIN_WALK_RATIONAL_STEP_BITS
