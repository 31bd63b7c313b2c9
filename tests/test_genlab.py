import hashlib
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import reference_linearity_witness

from hypermaj import genlab
from hypermaj.errors import GenerationError, PreconditionError
from hypermaj.genlab import (
    MAX_GEN_INCIDENCES,
    MAX_GEN_PAIRS,
    GenSpec,
    Violation,
    brute_force,
    gen_regular,
    generate,
    verify,
)
from hypermaj.hypercore import MAX_VERTICES, Colouring, Hypergraph, serialize_hypergraph


def bundle(d):
    """Two vertices joined by d parallel edges; both have degree d."""
    return Hypergraph(2, [(0, 1)] * d)


def test_verify_balanced_counts_valid():
    # degree 4, k=2: counts (2,1,1) stay within floor(4/2)=2 at both ends
    rep = verify(bundle(4), 2, Colouring([1, 1, 2, 3], 3))
    assert rep.valid
    assert rep.violations == ()


def test_verify_overfull_colour_reported():
    rep = verify(bundle(5), 2, Colouring([1, 1, 1, 2, 3], 3))
    assert not rep.valid
    assert rep.violations == (Violation(0, 1, 3, 2), Violation(1, 1, 3, 2))


def test_verify_degree_k_means_proper():
    # all degrees equal k: bound floor(k/k)=1, so validity = properness
    tri = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    assert verify(tri, 2, Colouring([1, 2, 3], 3)).valid
    assert not verify(tri, 2, Colouring([1, 1, 2], 3)).valid


def test_verify_degree_zero_vertex_trivially_fine():
    h = Hypergraph(3, [(0, 1)])
    rep = verify(h, 2, Colouring([1], 3))
    # vertex 2 has no incidences; the single edge still violates at 0 and 1
    assert all(v.vertex != 2 for v in rep.violations)


def test_verify_relabelling_invariance():
    rng = random.Random(31)
    h = generate(GenSpec(model="uniform", n=8, r=3, min_degree=6, seed=1))
    for _ in range(10):
        colours = [rng.randint(1, 3) for _ in h.edges]
        perm = [1, 2, 3]
        rng.shuffle(perm)
        relabelled = [perm[c - 1] for c in colours]
        a = verify(h, 2, Colouring(colours, 3))
        b = verify(h, 2, Colouring(relabelled, 3))
        assert a.valid == b.valid


def test_verify_argument_errors():
    h = bundle(2)
    with pytest.raises(PreconditionError):
        verify(h, 1, Colouring([1, 1], 2))
    with pytest.raises(PreconditionError, match="^colouring has 1 entries for 2 edges$"):
        verify(h, 2, Colouring([1], 2))


def test_verify_violations_sorted():
    h = Hypergraph(4, [(2, 3), (2, 3), (0, 1), (0, 1)])
    rep = verify(h, 2, Colouring([2, 2, 1, 1], 2))
    assert [v.vertex for v in rep.violations] == sorted(
        v.vertex for v in rep.violations
    )


def test_brute_force_single_edge_has_no_colouring():
    # endpoints have degree 1, bound floor(1/2) = 0: pigeonhole
    h = Hypergraph(2, [(0, 1)])
    assert brute_force(h, 2, 3) is None


def test_brute_force_rejects_empty_palette():
    with pytest.raises(PreconditionError, match="^palette must be at least 1, got 0$"):
        brute_force(Hypergraph(3, [(0, 1), (1, 2), (0, 2)]), 2, 0)


def test_brute_force_rejects_k_below_two():
    with pytest.raises(PreconditionError, match="^k must be at least 2, got 1$"):
        brute_force(Hypergraph(3, [(0, 1), (1, 2), (0, 2)]), 1, 3)


def test_brute_force_petersen_has_no_colouring():
    # 3-regular, so at k = 2 each colour holds one edge per vertex and a
    # valid 3-colouring would be a proper 3-edge-colouring, which the
    # Petersen graph does not have
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    assert brute_force(Hypergraph(10, outer + spokes + inner), 2, 3) is None


def test_brute_force_counting_test_answers_without_search():
    # vertex 1 has 15 loops and vertex 2 one edge, which no colour may
    # hold at k = 2: palette 3 * floor(1/2) = 0 < 1. The search alone
    # tries every valid colouring of the 15 loops before failing at the
    # last edge, for tens of seconds; the counting test answers at once
    h = Hypergraph(2, [(0,)] * 15 + [(1,)])
    t = time.process_time()
    assert brute_force(h, 2, 3) is None
    assert time.process_time() - t < 2
    # on a vertex with enough edges the test passes and the search runs
    assert brute_force(Hypergraph(1, [(0,)] * 5), 2, 3).colours == (1, 1, 2, 2, 3)


def test_brute_force_triangle_first_witness():
    tri = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    c = brute_force(tri, 2, 3)
    assert c is not None
    assert c.colours == (1, 2, 3)
    assert verify(tri, 2, c).valid


def test_brute_force_result_always_verifies():
    rng = random.Random(77)
    found = 0
    for _ in range(30):
        n = rng.randint(2, 6)
        m = rng.randint(1, 7)
        edges = [
            tuple(rng.sample(range(n), rng.randint(2, min(3, n)))) for _ in range(m)
        ]
        h = Hypergraph(n, edges)
        c = brute_force(h, 2, 3)
        if c is not None:
            found += 1
            assert verify(h, 2, c).valid
    assert found > 0


def reference_brute_force(h, k, palette):
    """The oracle as it was: tables of palette + 1 per vertex and every
    colour tried at every edge."""
    m = len(h.edges)
    bounds = [h.degree(v) // k for v in range(h.n_vertices)]
    counts = [[0] * (palette + 1) for _ in range(h.n_vertices)]
    chosen = [0] * m

    def search(e):
        if e == m:
            return True
        for c in range(1, palette + 1):
            if all(counts[v][c] < bounds[v] for v in h.edges[e]):
                for v in h.edges[e]:
                    counts[v][c] += 1
                chosen[e] = c
                if search(e + 1):
                    return True
                for v in h.edges[e]:
                    counts[v][c] -= 1
        return False

    return tuple(chosen) if search(0) else None


def test_brute_force_matches_reference_above_m_colours():
    # no edge of the lexicographically first valid colouring takes a colour
    # above one more than the largest before it (so none above m), so a
    # search cut there must find the same one
    rng = random.Random(2024)
    found = 0
    for _ in range(1500):
        n = rng.randint(1, 5)
        edges = [
            tuple(rng.sample(range(n), rng.randint(1, min(3, n))))
            for _ in range(rng.randint(0, 6))
        ]
        h = Hypergraph(n, edges)
        k, palette = rng.randint(2, 3), rng.randint(1, 9)
        c = brute_force(h, k, palette)
        expected = reference_brute_force(h, k, palette)
        assert (None if c is None else c.colours) == expected
        if c is not None:
            found += 1
            assert c.palette_size == palette
    assert found > 300


def test_brute_force_guard():
    h = generate(GenSpec(model="uniform", n=20, r=2, min_degree=10, seed=0))
    assert 3 ** len(h.edges) > 10**8
    with pytest.raises(PreconditionError):
        brute_force(h, 2, 3)


def test_brute_force_guard_counts_two_choices_per_edge():
    # palette 1 gave 1**m <= the guard and a recursion as deep as the
    # search reached: 2000 frames here, past Python's default limit
    with pytest.raises(PreconditionError, match="2\\^4000"):
        brute_force(bundle(4000), 2, 1)
    with pytest.raises(PreconditionError):
        brute_force(bundle(27), 2, 1)
    assert brute_force(bundle(26), 2, 2) is not None


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(model="mystery", n=5, r=2, min_degree=1, seed=0)
    with pytest.raises(ValueError):
        GenSpec(model="uniform", n=0, r=2, min_degree=1, seed=0)
    with pytest.raises(ValueError):
        GenSpec(model="uniform", n=5, r=2, min_degree=-1, seed=0)
    # each model's own rule is refused by the spec itself, before sampling;
    # graph's r = 2 comes first, so n=2, r=3 is not "r=3 exceeds n=2"
    for spec, message in (
        (("graph", 2, 3, 1, 0), "graph model requires r=2, got r=3"),
        (("graph", 1, 2, 0, 0), "r=2 exceeds n=1"),
        (("uniform", 3, 4, 1, 0), "r=4 exceeds n=3"),
        (("linear", 3, 4, 0, 0), "r=4 exceeds n=3"),
        (("regular", 3, 4, 1, 0), "r=4 exceeds n=3"),
        (("linear", 6, 3, 3, 0), "a linear 3-uniform instance at min_degree=3 needs at least 7 vertices, got n=6"),
        (("graph", 4, 2, 10, 0), "a linear 2-uniform instance at min_degree=10 needs at least 11 vertices, got n=4"),
        (("regular", 10, 3, 2, 0), "regular model requires r to divide n; got n=10, r=3"),
    ):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            GenSpec(*spec)
    # random.Random seeds from |seed|, so seed -3 would repeat seed 3
    with pytest.raises(PreconditionError, match="^seed must be non-negative, got -3$"):
        GenSpec("uniform", 8, 2, 4, -3)
    # the span and divisibility rules are their models' alone
    GenSpec("uniform", 6, 3, 3, 0)
    GenSpec("regular", 6, 3, 3, 0)
    GenSpec("uniform", 10, 3, 2, 0)
    with pytest.raises(PreconditionError, match="^r must be at least 1, got 0$"):
        GenSpec("uniform", 4, 0, 1, 0)


def test_genspec_rejects_vertex_count_over_limit():
    for n in (MAX_VERTICES + 1, 10**10):
        with pytest.raises(PreconditionError, match=f"n={n} exceeds the vertex limit"):
            GenSpec(model="uniform", n=n, r=2, min_degree=1, seed=0)


def test_genspec_rejects_incidences_over_limit():
    GenSpec(model="regular", n=4, r=2, min_degree=MAX_GEN_INCIDENCES // 4, seed=0)
    GenSpec(model="uniform", n=MAX_VERTICES, r=2, min_degree=0, seed=0)
    for n, d in ((4, MAX_GEN_INCIDENCES // 4 + 1), (4, 10**9), (MAX_GEN_INCIDENCES, 2)):
        with pytest.raises(PreconditionError, match="exceeds the incidence limit"):
            GenSpec(model="regular", n=n, r=2, min_degree=d, seed=0)


@pytest.mark.parametrize("model", ["uniform", "linear"])
def test_sampling_models_stop_at_incidence_limit(model, monkeypatch):
    # 40 vertices at min degree 1 take about 40 ln 40 / 2 = 74 sampled
    # pairs, past a limit of 64 incidences that n * min_degree = 40 obeys
    monkeypatch.setattr(genlab, "MAX_GEN_INCIDENCES", 64)
    with pytest.raises(GenerationError, match="exceed the incidence limit of 64"):
        generate(GenSpec(model, 40, 2, 1, 1))
    h = generate(GenSpec(model, 8, 2, 1, 1))
    assert len(h.edges) * 2 <= 64


# sha256 of serialize_hypergraph(generate(spec)). The first eight were
# recorded with the generators that rescanned min(deg) after every sample,
# the rest while the generators called random.sample and random.shuffle,
# for the draws the first eight miss: sample's pool branch (n <= 21, or
# n <= 21 + 4**ceil(log4 3r) for r > 5), its set branch at r > 5, a linear
# instance found by its second pass, and a shuffle whose bounds span ten
# bit lengths.
GENERATED_SHA256 = {
    ("uniform", 30, 3, 6, 1): "a008bd9b3567b44ec502b3323d19ab4a277db49f973b9c6c5afc2c8067c576bd",
    ("uniform", 30, 3, 6, 2): "36d3aa7de6eb520ac4e616ce228159625bea7bbe38dec015906327ad44891cd4",
    ("linear", 40, 3, 3, 1): "68bae2d946623b282d8a2f3e2e48c053bd8ab74af74abee0793a2ba7bc7e6fd7",
    ("linear", 40, 3, 3, 2): "662d789ea74164279b9fcba1aeb1a4525f63e21f84f5e42ae3ec20d8efbc9298",
    ("graph", 30, 2, 5, 1): "6e09fd24124a72a39320570e1843530c84e27ce3089b81461b893f1b0cf7ce3f",
    ("graph", 30, 2, 5, 2): "932970b0fbfdcba741ecd0aa9d71d4a0704cf127a08bb9a5f132669dd3d3b52c",
    ("regular", 30, 3, 6, 1): "1f008205bd03fb3b3aa4560b5519fc9935c3df1e422907596bdc3b03cfaff1d7",
    ("regular", 30, 3, 6, 2): "c1c28302ed82da2ff944cee544424dc054cde35ad757d8d539674247d12abb7c",
    ("uniform", 12, 3, 6, 1): "c300d3e7b0f807163c4deb9b1fb8adfa8b33f00d90439883f5be8de114fcd602",
    ("uniform", 12, 3, 6, 2): "65be0845587ec99ac0f9a0f472935e4671b45a0aee69742b422a64ffa9b32b3d",
    ("uniform", 40, 6, 4, 1): "638a8d54c3376ceaa8599dd9201868c7c1cd7f683ace72bf602f39bf19847971",
    ("uniform", 100, 6, 3, 1): "a75a352b57a799d5b8291eabd303bf96bbcaeb497aa0dca9fe37d33a4bac4143",
    ("linear", 80, 6, 2, 1): "f30815945f3e0a25040c494f0133d93169de4f6d92943532231ea844eda7fc3d",
    ("linear", 120, 6, 2, 1): "563d9c6bf2e6cad98c6b861eb5a69fcabe94e8956067f9cfce7535c823898fbd",
    ("linear", 14, 4, 2, 143): "e9b105b44f6141dcd6a97de6a364ffebcdd106657c10ca9d6ec3fe5fe9f56325",
    ("regular", 1000, 4, 3, 1): "c098eb1b425de43589a6297acfb9fdb42f5103894c460380ae96a59668eb855c",
}


@pytest.mark.parametrize("spec", sorted(GENERATED_SHA256))
def test_generated_instances_match_pinned_digests(spec):
    text = serialize_hypergraph(generate(GenSpec(*spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_SHA256[spec]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    nk=st.integers(1, 300).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n) | st.integers(1, min(n, 24)))
    ),
)
@example(seed=1, nk=(21, 5))  # pool at the last n it takes for k <= 5
@example(seed=1, nk=(22, 5))  # set
@example(seed=2, nk=(85, 6))  # pool at the last n it takes for k = 6
@example(seed=2, nk=(86, 6))  # set, k > 5
@example(seed=3, nk=(300, 22))  # set: 21 + 4**4 = 277 < 300
@example(seed=3, nk=(277, 22))  # pool
@example(seed=4, nk=(1, 1))
def test_draws_match_cpython_random(seed, nk):
    # the generators' own draws equal random's, call for call: the same
    # values and the same generator state after each draw
    n, k = nk
    rng, ref = random.Random(seed), random.Random(seed)
    perm, expected = list(range(n)), list(range(n))
    genlab._shuffle(rng, perm)
    ref.shuffle(expected)
    assert perm == expected
    assert rng.getstate() == ref.getstate()
    samples = genlab._samples(rng, n, k)
    for _ in range(3):
        assert next(samples) == ref.sample(range(n), k)
        assert rng.getstate() == ref.getstate()


def test_generators_reproducible():
    for model, n, r, d in [
        ("uniform", 12, 3, 5),
        ("linear", 15, 3, 4),
        ("graph", 10, 2, 4),
        ("regular", 12, 3, 5),
    ]:
        spec = GenSpec(model=model, n=n, r=r, min_degree=d, seed=99)
        a = generate(spec)
        b = generate(spec)
        assert a.edges == b.edges
        assert a.n_vertices == b.n_vertices


def test_gen_uniform_posts():
    for seed in range(5):
        spec = GenSpec(model="uniform", n=10, r=3, min_degree=7, seed=seed)
        h = generate(spec)
        assert h.min_degree() >= 7
        assert h.rank() == 3


def test_gen_uniform_min_degree_zero_is_empty():
    h = generate(GenSpec(model="uniform", n=5, r=2, min_degree=0, seed=3))
    assert h.edges == ()


def test_gen_uniform_n_equals_r():
    h = generate(GenSpec(model="uniform", n=4, r=4, min_degree=3, seed=3))
    assert all(e == frozenset(range(4)) for e in h.edges)
    assert all(d == len(h.edges) for d in h.degrees())


def test_gen_uniform_r_too_large():
    with pytest.raises(PreconditionError):
        generate(GenSpec(model="uniform", n=3, r=4, min_degree=1, seed=0))


def test_gen_linear_posts():
    for seed in range(5):
        h = generate(GenSpec(model="linear", n=25, r=3, min_degree=5, seed=seed))
        assert reference_linearity_witness(h) is None
        assert h.min_degree() >= 5


def test_gen_linear_infeasible_budget():
    # 5 vertices hold at most two triples meeting in one vertex, yet
    # 1 + 2 * (3 - 1) = 5 passes the up-front count, so only the budget stops it
    with pytest.raises(GenerationError, match="retry budget exhausted"):
        generate(GenSpec(model="linear", n=5, r=3, min_degree=2, seed=0))


def test_gen_linear_passes_again_after_a_dead_end():
    # seed 143's first greedy pass strands a vertex at degree 1 on a
    # feasible combination; the second pass draws on from the same samples
    # and reaches min_degree everywhere
    spec = GenSpec(model="linear", n=14, r=4, min_degree=2, seed=143)
    samples = genlab._samples(random.Random(spec.seed), spec.n, spec.r)
    assert genlab._linear_pass(spec, samples) is None
    second = genlab._linear_pass(spec, samples)
    h = generate(spec)
    assert h == Hypergraph(spec.n, second)
    # a pass from the seed's first sample would dead-end again
    fresh = genlab._samples(random.Random(spec.seed), spec.n, spec.r)
    assert genlab._linear_pass(spec, fresh) is None
    assert reference_linearity_witness(h) is None
    assert h.min_degree() >= 2


def test_gen_linear_rejects_too_few_vertices_up_front():
    # the min_degree edges at a vertex meet only there: 1 + d(r-1) vertices
    for n, r, d in ((4, 2, 10), (600, 600, 2), (6, 3, 3)):
        with pytest.raises(PreconditionError, match=f"needs at least {1 + d * (r - 1)} vertices"):
            generate(GenSpec(model="linear", n=n, r=r, min_degree=d, seed=0))
    with pytest.raises(PreconditionError, match="needs at least 11 vertices"):
        generate(GenSpec(model="graph", n=4, r=2, min_degree=10, seed=0))
    # at equality the bound admits K_5 and a single edge on every vertex
    assert len(generate(GenSpec(model="graph", n=5, r=2, min_degree=4, seed=0)).edges) == 10
    assert len(generate(GenSpec(model="linear", n=600, r=600, min_degree=1, seed=0)).edges) == 1


def test_gen_linear_stops_at_pair_limit(monkeypatch):
    # 10 vertices at r=4 need at least 3 edges, 18 pairs, past a limit of 12
    monkeypatch.setattr(genlab, "MAX_GEN_PAIRS", 12)
    with pytest.raises(GenerationError, match="^18 vertex pairs of edges of size 4 exceed the pair limit of 12 "):
        generate(GenSpec("linear", 10, 4, 1, 1))
    assert MAX_GEN_PAIRS == 2**21
    # one edge of 3000 vertices would store 4.5M pairs: refused before
    # the first sample is drawn
    with pytest.raises(GenerationError, match="^4498500 vertex pairs of edges of size 3000 exceed"):
        generate(GenSpec("linear", 4000, 3000, 1, 1))


def test_gen_graph_is_simple_graph():
    h = generate(GenSpec(model="graph", n=12, r=2, min_degree=5, seed=2))
    assert h.rank() == 2
    assert reference_linearity_witness(h) is None
    assert len(set(h.edges)) == len(h.edges)
    with pytest.raises(PreconditionError):
        generate(GenSpec(model="graph", n=12, r=3, min_degree=5, seed=2))


def test_gen_regular_posts():
    spec = GenSpec(model="regular", n=12, r=3, min_degree=6, seed=5)
    h = gen_regular(spec)
    assert all(d == 6 for d in h.degrees())
    assert all(len(e) == 3 for e in h.edges)
    assert len(h.edges) == 6 * 12 // 3


def test_gen_regular_requires_divisibility():
    with pytest.raises(PreconditionError):
        generate(GenSpec(model="regular", n=10, r=3, min_degree=2, seed=0))
