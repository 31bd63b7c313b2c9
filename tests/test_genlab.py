import random

import pytest

from hypermaj.errors import GenerationError, PreconditionError
from hypermaj.genlab import (
    GenSpec,
    Violation,
    brute_force,
    complete_graph,
    gen_regular,
    generate,
    verify,
)
from hypermaj.hypercore import Colouring, Hypergraph


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
    with pytest.raises(ValueError):
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
        assert h.is_linear()
        assert h.min_degree() >= 5


def test_gen_linear_infeasible_budget():
    # a 4-vertex simple graph tops out at degree 3
    with pytest.raises(GenerationError):
        generate(GenSpec(model="linear", n=4, r=2, min_degree=10, seed=0))


def test_gen_graph_is_simple_graph():
    h = generate(GenSpec(model="graph", n=12, r=2, min_degree=5, seed=2))
    assert h.rank() == 2
    assert h.is_linear()
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


def test_complete_graph():
    h = complete_graph(5)
    assert len(h.edges) == 10
    assert all(d == 4 for d in h.degrees())
    assert h.is_linear()
    assert h.rank() == 2
