"""The package's frozen record classes: field equality and hash, the
Name(field=value, ...) repr, and no assignment or deletion."""

from fractions import Fraction

import pytest

from hypermaj import (
    Colouring,
    GenSpec,
    Hypergraph,
    PreconditionError,
    ResampleRun,
    RoundingTrace,
    TraceStep,
    VerifyReport,
    Violation,
    Weighting,
)
from hypermaj.linearhg import LineGraph, VertexSplit

STEP = TraceStep(3, 4, Fraction(1, 2), (0, 2))

# (record, an equal record built apart from it, a record differing in one
# field, its repr)
CASES = [
    (
        Hypergraph(3, [(0, 1), (1, 2)]),
        Hypergraph(3, [[1, 0], [2, 1]]),
        Hypergraph(4, [(0, 1), (1, 2)]),
        "Hypergraph(n_vertices=3, edges=(frozenset({0, 1}), frozenset({1, 2})))",
    ),
    (
        Colouring([1, 2], 2),
        Colouring((1, 2), 2),
        Colouring([1, 2], 3),
        "Colouring(colours=(1, 2), palette_size=2)",
    ),
    (
        Weighting([Fraction(1, 2), 1]),
        Weighting(["1/2", 1]),
        Weighting([Fraction(1, 2), 0]),
        "Weighting(weights=(Fraction(1, 2), Fraction(1, 1)))",
    ),
    (
        VerifyReport(valid=False, violations=(Violation(0, 1, 2, 1),)),
        VerifyReport(False, (Violation(0, 1, 2, 1),)),
        VerifyReport(valid=True, violations=()),
        "VerifyReport(valid=False, violations=(Violation(vertex=0, colour=1, count=2, bound=1),))",
    ),
    (
        GenSpec("uniform", 8, 2, 4, 1),
        GenSpec(model="uniform", n=8, r=2, min_degree=4, seed=1),
        GenSpec("uniform", 8, 2, 4, 2),
        "GenSpec(model='uniform', n=8, r=2, min_degree=4, seed=1)",
    ),
    (
        VertexSplit(1, 2, ((0, 1, 2), (3, 4))),
        VertexSplit(m=1, t=2, blocks=((0, 1, 2), (3, 4))),
        VertexSplit(0, 2, ((0, 1, 2), (3, 4))),
        "VertexSplit(m=1, t=2, blocks=((0, 1, 2), (3, 4)))",
    ),
    (
        LineGraph(2, ((1,), (0,))),
        LineGraph(n_nodes=2, neighbours=((1,), (0,))),
        LineGraph(2, ((), ())),
        "LineGraph(n_nodes=2, neighbours=((1,), (0,)))",
    ),
    (
        ResampleRun(1, 0, 0, "success", Colouring([1], 2)),
        ResampleRun(seed=1, max_rounds=0, rounds_used=0, outcome="success",
                    colouring=Colouring([1], 2)),
        ResampleRun(1, 0, 0, "exhausted", Colouring([1], 2)),
        "ResampleRun(seed=1, max_rounds=0, rounds_used=0, outcome='success', "
        "colouring=Colouring(colours=(1,), palette_size=2))",
    ),
    (
        STEP,
        TraceStep(n_constrained=3, n_frac=4, step=Fraction(2, 4), fixed=(0, 2)),
        TraceStep(3, 4, Fraction(1, 3), (0, 2)),
        "TraceStep(n_constrained=3, n_frac=4, step=Fraction(1, 2), fixed=(0, 2))",
    ),
    (
        RoundingTrace((STEP,)),
        RoundingTrace(iterations=(TraceStep(3, 4, Fraction(1, 2), (0, 2)),)),
        RoundingTrace(()),
        f"RoundingTrace(iterations=({STEP!r},))",
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("record, same, other, text", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(record, same, other, text):
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != other
    fields = tuple(vars(record)[f] for f in type(record).__annotations__)
    assert hash(record) == hash(fields)
    # a tuple of the same values is not the record
    assert record != fields


@pytest.mark.parametrize("record, same, other, text", CASES, ids=IDS)
def test_repr_names_every_field(record, same, other, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, same, other, text", CASES, ids=IDS)
def test_fields_refuse_assignment_and_deletion(record, same, other, text):
    for name in (*type(record).__annotations__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in type(record).__annotations__:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == same


def test_hypergraph_compares_by_vertex_count_and_edges_only():
    h = Hypergraph(3, [(0, 1), (1, 2)])
    assert set(type(h).__annotations__) == {"n_vertices", "edges"}
    assert h.incidence() == ((0,), (0, 1), (1,))
    assert h == Hypergraph._trusted(3, [frozenset({0, 1}), frozenset({1, 2})])
    assert h != Hypergraph(3, [(1, 2), (0, 1)])
    assert {h: 1}[Hypergraph(3, [(0, 1), (1, 2)])] == 1


def test_records_of_different_classes_never_compare_equal():
    assert LineGraph(2, ((1,), (0,))) != VertexSplit(2, ((1,), (0,)), ())
    assert Colouring([], 0) != Weighting([])


@pytest.mark.parametrize(
    "args, message",
    [
        (("cube", 8, 2, 4, 1), "unknown model 'cube'"),
        (("uniform", 0, 2, 4, 1), "n must be at least 1, got 0"),
        (("graph", 8, 3, 2, 1), "graph model requires r=2, got r=3"),
        (("regular", 9, 2, 2, 1), "regular model requires r to divide n"),
        (("uniform", 8, 2, 4, -1), "seed must be non-negative, got -1"),
    ],
)
def test_genspec_refuses_bad_specs_on_construction(args, message):
    with pytest.raises(PreconditionError, match=message):
        GenSpec(*args)
    with pytest.raises(PreconditionError, match=message):
        GenSpec(**dict(zip(("model", "n", "r", "min_degree", "seed"), args)))


def test_generated_init_takes_fields_by_position_or_name_only():
    with pytest.raises(TypeError):
        TraceStep(3, 4, Fraction(1, 2))
    with pytest.raises(TypeError):
        TraceStep(3, 4, Fraction(1, 2), (0,), extra=1)
