"""Tests of the benchmark itself: the tail rule, self-time arithmetic,
seeded corpora and the traced wrappers' transparency."""

import math
import os

import pytest

import run

run.use_checkout_package()

import workloads  # noqa: E402
from spans import Span, Tracer, layer_table, patched, self_times  # noqa: E402


@pytest.mark.parametrize("n, q", [(20, 50), (24, 58), (30, 66), (40, 75), (100, 90), (1000, 99)])
def test_tail_percentile_known_values(n, q):
    assert run.tail_percentile(n) == q


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(20, 600):
        q = run.tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > run.nearest_rank(values, q) for v in values)
        assert beyond >= 10, n
        assert n - math.ceil((q + 1) * n / 100) < 10, n


def test_tail_percentile_never_below_median():
    assert [run.tail_percentile(n) for n in (1, 10, 11, 19)] == [50, 50, 50, 50]
    assert run.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0


def test_self_time_nested_and_overlapping_children():
    spans_ = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a, as threads do
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),  # clipped to the parent's end
        Span("other-root", 20.0, 21.0, None, 1),
    ]
    assert self_times(spans_) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_tracer_records_parents_and_passes_results_through():
    t = Tracer()
    t.begin_op((0, 0))
    inner = t.wrap("inner", lambda x: x * 2)
    outer = t.wrap("outer", lambda x: inner(x) + 1)
    assert outer(5) == 11
    names = {s.name: s for s in t.spans}
    assert names["inner"].parent == t.spans.index(names["outer"])
    assert names["outer"].parent is None

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap("boom", boom)()
    assert t.spans[-1].name == "boom"


def test_same_seed_gives_byte_identical_corpora(tmp_path):
    for name in run.WORKLOADS:
        w = workloads.make(name, str(run.SRC))
        workdir = tmp_path / name
        workdir.mkdir()
        a, b = w.build(11, str(workdir)), w.build(11, str(workdir))
        assert [s.key for s in a] == [s.key for s in b], name
        assert workloads.fingerprint(a) == workloads.fingerprint(b), name
        c = w.build(12, str(workdir))
        assert workloads.fingerprint(c) != workloads.fingerprint(a), name


@pytest.fixture(scope="module")
def table():
    return layer_table()


@pytest.mark.parametrize("name", ["partition-uniform", "lll-regular", "linear-large"])
def test_traced_wrappers_leave_outputs_byte_identical(name, table):
    w = workloads.make(name, str(run.SRC))
    slot = min(w.build(3, ""), key=lambda s: s.edges)
    plain, problem = w.check(slot, w.op(slot))
    assert problem is None
    originals = [getattr(mod, attr) for mod, attr, _, _ in table]
    tracer = Tracer()
    tracer.begin_op((0, 0))
    with patched(tracer, table):
        result = w.op(slot)
    traced, problem = w.check(slot, result)
    assert problem is None
    assert traced == plain
    assert [getattr(mod, attr) for mod, attr, _, _ in table] == originals
    assert tracer.spans and all(s is not None for s in tracer.spans)


def test_cli_replay_traced_matches_untraced_and_subprocess(tmp_path, table):
    w = workloads.make("cli-session", str(run.SRC))
    slots = w.build(5, str(tmp_path))
    picked = [next(s for s in slots if s.label.startswith(prefix))
              for prefix in ("colour linear --emit", "round r=2", "threshold k=2 r=2")]
    for slot in picked:
        w.prepare(slot)
        child, problem = w.check(slot, w.op(slot))
        assert problem is None, (slot.label, problem)
        w.prepare(slot)
        plain, _ = w.check(slot, w.replay(slot))
        w.prepare(slot)
        tracer = Tracer()
        tracer.begin_op((0, 0))
        with patched(tracer, table):
            result = w.replay(slot)
        traced, problem = w.check(slot, result)
        assert problem is None
        assert child == plain == traced, slot.label


def test_cli_checks_reject_wrong_outputs(tmp_path):
    w = workloads.make("cli-session", str(run.SRC))
    slots = w.build(5, str(tmp_path))
    thr = next(s for s in slots if s.label == "threshold k=2 r=2")
    ok = workloads.CliResult(0, "threshold k=2 r=2 delta_star=323 lhs1=0 lhs2=0\n", "")
    assert w.check(thr, ok)[1] is None
    off_by_one = workloads.CliResult(0, ok.stdout.replace("323", "324"), "")
    assert w.check(thr, off_by_one)[1] is not None
    assert w.check(thr, workloads.CliResult(2, "", "error"))[1].startswith("exit code 2")


def test_jobs_never_exceed_cores(tmp_path):
    w = workloads.make("cli-session", str(run.SRC))
    jobs = [s.data.argv[s.data.argv.index("--jobs") + 1]
            for s in w.build(5, str(tmp_path)) if "--jobs" in s.data.argv]
    assert jobs and all(1 <= int(j) <= (os.cpu_count() or 1) for j in jobs)
