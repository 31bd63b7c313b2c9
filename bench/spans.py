"""In-memory spans around the calls one layer of hypermaj makes into the next.

The tracer replaces module-level names (for example
`hypermaj.partition.round_weights`, the name the partition colourer uses to
reach the rounder) with wrappers that record a span and hand back the wrapped
function's result unchanged. Nothing under `src/` knows about it: the names are
patched only while one traced op runs and restored afterwards.

A span holds its name, start, end, the index of the span that caused it and
the op it belongs to. A layer's self time is its span's duration minus the
part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Any


class Tracer:
    """Collects spans and per-op counts; safe to use from worker threads.

    A span opened on a thread with no open span of its own (a trial run by the
    CLI's thread pool) is parented to the innermost open span of the thread
    that started the op.
    """

    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.counts: dict[tuple[Any, str], float] = {}
        self.peaks: dict[tuple[Any, str], float] = {}
        self.op: Any = None
        self.line_graph_cap: Optional[int] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: Any) -> None:
        self.op = op
        self._op_stack = self._stack()

    def add(self, name: str, value: float) -> None:
        key = (self.op, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, name: str, value: float) -> None:
        key = (self.op, name)
        with self._lock:
            self.peaks[key] = max(self.peaks.get(key, value), value)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, hook=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._op_stack and stack is not self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = None
        op = self.op
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[idx] = Span(name, start, end, parent, op)
        if hook is not None:
            # Counting work is recorded as its own span so that it is taken
            # out of the caller's self time instead of being billed to it.
            h0 = time.perf_counter()
            hook(self, result, args, kwargs)
            with self._lock:
                self.spans.append(Span("trace.hook", h0, time.perf_counter(), parent, op))
        return result

    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced


@contextmanager
def patched(tracer: Tracer, table):
    """Swap every (module, attribute, span name, hook) in table for a traced
    wrapper for the duration of the block."""
    saved = []
    try:
        for module, attr, name, hook in table:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    clipped to the span. Children may overlap when they ran on threads."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


# ---------------------------------------------------------------------------
# What is wrapped, and the counts read off the wrapped calls' results.


def _count_bytes(t: Tracer, result, args, kwargs) -> None:
    t.add("hypercore.bytes_parsed", len(args[0]))


def _count_violations(t: Tracer, report, args, kwargs) -> None:
    t.add("genlab.violations", len(report.violations))


def _count_rounding(t: Tracer, result, args, kwargs) -> None:
    steps = result[1].iterations
    t.add("rounder.iterations", len(steps))
    t.add("rounder.rows", sum(s.n_constrained for s in steps))
    t.add("rounder.fixed", sum(len(s.fixed) for s in steps))


def _count_resample(t: Tracer, run, args, kwargs) -> None:
    t.add("lll.rounds", run.rounds_used)


def _count_redraw(t: Tracer, bad, args, kwargs) -> None:
    # resample_colour redraws every edge at min(bad) after each call that
    # finds a bad vertex.
    if bad:
        t.add("lll.edges_redrawn", args[0].degree(min(bad)))


def _count_split(t: Tracer, result, args, kwargs) -> None:
    # Every caller passes (h_graph, k) positionally; the cap k*r is kept for
    # the line_graph call that follows.
    h_graph, k = args
    t.add("linearhg.sub_vertices", result[0].n_vertices)
    t.line_graph_cap = k * h_graph.rank()


def _count_line_graph(t: Tracer, lg, args, kwargs) -> None:
    t.add("linearhg.line_graph.edges", sum(len(nb) for nb in lg.neighbours) // 2)
    if t.line_graph_cap:
        t.peak("linearhg.line_graph.max_degree_over_cap", lg.max_degree() / t.line_graph_cap)


def layer_table():
    """(module, attribute, span name, hook) for every name the tracer wraps:
    the library entry points the benchmark calls, the names each colourer
    uses to reach the next layer, and the library names bound in the CLI."""
    from hypermaj import cli, genlab, hypercore, linearhg, lll, partition

    return [
        (hypercore, "parse_hypergraph", "hypercore.parse_hypergraph", _count_bytes),
        (hypercore, "serialize_colouring", "hypercore.serialize_colouring", None),
        (genlab, "verify", "genlab.verify", _count_violations),
        (partition, "colour_partition", "partition.colour_partition", None),
        (partition, "round_weights", "rounder.round_weights", _count_rounding),
        (lll, "resample_colour", "lll.resample_colour", _count_resample),
        (lll, "bad_vertices", "lll.bad_vertices", _count_redraw),
        (linearhg, "colour_linear", "linearhg.colour_linear", None),
        (linearhg, "split_hypergraph", "linearhg.split_hypergraph", _count_split),
        (linearhg, "line_graph", "linearhg.line_graph", _count_line_graph),
        (linearhg, "greedy_colour", "linearhg.greedy_colour", None),
        (cli, "main", "cli.main", None),
        (cli, "_cmd_colour", "cli.colour", None),
        (cli, "_cmd_verify", "cli.verify", None),
        (cli, "_cmd_round", "cli.round", None),
        (cli, "_cmd_threshold", "cli.threshold", None),
        (cli, "_cmd_generate", "cli.generate", None),
        (cli, "parse_hypergraph", "hypercore.parse_hypergraph", _count_bytes),
        (cli, "parse_colouring", "hypercore.parse_colouring", None),
        (cli, "parse_weights", "hypercore.parse_weights", None),
        (cli, "serialize_colouring", "hypercore.serialize_colouring", None),
        (cli, "serialize_hypergraph", "hypercore.serialize_hypergraph", None),
        (cli, "serialize_weights", "hypercore.serialize_weights", None),
        (cli, "generate", "genlab.generate", None),
        (cli, "verify", "genlab.verify", _count_violations),
        (cli, "partition_rounds", "partition.partition_rounds", None),
        (cli, "round_weights", "rounder.round_weights", _count_rounding),
        (cli, "colour_linear", "linearhg.colour_linear", None),
        (cli, "split_hypergraph", "linearhg.split_hypergraph", _count_split),
        (cli, "resample_colour", "lll.resample_colour", _count_resample),
        (cli, "threshold_details", "lll.threshold", None),
    ]


def generate_table():
    from hypermaj import genlab

    return [(genlab, "generate", "genlab.generate", None)]
