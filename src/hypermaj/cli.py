"""Command-line front end.

Subcommands: colour, verify, round, threshold, generate, oracle.
Exit codes: 0 success; 1 the requested property does not hold (invalid
colouring, no oracle witness, no resampling trial succeeded: each was
exhausted, or infeasible because some vertex has 0 < d(v) < k);
2 malformed input or violated precondition; 3 internal error (an
algorithm's own guarantee failed, which is a bug, not bad input).

Result lines are plain `key=value` text by default, or one JSON object
per line with the same fields under --format json-lines. When colouring
or instance data goes to stdout (no -o given), result lines move to
stderr so the data stream stays clean; with -o they go to stdout.
Violations and errors always go to stderr. Output files are written
atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from .errors import FormatError, GenerationError, InvariantBreach, PreconditionError
from .genlab import GEN_MODELS, GenSpec, brute_force, generate, verify
from .hypercore import (
    parse_colouring,
    parse_hypergraph,
    parse_weights,
    serialize_colouring,
    serialize_hypergraph,
    serialize_weights,
)
from .linearhg import colour_linear, split_hypergraph
from .lll import resample_colour, threshold_details
from .partition import partition_rounds
from .rounder import round_weights

DEFAULT_SEED = 1729

__all__ = ["DEFAULT_SEED", "main"]


class Reporter:
    """Emits result lines as text or JSON objects with the same fields."""

    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, kind: str, fields: dict, stream, text: str | None = None) -> None:
        if self.fmt == "json-lines":
            record = {"type": kind}
            for key, value in fields.items():
                if isinstance(value, Fraction):
                    value = str(value)
                record[key] = value
            print(json.dumps(record), file=stream)
        elif text is not None:
            print(text, file=stream)
        else:
            parts = []
            for key, value in fields.items():
                if isinstance(value, bool):
                    value = "true" if value else "false"
                elif value is None:
                    value = "-"
                parts.append(f"{key}={value}")
            prefix = "" if kind == "summary" else kind + " "
            print(prefix + " ".join(parts), file=stream)
        stream.flush()


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hypermaj-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _deliver(data: str, out_path: str | None):
    """Write data to out_path, or to stdout when no path was given.
    Returns the stream for result lines: stderr when stdout carried the
    data, so the data stream stays clean, else stdout."""
    if out_path is None:
        sys.stdout.write(data)
        sys.stdout.flush()
        return sys.stderr
    _atomic_write(out_path, data)
    return sys.stdout


def _summary(rep: Reporter, stream, algorithm, k, palette, valid, t0) -> None:
    rep.emit(
        "summary",
        {
            "algorithm": algorithm,
            "k": k,
            "palette": palette,
            "valid": valid,
            "seconds": round(time.perf_counter() - t0, 3),
        },
        stream=stream,
    )


def _emit_violations(rep: Reporter, report) -> None:
    for vio in report.violations:
        rep.emit(
            "violation",
            {
                "vertex": vio.vertex + 1,
                "colour": vio.colour,
                "count": vio.count,
                "bound": vio.bound,
            },
            stream=sys.stderr,
        )


def _split_lines(smap) -> str:
    lines = []
    for u, split in enumerate(smap.splits):
        blocks = "; ".join(
            ",".join(str(e + 1) for e in block) for block in split.blocks
        )
        lines.append(f"{u + 1} {split.t} {split.m}: {blocks}")
    return "\n".join(lines) + "\n"


def _cmd_colour(args, rep: Reporter) -> int:
    t0 = time.perf_counter()
    h_graph = parse_hypergraph(_read(args.input))
    k = args.k
    rows = []  # (kind, fields, text) report lines, emitted after delivery
    failed = False  # no random-lll trial succeeded

    if args.algorithm == "partition":
        colouring, alphas = partition_rounds(h_graph, k)
        if args.trace:
            for i, a in enumerate(alphas, start=1):
                row = {"round": i, "alpha": a, "class_size": colouring.colours.count(i)}
                text = "round {round} alpha {alpha} class_size {class_size}".format(**row)
                rows.append(("round", row, text))
    elif args.algorithm == "linear":
        if args.emit_split:
            _, smap = split_hypergraph(h_graph, k)
            _atomic_write(args.emit_split, _split_lines(smap))
        colouring = colour_linear(h_graph, k)
    else:  # random-lll
        seeds = range(args.seed, args.seed + args.trials)
        # at most one thread per core: the trials hold the GIL
        workers = max(1, min(args.jobs, args.trials, os.cpu_count() or 1))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            runs = list(
                pool.map(lambda s: resample_colour(h_graph, k, s, args.max_rounds), seeds)
            )
        winner = next((r for r in runs if r.outcome == "success"), None)
        failed = winner is None
        colouring = (winner or runs[0]).colouring
        for run in runs:
            row = {"seed": run.seed, "outcome": run.outcome, "rounds": run.rounds_used}
            rows.append(("trial", row, None))

    stream = _deliver(serialize_colouring(colouring), args.output)
    for kind, row, text in rows:
        rep.emit(kind, row, stream, text)
    palette = colouring.palette_size
    if failed:
        _summary(rep, stream, args.algorithm, k, palette, False, t0)
        return 1
    if args.no_verify:
        _summary(rep, stream, args.algorithm, k, palette, None, t0)
        return 0
    report = verify(h_graph, k, colouring)
    _summary(rep, stream, args.algorithm, k, palette, report.valid, t0)
    if not report.valid:
        _emit_violations(rep, report)
        return 3
    return 0


def _cmd_verify(args, rep: Reporter) -> int:
    t0 = time.perf_counter()
    h_graph = parse_hypergraph(_read(args.input))
    colouring = parse_colouring(_read(args.colours))
    if len(colouring) != len(h_graph.edges):
        raise FormatError(
            0,
            f"colouring has {len(colouring)} entries for "
            f"{len(h_graph.edges)} edges",
        )
    report = verify(h_graph, args.k, colouring)
    _summary(
        rep, sys.stdout, "verify", args.k, colouring.palette_size, report.valid, t0
    )
    if not report.valid:
        _emit_violations(rep, report)
        return 1
    return 0


def _cmd_round(args, rep: Reporter) -> int:
    t0 = time.perf_counter()
    h_graph = parse_hypergraph(_read(args.input))
    z = parse_weights(_read(args.weights), expected=len(h_graph.edges))
    x, trace = round_weights(h_graph, z)
    if args.trace_file:
        lines = []
        for i, step in enumerate(trace.iterations, start=1):
            ids = ",".join(str(e + 1) for e in step.fixed)
            lines.append(f"iter {i} fixed {ids} step {step.step}")
        _atomic_write(args.trace_file, "".join(line + "\n" for line in lines))
    stream = _deliver(serialize_weights(x), args.output)
    _summary(rep, stream, "round", None, None, True, t0)
    return 0


def _cmd_threshold(args, rep: Reporter) -> int:
    delta, lhs1, lhs2 = threshold_details(args.k, args.r)
    rep.emit(
        "threshold",
        {"k": args.k, "r": args.r, "delta_star": delta, "lhs1": lhs1, "lhs2": lhs2},
        stream=sys.stdout,
    )
    return 0


def _cmd_generate(args, rep: Reporter) -> int:
    t0 = time.perf_counter()
    spec = GenSpec(
        model=args.model,
        n=args.n,
        r=args.r,
        min_degree=args.min_degree,
        seed=args.seed,
    )
    h_graph = generate(spec)
    stream = _deliver(serialize_hypergraph(h_graph), args.output)
    rep.emit(
        "generated",
        {
            "model": args.model,
            "n": h_graph.n_vertices,
            "edges": len(h_graph.edges),
            "min_degree": h_graph.min_degree(),
            "rank": h_graph.rank(),
            "seconds": round(time.perf_counter() - t0, 3),
        },
        stream,
    )
    return 0


def _cmd_oracle(args, rep: Reporter) -> int:
    t0 = time.perf_counter()
    h_graph = parse_hypergraph(_read(args.input))
    colouring = brute_force(h_graph, args.k, args.palette)
    if colouring is None:
        _summary(rep, sys.stdout, "oracle", args.k, args.palette, False, t0)
        return 1
    stream = _deliver(serialize_colouring(colouring), args.output)
    _summary(rep, stream, "oracle", args.k, args.palette, True, t0)
    return 0


def _add_format(parser: argparse.ArgumentParser, top: bool) -> None:
    # A subcommand's --format overrides the top-level one only when given.
    parser.add_argument(
        "--format",
        choices=("text", "json-lines"),
        default="text" if top else argparse.SUPPRESS,
        help="result line format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermaj",
        description="1/k-majority (k+1)-edge-colouring of hypergraphs",
    )
    _add_format(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_colour = sub.add_parser("colour", help="colour a hypergraph")
    p_colour.add_argument("input", help="HGR file")
    p_colour.add_argument(
        "--algorithm",
        required=True,
        choices=("partition", "linear", "random-lll"),
    )
    p_colour.add_argument("--k", type=int, required=True)
    p_colour.add_argument("-o", "--output", help="colouring output file")
    p_colour.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the automatic validity check after colouring",
    )
    p_colour.add_argument(
        "--trace", action="store_true", help="per-round report (partition only)"
    )
    p_colour.add_argument(
        "--emit-split", metavar="FILE", help="write the vertex split map (linear only)"
    )
    p_colour.add_argument(
        "--seed", type=int, default=None, help="first trial seed (random-lll only)"
    )
    p_colour.add_argument(
        "--max-rounds", type=int, default=None, help="resampling cap (random-lll only)"
    )
    p_colour.add_argument(
        "--trials", type=int, default=None, help="seeded trials (random-lll only)"
    )
    p_colour.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="concurrent trials, at most one per core (random-lll only)",
    )
    p_colour.set_defaults(func=_cmd_colour)

    p_verify = sub.add_parser("verify", help="check a colouring")
    p_verify.add_argument("input", help="HGR file")
    p_verify.add_argument("colours", help="colouring file")
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_round = sub.add_parser("round", help="round fractional edge weights to 0/1")
    p_round.add_argument("input", help="HGR file")
    p_round.add_argument("weights", help="weights file, one rational per line")
    p_round.add_argument("-o", "--output", help="rounded weights output file")
    p_round.add_argument("--trace-file", metavar="FILE", help="write the iteration trace")
    p_round.set_defaults(func=_cmd_round)

    p_thr = sub.add_parser("threshold", help="least degree at which the random model works")
    p_thr.add_argument("--k", type=int, required=True)
    p_thr.add_argument("--r", type=int, required=True)
    p_thr.set_defaults(func=_cmd_threshold)

    p_gen = sub.add_parser("generate", help="generate a seeded instance")
    p_gen.add_argument("--model", required=True, choices=GEN_MODELS)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--r", type=int, required=True)
    p_gen.add_argument("--min-degree", type=int, required=True)
    p_gen.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"random seed (default {DEFAULT_SEED})"
    )
    p_gen.add_argument("-o", "--output", help="HGR output file")
    p_gen.set_defaults(func=_cmd_generate)

    p_oracle = sub.add_parser("oracle", help="exhaustive search for a valid colouring")
    p_oracle.add_argument("input", help="HGR file")
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--palette", type=int, required=True)
    p_oracle.add_argument("-o", "--output", help="colouring output file")
    p_oracle.set_defaults(func=_cmd_oracle)

    for p_sub in sub.choices.values():
        _add_format(p_sub, top=False)
    return parser


def _check_flag_scope(parser, args) -> None:
    """Reject colour flags given for an algorithm that does not read them,
    then fill in the random-lll defaults, which are None until here so
    that a flag given with its default value still counts as given."""
    if args.command != "colour":
        return
    if args.algorithm != "partition" and args.trace:
        parser.error("--trace only applies to --algorithm partition")
    if args.algorithm != "linear" and args.emit_split:
        parser.error("--emit-split only applies to --algorithm linear")
    if args.algorithm != "random-lll":
        for flag in ("seed", "max_rounds", "trials", "jobs"):
            if getattr(args, flag) is not None:
                name = "--" + flag.replace("_", "-")
                parser.error(f"{name} only applies to --algorithm random-lll")
    if args.k < 2:
        parser.error(f"--k must be at least 2, got {args.k}")
    for flag, default in (("seed", DEFAULT_SEED), ("trials", 1), ("jobs", 1)):
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    if args.max_rounds is not None and args.max_rounds < 0:
        parser.error(f"--max-rounds must be non-negative, got {args.max_rounds}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_flag_scope(parser, args)
    rep = Reporter(args.format)
    try:
        return args.func(args, rep)
    except (PreconditionError, FormatError, GenerationError, OSError) as exc:
        rep.emit("error", {"message": str(exc)}, sys.stderr, text=f"error: {exc}")
        return 2
    except InvariantBreach as exc:
        rep.emit(
            "error",
            {"message": f"internal error: {exc}"},
            sys.stderr,
            text=f"error: internal error: {exc}",
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
