"""Command-line front end.

Subcommands: colour, verify, round, threshold, generate, oracle.
Exit codes: 0 success; 1 the requested property does not hold (invalid
colouring, no oracle witness, no resampling trial succeeded: each was
exhausted, or infeasible because some vertex has (k+1)*(d(v)//k) <
d(v)); 2 malformed input or violated precondition; 3 internal error (an
algorithm's own guarantee failed, which is a bug, not bad input; colour
then writes no output file and no colouring to stdout).
--k and --r above MAX_K_OR_R are usage errors (exit 2), refused before
any input is read; so are colour's --seed below 0 or above MAX_SEED and
--trials above MAX_TRIALS. A negative seed would repeat the draws of its
absolute value, since random.Random seeds from |seed|; generate refuses
one too (exit 2). round --trace-file refuses a trace with a step past
Python's limit on converting an int to text (4300 digits by default):
exit 2 naming the iteration, with neither file written.

Result lines are plain `key=value` text by default, or one JSON object
per line with the same fields under --format json-lines. When colouring
or instance data goes to stdout (no -o given), result lines move to
stderr so the data stream stays clean; with -o they go to stdout.
Violations and errors always go to stderr. Output files are written
atomically (temp file in the target directory, then rename), with the
mode open(path, "w") would give: 0o666 less the umask for a new file,
the old mode for an overwritten one. Input files are read as bytes and
decoded by the parsers, so one that is not UTF-8 is malformed (exit 2).

A call loads only the library modules its subcommand runs, since
without a bytecode cache every call compiles each module it imports:
threshold loads lll alone, verify and generate hypercore and genlab.
json loads only for --format json-lines, and fractions only for it or
for weights (round, colour --algorithm partition). Each library name a
handler calls is resolved on first use by this module's __getattr__,
through the package's export table, which loads only the name's home
module.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
import time

from . import GEN_MODELS
from .errors import FormatError, GenerationError, InvariantBreach, PreconditionError

DEFAULT_SEED = 1729

# Largest --k or --r accepted. Numbers derived from a larger one, such as
# the palette k+1, the degree bound 2rk^2 or delta*, can pass Python's
# 4300-digit limit on converting an int to text.
MAX_K_OR_R = 2**31

# Largest first trial seed of colour --algorithm random-lll. Every trial
# prints its seed, and a seed past the 4300-digit limit could not be
# printed.
MAX_SEED = 2**64

# Most trials in one colour --algorithm random-lll call. A report row is
# kept per trial until the colouring has been delivered, so this also
# bounds the memory those rows take.
MAX_TRIALS = 10**4

__all__ = ["DEFAULT_SEED", "main"]

# The handlers reach the package's names as attributes of _lib, this
# module itself, at each call: a name resolves through __getattr__ below,
# loading its home module, the first time a handler calls it, and a value
# set on the module (a test's stand-in, a tracer's wrapper) is the one
# called.
_package = sys.modules[__package__]


def __getattr__(name: str):
    if name not in _package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_package, name)
    globals()[name] = value
    return value


_lib = sys.modules[__name__]


class Reporter:
    """Emits result lines as text or JSON objects with the same fields."""

    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, kind: str, fields: dict, stream, text: str | None = None) -> None:
        if self.fmt == "json-lines":
            import json
            from fractions import Fraction

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
    """Write text to path through a temp file beside its target and a
    rename. A symlink is written through, as open(path, "w") does: the
    rename lands on the file the link resolves to, existing or not. The
    file gets the mode open(path, "w") would give it: an existing target
    keeps its own, a new file 0o666 less the umask (mkstemp alone would
    leave 0o600). An OSError names path, not the target or the temp
    file."""
    import tempfile

    target = os.path.realpath(path)
    tmp = None
    try:
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".hypermaj-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _read(path: str) -> bytes:
    # the parsers decode, so a file that is not UTF-8 is a FormatError
    with open(path, "rb") as fh:
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


def _split_lines(splits) -> str:
    lines = []
    for u, split in enumerate(splits):
        blocks = "; ".join(
            ",".join(str(e + 1) for e in block) for block in split.blocks
        )
        lines.append(f"{u + 1} {split.t} {split.m}: {blocks}")
    return "\n".join(lines) + "\n"


def _cmd_colour(args, rep: Reporter) -> int:
    t0 = time.perf_counter()
    h_graph = _lib.parse_hypergraph(_read(args.input))
    k = args.k
    rows = []  # (kind, fields, text) report lines, emitted after delivery
    failed = False  # no random-lll trial succeeded
    splits = None  # the blocks for --emit-split

    if args.algorithm == "partition":
        colouring, alphas = _lib.partition_rounds(h_graph, k)
        if args.trace:
            for i, a in enumerate(alphas, start=1):
                row = {"round": i, "alpha": a, "class_size": colouring.colours.count(i)}
                text = "round {round} alpha {alpha} class_size {class_size}".format(**row)
                rows.append(("round", row, text))
    elif args.algorithm == "linear":
        if args.emit_split:
            _, splits = _lib.split_hypergraph(h_graph, k)
        colouring = _lib.colour_linear(h_graph, k)
    else:  # random-lll
        # only the colouring to print (first success, else the first
        # trial's) and one row per trial outlive a trial
        colouring = None
        for seed in range(args.seed, args.seed + args.trials):
            run = _lib.resample_colour(h_graph, k, seed, args.max_rounds)
            if colouring is None or (failed and run.outcome == "success"):
                failed = run.outcome != "success"
                colouring = run.colouring
            row = {"seed": run.seed, "outcome": run.outcome, "rounds": run.rounds_used}
            rows.append(("trial", row, None))

    report = None if failed or args.no_verify else _lib.verify(h_graph, k, colouring)
    broken = report is not None and not report.valid
    if broken:
        # a colouring that fails its own check is a bug, like a breach:
        # nothing is written, and every result line goes to stderr
        stream = sys.stderr
    else:
        if splits is not None:
            _atomic_write(args.emit_split, _split_lines(splits))
        stream = _deliver(_lib.serialize_colouring(colouring), args.output)
    for kind, row, text in rows:
        rep.emit(kind, row, stream, text)
    valid = False if failed else None if report is None else report.valid
    _summary(rep, stream, args.algorithm, k, colouring.palette_size, valid, t0)
    if broken:
        _emit_violations(rep, report)
        return 3
    return 1 if failed else 0


def _cmd_verify(args, rep: Reporter) -> int:
    t0 = time.perf_counter()
    h_graph = _lib.parse_hypergraph(_read(args.input))
    colouring = _lib.parse_colouring(_read(args.colours))
    report = _lib.verify(h_graph, args.k, colouring)
    _summary(
        rep, sys.stdout, "verify", args.k, colouring.palette_size, report.valid, t0
    )
    if not report.valid:
        _emit_violations(rep, report)
        return 1
    return 0


def _cmd_round(args, rep: Reporter) -> int:
    t0 = time.perf_counter()
    h_graph = _lib.parse_hypergraph(_read(args.input))
    z = _lib.parse_weights(_read(args.weights), expected=len(h_graph.edges))
    x, trace = _lib.round_weights(h_graph, z)
    if args.trace_file:
        lines = []
        for i, step in enumerate(trace.iterations, start=1):
            ids = ",".join(str(e + 1) for e in step.fixed)
            try:
                lines.append(f"iter {i} fixed {ids} step {step.step}")
            except ValueError:
                # the step's numerator or denominator is past the limit;
                # neither file has been written yet
                limit = sys.get_int_max_str_digits()
                raise PreconditionError(
                    f"iteration {i}: the trace step has more than {limit} digits, "
                    f"the limit on converting an int to text"
                ) from None
        _atomic_write(args.trace_file, "".join(line + "\n" for line in lines))
    stream = _deliver(_lib.serialize_weights(x), args.output)
    # valid: round_weights checked the rank band at every vertex, and a
    # breach never gets here (exit 3)
    _summary(rep, stream, "round", None, None, True, t0)
    return 0


def _cmd_threshold(args, rep: Reporter) -> int:
    delta, lhs1, lhs2 = _lib.threshold_details(args.k, args.r)
    rep.emit(
        "threshold",
        {"k": args.k, "r": args.r, "delta_star": delta, "lhs1": lhs1, "lhs2": lhs2},
        stream=sys.stdout,
    )
    return 0


def _cmd_generate(args, rep: Reporter) -> int:
    t0 = time.perf_counter()
    spec = _lib.GenSpec(
        model=args.model,
        n=args.n,
        r=args.r,
        min_degree=args.min_degree,
        seed=args.seed,
    )
    h_graph = _lib.generate(spec)
    stream = _deliver(_lib.serialize_hypergraph(h_graph), args.output)
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
    h_graph = _lib.parse_hypergraph(_read(args.input))
    colouring = _lib.brute_force(h_graph, args.k, args.palette)
    if colouring is None:
        _summary(rep, sys.stdout, "oracle", args.k, args.palette, False, t0)
        return 1
    stream = _deliver(_lib.serialize_colouring(colouring), args.output)
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
        help="ignored: trials run one after another (random-lll only)",
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
    """Reject a --k or --r above MAX_K_OR_R and colour flags given for an
    algorithm that does not read them, then fill in the random-lll
    defaults, which are None until here so that a flag given with its
    default value still counts as given, and bound --seed and --trials."""
    for flag in ("k", "r"):
        if getattr(args, flag, 0) > MAX_K_OR_R:
            parser.error(f"--{flag} must be at most {MAX_K_OR_R}")
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
    args.seed = DEFAULT_SEED if args.seed is None else args.seed
    args.trials = 1 if args.trials is None else args.trials
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    if args.trials > MAX_TRIALS:
        parser.error(f"--trials must be at most {MAX_TRIALS}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    if args.seed > MAX_SEED:
        parser.error(f"--seed must be at most {MAX_SEED}")
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
