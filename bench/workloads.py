"""The benchmark's four workloads: a seeded corpus, the timed op and the
check applied to every output.

Every corpus is a pure function of the workload name and the seed. The
program only ever receives HGR text (or HGR files, for the CLI session); the
benchmark re-parses each output and checks it before it counts as correct.

All workloads use k = 2: at k = 3 the randomized colourer did not finish
within 100 s on regular instances of degree 30-60, so no workload could run
it without failures.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any, Callable, Optional

from hypermaj import cli, genlab, hypercore, linearhg, lll, partition

K = 2
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Slot:
    """One op of a corpus pass.

    key is the bytes that define the input, used to check that two
    generations from one seed are identical. edges counts the edges this op
    colours (0 for CLI calls that colour nothing).
    """

    label: str
    key: bytes
    edges: int
    data: Any = field(compare=False, repr=False)


def fingerprint(slots) -> str:
    h = hashlib.sha256()
    for s in slots:
        h.update(s.label.encode())
        h.update(hashlib.sha256(s.key).digest())
    return h.hexdigest()


def _seeds(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _spread(lo: int, hi: int, i: int, count: int) -> int:
    """The i-th of count values spaced evenly from lo to hi."""
    return lo + (hi - lo) * i // max(count - 1, 1)


# ---------------------------------------------------------------------------
# Library workloads: HGR text in, verified colouring text out.


@dataclass(frozen=True)
class Instance:
    text: str
    rank: int
    run_seed: int = 0


class ColourWorkload:
    """One op: parse, colour, verify, serialize, as a user of the library
    would. The check re-parses the serialized colouring and verifies it.

    Corpora come in a seeded random order, so that the ops of a partial last
    pass are a fair sample of the sizes."""

    import_stmt = "import hypermaj"

    def __init__(self, name, why, build, colour, palette):
        self.name = name
        self.why = why
        self._build = build
        self._colour = colour
        self._palette = palette

    def build(self, seed: int, workdir: str) -> list[Slot]:
        return self._build(seed)

    def prepare(self, slot: Slot) -> None:
        pass

    def op(self, slot: Slot):
        h = hypercore.parse_hypergraph(slot.data.text)
        colouring, outcome = self._colour(h, slot.data)
        report = genlab.verify(h, K, colouring)
        return hypercore.serialize_colouring(colouring), report, outcome, h

    replay = op

    def check(self, slot: Slot, result) -> tuple[bytes, Optional[str]]:
        text, report, outcome, h = result
        if outcome != "success":
            return text.encode(), f"resample {outcome}"
        if not report.valid:
            return text.encode(), f"verify rejected: {len(report.violations)} violations"
        parsed = hypercore.parse_colouring(text)
        palette = self._palette(slot.data.rank)
        if len(parsed) != slot.edges or parsed.palette_size != palette:
            return text.encode(), (
                f"output has {len(parsed)} colours over palette {parsed.palette_size};"
                f" expected {slot.edges} over {palette}"
            )
        if not genlab.verify(h, K, parsed).valid:
            return text.encode(), "re-parsed output rejected by verify"
        return text.encode(), None

    def warm(self, slots: list[Slot]) -> Optional[str]:
        slot = min(slots, key=lambda s: s.edges)
        return self.check(slot, self.op(slot))[1]


def _slot(label: str, h, instance: Instance) -> Slot:
    return Slot(label, instance.text.encode(), len(h.edges), instance)


# partition-uniform: the rounder's exact kernel walk is almost all of an op and
# grows about cubically with the instance, so sizes are spread evenly and
# kept small enough for several passes over the corpus in one run.
PARTITION_SLOTS = 120
PARTITION_N = (10, 16)


def build_partition(seed: int) -> list[Slot]:
    rng = _seeds("partition-uniform", seed)
    slots = []
    for i in range(PARTITION_SLOTS):
        r = 2 + i % 2
        n = _spread(*PARTITION_N, i // 2, PARTITION_SLOTS // 2)
        spec = genlab.GenSpec("uniform", n, r, 2 * r * K * K, rng.randrange(2**31))
        h = genlab.generate(spec)
        text = hypercore.serialize_hypergraph(h)
        slots.append(_slot(f"uniform r={r} n={n} m={len(h.edges)}", h, Instance(text, r)))
    rng.shuffle(slots)
    return slots


def _partition(h, inst):
    return partition.colour_partition(h, K), "success"


# lll-regular: each resampling round rescans every incidence in bad_vertices,
# so an op costs about rounds * m. The round count falls steeply with the
# degree and rises with the rank, so rank 2 runs at degree 16 and rank 3 at
# degree 20: the two kinds then take about as long at the same m. The round
# count of one instance varies widely with its seed (a coefficient of
# variation of 0.25-0.5 at m = 500-1000), so the corpus holds many small
# instances of a few dozen rounds each: the more ops a pass holds, the less
# the pass's time, its median and its tail move from one corpus seed to the
# next.
LLL_SLOTS = 240
LLL_M = (500, 800)
LLL_KINDS = ((2, 16), (3, 20))


def build_lll(seed: int) -> list[Slot]:
    rng = _seeds("lll-regular", seed)
    slots = []
    for i in range(LLL_SLOTS):
        r, d = LLL_KINDS[i % len(LLL_KINDS)]
        m = _spread(*LLL_M, i // 2, LLL_SLOTS // 2)
        n = r * max(1, round(m / d))
        spec = genlab.GenSpec("regular", n, r, d, rng.randrange(2**31))
        h = genlab.generate(spec)
        text = hypercore.serialize_hypergraph(h)
        inst = Instance(text, r, rng.randrange(2**31))
        slots.append(_slot(f"regular r={r} d={d} m={len(h.edges)}", h, inst))
    rng.shuffle(slots)
    return slots


def _resample(h, inst):
    run = lll.resample_colour(h, K, inst.run_seed)
    return run.colouring, run.outcome


# linear-large: three generated bases (graph r=2, linear r=3, linear r=4).
# Each slot is the disjoint union of 1-2 relabelled copies of one base with
# its edges in a seeded order. The generator costs about as much per edge as
# the op itself, so deriving slots this way keeps set-up short; the union of
# linear hypergraphs is linear and keeps the base's minimum degree.
LINEAR_BASES = (("graph", 2, 260, 36), ("linear", 3, 300, 30), ("linear", 4, 420, 28))
LINEAR_COPIES = (1, 2)
LINEAR_SLOTS = 36


def build_linear(seed: int) -> list[Slot]:
    rng = _seeds("linear-large", seed)
    bases = []
    for model, r, n, d in LINEAR_BASES:
        h = genlab.generate(genlab.GenSpec(model, n, r, d, rng.randrange(2**31)))
        bases.append((model, r, h.n_vertices, [sorted(e) for e in h.edges]))
    slots = []
    for i in range(LINEAR_SLOTS):
        model, r, nb, base_edges = bases[i % len(bases)]
        copies = LINEAR_COPIES[(i // len(bases)) % len(LINEAR_COPIES)]
        lines = []
        for c in range(copies):
            ids = [str(c * nb + v + 1) for v in range(nb)]
            rng.shuffle(ids)
            lines.extend(" ".join([ids[v] for v in e]) for e in base_edges)
        rng.shuffle(lines)
        text = f"{len(lines)} {copies * nb}\n" + "\n".join(lines) + "\n"
        label = f"{model} r={r} copies={copies} m={len(lines)}"
        slots.append(Slot(label, text.encode(), len(lines), Instance(text, r)))
    rng.shuffle(slots)
    return slots


def _linear(h, inst):
    return linearhg.colour_linear(h, K), "success"


# ---------------------------------------------------------------------------
# cli-session: a fixed script of `python -m hypermaj.cli` calls.


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[["CliResult"], Optional[str]]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


_SECONDS = re.compile(r"seconds=[0-9.]+")


def _read_bytes(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def threshold_holds(k: int, r: int, delta: int) -> bool:
    """Both threshold inequalities at (k, r, delta) with the library's
    2^-30 safety margin, evaluated in decimal arithmetic at 50 digits,
    independently of the library's own evaluation."""
    with localcontext() as ctx:
        ctx.prec = 50
        decay = (Decimal(-delta) / (3 * k * k * (k + 1))).exp()
        cutoff = 1 - Decimal(2) ** -30
        return 4 * (k + 1) * decay <= cutoff and 8 * (k + 1) * (r - 1) * decay * delta <= cutoff


def _check_threshold(k: int, r: int):
    def check(res: CliResult) -> Optional[str]:
        m = re.search(r"delta_star=(\d+)", res.stdout)
        if not m:
            return "no delta_star in output"
        d = int(m.group(1))
        if not threshold_holds(k, r, d) or threshold_holds(k, r, d - 1):
            return f"delta_star={d} is not the least passing degree"
        return None

    return check


def _check_file_equals(path: str, expected: bytes):
    def check(res: CliResult) -> Optional[str]:
        return None if _read_bytes(path) == expected else f"{os.path.basename(path)} differs"

    return check


def _check_colouring(path: str, h, palette: int, extra=None):
    def check(res: CliResult) -> Optional[str]:
        if "valid=true" not in res.stdout:
            return "colour did not report valid=true"
        data = _read_bytes(path)
        if data is None:
            return "no colouring written"
        col = hypercore.parse_colouring(data)
        if len(col) != len(h.edges) or col.palette_size != palette:
            return "colouring has the wrong length or palette"
        if not genlab.verify(h, K, col).valid:
            return "re-parsed colouring rejected by verify"
        return extra(res, h, col) if extra else None

    return check


def _check_partition_trace(res: CliResult, h, col) -> Optional[str]:
    sizes = [int(x) for x in re.findall(r"^round \d+ alpha \S+ class_size (\d+)$", res.stdout, re.M)]
    expected = [col.colours.count(c) for c in range(1, K + 1)]
    return None if sizes == expected else f"trace class sizes {sizes} != {expected}"


def _check_split(path: str):
    def extra(res: CliResult, h, col) -> Optional[str]:
        lines = (_read_bytes(path) or b"").decode().splitlines()
        if len(lines) != h.n_vertices:
            return "split file has the wrong number of lines"
        for u, line in enumerate(lines):
            head, _, blocks = line.partition(": ")
            d = h.degree(u)
            if head != f"{u + 1} {d // K} {d % K}" or len(blocks.split("; ")) != d // K:
                return f"split line {u + 1} does not match degree {d}"
        return None

    return extra


def _check_trials(trials: int):
    def extra(res: CliResult, h, col) -> Optional[str]:
        outcomes = re.findall(r"^trial seed=\d+ outcome=(\w+)", res.stdout, re.M)
        if outcomes != ["success"] * trials:
            return f"trial outcomes {outcomes}"
        return None

    return extra


def _check_verify(res: CliResult) -> Optional[str]:
    return None if "valid=true" in res.stdout else "verify did not report valid=true"


def _check_round(out_path: str, trace_path: str, h, z: list[Fraction]):
    def check(res: CliResult) -> Optional[str]:
        data = _read_bytes(out_path)
        if data is None:
            return "no rounded weights written"
        x = [Fraction(line) for line in data.decode().split()]
        if len(x) != len(z) or any(v not in (0, 1) for v in x):
            return "rounded weights are not a 0/1 vector of the right length"
        r = h.rank()
        for v in range(h.n_vertices):
            inc = h.incident_edges(v)
            zs = sum((z[e] for e in inc), Fraction(0))
            xs = sum((x[e] for e in inc), Fraction(0))
            if not zs - r < xs < zs + r:
                return f"discrepancy bound broken at vertex {v + 1}"
        trace = (_read_bytes(trace_path) or b"").decode().splitlines()
        for i, line in enumerate(trace, start=1):
            m = re.fullmatch(r"iter (\d+) fixed ([\d,]+) step (\S+)", line)
            if not m or int(m.group(1)) != i:
                return f"malformed trace line {i}"
            if any(not 1 <= int(e) <= len(z) for e in m.group(2).split(",")):
                return f"trace line {i} names an edge out of range"
        return None

    return check


def _weights(rng: random.Random, m: int) -> list[Fraction]:
    """Random rationals strictly inside (0, 1) with mixed denominators."""
    out = []
    for _ in range(m):
        q = rng.choice((2, 3, 5, 7, 12, 97, 1000))
        out.append(Fraction(rng.randint(1, q - 1), q))
    return out


class CliSession:
    """The script covers every subcommand a user runs: generate for each
    model, colour with all three algorithms (--trace, --emit-split and
    --trials/--jobs), verify each colouring, round random rationals, and
    threshold over a (k, r) grid. One op is one subprocess call."""

    name = "cli-session"
    import_stmt = "import hypermaj.cli"

    def __init__(self, why: str, src: str):
        self.why = why
        self.src = src
        self.jobs = min(2, os.cpu_count() or 1)

    def build(self, seed: int, workdir: str) -> list[Slot]:
        """Write the input files into workdir and return the script. Calls
        come in a seeded order, each verify right after the colour call
        whose output it reads, so that a partial last pass is a fair
        sample of the script."""
        rng = _seeds(self.name, seed)
        path = lambda name: os.path.join(workdir, name)  # noqa: E731
        groups: list[list[Slot]] = []

        def slot(label, argv, outputs, check, edges=0, key=b""):
            call = CliCall(argv, outputs, check)
            return Slot(label, "\0".join(argv).encode() + b"\0" + key, edges, call)

        def write(name: str, text: str) -> bytes:
            data = text.encode()
            with open(path(name), "wb") as fh:
                fh.write(data)
            return data

        def instance(name, model, n, r, d):
            h = genlab.generate(genlab.GenSpec(model, n, r, d, rng.randrange(2**31)))
            return h, write(name, hypercore.serialize_hypergraph(h))

        for model, n, r, d in (("uniform", 16, 2, 16), ("linear", 120, 3, 12),
                               ("graph", 150, 2, 20), ("regular", 300, 3, 40)):
            s = rng.randrange(2**31)
            out = path(f"gen-{model}.hgr")
            expected = hypercore.serialize_hypergraph(
                genlab.generate(genlab.GenSpec(model, n, r, d, s))
            ).encode()
            argv = ("generate", "--model", model, "--n", str(n), "--r", str(r),
                    "--min-degree", str(d), "--seed", str(s), "-o", out)
            groups.append([slot(f"generate {model}", argv, (out,), _check_file_equals(out, expected))])

        def colour(label, name, model, n, r, d, palette, flags, extra=None, outputs=()):
            h, key = instance(name, model, n, r, d)
            out = path(f"{name}.col")
            argv = ("colour", path(name), "--k", str(K), "-o", out) + flags
            check = _check_colouring(out, h, palette, extra)
            verify = ("verify", path(name), out, "--k", str(K))
            groups.append([
                slot(label, argv, (out,) + outputs, check, len(h.edges), key),
                slot(f"verify {name}", verify, (), _check_verify, key=key),
            ])

        colour("colour partition r=2", "part2.hgr", "uniform", 18, 2, 16, K + 1,
               ("--algorithm", "partition", "--trace"), _check_partition_trace)
        colour("colour partition r=3", "part3.hgr", "uniform", 16, 3, 24, K + 1,
               ("--algorithm", "partition", "--trace"), _check_partition_trace)
        split = path("lin3.split")
        colour("colour linear --emit-split", "lin3.hgr", "linear", 300, 3, 20, K * 3 + 1,
               ("--algorithm", "linear", "--emit-split", split), _check_split(split), (split,))
        colour("colour linear graph", "graph.hgr", "graph", 200, 2, 24, K * 2 + 1,
               ("--algorithm", "linear",))
        for name, n, r, d in (("reg2.hgr", 200, 2, 40), ("reg3.hgr", 150, 3, 45)):
            colour(f"colour random-lll r={r}", name, "regular", n, r, d, K + 1,
                   ("--algorithm", "random-lll", "--trials", "2", "--jobs", str(self.jobs),
                    "--seed", str(rng.randrange(2**31))), _check_trials(2))

        for i, (n, r, d) in enumerate(((12, 2, 10), (10, 3, 12), (14, 2, 12))):
            h, key = instance(f"round{i}.hgr", "uniform", n, r, d)
            z = _weights(rng, len(h.edges))
            key += write(f"round{i}.w", "".join(f"{w}\n" for w in z))
            out, trace = path(f"round{i}.out"), path(f"round{i}.trace")
            argv = ("round", path(f"round{i}.hgr"), path(f"round{i}.w"), "-o", out, "--trace-file", trace)
            groups.append([slot(f"round r={r} m={len(h.edges)}", argv, (out, trace),
                                _check_round(out, trace, h, z), key=key)])

        for k in (2, 3, 4):
            for r in (2, 3, 4):
                argv = ("threshold", "--k", str(k), "--r", str(r))
                groups.append([slot(f"threshold k={k} r={r}", argv, (), _check_threshold(k, r))])

        rng.shuffle(groups)
        return [s for group in groups for s in group]

    def prepare(self, slot: Slot) -> None:
        for p in slot.data.outputs:
            if os.path.exists(p):
                os.unlink(p)

    def op(self, slot: Slot) -> CliResult:
        proc = subprocess.run(
            [sys.executable, "-m", "hypermaj.cli", *slot.data.argv],
            capture_output=True, text=True, env=child_env(self.src),
            timeout=CHILD_TIMEOUT_S,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def replay(self, slot: Slot) -> CliResult:
        """The same call made in this process through `hypermaj.cli.main`."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(slot.data.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return CliResult(code, out.getvalue(), err.getvalue())

    def check(self, slot: Slot, res: CliResult) -> tuple[bytes, Optional[str]]:
        digest = [str(res.code).encode(), _SECONDS.sub("seconds=*", res.stdout + res.stderr).encode()]
        for p in slot.data.outputs:
            digest.append(_read_bytes(p) or b"")
        data = b"\0".join(digest)
        if res.code != 0:
            return data, f"exit code {res.code}: {res.stderr.strip()[-200:]}"
        return data, slot.data.check(res)

    def warm(self, slots: list[Slot]) -> Optional[str]:
        slot = next(s for s in slots if s.data.argv[0] == "threshold")
        return self.check(slot, self.op(slot))[1]


def palette_k1(rank: int) -> int:
    return K + 1


def palette_linear(rank: int) -> int:
    return K * rank + 1


WHY = {
    "partition-uniform": "uniform r=2,3 at min degree 2rk^2: the rounder's exact kernel walk is nearly all of the time",
    "lll-regular": "regular r=2 at degree 16 and r=3 at degree 20: the per-round bad_vertices rescan is the largest part of an op; the rounder idles",
    "linear-large": "large linear and graph instances, r=2-4: parse, split, line graph and greedy, all linear time",
    "cli-session": "a fixed script of hypermaj.cli subprocesses: pays import, argparse, file I/O, mpmath and the rounder on arbitrary weights",
}


def make(name: str, src: str):
    if name == "partition-uniform":
        return ColourWorkload(name, WHY[name], build_partition, _partition, palette_k1)
    if name == "lll-regular":
        return ColourWorkload(name, WHY[name], build_lll, _resample, palette_k1)
    if name == "linear-large":
        return ColourWorkload(name, WHY[name], build_linear, _linear, palette_linear)
    if name == "cli-session":
        return CliSession(WHY[name], src)
    raise ValueError(f"unknown workload {name!r}")


NAMES = tuple(WHY)
