import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypermaj
from hypermaj import cli, hypercore, linearhg
from hypermaj.genlab import GenSpec, generate, verify
from hypermaj.hypercore import (
    Hypergraph,
    parse_colouring,
    parse_hypergraph,
    parse_weights,
    serialize_hypergraph,
)

TRIANGLE = "3 3\n1 2\n2 3\n1 3\n"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "hypermaj.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=120,
    )


def test_generate_colour_verify_round_trip(tmp_path):
    hgr = tmp_path / "in.hgr"
    col = tmp_path / "out.col"
    gen = run_cli(
        "generate", "--model", "uniform", "--n", "17", "--r", "2",
        "--min-degree", "16", "--seed", "42", "-o", str(hgr),
    )
    assert gen.returncode == 0, gen.stderr
    colour = run_cli(
        "colour", "--algorithm", "partition", "--k", "2", str(hgr), "-o", str(col)
    )
    assert colour.returncode == 0, colour.stderr
    assert "valid=true" in colour.stdout
    check = run_cli("verify", "--k", "2", str(hgr), str(col))
    assert check.returncode == 0, check.stderr
    # and the files really are what the library says they are
    h = parse_hypergraph(hgr.read_text())
    c = parse_colouring(col.read_text())
    assert verify(h, 2, c).valid


def test_colour_writes_data_to_stdout_without_output_flag(tmp_path):
    hgr = tmp_path / "in.hgr"
    hgr.write_text(TRIANGLE)
    res = run_cli("colour", "--algorithm", "linear", "--k", "2", str(hgr))
    assert res.returncode == 0
    c = parse_colouring(res.stdout)
    assert len(c) == 3
    assert "valid=true" in res.stderr  # result lines moved off the data stream


def test_verify_planted_violation_exit_1(tmp_path):
    hgr = tmp_path / "in.hgr"
    bad = tmp_path / "bad.col"
    hgr.write_text(TRIANGLE)
    bad.write_text("1\n1\n2\n")
    res = run_cli("verify", "--k", "2", str(hgr), str(bad))
    assert res.returncode == 1
    assert "valid=false" in res.stdout
    assert "violation vertex=2 colour=1 count=2 bound=1" in res.stderr


def test_verify_json_lines_reports_same_facts(tmp_path):
    hgr = tmp_path / "in.hgr"
    bad = tmp_path / "bad.col"
    hgr.write_text(TRIANGLE)
    bad.write_text("1\n1\n2\n")
    res = run_cli("--format", "json-lines", "verify", "--k", "2", str(hgr), str(bad))
    assert res.returncode == 1
    summary = json.loads(res.stdout.strip())
    assert summary == {
        "type": "summary",
        "algorithm": "verify",
        "k": 2,
        "palette": 2,
        "valid": False,
        "seconds": summary["seconds"],
    }
    violation = json.loads(res.stderr.strip())
    assert violation == {
        "type": "violation", "vertex": 2, "colour": 1, "count": 2, "bound": 1,
    }


def test_colour_linear_rejects_non_linear_input(tmp_path):
    hgr = tmp_path / "in.hgr"
    hgr.write_text("2 4\n1 2 3\n1 2 4\n")
    res = run_cli("colour", "--algorithm", "linear", "--k", "2", str(hgr))
    assert res.returncode == 2
    assert "edges 1 and 2" in res.stderr


def test_colour_linear_empty_file_exit_0(tmp_path):
    hgr = tmp_path / "empty.hgr"
    hgr.write_text("0 0\n")
    res = run_cli("colour", "--algorithm", "linear", "--k", "2", str(hgr))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "# palette 1\n"
    assert "valid=true" in res.stderr


def test_colour_linear_internal_breach_exit_3(tmp_path, monkeypatch, capsys):
    hgr = tmp_path / "in.hgr"
    out = tmp_path / "out.col"
    hgr.write_text(TRIANGLE)
    monkeypatch.setattr(linearhg, "greedy_colour", lambda lg: (6,) * lg.n_nodes)
    code = cli.main(
        ["colour", "--algorithm", "linear", "--k", "2", str(hgr), "-o", str(out)]
    )
    assert code == 3
    assert "internal error" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_empty_sizes_exit_2(tmp_path):
    for n, r, name in (("0", "2", "n"), ("6", "0", "r")):
        res = run_cli(
            "generate", "--model", "uniform", "--n", n, "--r", r,
            "--min-degree", "2", "-o", str(tmp_path / "g.hgr"),
        )
        assert res.returncode == 2, res.stderr
        assert res.stderr == f"error: {name} must be at least 1, got 0\n"


def test_vertex_count_over_limit_exit_2_before_allocating(tmp_path, monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("instance built for an over-limit vertex count")

    monkeypatch.setattr(hypercore, "Hypergraph", no_build)
    monkeypatch.setattr(cli, "generate", no_build)
    hgr = tmp_path / "huge.hgr"
    hgr.write_text("0 10000000000\n")
    assert cli.main(["verify", "--k", "2", str(hgr), str(hgr)]) == 2
    assert "vertex count 10000000000 exceeds the limit" in capsys.readouterr().err
    argv = ["generate", "--model", "uniform", "--n", "10000000000", "--r", "2",
            "--min-degree", "1", "-o", str(tmp_path / "g.hgr")]
    assert cli.main(argv) == 2
    assert "n=10000000000 exceeds the vertex limit" in capsys.readouterr().err
    assert not (tmp_path / "g.hgr").exists()


def test_colour_partition_below_degree_bound(tmp_path):
    hgr = tmp_path / "in.hgr"
    hgr.write_text(TRIANGLE)
    res = run_cli("colour", "--algorithm", "partition", "--k", "2", str(hgr))
    assert res.returncode == 2
    assert "requires at least" in res.stderr


def test_colour_partition_trace_lines(tmp_path):
    hgr = tmp_path / "in.hgr"
    col = tmp_path / "out.col"
    gen = run_cli(
        "generate", "--model", "regular", "--n", "18", "--r", "2",
        "--min-degree", "16", "--seed", "7", "-o", str(hgr),
    )
    assert gen.returncode == 0
    res = run_cli(
        "colour", "--algorithm", "partition", "--k", "2",
        str(hgr), "-o", str(col), "--trace",
    )
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].startswith("round 1 alpha 3/8 class_size ")
    assert lines[1].startswith("round 2 alpha 1/2 class_size ")


def test_round_subcommand_with_trace(tmp_path):
    hgr = tmp_path / "in.hgr"
    win = tmp_path / "w.txt"
    wout = tmp_path / "x.txt"
    trace = tmp_path / "trace.txt"
    hgr.write_text("3 4\n1 2\n1 3\n1 4\n")
    win.write_text("2/3\n2/3\n2/3\n")
    res = run_cli(
        "round", str(hgr), str(win), "-o", str(wout), "--trace-file", str(trace)
    )
    assert res.returncode == 0, res.stderr
    x = parse_weights(wout.read_text())
    assert all(w in (0, 1) for w in x.weights)
    assert sum(x.weights) >= 1  # centre sum must stay within rank 2 of 2
    first = trace.read_text().splitlines()[0].split()
    assert first[0] == "iter" and first[1] == "1"
    assert first[2] == "fixed" and first[4] == "step"


def test_round_weight_count_mismatch(tmp_path):
    hgr = tmp_path / "in.hgr"
    win = tmp_path / "w.txt"
    hgr.write_text(TRIANGLE)
    win.write_text("1/2\n")
    res = run_cli("round", str(hgr), str(win))
    assert res.returncode == 2
    assert "expected 3 weights" in res.stderr


def test_oracle_triangle(tmp_path):
    hgr = tmp_path / "in.hgr"
    hgr.write_text(TRIANGLE)
    res = run_cli("oracle", "--k", "2", "--palette", "3", str(hgr))
    assert res.returncode == 0
    assert parse_colouring(res.stdout).colours == (1, 2, 3)


def test_oracle_no_witness(tmp_path):
    hgr = tmp_path / "in.hgr"
    hgr.write_text("1 2\n1 2\n")
    res = run_cli("oracle", "--k", "2", "--palette", "3", str(hgr))
    assert res.returncode == 1
    assert "valid=false" in res.stdout


def test_threshold_subcommand():
    res = run_cli("threshold", "--k", "2", "--r", "2")
    assert res.returncode == 0
    assert "delta_star=323" in res.stdout


def test_malformed_input_exit_2(tmp_path):
    hgr = tmp_path / "in.hgr"
    hgr.write_text("2 3\n1 1 2\n3 1\n")
    res = run_cli("verify", "--k", "2", str(hgr), str(hgr))
    assert res.returncode == 2
    assert "line 2" in res.stderr


def test_missing_file_exit_2(tmp_path):
    res = run_cli("verify", "--k", "2", str(tmp_path / "nope.hgr"), "x")
    assert res.returncode == 2


def test_no_verify_skips_check(tmp_path):
    hgr = tmp_path / "in.hgr"
    col = tmp_path / "out.col"
    gen = run_cli(
        "generate", "--model", "regular", "--n", "16", "--r", "2",
        "--min-degree", "16", "--seed", "3", "-o", str(hgr),
    )
    assert gen.returncode == 0
    res = run_cli(
        "colour", "--algorithm", "partition", "--k", "2",
        str(hgr), "-o", str(col), "--no-verify",
    )
    assert res.returncode == 0
    assert "valid=-" in res.stdout


# The Fano plane: every degree is 3 >= k = 2, yet no 3-colouring is
# 1/2-majority (each vertex needs its three edges in distinct colours,
# and the line graph is K7), so resampling can only exhaust its cap.
FANO_HGR = "7 7\n1 2 3\n1 4 5\n1 6 7\n2 4 6\n2 5 7\n3 4 7\n3 5 6\n"


def test_random_lll_trials_ordered_and_exhausted_exit(tmp_path):
    hgr = tmp_path / "in.hgr"
    hgr.write_text(FANO_HGR)
    res = run_cli(
        "colour", "--algorithm", "random-lll", "--k", "2", str(hgr),
        "-o", str(tmp_path / "o.col"), "--trials", "3", "--jobs", "2",
        "--max-rounds", "25", "--seed", "50",
    )
    assert res.returncode == 1
    lines = [l for l in res.stdout.splitlines() if l.startswith("trial ")]
    assert [l.split()[1] for l in lines] == ["seed=50", "seed=51", "seed=52"]
    assert all("outcome=exhausted" in l for l in lines)
    assert "valid=false" in res.stdout


def test_random_lll_infeasible_exit_1(tmp_path, capsys):
    hgr = tmp_path / "in.hgr"
    hgr.write_text("1 2\n1 2\n")  # degree 1 < k: no colouring is valid
    argv = ["colour", str(hgr), "--algorithm", "random-lll", "--k", "2",
            "--trials", "2", "--seed", "50", "-o", str(tmp_path / "o.col")]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert [l for l in out if l.startswith("trial ")] == [
        "trial seed=50 outcome=infeasible rounds=0",
        "trial seed=51 outcome=infeasible rounds=0",
    ]
    assert "valid=false" in out[-1]


def test_random_lll_success(tmp_path):
    hgr = tmp_path / "in.hgr"
    col = tmp_path / "out.col"
    gen = run_cli(
        "generate", "--model", "uniform", "--n", "10", "--r", "2",
        "--min-degree", "60", "--seed", "5", "-o", str(hgr),
    )
    assert gen.returncode == 0
    res = run_cli(
        "colour", "--algorithm", "random-lll", "--k", "2", str(hgr),
        "-o", str(col), "--seed", "11",
    )
    assert res.returncode == 0, res.stdout + res.stderr
    h = parse_hypergraph(hgr.read_text())
    assert verify(h, 2, parse_colouring(col.read_text())).valid


def test_flag_scope_enforced(tmp_path):
    hgr = tmp_path / "in.hgr"
    hgr.write_text(TRIANGLE)
    res = run_cli(
        "colour", "--algorithm", "partition", "--k", "2", str(hgr), "--trials", "4"
    )
    assert res.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "5", "colour", "IN", "--algorithm", "random-lll", "--k", "2"],
        ["--no-verify", "colour", "IN", "--algorithm", "linear", "--k", "2"],
        ["verify", "IN", "IN", "--k", "2", "--seed", "5"],
        ["threshold", "--k", "2", "--r", "2", "--no-verify"],
        ["generate", "--model", "graph", "--n", "4", "--r", "2",
         "--min-degree", "1", "--no-verify"],
        ["colour", "IN", "--algorithm", "partition", "--k", "2", "--seed", "5"],
        # given at their default values, the random-lll flags still count
        ["colour", "IN", "--algorithm", "partition", "--k", "2", "--seed", "1729"],
        ["colour", "IN", "--algorithm", "partition", "--k", "2", "--trials", "1"],
        ["colour", "IN", "--algorithm", "linear", "--k", "2", "--jobs", "1"],
    ],
)
def test_flag_accepted_only_where_read(tmp_path, capsys, argv):
    hgr = tmp_path / "in.hgr"
    hgr.write_text(TRIANGLE)
    with pytest.raises(SystemExit) as exc:
        cli.main([str(hgr) if a == "IN" else a for a in argv])
    assert exc.value.code == 2
    assert "usage: hypermaj" in capsys.readouterr().err


def test_negative_max_rounds_exit_2(tmp_path, capsys):
    # a negative cap once reported the first invalid draw as exhausted, exit 1
    hgr = tmp_path / "in.hgr"
    hgr.write_text("1 2\n1 2\n")
    argv = ["colour", str(hgr), "--algorithm", "random-lll", "--k", "2", "--max-rounds", "-1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--max-rounds must be non-negative" in capsys.readouterr().err


def test_trials_start_at_most_one_thread_per_core(tmp_path, monkeypatch, capsys):
    hgr = tmp_path / "in.hgr"
    hgr.write_text("1 2\n1 2\n")  # degree 1 < k: every trial is infeasible
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    argv = ["colour", str(hgr), "--algorithm", "random-lll", "--k", "2",
            "--trials", "64", "--jobs", "64", "--max-rounds", "1",
            "-o", str(tmp_path / "o.col")]
    assert cli.main(argv) == 1
    assert started == [min(64, os.cpu_count() or 1)]
    trials = [l for l in capsys.readouterr().out.splitlines() if l.startswith("trial ")]
    assert [l.split()[1] for l in trials] == [f"seed={1729 + i}" for i in range(64)]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli.main(argv) == 1
    assert started[-1] == 3


def test_oracle_search_space_guard_exit_2(tmp_path):
    # palette 1 once slipped past the guard (1**m) into a RecursionError
    hgr = tmp_path / "in.hgr"
    hgr.write_text(serialize_hypergraph(generate(GenSpec("uniform", 40, 2, 120, 3))))
    res = run_cli("oracle", "--k", "2", "--palette", "1", str(hgr))
    assert res.returncode == 2
    assert res.stderr.startswith("error: search space 2^")
    assert "Traceback" not in res.stderr


def test_round_rejects_exponent_weights_exit_2(tmp_path):
    hgr = tmp_path / "in.hgr"
    win = tmp_path / "w.txt"
    hgr.write_text("3 4\n1 2\n1 3\n1 4\n")
    win.write_text("1/2\n1e999999999\n1/2\n")
    res = run_cli("round", str(hgr), str(win))
    assert res.returncode == 2
    assert "line 2" in res.stderr and "exponent" in res.stderr
    assert res.stdout == ""


def test_emit_split_file(tmp_path):
    hgr = tmp_path / "in.hgr"
    split = tmp_path / "split.txt"
    gen = run_cli(
        "generate", "--model", "graph", "--n", "12", "--r", "2",
        "--min-degree", "4", "--seed", "13", "-o", str(hgr),
    )
    assert gen.returncode == 0
    res = run_cli(
        "colour", "--algorithm", "linear", "--k", "2", str(hgr),
        "-o", str(tmp_path / "o.col"), "--emit-split", str(split),
    )
    assert res.returncode == 0
    h = parse_hypergraph(hgr.read_text())
    lines = split.read_text().splitlines()
    assert len(lines) == h.n_vertices
    u, t, m_colon = lines[0].split()[:3]
    assert u == "1"
    assert int(t) == h.degree(0) // 2


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(hypermaj.__file__))
    res = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, hypermaj.cli; print('numpy' in sys.modules, 'mpmath' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False False"


def test_no_assert_statements_in_package():
    # guarantees are raised as InvariantBreach; `python -O` strips asserts
    package = pathlib.Path(hypermaj.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@st.composite
def fuzz_files(draw, kind):
    """Small text for an HGR, colouring or weights file: half the time a
    valid file of its kind (at most 6 edges or entries, so the oracle's
    search space stays tiny), else at most six lines of tokens drawn from
    digits, signs, fractions and junk."""
    if draw(st.booleans()):
        if kind == "hgr":
            n = draw(st.integers(1, 6))
            edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
            return serialize_hypergraph(Hypergraph(n, draw(st.lists(edge, max_size=6))))
        entry = st.integers(1, 3).map(str) if kind == "colours" else st.fractions(0, 1, max_denominator=12).map(str)
        head = "# palette 3\n" if kind == "colours" and draw(st.booleans()) else ""
        return head + "".join(e + "\n" for e in draw(st.lists(entry, max_size=6)))
    token = st.sampled_from(
        ("0", "1", "2", "3", "6", "-1", "1/2", "3/2", "0.5", "1e3", "x", "%", "#", "palette", "")
    )
    lines = draw(st.lists(st.lists(token, max_size=4).map(" ".join), max_size=6))
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines) + "\n"


@st.composite
def fuzz_argvs(draw):
    """argv for every subcommand with flag values from small ranges, some
    out of their domain, plus stray tokens. random-lll always gets an
    explicit small --max-rounds and at most 3 trials and jobs."""
    def pick(valid, invalid):
        # about one draw in ten is out of the domain
        out = draw(st.sampled_from((False,) * 9 + (True,)))
        return draw(st.sampled_from(invalid if out else valid))

    def small():
        return pick(("2", "3", "4"), ("-1", "0", "1", "5", "x", "2.5"))

    commands = ("colour",) * 4 + ("verify", "round", "threshold", "generate", "oracle")
    command = draw(st.sampled_from(commands))
    argv = [command]
    if command in ("colour", "verify", "round", "oracle"):
        argv.append("IN")
    if command == "colour":
        algorithm = pick(("partition", "linear", "random-lll"), ("other",))
        argv += ["--algorithm", algorithm, "--k", small()]
        if algorithm == "random-lll":
            argv += ["--max-rounds", pick(("0", "1", "7", "30"), ("-1",))]
            for flag in ("--seed", "--trials", "--jobs"):
                if draw(st.booleans()):
                    argv += [flag, pick(("1", "2", "3"), ("-1", "0"))]
        own = {"partition": "--trace", "linear": "--emit-split=SPLIT"}.get(algorithm, "-o=OUT")
        argv += draw(st.lists(st.sampled_from(("--no-verify", "-o=OUT", own)), unique=True))
    elif command == "verify":
        argv += ["COLOURS", "--k", small()]
    elif command == "round":
        argv += ["WEIGHTS"] + draw(st.lists(st.sampled_from(("-o=OUT", "--trace-file=TRACE")), unique=True))
    elif command == "threshold":
        argv += ["--k", small(), "--r", small()]
    elif command == "generate":
        argv += ["--model", pick(("uniform", "linear", "graph", "regular"), ("x",))]
        for flag in ("--n", "--r", "--min-degree"):
            argv += [flag, str(draw(st.integers(-1, 12)))]
        argv += draw(st.lists(st.sampled_from(("--seed=3", "-o=OUT")), unique=True))
    else:
        argv += ["--k", small(), "--palette", small()]
    if draw(st.booleans()):
        argv.insert(0 if draw(st.booleans()) else len(argv), "--format=json-lines")
    if draw(st.integers(0, 5)) == 0:
        stray = ("--bogus", "-o", "--k", "IN", "--trace", "--emit-split=SPLIT", "--seed=1")
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(stray)))
    return argv


@settings(max_examples=300, deadline=None)
@given(fuzz_argvs(), fuzz_files("hgr"), fuzz_files("colours"), fuzz_files("weights"))
def test_cli_exit_contract_fuzz(argv, hgr, colours, weights):
    # Any argv and any small input ends in an exit code of the contract
    # (0-3) with no traceback; argparse's own usage errors exit 2.
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("IN", hgr), ("COLOURS", colours), ("WEIGHTS", weights)):
            paths[name] = os.path.join(tmp, name.lower())
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        for name in ("OUT", "SPLIT", "TRACE"):
            paths[name] = os.path.join(tmp, name.lower())
        args = []
        for arg in argv:
            flag, eq, value = arg.partition("=")
            args.append(flag + eq + paths.get(value, value) if eq else paths.get(arg, arg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()
