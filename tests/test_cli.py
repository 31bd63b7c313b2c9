import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hypermaj
from hypermaj import cli, hypercore, linearhg
from hypermaj.genlab import GenSpec, generate, verify
from hypermaj.hypercore import (
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


def test_random_lll_trials_ordered_and_exhausted_exit(tmp_path):
    hgr = tmp_path / "in.hgr"
    hgr.write_text("1 2\n1 2\n")  # degree 1 < k: unsatisfiable
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
    hgr.write_text("1 2\n1 2\n")  # degree 1 < k: every trial exhausts
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
