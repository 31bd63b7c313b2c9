import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypermaj
from hypermaj import cli, hypercore, linearhg, rounder
from hypermaj.errors import InvariantBreach
from hypermaj.genlab import GenSpec, generate, verify
from hypermaj.hypercore import (
    Colouring,
    Hypergraph,
    Weighting,
    parse_colouring,
    parse_hypergraph,
    parse_weights,
    serialize_colouring,
    serialize_hypergraph,
)
from hypermaj.linearhg import colour_linear

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


def test_verify_length_mismatch_exit_2(tmp_path, capsys):
    # the length check is verify's own; the CLI reports it unchanged
    hgr = tmp_path / "in.hgr"
    col = tmp_path / "c.col"
    hgr.write_text(TRIANGLE)
    col.write_text("1\n2\n")
    assert cli.main(["verify", str(hgr), str(col), "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: colouring has 2 entries for 3 edges\n"


def test_verify_malformed_colouring_exit_2(tmp_path, capsys):
    hgr = tmp_path / "in.hgr"
    col = tmp_path / "c.col"
    hgr.write_text(TRIANGLE)
    col.write_text("# palette 3\n1\n0\n2\n")
    assert cli.main(["verify", str(hgr), str(col), "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: colour 0 must be at least 1\n"


def test_colour_linear_accepts_non_linear_input(tmp_path):
    # the complete 3-uniform hypergraph on 4 vertices: every two edges
    # share two vertices, and every vertex has degree 3 >= k^2 - k
    hgr = tmp_path / "in.hgr"
    split = tmp_path / "split.txt"
    hgr.write_text("4 4\n1 2 3\n1 2 4\n3 4 1\n2 3 4\n")
    res = run_cli(
        "colour", "--algorithm", "linear", "--k", "2", str(hgr), "--emit-split", str(split)
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "# palette 7\n1\n2\n3\n4\n"
    assert "valid=true" in res.stderr
    assert split.read_text() == "1 1 1: 1,2,3\n2 1 1: 1,2,4\n3 1 1: 1,3,4\n4 1 1: 2,3,4\n"
    # below the degree bound a non-linear file is refused for its degree
    hgr.write_text("2 4\n1 2 3\n1 2 4\n")
    res = run_cli("colour", "--algorithm", "linear", "--k", "2", str(hgr))
    assert res.returncode == 2
    assert res.stderr == "error: min degree 1 below k^2 - k = 2 for k = 2\n"


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
    split = tmp_path / "out.split"
    monkeypatch.setattr(linearhg, "_cursor_fit", lambda edges, degrees, k: [6] * len(edges))
    code = cli.main(
        ["colour", "--algorithm", "linear", "--k", "2", str(hgr), "-o", str(out),
         "--emit-split", str(split)]
    )
    assert code == 3
    assert "internal error" in capsys.readouterr().err
    assert not out.exists()
    assert not split.exists()


def test_colour_failing_its_own_verify_writes_nothing(tmp_path, monkeypatch, capsys):
    # a colouring that fails verify is a bug like a breach: exit 3 leaves
    # no -o file, no colouring on stdout, and the result lines on stderr
    hgr = tmp_path / "in.hgr"
    out = tmp_path / "out.col"
    hgr.write_text(TRIANGLE)

    def one_class(h_graph, k):
        return Colouring([1, 1, 1], 3), (Fraction(1, 2),)

    monkeypatch.setattr(cli, "partition_rounds", one_class)
    base = ["colour", "--algorithm", "partition", "--k", "2", "--trace", str(hgr)]
    for argv in (base + ["-o", str(out)], base):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert not out.exists()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0] == "round 1 alpha 1/2 class_size 3"
        assert lines[1].startswith("algorithm=partition k=2 palette=3 valid=false ")
        assert lines[2:] == [
            f"violation vertex={v} colour=1 count=2 bound=1" for v in (1, 2, 3)
        ]


# K4 as an HGR file; no two of its edges share their constrained members,
# so the rounder's walk on it starts with a window step
K4_HGR = "6 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"


def round_exit(tmp_path, capsys, weight):
    """Run round on K4 with every weight set to weight; return the exit code
    after checking that a failure leaves no output file and no traceback."""
    hgr = tmp_path / "in.hgr"
    win = tmp_path / "w.txt"
    out = tmp_path / "x.txt"
    hgr.write_text(K4_HGR)
    win.write_text(f"{weight}\n" * 6)
    out.unlink(missing_ok=True)
    code = cli.main(["round", str(hgr), str(win), "-o", str(out)])
    if code:
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "Traceback" not in err
        assert not out.exists()
    return code


def test_round_internal_breach_exit_3(tmp_path, monkeypatch, capsys):
    # a kernel solver that returns the zero vector is a fault in the walk:
    # round_weights reports it as a breach, and the CLI as exit 3
    monkeypatch.setattr(
        rounder, "_first_dependent", lambda rows, holders: ([0] * len(holders), 0)
    )
    h = Hypergraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(InvariantBreach):
        rounder.round_weights(h, Weighting([Fraction(2, 3)] * 6))
    assert round_exit(tmp_path, capsys, "2/3") == 3


def test_round_checks_the_band_exit_3(tmp_path, monkeypatch, capsys):
    # round's valid=true is checked: a core that rounds every edge of K4 up
    # from 1/3 puts each vertex 2 above its sum of 1, a gap of the rank
    assert round_exit(tmp_path, capsys, "1/3") == 0
    monkeypatch.setattr(rounder, "_walk", lambda h_graph, num, den: ([1] * len(num), []))
    assert round_exit(tmp_path, capsys, "1/3") == 3


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


def test_min_degree_over_incidence_limit_exit_2_before_allocating(
    tmp_path, monkeypatch, capsys
):
    def no_build(*args):
        raise AssertionError("instance built for an over-limit degree")

    monkeypatch.setattr(hypercore, "Hypergraph", no_build)
    monkeypatch.setattr(cli, "generate", no_build)
    argv = ["generate", "--model", "regular", "--n", "4", "--r", "2",
            "--min-degree", "1000000000", "-o", str(tmp_path / "g.hgr")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "n * min_degree = 4000000000 exceeds the incidence limit" in err
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


def test_colour_partition_trace_json_lines(tmp_path, capsys):
    # at min degree 2rk^2 the partition colourer runs two rounds; each
    # row is one JSON object, its alpha a Fraction printed as text
    hgr = tmp_path / "in.hgr"
    hgr.write_text(serialize_hypergraph(generate(GenSpec("regular", 18, 2, 16, 7))))
    argv = [
        "--format", "json-lines", "colour", "--algorithm", "partition", "--k", "2",
        str(hgr), "-o", str(tmp_path / "out.col"), "--trace",
    ]
    assert cli.main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["type"], row.get("round"), row.get("alpha")) for row in rows] == [
        ("round", 1, "3/8"),
        ("round", 2, "1/2"),
        ("summary", None, None),
    ]


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


def test_round_trace_past_digit_limit_exit_2(tmp_path, capsys):
    # weights of about 4200 digits round fine, but a trace step of this
    # walk has more digits than an int may be converted to text with: the
    # trace is refused by iteration, nothing is written, and the
    # interpreter's limit is left as it was
    edges = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5), (2, 6), (3, 6), (1, 6), (4, 6)]
    hgr = tmp_path / "h.hgr"
    win = tmp_path / "w.txt"
    out = tmp_path / "out"
    trace = tmp_path / "tr"
    hgr.write_text(f"{len(edges)} 6\n" + "".join(f"{a} {b}\n" for a, b in edges))
    qs = [10**4200 + 2 * i + 1 for i in range(len(edges))]
    win.write_text("".join(f"{q // 3}/{q}\n" for q in qs))
    limit = sys.get_int_max_str_digits()
    argv = ["round", str(hgr), str(win), "-o", str(out)]
    assert cli.main(argv + ["--trace-file", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: iteration ")
    assert f"more than {limit} digits" in err
    assert "Traceback" not in err
    assert not out.exists() and not trace.exists()
    assert sys.get_int_max_str_digits() == limit
    assert cli.main(argv) == 0
    assert len(parse_weights(out.read_text())) == len(edges)


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


@pytest.mark.parametrize(
    "files, argv, line",
    [
        ({"in.hgr": b"\xff\xfe1 2\n1 2\n"}, ("verify", "--k", "2", "in.hgr", "in.hgr"), 1),
        ({"in.hgr": b"\xff\xfe1 2\n1 2\n"}, ("colour", "--algorithm", "linear", "--k", "2", "in.hgr"), 1),
        (
            {"in.hgr": b"1 2\n1 2\n", "in.col": b"# palette 3\r\n1\r\xff\n"},
            ("verify", "--k", "2", "in.hgr", "in.col"),
            3,
        ),
        (
            {"in.hgr": b"1 2\n1 2\n", "in.w": b"% \xc3\xa9\n\xff\n"},
            ("round", "in.hgr", "in.w"),
            2,
        ),
    ],
)
def test_non_utf8_input_exit_2(tmp_path, files, argv, line):
    # exit 1 would claim that the property does not hold; a file that is
    # not UTF-8 is malformed input, reported on the line of its first
    # undecodable byte
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    res = run_cli(*(str(tmp_path / a) if a in files else a for a in argv))
    assert res.returncode == 2
    assert res.stderr == f"error: line {line}: not UTF-8: cannot decode byte 0xff\n"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_line_numbers_alike_for_every_line_end(tmp_path, capsys, end):
    # the parsers read the file's bytes, so CRLF and CR must number lines
    # as LF does
    hgr = tmp_path / "in.hgr"
    for body, message in (
        (b"1 9", "line 3: vertex-id 9 out of range [1, 3]"),
        (b"1 \xff", "line 3: not UTF-8: cannot decode byte 0xff"),
    ):
        hgr.write_bytes(end.encode().join((b"2 3", b"1 2", body, b"")))
        assert cli.main(["colour", str(hgr), "--algorithm", "linear", "--k", "2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def run_cli_umask(umask, *args):
    """run_cli under the given umask."""
    code = f"import os, sys; os.umask({umask}); from hypermaj import cli; sys.exit(cli.main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120
    )


def test_output_files_take_the_mode_open_would_give(tmp_path):
    # a new file is 0o666 less the umask, as open(path, "w") makes it,
    # not mkstemp's 0o600; an overwritten target keeps its own mode
    hgr, col, split, weights, trace = (
        tmp_path / name for name in ("in.hgr", "o.col", "o.split", "in.w", "o.trace")
    )
    gen = ("generate", "--model", "graph", "--n", "12", "--r", "2", "--min-degree", "4")
    assert run_cli_umask(0o022, *gen, "-o", str(hgr)).returncode == 0
    linear = ("colour", str(hgr), "--algorithm", "linear", "--k", "2", "-o", str(col))
    assert run_cli_umask(0o022, *linear, "--emit-split", str(split)).returncode == 0
    weights.write_text("1/2\n" * len(parse_hypergraph(hgr.read_text()).edges))
    rounding = ("round", str(hgr), str(weights), "-o", str(tmp_path / "o.w"))
    assert run_cli_umask(0o022, *rounding, "--trace-file", str(trace)).returncode == 0
    for path in (hgr, col, split, tmp_path / "o.w", trace):
        assert oct(path.stat().st_mode & 0o777) == oct(0o644), path
    assert run_cli_umask(0o027, *gen, "-o", str(tmp_path / "g.hgr")).returncode == 0
    assert oct((tmp_path / "g.hgr").stat().st_mode & 0o777) == oct(0o640)
    hgr.chmod(0o640)
    before = hgr.read_bytes()
    assert run_cli_umask(0o022, *gen, "--seed", "2", "-o", str(hgr)).returncode == 0
    assert hgr.read_bytes() != before
    assert oct(hgr.stat().st_mode & 0o777) == oct(0o640)
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []


def test_output_through_a_symlink_writes_its_target(tmp_path, capsys):
    # -o on a link writes through it, as open(path, "w") does: a live
    # link's target is replaced, a dangling link's target is created, and
    # the link stays a link; a target in a missing directory is an error
    # naming the link
    gen = ["generate", "--model", "uniform", "--n", "8", "--r", "2", "--min-degree", "4", "--seed", "1"]
    expected = serialize_hypergraph(generate(GenSpec("uniform", 8, 2, 4, 1)))
    real, live = tmp_path / "real.hgr", tmp_path / "live.hgr"
    real.write_text("stale\n")
    live.symlink_to(real)
    assert cli.main([*gen, "-o", str(live)]) == 0
    assert live.is_symlink() and real.read_text() == expected
    new, dangling = tmp_path / "new.hgr", tmp_path / "dangling.hgr"
    dangling.symlink_to(new)
    assert cli.main([*gen, "-o", str(dangling)]) == 0
    assert dangling.is_symlink() and new.read_text() == expected
    broken = tmp_path / "broken.hgr"
    broken.symlink_to(tmp_path / "nodir" / "f.hgr")
    capsys.readouterr()
    assert cli.main([*gen, "-o", str(broken)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(broken)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "broken.hgr", "dangling.hgr", "live.hgr", "new.hgr", "real.hgr"
    ]


def test_interrupted_write_keeps_the_target_and_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "out.col"
    target.write_text("# palette 3\n1\n")

    def interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli._atomic_write(str(target), "# palette 3\n2\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.col"]
    assert target.read_text() == "# palette 3\n1\n"


@pytest.mark.parametrize(
    "out, error",
    [("nodir/f.hgr", "[Errno 2] No such file or directory"), ("adir", "[Errno 21] Is a directory")],
)
def test_output_error_names_the_path_not_the_temp_file(tmp_path, out, error):
    (tmp_path / "adir").mkdir()
    out = tmp_path / out
    res = run_cli("generate", "--model", "uniform", "--n", "8", "--r", "2", "--min-degree", "4", "-o", str(out))
    assert res.returncode == 2
    assert res.stderr == f"error: {error}: {str(out)!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


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
    # trials report in seed order from the default seed
    argv = argv[:6] + ["--trials", "64", "-o", str(tmp_path / "o.col")]
    assert cli.main(argv) == 1
    trials = [l for l in capsys.readouterr().out.splitlines() if l.startswith("trial ")]
    assert [l.split()[1] for l in trials] == [f"seed={1729 + i}" for i in range(64)]


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
        ["colour", "IN", "--algorithm", "partition", "--k", "2", "--emit-split", "SPLIT"],
        # and the colour flags every algorithm reads are bounded
        ["colour", "IN", "--algorithm", "linear", "--k", "1"],
        ["colour", "IN", "--algorithm", "random-lll", "--k", "2", "--trials", "0"],
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


def cli_peak_bytes(argv):
    """Exit code and tracemalloc peak of an in-process `main(argv)` call,
    with stdout and stderr captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_trials_memory_does_not_grow_with_trials(tmp_path):
    # only the printed colouring and one row per trial may outlive a
    # trial, so 200 trials of 2000 edges must not keep 200 colourings alive
    hgr = tmp_path / "in.hgr"
    h = generate(GenSpec("regular", 200, 2, 20, 1))
    hgr.write_text(serialize_hypergraph(h))
    m = len(h.edges)

    def peak(trials):
        argv = ["colour", str(hgr), "--algorithm", "random-lll", "--k", "2",
                "--trials", str(trials), "--max-rounds", "0", "-o", str(tmp_path / "o.col")]
        code, size = cli_peak_bytes(argv)
        assert code == 1  # no rounds to spend: every trial is exhausted
        return size

    peak(1)  # warm caches so that both measured calls start alike
    one = peak(1)
    # a colouring holds at least m 8-byte references
    assert peak(200) - one < 200 * m * 8 // 4


@pytest.mark.parametrize(
    "argv, text",
    [
        # one isolated vertex, which needs no colour count table
        (["colour", "IN", "--algorithm", "random-lll", "--k", "20000000"], "0 1\n"),
        # one edge, whose first valid colour, if any, is colour 1
        (["oracle", "IN", "--k", "2", "--palette", "10000000"], "1 2\n1 2\n"),
    ],
)
def test_hostile_k_or_palette_allocates_no_table_of_that_size(tmp_path, argv, text):
    hgr = tmp_path / "in.hgr"
    hgr.write_text(text)
    code, size = cli_peak_bytes([str(hgr) if a == "IN" else a for a in argv])
    assert code in (0, 1)
    assert size < 2**24  # tables of --k or --palette entries would take 160 MB


@pytest.mark.parametrize(
    "argv, text",
    [
        # the palette k+1 would pass Python's 4300-digit int-to-str limit
        (["colour", "IN", "--algorithm", "partition", "--k", "9" * 4300], "0 0\n"),
        (["colour", "IN", "--algorithm", "random-lll", "--k", "9" * 4300], "0 0\n"),
        # so would the degree bounds 2rk^2 and k^2 - k in their messages
        (["colour", "IN", "--algorithm", "partition", "--k", str(10**2200)], "1 3\n1 2 3\n"),
        (["colour", "IN", "--algorithm", "linear", "--k", str(10**2200)], "1 3\n1 2 3\n"),
        # and delta*
        (["threshold", "--k", str(10**1500), "--r", "2"], None),
    ],
)
def test_k_above_bound_exit_2_before_any_work(tmp_path, capsys, argv, text):
    hgr = tmp_path / "in.hgr"
    if text is not None:
        hgr.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main([str(hgr) if a == "IN" else a for a in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: hypermaj")
    assert err.endswith(f"error: --k must be at most {cli.MAX_K_OR_R}\n")


def test_k_and_r_bound(capsys):
    bound = str(cli.MAX_K_OR_R)
    assert cli.main(["threshold", "--k", bound, "--r", bound]) == 0
    assert capsys.readouterr().out.startswith(f"threshold k={bound} r={bound} delta_star=")
    over = str(cli.MAX_K_OR_R + 1)
    for argv in (
        ["threshold", "--k", "2", "--r", over],
        ["generate", "--model", "uniform", "--n", "3", "--r", over, "--min-degree", "1"],
        ["verify", "IN", "COLOURS", "--k", over],
        ["oracle", "IN", "--k", over, "--palette", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        flag = "--r" if "--r" in argv else "--k"
        assert capsys.readouterr().err.endswith(f"error: {flag} must be at most {bound}\n")


@pytest.mark.parametrize(
    "flag, value",
    [
        # the second trial's seed would pass the 4300-digit int-to-str limit
        ("--seed", "9" * 4300),
        ("--seed", str(cli.MAX_SEED + 1)),
        # one row is kept per trial, and this many would never finish
        ("--trials", "99999999999999999"),
        ("--trials", str(cli.MAX_TRIALS + 1)),
    ],
    ids=["seed-4300-digits", "seed-over-bound", "trials-17-digits", "trials-over-bound"],
)
def test_seed_or_trials_above_bound_exit_2_before_any_work(tmp_path, capsys, flag, value):
    other = {"--seed": ["--trials", "2"], "--trials": []}[flag]
    argv = ["colour", str(tmp_path / "missing.hgr"), "--algorithm", "random-lll",
            "--k", "2", "--max-rounds", "0", flag, value] + other
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: hypermaj")
    bound = cli.MAX_SEED if flag == "--seed" else cli.MAX_TRIALS
    assert err.endswith(f"error: {flag} must be at most {bound}\n")


def test_negative_seed_exit_2(tmp_path, capsys):
    # random.Random seeds from |seed|: --seed -1 --trials 3 would run seeds
    # -1, 0 and 1 and report one draw twice under two seeds. colour refuses
    # it before any input is read (the file is missing)
    argv = ["colour", str(tmp_path / "missing.hgr"), "--algorithm", "random-lll",
            "--k", "2", "--seed", "-1", "--trials", "3"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: --seed must be non-negative, got -1\n")
    # generate --seed -3 would give the instance of --seed 3; GenSpec
    # refuses it, and nothing is written
    path = tmp_path / "g.hgr"
    argv = ["generate", "--model", "uniform", "--n", "8", "--r", "2",
            "--min-degree", "4", "--seed", "-3", "-o", str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: seed must be non-negative, got -3\n")
    assert not path.exists()


def test_seed_and_trials_bound(tmp_path, capsys):
    # at both bounds the run goes ahead; the one edge's vertices have
    # degree 1 < k, so every trial is infeasible at round 0 (exit 1)
    hgr = tmp_path / "one.hgr"
    hgr.write_text("1 2\n1 2\n")
    argv = ["colour", str(hgr), "--algorithm", "random-lll", "--k", "2",
            "--max-rounds", "0", "-o", str(tmp_path / "o.col"),
            "--seed", str(cli.MAX_SEED), "--trials", str(cli.MAX_TRIALS)]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == cli.MAX_TRIALS + 1
    assert lines[0] == f"trial seed={cli.MAX_SEED} outcome=infeasible rounds=0"
    last = cli.MAX_SEED + cli.MAX_TRIALS - 1
    assert lines[-2] == f"trial seed={last} outcome=infeasible rounds=0"


def test_oracle_search_space_guard_exit_2(tmp_path):
    # palette 1 once slipped past the guard (1**m) into a RecursionError
    hgr = tmp_path / "in.hgr"
    hgr.write_text(serialize_hypergraph(generate(GenSpec("uniform", 40, 2, 120, 3))))
    res = run_cli("oracle", "--k", "2", "--palette", "1", str(hgr))
    assert res.returncode == 2
    assert res.stderr.startswith("error: search space 2^")
    assert "Traceback" not in res.stderr
    # a large palette counts as the m colours the search can try
    res = run_cli("oracle", "--k", "2", "--palette", "100000", str(hgr))
    assert res.returncode == 2
    assert res.stderr.startswith("error: search space 3101^3101 ")


def test_oracle_large_palette_on_few_edges_answers(tmp_path):
    # two parallel edges at k=2 need two colours; the search tries
    # min(palette, m) = 2 per edge, 4 states, whatever the palette
    hgr = tmp_path / "in.hgr"
    hgr.write_text("2 2\n1 2\n1 2\n")
    res = run_cli("oracle", "--k", "2", "--palette", "100000", str(hgr))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "# palette 100000\n1\n2\n"


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
            # trials run in a plain loop: no concurrent.futures, which
            # also pulled in logging
            "import sys, hypermaj.cli; print(*(m in sys.modules for m in"
            " ('numpy', 'mpmath', 'concurrent.futures', 'logging')))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False False False False"


def modules_after(code):
    """The names in sys.modules after a fresh interpreter ran code, which
    prints nothing to stdout on its own."""
    src = os.path.dirname(os.path.dirname(hypermaj.__file__))
    res = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print('\\n' + ' '.join(sys.modules))"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split())


LIBRARY_MODULES = ("hypercore", "genlab", "rounder", "partition", "linearhg", "lll")


@pytest.fixture(scope="module")
def startup_modules():
    # what the interpreter and its site hooks load before any of our code
    return modules_after("")


def subcommand_files(tmp_path):
    h = generate(GenSpec("uniform", 18, 2, 16, 1))
    (tmp_path / "in.hgr").write_text(serialize_hypergraph(h))
    (tmp_path / "in.col").write_text(serialize_colouring(colour_linear(h, 2)))
    (tmp_path / "in.w").write_text("1/2\n" * len(h.edges))
    (tmp_path / "tri.hgr").write_text(TRIANGLE)


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (("threshold", "--k", "2", "--r", "3"),
         ("hypercore", "genlab", "rounder", "partition", "linearhg", "fractions", "json")),
        (("verify", "in.hgr", "in.col", "--k", "2"),
         ("rounder", "partition", "linearhg", "lll", "fractions", "json")),
        (("generate", "--model", "regular", "--n", "8", "--r", "2", "--min-degree", "2",
          "-o", "gen.hgr"),
         ("rounder", "partition", "linearhg", "lll", "fractions", "json")),
        (("colour", "in.hgr", "--algorithm", "partition", "--k", "2", "-o", "p.col"),
         ("linearhg", "lll", "json")),
        (("colour", "in.hgr", "--algorithm", "linear", "--k", "2", "-o", "l.col"),
         ("rounder", "partition", "lll", "fractions", "json")),
        (("colour", "in.hgr", "--algorithm", "random-lll", "--k", "2", "-o", "r.col"),
         ("rounder", "partition", "linearhg", "json")),
        (("round", "in.hgr", "in.w", "-o", "x.w"),
         ("genlab", "partition", "linearhg", "lll", "json")),
        (("oracle", "tri.hgr", "--k", "2", "--palette", "3", "-o", "o.col"),
         ("rounder", "partition", "linearhg", "lll", "fractions", "json")),
        (("--format", "json-lines", "threshold", "--k", "2", "--r", "3"),
         ("hypercore", "genlab", "rounder", "partition", "linearhg")),
    ],
    ids=["threshold", "verify", "generate", "partition", "linear", "random-lll", "round",
         "oracle", "json-lines"],
)
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, startup_modules, argv, unloaded):
    # cold start: every call compiles the modules it imports, and the
    # standard record decorator's module alone took 9 ms to import
    subcommand_files(tmp_path)
    argv = [str(tmp_path / a) if "." in a else a for a in argv]
    code = f"import hypermaj.cli; assert hypermaj.cli.main({argv!r}) == 0"
    loaded = modules_after(code) - startup_modules
    assert "dataclasses" not in loaded
    assert not {f"hypermaj.{m}" if m in LIBRARY_MODULES else m for m in unloaded} & loaded


def test_bare_package_import_loads_no_submodule(startup_modules):
    loaded = modules_after("import hypermaj") - startup_modules
    assert {m for m in loaded if m.startswith("hypermaj.")} == set()
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("in.w", "1" * 4400 + "/" + "3" * 4400 + "\n1/2\n",
         f"line 1: weight '{'1' * 31}... has 4400 digits"),
        # the parsed weight is above 1, and its text form past the limit
        ("in.w", "1/2\n" + "1" * 4000 + "." + "1" * 4000 + "\n",
         f"line 2: weight {'1' * 32}... outside [0, 1]"),
        ("in.col", "# palette 3\n1\n" + "2" * 4400 + "\n",
         f"line 3: colour '{'2' * 31}... has 4400 digits"),
        ("in.hgr", "2 3\n1 2\n1 " + "3" * 4400 + "\n",
         f"line 3: vertex-id '{'3' * 31}... has 4400 digits"),
    ],
    ids=["weight", "weight-above-1", "colour", "vertex-id"],
)
def test_refused_token_echo_is_bounded(tmp_path, name, text, message):
    (tmp_path / "in.hgr").write_text("2 3\n1 2\n2 3\n")
    (tmp_path / "in.col").write_text("1\n2\n")
    (tmp_path / "in.w").write_text("1/2\n1/2\n")
    (tmp_path / name).write_text(text)
    argv = {
        "in.w": ("round", "in.hgr", "in.w"),
        "in.col": ("verify", "in.hgr", "in.col", "--k", "2"),
        "in.hgr": ("verify", "in.hgr", "in.col", "--k", "2"),
    }[name]
    res = run_cli(*(str(tmp_path / a) if "." in a else a for a in argv))
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.encode()) < 200
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
    assert res.stderr.startswith(f"error: {message}")


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
    """Small bytes for an HGR, colouring or weights file: half the time a
    valid file of its kind (at most 6 edges or entries, so the oracle's
    search space stays tiny), else at most six lines of tokens drawn from
    digits, signs, fractions and junk, a byte that is not UTF-8 among
    them."""
    if draw(st.booleans()):
        if kind == "hgr":
            n = draw(st.integers(1, 6))
            edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
            return serialize_hypergraph(Hypergraph(n, draw(st.lists(edge, max_size=6)))).encode()
        entry = st.integers(1, 3).map(str) if kind == "colours" else st.fractions(0, 1, max_denominator=12).map(str)
        head = "# palette 3\n" if kind == "colours" and draw(st.booleans()) else ""
        return (head + "".join(e + "\n" for e in draw(st.lists(entry, max_size=6)))).encode()
    token = st.sampled_from(
        (b"0", b"1", b"2", b"3", b"6", b"-1", b"1/2", b"3/2", b"0.5", b"1e3", b"x", b"%", b"#",
         b"palette", b"\xff", b"")
    )
    lines = draw(st.lists(st.lists(token, max_size=4).map(b" ".join), max_size=6))
    return draw(st.sampled_from((b"\n", b"\r\n"))).join(lines) + b"\n"


@st.composite
def fuzz_argvs(draw):
    """argv for every subcommand with flag values from small ranges, some
    out of their domain, plus stray tokens. random-lll always gets an
    explicit small --max-rounds, and --seed and --trials are small unless
    they are out of their domain, where they may pass their bounds."""
    def pick(valid, invalid):
        # about one draw in ten is out of the domain
        out = draw(st.sampled_from((False,) * 9 + (True,)))
        return draw(st.sampled_from(invalid if out else valid))

    def small():
        return pick(("2", "3", "4"), ("-1", "0", "1", "5", "x", "2.5", "9" * 4300, str(10**1500)))

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
            bounds = {"--seed": cli.MAX_SEED, "--trials": cli.MAX_TRIALS, "--jobs": None}
            for flag, bound in bounds.items():
                if draw(st.booleans()):
                    huge = () if bound is None else ("9" * 4300, str(bound + 1))
                    argv += [flag, pick(("1", "2", "3"), ("-1", "0") + huge)]
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
        for name, data in (("IN", hgr), ("COLOURS", colours), ("WEIGHTS", weights)):
            paths[name] = os.path.join(tmp, name.lower())
            with open(paths[name], "wb") as fh:
                fh.write(data)
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
    # a negative seed is a usage error; argparse keeps the last --seed given
    seed = None
    for arg, following in zip(args, args[1:] + [None]):
        if arg == "--seed":
            seed = following
        elif arg.startswith("--seed="):
            seed = arg.partition("=")[2]
    if seed == "-1":
        assert code == 2, (args, err.getvalue())
