"""Text formats and the command-line surface: exit codes, reports, manifests."""

import functools
import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sumsetlab import cli, conjectures, io_formats, laws, search
from sumsetlab.functional import WeightedFunction
from sumsetlab.groups import GroupContext, PointSet

F = Fraction
Z1 = GroupContext(1)


class TestPointSetFormat:
    def test_parse_line(self):
        A = io_formats.parse_point_set("group 1\n0\n1\n")
        assert set(A.points) == {(0,), (1,)}

    def test_parse_plane(self):
        A = io_formats.parse_point_set("group 2\n0 0\n1 1\n")
        assert set(A.points) == {(0, 0), (1, 1)}

    def test_comments_and_blanks(self):
        A = io_formats.parse_point_set("# header comment\ngroup 1\n\n0  # a point\n2\n")
        assert set(A.points) == {(0,), (2,)}

    def test_torsion_header(self):
        A = io_formats.parse_point_set("group 1 mod 2 3\n0 1 2\n1 3 5\n")
        assert A.context == GroupContext(1, (2, 3))
        assert set(A.points) == {(0, 1, 2), (1, 1, 2)}  # residues reduced mod 2, 3

    def test_torsion_collision_after_reduction(self):
        with pytest.raises(io_formats.FormatError):
            io_formats.parse_point_set("group 1 mod 2 3\n0 1 2\n0 3 5\n")

    def test_duplicate_rejected(self):
        with pytest.raises(io_formats.FormatError):
            io_formats.parse_point_set("group 1\n0\n0\n")

    def test_arity_mismatch(self):
        with pytest.raises(io_formats.FormatError):
            io_formats.parse_point_set("group 2\n0\n")

    def test_bad_header(self):
        for text in ("points 1\n0\n", "group\n", "group 1 mod\n0\n", ""):
            with pytest.raises(io_formats.FormatError):
                io_formats.parse_point_set(text)

    def test_canonical_roundtrip(self):
        A = PointSet.of(Z1, [(3,), (-1,), (0,)])
        text = io_formats.format_point_set(A)
        assert text == "group 1\n-1\n0\n3\n"
        assert io_formats.parse_point_set(text) == A


class TestFunctionFormat:
    def test_parse_two_point(self):
        f = io_formats.parse_function("group 1\n0 1\n1 1/2\n")
        assert f.exact
        assert f.entries == (((0,), F(1)), ((1,), F(1, 2)))

    def test_numeric_mode(self):
        f = io_formats.parse_function("group 1\n0 1.5\n")
        assert not f.exact

    def test_duplicate_coordinate_rejected(self):
        with pytest.raises(io_formats.FormatError):
            io_formats.parse_function("group 1\n0 1\n0 2\n")

    def test_negative_weight_rejected(self):
        with pytest.raises(io_formats.FormatError):
            io_formats.parse_function("group 1\n0 -1/2\n")

    def test_roundtrip(self):
        f = WeightedFunction.of(Z1, [((0,), F(1)), ((1,), F(1, 2)), ((2,), F(3))])
        text = io_formats.format_function(f)
        assert text == "group 1\n0 1\n1 1/2\n2 3\n"
        assert io_formats.parse_function(text) == f


@pytest.mark.parametrize("parse, text, message", [
    ("point", "", "empty input"),
    ("point", "# only a comment\n", "empty input"),
    ("point", "grp 1\n0\n", "expected 'group' header, got 'grp 1'"),
    ("point", "group\n0\n", "header must be 'group <free_rank> [mod <m1> ...]'"),
    ("point", "group x\n0\n", "header must be 'group <free_rank> [mod <m1> ...]'"),
    ("point", "group 1 foo 2\n0\n", "unexpected header token 'foo'"),
    ("point", "group 1 mod x\n0 0\n", "moduli must be integers"),
    ("point", "group 1 mod\n0\n", "'mod' requires at least one modulus"),
    ("point", "group -1\n", "free_rank must be nonnegative"),
    ("point", "group 1 mod 1\n0 0\n", "torsion moduli must all be >= 2"),
    ("point", "group 2\n0\n", "expected 2 coordinates, got '0'"),
    ("point", "group 2\n0 0 0\n", "expected 2 coordinates, got '0 0 0'"),
    ("point", "group 1\nx\n", "invalid literal for int() with base 10: 'x'"),
    ("point", "group 1\n1.5\n", "invalid literal for int() with base 10: '1.5'"),
    ("point", "group 1\n0\n0\n", "duplicate point (0,)"),
    ("point", "group 1 mod 2\n0 0\n0 2\n", "duplicate point (0, 0)"),
    ("point", "group 1\n", "point set has no points"),
    ("function", "", "empty input"),
    ("function", "grp 1\n0 1\n", "expected 'group' header, got 'grp 1'"),
    ("function", "group 1 mod\n0 1\n", "'mod' requires at least one modulus"),
    ("function", "group 1\n0\n", "expected 1 coordinates and a weight, got '0'"),
    ("function", "group 1\n0 1 2\n", "expected 1 coordinates and a weight, got '0 1 2'"),
    ("function", "group 1\nx 1\n", "invalid literal for int() with base 10: 'x'"),
    ("function", "group 1\n0 1\n0 2\n", "duplicate coordinate line for (0,)"),
    ("function", "group 1 mod 2\n0 0 1\n0 2 1\n", "duplicate coordinate line for (0, 0)"),
    ("function", "group 1\n", "function has no support"),
    ("function", "group 1\n0 1/0\n", "bad rational weight '1/0'"),
    ("function", "group 1\n0 1/x\n", "bad rational weight '1/x'"),
    ("function", "group 1\n0 1.x\n", "bad decimal weight '1.x'"),
    ("function", "group 1\n0 x\n", "bad weight token 'x'"),
    ("function", "group 1\n0 inf\n", "bad weight token 'inf'"),
    ("function", "group 1\n0 -1/2\n", "negative weight"),
    ("function", "group 1\n0 -1.5\n", "negative weight"),
    ("function", "group 1\n0 -3\n", "negative weight"),
    ("function", "group 1\n0 1e999\n", "weights must be finite, got inf"),
])
def test_single_fault_messages(parse, text, message):
    # each input has one fault, and the parser names it in these words
    parser = io_formats.parse_point_set if parse == "point" else io_formats.parse_function
    with pytest.raises(io_formats.FormatError) as err:
        parser(text)
    assert str(err.value) == message


@pytest.fixture
def u01(tmp_path):
    p = tmp_path / "u01.txt"
    p.write_text("group 1\n0\n1\n")
    return str(p)


@pytest.fixture
def f_half(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("group 1\n0 1\n1 1/2\n")
    return str(p)


def run_json(args, out_path):
    code = cli.main(args + ["--out", str(out_path)])
    return code, json.loads(out_path.read_text())


class TestEstimateCommand:
    def test_beta_report(self, u01, tmp_path):
        code, doc = run_json(
            ["estimate", "beta", "--set", u01, "--box", "-2..3", "--max-card", "4"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert doc["quantity"] == "beta"
        assert doc["value_exact"] == "4/1"
        assert doc["value_float"] == 2.0
        assert doc["complete"] is True
        assert doc["manifest"]["tool_version"]
        assert u01 in doc["manifest"]["input_digests"]

    def test_gamma_function(self, f_half, tmp_path):
        code, doc = run_json(
            ["estimate", "gamma", "--fn", f_half, "--box", "-1..1", "--max-card", "2"],
            tmp_path / "r.json",
        )
        assert code == 0 and doc["quantity"] == "gamma"

    def test_infinite_weight_exits_64(self, tmp_path, capsys):
        # 1e400 parses as the float inf, which a JSON report cannot hold
        fn = tmp_path / "f.txt"
        fn.write_text("group 1\n0 1e400\n1 0.5\n")
        out = tmp_path / "r.json"
        argv = ["estimate", "gamma", "--fn", str(fn), "--box", "-1..1", "--max-card", "2"]
        assert cli.main(argv + ["--out", str(out)]) == 64
        assert capsys.readouterr().err == "error: weights must be finite, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["1" + "0" * 400 + " 1", "1e308 1e308"],
                             ids=["exact_10^400_1", "float_1e308_1e308"])
    def test_value_past_float_range_exits_64(self, weights, tmp_path, capsys):
        # the gamma bound of these weights is past the largest float: the
        # library gives inf, which a standard JSON report cannot hold
        fn = tmp_path / "f.txt"
        w0, w1 = weights.split()
        fn.write_text(f"group 1\n0 {w0}\n1 {w1}\n")
        out = tmp_path / "r.json"
        argv = ["estimate", "gamma", "--fn", str(fn), "--box", "0..1", "--max-card", "2"]
        assert cli.main(argv + ["--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: Out of range float values are not JSON compliant")
        assert err.count("\n") == 1 and not out.exists()

    def test_table_above_limit_exits_64(self, u01, tmp_path, capsys, monkeypatch):
        # the scan's pair table would take 6.3 GiB: refused before it is allocated
        zeros = np.zeros

        def guarded_zeros(shape, dtype=float):
            assert math.prod(np.atleast_1d(shape)) * np.dtype(dtype).itemsize <= 1 << 30
            return zeros(shape, dtype=dtype)

        monkeypatch.setattr(np, "zeros", guarded_zeros)
        out = tmp_path / "r.json"
        argv = ["estimate", "beta", "--set", u01, "--box", "0..3000", "--max-card", "2"]
        assert cli.main(argv + ["--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: the pair table of this scan needs 6772512752 bytes")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("quantity, flag, text, need", [
        ("beta", "--set", "0 0\n1 0\n", 900 * (1 + 1_740 + 1_134_480) * 8),
        ("alpha", "--set", "0 0\n1 0\n", 900 * (1 + 898 + 898 * 897 // 2) * 8),
        ("gamma", "--fn", "0 0 1\n1 0 1\n", 900 * (1 + 1_740 + 1_134_480) * 8),
    ])
    def test_wide_window_refused_before_listing(self, quantity, flag, text, need, tmp_path,
                                                capsys, monkeypatch):
        # 439,066,526 anchored sets of at most 4 points of 0..29 x 0..29, each
        # with a table row per box point: refused from their count alone,
        # counted size by size up to the 1,136,221 sets of at most 3 points,
        # where the table passes the limit (alpha: its sets of U and at most
        # 2 of the other 898 points)
        def listing(*args):
            raise AssertionError("the window was listed")

        monkeypatch.setattr(search, "anchored_sets", listing)
        path = tmp_path / "in.txt"
        path.write_text("group 2\n" + text)
        argv = ["estimate", quantity, flag, str(path), "--box", "0..29,0..29", "--max-card", "4"]
        start = time.perf_counter()
        assert cli.main(argv) == 64
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: the pair table of this scan needs at least {need} bytes")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("quantity, need", [
        ("beta", 10_000 * (1 + 9_999 + 9_999 * 9_998 // 2) * 8),
        ("alpha", 10_000 * (1 + 9_998 + 9_998 * 9_997 // 2) * 8),
    ])
    def test_huge_cardinality_refused_at_once(self, quantity, need, u01, capsys, monkeypatch):
        # --max-card 10^11 on 0..9999: the count of sets passes the limit at
        # three points, where the counting stops; summing every size up to
        # the 10,000 points took more than 10 s
        def listing(*args):
            raise AssertionError("the window was listed")

        monkeypatch.setattr(search, "anchored_sets", listing)
        argv = ["estimate", quantity, "--set", u01, "--box=0..9999", "--max-card", "100000000000"]
        start = time.perf_counter()
        assert cli.main(argv) == 64
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == (f"error: the pair table of this scan needs at least {need} bytes, above the limit "
                       f"of {search._TABLE_LIMIT}; narrow the box or lower the cardinality\n")

    def test_p_validation(self, u01):
        code = cli.main(
            ["estimate", "beta", "--set", u01, "--p", "1/2", "--box", "0..1", "--max-card", "2"]
        )
        assert code == 64

    def test_missing_set(self):
        code = cli.main(["estimate", "beta", "--box", "0..1", "--max-card", "2"])
        assert code == 64

    def test_unknown_flag(self):
        assert cli.main(["estimate", "beta", "--frobnicate"]) == 64

    def test_missing_file(self, tmp_path):
        code = cli.main(
            ["estimate", "beta", "--set", str(tmp_path / "nope.txt"),
             "--box", "0..1", "--max-card", "2"]
        )
        assert code == 74

    def test_unwritable_out(self, u01, tmp_path):
        code = cli.main(
            ["estimate", "beta", "--set", u01, "--box", "0..1", "--max-card", "2",
             "--out", str(tmp_path / "no" / "dir" / "r.json")]
        )
        assert code == 74

    def test_node_ceiling_env_rejected(self, u01, monkeypatch, capsys):
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "0")
        code = cli.main(["estimate", "beta", "--set", u01, "--box", "0..2", "--max-card", "2"])
        assert code == 64
        assert "SUMSETLAB_NODE_CEILING" in capsys.readouterr().err

    def test_bad_box(self, u01):
        code = cli.main(["estimate", "beta", "--set", u01, "--box", "3..1", "--max-card", "2"])
        assert code == 64

    def test_determinism_excluding_wall_clock(self, u01, tmp_path):
        docs = []
        for _ in range(2):
            _, doc = run_json(
                ["estimate", "beta", "--set", u01, "--box", "-2..3", "--max-card", "4"],
                tmp_path / "r.json",
            )
            doc["manifest"].pop("wall_clock_ms")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]


HUGE = "100000000000"


@pytest.mark.parametrize("argv", [
    ["estimate", "beta", "--set", "U01", "--box", "0..2", "--max-card", HUGE],
    ["estimate", "alpha", "--set", "U01", "--box", "0..2", "--max-card", HUGE],
    ["conjecture", "scan", "--id", "log_span", "--box=0..2", "--max-size", HUGE, "--max-card", "2"],
], ids=["beta", "alpha", "log_span"])
def test_cardinality_past_the_box_stops_at_its_points(argv, u01, tmp_path, capsys):
    # no set of the 3 points of 0..2 has more than 3, so a cardinality of
    # 10^11 reports what 3 does, apart from the config it echoes
    reports = []
    for card in (HUGE, "3"):
        out = tmp_path / f"{card}.txt"
        args = [u01 if a == "U01" else card if a == HUGE else a for a in argv]
        assert cli.main(args + ["--out", str(out)]) == 0
        if argv[0] == "estimate":
            doc = json.loads(out.read_text())
            del doc["config"], doc["manifest"]
            reports.append((doc, capsys.readouterr().err))
        else:
            reports.append((out.read_text(), capsys.readouterr().err))
    assert reports[0] == reports[1] and reports[0][0]


@pytest.mark.parametrize("argv, error", [
    (["estimate", "beta", "--set", "U01", "--box=0..99999999999999999999", "--max-card", "1"], "box"),
    (["estimate", "alpha", "--set", "U01", "--box=0..99999999999999999999", "--max-card", "2"], "box"),
    (["conjecture", "scan", "--id", "log_span", "--box=0..99999999999999999999", "--max-size", "1"],
     "box"),
    (["conjecture", "scan", "--id", "log_span", "--box=0..99999999999999999999", "--max-size", HUGE],
     "box"),
    (["conjecture", "scan", "--id", "doubling_tripling", "--box=0..99999999999999999999",
      "--max-size", "3"], "box"),
    (["conjecture", "scan", "--id", "doubling_tripling", "--box=0..4000000", "--max-size", "2"],
     "window"),
], ids=["beta", "alpha", "log_span_size_1", "log_span_size_10^11", "doubling_tripling",
        "doubling_tripling_4000001_points"])
def test_box_too_large_to_list_exits_64(argv, error, u01, capsys, monkeypatch):
    # refused with one line that names the box, and no traceback: by
    # search.box_points past 2^27 points, and a scan's candidates before
    # they are listed
    def listing(*args):
        raise AssertionError("the candidates were listed")

    monkeypatch.setattr(conjectures, "enumerate_canonical", listing)
    assert cli.main([u01 if a == "U01" else a for a in argv]) == 64
    err = capsys.readouterr().err
    box = next(a for a in argv if a.startswith("--box=")).removeprefix("--box=")
    assert err.startswith(f"error: the {error} {box} ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestQuasicubeCommand:
    def test_gen_then_check(self, tmp_path):
        out = tmp_path / "q.txt"
        assert cli.main(["quasicube", "gen", "--depth", "2", "--seed", "3",
                         "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# spec: ")
        res = tmp_path / "check.json"
        code = cli.main(["quasicube", "check", "--set", str(out), "--out", str(res)])
        assert code == 0
        doc = json.loads(res.read_text())
        assert doc["quasicube"] is True and doc["size"] == 4

    def test_check_without_set(self, capsys):
        assert cli.main(["quasicube", "check"]) == 64
        assert "--set" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["quasicube", "gen", "--depth", "-1"],
    ["quasicube", "gen", "--box", "-1", "--depth", "1"],
    ["quasicube", "gen", "--box", "-1", "--depth", "2"],
    ["quasicube", "check", "--set", "NOT_UTF8"],
    ["compress", "--set", "NOT_UTF8", "--coord", "0"],
    ["estimate", "alpha", "--set", "U01", "--box", "0..1", "--max-card", "2",
     "--strategy", "hill_climb"],
    ["estimate", "beta", "--set", "U01", "--box", "0..1", "--max-card", "2",
     "--p", "1001/1000"],
    ["two-point", "--delta", "0.5", "--r-max", "-1"],
    ["conjecture", "scan", "--id", "log_span", "--box", "0..2", "--max-size", "0"],
    ["conjecture", "scan", "--id", "log_span", "--box", "0..2", "--max-size", "-4"],
    ["compress", "--set", "Z2", "--coord", "2"],
    ["compress", "--set", "Z2", "--coord", "-1"],
    ["compress", "--set", "TORSION3", "--coord", "0"],
])
def test_rejected_input_exits_64_with_one_line(argv, u01, tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_bytes(b"group 1\n\xff\xfe\n")
    z2 = tmp_path / "z2.txt"
    z2.write_text("group 2\n0 0\n1 0\n")
    torsion3 = tmp_path / "torsion3.txt"
    torsion3.write_text("group 0 mod 3\n0\n1\n")
    files = {"NOT_UTF8": str(raw), "U01": u01, "Z2": str(z2), "TORSION3": str(torsion3)}
    assert cli.main([files.get(a, a) for a in argv]) == 64
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    if argv[2] in ("Z2", "TORSION3"):
        assert captured.err == f"error: no free coordinate {argv[-1]}\n"


class TestCompressCommand:
    def test_compress(self, tmp_path):
        src = tmp_path / "a.txt"
        src.write_text("group 2\n0 0\n0 3\n1 7\n")
        out = tmp_path / "c.txt"
        assert cli.main(["compress", "--set", str(src), "--coord", "1",
                         "--out", str(out)]) == 0
        C = io_formats.parse_point_set(out.read_text())
        assert set(C.points) == {(0, 0), (0, 1), (1, 0)}


class TestLawsCommand:
    def test_suite_run(self, tmp_path):
        out = tmp_path / "verdicts.jsonl"
        code = cli.main(["laws", "run", "--suite", "independence", "--out", str(out)])
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        summary = lines[-1]
        assert summary["failures"] == 0 and summary["verdicts"] == len(lines) - 1
        assert all(v["holds"] for v in lines[:-1])

    def test_unknown_suite(self):
        assert cli.main(["laws", "run", "--suite", "bogus"]) == 64

    @pytest.mark.parametrize("suite", sorted(laws.SUITES))
    def test_suite_reads_no_cut_estimate(self, suite, monkeypatch, capsys):
        # at a ceiling of 20 pairs most windows the suites scan are cut: a
        # suite runs whole (0) or refuses (64, one error line), and a false
        # verdict (2) would mean a law read a cut window as a whole one
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "20")
        code = cli.main(["laws", "run", "--suite", suite])
        err = capsys.readouterr().err
        assert code in (0, 64)
        if code == 64:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_threads_validated(self, threads, capsys):
        assert cli.main(["laws", "run", "--suite", "independence", "--threads", threads]) == 64
        assert "--threads" in capsys.readouterr().err


class TestConjectureCommand:
    def test_log_span_scan(self, tmp_path):
        out = tmp_path / "r.jsonl"
        ckpt = tmp_path / "s.json"
        code = cli.main([
            "conjecture", "scan", "--id", "log_span", "--box", "-1..2",
            "--max-size", "3", "--max-card", "3",
            "--checkpoint", str(ckpt), "--out", str(out),
        ])
        assert code == 0
        state = json.loads(ckpt.read_text())
        assert state["counterexample"] is None
        assert state["cursor"] == state["total"]

    @pytest.mark.parametrize("args, lines, digest", [
        (["log_span", "--max-size", "4", "--max-card", "4"], 28,
         "6c8c30cdbebbb9cda1fdd3b9d7f7aa021e8e2fc3f2756de9588177cedbaaf29f"),
        (["doubling_tripling", "--max-size", "3", "--max-card", "3"], 16,
         "2c73a85a3e184ce5f042bbafb09ee2874cf7358619bb8fff94a997b7c8d29fa1"),
    ], ids=["log_span", "doubling_tripling"])
    def test_scan_records_are_byte_stable(self, args, lines, digest, tmp_path):
        # digests pinned from the row-by-row pair scan: evaluating the pairs
        # in blocks must not move a byte of the records
        out = tmp_path / "r.jsonl"
        code = cli.main(["conjecture", "scan", "--id", *args, "--box", "0..2,0..2",
                         "--out", str(out)])
        assert code == 0
        data = out.read_bytes()
        assert data.count(b"\n") == lines
        assert hashlib.sha256(data).hexdigest() == digest

    def test_noncubical_box_rejected(self):
        code = cli.main(["conjecture", "scan", "--id", "log_span", "--box", "0..1,0..2"])
        assert code == 64

    SCAN = ["conjecture", "scan", "--box", "-1..1", "--max-size", "3", "--max-card", "2"]

    def test_checkpoint_of_other_scan_rejected(self, tmp_path, capsys):
        # the two scans echo the same config, so only the conjecture id tells
        # their checkpoints apart; neither file may change on the refusal
        out, ckpt = tmp_path / "r.jsonl", tmp_path / "s.json"
        files = ["--checkpoint", str(ckpt), "--out", str(out)]
        assert cli.main(self.SCAN + ["--id", "log_span"] + files) == 0
        before = ckpt.read_bytes(), out.read_bytes()
        capsys.readouterr()
        assert cli.main(self.SCAN + ["--id", "doubling_tripling"] + files) == 64
        assert "log_span" in capsys.readouterr().err
        assert (ckpt.read_bytes(), out.read_bytes()) == before

    @pytest.mark.parametrize("bad", ["{}", "[]", "no cursor", "config 5",
                                     "near [1]", "cursor -5", "total 9"])
    def test_malformed_checkpoint_rejected(self, bad, tmp_path, capsys):
        ckpt, out = tmp_path / "s.json", tmp_path / "r.jsonl"
        files = ["--id", "log_span", "--checkpoint", str(ckpt), "--out", str(out)]
        edits = {"no cursor": None, "config 5": ("config", 5), "near [1]": ("near", [1]),
                 "cursor -5": ("cursor", -5), "total 9": ("total", 9)}  # 4 candidates
        if bad in edits:
            assert cli.main(self.SCAN + files) == 0
            state = json.loads(ckpt.read_text())
            if edits[bad] is None:
                del state["cursor"]
            else:
                state[edits[bad][0]] = edits[bad][1]
            bad = json.dumps(state)
        ckpt.write_text(bad)
        before = ckpt.read_bytes(), out.exists() and out.read_bytes()
        capsys.readouterr()
        assert cli.main(self.SCAN + files) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and err.count("\n") == 1
        assert (ckpt.read_bytes(), out.exists() and out.read_bytes()) == before

    @pytest.mark.parametrize("scan", ["log_span", "doubling_tripling"])
    def test_resume_under_other_seed_and_threads(self, scan, tmp_path, monkeypatch):
        # an exhaustive scan reads neither --seed nor --threads, so a scan
        # begun at one pair of values resumes at another, with the bytes of
        # one uninterrupted run
        argv = ["conjecture", "scan", "--id", scan, "--box", "0..2,0..2",
                "--max-size", "3", "--max-card", "3"]
        full, full_ckpt = tmp_path / "full.jsonl", tmp_path / "full.json"
        assert cli.main(argv + ["--checkpoint", str(full_ckpt), "--out", str(full)]) == 0
        part, ckpt = tmp_path / "part.jsonl", tmp_path / "state.json"
        files = ["--checkpoint", str(ckpt), "--out", str(part)]
        name = f"scan_{scan}"
        monkeypatch.setattr(cli, name, functools.partial(getattr(conjectures, name),
                                                         shard_size=2, max_shards=1))
        assert cli.main(argv + ["--seed", "1", "--threads", "1"] + files) == 0
        assert 0 < json.loads(ckpt.read_text())["cursor"] < json.loads(full_ckpt.read_text())["total"]
        monkeypatch.undo()
        assert cli.main(argv + ["--seed", "2", "--threads", "4"] + files) == 0
        assert part.read_bytes() == full.read_bytes()
        assert ckpt.read_bytes() == full_ckpt.read_bytes()

    def test_cut_log_span_scan_exits_64_and_resumes(self, tmp_path, monkeypatch, capsys):
        # d = 3 has no bit scan: below the ceiling beta_estimate is cut, so the
        # scan refuses the V (exit 64) and keeps its checkpoint at the last
        # full shard; a higher ceiling resumes it with one run's bytes
        argv = ["conjecture", "scan", "--id", "log_span", "--box", "0..1,0..1,0..1",
                "--max-size", "3", "--max-card", "2"]
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "5000000")
        full, full_ckpt = tmp_path / "full.jsonl", tmp_path / "full.json"
        assert cli.main(argv + ["--checkpoint", str(full_ckpt), "--out", str(full)]) == 0
        part, ckpt = tmp_path / "part.jsonl", tmp_path / "state.json"
        files = ["--checkpoint", str(ckpt), "--out", str(part)]
        with monkeypatch.context() as m:
            m.setattr(cli, "scan_log_span", functools.partial(conjectures.scan_log_span,
                                                              shard_size=2, max_shards=1))
            assert cli.main(argv + files) == 0
        assert json.loads(ckpt.read_text())["cursor"] == 2
        before = ckpt.read_bytes(), part.read_bytes()
        capsys.readouterr()
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "10")
        assert cli.main(argv + files) == 64
        err = capsys.readouterr().err
        assert err == "error: beta scan cut at the node ceiling of 10 pairs\n"
        assert (ckpt.read_bytes(), part.read_bytes()) == before
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "5000000")
        assert cli.main(argv + files) == 0
        assert part.read_bytes() == full.read_bytes()
        assert ckpt.read_bytes() == full_ckpt.read_bytes()

    def test_cut_doubling_tripling_scan_exits_64_and_resumes(self, tmp_path, monkeypatch, capsys):
        # at a ceiling of 20 pairs the first candidate's estimates are cut:
        # the scan exits 64 with no bug record and its checkpoint and --out at
        # the last full shard; a resume at 5M gives one run's bytes
        argv = ["conjecture", "scan", "--id", "doubling_tripling", "--box", "-1..2",
                "--max-size", "3", "--max-card", "3"]
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "5000000")
        full, full_ckpt = tmp_path / "full.jsonl", tmp_path / "full.json"
        assert cli.main(argv + ["--checkpoint", str(full_ckpt), "--out", str(full)]) == 0
        part, ckpt = tmp_path / "part.jsonl", tmp_path / "state.json"
        files = ["--checkpoint", str(ckpt), "--out", str(part)]
        capsys.readouterr()
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "20")
        assert cli.main(argv + files) == 64
        assert capsys.readouterr().err == "error: beta scan cut at the node ceiling of 20 pairs\n"
        assert json.loads(ckpt.read_text())["cursor"] == 0 and part.read_bytes() == b""
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "5000000")
        with monkeypatch.context() as m:
            m.setattr(cli, "scan_doubling_tripling", functools.partial(
                conjectures.scan_doubling_tripling, shard_size=2, max_shards=1))
            assert cli.main(argv + files) == 0
        assert json.loads(ckpt.read_text())["cursor"] == 2
        before = ckpt.read_bytes(), part.read_bytes()
        capsys.readouterr()
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "20")
        assert cli.main(argv + files) == 64
        assert capsys.readouterr().err == "error: beta scan cut at the node ceiling of 20 pairs\n"
        assert (ckpt.read_bytes(), part.read_bytes()) == before
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "5000000")
        assert cli.main(argv + files) == 0
        assert part.read_bytes() == full.read_bytes()
        assert ckpt.read_bytes() == full_ckpt.read_bytes()

    def test_checkpoint_with_inert_config_keys_refused(self, tmp_path, capsys):
        # checkpoints written before the config echo lost `parallelism` and
        # `geometric_max_r` carry both keys; such a file is refused, unchanged
        out, ckpt = tmp_path / "r.jsonl", tmp_path / "s.json"
        files = ["--id", "log_span", "--checkpoint", str(ckpt), "--out", str(out)]
        assert cli.main(self.SCAN + files) == 0
        state = json.loads(ckpt.read_text())
        state["config"]["search"].update(parallelism=1, geometric_max_r=8)
        ckpt.write_text(json.dumps(state, sort_keys=True) + "\n")
        before = ckpt.read_bytes(), out.read_bytes()
        capsys.readouterr()
        assert cli.main(self.SCAN + files) == 64
        err = capsys.readouterr().err
        assert err == "error: checkpoint was created with a different configuration\n"
        assert (ckpt.read_bytes(), out.read_bytes()) == before

    def test_checkpoint_in_missing_directory(self, tmp_path, capsys):
        ckpt = tmp_path / "no" / "dir" / "c.json"
        code = cli.main(["conjecture", "scan", "--id", "log_span", "--box", "0..1",
                         "--checkpoint", str(ckpt)])
        assert code == 74
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.rstrip().endswith(f"'{ckpt}'")

    def test_exit_codes_on_counterexample(self, monkeypatch, tmp_path):
        from sumsetlab.conjectures import ScanState

        def fake_scan(kind):
            def scan(*a, **k):
                return ScanState("x", 0, 1, 1, 0, [],
                                 {"kind": kind, "index": 0}, {})
            return scan

        monkeypatch.setattr(cli, "scan_log_span", fake_scan("disproof"))
        assert cli.main(["conjecture", "scan", "--id", "log_span", "--box", "0..1"]) == 3
        monkeypatch.setattr(cli, "scan_log_span", fake_scan("bug"))
        assert cli.main(["conjecture", "scan", "--id", "log_span", "--box", "0..1"]) == 2


class TestTwoPointCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "tp.json"
        code = cli.main(["two-point", "--delta", "1/2", "--p", "2/1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["c_delta"] == 1.5
        assert doc["geometric_ratios"][0] == pytest.approx(1.5)

    def test_delta_range(self):
        assert cli.main(["two-point", "--delta", "2"]) == 64

    def test_delta_not_a_number(self, capsys):
        assert cli.main(["two-point", "--delta", "abc"]) == 64
        assert "abc" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--version"])
    assert e.value.code == 0
