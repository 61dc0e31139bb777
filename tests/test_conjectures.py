"""Canonical enumeration, checkpointing, and the conjecture scans."""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from sumsetlab import cli, conjectures
from sumsetlab.conjectures import (
    ScanState,
    canonical_form,
    enumerate_canonical,
    load_state,
    save_state,
    scan_doubling_tripling,
    scan_log_span,
)
from sumsetlab.groups import GroupContext
from sumsetlab.search import SearchConfig, canonical_subsets

F = Fraction
Z1 = GroupContext(1)


class TestCanonicalForm:
    def test_transform_invariance(self):
        pts = [(0, 0), (1, 0), (2, 1)]
        dims = (3, 3)
        base = canonical_form(pts, dims)
        # reflections and the transpose give the same class
        assert canonical_form([(-x, y) for x, y in pts], dims) == base
        assert canonical_form([(y, x) for x, y in pts], dims) == base
        assert canonical_form([(x + 4, y - 2) for x, y in pts], dims) == base

    def test_collision_counting(self):
        # every anchored subset maps to exactly one enumerated representative
        d, side, max_size = 2, 3, 3
        reps = enumerate_canonical(d, side, max_size)
        rep_set = set(reps)
        assert len(rep_set) == len(reps)
        ctx = GroupContext(d)
        box = ((0, side - 1),) * d
        for pts in canonical_subsets(ctx, box, max_size):
            assert canonical_form(pts, (side,) * d) in rep_set

    def test_line_enumeration(self):
        reps = enumerate_canonical(1, 3, 2)
        assert reps == [((0,),), ((0,), (1,)), ((0,), (2,))]


class TestScanState:
    def test_roundtrip(self, tmp_path):
        s = ScanState("log_span", 3, 10, 2, 1, [], None, {"d": 1})
        s.push_near(F(5, 4), {"index": 0})
        path = str(tmp_path / "state.json")
        save_state(s, path)
        assert load_state(path) == s

    def test_from_json_dict_checks_fields(self):
        s = ScanState("log_span", 3, 10, 2, 1, [], None, {"d": 1})
        d = {"conjecture": "log_span", "cursor": 3, "total": 10, "examined": 2,
             "skipped": 1, "near": [], "counterexample": None, "config": {"d": 1}}
        assert ScanState.from_json_dict(d) == s  # out_bytes may be absent
        with pytest.raises(ValueError, match="JSON object"):
            ScanState.from_json_dict([d])
        with pytest.raises(ValueError, match="cursor, total"):
            ScanState.from_json_dict({k: v for k, v in d.items() if k not in ("cursor", "total")})
        with pytest.raises(ValueError, match="wrong type: cursor, out_bytes"):
            ScanState.from_json_dict({**d, "cursor": "3", "out_bytes": [0]})

    def test_near_ledger_sorted(self):
        s = ScanState("log_span", 0, 0, 0, 0, [], None, {})
        for m in (F(3), F(1), F(2)):
            s.push_near(m, {"index": int(m)})
        assert [e["margin"] for e in s.near] == ["1/1", "2/1", "3/1"]


class TestLogSpanScan:
    CFG = SearchConfig(box=((-2, 3),), max_cardinality=3)

    def test_full_run(self, tmp_path):
        out = str(tmp_path / "reports.jsonl")
        state = scan_log_span(1, 3, 3, self.CFG, out_path=out)
        assert state.counterexample is None
        assert state.cursor == state.total
        # {0,1,2} fails the log-span precondition and is skipped
        assert state.skipped == 1
        records = [json.loads(l) for l in open(out)]
        assert all(r["type"] == "margin" for r in records)
        assert len(records) == state.examined

    def test_resume_reproduces_stream(self, tmp_path):
        full = str(tmp_path / "full.jsonl")
        scan_log_span(1, 3, 3, self.CFG, out_path=full, shard_size=2)

        part = str(tmp_path / "part.jsonl")
        ckpt = str(tmp_path / "state.json")
        st1 = scan_log_span(1, 3, 3, self.CFG, checkpoint_path=ckpt,
                            out_path=part, shard_size=2, max_shards=1)
        assert st1.cursor < st1.total
        st2 = scan_log_span(1, 3, 3, self.CFG, checkpoint_path=ckpt,
                            out_path=part, shard_size=2)
        assert st2.cursor == st2.total
        assert open(part).read() == open(full).read()

    def test_checkpoint_config_mismatch(self, tmp_path):
        ckpt = str(tmp_path / "state.json")
        scan_log_span(1, 3, 3, self.CFG, checkpoint_path=ckpt, max_shards=1)
        other = SearchConfig(box=((-2, 3),), max_cardinality=2)
        with pytest.raises(ValueError):
            scan_log_span(1, 3, 3, other, checkpoint_path=ckpt)

    def test_rejects_p_other_than_two(self, tmp_path):
        out = tmp_path / "reports.jsonl"
        cfg = SearchConfig(box=((-2, 3),), max_cardinality=3, p=F(3, 2))
        with pytest.raises(ValueError, match="3/2"):
            scan_log_span(1, 3, 3, cfg, out_path=str(out))
        assert not out.exists()


class TestDoublingTriplingScan:
    def test_small_line(self, tmp_path):
        cfg = SearchConfig(box=((0, 1),), max_cardinality=2)
        out = str(tmp_path / "dt.jsonl")
        state = scan_doubling_tripling(1, 2, 2, cfg, out_path=out)
        assert state.counterexample is None
        records = [json.loads(l) for l in open(out)]
        by_u = {tuple(tuple(p) for p in r["U"]): r for r in records}
        # U = {0,1}: beta_sq = 4, alpha_sq = 9/4, margin (9/4)^2 - 4 = 17/16
        assert by_u[((0,), (1,))]["doubling_tripling"] == "17/16"
        assert by_u[((0,),)]["doubling_tripling"] == "0/1"

    def test_margins_nonnegative(self, tmp_path):
        cfg = SearchConfig(box=((-2, 3),), max_cardinality=3)
        state = scan_doubling_tripling(1, 3, 3, cfg)
        assert state.counterexample is None
        assert all(e["margin_float"] >= 0 for e in state.near)

    def test_rejects_p_other_than_two(self, tmp_path):
        out = tmp_path / "dt.jsonl"
        cfg = SearchConfig(box=((0, 1),), max_cardinality=2, p=F(3))
        with pytest.raises(ValueError, match="3/1"):
            scan_doubling_tripling(1, 2, 2, cfg, out_path=str(out))
        assert not out.exists()


@pytest.mark.parametrize("max_size", [0, -4])
@pytest.mark.parametrize("scan", [scan_log_span, scan_doubling_tripling])
def test_rejects_window_without_candidates(scan, max_size, tmp_path):
    out = tmp_path / "r.jsonl"
    with pytest.raises(ValueError, match="max_size must be >= 1"):
        scan(1, 3, max_size, SearchConfig(box=((0, 2),), max_cardinality=2), out_path=str(out))
    assert not out.exists()


def test_log_span_disproof_record(monkeypatch, tmp_path):
    # coverage of the disproof path: with the log-span test made to pass every
    # V, V = {0,1,2} reaches the exact check, and A = B = {0..3} gives
    # |A+B+V|^2/(|A||B|) = 81/16 < |V|^2, which stops the scan
    monkeypatch.setattr(conjectures, "log_span_check", lambda V: (True, None))
    out = tmp_path / "r.jsonl"
    cfg = SearchConfig(box=((0, 3),), max_cardinality=4)
    state = scan_log_span(1, 3, 3, cfg, out_path=str(out))
    line = [[0], [1], [2], [3]]
    ce = {"index": 2, "V": line[:3], "A": line, "B": line, "ratio_squared": "81/16"}
    assert state.counterexample == ce and state.cursor == 0
    assert json.loads(out.read_text().splitlines()[-1]) == {"type": "disproof", **ce}
    argv = ["conjecture", "scan", "--id", "log_span", "--box", "0..3",
            "--max-size", "3", "--max-card", "4"]
    assert cli.main(argv) == cli.EXIT_DISPROOF


def test_doubling_tripling_bug_record(monkeypatch, tmp_path):
    # coverage of the bug path: a beta estimate that breaks the proved chain
    # beta <= beta' <= beta'' stops the scan with a bug record
    chain = {"unrestricted": F(5), "isometric": F(4), "isomeric": F(6)}
    monkeypatch.setattr(conjectures, "beta_estimate",
                        lambda U, cfg: SimpleNamespace(value_exact=chain[cfg.variant]))
    out = tmp_path / "r.jsonl"
    state = scan_doubling_tripling(1, 2, 2, SearchConfig(box=((0, 1),), max_cardinality=2),
                                   out_path=str(out))
    ce = {"index": 0, "U": [[0]], "kind": "bug",
          "beta_sq": ["5/1", "4/1", "6/1"], "alpha_sq": ["1/1"] * 3}
    assert state.counterexample == ce and state.examined == 0
    assert [json.loads(l) for l in out.read_text().splitlines()] == [{"type": "bug", **ce}]
    argv = ["conjecture", "scan", "--id", "doubling_tripling", "--box", "0..1",
            "--max-size", "2", "--max-card", "2"]
    assert cli.main(argv) == cli.EXIT_LAW_FAILURE


@pytest.mark.parametrize("scan", [scan_log_span, scan_doubling_tripling])
def test_resume_under_other_threads(scan, tmp_path):
    # --threads does not change the work, so a checkpoint taken at one
    # thread count resumes at another, with the bytes of one uninterrupted run
    cfg1 = SearchConfig(box=((-1, 1),), max_cardinality=3, parallelism=1)
    cfg2 = SearchConfig(box=((-1, 1),), max_cardinality=3, parallelism=2)
    full, full_ckpt = tmp_path / "full.jsonl", tmp_path / "full.json"
    scan(1, 3, 3, cfg1, checkpoint_path=str(full_ckpt), out_path=str(full), shard_size=2)
    part, ckpt = tmp_path / "part.jsonl", tmp_path / "state.json"
    st1 = scan(1, 3, 3, cfg1, checkpoint_path=str(ckpt), out_path=str(part),
               shard_size=2, max_shards=1)
    assert st1.cursor < st1.total
    st2 = scan(1, 3, 3, cfg2, checkpoint_path=str(ckpt), out_path=str(part), shard_size=2)
    assert st2.cursor == st2.total
    assert part.read_bytes() == full.read_bytes()
    assert ckpt.read_bytes() == full_ckpt.read_bytes()


@pytest.mark.parametrize("crash_at", [2, 3])  # the saves after shards 1 and 2
@pytest.mark.parametrize("scan", [scan_log_span, scan_doubling_tripling])
def test_resume_after_crash_between_writes(scan, crash_at, tmp_path, monkeypatch):
    # a crash after a shard's lines reach --out but before its checkpoint is
    # saved: the resume cuts the unsaved lines, so --out equals one run's
    cfg = SearchConfig(box=((-2, 2),), max_cardinality=3)
    full, full_ckpt = tmp_path / "full.jsonl", tmp_path / "full.json"
    scan(1, 3, 3, cfg, checkpoint_path=str(full_ckpt), out_path=str(full), shard_size=1)
    part, ckpt = tmp_path / "part.jsonl", tmp_path / "state.json"
    saves = []

    def crashing_save(state, path):
        saves.append(path)
        if len(saves) == crash_at:
            raise OSError("crash between the two writes")
        save_state(state, path)

    monkeypatch.setattr(conjectures, "save_state", crashing_save)
    with pytest.raises(OSError, match="between the two writes"):
        scan(1, 3, 3, cfg, checkpoint_path=str(ckpt), out_path=str(part), shard_size=1)
    monkeypatch.undo()
    assert part.stat().st_size > load_state(str(ckpt)).out_bytes
    st = scan(1, 3, 3, cfg, checkpoint_path=str(ckpt), out_path=str(part), shard_size=1)
    assert st.cursor == st.total
    assert part.read_bytes() == full.read_bytes()
    assert ckpt.read_bytes() == full_ckpt.read_bytes()


# beta_estimate patched to report a ratio below |V|^2 that its witness does
# not replay to: the scan must refuse to write the disproof
FORGED_REPORT = """
import dataclasses, sys
from fractions import Fraction
from sumsetlab import conjectures
from sumsetlab.search import SearchConfig

real = conjectures.beta_estimate
conjectures.beta_estimate = lambda V, cfg: dataclasses.replace(real(V, cfg), value_exact=Fraction(1, 2))
try:
    conjectures.scan_log_span(1, 3, 3, SearchConfig(box=((-2, 3),), max_cardinality=3))
except AssertionError as err:
    print(sys.flags.optimize, err)
"""


def test_witness_replay_runs_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", FORGED_REPORT],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("1 witness of V = "), done.stdout
