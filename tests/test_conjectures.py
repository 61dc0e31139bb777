"""Canonical enumeration, checkpointing, and the conjecture scans."""

import io
import itertools
import json
import random
from fractions import Fraction
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
from sumsetlab.search import SearchConfig, canonical_subsets, json_value

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

    # (2, 9, 3): 1,069 classes in a box of 81 cells, past one 64-bit word
    @pytest.mark.parametrize("d, side, max_size", [(2, 3, 4), (2, 4, 4), (1, 8, 4), (2, 2, 4), (2, 9, 3)])
    def test_enumeration_keeps_the_minimum_over_transforms(self, d, side, max_size):
        # the enumeration stops at the first image below a subset; it keeps
        # exactly the subsets equal to the least image of any signed
        # coordinate permutation, each translated to min 0 and sorted
        def least_image(pts):
            images = []
            for perm in itertools.permutations(range(d)):
                for signs in itertools.product((1, -1), repeat=d):
                    img = [tuple(signs[i] * p[perm[i]] for i in range(d)) for p in pts]
                    mins = [min(q[i] for q in img) for i in range(d)]
                    images.append(tuple(sorted(tuple(q[i] - mins[i] for i in range(d)) for q in img)))
            return min(images)

        box = ((0, side - 1),) * d
        subsets = canonical_subsets(GroupContext(d), box, max_size)
        assert enumerate_canonical(d, side, max_size) == [pts for pts in subsets if pts == least_image(pts)]


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

    def test_near_ledger_matches_sort_then_truncate(self):
        # many equal margins, so the tie-break on the entry's JSON and the
        # place of equal entries both show; the reference sorts the whole
        # ledger after each push, as a stable sort would
        rng = random.Random(7)
        s = ScanState("log_span", 0, 0, 0, 0, [], None, {})
        ref = []
        for idx in range(2099):
            m, record = F(rng.randint(-30, 60), rng.randint(1, 4)), {"index": rng.randint(0, 40)}
            s.push_near(m, record)
            ref.append({"margin": f"{m.numerator}/{m.denominator}", "margin_float": float(m), **record})
            ref = sorted(ref, key=lambda e: (e["margin_float"], json.dumps(e, sort_keys=True)))
            ref = ref[:conjectures.NEAR_LEDGER_SIZE]
            assert s.near == ref


    def test_saved_bytes_match_json_dump(self, tmp_path):
        # save_state writes what json.dump writes, with a full near ledger, a
        # counterexample and float margins, through the faster json.dumps
        rng = random.Random(11)
        s = ScanState("log_span", 640, 2078, 600, 40, [], None,
                      SearchConfig(box=((-2, 3), (-2, 3)), max_cardinality=4).echo(), out_bytes=12345)
        for idx in range(3 * conjectures.NEAR_LEDGER_SIZE):
            V = [[rng.randint(-2, 3), rng.randint(-2, 3)] for _ in range(rng.randint(1, 4))]
            s.push_near(F(rng.randint(0, 90), rng.randint(1, 7)), {"index": idx, "V": V})
        s.counterexample = {"index": 7, "V": [[0, 0], [1, 2]], "A": [[0, 0]], "B": [[1, 1]],
                            "ratio_squared": "7/3"}
        assert len(s.near) == conjectures.NEAR_LEDGER_SIZE
        path = tmp_path / "state.json"
        save_state(s, str(path))
        ref = io.StringIO()
        json.dump(json_value(s), ref, sort_keys=True)
        assert path.read_text() == ref.getvalue() + "\n"


class TestLogSpanScan:
    CFG = SearchConfig(box=((-2, 3),), max_cardinality=3)

    def test_full_run(self, tmp_path):
        out = str(tmp_path / "reports.jsonl")
        state = scan_log_span(1, 3, 3, self.CFG, out_path=out)
        assert state.counterexample is None
        assert state.cursor == state.total
        # {0,1,2} fails the log-span precondition and is skipped
        assert state.skipped == 1
        with open(out) as fh:
            records = [json.loads(l) for l in fh]
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
        with open(part) as got, open(full) as want:
            assert got.read() == want.read()

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
        with open(out) as fh:
            records = [json.loads(l) for l in fh]
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
                        lambda U, cfg: SimpleNamespace(value_exact=chain[cfg.variant], complete=True))
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
