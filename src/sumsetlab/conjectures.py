"""Checkpointed counterexample scans for the open conjectures.

Candidate sets are enumerated in a canonical form (translate the min-corner
to the origin, then minimize lexicographically over the signed coordinate
permutations preserving the box), so each translation/unimodular class is
visited once.  Scans proceed in fixed-size shards; the checkpoint is a
single JSON file written atomically at shard boundaries, and resuming from
it reproduces the identical report stream.

A disproof record is conclusive only when it re-verifies by direct exact
recomputation of the witness ratio.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .groups import GroupContext, PointSet, Vec, sumset
from .quasicube import log_span_check
from .search import (
    SearchConfig,
    alpha_estimate,
    beta_estimate,
    canonical_subsets,
    frac_str,
    json_value,
)

NEAR_LEDGER_SIZE = 100
SHARD_SIZE = 64


@dataclass
class ScanState:
    conjecture: str
    cursor: int
    total: int
    examined: int
    skipped: int
    near: list[dict]  # smallest margins seen, ascending
    counterexample: Optional[dict]
    config: dict
    out_bytes: Optional[int] = None  # size of --out after the last saved shard

    @classmethod
    def from_json_dict(cls, d: object) -> "ScanState":
        """The state a checkpoint holds.  ValueError unless it is a JSON
        object with every field, each of its JSON type, with
        0 <= cursor <= total, nonnegative counts and `near` entries that
        carry a string margin and a numeric margin_float; out_bytes may be
        absent (no size recorded, nothing to cut on resume)."""
        if not isinstance(d, dict):
            raise ValueError("checkpoint does not hold a JSON object")
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in d and n != "out_bytes"]
        if missing:
            raise ValueError(f"checkpoint lacks the field(s) {', '.join(missing)}")
        mistyped = [n for n in names if n in d and not isinstance(d[n], _JSON_TYPES[n])]
        if mistyped:
            raise ValueError(f"checkpoint field(s) of the wrong type: {', '.join(mistyped)}")
        if not 0 <= d["cursor"] <= d["total"]:
            raise ValueError(f"checkpoint cursor {d['cursor']} outside [0, {d['total']}]")
        if min(d["examined"], d["skipped"], d.get("out_bytes") or 0) < 0:
            raise ValueError("checkpoint counts examined, skipped and out_bytes must be >= 0")
        if not all(isinstance(e, dict) and isinstance(e.get("margin"), str)
                   and isinstance(e.get("margin_float"), (int, float)) for e in d["near"]):
            raise ValueError("checkpoint near entries need a string margin and a numeric margin_float")
        return cls(**{n: d[n] for n in names if n in d})

    def push_near(self, margin: Fraction, record: dict) -> None:
        entry = {"margin": frac_str(margin), "margin_float": float(margin), **record}
        self.near.append(entry)
        self.near.sort(key=lambda e: (e["margin_float"], json.dumps(e, sort_keys=True)))
        del self.near[NEAR_LEDGER_SIZE:]


_JSON_TYPES = {  # what ScanState.from_json_dict accepts for each field
    "conjecture": str, "cursor": int, "total": int, "examined": int, "skipped": int,
    "near": list, "counterexample": (dict, type(None)), "config": dict,
    "out_bytes": (int, type(None)),
}


def save_state(state: ScanState, path: str) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as e:  # name the checkpoint, not the random temp file
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(json_value(state), fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_state(path: str) -> ScanState:
    with open(path) as fh:
        return ScanState.from_json_dict(json.load(fh))


def _work_config(config: dict) -> dict:
    """A scan config without `search.parallelism`, which does not change the
    work, so a scan may resume under a different thread count."""
    search = {k: v for k, v in config.get("search", {}).items() if k != "parallelism"}
    return {**config, "search": search}


# --- canonical enumeration modulo translation and signed permutations -------


def box_transforms(dims: Sequence[int]) -> list[Callable[[Vec], Vec]]:
    """Signed coordinate permutations preserving the box shape (8 for a
    square 2-d box, 4 for a rectangle, 2 on a line)."""
    d = len(dims)
    perms = [p for p in itertools.permutations(range(d))
             if all(dims[p[i]] == dims[i] for i in range(d))]
    out = []
    for perm in perms:
        for signs in itertools.product((1, -1), repeat=d):
            out.append(lambda p, perm=perm, signs=signs: tuple(
                signs[i] * p[perm[i]] for i in range(d)
            ))
    return out


def canonical_form(points: Sequence[Vec], dims: Sequence[int]) -> tuple[Vec, ...]:
    d = len(dims)
    best = None
    for t in box_transforms(dims):
        imgs = [t(p) for p in points]
        mins = [min(q[i] for q in imgs) for i in range(d)]
        norm = tuple(sorted(tuple(q[i] - mins[i] for i in range(d)) for q in imgs))
        if best is None or norm < best:
            best = norm
    assert best is not None
    return best


def enumerate_canonical(d: int, side: int, max_size: int) -> list[tuple[Vec, ...]]:
    """Anchored box subsets that are minimal in their unimodular class."""
    ctx = GroupContext(d)
    dims = (side,) * d
    box = ((0, side - 1),) * d
    out = []
    for pts in canonical_subsets(ctx, box, max_size):
        if pts == canonical_form(pts, dims):
            out.append(pts)
    return out


def _require_p2(cfg: SearchConfig) -> None:
    # the margins are exact squared ratios, which the estimates give only at p = 2
    if Fraction(cfg.p) != 2:
        raise ValueError(f"conjecture scans need p = 2, got p = {frac_str(cfg.p)}")


def _emit(out_path: Optional[str], lines: list[str]) -> Optional[int]:
    """Append lines to --out; return its size in bytes afterwards."""
    if out_path is None:
        return None
    with open(out_path, "ab") as fh:
        fh.write("".join(line + "\n" for line in lines).encode())
        return fh.tell()


def _run_shards(
    conjecture: str, d: int, side: int, max_size: int, cfg: SearchConfig,
    check: Callable[[ScanState, int, tuple[Vec, ...]], Optional[str]],
    checkpoint_path: Optional[str], out_path: Optional[str],
    shard_size: int, max_shards: Optional[int],
) -> ScanState:
    """The shard loop of both scans.

    `check(state, idx, pts)` examines candidate idx, updates the counts in
    `state` and returns its --out line (None when skipped); it stops the scan
    by setting `state.counterexample`.  A new scan saves its checkpoint before
    the first shard; each shard's lines are appended to --out before the
    checkpoint is saved with the new size of --out, and a resume cuts --out
    back to that size, so a crash between the two writes leaves no duplicate
    lines."""
    _require_p2(cfg)
    if max_size < 1:  # no candidate to scan
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    candidates = enumerate_canonical(d, side, max_size)
    config_echo = {"d": d, "side": side, "max_size": max_size, "search": cfg.echo()}
    if checkpoint_path and os.path.exists(checkpoint_path):
        state = load_state(checkpoint_path)
        if state.conjecture != conjecture:
            raise ValueError(f"checkpoint belongs to a {state.conjecture} scan, not {conjecture}")
        if _work_config(state.config) != _work_config(config_echo):
            raise ValueError("checkpoint was created with a different configuration")
        if state.total != len(candidates):
            raise ValueError(f"checkpoint counts {state.total} candidates, "
                             f"the scan has {len(candidates)}")
        if out_path is not None and state.out_bytes is not None and os.path.exists(out_path):
            os.truncate(out_path, min(state.out_bytes, os.path.getsize(out_path)))
    else:
        # _emit of no lines gives the size --out starts from
        state = ScanState(conjecture, 0, len(candidates), 0, 0, [], None, config_echo,
                          _emit(out_path, []))
        if checkpoint_path:  # so a crash in the first shard resumes too
            save_state(state, checkpoint_path)
    shards_done = 0
    while state.cursor < state.total and state.counterexample is None:
        if max_shards is not None and shards_done >= max_shards:
            break
        shards_done += 1
        shard_end = min(state.cursor + shard_size, state.total)
        lines = []
        for idx in range(state.cursor, shard_end):
            line = check(state, idx, candidates[idx])
            if line is not None:
                lines.append(line)
            if state.counterexample is not None:
                break
        if state.counterexample is None:
            state.cursor = shard_end
        state.out_bytes = _emit(out_path, lines)
        if checkpoint_path:
            save_state(state, checkpoint_path)
    return state


def scan_log_span(
    d: int,
    side: int,
    max_size: int,
    cfg: SearchConfig,
    checkpoint_path: Optional[str] = None,
    out_path: Optional[str] = None,
    shard_size: int = SHARD_SIZE,
    max_shards: Optional[int] = None,
) -> ScanState:
    """For each canonical V with the log-span property, exhaustively check
    that no scanned pair drops the squared tripling ratio below |V|^2.

    An exact witness below |V|^2 disproves the conjecture conclusively (the
    window minimum is an upper bound on the infimum)."""
    ctx = GroupContext(d)

    def check(state: ScanState, idx: int, pts: tuple[Vec, ...]) -> Optional[str]:
        V = PointSet.of(ctx, pts)
        ok, _ = log_span_check(V)
        if not ok:
            state.skipped += 1
            return None
        report = beta_estimate(V, cfg)
        margin = report.value_exact - len(V) ** 2
        state.examined += 1
        record = {"index": idx, "V": [list(p) for p in pts]}
        if margin < 0:
            # conclusive: re-verify the witness ratio directly
            A = PointSet.of(ctx, report.witness_a)
            B = PointSet.of(ctx, report.witness_b)
            n = len(sumset(sumset(A, B), V))
            if Fraction(n * n, len(A) * len(B)) != report.value_exact:
                raise AssertionError(f"witness of V = {pts} replays to {n}^2/{len(A) * len(B)}, "
                                     f"not {report.value_exact}")
            state.counterexample = {
                **record,
                "A": [list(p) for p in report.witness_a],
                "B": [list(p) for p in report.witness_b],
                "ratio_squared": frac_str(report.value_exact),
            }
            return json.dumps({"type": "disproof", **state.counterexample}, sort_keys=True)
        state.push_near(margin, record)
        return json.dumps({"type": "margin", **record, "margin": frac_str(margin)}, sort_keys=True)

    return _run_shards("log_span", d, side, max_size, cfg, check,
                       checkpoint_path, out_path, shard_size, max_shards)


def scan_doubling_tripling(
    d: int,
    side: int,
    max_size: int,
    cfg: SearchConfig,
    checkpoint_path: Optional[str] = None,
    out_path: Optional[str] = None,
    shard_size: int = SHARD_SIZE,
    max_shards: Optional[int] = None,
) -> ScanState:
    """For each canonical U compute the six estimates on matched windows;
    exact violations of the proved variant chains are bugs, margins of the
    conjectural equalities and of beta <= alpha^2 are recorded."""
    ctx = GroupContext(d)
    box_pts = {p for p in itertools.product(*[range(lo, hi + 1) for lo, hi in cfg.box])}

    def check(state: ScanState, idx: int, pts: tuple[Vec, ...]) -> Optional[str]:
        U = PointSet.of(ctx, pts)
        if not set(U.points) <= box_pts:
            state.skipped += 1
            return None
        est = {}
        for variant in ("unrestricted", "isometric", "isomeric"):
            cfgv = replace(cfg, variant=variant)
            est[("beta", variant)] = beta_estimate(U, cfgv).value_exact
            est[("alpha", variant)] = alpha_estimate(
                U, replace(cfgv, max_cardinality=max(cfg.max_cardinality, len(U)))
            ).value_exact
        b = [est[("beta", v)] for v in ("unrestricted", "isometric", "isomeric")]
        a = [est[("alpha", v)] for v in ("unrestricted", "isometric", "isomeric")]
        if not (b[0] <= b[1] <= b[2] and a[0] <= a[1] <= a[2]):
            # proved chain violated: implementation bug, stop the scan
            state.counterexample = {
                "index": idx, "U": [list(p) for p in pts], "kind": "bug",
                "beta_sq": [frac_str(x) for x in b],
                "alpha_sq": [frac_str(x) for x in a],
            }
            return json.dumps({"type": "bug", **state.counterexample}, sort_keys=True)
        state.examined += 1
        # beta <= alpha^2  <=>  beta^2 <= (alpha^2)^2 on squared ratios
        dt_margin = a[0] * a[0] - b[0]
        record = {"index": idx, "U": [list(p) for p in pts]}
        state.push_near(dt_margin, record)
        return json.dumps({
            "type": "margins", **record,
            "doubling_tripling": frac_str(dt_margin),
            "alpha_variants_gap": frac_str(a[2] - a[0]),
            "beta_variants_gap": frac_str(b[2] - b[0]),
        }, sort_keys=True)

    return _run_shards("doubling_tripling", d, side, max_size, cfg, check,
                       checkpoint_path, out_path, shard_size, max_shards)
