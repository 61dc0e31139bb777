"""Checkpointed counterexample scans for the open conjectures.

Candidate sets are enumerated in a canonical form (translate the min-corner
to the origin, then minimize lexicographically over the signed coordinate
permutations preserving the box), so each translation/unimodular class is
visited once.  Scans proceed in fixed-size shards; the checkpoint is a
single JSON file written atomically at shard boundaries, and resuming from
it, under any node ceiling, reproduces the identical report stream: no
record reads an estimate cut at the ceiling.

A disproof record is conclusive: laws.check_quasicube_beta recomputes its
witness ratio exactly from A, B and V before the scan records it.
"""

from __future__ import annotations

import bisect
import json
import os
import tempfile
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import GroupContext, PointSet, Vec
from .laws import check_quasicube_beta
from .quasicube import log_span_check
from .search import (
    SearchConfig,
    _TABLE_LIMIT,
    alpha_estimate,
    anchored_counts,
    anchored_sets,
    beta_estimate,
    box_size,
    box_str,
    frac_str,
    point_tuples,
    set_images,
    signed_permutations,
    variant_estimates,
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
        # the ledger is sorted: insert after equal keys, where a stable sort puts it
        entry = {"margin": frac_str(margin), "margin_float": float(margin), **record}
        bisect.insort(self.near, entry, key=lambda e: (e["margin_float"], json.dumps(e, sort_keys=True)))
        del self.near[NEAR_LEDGER_SIZE:]


_JSON_TYPES = {  # what ScanState.from_json_dict accepts for each field
    "conjecture": str, "cursor": int, "total": int, "examined": int, "skipped": int,
    "near": list, "counterexample": (dict, type(None)), "config": dict,
    "out_bytes": (int, type(None)),
}


def save_state(state: ScanState, path: str) -> None:
    """Atomic write: temp file in the target directory, then rename.  Every
    field of a ScanState is JSON already (lists, dicts, strings, numbers and
    None), so the fields are dumped as they are, with no json_value walk."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as e:  # name the checkpoint, not the random temp file
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:  # json.dumps runs the C encoder, json.dump the Python one
            fh.write(json.dumps({f.name: getattr(state, f.name) for f in fields(state)}, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_state(path: str) -> ScanState:
    with open(path) as fh:
        return ScanState.from_json_dict(json.load(fh))


# --- canonical enumeration modulo translation and signed permutations -------


def _image(points: Sequence[Vec], perm: tuple[int, ...], signs: tuple[int, ...]) -> tuple[Vec, ...]:
    """The points under a signed permutation, translated to min 0 per axis, sorted."""
    imgs = [tuple(s * p[a] for a, s in zip(perm, signs)) for p in points]
    mins = [min(axis) for axis in zip(*imgs)]
    return tuple(sorted(tuple(c - m for c, m in zip(q, mins)) for q in imgs))


def canonical_form(points: Sequence[Vec], dims: Sequence[int]) -> tuple[Vec, ...]:
    return min(_image(points, perm, signs) for perm, signs in signed_permutations(dims))


def enumerate_canonical(d: int, side: int, max_size: int) -> list[tuple[Vec, ...]]:
    """Anchored box subsets that are minimal in their unimodular class: no
    signed permutation maps one below itself.  The subsets are sorted, so
    that is no image at a lower index (`set_images`)."""
    points, index, sizes = anchored_sets(GroupContext(d), ((0, side - 1),) * d, max_size)
    least = set_images(index, (side,) * d).min(axis=0)
    minima = np.flatnonzero(least == np.arange(len(least)))
    return point_tuples(points, index[minima], sizes[minima])


def _refuse_long_listing(d: int, side: int, max_size: int) -> None:
    """Refuse a candidate window before it is listed when the listing is
    sure to pass _TABLE_LIMIT.  anchored_sets extends each set by up to the
    N box points after it, about N steps per set, so a window is
    refused, as search._refuse_counted refuses a pair table of N rows per
    set, once N times its count of sets passes _TABLE_LIMIT at 8 bytes
    each.  The sets are counted size by size, and counting stops there."""
    ctx, box = GroupContext(d), ((0, side - 1),) * d
    n, count = box_size(ctx, box), 0
    for k_sets in anchored_counts(ctx, box, max_size):
        count += k_sets
        if n * count * 8 > _TABLE_LIMIT:
            raise ValueError(
                f"the window {box_str(box)} has at least {count} sets of at most {max_size} of its "
                f"{n} points, and listing them passes the limit of {_TABLE_LIMIT} bytes at 8 per "
                "set and point; narrow the box or lower --max-size")


def _require_p2(cfg: SearchConfig) -> None:
    # the margins are exact squared ratios, which the estimates give only at p = 2
    if cfg.p != 2:
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
    lines.  A checkpoint resumes, and is saved, under the config's node
    ceiling, as no record reads a cut estimate (search.require_complete)."""
    _require_p2(cfg)
    if max_size < 1:  # no candidate to scan
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    _refuse_long_listing(d, side, max_size)
    candidates = enumerate_canonical(d, side, max_size)
    config_echo = {"d": d, "side": side, "max_size": max_size, "search": cfg.echo()}
    if checkpoint_path and os.path.exists(checkpoint_path):
        state = load_state(checkpoint_path)
        if state.conjecture != conjecture:
            raise ValueError(f"checkpoint belongs to a {state.conjecture} scan, not {conjecture}")
        if isinstance(state.config.get("search"), dict):
            state.config["search"]["node_ceiling"] = cfg.node_ceiling
        if state.config != config_echo:
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
    """For each canonical V with the log-span property, check through
    laws.check_quasicube_beta (which reads no estimate cut at the ceiling)
    that no scanned pair drops the squared tripling ratio below |V|^2.  An
    exact witness below |V|^2, which the law has replayed from A, B and V,
    disproves the conjecture conclusively (the window minimum is an upper
    bound on the infimum); the scan only records it."""
    ctx = GroupContext(d)

    def check(state: ScanState, idx: int, pts: tuple[Vec, ...]) -> Optional[str]:
        V = PointSet.of(ctx, pts)
        ok, _ = log_span_check(V)
        if not ok:
            state.skipped += 1
            return None
        verdict = check_quasicube_beta(V, cfg)
        margin = verdict.margin
        state.examined += 1
        record = {"index": idx, "V": [list(p) for p in pts]}
        if not verdict.holds:  # conclusive: the law replayed the witness
            ce = verdict.counterexample
            state.counterexample = {**record, "A": ce["A"], "B": ce["B"],
                                    "ratio_squared": frac_str(margin + len(V) ** 2)}
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
    """For each canonical U compute the six estimates on matched windows,
    all complete; exact violations of the proved variant chains are bugs,
    margins of the conjectural equalities and of beta <= alpha^2 are recorded."""
    ctx = GroupContext(d)

    def check(state: ScanState, idx: int, pts: tuple[Vec, ...]) -> Optional[str]:
        U = PointSet.of(ctx, pts)
        if not all(len(p) == len(cfg.box) and all(lo <= c <= hi for c, (lo, hi) in zip(p, cfg.box))
                   for p in U.points):  # U lies in the box
            state.skipped += 1
            return None
        betas, alphas = variant_estimates(U, cfg, max(cfg.max_cardinality, len(U)),
                                          beta_estimate, alpha_estimate)
        b = [r.value_exact for r in betas]
        a = [r.value_exact for r in alphas]
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
