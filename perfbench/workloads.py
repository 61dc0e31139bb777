"""The benchmark's workloads: seeded inputs, timed items, correctness.

Each workload (or part of one) is a class with three steps, all run inside
one fresh interpreter (see child.py):

* ``setup()`` builds every input from the seed.  The program receives only
  these generated inputs.
* ``run(timer)`` makes the timed calls, one after another (a closed loop with
  one caller), and keeps what the program returned.
* ``check(reference)`` compares what was returned with the checked-in
  reference and replays witnesses through the program's oracles.  It returns
  one ``Item`` per unit of work: a verdict, a scan candidate, an estimate or
  a (delta, p) check.

Only semantic fields are compared, never raw JSON bytes, so reports may
grow new fields without failing the gate.  Every input a seed can produce is
drawn from a finite pool that the reference covers completely, or (for the
quasicube verdicts) is checked against the proved law itself.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Optional

from sumsetlab import conjectures, functional, groups, io_formats, laws, quasicube, search
from sumsetlab.groups import GroupContext, PointSet
from sumsetlab.search import SearchConfig

#: Every SearchConfig the benchmark builds pins its node ceiling, so the
#: SUMSETLAB_NODE_CEILING environment variable cannot change the work done.
NODE_CEILING = 5_000_000
FLOAT_TOL = 1e-9


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Item:
    kind: str
    latency_ms: Optional[float]  # None for items that are not timed alone
    ok: bool
    why: str = ""


def frac(x) -> Optional[str]:
    return None if x is None else search.frac_str(x)


def pts(points) -> list[list[int]]:
    return [list(p) for p in points]


def input_text(ctx: GroupContext, rows) -> str:
    """A point set or function in the io_formats text format: the group
    header, then one row per point (a function's row ends in its weight)."""
    head = f"group {ctx.free_rank}"
    if ctx.torsion_moduli:
        head += " mod " + " ".join(map(str, ctx.torsion_moduli))
    return "\n".join([head] + [" ".join(map(str, row)) for row in rows]) + "\n"


def estimate_fields(r: search.EstimateReport) -> dict:
    return {
        "value_exact": frac(r.value_exact),
        "value_float": r.value_float,
        "witness_a": pts(r.witness_a),
        "witness_b": pts(r.witness_b),
        "complete": r.complete,
    }


def estimate_matches(got: dict, ref: Optional[dict]) -> str:
    """Empty string when the estimate agrees with its reference entry."""
    if ref is None:
        return "no reference entry"
    if got["value_exact"] != ref["value_exact"]:
        return f"value_exact {got['value_exact']} != {ref['value_exact']}"
    if ref["value_exact"] is None and abs(got["value_float"] - ref["value_float"]) > FLOAT_TOL:
        return f"value_float {got['value_float']!r} != {ref['value_float']!r}"
    for key in ("witness_a", "witness_b", "complete"):
        if got[key] != ref[key]:
            return f"{key} differs"
    return ""


def replay_set_estimate(r: search.EstimateReport, U: PointSet) -> str:
    """Recompute a beta/alpha report from its witness with groups.sumset."""
    ctx = U.context
    A, B = PointSet.of(ctx, r.witness_a), PointSet.of(ctx, r.witness_b)
    if r.quantity == "alpha":
        if not (U.is_subset(A) and U.is_subset(B)):
            return "alpha witness does not contain U"
        n = len(groups.sumset(A, B))
    else:
        n = len(groups.sumset(groups.sumset(A, B), U))
    if r.variant == "isomeric" and A != B:
        return "isomeric witness has A != B"
    if r.variant == "isometric" and len(A) != len(B):
        return "isometric witness has |A| != |B|"
    a, b = len(A), len(B)
    if r.value_exact is not None and r.value_exact != Fraction(n * n, a * b):
        return "witness replay disagrees with value_exact"
    if abs(search.ratio_float(n, a, b, r.p) - r.value_float) > FLOAT_TOL:
        return "witness replay disagrees with value_float"
    return ""


def replay_gamma(r: search.EstimateReport, f: functional.WeightedFunction) -> str:
    """The indicator pair (A, B) of a gamma report, recomputed with
    functional.max_convolve, bounds the reported value (refinement only
    lowers it) and equals it when the report is exact."""
    ctx = f.context
    one = Fraction(1)
    ga = functional.WeightedFunction.of(ctx, [(q, one) for q in r.witness_a])
    gb = functional.WeightedFunction.of(ctx, [(q, one) for q in r.witness_b])
    num = Fraction(functional.l1_norm(functional.max_convolve(functional.max_convolve(f, ga), gb)))
    a, b = len(r.witness_a), len(r.witness_b)
    invp = 1.0 / float(r.p)
    ratio = float(num) / (a**invp * b ** (1.0 - invp))
    if r.value_float > ratio + FLOAT_TOL:
        return "reported gamma above its own witness ratio"
    if r.value_exact is not None and r.value_exact != num * num / (a * b):
        return "witness replay disagrees with value_exact"
    return ""


def verdict_matches(v: laws.Verdict, ref: Optional[dict]) -> str:
    if ref is None:
        return "no reference entry"
    if v.holds != ref["holds"]:
        return f"holds={v.holds}"
    if isinstance(ref["margin"], str):
        if not isinstance(v.margin, (int, Fraction)) or frac(v.margin) != ref["margin"]:
            return f"margin {v.margin!r} != {ref['margin']}"
    elif abs(float(v.margin) - ref["margin"]) > FLOAT_TOL:
        return f"margin {v.margin!r} != {ref['margin']!r}"
    return ""


class Timer:
    """Times the calls of the timed phase; the first call ends set-up."""

    def __init__(self) -> None:
        self.start: Optional[float] = None
        self.end: Optional[float] = None

    def call(self, fn: Callable, *args, **kwargs):
        t0 = time.perf_counter()
        if self.start is None:
            self.start = t0
        try:
            out = fn(*args, **kwargs)
        except Exception as e:  # counted as a failed item, never fatal
            out = e
        t1 = time.perf_counter()
        self.end = t1
        return out, (t1 - t0) * 1000.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start


# --- quasicube_laws ---------------------------------------------------------

#: 5 x 4 window (the stock suite uses [-2, 3]^d); d = 1 uses its first axis
QC_BOX = ((-2, 2), (-2, 1))
QC_MAX_CARD = 4
QC_SHIFT_BOX = 3
QC_STOCK_CUBES = 25
#: distinct normalized subsets per (dimension, |V|, extent of the last axis)
#: in the stock corpus.  Every seed draws exactly this many: the recheck
#: works on big ints one row of the window per unit of extent, so equal
#: counts per class give each seed the same amount of work.
QC_QUOTA = {
    (1, 1, 0): 1, (1, 2, 1): 1, (1, 2, 2): 1, (1, 2, 3): 1,
    (2, 1, 0): 1, (2, 2, 0): 3, (2, 2, 1): 9, (2, 2, 2): 10, (2, 2, 3): 4,
    (2, 3, 1): 19, (2, 3, 2): 22, (2, 3, 3): 4, (2, 4, 1): 5, (2, 4, 2): 6, (2, 4, 3): 1,
}


def quasicube_corpus(seed: int) -> tuple[list[PointSet], list[tuple[int, tuple]]]:
    """Seeded quasicubes (dimension 1 and 2, alternating) and their distinct
    normalized subsets, filled class by class up to QC_QUOTA.  Cube k uses
    random.Random(seed * 1_000_003 + k), so seed 0 gives the stock
    laws.quasicube_corpus() exactly."""
    cubes: list[PointSet] = []
    seen: dict[tuple[int, tuple], None] = {}
    counts = {k: 0 for k in QC_QUOTA}
    k = 0
    while len(cubes) < QC_STOCK_CUBES or counts != QC_QUOTA:
        if k > 10_000:
            raise RuntimeError("quasicube quota not reachable")
        rng = random.Random(seed * 1_000_003 + k)
        U = quasicube.make_quasicube(quasicube.random_spec(k % 2 + 1, QC_SHIFT_BOX, rng))
        cubes.append(U)
        d = U.context.free_rank
        for V in U.subsets():
            key = (d, laws._normalized_free(V))
            cls = (d, len(V), max(p[-1] for p in key[1]))
            if key not in seen and counts.get(cls, 0) < QC_QUOTA.get(cls, 0):
                seen[key] = None
                counts[cls] += 1
        k += 1
    order = sorted(seen, key=lambda key: (key[0], len(key[1]), key[1]))
    return cubes, order


class QuasicubeLaws:
    name = "quasicube_laws"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, reference: dict) -> None:
        _, keys = quasicube_corpus(self.seed)
        # a seeded order spreads each |V| class over the whole round, so its
        # latencies sample the machine over the round and not one stretch of it
        random.Random(self.seed).shuffle(keys)
        self.threads = nproc()
        self.inputs = []
        for d, norm in keys:
            cfg = SearchConfig(box=QC_BOX[:d], max_cardinality=QC_MAX_CARD,
                               parallelism=self.threads, node_ceiling=NODE_CEILING)
            self.inputs.append((PointSet.of(GroupContext(d), norm), cfg))

    def run(self, timer: Timer) -> None:
        self.results = [
            timer.call(laws.check_quasicube_beta, V, cfg, threads=self.threads)
            for V, cfg in self.inputs
        ]

    def check(self, reference: dict) -> list[Item]:
        ref = reference[self.name]["verdict"]
        items = []
        for v, ms in self.results:
            if isinstance(v, Exception):
                items.append(Item("verdict", ms, False, repr(v)))
                continue
            why = verdict_matches(v, ref) or ("" if v.law == ref["law"] else "law name")
            items.append(Item("verdict", ms, not why, why))
        return items


# --- search_scans -----------------------------------------------------------

Z2_TORSION = GroupContext(1, (2,))
TORSION_BOX = ((0, 2),)
TORSION_CARD = 4
TORSION_PICK = {2: 3, 3: 2}  # sets drawn per seed, by |U|

#: (name, scan function, d, side, max_size, search box, max_cardinality,
#: node_ceiling, shard_size).  The d=1 window holds 378^2 = 142,884 pairs,
#: above its ceiling, so the int-mask path, the full pair list and the
#: ceiling cut all run; the d=2 scans use the generic tuple path.
SCANS = (
    ("log_span_d2", "scan_log_span", 2, 3, 4, ((0, 1), (0, 2)), 3, NODE_CEILING, 8),
    ("doubling_tripling_d2", "scan_doubling_tripling", 2, 2, 4, ((0, 1), (0, 2)), 4, NODE_CEILING, 2),
    ("log_span_d1", "scan_log_span", 1, 8, 4, ((-4, 9),), 4, 60_000, 4),
)


def torsion_pool() -> list[tuple]:
    """Subsets of {0,1,2} x Z_2 of size 2 and 3 meeting the coordinate x = 0."""
    box = [(x, t) for x in range(3) for t in range(2)]
    return [c for k in (2, 3) for c in combinations(box, k) if min(p[0] for p in c) == 0]


def torsion_key(fn_name: str, U: PointSet) -> str:
    return f"{fn_name}:{json.dumps(pts(U.points))}"


def scan_config(spec, threads: int) -> SearchConfig:
    _, _, _, _, _, box, card, ceiling, _ = spec
    return SearchConfig(box=box, max_cardinality=card, parallelism=threads, node_ceiling=ceiling)


def run_scan(spec, cfg: SearchConfig, workdir: str, max_shards: Optional[int] = None):
    """One leg of a checkpointed scan; a second call resumes the first."""
    name, fn, d, side, max_size, _, _, _, shard = spec
    ckpt = os.path.join(workdir, name + ".ckpt.json")
    out = os.path.join(workdir, name + ".jsonl")
    return getattr(conjectures, fn)(d, side, max_size, cfg, checkpoint_path=ckpt,
                                    out_path=out, shard_size=shard, max_shards=max_shards)


def scan_outputs(spec, workdir: str) -> tuple[list[dict], dict]:
    name = spec[0]
    with open(os.path.join(workdir, name + ".jsonl")) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    with open(os.path.join(workdir, name + ".ckpt.json")) as fh:
        state = json.load(fh)
    return records, state_fields(state)


def state_fields(state: dict) -> dict:
    return {
        "cursor": state["cursor"],
        "total": state["total"],
        "examined": state["examined"],
        "skipped": state["skipped"],
        "counterexample": state["counterexample"],
        "near": [{"index": e["index"], "margin": e["margin"]} for e in state["near"]],
    }


class _CallRecorder:
    """Rebinds the per-candidate calls of the scans in ``conjectures`` to a
    thin recorder: one clock read on each side of each call, so scan
    candidates can be timed one by one from outside.  Returns are kept for
    the witness replay."""

    NAMES = ("log_span_check", "beta_estimate", "alpha_estimate")

    def __init__(self) -> None:
        self.calls: list[tuple[tuple, float, object, PointSet]] = []
        self.saved = {}

    def __enter__(self):
        for name in self.NAMES:
            inner = getattr(conjectures, name, None)
            if inner is None:
                continue
            self.saved[name] = inner

            def rec(U, *args, _inner=inner, **kwargs):
                t0 = time.perf_counter()
                out = _inner(U, *args, **kwargs)
                self.calls.append((U.points, (time.perf_counter() - t0) * 1000.0, out, U))
                return out

            setattr(conjectures, name, rec)
        return self

    def __exit__(self, *exc) -> None:
        for name, inner in self.saved.items():
            setattr(conjectures, name, inner)


class SearchScans:
    name = "search_scans"

    def __init__(self, seed: int, workroot: str) -> None:
        self.seed = seed
        self.workroot = workroot

    def setup(self, reference: dict) -> None:
        rng = random.Random(self.seed)
        self.threads = nproc()
        pool = torsion_pool()
        self.torsion = []
        for size, k in TORSION_PICK.items():
            for c in rng.sample([c for c in pool if len(c) == size], k):
                self.torsion.append(io_formats.parse_point_set(input_text(Z2_TORSION, c)))
        self.tcfg = SearchConfig(box=TORSION_BOX, max_cardinality=TORSION_CARD,
                                 parallelism=self.threads, node_ceiling=NODE_CEILING)
        self.scan_cfgs = [scan_config(spec, self.threads) for spec in SCANS]
        # leg one of each scan stops after a seeded number of shards
        self.stops = {}
        for spec in SCANS:
            total = reference[self.name]["scans"][spec[0]]["state"]["total"]
            shards = math.ceil(total / spec[8])
            self.stops[spec[0]] = 1 + rng.randrange(max(shards - 1, 1))

    def run(self, timer: Timer) -> None:
        self.workdir = tempfile.mkdtemp(prefix="scan-", dir=self.workroot)
        recorders = [_CallRecorder() for _ in SCANS]
        legs: list[list] = [[] for _ in SCANS]
        self.estimates = []
        # leg one of every scan and half the estimates, then leg two and the
        # rest, so no class of items runs in one short stretch of the round
        for first, torsion in ((True, self.torsion[::2]), (False, self.torsion[1::2])):
            for spec, cfg, rec, done in zip(SCANS, self.scan_cfgs, recorders, legs):
                with rec:
                    stop = self.stops[spec[0]] if first else None
                    done.append(timer.call(run_scan, spec, cfg, self.workdir, stop)[0])
            for U in torsion:
                for fn in (search.beta_estimate, search.alpha_estimate):
                    out, ms = timer.call(fn, U, self.tcfg)
                    self.estimates.append((fn.__name__, U, out, ms))
        self.scan_runs = {spec[0]: (*done, rec.calls) for spec, done, rec in zip(SCANS, legs, recorders)}

    def check(self, reference: dict) -> list[Item]:
        ref = reference[self.name]
        items = []
        try:
            for spec in SCANS:
                items += self._check_scan(spec, ref["scans"][spec[0]])
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        for fn_name, U, r, ms in self.estimates:
            if isinstance(r, Exception):
                items.append(Item("estimate", ms, False, repr(r)))
                continue
            key = torsion_key(fn_name, U)
            why = estimate_matches(estimate_fields(r), ref["torsion"].get(key)) or replay_set_estimate(r, U)
            items.append(Item("estimate", ms, not why, why))
        return items

    def _check_scan(self, spec, ref: dict) -> list[Item]:
        leg1, leg2, calls = self.scan_runs[spec[0]]
        try:
            for leg in (leg1, leg2):
                if isinstance(leg, Exception):
                    raise leg
            records, state = scan_outputs(spec, self.workdir)
        except Exception as e:  # every record of a broken scan counts as failed
            return [Item("scan_candidate", None, False, repr(e))] * max(len(ref["records"]), 1)
        latency: dict[tuple, float] = {}
        replay: dict[tuple, str] = {}
        for key, ms, out, U in calls:
            latency[key] = latency.get(key, 0.0) + ms
            if isinstance(out, search.EstimateReport):
                replay[key] = replay.get(key) or replay_set_estimate(out, U)
        state_why = "" if state == ref["state"] else "resumed checkpoint state differs from one uninterrupted run"
        items = []
        n = max(len(records), len(ref["records"]))
        for i in range(n):
            got = records[i] if i < len(records) else None
            want = ref["records"][i] if i < len(ref["records"]) else None
            if got is None or want is None:
                items.append(Item("scan_candidate", None, False, "record count differs"))
                continue
            key = tuple(tuple(p) for p in got.get("V", got.get("U", [])))
            why = "" if all(got.get(k) == v for k, v in want.items()) else f"record {i} differs"
            why = why or replay.get(key, "") or state_why
            items.append(Item("scan_candidate", latency.get(key), not why, why))
        return items


# --- gamma checks (the second part of search_gamma) -------------------------

TWO_POINT_R_MAX = 8
GAMMA_Z_CFG = dict(box=((-1, 1),), max_cardinality=3)
GAMMA_Z2_CFG = dict(box=((-1, 1), (-1, 1)), max_cardinality=2)
#: (delta, p) points spread over the stock grid of laws.suite_two_point
#: (delta in 0, 0.1, ..., 1 and p in 2, 3/2, 3); the seed draws their
#: descent starts
TWO_POINT_POINTS = ((0.1, 1.5), (0.3, 3.0), (0.5, 2.0), (0.7, 1.5), (0.9, 3.0), (1.0, 2.0))
GAMMA_PICK = 1  # functions per pool per seed
#: fixed sets for the beta_is_gamma law: (points, box, max_cardinality)
BETA_IS_GAMMA = (
    (((0,), (1,)), ((-1, 2),), 3),
    (((0,), (1,), (2,)), ((-1, 2),), 3),
    (((0, 0), (1, 0), (0, 1), (1, 1)), ((-1, 1), (-1, 1)), 2),
)


def gamma_pools() -> dict[str, list]:
    """Exact-weight functions: three points on Z with weights in
    {1, 3/4, 1/2, 1/4}, and the unit square in Z^2 with weights in {1, 1/2}."""
    z = [(((0,), (1,), (2,)), ws) for ws in product([Fraction(k, 4) for k in (4, 3, 2, 1)], repeat=3)]
    sq = ((0, 0), (1, 0), (0, 1), (1, 1))
    z2 = [(sq, ws) for ws in product([Fraction(1), Fraction(1, 2)], repeat=4)]
    return {"Z": z, "Z2": z2}


def gamma_key(f: functional.WeightedFunction) -> str:
    return json.dumps([[list(p), search.frac_str(w)] for p, w in f.entries])


class GammaTwoPoint:
    name = "gamma_two_point"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, reference: dict) -> None:
        rng = random.Random(self.seed)
        threads = nproc()
        self.two_point = [(d, p, rng.randrange(2**31)) for d, p in TWO_POINT_POINTS]
        self.gamma = []
        for pool_name, pool in gamma_pools().items():
            cfg = SearchConfig(**(GAMMA_Z_CFG if pool_name == "Z" else GAMMA_Z2_CFG),
                               parallelism=threads, node_ceiling=NODE_CEILING)
            rank = 1 if pool_name == "Z" else 2
            for support, ws in rng.sample(pool, GAMMA_PICK):
                text = input_text(GroupContext(rank), [(*q, w) for q, w in zip(support, ws)])
                self.gamma.append((io_formats.parse_function(text), cfg))
        self.bg = [
            (PointSet.of(GroupContext(len(points[0])), points),
             SearchConfig(box=box, max_cardinality=card, parallelism=threads, node_ceiling=NODE_CEILING))
            for points, box, card in BETA_IS_GAMMA
        ]

    def run(self, timer: Timer) -> None:
        calls = ([(laws.check_two_point, ([d], [p]), {"r_max": TWO_POINT_R_MAX, "seed": s})
                  for d, p, s in self.two_point]
                 + [(search.gamma_estimate, (f, cfg), {}) for f, cfg in self.gamma]
                 + [(laws.check_beta_is_gamma, (U, Fraction(2), cfg), {}) for U, cfg in self.bg])
        # a seeded order spreads each kind of item over the whole round
        order = list(range(len(calls)))
        random.Random(self.seed).shuffle(order)
        results = [None] * len(calls)
        for i in order:
            fn, args, kwargs = calls[i]
            results[i] = timer.call(fn, *args, **kwargs)
        n_tp, n_g = len(self.two_point), len(self.gamma)
        self.tp_results = results[:n_tp]
        self.gamma_results = results[n_tp:n_tp + n_g]
        self.bg_results = results[n_tp + n_g:]

    def check(self, reference: dict) -> list[Item]:
        ref = reference[self.name]
        items = []
        for (d, p, _), (v, ms) in zip(self.two_point, self.tp_results):
            why = repr(v) if isinstance(v, Exception) else verdict_matches(v, ref["two_point"].get(f"{d}:{p}"))
            items.append(Item("two_point", ms, not why, why))
        for (f, _), (r, ms) in zip(self.gamma, self.gamma_results):
            if isinstance(r, Exception):
                items.append(Item("estimate", ms, False, repr(r)))
                continue
            why = estimate_matches(estimate_fields(r), ref["gamma"].get(gamma_key(f))) or replay_gamma(r, f)
            items.append(Item("estimate", ms, not why, why))
        for (U, _), (v, ms) in zip(self.bg, self.bg_results):
            why = repr(v) if isinstance(v, Exception) else verdict_matches(v, ref["beta_is_gamma"].get(json.dumps(pts(U.points))))
            items.append(Item("verdict", ms, not why, why))
        return items


class Composite:
    """Parts run one after another in each round; each part keeps its own
    section of the reference."""

    def __init__(self, name: str, parts: list) -> None:
        self.name = name
        self.parts = parts

    def setup(self, reference: dict) -> None:
        for part in self.parts:
            part.setup(reference)

    def run(self, timer: Timer) -> None:
        for part in self.parts:
            part.run(timer)

    def check(self, reference: dict) -> list[Item]:
        return [it for part in self.parts for it in part.check(reference)]


def make(name: str, seed: int, workroot: str):
    if name == "quasicube_laws":
        return QuasicubeLaws(seed)
    if name == "search_gamma":
        return Composite(name, [SearchScans(seed, workroot), GammaTwoPoint(seed)])
    raise ValueError(f"unknown workload {name!r}")
