"""Spans around the program's public functions, installed from outside.

A wrapper replaces a public function in every ``sumsetlab`` module that
holds it, so calls through ``laws.bitscan.build_scan``, a name imported with
``from .search import beta_estimate`` and the module attribute itself are all
seen.  Each span records its name, start, end, parent span and run id, plus
counts read from the arguments and the return value.  Spans stay in memory
and are written out once, at the end.  A function missing from the program
(deleted by a later refactor) is skipped and reported as absent; metrics
that depend on it read 0.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Callable, Optional

import numpy as np

#: the wrapped public functions, by module
TARGETS = {
    "bitscan": ("build_scan", "verify_subset_beta", "anchored_subsets"),
    "laws": ("check_quasicube_beta", "check_two_point", "check_beta_is_gamma"),
    "search": ("beta_estimate", "alpha_estimate", "canonical_subsets",
               "gamma_indicator_estimate", "gamma_estimate", "refine_weights_coordinate_descent"),
    "conjectures": ("enumerate_canonical", "scan_log_span", "scan_doubling_tripling", "save_state"),
    "quasicube": ("random_spec", "make_quasicube", "log_span_check"),
    "functional": ("max_convolve", "gamma_ratio"),
    "groups": ("sumset",),
}

#: per-layer metric -> (end-to-end metrics it should move, workload that shows it)
LINKS = {
    "bitscan.build_s": ("wall_s item_tail_ms", "quasicube_laws"),
    "bitscan.screen_pairs_per_s": ("wall_s item_tail_ms", "quasicube_laws"),
    "bitscan.verify_s": ("wall_s item_tail_ms", "quasicube_laws"),
    "bitscan.survivors": ("wall_s peak_rss_mb", "quasicube_laws"),
    "bitscan.survivor_ratio": ("wall_s peak_rss_mb", "quasicube_laws"),
    "bitscan.rechecked_pairs": ("item_p50_ms", "quasicube_laws"),
    "bitscan.recheck_pairs_per_s": ("item_p50_ms", "quasicube_laws"),
    "bitscan.scan_mb": ("peak_rss_mb", "quasicube_laws"),
    "bitscan.self_s": ("wall_s", "quasicube_laws"),
    "laws.verdicts": ("item_p50_ms", "quasicube_laws"),
    "laws.check_self_s": ("item_p50_ms wall_s", "quasicube_laws search_gamma"),
    "laws.two_point_s": ("wall_s", "search_gamma"),
    "laws.beta_is_gamma_s": ("wall_s", "search_gamma"),
    "laws.self_s": ("item_p50_ms wall_s", "quasicube_laws search_gamma"),
    "search.beta_s": ("wall_s item_p50_ms peak_rss_mb", "search_gamma"),
    "search.alpha_s": ("wall_s item_p50_ms", "search_gamma"),
    "search.beta_pairs": ("wall_s item_p50_ms", "search_gamma"),
    "search.alpha_pairs": ("wall_s item_p50_ms", "search_gamma"),
    "search.line_pairs_per_s": ("wall_s item_p50_ms peak_rss_mb", "search_gamma"),
    "search.grid_pairs_per_s": ("wall_s item_p50_ms", "search_gamma"),
    "search.torsion_pairs_per_s": ("wall_s item_p50_ms", "search_gamma"),
    "search.incomplete_reports": ("wall_s peak_rss_mb", "search_gamma"),
    "search.enumerate_s": ("wall_s", "search_gamma"),
    "search.gamma_indicator_s": ("wall_s", "search_gamma"),
    "search.gamma_pairs_per_s": ("wall_s", "search_gamma"),
    "search.refine_s": ("wall_s", "search_gamma"),
    "search.refine_evals": ("wall_s", "search_gamma"),
    "search.self_s": ("wall_s", "search_gamma"),
    "conjectures.enumerate_s": ("wall_s item_tail_ms", "search_gamma"),
    "conjectures.candidates": ("wall_s item_tail_ms", "search_gamma"),
    "conjectures.examined": ("wall_s item_tail_ms", "search_gamma"),
    "conjectures.skipped": ("wall_s item_tail_ms", "search_gamma"),
    "conjectures.candidates_per_s": ("wall_s item_tail_ms", "search_gamma"),
    "conjectures.checkpoint_s": ("wall_s item_tail_ms", "search_gamma"),
    "conjectures.checkpoint_writes": ("wall_s item_tail_ms", "search_gamma"),
    "conjectures.out_bytes": ("wall_s", "search_gamma"),
    "conjectures.self_s": ("wall_s", "search_gamma"),
    "quasicube.log_span_s": ("wall_s", "search_gamma"),
    "quasicube.log_span_calls": ("wall_s", "search_gamma"),
    "quasicube.corpus_s": ("setup_s", "quasicube_laws"),
    "quasicube.self_s": ("wall_s setup_s", "search_gamma quasicube_laws"),
    "functional.max_convolve_s": ("wall_s", "search_gamma"),
    "functional.max_convolve_calls": ("wall_s", "search_gamma"),
    "functional.gamma_ratio_s": ("wall_s", "search_gamma"),
    "functional.gamma_ratio_calls": ("wall_s", "search_gamma"),
    "functional.self_s": ("wall_s", "search_gamma"),
    "groups.sumset_s": ("wall_s", "search_gamma"),
    "groups.sumset_calls": ("wall_s", "search_gamma"),
    "groups.self_s": ("wall_s", "search_gamma"),
    "trace.spans": ("", ""),
    "trace.absent_targets": ("", ""),
    "trace.overhead_s": ("", ""),
}
METRICS = tuple(LINKS)


def unit(metric: str) -> str:
    for suffix, name in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "B"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return name
    return "count"


def _group_class(U) -> str:
    ctx = U.context
    if ctx.torsion_moduli:
        return "torsion"
    return "line" if ctx.free_rank == 1 else "grid"


def _scan_bytes(scan) -> int:
    """Array nbytes plus the sizes of the survivor masks held as Python ints."""
    total = 0
    for value in vars(scan).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, list) and value and isinstance(value[0], int):
            total += sum(sys.getsizeof(m) for m in value)
    return total


def _report_info(args, kwargs, out, pre) -> dict:
    return {"nodes": out.nodes, "incomplete": int(not out.complete), "group": _group_class(args[0])}


def _scan_progress(path: Optional[str], out_path: Optional[str]) -> dict:
    state = {}
    if path and os.path.exists(path):
        with open(path) as fh:
            state = json.load(fh)
    size = os.path.getsize(out_path) if out_path and os.path.exists(out_path) else 0
    return {k: state.get(k, 0) for k in ("cursor", "examined", "skipped")} | {"out": size}


def _scan_before(args, kwargs) -> dict:
    return _scan_progress(kwargs.get("checkpoint_path"), kwargs.get("out_path"))


def _scan_after(args, kwargs, out, pre) -> dict:
    post = _scan_progress(None, kwargs.get("out_path"))
    return {
        "candidates": out.cursor - pre["cursor"],
        "examined": out.examined - pre["examined"],
        "skipped": out.skipped - pre["skipped"],
        "out_bytes": post["out"] - pre["out"],
    }


#: (before, after) hooks that read counts from arguments and return values
HOOKS: dict[str, tuple[Optional[Callable], Optional[Callable]]] = {
    "bitscan.build_scan": (None, lambda a, k, out, pre: {
        "pairs": out.pair_count, "survivors": len(out.surv_i), "bytes": _scan_bytes(out)}),
    "bitscan.verify_subset_beta": (None, lambda a, k, out, pre: {"rechecked": out.get("checked_pairs", 0)}),
    "search.beta_estimate": (None, _report_info),
    "search.alpha_estimate": (None, _report_info),
    "search.gamma_indicator_estimate": (None, lambda a, k, out, pre: {
        "nodes": out.nodes, "incomplete": int(not out.complete)}),
    "conjectures.scan_log_span": (_scan_before, _scan_after),
    "conjectures.scan_doubling_tripling": (_scan_before, _scan_after),
}


_FAILED = object()


def _hook(hook: Optional[Callable], *args):
    """Run a count hook; a hook that no longer fits the program's arguments
    or return values leaves its counts out instead of breaking the call."""
    if hook is None:
        return None
    try:
        return hook(*args)
    except (AttributeError, KeyError, TypeError, IndexError, OSError, ValueError):
        return _FAILED


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self.local = threading.local()
        self.bound: list[tuple[object, str, Callable]] = []
        self.absent: list[str] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before, after = HOOKS.get(name, (None, None))
        spans, local = self.spans, self.local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            pre = _hook(before, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after and pre is not _FAILED:
                info = _hook(after, args, kwargs, out, pre)
                span[4] = None if info is _FAILED else info
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "sumsetlab" or n.startswith("sumsetlab.")]
        for mod_name, funcs in TARGETS.items():
            mod = sys.modules.get(f"sumsetlab.{mod_name}")
            for func in funcs:
                original = getattr(mod, func, None)
                if original is None:
                    self.absent.append(f"{mod_name}.{func}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self.bound.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self.bound):
            setattr(m, attr, original)
        self.bound.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1, "parent": parent,
                                     "run_id": self.run_id, **(info or {})}) + "\n")

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans, len(self.absent))


def layer_metrics(spans: list[list], absent: int) -> dict[str, float]:
    dur = [t1 - t0 for _, t0, t1, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    selfs = [d - c for d, c in zip(dur, child)]

    def pick(name: str, parent: Optional[str] = None):
        return [i for i, s in enumerate(spans)
                if s[0] == name and (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent))]

    def total(name: str, parent: Optional[str] = None) -> float:
        return sum(dur[i] for i in pick(name, parent))

    def count(name: str, parent: Optional[str] = None) -> int:
        return len(pick(name, parent))

    def info_sum(name: str, key: str) -> float:
        return sum(spans[i][4].get(key, 0) for i in pick(name) if spans[i][4])

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    m: dict[str, float] = {}
    pairs = info_sum("bitscan.build_scan", "pairs")
    survivors = info_sum("bitscan.build_scan", "survivors")
    rechecked = info_sum("bitscan.verify_subset_beta", "rechecked")
    m["bitscan.build_s"] = total("bitscan.build_scan")
    m["bitscan.screen_pairs_per_s"] = rate(pairs, sum(selfs[i] for i in pick("bitscan.build_scan")))
    m["bitscan.verify_s"] = total("bitscan.verify_subset_beta")
    m["bitscan.survivors"] = survivors
    m["bitscan.survivor_ratio"] = rate(survivors, pairs)
    m["bitscan.rechecked_pairs"] = rechecked
    m["bitscan.recheck_pairs_per_s"] = rate(rechecked, m["bitscan.verify_s"])
    m["bitscan.scan_mb"] = info_sum("bitscan.build_scan", "bytes") / 2**20

    checks = [f"laws.{f}" for f in TARGETS["laws"]]
    m["laws.verdicts"] = sum(count(c) for c in checks)
    m["laws.check_self_s"] = sum(selfs[i] for c in checks for i in pick(c))
    m["laws.two_point_s"] = total("laws.check_two_point")
    m["laws.beta_is_gamma_s"] = total("laws.check_beta_is_gamma")

    est = ("search.beta_estimate", "search.alpha_estimate")
    m["search.beta_s"] = total("search.beta_estimate")
    m["search.alpha_s"] = total("search.alpha_estimate")
    m["search.beta_pairs"] = info_sum("search.beta_estimate", "nodes")
    m["search.alpha_pairs"] = info_sum("search.alpha_estimate", "nodes")
    for group in ("line", "grid", "torsion"):
        idx = [i for e in est for i in pick(e) if spans[i][4] and spans[i][4].get("group") == group]
        m[f"search.{group}_pairs_per_s"] = rate(sum(spans[i][4]["nodes"] for i in idx),
                                                 sum(selfs[i] for i in idx))
    m["search.incomplete_reports"] = sum(info_sum(e, "incomplete")
                                         for e in est + ("search.gamma_indicator_estimate",))
    m["search.enumerate_s"] = total("search.canonical_subsets")
    m["search.gamma_indicator_s"] = total("search.gamma_indicator_estimate")
    m["search.gamma_pairs_per_s"] = rate(
        info_sum("search.gamma_indicator_estimate", "nodes"),
        m["search.gamma_indicator_s"] - total("search.canonical_subsets", "search.gamma_indicator_estimate"))
    m["search.refine_s"] = total("search.refine_weights_coordinate_descent")
    m["search.refine_evals"] = count("functional.gamma_ratio", "search.refine_weights_coordinate_descent")

    scans = ("conjectures.scan_log_span", "conjectures.scan_doubling_tripling")
    m["conjectures.enumerate_s"] = total("conjectures.enumerate_canonical")
    for key in ("candidates", "examined", "skipped"):
        m[f"conjectures.{key}"] = sum(info_sum(s, key) for s in scans)
    m["conjectures.candidates_per_s"] = rate(m["conjectures.candidates"], sum(total(s) for s in scans))
    m["conjectures.checkpoint_s"] = total("conjectures.save_state")
    m["conjectures.checkpoint_writes"] = count("conjectures.save_state")
    m["conjectures.out_bytes"] = sum(info_sum(s, "out_bytes") for s in scans)

    m["quasicube.log_span_s"] = total("quasicube.log_span_check")
    m["quasicube.log_span_calls"] = count("quasicube.log_span_check")
    m["quasicube.corpus_s"] = total("quasicube.random_spec") + total("quasicube.make_quasicube")
    m["functional.max_convolve_s"] = total("functional.max_convolve")
    m["functional.max_convolve_calls"] = count("functional.max_convolve")
    m["functional.gamma_ratio_s"] = total("functional.gamma_ratio")
    m["functional.gamma_ratio_calls"] = count("functional.gamma_ratio")
    m["groups.sumset_s"] = total("groups.sumset")
    m["groups.sumset_calls"] = count("groups.sumset")

    for mod in TARGETS:
        m[f"{mod}.self_s"] = sum(selfs[i] for i, s in enumerate(spans) if s[0].startswith(mod + "."))
    m["trace.spans"] = len(spans)
    m["trace.absent_targets"] = absent
    return m
