"""Smoke check of the benchmark's own gate; about a minute.

    PYTHONPATH=src python3 perfbench/smoke.py

1. Seed 0 reproduces the stock ``laws.quasicube_corpus()``.
2. A traced function missing from the program is reported absent and the
   layer metrics are still computed.
3. With one reference entry corrupted per workload, exactly the items that
   entry covers are counted as failed, and none fail with the true reference.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as w  # noqa: E402
from sumsetlab import bitscan, laws  # noqa: E402


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke check failed: {what}")


def failures(name: str, seed: int, reference: dict) -> int:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        wl = w.make(name, seed, tmp)
        wl.setup(reference)
        wl.run(w.Timer())
        return sum(not it.ok for it in wl.check(reference))


def main() -> int:
    cubes, _ = w.quasicube_corpus(0)
    require(cubes == laws.quasicube_corpus(), "seed 0 does not reproduce the stock corpus")
    print("seed 0 reproduces laws.quasicube_corpus()")

    saved, original = bitscan.anchored_subsets, laws.make_quasicube
    del bitscan.anchored_subsets
    try:
        tracer = tracing.Tracer("smoke")
        tracer.install()
        w.QuasicubeLaws(0).setup({})
        tracer.uninstall()
    finally:
        bitscan.anchored_subsets = saved
    metrics = tracer.metrics()
    require(tracer.absent == ["bitscan.anchored_subsets"] and metrics["trace.absent_targets"] == 1,
            "a deleted function is not reported absent")
    require(metrics["quasicube.corpus_s"] > 0 and laws.make_quasicube is original,
            "tracing did not wrap and restore the corpus functions")
    print("a deleted traced function is reported absent")

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    bad = copy.deepcopy(reference)
    bad["quasicube_laws"]["verdict"]["margin"] = "1/1"  # every verdict
    bad["search_scans"]["scans"]["log_span_d2"]["records"][3]["margin"] = "-1/1"  # one record
    gamma = w.GammaTwoPoint(0)
    gamma.setup(reference)
    delta, p, _ = gamma.two_point[0]
    bad["gamma_two_point"]["two_point"][f"{delta}:{p}"]["margin"] += 1e-6  # one check
    expected = {"quasicube_laws": sum(w.QC_QUOTA.values()), "search_gamma": 2}
    for name, want in expected.items():
        clean, dirty = failures(name, 0, reference), failures(name, 0, bad)
        print(f"{name}: {clean} failed with the reference, {dirty} with one entry corrupted (want {want})")
        require(clean == 0 and dirty == want, f"{name} gate")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
