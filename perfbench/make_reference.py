"""Regenerate perfbench/reference.json from the program at hand.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted: the benchmark counts
every later disagreement with this file as a failed item.  It covers every
input any seed can draw (the torsion and gamma pools, the two-point
points) and records each scan from one uninterrupted run.  Quasicube verdicts
need no table: the proved law fixes them (holds, exact margin 0).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as w  # noqa: E402
from sumsetlab import laws, search  # noqa: E402
from sumsetlab.functional import WeightedFunction  # noqa: E402
from sumsetlab.groups import GroupContext, PointSet  # noqa: E402


def verdict_fields(v: laws.Verdict) -> dict:
    m = v.margin
    return {"holds": v.holds, "margin": w.frac(m) if isinstance(m, (int, Fraction)) else m}


def main() -> None:
    ref: dict = {
        "quasicube_laws": {"verdict": {"law": "quasicube_beta", "holds": True, "margin": "0/1"}},
    }

    scans = {}
    workdir = tempfile.mkdtemp(prefix="reference-", dir=HERE)
    try:
        for spec in w.SCANS:
            w.run_scan(spec, w.scan_config(spec, 1), workdir)
            records, state = w.scan_outputs(spec, workdir)
            scans[spec[0]] = {"records": records, "state": state}
    finally:
        shutil.rmtree(workdir)
    tcfg = search.SearchConfig(box=w.TORSION_BOX, max_cardinality=w.TORSION_CARD, node_ceiling=w.NODE_CEILING)
    torsion = {}
    for c in w.torsion_pool():
        U = PointSet.of(w.Z2_TORSION, c)
        for fn in (search.beta_estimate, search.alpha_estimate):
            torsion[w.torsion_key(fn.__name__, U)] = w.estimate_fields(fn(U, tcfg))
    ref["search_scans"] = {"scans": scans, "torsion": torsion}

    two_point = {}
    for d, p in w.TWO_POINT_POINTS:
        v = laws.check_two_point([d], [p], r_max=w.TWO_POINT_R_MAX, seed=0)
        two_point[f"{d}:{p}"] = verdict_fields(v)
    gamma = {}
    for pool_name, pool in w.gamma_pools().items():
        cfg = search.SearchConfig(**(w.GAMMA_Z_CFG if pool_name == "Z" else w.GAMMA_Z2_CFG),
                                  node_ceiling=w.NODE_CEILING)
        ctx = GroupContext(1 if pool_name == "Z" else 2)
        for support, ws in pool:
            f = WeightedFunction.of(ctx, zip(support, ws))
            gamma[w.gamma_key(f)] = w.estimate_fields(search.gamma_estimate(f, cfg))
    beta_is_gamma = {}
    for points, box, card in w.BETA_IS_GAMMA:
        U = PointSet.of(GroupContext(len(points[0])), points)
        cfg = search.SearchConfig(box=box, max_cardinality=card, node_ceiling=w.NODE_CEILING)
        beta_is_gamma[json.dumps(w.pts(U.points))] = verdict_fields(laws.check_beta_is_gamma(U, Fraction(2), cfg))
    ref["gamma_two_point"] = {"two_point": two_point, "gamma": gamma, "beta_is_gamma": beta_is_gamma}

    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
