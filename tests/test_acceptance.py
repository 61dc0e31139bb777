"""Acceptance gate: ten end-to-end criteria, one test (pass/fail line) each.

Criteria 1 and 4 run through the CLI of this checkout in subprocesses, so
the byte-determinism rerun of criterion 10 exercises the real artifact
stream; the runs are cached at module scope and shared between criteria.
"""

import functools
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from sumsetlab.groups import GroupContext, PointSet
from sumsetlab.laws import run_suite
from sumsetlab.search import (
    SearchConfig,
    beta_estimate,
    c_p_constant,
    geometric_family_ratio,
    geometric_family_ratio_squared_exact,
    two_point_constant,
)

F = Fraction

DELTAS = [i / 10 for i in range(11)]
PS = [2.0, 1.5, 3.0]
R_MAX = 8


@pytest.fixture(scope="module")
def cli_suite_run(tmp_path_factory, src_env):
    """run(suite, threads), the output of one CLI `laws run`, run once per
    argument pair into pytest's session temp directory, which pytest prunes
    (it keeps the last three sessions')."""
    workdir = tmp_path_factory.mktemp("acceptance")

    @functools.lru_cache(maxsize=None)
    def run(suite: str, threads: int) -> str:
        out = workdir / f"{suite}-t{threads}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "sumsetlab.cli", "laws", "run",
             "--suite", suite, "--threads", str(threads), "--out", str(out)],
            capture_output=True, text=True, timeout=1800, env=src_env,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_text()

    return run


def split_run(text: str):
    lines = text.splitlines()
    return lines[:-1], json.loads(lines[-1])


def report(n: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_quasicube_beta_exact(cli_suite_run):
    # every subset of 25 seeded quasicubes (d <= 2): exhaustive scan over
    # [-2,3]^d at cardinality 4, exact minimum ratio^2 = |V|^2 at singletons
    verdict_lines, summary = split_run(cli_suite_run("quasicube", 4))
    verdicts = [json.loads(l) for l in verdict_lines]
    bad = [v for v in verdicts if not v["holds"] or v["margin"] != "0/1"]
    report(1, summary["failures"] == 0 and not bad and len(verdicts) > 0,
           f"{len(verdicts)} subset classes, all exact")


def tail_factor(x: float, p: float) -> float:
    """phi_p(x) = (1 - x^2) / ((1 - x^p)^(1/p) (1 - x^q)^(1/q)).

    Summing the geometric series gives, for r = s and x = delta^(r+1),
    geometric_family_ratio(delta, p, r, r) = c_delta(p) * phi_p(x) exactly;
    phi_p(x) -> 1 as x -> 0, and phi_2 = 1.
    """
    q = p / (p - 1.0)
    return (1 - x * x) / ((1 - x**p) ** (1.0 / p) * (1 - x**q) ** (1.0 / q))


def test_criterion_02_two_point_family():
    lower_bad = []
    tail_worst = (-1.0, None)  # largest |ratio_r - c phi_p(delta^(r+1))|, at (delta, p, r)
    rising = []
    exact_bad = []
    for delta in DELTAS:
        for p in PS:
            c = two_point_constant(delta, p)
            for r in range(R_MAX + 1):
                if geometric_family_ratio(delta, p, r, r) < c - 1e-9:
                    lower_bad.append((delta, p, r))
            if delta <= 0.9:
                # the family reaches c along its exact tail, never moving away
                prev = None
                for r in range(R_MAX + 1):
                    ratio = geometric_family_ratio(delta, p, r, r)
                    miss = abs(ratio - c * tail_factor(delta ** (r + 1), p))
                    if miss > tail_worst[0]:
                        tail_worst = (miss, (delta, p, r))
                    resid = ratio - c
                    if prev is not None and resid > prev + 1e-9:
                        rising.append((delta, p, r))
                    prev = resid
    for num in range(11):
        d = F(num, 10)
        for r in range(R_MAX + 1):
            if geometric_family_ratio_squared_exact(d, r, r) != (1 + d) ** 2:
                exact_bad.append((d, r))
    miss, at = tail_worst
    tail_bad = miss > 1e-9
    detail = (
        f"lower-bound violations: {len(lower_bad)}; "
        f"p=2 exactness violations: {len(exact_bad)}; "
        "largest tail mismatch {:.3g} at delta={} p={} r={}; ".format(miss, *at)
        + "residual increases: "
        + (", ".join(f"delta={d} p={p} r={r}" for d, p, r in rising) or "none")
    )
    report(2, not lower_bad and not tail_bad and not rising and not exact_bad, detail)


def test_criterion_03_c_p_constant():
    ok = c_p_constant(2.0) == 1.0
    ok = ok and all(c_p_constant(p) < 1.0 for p in (1.5, 3.0, 4.0))
    minimizer_bad = [
        (d, p)
        for d in DELTAS for p in PS
        if two_point_constant(d, p) < c_p_constant(p) * (1 + d) - 1e-9
    ]
    report(3, ok and not minimizer_bad,
           f"c_2 exact, minimizer violations: {len(minimizer_bad)}")


def test_criterion_04_rearrangement(cli_suite_run):
    verdict_lines, summary = split_run(cli_suite_run("rearrangement", 1))
    verdicts = [json.loads(l) for l in verdict_lines]
    report(4, summary["failures"] == 0 and len(verdicts) == 200,
           "200 seeded triples, exact")


def test_criterion_05_compression():
    verdicts = run_suite("compression")
    report(5, len(verdicts) == 500 and all(v.holds for v in verdicts),
           "500 seeded pairs")


def test_criterion_06_petridis_plunnecke():
    verdicts = run_suite("petridis_plunnecke")
    report(6, len(verdicts) == 400 and all(v.holds for v in verdicts),
           "200 qualifying instances each")


def test_criterion_07_beta_gamma_multiplicativity():
    verdicts = run_suite("beta_gamma")
    # three exact equivalences, exact product multiplicativity, tensorization
    exact = verdicts[:4]
    ok = all(v.holds and v.margin == 0 for v in exact) and verdicts[4].holds
    report(7, ok, "matched windows, exact at p=2")


def test_criterion_08_independence_scaling():
    ctx = GroupContext(1)
    vals = []
    for m in (1, 2, 3):
        U = PointSet.of(ctx, [(0,), (m,)])
        cfg = SearchConfig(box=((-2 * m, 3 * m),), max_cardinality=4)
        vals.append(beta_estimate(U, cfg).value_exact)
    report(8, vals == [F(4), F(4), F(4)], "beta-hat = 2 exactly for m in {1,2,3}")


def test_criterion_09_trivial_bounds_freiman():
    verdicts = run_suite("trivial_freiman")
    report(9, len(verdicts) == 510 and all(v.holds for v in verdicts),
           "10 windows + 500 random sets")


def test_criterion_10_thread_determinism(cli_suite_run):
    # rerun criteria 1 and 4 at the other thread count; verdict lines must be
    # byte-identical.  The trailing summary line embeds the run manifest
    # (invocation flags and wall clock), so it is compared with the manifest
    # stripped.
    ok = True
    details = []
    for suite, t_a, t_b in (("quasicube", 4, 1), ("rearrangement", 1, 4)):
        la, sa = split_run(cli_suite_run(suite, t_a))
        lb, sb = split_run(cli_suite_run(suite, t_b))
        same = la == lb
        sa.pop("manifest")
        sb.pop("manifest")
        same = same and sa == sb
        ok = ok and same
        details.append(f"{suite}: {'identical' if same else 'DIFFERS'}")
    report(10, ok, "; ".join(details))
