"""Executable verifiers for the proved inequalities of the sumset calculus.

Each check returns a Verdict carrying the inputs, an exact or float margin,
and a counterexample when the inequality fails.  Exact arithmetic is used
wherever the exponents permit (p = 2, integer powers); float checks carry a
single global tolerance of 1e-9.  A false verdict on a proved statement
indicates an implementation bug and is treated as build-stopping by the CLI.

Suites bundle seeded instance generators so failures replay from the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import bitscan
from .functional import (
    WeightedFunction,
    l1_norm,
    max_convolve,
    min_over_permutations,
    rearrange_nonincreasing,
)
from .groups import (
    GroupContext,
    PointSet,
    Vec,
    compress,
    dimension,
    iterated_sumset,
    sumset,
)
from .quasicube import make_quasicube, random_spec
from .search import (
    EstimateReport,
    SearchConfig,
    beta_estimate,
    alpha_estimate,
    c_p_constant,
    canonical_subsets,
    gamma_indicator_estimate,
    geometric_family_ratio,
    refine_weights_coordinate_descent,
    report_values,
    two_point_constant,
    variant_estimates,
    frac_str,
    json_value,
)

FLOAT_TOL = 1e-9


class InstanceRejected(ValueError):
    """A lemma's hypothesis fails for the given instance; not a counterexample."""


@dataclass(frozen=True)
class Verdict:
    law: str
    holds: bool
    margin: Fraction | int | float | None
    inputs: dict
    counterexample: Optional[dict] = None
    note: str = ""

    def to_json_dict(self) -> dict:
        return json_value(self)


def _pts(A: PointSet | Sequence[Vec]) -> list[list[int]]:
    pts = A.points if isinstance(A, PointSet) else A
    return [list(p) for p in pts]


def _normalized_free(V: PointSet) -> tuple[Vec, ...]:
    d = V.context.free_rank
    mins = [min(p[i] for p in V.points) for i in range(d)]
    return tuple(
        tuple(p[i] - mins[i] for i in range(d)) for p in V.points
    )


_SCAN_CACHE: dict[tuple, bitscan.ExhaustiveBetaScan] = {}


def _get_scan(dims: tuple[int, ...], max_card: int) -> bitscan.ExhaustiveBetaScan:
    key = (dims, max_card)
    if key not in _SCAN_CACHE:
        _SCAN_CACHE[key] = bitscan.build_scan(dims, max_card)
    return _SCAN_CACHE[key]


def check_quasicube_beta(V: PointSet, cfg: SearchConfig, threads: int = 1) -> Verdict:
    """Every scanned pair satisfies |A+B+V|^2 >= |V|^2 |A||B| exactly, with
    equality attained at singletons; the scanned minimum of the squared
    ratio is therefore exactly |V|^2.  The margin is that minimum less
    |V|^2, and a counterexample names the A, B and V that attain it.

    Inputs the bit scan refuses go to beta_estimate, which raises ValueError
    when cut at the node ceiling.  `threads` is kept for compatibility and
    has no effect: the scan is sequential."""
    if cfg.strategy != "exhaustive" or Fraction(cfg.p) != 2:
        raise ValueError("requires an exhaustive p=2 configuration")
    if not V.points:
        raise ValueError("V must be nonempty")
    ctx = V.context
    dims = tuple(hi - lo + 1 for lo, hi in cfg.box)
    v_free = _normalized_free(V)
    # beta_estimate decides what the bit scan cannot: torsion, other ranks, wide boxes or V's
    if ctx.is_torsion_free and ctx.free_rank == len(dims) and bitscan.unsupported(dims, v_free) is None:
        scan = _get_scan(dims, cfg.max_cardinality)
        res = bitscan.verify_subset_beta(scan, v_free)
        holds = res["holds"]
        if holds:
            margin = Fraction(0)
        else:  # A, B and V in the scan's frame, anchored at the origin
            A, B, V_ce = (res["counterexample"][k] for k in ("A", "B", "V"))
            margin = Fraction(res["counterexample"]["slack"], len(A) * len(B))
        note = f"pairs={res['pair_count']} rechecked={res['checked_pairs']}"
    else:
        report = beta_estimate(V, cfg)
        if not report.complete:  # a window cut at the node ceiling proves nothing
            raise ValueError(f"beta scan cut at the node ceiling of {cfg.node_ceiling} pairs")
        A, B, V_ce = report.witness_a, report.witness_b, V
        margin = report.value_exact - len(V) ** 2
        holds = margin == 0
        note = ""
    return Verdict(
        law="quasicube_beta",
        holds=holds,
        margin=margin,
        inputs={"V": _pts(V), "config": cfg.echo()},
        counterexample=None if holds else {"A": _pts(A), "B": _pts(B), "V": _pts(V_ce)},
        note=note,
    )


def check_prekopa_discrete(V: PointSet, p: Fraction | int, cfg: SearchConfig) -> Verdict:
    """Scanned ratios at exponent p stay >= c_p^d |V| (float tolerance).
    p is an int or a Fraction, as SearchConfig takes it, so the scan and the
    bound use one exponent."""
    d = dimension(V)
    report = beta_estimate(V, replace(cfg, p=p))
    bound = c_p_constant(float(p)) ** d * len(V)
    margin = report.value_float - bound
    return Verdict(
        law="prekopa_discrete",
        holds=margin >= -FLOAT_TOL,
        margin=margin,
        inputs={"V": _pts(V), "p": str(p), "config": cfg.echo()},
        counterexample=None if margin >= -FLOAT_TOL else {
            "A": _pts(report.witness_a), "B": _pts(report.witness_b),
        },
    )


def check_bm_corollary(U: PointSet, A: PointSet, B: PointSet) -> Verdict:
    """|A+B+U|^(1/d) >= (|U|/2^d)(|A|^(1/d)+|B|^(1/d)); exact via d-th
    powers when |U| = 2^d and d <= 2, float with tolerance otherwise."""
    d = dimension(U)
    if d == 0:
        raise ValueError("requires dim U >= 1")
    n = len(sumset(sumset(A, B), U))
    a, b, u = len(A), len(B), len(U)
    inputs = {"U": _pts(U), "A": _pts(A), "B": _pts(B)}
    if u == 2**d and d <= 2:
        if d == 1:
            slack = n - (a + b)
            holds = slack >= 0
        else:
            # n^(1/2) >= a^(1/2)+b^(1/2)  <=>  n >= a+b and (n-a-b)^2 >= 4ab
            holds = n >= a + b and (n - a - b) ** 2 >= 4 * a * b
            slack = (n - a - b) ** 2 - 4 * a * b if n >= a + b else -1
        return Verdict("bm_corollary", holds, slack, inputs, note="exact")
    lhs = n ** (1.0 / d)
    rhs = (u / 2**d) * (a ** (1.0 / d) + b ** (1.0 / d))
    margin = lhs - rhs
    return Verdict("bm_corollary", margin >= -FLOAT_TOL, margin, inputs, note="float")


def check_petridis_instance(X: PointSet, Y: PointSet, Z: PointSet) -> Verdict:
    """|X+Y+Z| |X| <= |X+Y| |X+Z| whenever X minimizes |X'+Y|/|X'| among
    its own nonempty subsets.  Non-qualifying instances are rejected."""
    if len(X) > 6:
        raise ValueError("precondition enumeration capped at |X| <= 6")
    nxy = len(sumset(X, Y))
    for Xp in X.subsets():
        if len(sumset(Xp, Y)) * len(X) < nxy * len(Xp):
            raise InstanceRejected("X is not subset-minimal for |X'+Y|/|X'|")
    lhs = len(sumset(sumset(X, Y), Z)) * len(X)
    rhs = nxy * len(sumset(X, Z))
    return Verdict(
        law="petridis",
        holds=lhs <= rhs,
        margin=rhs - lhs,
        inputs={"X": _pts(X), "Y": _pts(Y), "Z": _pts(Z)},
        counterexample=None if lhs <= rhs else {"lhs": lhs, "rhs": rhs},
    )


def petridis_qualify(X: PointSet, Y: PointSet) -> PointSet:
    """Replace X by a nonempty subset minimizing |X'+Y|/|X'| (first in
    canonical order among minimizers), which always qualifies."""
    best = None
    best_key = None
    for Xp in X.subsets():
        key = (len(sumset(Xp, Y)), len(Xp))
        if best_key is None or key[0] * best_key[1] < best_key[0] * key[1]:
            best, best_key = Xp, key
    assert best is not None
    return best


def check_plunnecke(X: PointSet, Y: PointSet, k: int) -> Verdict:
    """Some nonempty X' <= X has |X'+kY| |X|^k <= |X+Y|^k |X'| exactly."""
    if len(X) > 12:
        raise ValueError("subset enumeration capped at |X| <= 12")
    if k < 1:
        raise ValueError("k must be >= 1")
    kY = iterated_sumset(Y, k)
    nxy = len(sumset(X, Y))
    nx = len(X)
    witness = None
    slack = None
    # try X' = X first: it is usually the witness and allows early exit
    candidates = itertools.chain([X], X.subsets())
    for Xp in candidates:
        lhs = len(sumset(Xp, kY)) * nx**k
        rhs = nxy**k * len(Xp)
        if lhs <= rhs:
            witness = Xp
            slack = rhs - lhs
            break
    holds = witness is not None
    return Verdict(
        law="plunnecke",
        holds=holds,
        margin=slack,
        inputs={"X": _pts(X), "Y": _pts(Y), "k": k},
        counterexample=None if holds else {"note": "no qualifying subset"},
        note="" if not holds else f"witness_size={len(witness)}",
    )


def check_compression_shrinks(A: PointSet, B: PointSet, coord: int) -> Verdict:
    """C(A)+C(B) is contained in C(A+B), and |C(A)| = |A|."""
    CA, CB = compress(A, coord), compress(B, coord)
    CAB = compress(sumset(A, B), coord)
    lhs = sumset(CA, CB)
    holds = lhs.is_subset(CAB) and len(CA) == len(A) and len(CB) == len(B)
    return Verdict(
        law="compression_shrinks",
        holds=holds,
        margin=len(CAB) - len(lhs),
        inputs={"A": _pts(A), "B": _pts(B)},
        counterexample=None if holds else {
            "C(A)+C(B)": _pts(lhs), "C(A+B)": _pts(CAB),
        },
    )


def _replays(r: EstimateReport, num: Fraction | int) -> bool:
    """The report's values are those of its witness pair with this
    numerator, recomputed by an oracle."""
    return (r.value_float, r.value_exact) == report_values(num, len(r.witness_a), len(r.witness_b), r.p)


def check_beta_is_gamma(U: PointSet, p: Fraction, cfg: SearchConfig) -> Verdict:
    """beta and gamma estimates agree exactly on matched indicator windows,
    and each report replays exactly from its witness through its own oracle:
    beta's through groups.sumset, gamma's through functional.max_convolve.
    Both scans run on the one pair kernel, so without the replays the law
    would compare that kernel with itself."""
    cfgp = replace(cfg, p=p)  # SearchConfig rejects a float p
    f = WeightedFunction.indicator(U)
    rb = beta_estimate(U, cfgp)
    rg = gamma_indicator_estimate(f, cfgp)
    if Fraction(p) == 2:
        agree = rb.value_exact == rg.value_exact
        margin = rg.value_exact - rb.value_exact
    else:
        margin = rg.value_float - rb.value_float
        agree = abs(margin) <= FLOAT_TOL
    ctx = U.context
    A, B = PointSet.of(ctx, rb.witness_a), PointSet.of(ctx, rb.witness_b)
    ga, gb = (WeightedFunction.indicator(PointSet.of(ctx, w)) for w in (rg.witness_a, rg.witness_b))
    replayed = {
        "beta": _replays(rb, len(sumset(sumset(A, B), U))),
        "gamma": _replays(rg, l1_norm(max_convolve(max_convolve(f, ga), gb))),
    }
    holds = agree and all(replayed.values())
    return Verdict(
        law="beta_is_gamma",
        holds=holds,
        margin=margin,
        inputs={"U": _pts(U), "p": frac_str(Fraction(p)), "config": cfg.echo()},
        counterexample=None if holds else {
            "beta_witness": [_pts(rb.witness_a), _pts(rb.witness_b)],
            "gamma_witness": [_pts(rg.witness_a), _pts(rg.witness_b)],
            "replayed": replayed,
        },
    )


def check_product_multiplicativity(
    U: PointSet, V: PointSet, cfg_u: SearchConfig, cfg_v: SearchConfig
) -> Verdict:
    """gamma-hat of the product indicator equals the product of the factor
    estimates, exactly at p=2, on the product of the matched windows."""
    if Fraction(cfg_u.p) != 2 or Fraction(cfg_v.p) != 2:
        raise ValueError("exact product check requires p = 2")
    ctx_u, ctx_v = U.context, V.context
    if not (ctx_u.is_torsion_free and ctx_v.is_torsion_free):
        raise ValueError("torsion-free factors only")
    ctx = GroupContext(ctx_u.free_rank + ctx_v.free_rank)
    prod = PointSet.of(ctx, [p + q for p in U.points for q in V.points])
    cfg_prod = replace(
        cfg_u,
        box=cfg_u.box + cfg_v.box,
        max_cardinality=cfg_u.max_cardinality * cfg_v.max_cardinality,
    )
    ru = gamma_indicator_estimate(WeightedFunction.indicator(U), cfg_u)
    rv = gamma_indicator_estimate(WeightedFunction.indicator(V), cfg_v)
    rp = gamma_indicator_estimate(WeightedFunction.indicator(prod), cfg_prod)
    lhs = rp.value_exact
    rhs = ru.value_exact * rv.value_exact
    holds = lhs == rhs
    return Verdict(
        law="product_multiplicativity",
        holds=holds,
        margin=lhs - rhs,
        inputs={"U": _pts(U), "V": _pts(V), "config_u": cfg_u.echo(), "config_v": cfg_v.echo()},
        counterexample=None if holds else {
            "product_witness": [_pts(rp.witness_a), _pts(rp.witness_b)],
        },
    )


def check_tensorization(
    f: WeightedFunction,
    cfg_product: SearchConfig,
    cfg_base: SearchConfig,
    cfg_fiber: SearchConfig,
) -> Verdict:
    """Estimate version of the fiber inequality: collapse f along the first
    coordinate into f_phi(x) = gamma-hat of the fiber over x, then check
    gamma-hat(f) >= gamma-hat(f_phi) - tol on matched windows."""
    ctx = f.context
    if not ctx.is_torsion_free or ctx.free_rank < 2:
        raise ValueError("requires a torsion-free context of rank >= 2")
    fiber_ctx = GroupContext(ctx.free_rank - 1)
    base_ctx = GroupContext(1)
    fibers: dict[int, list] = {}
    for p, w in f.entries:
        fibers.setdefault(p[0], []).append((p[1:], w))
    fphi_entries = []
    for x, ent in sorted(fibers.items()):
        ff = WeightedFunction.of(fiber_ctx, ent)
        rf = gamma_indicator_estimate(ff, cfg_fiber)
        fphi_entries.append(((x,), rf.value_float))
    fphi = WeightedFunction.of(base_ctx, fphi_entries)
    r_full = gamma_indicator_estimate(f, cfg_product)
    r_base = gamma_indicator_estimate(fphi, cfg_base)
    margin = r_full.value_float - r_base.value_float
    return Verdict(
        law="tensorization",
        holds=margin >= -FLOAT_TOL,
        margin=margin,
        inputs={
            "f_support": _pts([p for p, _ in f.entries]),
            "config_product": cfg_product.echo(),
        },
        counterexample=None if margin >= -FLOAT_TOL else {
            "gamma_full": r_full.value_float, "gamma_base": r_base.value_float,
        },
    )


def check_trivial_lower_bounds(U: PointSet, cfg: SearchConfig) -> Verdict:
    """Scanned beta ratios >= 2 and alpha ratios >= 3/2, exactly; sets in a
    single torsion coset instead have every functional equal to 1."""
    if Fraction(cfg.p) != 2:
        raise ValueError("exact bounds require p = 2")
    inputs = {"U": _pts(U), "config": cfg.echo()}
    if dimension(U) == 0:
        rb = beta_estimate(U, cfg)
        ra = alpha_estimate(U, replace(cfg, max_cardinality=max(cfg.max_cardinality, len(U))))
        holds = rb.value_exact == 1 and ra.value_exact == 1
        return Verdict(
            "trivial_lower_bounds", holds, min(rb.value_exact, ra.value_exact) - 1,
            inputs, note="degenerate: single torsion coset, all functionals 1",
        )
    rb = beta_estimate(U, cfg)
    ra = alpha_estimate(U, replace(cfg, max_cardinality=max(cfg.max_cardinality, len(U) + 2)))
    beta_slack = rb.value_exact - 4  # squared ratio vs 2^2
    alpha_slack = ra.value_exact - Fraction(9, 4)  # squared ratio vs (3/2)^2
    holds = beta_slack >= 0 and alpha_slack >= 0
    return Verdict(
        "trivial_lower_bounds", holds, min(beta_slack, alpha_slack), inputs,
        counterexample=None if holds else {
            "beta_witness": [_pts(rb.witness_a), _pts(rb.witness_b)],
            "alpha_witness": [_pts(ra.witness_a), _pts(ra.witness_b)],
        },
    )


def check_independence_beta(U: PointSet, m: int, cfg: SearchConfig) -> Verdict:
    """beta-hat of m*U over the m-scaled window equals beta-hat of U: the
    estimate does not depend on the ambient subgroup the set spans."""
    ctx = U.context
    if ctx.free_rank != 1 or ctx.torsion_moduli:
        raise ValueError("scaling check implemented on Z")
    if m < 1:
        raise ValueError("m must be >= 1")
    mU = PointSet.of(ctx, [(m * p[0],) for p in U.points])
    (lo, hi), = cfg.box
    cfg_m = replace(cfg, box=((m * lo, m * hi),))
    r1 = beta_estimate(U, cfg)
    r2 = beta_estimate(mU, cfg_m)
    if Fraction(cfg.p) == 2:
        holds = r1.value_exact == r2.value_exact
        margin = r2.value_exact - r1.value_exact
    else:
        margin = r2.value_float - r1.value_float
        holds = abs(margin) <= FLOAT_TOL
    return Verdict(
        "independence_beta", holds, margin,
        {"U": _pts(U), "m": m, "config": cfg.echo()},
        counterexample=None if holds else {
            "scaled_witness": [_pts(r2.witness_a), _pts(r2.witness_b)],
        },
    )


def check_basic_chains(U: PointSet, cfg: SearchConfig) -> Verdict:
    """Variant chains on matched windows: alpha <= isometric <= isomeric,
    same for beta; beta'' <= |U|; no beta ratio below dim(U)+1.

    Relations mixing different true infima (alpha <= beta, beta <= alpha^2)
    cannot be decided from upper estimates; observed values are recorded in
    the note as a no-counterexample-in-window statement only.
    """
    if Fraction(cfg.p) != 2:
        raise ValueError("exact chains require p = 2")
    d = dimension(U)
    betas, alphas = variant_estimates(U, cfg, max(cfg.max_cardinality, len(U) + 2))
    bx = [r.value_exact for r in betas]
    ax = [r.value_exact for r in alphas]
    chain_ok = bx[0] <= bx[1] <= bx[2] and ax[0] <= ax[1] <= ax[2]
    upper_ok = bx[2] <= Fraction(len(U) ** 2)
    lower_ok = bx[0] >= Fraction((d + 1) ** 2)
    holds = chain_ok and upper_ok and lower_ok
    observed = f"beta_sq={frac_str(bx[0])} alpha_sq={frac_str(ax[0])}"
    return Verdict(
        "basic_chains", holds,
        min(bx[0] - (d + 1) ** 2, Fraction(len(U) ** 2) - bx[2]),
        {"U": _pts(U), "config": cfg.echo()},
        counterexample=None if holds else {"beta_sq": [frac_str(x) for x in bx],
                                           "alpha_sq": [frac_str(x) for x in ax]},
        note=f"mixed-infima relations one-sided only; {observed}",
    )


def check_two_point(
    deltas: Sequence[float],
    ps: Sequence[float],
    r_max: int = 8,
    seed: int = 0,
    descent_starts: int = 1,
) -> Verdict:
    """(a) geometric-family ratios never drop below c_delta(p) - tol for
    r = s <= r_max (that they reach c_delta(p) as r = s grows is checked by
    acceptance criterion 2, not here); (b) seeded coordinate-descent
    minimization with g, h supported on {0, ..., 4} never drops below
    c_delta(p) - 1e-6; (c) c_delta(p) >= c_p (1+delta) - tol."""
    if r_max < 0 or not deltas or not ps:  # no ratio to check: the margin would be inf
        raise ValueError(f"two_point needs a delta, a p and r_max >= 0, got r_max = {r_max}")
    rng = random.Random(seed)
    ctx = GroupContext(1)
    min_margin = float("inf")
    bad = None
    for delta in deltas:
        for p in ps:
            c = two_point_constant(float(delta), float(p))
            for r in range(r_max + 1):
                margin = geometric_family_ratio(float(delta), float(p), r, r) - c
                if margin < min_margin:
                    min_margin = margin
                if margin < -FLOAT_TOL:
                    bad = {"delta": delta, "p": p, "r": r, "margin": margin}
            cp_margin = c - c_p_constant(float(p)) * (1 + float(delta))
            if cp_margin < -FLOAT_TOL:
                bad = {"delta": delta, "p": p, "minimizer_margin": cp_margin}
            if delta > 0 and descent_starts > 0:
                f = WeightedFunction.of(ctx, [((0,), 1.0), ((1,), float(delta))])
                supp = [(i,) for i in range(5)]
                for _ in range(descent_starts):
                    init_g = [rng.uniform(0.1, 1.0) for _ in supp]
                    init_h = [rng.uniform(0.1, 1.0) for _ in supp]
                    val = refine_weights_coordinate_descent(
                        f, supp, supp, float(p), init_g, init_h, max_sweeps=12
                    )
                    if val - c < -1e-6:
                        bad = {"delta": delta, "p": p, "descent": val, "c": c}
    return Verdict(
        "two_point", bad is None, min_margin,
        {"deltas": list(deltas), "ps": [str(p) for p in ps], "r_max": r_max, "seed": seed},
        counterexample=bad,
    )


def check_freiman(A: PointSet) -> Verdict:
    """|A+A| >= (d+1)|A| - d(d+1)/2 with d = dim(A), exactly."""
    d = dimension(A)
    lhs = len(sumset(A, A))
    rhs = (d + 1) * len(A) - d * (d + 1) // 2
    return Verdict(
        "freiman", lhs >= rhs, lhs - rhs, {"A": _pts(A), "dim": d},
        counterexample=None if lhs >= rhs else {"|A+A|": lhs, "bound": rhs},
    )


# --- seeded suites ----------------------------------------------------------


def _random_set(rng: random.Random, ctx: GroupContext, box: int, size: int) -> PointSet:
    pts = set()
    while len(pts) < size:
        pts.add(tuple(rng.randint(0, box) for _ in range(ctx.arity)))
    return PointSet.of(ctx, pts)


def quasicube_corpus() -> list[PointSet]:
    """25 seeded quasicubes of dimension 1 and 2 (alternating with the seed),
    with shifts drawn from [-3, 3]."""
    out = []
    for seed in range(25):
        depth = (seed % 2) + 1
        rng = random.Random(seed)
        out.append(make_quasicube(random_spec(depth, 3, rng)))
    return out


def suite_quasicube(seed: int = 0) -> list[Verdict]:
    """Exhaustive tripling verification for every subset of 25 seeded
    quasicubes of dimension <= 2, over the box [-2,3]^d at cardinality 4."""
    verdicts_by_key: dict[tuple, Verdict] = {}
    for U in quasicube_corpus():
        d = U.context.free_rank
        cfg = SearchConfig(box=((-2, 3),) * d, max_cardinality=4)
        for V in U.subsets():
            key = (d, _normalized_free(V))
            if key not in verdicts_by_key:
                verdicts_by_key[key] = check_quasicube_beta(V, cfg)
    return [verdicts_by_key[k] for k in sorted(verdicts_by_key, key=lambda k: (k[0], len(k[1]), k[1]))]


def suite_rearrangement(seed: int = 0) -> list[Verdict]:
    """200 seeded random triples: the nonincreasing arrangement attains the
    brute-force minimum of ||f*g*h||_1 over all permutation triples.

    Supports are (translated) intervals: the minimum-at-nonincreasing
    property genuinely fails on supports with gaps, where the sumset of
    support prefixes can fall short of the prefix-length count."""
    rng = random.Random(seed)
    ctx = GroupContext(1)
    out = []
    for i in range(200):
        fns = []
        for _ in range(3):
            size = rng.randint(1, 4)
            start = rng.randint(0, 2)
            fns.append(WeightedFunction.of(
                ctx,
                [((start + x,), Fraction(rng.randint(16, 256), 16)) for x in range(size)],
            ))
        f, g, h = fns
        mn, _ = min_over_permutations(f, g, h)
        fr, gr, hr = (rearrange_nonincreasing(x) for x in (f, g, h))
        val = l1_norm(max_convolve(max_convolve(fr, gr), hr))
        holds = val == mn
        out.append(Verdict(
            "rearrangement", holds, val - mn,
            {"instance": i, "seed": seed,
             "supports": [_pts([p for p, _ in fn.entries]) for fn in fns]},
            counterexample=None if holds else {"nonincreasing": str(val), "min": str(mn)},
        ))
    return out


def suite_compression(seed: int = 0) -> list[Verdict]:
    """500 seeded random pairs in [0,4]^2, compressed along each axis."""
    rng = random.Random(seed)
    ctx = GroupContext(2)
    out = []
    for i in range(500):
        A = _random_set(rng, ctx, 4, rng.randint(1, 6))
        B = _random_set(rng, ctx, 4, rng.randint(1, 6))
        v = check_compression_shrinks(A, B, i % 2)
        out.append(replace(v, inputs={**v.inputs, "instance": i, "axis": i % 2}))
    return out


def suite_petridis_plunnecke(seed: int = 0) -> list[Verdict]:
    """200 qualifying instances of each lemma over boxes [0,6], k <= 3."""
    rng = random.Random(seed)
    ctx = GroupContext(1)
    out = []
    for i in range(200):
        X = _random_set(rng, ctx, 6, rng.randint(1, 5))
        Y = _random_set(rng, ctx, 6, rng.randint(1, 4))
        Z = _random_set(rng, ctx, 6, rng.randint(1, 4))
        Xq = petridis_qualify(X, Y)
        v = check_petridis_instance(Xq, Y, Z)
        out.append(replace(v, inputs={**v.inputs, "instance": i}))
    for i in range(200):
        X = _random_set(rng, ctx, 6, rng.randint(1, 7))
        Y = _random_set(rng, ctx, 6, rng.randint(1, 4))
        k = rng.randint(1, 3)
        v = check_plunnecke(X, Y, k)
        out.append(replace(v, inputs={**v.inputs, "instance": i}))
    return out


def suite_beta_gamma(seed: int = 0) -> list[Verdict]:
    """Equivalence and multiplicativity instances on matched windows."""
    z1 = GroupContext(1)
    z2 = GroupContext(2)
    cfg1 = SearchConfig(box=((-1, 2),), max_cardinality=3)
    cfg2 = SearchConfig(box=((-1, 1), (-1, 1)), max_cardinality=3)
    out = []
    for U in (PointSet.of(z1, [(0,), (1,)]),
              PointSet.of(z1, [(0,), (1,), (2,)]),
              PointSet.of(z2, [(0, 0), (1, 0), (0, 1), (1, 1)])):
        cfg = cfg1 if U.context == z1 else cfg2
        out.append(check_beta_is_gamma(U, Fraction(2), cfg))
    U = PointSet.of(z1, [(0,), (1,)])
    V = PointSet.of(z1, [(0,), (1,)])
    cfg_f = SearchConfig(box=((0, 1),), max_cardinality=2)
    out.append(check_product_multiplicativity(U, V, cfg_f, cfg_f))
    f = WeightedFunction.indicator(PointSet.of(z2, [(0, 0), (1, 0), (0, 1), (1, 1)]))
    out.append(check_tensorization(
        f,
        SearchConfig(box=((0, 1), (0, 1)), max_cardinality=4),
        SearchConfig(box=((0, 1),), max_cardinality=2),
        SearchConfig(box=((0, 1),), max_cardinality=2),
    ))
    return out


def suite_independence(seed: int = 0) -> list[Verdict]:
    ctx = GroupContext(1)
    cfg = SearchConfig(box=((-2, 3),), max_cardinality=4)
    out = []
    for m in (1, 2, 3):
        U = PointSet.of(ctx, [(0,), (1,)])
        out.append(check_independence_beta(U, m, cfg))
    out.append(check_independence_beta(PointSet.of(ctx, [(0,), (1,), (3,)]), 3, cfg))
    return out


def suite_trivial_freiman(seed: int = 0) -> list[Verdict]:
    """Trivial lower bounds on the ten smallest 1-dimensional sets, plus 500
    random Freiman instances."""
    ctx = GroupContext(1)
    out = []
    smallest = [
        s for s in canonical_subsets(ctx, ((0, 5),), 3) if len(s) >= 2
    ][:10]
    for pts in smallest:
        U = PointSet.of(ctx, pts)
        cfg = SearchConfig(box=((-2, max(p[0] for p in pts) + 2),), max_cardinality=4)
        out.append(check_trivial_lower_bounds(U, cfg))
    rng = random.Random(seed)
    ctx2 = GroupContext(2)
    for i in range(500):
        A = _random_set(rng, ctx2, 4, rng.randint(1, 8))
        v = check_freiman(A)
        out.append(replace(v, inputs={**v.inputs, "instance": i}))
    return out


def suite_two_point(seed: int = 0) -> list[Verdict]:
    deltas = [i / 10 for i in range(11)]
    return [check_two_point(deltas, [2.0, 1.5, 3.0], r_max=8, seed=seed)]


def suite_chains(seed: int = 0) -> list[Verdict]:
    ctx1, ctx2 = GroupContext(1), GroupContext(2)
    out = []
    cfg1 = SearchConfig(box=((-1, 2),), max_cardinality=4)
    cfg2 = SearchConfig(box=((-1, 1), (-1, 1)), max_cardinality=4)
    for U in (PointSet.of(ctx1, [(0,), (1,)]),
              PointSet.of(ctx1, [(0,)]),
              PointSet.of(ctx2, [(0, 0), (1, 0), (0, 1), (1, 1)])):
        out.append(check_basic_chains(U, cfg1 if U.context == ctx1 else cfg2))
    trap = PointSet.of(ctx2, [(0, 0), (1, 0), (0, 1), (3, 1)])
    A = PointSet.of(ctx2, [(x, y) for x in range(3) for y in range(3)])
    out.append(check_bm_corollary(trap, A, A))
    out.append(check_prekopa_discrete(
        PointSet.of(ctx1, [(0,), (1,)]), Fraction(3), SearchConfig(box=((-1, 2),), max_cardinality=3, p=Fraction(3)),
    ))
    return out


SUITES: dict[str, Callable[..., list[Verdict]]] = {
    "quasicube": suite_quasicube,
    "rearrangement": suite_rearrangement,
    "compression": suite_compression,
    "petridis_plunnecke": suite_petridis_plunnecke,
    "beta_gamma": suite_beta_gamma,
    "independence": suite_independence,
    "trivial_freiman": suite_trivial_freiman,
    "two_point": suite_two_point,
    "chains": suite_chains,
}


def run_suite(name: str, seed: int = 0) -> list[Verdict]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    return SUITES[name](seed=seed)
