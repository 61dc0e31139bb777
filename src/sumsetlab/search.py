"""Witnessed upper-bound estimation of the doubling/tripling functionals.

The functionals are infima over all finite sets (or functions), so any
finite search yields an upper bound together with a witness; reports carry
the witness and are replayable: the reported value is recomputable from the
witness alone.  Exhaustive enumeration runs over canonical representatives
modulo translation (every target ratio is translation invariant), anchoring
the min-corner of each set at the box origin.  Every scan is one sequential
pass over the pairs in i-major order, evaluated in blocks of about
_BLOCK_PAIRS pairs.  Beta and alpha share one numpy kernel: once per scan,
every B+U is built on a boolean grid (torsion axes wrap by rolls), translated
by every offset a set uses and packed into uint64 words, so |A+B+U| of a
pair is the popcount of an OR of table rows.  A float log-ratio screens each
block, and only the pairs near its minimum reach the exact comparison.  Ties
break to the first minimising pair, so reports are deterministic.

Ratio comparisons at rational p = pa/pb are exact: with normalizer
|A|^(1/p) |B|^(1-1/p), compare s1^pa a2^pb b2^(pa-pb) against
s2^pa a1^pb b1^(pa-pb) in big integers.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass, fields, is_dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .functional import (
    WeightedFunction,
    holder_conjugate,
    l1_norm,
    max_convolve,
)
from .groups import GroupContext, PointSet, Vec, sumset

TOOL_VERSION = "0.1.0"
DEFAULT_NODE_CEILING = 5_000_000
NODE_CEILING_ENV = "SUMSETLAB_NODE_CEILING"

VARIANTS = ("unrestricted", "isometric", "isomeric")
STRATEGIES = ("exhaustive", "hill_climb", "geometric_family")
HILL_CLIMB_RESTARTS = 20
MAX_P_TERM = 1000  # the largest numerator or denominator of p a scan accepts
_BLOCK_PAIRS = 1 << 12  # about this many pairs per eval_pairs call of a scan
# a pair whose float log-ratio lies this far above the running minimum cannot
# be a first exact minimum; float rounding of a log-ratio is ~1e-14
_LOG_SLACK = 1e-9


def node_ceiling_default() -> int:
    env = os.environ.get(NODE_CEILING_ENV)
    if env is None:
        return DEFAULT_NODE_CEILING
    try:
        ceiling = int(env)
    except ValueError:
        raise ValueError(f"{NODE_CEILING_ENV} must be an integer, got {env!r}") from None
    if ceiling < 1:
        raise ValueError(f"{NODE_CEILING_ENV} must be >= 1, got {ceiling}")
    return ceiling


@dataclass(frozen=True)
class SearchConfig:
    box: tuple[tuple[int, int], ...]  # inclusive (lo, hi) per free coordinate
    max_cardinality: int
    p: Fraction = Fraction(2)
    variant: str = "unrestricted"
    strategy: str = "exhaustive"
    seed: int = 0
    # kept for compatibility: validated and echoed, but scans are sequential
    parallelism: int = 1
    node_ceiling: int | None = None
    geometric_max_r: int = 8

    def __post_init__(self) -> None:
        if self.max_cardinality < 1:
            raise ValueError("max_cardinality must be >= 1")
        if any(lo > hi for lo, hi in self.box):
            raise ValueError("box intervals must be nonempty")
        if isinstance(self.p, float):  # its exact Fraction has a 2^k denominator
            raise ValueError(f"p must be an int or a Fraction, not the float {self.p!r}")
        p = Fraction(self.p)
        if p <= 1:
            raise ValueError("p must exceed 1")
        if max(p.numerator, p.denominator) > MAX_P_TERM:  # compare_ratios raises to p.numerator
            raise ValueError(f"p = {self.p} has a numerator or denominator above {MAX_P_TERM}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.geometric_max_r < 0:  # else geometric_family reports inf on a witness that misses it
            raise ValueError("geometric_max_r must be >= 0")
        if self.node_ceiling is None:
            node_ceiling_default()  # a bad SUMSETLAB_NODE_CEILING fails here, not mid-scan
        elif self.node_ceiling < 1:
            raise ValueError("node_ceiling must be >= 1")

    @property
    def effective_node_ceiling(self) -> int:
        return self.node_ceiling if self.node_ceiling is not None else node_ceiling_default()

    def echo(self) -> dict:
        # p may be an int; node_ceiling None means the environment's ceiling
        return {
            **json_value(self),
            "p": frac_str(self.p),
            "node_ceiling": self.effective_node_ceiling,
        }


def frac_str(x: Fraction | int) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def json_value(x: object) -> object:
    """The JSON form of a report, verdict or config: a dataclass becomes the
    dict of its fields, a tuple or list a list and a Fraction "num/den",
    recursively; every other value is left as it is."""
    if is_dataclass(x):
        return {f.name: json_value(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, (tuple, list)):
        return [json_value(v) for v in x]
    if isinstance(x, dict):
        return {k: json_value(v) for k, v in x.items()}
    return x


@dataclass(frozen=True)
class EstimateReport:
    quantity: str
    p: Fraction
    variant: str
    value_float: float
    value_exact: Optional[Fraction]  # squared ratio at p=2
    witness_a: tuple[Vec, ...]
    witness_b: tuple[Vec, ...]
    nodes: int
    complete: bool
    config: dict
    tool_version: str = TOOL_VERSION

    def to_json_dict(self) -> dict:
        return json_value(self)


# --- exact ratio ordering ---------------------------------------------------


def compare_ratios(
    s1: Fraction | float, a1: int, b1: int, s2: Fraction | float, a2: int, b2: int, p: Fraction
) -> int:
    """Sign of s1/(a1^(1/p) b1^(1/q)) - s2/(a2^(1/p) b2^(1/q)), exactly."""
    p = Fraction(p)
    pa, pb = p.numerator, p.denominator
    lhs = s1**pa * a2**pb * b2 ** (pa - pb)
    rhs = s2**pa * a1**pb * b1 ** (pa - pb)
    return (lhs > rhs) - (lhs < rhs)


def ratio_float(s: Fraction | float, a: int, b: int, p: Fraction) -> float:
    invp = 1.0 / float(p)
    return s / (a**invp * b ** (1.0 - invp))


# --- canonical enumeration --------------------------------------------------


def box_points(ctx: GroupContext, box: Sequence[tuple[int, int]]) -> list[Vec]:
    """All group elements whose free part lies in the box (torsion full)."""
    if len(box) != ctx.free_rank:
        raise ValueError("box arity does not match the free rank")
    free_ranges = [range(lo, hi + 1) for lo, hi in box]
    tors_ranges = [range(m) for m in ctx.torsion_moduli]
    pts = [
        tuple(f) + tuple(t)
        for f in itertools.product(*free_ranges)
        for t in itertools.product(*tors_ranges)
    ]
    return sorted(pts, key=ctx.sort_key)


def canonical_subsets(
    ctx: GroupContext, box: Sequence[tuple[int, int]], max_card: int
) -> list[tuple[Vec, ...]]:
    """Subsets of the box, min-corner anchored at the box origin, sorted.

    These are representatives of box subsets modulo free translation.  Each
    box point carries the bitmask of the free axes on which it sits at the
    box's low end; a set is anchored iff the OR of its points' masks is full
    (with free rank 0 every mask and the full mask are 0, so every set is).
    The sets are built point by point in combination order, carrying the OR
    of the prefix."""
    pts = box_points(ctx, box)
    d = ctx.free_rank
    full = (1 << d) - 1
    low = [sum(1 << i for i in range(d) if q[i] == box[i][0]) for q in pts]
    n = len(pts)
    out: list[tuple[Vec, ...]] = []

    def extend(prefix: tuple[Vec, ...], mask: int, start: int, k: int) -> None:
        if k == 1:  # the last point: keep the sets whose mask is full
            out.extend([prefix + (pts[j],) for j in range(start, n) if mask | low[j] == full])
            return
        for j in range(start, n - k + 1):
            extend(prefix + (pts[j],), mask | low[j], j + 1, k - 1)

    for k in range(1, max_card + 1):
        extend((), 0, 0, k)
    out.sort()
    return out


def _first_minimum(
    sets: Sequence[tuple[Vec, ...]],
    cfg: SearchConfig,
    quantity: str,
    eval_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> EstimateReport:
    """Scan the pairs of `sets` in i-major order, up to the node ceiling, and
    report the first strict minimum of the ratio key (numerator, |A|, |B|).

    Row i pairs A_i with every B_j, with B_i alone (isomeric) or with the
    B_j of equal size (isometric).  The stream of rows is cut at the ceiling,
    mid-row if need be, and complete is False exactly when a pair beyond it
    was left unevaluated.  The stream is evaluated in blocks of about
    _BLOCK_PAIRS pairs: eval_pairs(I, J) returns the numerators of the pairs
    (I[k], J[k]) as an array (int counts, floats for numeric-mode gamma,
    Fractions as objects).  A float log-ratio screens each block: only the
    pairs within _LOG_SLACK of the lower of the block's minimum and the best
    so far go, in stream order, through the exact compare_ratios, which
    keeps the first strict minimum.  The first exact minimum of the whole
    stream always passes the screen, so it is the pair reported.  A float
    numerator has no exact value."""
    p = Fraction(cfg.p)
    n = len(sets)
    sizes = np.array([len(s) for s in sets])
    # row i pairs A_i with B_j for j in members[base[i]:base[i] + length[i]]
    if cfg.variant == "isometric":
        members = np.argsort(sizes, kind="stable")  # by size, then index
        base = np.searchsorted(sizes[members], sizes, "left")
        length = np.bincount(sizes)[sizes]
    elif cfg.variant == "isomeric":
        members, base, length = np.arange(n), np.arange(n), np.ones(n, dtype=np.intp)
    else:
        members, base, length = np.arange(n), np.zeros(n, dtype=np.intp), np.full(n, n)
    row_end = np.cumsum(length)
    # the pair at stream position t of row i is (i, members[t + to_member[i]])
    to_member = base - (row_end - length)
    total = int(row_end[-1])
    nodes = min(total, cfg.effective_node_ceiling)
    invp = 1.0 / float(p)
    log_size = np.log(sizes)
    size_of = sizes.tolist()
    best = None
    best_ij = (0, 0)
    best_r = math.inf
    for t0 in range(0, nodes, _BLOCK_PAIRS):
        t = np.arange(t0, min(t0 + _BLOCK_PAIRS, nodes))
        I = np.searchsorted(row_end, t, "right")
        J = members[t + to_member[I]]
        nums = eval_pairs(I, J)
        r = np.log(nums.astype(float)) - log_size[I] * invp - log_size[J] * (1.0 - invp)
        cand = np.flatnonzero(r <= min(float(r.min()), best_r) + _LOG_SLACK)
        picked = zip(cand.tolist(), nums[cand].tolist(), I[cand].tolist(), J[cand].tolist())
        for k, s, i, j in picked:
            key = (s, size_of[i], size_of[j])
            # an equal key never compares strictly less
            if best is None or (key != best and compare_ratios(*key, *best, p) < 0):
                best, best_ij, best_r = key, (i, j), float(r[k])
    assert best is not None
    i, j = best_ij
    return _report(quantity, cfg, best, sets[i], sets[j], nodes, total <= nodes)


def _report(
    quantity: str,
    cfg: SearchConfig,
    key: tuple,
    witness_a: tuple[Vec, ...],
    witness_b: tuple[Vec, ...],
    nodes: int,
    complete: bool,
) -> EstimateReport:
    """The report of a scan's best ratio key (numerator, |A|, |B|): the
    squared ratio is exact at p = 2 unless the numerator is a float."""
    s, a, b = key
    p = Fraction(cfg.p)
    exact = p == 2 and not isinstance(s, float)
    return EstimateReport(
        quantity, p, cfg.variant, ratio_float(s, a, b, p),
        Fraction(s) * s / (a * b) if exact else None,
        witness_a, witness_b, nodes, complete, cfg.echo(),
    )


def _scan_pairs(
    sets: list[tuple[Vec, ...]],
    U: Optional[PointSet],
    ctx: GroupContext,
    cfg: SearchConfig,
    quantity: str,
) -> EstimateReport:
    """Shared exhaustive pair scan for alpha (U folded into the candidate
    sets already, so A+B+{0} is scanned) and beta (U added to every pair sum).

    The sets lie on one boolean grid of shape (n, *free extents, *torsion
    moduli), each free axis ext + 1 cells wide from the sets' common min.
    Translating by a point shifts the free axes into a zero-padded wider
    grid and rolls the torsion axes (the fold modulo m).  B+U is
    ext + ext(U) + 1 cells wide per free axis and A+B+U 2*ext + ext(U) + 1,
    so sums never wrap.

    A+B+U is the union over q in A of q + B + U.  So the scan builds one
    table: every B_j + U translated by every offset q that a set uses, each
    packed into W = ceil(cells(A+B+U) / 64) uint64 words, at row
    (index of q) * n + j.  That is Q * n * W * 8 bytes for Q offsets.  Row i
    of `slot` holds the row offsets of A_i's points, padded with its first
    (OR-ing the same row twice changes nothing), so the numerator of (i, j)
    is the popcount of the OR of table[slot[i] + j]: a block of pairs is a
    few row gathers, ORs and one popcount."""
    d = ctx.free_rank
    upoints = U.points if U is not None else (ctx.zero(),)

    def span(points: Sequence[Vec]) -> tuple[list[int], list[int]]:
        lo = [min(q[k] for q in points) for k in range(d)]
        return lo, [max(q[k] for q in points) - lo[k] for k in range(d)]

    def offsets(points: Sequence[Vec], lo: Sequence[int]) -> list[Vec]:
        return [tuple(q[k] - lo[k] for k in range(d)) + q[d:] for q in points]

    lo, ext = span([q for s in sets for q in s])
    ulo, uext = span(upoints)
    set_offsets = [offsets(s, lo) for s in sets]
    n = len(sets)
    grid = np.zeros((n, *(e + 1 for e in ext), *ctx.torsion_moduli), dtype=bool)
    grid[tuple(np.array([(i, *q) for i, qs in enumerate(set_offsets) for q in qs]).T)] = True
    bu_shape = [e + ue + 1 for e, ue in zip(ext, uext)] + list(ctx.torsion_moduli)
    abu_shape = [2 * e + ue + 1 for e, ue in zip(ext, uext)] + list(ctx.torsion_moduli)
    torsion_axes = tuple(range(1 + d, 1 + ctx.arity))

    def translate_into(out: np.ndarray, src: np.ndarray, q: Vec) -> None:
        """out |= src translated by q, which fits out's free axes."""
        if any(q[d:]):
            src = np.roll(src, q[d:], axis=torsion_axes)
        out[(slice(None),) + tuple(slice(q[k], q[k] + src.shape[1 + k]) for k in range(d))] |= src

    bu = np.zeros((n, *bu_shape), dtype=bool)
    for q in offsets(upoints, ulo):
        translate_into(bu, grid, q)
    shifts = sorted({q for qs in set_offsets for q in qs})
    row_of = {q: k * n for k, q in enumerate(shifts)}
    cells = math.prod(abu_shape)
    table = np.zeros((len(shifts) * n, -(-cells // 64)), dtype=np.uint64)
    packed = table.view(np.uint8).reshape(len(shifts), n, -1)
    for k, q in enumerate(shifts):
        abu = np.zeros((n, *abu_shape), dtype=bool)
        translate_into(abu, bu, q)
        packed[k, :, : -(-cells // 8)] = np.packbits(abu.reshape(n, cells), axis=1)
    del grid, bu
    width = max(len(qs) for qs in set_offsets)
    slot = np.array([[row_of[q] for q in qs] + [row_of[qs[0]]] * (width - len(qs))
                     for qs in set_offsets], dtype=np.intp)

    def eval_pairs(I: np.ndarray, J: np.ndarray) -> np.ndarray:
        acc = table[slot[I, 0] + J]
        for k in range(1, width):
            acc |= table[slot[I, k] + J]
        return np.bitwise_count(acc).sum(axis=1, dtype=np.int64)

    return _first_minimum(sets, cfg, quantity, eval_pairs)


def _require_strategy(cfg: SearchConfig, quantity: str, runs: tuple[str, ...]) -> None:
    # a report must not name a strategy that never ran
    if cfg.strategy not in runs:
        raise ValueError(f"{quantity} estimates have no {cfg.strategy} strategy")


def beta_estimate(U: PointSet, cfg: SearchConfig) -> EstimateReport:
    """Upper bound on beta_p(U): min over enumerated (A, B) of
    |A+B+U| / (|A|^(1/p) |B|^(1-1/p)), canonical modulo translation."""
    if not U.points:
        raise ValueError("U must be nonempty")
    _require_strategy(cfg, "beta", ("exhaustive", "hill_climb"))
    ctx = U.context
    if cfg.strategy == "hill_climb":
        return _beta_hill_climb(U, cfg)
    sets = canonical_subsets(ctx, cfg.box, cfg.max_cardinality)
    return _scan_pairs(sets, U, ctx, cfg, "beta")


def alpha_estimate(U: PointSet, cfg: SearchConfig) -> EstimateReport:
    """Upper bound on alpha(U): min over enumerated A, B containing U of
    |A+B| / (|A|^(1/p) |B|^(1-1/p))."""
    if not U.points:
        raise ValueError("U must be nonempty")
    _require_strategy(cfg, "alpha", ("exhaustive",))
    ctx = U.context
    pts = box_points(ctx, cfg.box)
    upts = set(U.points)
    if not upts <= set(pts):
        raise ValueError("U must lie inside the search box for alpha")
    extra = [q for q in pts if q not in upts]
    room = cfg.max_cardinality - len(U)
    if room < 0:
        raise ValueError("max_cardinality below |U|")
    sets = []
    for k in range(0, room + 1):
        for combo in itertools.combinations(extra, k):
            sets.append(tuple(sorted(U.points + combo)))
    sets.sort()
    return _scan_pairs(sets, None, ctx, cfg, "alpha")


def _beta_hill_climb(U: PointSet, cfg: SearchConfig) -> EstimateReport:
    """Seeded local search from HILL_CLIMB_RESTARTS random starts: add or
    remove one point of A or B, accept a strict ratio decrease.

    This is the slow strategy, kept as it is: each move builds `PointSet`s
    and calls `groups.sumset`, with no grid kernel.  It never certifies a
    window, so its reports always have complete = False."""
    ctx = U.context
    p = Fraction(cfg.p)
    rng = random.Random(cfg.seed)
    pts = box_points(ctx, cfg.box)
    nodes = 0

    def key_of(A: frozenset, B: frozenset) -> tuple[int, int, int]:
        SA = PointSet.of(ctx, A)
        SB = PointSet.of(ctx, B)
        return len(sumset(sumset(SA, SB), U)), len(A), len(B)

    best_key = None
    best_wit = None
    top = min(cfg.max_cardinality, len(pts))  # a sample cannot outgrow the box
    for _ in range(HILL_CLIMB_RESTARTS):
        A = frozenset(rng.sample(pts, rng.randint(1, top)))
        B = frozenset(rng.sample(pts, rng.randint(1, top)))
        if cfg.variant == "isomeric":
            B = A
        cur = key_of(A, B)
        nodes += 1
        improved = True
        while improved:
            improved = False
            for side in (0, 1):
                base = A if side == 0 else B
                moves = [base | {q} for q in pts if q not in base and len(base) < cfg.max_cardinality]
                moves += [base - {q} for q in base if len(base) > 1]
                for cand in moves:
                    na, nb = (cand, B) if side == 0 else (A, cand)
                    if cfg.variant == "isomeric":
                        na = nb = cand
                    if cfg.variant == "isometric" and len(na) != len(nb):
                        continue
                    k = key_of(na, nb)
                    nodes += 1
                    if compare_ratios(*k, *cur, p) < 0:
                        A, B, cur = na, nb, k
                        improved = True
                        break
                if improved:
                    break
        if best_key is None or compare_ratios(*cur, *best_key, p) < 0:
            best_key = cur
            best_wit = (
                tuple(sorted(A, key=ctx.sort_key)),
                tuple(sorted(B, key=ctx.sort_key)),
            )
    assert best_key is not None and best_wit is not None
    # a heuristic search never certifies the window: complete is False
    return _report("beta", cfg, best_key, *best_wit, nodes, False)


# --- gamma ------------------------------------------------------------------


def gamma_indicator_estimate(f: WeightedFunction, cfg: SearchConfig) -> EstimateReport:
    """Min of ||f*1_A*1_B||_1 / (|A|^(1/p) |B|^(1/q)) over canonical box
    subsets, evaluated through the max-convolution machinery."""
    if not f.entries:
        raise ValueError("f must have nonempty support")
    ctx = f.context
    sets = canonical_subsets(ctx, cfg.box, cfg.max_cardinality)
    one = Fraction(1) if f.exact else 1.0
    indicators = [WeightedFunction.of(ctx, [(q, one) for q in s]) for s in sets]

    def eval_pairs(I: np.ndarray, J: np.ndarray) -> np.ndarray:
        nums = []
        last = -1
        for i, j in zip(I.tolist(), J.tolist()):
            if i != last:  # f*1_A serves the whole run of pairs with this A
                fa, last = max_convolve(f, indicators[i]), i
            num = l1_norm(max_convolve(fa, indicators[j]))
            nums.append(Fraction(num) if f.exact else num)
        return np.array(nums, dtype=object if f.exact else float)

    return _first_minimum(sets, cfg, "gamma", eval_pairs)


def _max_products(
    n: int, left: Sequence[float], right: Sequence[float], at: Sequence[Sequence[int]]
) -> list[float]:
    """out[at[l][k]] = the max over (k, l) of left[k] * right[l], over the
    positive right[l]; 0.0 at an index no product reaches.  Max is exact, so
    the order in which products arrive does not matter."""
    out = [0.0] * n
    for w, row in zip(right, at):
        if w > 0:
            for v, m in zip(left, row):
                u = v * w
                if u > out[m]:
                    out[m] = u
    return out


class FixedSupportGamma:
    """The gamma ratio on fixed supports, evaluate(gw, hw), as a function of
    the weights listed along support_g and support_h; see fixed_support_gamma.

    The sumset structure is built once: the canonical order of each support
    and the term lists fg_at[b][a], the index of f_a + g_b in the sorted key
    list of f*g, and fgh_at[l][k], the index of (f*g)_k + h_l in that of
    f*g*h.  A full evaluation forms the products (f_a.g_b).h_l through them,
    takes the max per key, and sums and normalises in canonical key order,
    as max_convolve, l1_norm and lp_norm do.  line(gw, hw, side, i) reads
    the same lists to give the ratio as a function of one weight alone."""

    def __init__(
        self,
        f: WeightedFunction,
        support_g: Sequence[Vec],
        support_h: Sequence[Vec],
        p: Fraction | float,
    ) -> None:
        ctx = f.context
        self.exps = (float(p), holder_conjugate(float(p)))
        self.fw = [float(w) for _, w in f.entries]

        def canonical(support: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
            keys = [ctx.reduce(x) for x in support]
            order = sorted(range(len(keys)), key=lambda k: ctx.sort_key(keys[k]))
            for a, b in zip(order, order[1:]):
                if keys[a] == keys[b]:
                    raise ValueError(f"duplicate support point {keys[a]}")
            slot = [0] * len(keys)  # slot[i]: canonical position of the i-th listed point
            for n, k in enumerate(order):
                slot[k] = n
            return [keys[k] for k in order], slot

        def key_index(xs: Sequence[Vec], ys: Sequence[Vec]) -> tuple[list[Vec], list[list[int]]]:
            keys = sorted({ctx.add(x, y) for x in xs for y in ys}, key=ctx.sort_key)
            where = {k: n for n, k in enumerate(keys)}
            return keys, [[where[ctx.add(x, y)] for x in xs] for y in ys]

        gpts, gslot = canonical(support_g)
        hpts, hslot = canonical(support_h)
        self.slots = (gslot, hslot)
        fg_keys, self.fg_at = key_index([x for x, _ in f.entries], gpts)
        fgh_keys, self.fgh_at = key_index(fg_keys, hpts)
        self.n_fg, self.n_fgh = len(fg_keys), len(fgh_keys)

    def _canonical(self, side: int, ws: Sequence[float]) -> list[float]:
        out = [0.0] * len(ws)
        for s, w in zip(self.slots[side], ws):
            w = float(w)
            out[s] = w if w > 0 else 0.0  # a weight that is not positive drops its point
        return out

    def _norm(self, side: int, ws: Sequence[float]) -> float:
        e = self.exps[side]
        return sum([w**e for w in ws if w > 0]) ** (1.0 / e)

    def _maxima(self, g: list[float], h: list[float]) -> tuple[list[float], list[float]]:
        fg = _max_products(self.n_fg, self.fw, g, self.fg_at)
        return fg, _max_products(self.n_fgh, fg, h, self.fgh_at)

    def _ratio(self, fgh: list[float], g: list[float], h: list[float]) -> float:
        if not any(g) or not any(h):
            return math.inf
        # Python's sum over Python floats, in key order, as l1_norm sums
        num = sum([w for w in fgh if w > 0])
        return num / (self._norm(0, g) * self._norm(1, h))

    def __call__(self, gw: Sequence[float], hw: Sequence[float]) -> float:
        g, h = self._canonical(0, gw), self._canonical(1, hw)
        return self._ratio(self._maxima(g, h)[1], g, h)

    def line(
        self, gw: Sequence[float], hw: Sequence[float], side: int, i: int
    ) -> Callable[[float], float]:
        """x -> self(gw, hw) with the i-th weight of side 0 (g) or 1 (h)
        set to x, bit for bit.

        Built once per line: the maxima of f*g*h over every term that does
        not involve the moving point, the other side's norm, and the value
        with the point dropped (x <= 0).  A call forms only the touched
        terms (c.x).s into their keys: (f_a.x).h_l for side 0, and
        (fg_k.x).1.0 == fg_k.x for side 1.  For side 0 the fixed maxima
        already hold fg_k.h_l with fg_k the max without the moving point;
        rounding is monotone, so max(fg_k, f_a.x).h_l == max(fg_k.h_l,
        (f_a.x).h_l) and the full max per key comes out.

        The numerator is one sum over the whole list of live keys in key
        order, and the moving side's norm one sum over its whole power list,
        never a stored partial sum plus a tail: from Python 3.12 a float sum
        is compensated, so only the same full list in the same order gives
        the same float.  A key no term reaches for any x stays off the list;
        a term that underflows to 0.0 stays on it, and adding 0.0 leaves a
        float sum, compensated or not, unchanged."""
        g, h = self._canonical(0, gw), self._canonical(1, hw)
        j = self.slots[side][i]
        mine, theirs = (g, h) if side == 0 else (h, g)
        mine[j] = 0.0
        fg, base = self._maxima(g, h)
        dropped = self._ratio(base, g, h)
        if not any(theirs):
            return lambda x: dropped  # inf: the other side keeps no point
        other = self._norm(1 - side, theirs)
        if side == 0:  # (m, c, s): key m gets (c.x).s
            terms = [(self.fgh_at[l][k], c, s) for c, k in zip(self.fw, self.fg_at[j])
                     for l, s in enumerate(h) if s > 0]
        else:
            terms = [(m, c, 1.0) for c, m in zip(fg, self.fgh_at[j]) if c > 0]
        live = sorted({m for m, w in enumerate(base) if w > 0} | {m for m, _, _ in terms})
        pos = {m: n for n, m in enumerate(live)}
        terms = [(pos[m], c, s) for m, c, s in terms]
        fixed = [base[m] for m in live]
        e = self.exps[side]
        inv_e = 1.0 / e
        powers = [w**e for w in mine[:j] if w > 0] + [0.0] + [w**e for w in mine[j + 1:] if w > 0]
        slot = sum(1 for w in mine[:j] if w > 0)

        def at(x: float) -> float:
            if not x > 0:
                return dropped
            vals = fixed[:]
            for n, c, s in terms:
                u = c * x * s
                if u > vals[n]:
                    vals[n] = u
            powers[slot] = x**e
            return sum(vals) / (sum(powers) ** inv_e * other)

        return at


def fixed_support_gamma(
    f: WeightedFunction,
    support_g: Sequence[Vec],
    support_h: Sequence[Vec],
    p: Fraction | float,
) -> FixedSupportGamma:
    """The gamma ratio on fixed supports as a function evaluate(gw, hw) of
    the weights listed along support_g and support_h, with evaluate.line for
    the ratio along one weight (FixedSupportGamma).

    evaluate(gw, hw) == gamma_ratio(ff, g, h, float(p)) bit for bit, where
    ff is f in float mode and g, h keep the positive weights (math.inf when
    either keeps none), and so is evaluate.line(gw, hw, side, i)(x) with
    the one weight set to x.  The term lists are built once; an evaluation
    keeps the products' association (f_a.g_b).h_l and sums in canonical key
    order, as max_convolve, l1_norm and lp_norm do."""
    return FixedSupportGamma(f, support_g, support_h, p)


_BRENT_XATOL = 1e-5  # SciPy's defaults for minimize_scalar(method="bounded")
_BRENT_MAXITER = 500


def _bounded_minimum(func: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """(x, func(x)) where Brent's bounded minimization of func on [lo, hi]
    stops (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 5): golden-section steps, parabolic where a parabola through
    the last three points is acceptable.

    A line-for-line port of SciPy's bounded method (_minimize_scalar_bounded)
    at its defaults, in the same float operations in the same order, so it
    calls func at the same x's in the same order and returns the same pair
    as minimize_scalar(func, bounds=(lo, hi), method="bounded")."""

    def sign(r: float) -> float:  # numpy's sign(r) + (r == 0): 1 at 0, NaN at NaN
        return 1.0 if r >= 0 else -1.0 if r < 0 else math.nan

    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + _BRENT_XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # inf values of func make these terms NaN, and NaN fails every test
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * sign(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        step = abs(rat)
        if not (step >= tol1 or step != step):  # numpy's maximum: NaN if either is
            step = tol1
        x = xf + sign(rat) * step
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + _BRENT_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXITER:
            break
    return xf, fx


def refine_weights_coordinate_descent(
    f: WeightedFunction,
    support_g: Sequence[Vec],
    support_h: Sequence[Vec],
    p: Fraction | float,
    init_g: Sequence[float] | None = None,
    init_h: Sequence[float] | None = None,
    max_sweeps: int = 200,
) -> float:
    """The gamma ratio reached by cyclic single-weight optimization on fixed
    supports; stops after a sweep that lowers it by less than 1e-10
    (relative), or not at all (an inf that stays inf).

    The sumset structure of the supports is built once per descent
    (fixed_support_gamma).  Each single-weight step is Brent's bounded
    minimization on [0, 4] (_bounded_minimum, bit-identical to SciPy's) of
    the line function evaluate.line, which precomputes what the moving
    weight does not touch; each of its values is bit-identical to
    gamma_ratio on the functions the weights define, so the descent takes
    the same path as one that rebuilds them on every call.  The coordinates
    are swept in the order of support_g, then of support_h."""
    evaluate = fixed_support_gamma(f, support_g, support_h, p)
    gw = [float(x) for x in (init_g if init_g is not None else [1.0] * len(support_g))]
    hw = [float(x) for x in (init_h if init_h is not None else [1.0] * len(support_h))]

    cur = evaluate(gw, hw)
    for _ in range(max_sweeps):
        start = cur
        for side, ws in enumerate((gw, hw)):
            for i in range(len(ws)):
                x, fun = _bounded_minimum(evaluate.line(gw, hw, side, i), 0.0, 4.0)
                if fun < cur:
                    ws[i] = max(x, 0.0)
                    cur = fun
        # written so that NaN (inf - inf: no finite value yet) also stops
        if not start - cur >= 1e-10 * max(abs(start), 1.0):
            break
    return cur


def gamma_estimate(f: WeightedFunction, cfg: SearchConfig) -> EstimateReport:
    """Upper bound on gamma_p(f).

    exhaustive: indicator pairs in the box, then coordinate-descent weight
    refinement on the best supports.  geometric_family: g = h =
    (1, delta, ..., delta^r) for a two-point f (1-dimensional only).
    """
    _require_strategy(cfg, "gamma", ("exhaustive", "geometric_family"))
    if cfg.strategy == "geometric_family":
        return _gamma_geometric(f, cfg)
    report = gamma_indicator_estimate(f, cfg)
    refined = refine_weights_coordinate_descent(f, report.witness_a, report.witness_b, cfg.p)
    if refined < report.value_float - 1e-12:
        return replace(report, value_float=refined, value_exact=None)
    return report


def _two_point_delta(f: WeightedFunction) -> Fraction | float:
    if f.context.free_rank != 1 or f.context.torsion_moduli or len(f.entries) != 2:
        raise ValueError("geometric_family needs a two-point function on Z")
    (x0, w0), (x1, w1) = f.entries
    if x1[0] - x0[0] != 1:
        raise ValueError("two-point support must be adjacent integers")
    return w1 / w0 if w1 <= w0 else w0 / w1


def _gamma_geometric(f: WeightedFunction, cfg: SearchConfig) -> EstimateReport:
    delta = _two_point_delta(f)
    best = math.inf
    best_r = 0
    for r in range(cfg.geometric_max_r + 1):
        val = geometric_family_ratio(float(delta), float(cfg.p), r, r)
        if val < best:
            best = val
            best_r = r
    witness = tuple((i,) for i in range(best_r + 1))
    return EstimateReport(
        quantity="gamma",
        p=Fraction(cfg.p),
        variant=cfg.variant,
        value_float=best,
        value_exact=None,
        witness_a=witness,
        witness_b=witness,
        nodes=cfg.geometric_max_r + 1,
        complete=False,
        config=cfg.echo(),
    )


# --- closed forms for the two-point family ----------------------------------


def geometric_family_ratio(delta: float, p: float, r: int, s: int) -> float:
    """Ratio ||f_delta * g * h||_1 / (||g||_p ||h||_q) for g = (1, ..., delta^r),
    h = (1, ..., delta^s), f_delta = (1, delta)."""
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    if p <= 1:
        raise ValueError("p must exceed 1")
    q = p / (p - 1.0)
    num = sum(delta**j for j in range(r + s + 2))
    gp = sum(delta ** (p * i) for i in range(r + 1)) ** (1.0 / p)
    hq = sum(delta ** (q * j) for j in range(s + 1)) ** (1.0 / q)
    return num / (gp * hq)


def geometric_family_ratio_squared_exact(delta: Fraction, r: int, s: int) -> Fraction:
    """Exact square of the p=2 geometric-family ratio for rational delta."""
    d = Fraction(delta)
    if not 0 <= d <= 1:
        raise ValueError("delta must lie in [0, 1]")
    num = sum((d**j for j in range(r + s + 2)), Fraction(0))
    g2 = sum((d ** (2 * i) for i in range(r + 1)), Fraction(0))
    h2 = sum((d ** (2 * j) for j in range(s + 1)), Fraction(0))
    return num * num / (g2 * h2)


def two_point_constant(delta: float, p: float) -> float:
    """c_delta(p) = (1-delta^p)^(1/p) (1-delta^q)^(1/q) / (1-delta), the
    limit of the geometric-family ratios; at p=2 this is 1+delta.  The
    endpoints are limits: c_0 = 1 and c_1 = p^(1/p) q^(1/q)."""
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    if p <= 1:
        raise ValueError("p must exceed 1")
    q = p / (p - 1.0)
    if delta == 0:
        return 1.0
    if delta == 1:
        return p ** (1.0 / p) * q ** (1.0 / q)
    if p == 2:
        return 1.0 + delta
    return ((1 - delta**p) ** (1.0 / p) * (1 - delta**q) ** (1.0 / q)) / (1 - delta)


def c_p_constant(p: float | Fraction) -> float:
    """c_p = p^(1/p) q^(1/q) / 2 <= 1, with equality exactly at p = 2."""
    pf = float(p)
    if pf <= 1:
        raise ValueError("p must exceed 1")
    if pf == 2.0:
        return 1.0
    q = pf / (pf - 1.0)
    return pf ** (1.0 / pf) * q ** (1.0 / q) / 2.0
