"""Witnessed upper-bound estimation of the doubling/tripling functionals.

The functionals are infima over all finite sets (or functions), so any
finite search yields an upper bound together with a witness; reports carry
the witness and are replayable: the reported value is recomputable from the
witness alone.  Exhaustive enumeration runs over canonical representatives
modulo translation (every target ratio is translation invariant), anchoring
the min-corner of each set at the box origin (alpha's sets contain U
instead).  Every scan takes its sets as rows of box-point indices padded
with each row's first, with the sizes alongside, and only the reported pair
becomes tuples (point_tuples).  Every scan is one sequential pass over the
pairs in i-major order, evaluated in blocks of about _BLOCK_PAIRS pairs.
Beta, alpha and the gamma indicator scan share one numpy kernel
(_pair_counts): once per scan, every B+U, translated by every point a set
uses, is packed into uint64 words at the bits bit_index gives (torsion axes
wrap), so |A+B+U| of a pair is the popcount of an OR of table rows.  Gamma
runs it with the level sets of f as its U's and sums the counts with
integer weights (the layer-cake identity).  A float log-ratio screens each
block, and only the pairs near its minimum reach the exact comparison.
Ties break to the first minimising pair, so reports are deterministic.

Every scan keys its pairs on integer numerators: beta and alpha on the
counts, gamma on its integer weighted sums, which share one denominator.
Ratio comparisons at rational p = pa/pb are then exact: with normalizer
|A|^(1/p) |B|^(1-1/p), compare s1^pa a2^pb b2^(pa-pb) against
s2^pa a1^pb b1^(pa-pb) in big integers.  Only the winner's numerator is
divided, so a float-mode report rounds once.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import InitVar, dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import __version__ as TOOL_VERSION
from .functional import WeightedFunction, _int_weights, _quotient, holder_conjugate
from .groups import GroupContext, PointSet, Vec, sumset

DEFAULT_NODE_CEILING = 5_000_000
NODE_CEILING_ENV = "SUMSETLAB_NODE_CEILING"

VARIANTS = ("unrestricted", "isometric", "isomeric")
STRATEGIES = ("exhaustive", "hill_climb", "geometric_family")
HILL_CLIMB_RESTARTS = 20
GEOMETRIC_MAX_R = 8  # geometric_family tries g = h = (1, delta, ..., delta^r), r <= this
MAX_P_TERM = 1000  # the largest numerator or denominator of p a scan accepts
_BLOCK_PAIRS = 1 << 12  # about this many pairs per eval_pairs call of a scan
# a pair whose float log-ratio lies this far above the running minimum cannot
# be a first exact minimum; float rounding of a log-ratio is ~1e-14
_LOG_SLACK = 1e-9
_TABLE_LIMIT = 1 << 30  # bytes: the largest pair table a scan allocates


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
    # read from SUMSETLAB_NODE_CEILING once, here, unless given
    node_ceiling: int = field(default_factory=node_ceiling_default)
    # accepted for compatibility and validated, but neither stored nor
    # echoed: scans are sequential
    parallelism: InitVar[int] = 1

    def __post_init__(self, parallelism: int) -> None:
        if self.max_cardinality < 1:
            raise ValueError("max_cardinality must be >= 1")
        if any(lo > hi for lo, hi in self.box):
            raise ValueError("box intervals must be nonempty")
        if isinstance(self.p, float):  # its exact Fraction has a 2^k denominator
            raise ValueError(f"p must be an int or a Fraction, not the float {self.p!r}")
        object.__setattr__(self, "p", Fraction(self.p))  # stored exact, whatever was given
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        if max(self.p.numerator, self.p.denominator) > MAX_P_TERM:  # compare_ratios' exponents
            raise ValueError(f"p = {self.p} has a numerator or denominator above {MAX_P_TERM}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.node_ceiling < 1:
            raise ValueError("node_ceiling must be >= 1")

    def echo(self) -> dict:
        return json_value(self)


def frac_str(x: Fraction | int) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


_JSON_SCALARS = frozenset((int, str, float, bool, type(None)))


def json_value(x: object) -> object:
    """The JSON form of a report, verdict or config: a dataclass becomes the
    dict of its fields, a tuple or list a list and a Fraction "num/den",
    recursively; every other value is left as it is.  The exact types that
    come most, the JSON scalars, tuples and lists, are dispatched first."""
    kind = type(x)
    if kind in _JSON_SCALARS:
        return x
    if kind is tuple or kind is list:
        return [json_value(v) for v in x]
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


def require_complete(report: EstimateReport) -> EstimateReport:
    """The report, unchanged, if its scan covered the whole window, else
    ValueError: only then is a window minimum evidence about an infimum.
    Every law and conjecture scan reads its estimates through this rule."""
    if not report.complete:  # an exhaustive scan cut at the ceiling, or a heuristic search
        strategy = report.config["strategy"]
        raise ValueError(f"{report.quantity} scan cut at the node ceiling of {report.nodes} pairs"
                         if strategy == "exhaustive" else f"a {strategy} estimate covers no whole window")
    return report


# --- exact ratio ordering ---------------------------------------------------


def compare_ratios(s1: int, a1: int, b1: int, s2: int, a2: int, b2: int, p: Fraction) -> int:
    """Sign of s1/(a1^(1/p) b1^(1/q)) - s2/(a2^(1/p) b2^(1/q)), exactly, for
    integer numerators (a scan's numerators share one denominator)."""
    pa, pb = p.numerator, p.denominator
    lhs = s1**pa * a2**pb * b2 ** (pa - pb)
    rhs = s2**pa * a1**pb * b1 ** (pa - pb)
    return (lhs > rhs) - (lhs < rhs)


def ratio_float(s: Fraction | float, a: int, b: int, p: Fraction) -> float:
    """s / (a^(1/p) b^(1/q)) as a float, through `functional._quotient`: an
    int or Fraction s past the float range is divided exactly and rounded
    once, so the ratio is inf only when it is past the range too."""
    invp = 1.0 / float(p)
    return _quotient(s, a**invp * b ** (1.0 - invp))


# --- canonical enumeration --------------------------------------------------


def box_size(ctx: GroupContext, box: Sequence[tuple[int, int]]) -> int:
    """N, the number of box points (torsion full).  ValueError for a box of
    the wrong arity, or one whose N points would pass _TABLE_LIMIT at 8
    bytes each: no scan lists it."""
    if len(box) != ctx.free_rank:
        raise ValueError("box arity does not match the free rank")
    n = math.prod(hi - lo + 1 for lo, hi in box) * math.prod(ctx.torsion_moduli)
    if n * 8 > _TABLE_LIMIT:
        raise ValueError(f"the box {box_str(box)} holds {n} points, above the {_TABLE_LIMIT // 8} "
                         "a scan lists; narrow the box")
    return n


def box_str(box: Sequence[tuple[int, int]]) -> str:
    """The box as the command line writes it, lo..hi per axis."""
    return ",".join(f"{lo}..{hi}" for lo, hi in box)


def box_points(ctx: GroupContext, box: Sequence[tuple[int, int]]) -> list[Vec]:
    """All group elements whose free part lies in the box (torsion full),
    refused by box_size past _TABLE_LIMIT."""
    box_size(ctx, box)
    free_ranges = [range(lo, hi + 1) for lo, hi in box]
    tors_ranges = [range(m) for m in ctx.torsion_moduli]
    pts = [
        tuple(f) + tuple(t)
        for f in itertools.product(*free_ranges)
        for t in itertools.product(*tors_ranges)
    ]
    return sorted(pts, key=ctx.sort_key)


def anchored_sets(
    ctx: GroupContext, box: Sequence[tuple[int, int]], max_card: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """canonical_subsets as arrays: the (N, arity) int64 box points, in
    box_points order; each set's point indices, ascending and padded with
    its first, an (n, width) intp array; and the n sizes.

    A point's mask marks the free axes on whose low face it lies, and a set
    is anchored iff its masks OR to full.  The k-sets grow from the
    (k-1)-sets by later points only, while the masks of the set, the point
    and the points after it OR to full (at the last size, of the set and the
    point).  The sets are then sorted as their tuples compare."""
    pts = box_points(ctx, box)
    n, d = len(pts), ctx.free_rank
    points = np.array(pts, dtype=np.int64).reshape(n, -1)
    top = min(max_card, n)
    if top < 1:
        return points, np.zeros((0, 0), dtype=np.intp), np.zeros(0, dtype=np.intp)
    full = (1 << d) - 1
    low = np.zeros(n, dtype=np.intp)
    for i in range(d):
        low |= (points[:, i] == box[i][0]) << i
    later = np.zeros(n, dtype=np.intp)  # the OR of the masks of the points after each
    later[:-1] = np.bitwise_or.accumulate(low[:0:-1])[::-1]
    # ok[at_top][m, j]: point j may grow a set of mask m
    ok = [(np.arange(full + 1)[:, None] | low | reach) == full for reach in (later, 0)]
    rows, masks = np.zeros((1, top), dtype=np.intp), np.zeros(1, dtype=np.intp)
    sets = []
    for k in range(1, top + 1):
        last = rows[:, k - 2, None] if k > 1 else -1
        owner, point = np.nonzero(ok[k == top][masks] & (np.arange(n) > last))
        rows, masks = rows[owner], masks[owner] | low[point]
        rows[:, k - 1] = point
        if k == 1:  # a set's first point pads it
            rows[:, 1:] = point[:, None]
        sets.append(rows[masks == full])
    index = np.concatenate(sets)
    sizes = np.repeat(np.arange(1, top + 1), [len(s) for s in sets])
    # each point's rank among the tuples: a row of ranks, 0 past the set's
    # size, compares as the set's tuple of points does
    rank = np.empty(n, dtype=np.intp)
    rank[sorted(range(n), key=pts.__getitem__)] = np.arange(1, n + 1)
    order = np.lexsort(np.where(np.arange(top) < sizes[:, None], rank[index], 0).T[::-1])
    return points, index[order], sizes[order]


def canonical_subsets(
    ctx: GroupContext, box: Sequence[tuple[int, int]], max_card: int
) -> list[tuple[Vec, ...]]:
    """Subsets of the box, min-corner anchored at the box origin, sorted:
    representatives of box subsets modulo free translation, as tuples."""
    return point_tuples(*anchored_sets(ctx, box, max_card))


def point_tuples(points: np.ndarray, index: np.ndarray, sizes: np.ndarray) -> list[tuple[Vec, ...]]:
    """The rows of `index`, cut to their sizes, as tuples of `points`."""
    pts = list(map(tuple, points.tolist()))
    return [tuple(pts[j] for j in row[:k]) for row, k in zip(index.tolist(), sizes.tolist())]


def anchored_counts(ctx: GroupContext, box: Sequence[tuple[int, int]], max_card: int) -> Iterator[int]:
    """The number of anchored k-sets of the box, for k = 1..max_card.  A set
    is anchored iff it meets the low face of every free axis, so by
    inclusion-exclusion over the sets S of low faces that it misses, it is
    the sum over S of (-1)^|S| C(N_S, k), with N_S the box points off the
    faces in S (torsion taken in full).  No set has more than the N box
    points, so k stops at N."""
    widths = [hi - lo + 1 for lo, hi in box]
    tors = math.prod(ctx.torsion_moduli)
    terms = [((-1) ** sum(S), tors * math.prod(w - s for w, s in zip(widths, S)))
             for S in itertools.product((0, 1), repeat=len(widths))]
    for k in range(1, min(max_card, terms[0][1]) + 1):  # terms[0] misses no face: N
        yield sum(sign * math.comb(n_s, k) for sign, n_s in terms)


def canonical_count(ctx: GroupContext, box: Sequence[tuple[int, int]], max_card: int) -> int:
    """len(canonical_subsets(ctx, box, max_card)), without listing the sets."""
    return sum(anchored_counts(ctx, box, max_card))


def _first_minimum(
    sizes: np.ndarray,
    cfg: SearchConfig,
    eval_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[tuple[int, int, int], int, int, int, bool]:
    """Scan the pairs of sets of these sizes in i-major order, up to the node
    ceiling, and return (key, i, j, nodes, complete) for the first strict
    minimum (A_i, B_j) of the ratio key (numerator, |A|, |B|).

    Row i pairs A_i with every B_j, with B_i alone (isomeric) or with the
    B_j of equal size (isometric).  The stream of rows is cut at the ceiling,
    mid-row if need be, and complete is False exactly when a pair beyond it
    was left unevaluated.  The stream is evaluated in blocks of about
    _BLOCK_PAIRS pairs: eval_pairs(I, J) returns the integer numerators of
    the pairs (I[k], J[k]), an int64 array (the counts of beta and alpha) or
    an object array of Python ints (gamma's weighted sums, which may pass the
    float range).  A float log-ratio screens each block: only the pairs
    within _LOG_SLACK of the lower of the block's minimum and the best so far
    go, in stream order, through the exact compare_ratios, which keeps the
    first strict minimum.  The first exact minimum of the whole stream always
    passes the screen, so it is the pair returned."""
    n = len(sizes)
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
    nodes = min(total, cfg.node_ceiling)
    invp = 1.0 / float(cfg.p)
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
        # math.log takes a Python int past the float range, where astype(float) overflows
        logs = np.array([math.log(s) for s in nums.tolist()]) if nums.dtype == object else np.log(nums)
        r = logs - log_size[I] * invp - log_size[J] * (1.0 - invp)
        cand = np.flatnonzero(r <= min(float(r.min()), best_r) + _LOG_SLACK)
        picked = zip(cand.tolist(), nums[cand].tolist(), I[cand].tolist(), J[cand].tolist())
        for k, s, i, j in picked:
            key = (s, size_of[i], size_of[j])
            # an equal key never compares strictly less
            if best is None or (key != best and compare_ratios(*key, *best, cfg.p) < 0):
                best, best_ij, best_r = key, (i, j), float(r[k])
    assert best is not None
    return best, *best_ij, nodes, total <= nodes


def _report(
    quantity: str,
    cfg: SearchConfig,
    key: tuple,
    witness_a: tuple[Vec, ...],
    witness_b: tuple[Vec, ...],
    nodes: int,
    complete: bool,
) -> EstimateReport:
    """The report of a scan's best ratio key (numerator, |A|, |B|)."""
    return EstimateReport(
        quantity, cfg.p, cfg.variant, *report_values(*key, cfg.p),
        witness_a, witness_b, nodes, complete, cfg.echo(),
    )


def report_values(s: Fraction | float, a: int, b: int, p: Fraction) -> tuple[float, Fraction | None]:
    """A report's (value_float, value_exact) for numerator s at sizes a, b:
    the squared ratio is exact at p = 2 unless the numerator is a float."""
    exact = p == 2 and not isinstance(s, float)
    return ratio_float(s, a, b, p), (Fraction(s) * s / (a * b) if exact else None)


def bit_index(points: np.ndarray, shape: Sequence[int], free_rank: int) -> np.ndarray:
    """The bit of each point (the last axis of `points`) on a grid of this
    shape, first axis fastest.  A free axis must hold the point, so a sum
    that would wrap raises ValueError; a torsion axis wraps modulo its
    extent."""
    modes = ("raise",) * free_rank + ("wrap",) * (len(shape) - free_rank)
    coords = tuple(points[..., k] for k in range(len(shape)))
    index = np.ravel_multi_index(coords, shape, mode=modes, order="F")
    return np.broadcast_to(index, points.shape[:-1])  # at arity 0 every point is bit 0


def signed_permutations(dims: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (perm, signs) of the signed coordinate permutations preserving the
    box shape, p -> (signs[i] * p[perm[i]])_i (8 for a square 2-d box, 4 for
    a rectangle, 2 on a line); the identity comes first."""
    d = len(dims)
    perms = [p for p in itertools.permutations(range(d))
             if all(dims[p[i]] == dims[i] for i in range(d))]
    return [(perm, signs) for perm in perms for signs in itertools.product((1, -1), repeat=d)]


def _compose(
    h: tuple[tuple[int, ...], tuple[int, ...]], k: tuple[tuple[int, ...], tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (perm, signs) of p -> h(k(p)), for maps of signed_permutations:
    perm[i] = pk[ph[i]] and signs[i] = sh[i] sk[ph[i]]."""
    (ph, sh), (pk, sk) = h, k
    return tuple(pk[i] for i in ph), tuple(s * sk[i] for s, i in zip(sh, ph))


def set_images(index: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """The (|G|, n) array whose row g holds, for each of n sets, the index of
    its image under the g-th of the box's signed permutations
    (`signed_permutations`, the identity first), translated to min 0 per
    axis.  The sets are the index rows of anchored_sets on the box of these
    dims from the origin, where a point's index is its cell's C-order index;
    they must be anchored, sorted and closed under the maps (ValueError).

    A set's key, its sorted cells + 1 padded with 0, is read as int64 digits
    in base cells + 1 where they fit, else as big-endian bytes: either
    compares as the sets' tuples, so each image is found by binary search."""
    n, width = index.shape
    padding = np.zeros((n, width), dtype=bool)
    padding[:, 1:] = index[:, 1:] == index[:, :1]
    cells = math.prod(dims)
    axes = np.unravel_index(index, dims)
    tops = [x.max(axis=1, keepdims=True) for x in axes]  # each set's extent; its min is 0

    def cells_of(coords: tuple[np.ndarray, ...]) -> np.ndarray:
        cell = np.ravel_multi_index(coords, dims) + 1
        cell[padding] = cells + 1
        cell.sort(axis=1)  # padding last,
        cell[cell > cells] = 0  # then below every cell
        return cell

    fits = (cells + 1) ** width <= 1 << 63
    digits = (cells + 1) ** np.arange(width - 1, -1, -1, dtype=np.int64) if fits else None

    def keys(cell: np.ndarray) -> np.ndarray:
        return cell @ digits if fits else cell.astype(">u8").view(f"S{8 * width}").ravel()

    own_cells = cells_of(axes)
    own = keys(own_cells)
    if not np.all(own[1:] > own[:-1]):
        raise ValueError("the sets are not sorted and distinct")
    moves = signed_permutations(dims)
    move_at = {move: g for g, move in enumerate(moves)}
    images = np.empty((len(moves), n), dtype=np.intp)
    images[0] = np.arange(n)
    # A product of maps found is filled by one gather, (h k)(S) = h(k(S)):
    # images[h][images[k]], as re-anchoring commutes with the maps.  Only the
    # maps that are no such product are searched, last first, as the last
    # move every axis: two searches on a rectangle or a square
    found, searched = {0}, []
    for g in reversed(range(len(moves))):
        if g in found:
            continue
        perm, signs = moves[g]
        # axis k of the image is axis perm[k] of the set, reflected in its extent where signs[k] < 0
        image = cells_of(tuple(axes[a] if s > 0 else tops[a] - axes[a] for a, s in zip(perm, signs)))
        at = np.searchsorted(own, keys(image))
        if not np.array_equal(own_cells[np.minimum(at, n - 1)], image):
            raise ValueError("the sets are not closed under the box's symmetries")
        images[g] = at
        # every map the searched ones generate is h s for a map h found and a
        # searched s, so the maps found times the searched ones close them
        searched.append(g)
        found.add(g)
        new = list(found)
        while new:
            h = new.pop()
            for k in searched:
                c = move_at[_compose(moves[h], moves[k])]
                if c not in found:
                    np.take(images[h], images[k], out=images[c])
                    found.add(c)
                    new.append(c)
    return images


def _pair_counts(
    points: np.ndarray, index: np.ndarray, addends: Sequence[Sequence[Vec]], ctx: GroupContext
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The table kernel of every exhaustive pair scan: eval_pairs(I, J), whose
    row k is the int64 array of |A + B + U_k| over the pairs (A_I[t], B_J[t]),
    for the K sets U_k of `addends`, of sets given as the (n, width) rows of
    `index` into the (N, arity) `points`, each padded with its first.  Beta
    passes [U], alpha [{0}] (U is folded into its candidate sets) and gamma
    the level sets of f.

    Every A+B+U_k lies on one grid, translated to its min: along a free axis
    the extent ext of the points the sets use twice, plus that of the union
    of the U_k, 2 ext + ext(U) + 1 cells, so sums never wrap, and along a
    torsion axis its modulus.  A point's bit is its bit_index on that grid.

    A+B+U is the union over q in A of q + B + U.  So the kernel builds one
    table: every B_j + U_k translated by every point q that a set uses, each
    packed into W = ceil(cells / 64) uint64 words, at row (k Q + index of q)
    n + j.  That is K * Q * n * W * 8 bytes for the Q distinct indices of
    `index`, and a table above _TABLE_LIMIT is refused with ValueError before
    it is allocated.  Row i of `slot` holds the rows of A_i's points, padded
    with its first, so the count of (i, j) under U_k is the popcount of the
    OR of table[k Q n + slot[i] + j]: a block of pairs is a few row gathers,
    ORs and one popcount."""
    d = ctx.free_rank
    n, width = index.shape
    arity = points.shape[1]
    used, inverse = np.unique(index, return_inverse=True)
    shifts = points[used]
    slot = inverse.reshape(n, width) * n
    lo = shifts.min(axis=0)
    ext = shifts.max(axis=0) - lo
    us = [np.array(u, dtype=np.int64).reshape(len(u), arity) for u in addends]
    ulo, uhi = np.concatenate(us).min(axis=0), np.concatenate(us).max(axis=0)
    shape = [*(2 * ext + uhi - ulo + 1)[:d], *ctx.torsion_moduli]
    cells = math.prod(shape)
    rows, words = len(us) * len(shifts) * n, -(-cells // 64)
    _check_table(rows, words)
    table = np.zeros((rows, words), dtype=np.uint64)
    packed = table.view(np.uint8).reshape(len(us), len(shifts), n, -1)
    sets = points[index]
    for level, u in zip(packed, us):
        # B_j + U_k less the min of A+B+U, so that q + bu[j] is q + B_j + U_k on the grid
        bu = (sets[:, :, None] + (u - ulo - 2 * lo)).reshape(n, width * len(u), arity)
        for k, q in enumerate(shifts):
            abu = np.zeros((n, cells), dtype=bool)
            abu[np.arange(n)[:, None], bit_index(q + bu, shape, d)] = True
            level[k, :, : -(-cells // 8)] = np.packbits(abu, axis=1)
    del sets, bu, abu
    first_row = np.arange(len(us))[:, None] * (len(shifts) * n)  # of each U_k's rows

    def eval_pairs(I: np.ndarray, J: np.ndarray) -> np.ndarray:
        acc = table[slot[I, 0] + J + first_row]
        for k in range(1, width):
            acc |= table[slot[I, k] + J + first_row]
        return np.bitwise_count(acc).sum(axis=2, dtype=np.int64)

    return eval_pairs


def _check_table(rows: int, words: int, at_least: str = "") -> None:
    # refuse a table of rows x words uint64s (at_least: lower bounds on both) above _TABLE_LIMIT
    if rows * words * 8 > _TABLE_LIMIT:
        raise ValueError(
            f"the pair table of this scan needs {at_least}{rows * words * 8} bytes, above the "
            f"limit of {_TABLE_LIMIT}; narrow the box or lower the cardinality")


def _refuse_counted(rows_per_set: int, counts: Iterator[int]) -> None:
    """Refuse a window, before it is listed, once the sets counted size by
    size from `counts` need a pair table past _TABLE_LIMIT at this many rows
    each (_pair_counts gives a set a row per U_k and box point it uses)."""
    count = 0
    for k_sets in counts:
        count += k_sets
        _check_table(rows_per_set * count, 1, "at least ")


def _anchored_window(ctx: GroupContext, cfg: SearchConfig, addends: int) -> tuple[np.ndarray, ...]:
    """anchored_sets of the window, to scan against this many addends; box_size,
    then _refuse_counted, refuse a window too large to list."""
    if cfg.max_cardinality > 1:  # then every box point is in some set
        _refuse_counted(addends * box_size(ctx, cfg.box), anchored_counts(ctx, cfg.box, cfg.max_cardinality))
    return anchored_sets(ctx, cfg.box, cfg.max_cardinality)


def _window_minimum(
    ctx: GroupContext, cfg: SearchConfig, window: tuple[np.ndarray, ...],
    addends: Sequence[Sequence[Vec]], numerators: Callable[[np.ndarray], np.ndarray],
) -> tuple[tuple, tuple[Vec, ...], tuple[Vec, ...], int, bool]:
    """_report's (key, A, B, nodes, complete) of the window's sets, given as
    anchored_sets gives them (points, index rows, sizes), keyed on
    `numerators` of their counts against `addends`.  Only the reported pair
    becomes tuples."""
    points, index, sizes = window
    counts = _pair_counts(points, index, addends, ctx)
    key, i, j, *rest = _first_minimum(sizes, cfg, lambda I, J: numerators(counts(I, J)))
    return key, *point_tuples(points, index[[i, j]], sizes[[i, j]]), *rest


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
    window = _anchored_window(ctx, cfg, 1)
    return _report("beta", cfg, *_window_minimum(ctx, cfg, window, [U.points], lambda counts: counts[0]))


def alpha_estimate(U: PointSet, cfg: SearchConfig) -> EstimateReport:
    """Upper bound on alpha(U): min over enumerated A, B containing U of
    |A+B| / (|A|^(1/p) |B|^(1-1/p))."""
    if not U.points:
        raise ValueError("U must be nonempty")
    _require_strategy(cfg, "alpha", ("exhaustive",))
    ctx = U.context
    # the box points in tuple order, so that rows of ascending indices sort as the sets' tuples
    pts = sorted(box_points(ctx, cfg.box))
    at = {q: k for k, q in enumerate(pts)}
    if not set(U.points) <= at.keys():
        raise ValueError("U must lie inside the search box for alpha")
    u = [at[q] for q in U.points]
    extra = sorted(set(range(len(pts))) - set(u))
    room = cfg.max_cardinality - len(U)
    if room < 0:
        raise ValueError("max_cardinality below |U|")
    room = min(room, len(extra))  # no set holds more than the box
    if room > 0:  # every box point is in some set
        _refuse_counted(len(pts), (math.comb(len(extra), k) for k in range(room + 1)))
    sets = sorted(tuple(sorted(u + list(combo)))
                  for k in range(room + 1) for combo in itertools.combinations(extra, k))
    width = len(U) + room
    index = np.array([s + s[:1] * (width - len(s)) for s in sets], dtype=np.intp)
    window = np.array(pts, dtype=np.int64).reshape(len(pts), -1), index, np.array([len(s) for s in sets])
    return _report("alpha", cfg, *_window_minimum(ctx, cfg, window, [[ctx.zero()]], lambda counts: counts[0]))


def variant_estimates(
    U: PointSet, cfg: SearchConfig, alpha_cardinality: int,
    beta: Callable = beta_estimate, alpha: Callable = alpha_estimate,
) -> tuple[list[EstimateReport], list[EstimateReport]]:
    """The beta and alpha estimates of U under each of VARIANTS, in that
    order, alpha's sets of up to alpha_cardinality points, all complete
    (require_complete).  perfbench rebinds the estimators conjectures passes."""
    betas, alphas = [], []
    for variant in VARIANTS:
        cfgv = replace(cfg, variant=variant)
        betas.append(require_complete(beta(U, cfgv)))
        alphas.append(require_complete(alpha(U, replace(cfgv, max_cardinality=alpha_cardinality))))
    return betas, alphas


def _beta_hill_climb(U: PointSet, cfg: SearchConfig) -> EstimateReport:
    """Seeded local search from HILL_CLIMB_RESTARTS random starts: add or
    remove one point of A or B, accept a strict ratio decrease.

    This is the slow strategy, kept as it is: each move builds `PointSet`s
    and calls `groups.sumset`, with no grid kernel.  It never certifies a
    window, so its reports always have complete = False."""
    ctx = U.context
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
                    if compare_ratios(*k, *cur, cfg.p) < 0:
                        A, B, cur = na, nb, k
                        improved = True
                        break
                if improved:
                    break
        if best_key is None or compare_ratios(*cur, *best_key, cfg.p) < 0:
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
    subsets, through the layer-cake identity.

    (f*1_A*1_B)(x) is the max of f over x - A - B, so it is at least t
    exactly when x lies in {f >= t} + A + B.  With f's distinct weights
    t_1 > ... > t_K, t_(K+1) = 0 and the level sets L_k = {f >= t_k},
        ||f*1_A*1_B||_1 = sum_k (t_k - t_(k+1)) |L_k + A + B|,
    a weighted sum of the counts the beta kernel (_pair_counts) gives with
    the L_k as its U's.  The weights are scaled to integers over one
    denominator D, exactly (a float is a dyadic rational), and the integer
    sum is formed in Python ints, so it never wraps.
    D is common to every pair, so the scan keys each pair on that integer
    sum and picks the exact first minimum in either mode.  Only the winner's
    sum is divided by D: Fraction(s, D) in exact mode and the correctly
    rounded float in float mode, so the value does not depend on how Python
    sums floats."""
    if not f.entries:
        raise ValueError("f must have nonempty support")
    _require_strategy(cfg, "gamma", ("exhaustive",))
    ctx = f.context
    weights, denom = _int_weights(f)
    tops = sorted(set(weights), reverse=True)
    levels = [[x for (x, _), w in zip(f.entries, weights) if w >= t] for t in tops]
    # Python ints: a weight may scale far past int64 (1e-300 is m / 2^1049)
    steps = np.array([t - s for t, s in zip(tops, tops[1:] + [0])], dtype=object)
    window = _anchored_window(ctx, cfg, len(levels))
    (s, a, b), *rest = _window_minimum(ctx, cfg, window, levels, lambda counts: steps @ counts.astype(object))
    num = Fraction(s, denom) if f.exact else _quotient(s, denom)
    return _report("gamma", cfg, (num, a, b), *rest)


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
    the weights listed along support_g and support_h, with evaluate.line for
    the ratio along one weight.

    evaluate(gw, hw) == gamma_ratio(ff, g, h, float(p)) bit for bit, where
    ff is f in float mode and g, h keep the positive weights (math.inf when
    either keeps none, or when the norms' product underflows to 0.0), and so
    is evaluate.line(gw, hw, side, i)(x) with the one weight set to x.

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
        self.fw = [w if isinstance(w, float) else _quotient(w.numerator, w.denominator)
                   for _, w in f.entries]  # float(w), and inf past the float range

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
        den = self._norm(0, g) * self._norm(1, h)
        return num / den if den else math.inf  # 0.0 when a norm underflows, as in gamma_ratio

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
            den = sum(powers) ** inv_e * other
            return sum(vals) / den if den else math.inf

        return at


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
    (FixedSupportGamma).  Each single-weight step is Brent's bounded
    minimization on [0, 4] (_bounded_minimum, bit-identical to SciPy's) of
    the line function evaluate.line, which precomputes what the moving
    weight does not touch; each of its values is bit-identical to
    gamma_ratio on the functions the weights define, so the descent takes
    the same path as one that rebuilds them on every call.  The coordinates
    are swept in the order of support_g, then of support_h."""
    evaluate = FixedSupportGamma(f, support_g, support_h, p)
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
    for r in range(GEOMETRIC_MAX_R + 1):
        val = geometric_family_ratio(float(delta), float(cfg.p), r, r)
        if val < best:
            best = val
            best_r = r
    witness = tuple((i,) for i in range(best_r + 1))
    # the float numerator best over sizes 1 and 1: value_float best, no exact value
    return _report("gamma", cfg, (best, 1, 1), witness, witness, GEOMETRIC_MAX_R + 1, False)


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
