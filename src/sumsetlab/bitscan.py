"""Vectorized exhaustive tripling verification over small boxes.

Verifies, for every canonical pair (A, B) of box subsets and a given set V,
that |A+B+V|^2 >= |V|^2 |A| |B| with exact integer arithmetic, and that
equality is attained (singleton pairs give |A+B+V| = |V|).  The pair space
is large (~10^8 for a 6x6 box at cardinality 4), so pairs are packed into
bitmask grids and screened by one numpy popcount pass; only pairs failing an
exact integer certificate keep their packed A+B, to be re-checked per V.

The certificate lower-bounds |X+V| from s = |X|, v = |V| and the affine
dimension of V (`certified_size`), with X = A+B in a torsion-free group:
- collinear V: |X+V| >= s+v-1 (project along a functional injective on
  X, V and X+V to Z; the s+v-1 distinct sums of sorted prefixes survive);
- 2-D V: |X+V| >= max(s,v) + 2 min(s,v) - 3 as well, Ruzsa's bound
  |X|+d|Y|-d(d+1)/2 for |X| >= |Y| and dim(X+Y) = d (I. Z. Ruzsa, "Sum of
  sets in several dimensions", Combinatorica 14, 1994) at d = 2, since X+V
  holds a translate of V and so is at least 2-D (project to Z^2 if it is
  more).
A pair is safe for V once certified_size(s, v, dim V)^2 >= v^2 |A| |B|.  The
bounds themselves are property-tested in the suite; survivors are decided
by direct computation, so the scan stays exact.

The build's screen uses the collinear bound at v = MAX_V, the weakest
certificate of any V the scan serves, so one set of survivors serves every
V.  It then lists, once per (v, dim) class of `CLASSES`, the survivors whose
certificate for that class fails, and a V rechecks only its class's list.
The class (MAX_V, 1) fails for every survivor, since its certificate is the
screen, so its list is not stored.

Grid packing: a point's bit is its search.bit_index on the grid of A+B,
2k-1 cells along an axis k wide (`sum_shape`), first axis fastest: (x, y)
maps to bit y*(2w-1) + x, so all sums A+B stay in distinct rows.  A fits
one uint64 word, and A+B fits `sum_words` of them: one when its grid has at
most 64 cells (every 1-D box up to 32 wide, and 2-D boxes such as 5x4),
else two.  The recheck builds each row of A+B+V in one word.

The build is one sequential pass over blocks of consecutive rows i0 <= i < i1,
sized so that a block holds about _BLOCK_CELLS pairs.  A block forms A_i+B_j
for all its rows and every j >= i0 in one numpy call per point of A and
word: the low word ORs B << s and, when A+B spans two words, the high word
B >> (64-s), over the offsets s of A_i's points (sets with fewer points
repeat their first).  Each shift writes in place into buffers allocated
once per build for the largest block; a one-word scan stores zero high
words, so every scan keeps the same arrays.  Cells below the
diagonal (j < i) are real sumsets too, so the Cauchy-Davenport check covers
the whole block, and only their screen hits are dropped.  The pairs it
records, and so every verdict, depend only on the box and the cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod
from typing import Optional, Sequence

import numpy as np

from .groups import GroupContext, PointSet, dimension
from .search import bit_index, canonical_subsets, padded_points

Pt = tuple[int, ...]

MAX_V = 4  # the largest |V| the certificate of build_scan covers
# the (|V|, dim V) classes a scan lists failing survivors for; a V of one
# point is always certified, and two points are collinear
CLASSES = tuple((v, k) for v in range(2, MAX_V + 1) for k in (1, 2) if k < v)
SCREEN_CLASS = CLASSES.index((MAX_V, 1))  # the class whose certificate build_scan screens with
_BLOCK_CELLS = 1 << 16  # about this many (i, j) cells per numpy call of the build


def certified_size(s, v: int, dim: int):
    """A lower bound on |X+V| from s = |X| (an int or an int array), v = |V|
    and dim, the affine dimension of V, for X, V in a torsion-free group:
    s+v-1, and for dim >= 2 also Ruzsa's max(s,v) + 2 min(s,v) - 3."""
    bound = s + v - 1
    if dim >= 2:
        bound = np.maximum(bound, np.maximum(s, v) + 2 * np.minimum(s, v) - 3)
    return bound


@dataclass
class ExhaustiveBetaScan:
    dims: tuple[int, ...]
    sets: list[tuple[Pt, ...]]
    surv_i: np.ndarray
    surv_j: np.ndarray
    surv_pop: np.ndarray
    surv_ab: np.ndarray
    surv_lo: np.ndarray  # bits 0-63 of the packed A+B of each surviving pair
    surv_hi: np.ndarray  # bits 64-127, zero when A+B spans one word
    # the survivors, ascending, whose certificate for CLASSES[k] fails are
    # class_rows[class_bounds[k]:class_bounds[k + 1]] (`flagged(k)`), except
    # for SCREEN_CLASS, whose certificate is the build's screen: it fails for
    # every survivor, so that class is not stored
    class_rows: np.ndarray
    class_bounds: np.ndarray
    pair_count: int

    def flagged(self, k: int) -> np.ndarray:
        """Indices of the survivors whose certificate for CLASSES[k] fails."""
        if k == SCREEN_CLASS:
            return np.arange(len(self.surv_i))
        return self.class_rows[self.class_bounds[k]:self.class_bounds[k + 1]]


def sum_shape(dims: Sequence[int]) -> list[int]:
    """The grid A+B lies on for a box of these dims."""
    return [2 * k - 1 for k in dims]


def sum_words(dims: Sequence[int]) -> int:
    """The uint64 words a packed A+B spans for a box of these dims: one when
    the grid of A+B has at most 64 cells, else two."""
    return 1 if prod(sum_shape(dims)) <= 64 else 2


def unsupported(dims: Sequence[int], v_points: Sequence[Pt] = ()) -> Optional[str]:
    """Why the bit scan cannot decide V, given by its points normalized to
    min 0 per axis, in a box of these dims; None when it can.  With no
    points, why it cannot scan the box at all.  build_scan and
    verify_subset_beta refuse with this reason, and callers route around it."""
    d = len(dims)
    if d not in (1, 2):
        return "bit scan supports dimensions 1 and 2 only"
    shape = sum_shape(dims)
    if bit_index(np.array(shape) - 1, shape, d) > 127:  # the far corner of A+B, in two words
        return "box too large for the two-word bit scan"
    v = len(set(v_points))
    if v > MAX_V:
        return f"|V| = {v} above the scan's certificate bound {MAX_V}"
    if v_points and max(p[0] for p in v_points) + shape[0] > 64:  # a row of A+B+V in one word
        return "V too wide for the exact recheck stride"
    return None


def anchored_subsets(dims: Sequence[int], max_card: int) -> list[tuple[Pt, ...]]:
    """Nonempty box subsets with min coordinate 0 in every axis, sorted.

    These represent subsets of any translated box modulo translation.
    """
    return canonical_subsets(GroupContext(len(dims)), [(0, n - 1) for n in dims], max_card)


def build_scan(dims: Sequence[int], max_card: int) -> ExhaustiveBetaScan:
    """One popcount pass over all canonical unordered pairs, block by block
    of rows, recording i-major the pairs the integer certificate cannot
    clear for some V with |V| <= MAX_V, and then, per (|V|, dim V) class of
    CLASSES, the survivors it fails for (`ExhaustiveBetaScan.flagged`).

    The screen tests the collinear bound s+v-1 at v = MAX_V.  It fails at v
    iff s-1 < v(sqrt(ab)-1), whose right side never decreases in v, so it
    fails for some v <= MAX_V iff it fails at MAX_V; and Ruzsa's bound for
    2-D V is never below it, so no pair any V needs is dropped.  Screening
    on Ruzsa's bound instead would drop pairs that collinear V's need."""
    dims = tuple(dims)
    reason = unsupported(dims)
    if reason is not None:
        raise ValueError(reason)
    d = len(dims)
    sets = anchored_subsets(dims, max_card)
    n = len(sets)
    sizes = np.array([len(s) for s in sets], dtype=np.int64)
    # each set's bits, padded to one width with its first
    shifts = bit_index(padded_points(sets), sum_shape(dims), d).astype(np.uint64)
    masks = np.bitwise_or.reduce(np.uint64(1) << shifts, axis=1)
    width = shifts.shape[1]
    # The screen fails iff (|A+B| + MAX_V - 1)^2 < MAX_V^2 |A||B|, that is iff
    # |A+B| < ceil(MAX_V sqrt(|A||B|)) - MAX_V + 1 =: lim[|A| - 1, j] for B =
    # sets[j] (exact integer roots).  |A+B| <= 128 and |A|, |B| <= 64, so the
    # counts, limits and Cauchy-Davenport bounds below all fit uint8.
    by_size = [[max(0, isqrt(MAX_V**2 * a * b - 1) + 2 - MAX_V) for b in range(1, width + 1)]
               for a in range(1, width + 1)]
    lim = np.array(by_size, dtype=np.uint8)[:, sizes - 1]
    sizes8 = sizes.astype(np.uint8)

    # blocks of rows i0 <= i < i1, each row paired with every j >= i0, and
    # buffers for the largest block's cells, reused by every block
    blocks = []
    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + max(1, _BLOCK_CELLS // (n - i0)))
        blocks.append((i0, i1))
        i0 = i1
    size = max((i1 - i0) * (n - i0) for i0, i1 in blocks)
    words = sum_words(dims)
    word_bufs = [np.empty(size, dtype=np.uint64) for _ in range(words + 1)]
    # word 0 ORs B << s and word 1 B >> (64 - s) over the offsets s of A's
    # points; numpy shifts by 64 to 0, so s = 0 adds nothing to word 1
    word_ops = [(np.left_shift, shifts), (np.right_shift, np.uint64(64) - shifts)][:words]

    # (i, j, |A+B|, low word[, high word]) of the survivors, one tuple per block
    found = []
    for i0, i1 in blocks:
        shape = (i1 - i0, n - i0)
        tmp, *packed = (buf[:shape[0] * shape[1]].reshape(shape) for buf in word_bufs)
        b = masks[i0:]
        for word, (shift, offsets) in zip(packed, word_ops):
            first, *rest = offsets[i0:i1, :, None].transpose(1, 0, 2)  # a column per point of A
            shift(b, first, out=word)
            for s in rest:
                word |= shift(b, s, out=tmp)
        pop = np.bitwise_count(packed[0])
        if words == 2:
            pop += np.bitwise_count(packed[1])
        # every cell is a real sumset A_i + B_j, below the diagonal too
        if not np.all(pop >= sizes8[i0:i1, None] + sizes8[i0:] - 1):
            raise AssertionError(f"a sumset of rows {i0}-{i1 - 1} breaks Cauchy-Davenport")
        k = np.flatnonzero(pop < lim[sizes[i0:i1] - 1, i0:])
        r, c = np.divmod(k, shape[1])
        keep = c >= r  # j >= i; row-major order keeps the survivors i-major
        k = k[keep]
        found.append((r[keep] + i0, c[keep] + i0, pop.ravel()[k].astype(np.int64),
                      *(word.ravel()[k] for word in packed)))

    # join column by column, each column's blocks freed once joined, so not all are alive at once
    found = [list(col) for col in zip(*found)]
    surv_i, surv_j, surv_pop, surv_lo, *surv_hi = (np.concatenate(found.pop(0)) for _ in range(3 + words))
    surv_hi = surv_hi[0] if surv_hi else np.zeros_like(surv_lo)
    surv_ab = sizes[surv_i] * sizes[surv_j]
    # each class's certificate as a table over (|A+B|, |A||B|): no survivor-sized temporaries
    pop_ax, ab_ax = np.arange(129)[:, None], np.arange(width * width + 1)
    rows = [
        np.flatnonzero((certified_size(pop_ax, v, k) ** 2 < v * v * ab_ax)[surv_pop, surv_ab])
        if k <= d and c != SCREEN_CLASS else np.zeros(0, dtype=np.intp)
        for c, (v, k) in enumerate(CLASSES)
    ]
    class_bounds = np.cumsum([0] + [len(r) for r in rows])
    pair_count = n * (n + 1) // 2
    return ExhaustiveBetaScan(
        dims, sets, surv_i, surv_j, surv_pop, surv_ab,
        surv_lo, surv_hi, np.concatenate(rows), class_bounds, pair_count,
    )


def verify_subset_beta(scan: ExhaustiveBetaScan, v_points: Sequence[Pt]) -> dict:
    """Exact verdict that min |A+B+V|^2 / (|A||B|) over the scanned pairs is
    exactly |V|^2, attained at the singleton pair.

    V must be translated to nonnegative coordinates with min 0 per axis.
    The result holds `holds`, `counterexample` (None, or the A, B and V of
    the first minimum with its slack |A+B+V|^2 - |V|^2 |A||B|), `pair_count`
    and `checked_pairs`, the survivors rechecked for this V: those the
    build listed for V's (|V|, dim V) class, where its certificate
    (collinear, or Ruzsa's for 2-D V) fails.
    """
    d = len(scan.dims)
    vpts = sorted({tuple(p) for p in v_points})
    if not vpts or any(len(p) != d for p in vpts):
        raise ValueError("V must be nonempty with matching dimension")
    for i in range(d):
        if min(p[i] for p in vpts) != 0:
            raise ValueError("V must be normalized to min coordinate 0")
    reason = unsupported(scan.dims, vpts)
    if reason is not None:
        raise ValueError(reason)
    v = len(vpts)

    # survivors whose certificate fails for V's class (none at v = 1, where
    # s >= a+b-1 >= sqrt(ab))
    dim_v = dimension(PointSet.of(GroupContext(d), vpts))
    cand = scan.flagged(CLASSES.index((v, dim_v))) if v > 1 else np.zeros(0, dtype=np.intp)
    result = {
        "pair_count": scan.pair_count,
        "holds": True,
        "counterexample": None,
        "checked_pairs": int(len(cand)),
    }
    if not len(cand):
        return result
    # Row r of A+B is the 2w-1 bits at r*(2w-1) of the pair's two words; row r
    # of A+B+V ORs row r-y of A+B shifted by x over (x, y) in V, and fits one
    # uint64 by the width check.  Building one output row at a time keeps only
    # a few candidate-sized arrays live.
    width, *higher = sum_shape(scan.dims)
    rows = prod(higher)
    row_mask = np.uint64((1 << width) - 1)
    lo = scan.surv_lo[cand]
    hi = scan.surv_hi[cand] if sum_words(scan.dims) == 2 else None  # one word: rows never reach bit 64

    def row(r: int) -> np.ndarray:
        s = r * width
        bits = lo >> np.uint64(s) if s < 64 else hi >> np.uint64(s - 64)
        if s < 64 < s + width:  # the row straddles the two words
            bits |= hi << np.uint64(64 - s)
        return bits & row_mask

    xs_at: dict[int, list[np.uint64]] = {}  # x offsets of V per y
    for p in vpts:
        xs_at.setdefault(p[1] if d > 1 else 0, []).append(np.uint64(p[0]))
    t = np.zeros(len(cand), dtype=np.int64)
    for r in range(rows + max(xs_at)):
        out = np.zeros(len(cand), dtype=np.uint64)
        for y, xs in xs_at.items():
            if 0 <= r - y < rows:
                bits = row(r - y)
                for x in xs:
                    out |= bits << x
        t += np.bitwise_count(out)
    slack = t * t - v * v * scan.surv_ab[cand]
    if slack.min() < 0:
        k = int(np.argmin(slack))  # the first minimum: survivors are stored i-major
        result["holds"] = False
        result["counterexample"] = {
            "A": scan.sets[scan.surv_i[cand[k]]],
            "B": scan.sets[scan.surv_j[cand[k]]],
            "V": tuple(vpts),
            "slack": int(slack[k]),
        }
    return result
