"""Vectorized exhaustive tripling verification over small boxes.

Verifies, for every canonical pair (A, B) of box subsets and a given set V,
that |A+B+V|^2 >= |V|^2 |A| |B| with exact integer arithmetic, and that
equality is attained (singleton pairs give |A+B+V| = |V|).  The pair space
is large (~10^8 for a 6x6 box at cardinality 4), so pairs are packed into
bitmask grids and screened by one numpy popcount pass; only pairs failing an
exact integer certificate are kept, and a class's first recheck forms their
rows of A+B once for every V of the class.

The certificate lower-bounds |X+V| from s = |X|, v = |V| and the affine
dimension of V (`certified_size`), with X = A+B in a torsion-free group:
- collinear V: |X+V| >= s+v-1 (project along a functional injective on
  X, V and X+V to Z; the s+v-1 distinct sums of sorted prefixes survive);
- 2-D V: |X+V| >= max(s,v) + 2 min(s,v) - 3 as well, Ruzsa's bound
  |X|+d|Y|-d(d+1)/2 for |X| >= |Y| and dim(X+Y) = d (I. Z. Ruzsa, "Sum of
  sets in several dimensions", Combinatorica 14, 1994) at d = 2, since X+V
  holds a translate of V and so is at least 2-D (project to Z^2 if it is
  more).
A pair is safe for V once certified_size(s, v, dim V)^2 >= v^2 |A| |B|.  At
v <= 2 every pair is safe: Cauchy-Davenport gives s >= a+b-1, so (s+1)^2 >=
(a+b)^2 >= 4ab.  The bounds themselves are property-tested in the suite;
survivors are decided by direct computation, so the scan stays exact.

A scan serves the V of one dimension, `dim`: its classes are the (v, dim)
of `CLASSES`, and its screen is the union of their failure tables.  Each
table is a prefix in |A+B|, and (3, dim)'s lies within (MAX_V, dim)'s, so
the screen is the certificate of (MAX_V, dim), one threshold on |A+B| per
(|A|, |B|).  A survivor is kept as its pair (i, j) only; each class keeps,
i-major, the survivors it fails for, and the class (MAX_V, dim), whose
certificate is the screen, is the survivors themselves.  A V rechecks only
its class's pairs.  A 2-D V reads Ruzsa's bound alone, so on the 5x4 window
at cardinality 4 its scan keeps 5,175 survivors, where the collinear screen
of a 1-D V keeps 228,851.

The window is enumerated once, as arrays: search.anchored_sets lists each
anchored set as a row of box-point indices, padded with its first point,
with the sizes alongside, and the build reads every set's bit offsets,
mask and size straight from those rows.  The scan keeps the sizes, masks
and offsets, not the sets' tuples: a set's tuple is read off its offsets
(`ExhaustiveBetaScan.points_of`) only for a pair a counterexample names.

Grid packing: a point's bit is its search.bit_index on the grid of A+B,
2k-1 cells along an axis k wide (`sum_shape`), first axis fastest: (x, y)
maps to bit y*(2w-1) + x, so all sums A+B stay in distinct rows.  A fits
one uint64 word, and A+B fits `sum_words` of them: one when its grid has at
most 64 cells (every 1-D box up to 32 wide, and 2-D boxes such as 5x4),
else two.  `_pack_sums` forms those words for many pairs at once, ORing B's
mask shifted by the offsets of A's points, for the build and for the rows
of a class.

The recheck reads each pair's A+B as its rows, 2w-1 bits each, kept per
class with the scan beside the pair's |A||B| (`_class_rows`): the first V
of a class forms them through `_pack_sums`, block by block, and every
later V reads them.  The rows take 2 bytes per row per pair on 5x4 and 6x6
(uint16; 71 KiB for the 5,175 pairs of 2-D V on 5x4, 3.1 MiB for the
228,851 of 1-D V, 48.8 MiB for the 2,328,592 of 1-D V on 6x6), where the
packed words would take 8 or 16 bytes per pair and uint64 rows 8 per row,
and |A||B| 2 bytes per pair.  Row r of A+B+V is the OR of row r-y of
A+B shifted by x over the points (x, y) of V, in the narrowest
unsigned dtype that holds it, formed for blocks of pairs of about
8 _BLOCK_CELLS bytes (256 KiB) so that the buffers stay in cache, and
counted byte by byte (`_sumset_sizes`): numpy's bitwise_count is fastest on
uint8.  Only that OR depends on V; `scan_dimension` reads V's dimension off
its points, with no rank computed, and so picks the scan that V reads.

Both kernels, build_scan and verify_subset_beta, run inside one scoped
numpy state (`_small_buffer`): a ufunc buffer of _BUFSIZE elements, not
numpy's 8,192, so that the build's broadcast shifts over rows of a few
thousand columns take numpy's fast loop.  Leaving the scope restores the
caller's buffer size and error state.

The build screens each symmetry class of pairs once.  A signed coordinate
permutation g of the box maps anchored sets to anchored sets, re-anchored,
and keeps |gA + gB| = |A + B|, |gA| = |A| and |gB| = |B|, so the screen and
every class test give a pair's whole orbit the same verdict.  With
search.set_images giving each g as a permutation of the set indices (each
set found by an integer key of its index row), the
build forms A_i+B_j only for the rows i that are least in their orbits,
against the columns j whose orbit minimum is at least i: every unordered
pair has an image of that form.  The columns are ordered by orbit minimum,
so each row's columns are a suffix.  The build is one sequential pass over
blocks of such rows, sized so that a block holds about _BLOCK_CELLS cells,
each row paired with every column from the block's first row on, each
shift writing in place into buffers allocated once per build for the
largest block.  Cells left of a row's suffix are real sumsets too, so the
Cauchy-Davenport check covers the whole block, and only their screen hits
are dropped.  Of a failing orbit's hits only its least pair, folded to
i <= j, is kept; it is mapped by every g and folded, and one sort of the
int64 keys i n + j (with the hit's class bits) lists the survivors once,
i-major.  On the 5x4 window at cardinality 4 the build forms
0.93M cells for its 3.21M pairs (709 of 2,532 rows), and on 6x6 22.0M for
164.3M.  The pairs it records, and so every verdict, depend only on the
box, the cardinality and the dimension served.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from math import prod
from typing import Optional, Sequence

import numpy as np

from .groups import GroupContext
from .search import anchored_sets, bit_index, canonical_subsets, set_images

Pt = tuple[int, ...]

MAX_V = 4  # the largest |V| the certificates of build_scan cover
# the (|V|, dim V) classes a scan lists failing survivors for: a V of at
# most two points is always certified, and v points span at most v-1 dimensions
CLASSES = tuple((v, k) for v in range(3, MAX_V + 1) for k in (1, 2) if k < v)
_BLOCK_CELLS = 1 << 15  # about this many uint64 cells (256 KiB) per numpy call: sums A+B, or rows of A+B+V in a recheck
_BUFSIZE = 1024  # numpy's ufunc buffer, in elements, inside the kernels (numpy's default is 8192)


def _small_buffer(kernel):
    """Run a bit-scan kernel with numpy's ufunc buffer at _BUFSIZE elements;
    leaving the errstate scope restores the caller's buffer size and error
    state (numpy >= 2.0).  numpy's buffered loops copy a broadcast operand
    through the buffer whenever a row is shorter than half of it, so with
    the default buffer a build shift on the 5x4 window, rows of 2,520
    columns, takes about 3.5 times as long as with this one."""
    @wraps(kernel)
    def run(*args, **kwargs):
        with np.errstate():
            np.setbufsize(_BUFSIZE)
            return kernel(*args, **kwargs)
    return run


def certified_size(s, v: int, dim: int):
    """A lower bound on |X+V| from s = |X| (an int or an int array), v = |V|
    and dim, the affine dimension of V, for X, V in a torsion-free group:
    s+v-1, and for dim >= 2 also Ruzsa's max(s,v) + 2 min(s,v) - 3."""
    bound = s + v - 1
    if dim >= 2:
        bound = np.maximum(bound, np.maximum(s, v) + 2 * np.minimum(s, v) - 3)
    return bound


def failure_tables(dim: int, width: int) -> dict[tuple[int, int], np.ndarray]:
    """Where the certificate of each class (v, dim) of CLASSES fails, as a
    boolean table over (|A+B|, |A||B|) for sets of at most `width` points:
    at every survivor for (MAX_V, dim), the screen's own certificate.
    |A+B| <= 128 in two words."""
    pop, ab = np.arange(129)[:, None], np.arange(width * width + 1)
    return {(v, k): certified_size(pop, v, k) ** 2 < v * v * ab for v, k in CLASSES if k == dim}


@dataclass
class ExhaustiveBetaScan:
    dims: tuple[int, ...]
    dim: int  # the dimension of the V of at least three points it serves
    sizes: np.ndarray  # each anchored set's size, in search.anchored_sets order
    masks: np.ndarray  # each set's bits, one uint64 word
    shifts: np.ndarray  # each set's bit offsets in order, padded to one width with its first
    # the surviving pairs (i, j), i-major, as int32 (n < 2^31 in any window that
    # fits in memory), and per class (v, dim) of CLASSES the survivors, in
    # order, whose certificate for it fails; the class (MAX_V, dim) is
    # (surv_i, surv_j)
    surv_i: np.ndarray
    surv_j: np.ndarray
    classes: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
    pair_count: int
    # per class, the rows of A+B of its pairs and their |A||B| (`_class_rows`),
    # formed by its first recheck; dataclasses.replace starts with none
    _rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def points_of(self, i: int) -> tuple[Pt, ...]:
        """Set i as a tuple of points, read off its bit offsets."""
        shifts = self.shifts[i, :self.sizes[i]]
        return tuple(zip(*(x.tolist() for x in np.unravel_index(shifts, sum_shape(self.dims), order="F"))))


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
    if prod(shape) > 128:  # the grid of A+B, in two words
        return "box too large for the two-word bit scan"
    v = len(set(v_points))
    if v > MAX_V:
        return f"|V| = {v} above the scan's certificate bound {MAX_V}"
    if v_points and max(p[0] for p in v_points) + shape[0] > 64:  # a row of A+B+V in one word
        return "V too wide for the exact recheck stride"
    return None


def _pack_sums(b: np.ndarray, columns, words: list[np.ndarray], tmp: np.ndarray) -> None:
    """Write the packed A+B of B's masks b into `words` (one or two uint64
    arrays), given A's bit offsets as one array per point of A in `columns`,
    each broadcast against b: word 0 ORs b << s and word 1 b >> (64 - s)
    over the offsets s (numpy shifts by 64 to 0, so s = 0 adds nothing to
    word 1).  tmp is scratch of the words' shape."""
    for k, s in enumerate(columns):
        for w, word in enumerate(words):
            shift, by = (np.right_shift, np.uint64(64) - s) if w else (np.left_shift, s)
            if k:
                word |= shift(b, by, out=tmp)
            else:
                shift(b, by, out=word)


def _class_rows(scan: ExhaustiveBetaScan, cls: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of A+B of the pairs of class `cls`, a (rows, pairs) array in
    the narrowest unsigned dtype that holds a row's 2w-1 bits (uint16 on the
    5x4 and 6x6 windows), and their |A||B| as uint16 (at most 64^2), formed
    on the class's first use and kept with the scan: every V of the class
    reads the same arrays.

    Row r is the 2w-1 bits from bit r(2w-1) of the pair's words.  With a zero
    word past the last, it is (w[k] >> s) | (w[k+1] << (64 - s)) for every
    row, straddling two words or not, as numpy shifts by 64 to 0."""
    if cls not in scan._rows:
        i, j = scan.classes[cls]
        width, *higher = sum_shape(scan.dims)
        rows = np.empty((prod(higher), len(i)), dtype=np.min_scalar_type((1 << width) - 1))
        row_mask = np.uint64((1 << width) - 1)
        # scratch, then the words of A+B and a zero word past them
        tmp, *words = (np.zeros(min(_BLOCK_CELLS, len(i)), dtype=np.uint64)
                       for _ in range(sum_words(scan.dims) + 2))
        for p0 in range(0, len(i), _BLOCK_CELLS):
            p1 = min(p0 + _BLOCK_CELLS, len(i))
            scratch, *w = (buf[:p1 - p0] for buf in (tmp, *words))
            columns = (scan.shifts[i[p0:p1], k] for k in range(scan.shifts.shape[1]))
            _pack_sums(scan.masks[j[p0:p1]], columns, w[:-1], scratch)
            for r in range(len(rows)):
                k, s = divmod(r * width, 64)
                bits = np.right_shift(w[k], np.uint64(s), out=scratch)
                bits |= w[k + 1] << np.uint64(64 - s)
                rows[r, p0:p1] = bits & row_mask
        scan._rows[cls] = rows, (scan.sizes[i] * scan.sizes[j]).astype(np.uint16)
    return scan._rows[cls]


def _sumset_sizes(rows: np.ndarray, width: int, v_points: Sequence[Pt]) -> np.ndarray:
    """|A+B+V| as int64 for each pair whose rows of A+B, `width` bits each,
    are a column of `rows` (`_class_rows`), for V given by its points (x,)
    or (x, y), min 0 per axis, at most one uint64 wide (`unsupported`).

    Row r of A+B+V ORs row r-y of A+B shifted by x over (x, y) in V, in the
    narrowest unsigned dtype of width + max x bits.  Its popcount is taken
    byte by byte, on a uint8 view, where numpy's bitwise_count is fastest:
    each byte column is summed over the rows in the narrowest dtype that
    holds 8 top, for the top rows of A+B+V, and a pair's bytes are then
    added.  A block holds about 8 _BLOCK_CELLS bytes of rows of A+B+V, so
    that the buffers stay in cache."""
    height = len(rows)
    at = [(p[0], p[1] if len(p) > 1 else 0) for p in v_points]
    dtype = np.min_scalar_type((1 << (width + max(x for x, _ in at))) - 1)
    size = dtype.itemsize
    top = height + max(y for _, y in at)  # the rows of A+B+V
    acc = np.min_scalar_type(8 * top)
    (x0, y0), *rest = ((dtype.type(x), y) for x, y in at)
    pairs = rows.shape[1]
    block = max(1, 8 * _BLOCK_CELLS // (top * size))
    tmp, out = (np.empty((k, min(block, pairs)), dtype=dtype) for k in (height, top))
    t = np.empty(pairs, dtype=np.int64)
    for p0 in range(0, pairs, block):
        p1 = min(p0 + block, pairs)
        o, sh = out[:, :p1 - p0], tmp[:, :p1 - p0]
        w = rows[:, p0:p1].astype(dtype, copy=False)
        # the first point writes its rows, and the others OR into theirs
        o[:y0] = o[y0 + height:] = 0
        np.left_shift(w, x0, out=o[y0:y0 + height])
        for x, y in rest:
            o[y:y + height] |= np.left_shift(w, x, out=sh)
        counts = np.bitwise_count(o.view(np.uint8)).sum(axis=0, dtype=acc)
        t[p0:p1] = counts[::size]
        for b in range(1, size):
            t[p0:p1] += counts[b::size]
    return t


def anchored_subsets(dims: Sequence[int], max_card: int) -> list[tuple[Pt, ...]]:
    """Nonempty box subsets with min coordinate 0 in every axis, sorted.

    These represent subsets of any translated box modulo translation.
    """
    return canonical_subsets(GroupContext(len(dims)), [(0, n - 1) for n in dims], max_card)


@_small_buffer
def build_scan(dims: Sequence[int], max_card: int, dim: int) -> ExhaustiveBetaScan:
    """One popcount pass over a pair of each symmetry class of canonical
    unordered pairs, block by block of rows, recording i-major every pair
    the integer certificate cannot clear for some V of dimension `dim` with
    |V| <= MAX_V, and, per class (|V|, dim) of CLASSES, the survivors it
    fails for (`ExhaustiveBetaScan.classes`).

    The screen tests the certificate of (MAX_V, dim).  A certificate failing
    at v fails at every larger v up to MAX_V, so no pair a V of this
    dimension needs is dropped: the collinear bound s+v-1 fails iff
    s-1 < v(sqrt(ab)-1), whose right side never decreases in v, and
    tests/test_bitscan.py checks both dimensions' tables at every width up
    to 64.  A 1-D V needs the collinear screen, which keeps far more pairs
    than Ruzsa's, so each dimension gets its own scan."""
    dims = tuple(dims)
    reason = unsupported(dims)
    if reason is not None:
        raise ValueError(reason)
    d = len(dims)
    if not 1 <= dim <= d:
        raise ValueError(f"a V of dimension {dim} does not fit a {d}-dimensional box")
    points, index, sizes = anchored_sets(GroupContext(d), [(0, k - 1) for k in dims], max_card)
    n = len(sizes)
    # each set's bits, padded to one width with its first
    shifts = bit_index(points, sum_shape(dims), d).astype(np.uint64)[index]
    masks = np.bitwise_or.reduce(np.uint64(1) << shifts, axis=1)
    width = shifts.shape[1]
    fails = failure_tables(dim, width)
    screen = (MAX_V, dim)
    others = [c for c in fails if c != screen]  # each a bit of a hit's class flags

    # The build's columns are the sets by orbit minimum, so the columns of
    # row i, the sets whose orbit minimum is >= i, are a suffix from its own
    # column; its rows are the sets least in their orbits.
    images = set_images(index, dims).astype(np.int32)  # n < 2^31, as surv_i
    least = images.min(axis=0)
    fixed = (images[1:] == images[0]).any(axis=0)  # by a map other than the identity
    order = np.argsort(least, kind="stable").astype(np.int32)
    rows = np.flatnonzero(least[order] == order)
    o_masks, o_shifts, o_sizes = masks[order], shifts[order], sizes[order]
    # A certificate failing at |A+B| fails below it too, so the screen fails iff
    # |A+B| < lim[|A| - 1, c], the count of its failing values, for B in column c.
    # |A+B| <= 128 and |A|, |B| <= 64: counts, limits, Cauchy-Davenport fit uint8.
    lim = fails[screen].sum(axis=0, dtype=np.uint8)[np.arange(1, width + 1)[:, None] * o_sizes]
    sizes8 = o_sizes.astype(np.uint8)

    # blocks of rows[r0:r1], each row paired with every column from rows[r0]
    # on, and buffers for the largest block's cells, reused by every block
    blocks = []
    r0 = 0
    while r0 < len(rows):
        r1 = min(len(rows), r0 + max(1, _BLOCK_CELLS // (n - rows[r0])))
        blocks.append((r0, r1))
        r0 = r1
    size = max((r1 - r0) * (n - rows[r0]) for r0, r1 in blocks)
    bufs = [np.empty(size, dtype=np.uint64) for _ in range(sum_words(dims) + 1)]

    # the hits (i, j) as set indices, with a bit per class of `others` it fails for
    hits = []
    for r0, r1 in blocks:
        rs, c0 = rows[r0:r1], rows[r0]
        shape = (r1 - r0, n - c0)
        tmp, *words = (buf[:shape[0] * shape[1]].reshape(shape) for buf in bufs)
        _pack_sums(o_masks[c0:], o_shifts[rs, :, None].transpose(1, 0, 2), words, tmp)
        pop = sum(np.bitwise_count(word) for word in words)
        # every cell is a real sumset A_i + B_j, left of a row's suffix too
        if not np.all(pop >= sizes8[rs, None] + sizes8[c0:] - 1):
            raise AssertionError(f"a sumset of the block from row {order[c0]} breaks Cauchy-Davenport")
        k = np.flatnonzero(pop < lim[o_sizes[rs] - 1, c0:])
        r, c = np.divmod(k, shape[1])
        keep = c + c0 >= rs[r]  # in the row's suffix
        i, j, k = order[rs[r[keep]]], order[c[keep] + c0], k[keep]
        pop, ab = pop.ravel()[k], sizes[i] * sizes[j]
        flags = np.zeros(len(k), dtype=np.uint8)
        for bit, cls in enumerate(others):
            flags[fails[cls][pop, ab]] |= 1 << bit
        hits.append((i, j, flags))
    del bufs, tmp, words

    # |A+B|, |A| and |B| are the same on a pair's whole orbit, and so are its
    # class flags.  A failing orbit is kept by one hit, its least pair folded
    # to i <= j, which every other hit of the orbit folds to under some map g.
    # As no image of i or j lies below i, such a g has g i = i or g j = i, so
    # only the hits whose row a map fixes, or whose column lies in the row's
    # orbit, are tested.  Each kept hit stands for its images under every
    # map, and one sort of the keys (i n + j, flags) lists every survivor
    # once, i-major
    i, j, flags = map(np.concatenate, zip(*hits))
    del hits
    t = np.flatnonzero(fixed[i] | (least[j] == i))
    a, b = images[:, i[t]], images[:, j[t]]
    below = np.minimum(a, b, dtype=np.int64) * n + np.maximum(a, b) < i[t] * np.int64(n) + j[t]
    i, j, flags = (np.delete(x, t[below.any(axis=0)]) for x in (i, j, flags))
    del t, a, b, below
    keys = np.empty((len(images), len(i)), dtype=np.int64)
    for key, image in zip(keys, images):
        a, b = image[i], image[j]
        np.minimum(a, b, out=key)
        key *= n
        key += np.maximum(a, b, out=a)
        key <<= len(others)
        key |= flags
        del a, b  # before the next map's
    del key, i, j
    keys = keys.ravel()
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    # split the keys into the survivors' flags and int32 pairs, with no int64 copy
    flags = np.empty(len(keys), dtype=np.uint8)
    np.bitwise_and(keys, (1 << len(others)) - 1, out=flags, casting="unsafe")
    keys >>= len(others)
    surv_i, surv_j = (np.empty(len(keys), dtype=np.int32) for _ in range(2))
    np.floor_divide(keys, n, out=surv_i, casting="unsafe")
    np.remainder(keys, n, out=surv_j, casting="unsafe")
    del keys
    classes = {screen: (surv_i, surv_j)}
    for bit, cls in enumerate(others):
        hit = (flags & (1 << bit)) != 0
        classes[cls] = (surv_i[hit], surv_j[hit])
    return ExhaustiveBetaScan(dims, dim, sizes, masks, shifts, surv_i, surv_j, classes, n * (n + 1) // 2)


def scan_dimension(v_points: Sequence[Pt]) -> Optional[int]:
    """The dimension of the scan that decides V, given by its distinct points
    in one or two free coordinates: None at |V| <= 2, which reads no scan,
    else 1 when every point lies on the line through the first two, else 2."""
    if len(v_points) < 3:
        return None
    (x0, y0), (x1, y1), *more = (tuple(p) + (0,) * (2 - len(p)) for p in v_points)
    return 1 if all((x1 - x0) * (y - y0) == (y1 - y0) * (x - x0) for x, y in more) else 2


@_small_buffer
def verify_subset_beta(scan: ExhaustiveBetaScan, v_points: Sequence[Pt]) -> dict:
    """Decide exactly whether min |A+B+V|^2 / (|A||B|) over the scanned
    pairs is |V|^2, attained at the singleton pair.

    V must be translated to nonnegative coordinates with min 0 per axis.
    The result holds `counterexample` (None when the minimum is |V|^2, else
    the A and B of the first minimum and its slack |A+B+V|^2 - |V|^2 |A||B|),
    `pair_count` and `checked_pairs`, the survivors rechecked for this V:
    those the build listed for V's (|V|, dim V) class, where its certificate
    (collinear, or Ruzsa's for 2-D V) fails, and none at |V| <= 2.
    ValueError for a V of at least three points whose dimension the scan
    does not serve.
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
    result = {"pair_count": scan.pair_count, "counterexample": None, "checked_pairs": 0}
    dim_v = scan_dimension(vpts)
    if dim_v is None:  # at most two points: every certificate holds
        return result
    if dim_v != scan.dim:
        raise ValueError(f"V is {dim_v}-dimensional, but the scan serves dimension {scan.dim}")
    # the pairs whose certificate fails for V's class
    i, j = scan.classes[(v, dim_v)]
    result["checked_pairs"] = len(i)
    if not len(i):
        return result
    rows, ab = _class_rows(scan, (v, dim_v))
    t = _sumset_sizes(rows, sum_shape(scan.dims)[0], vpts)
    slack = t * t - np.multiply(ab, v * v, dtype=np.int64)
    if slack.min() < 0:
        # the first minimum of t^2/ab, as pairs are stored i-major: t < 2^16 and
        # ab <= 2^12, so distinct ratios differ by far more than float rounding
        k = int(np.argmin(t * t / ab))
        result["counterexample"] = {
            "A": scan.points_of(i[k]),
            "B": scan.points_of(j[k]),
            "slack": int(slack[k]),
        }
    return result
