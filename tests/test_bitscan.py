"""The bit scan's build and its numpy survivor recheck against a brute-force
oracle."""

import dataclasses
import functools
import hashlib
import itertools
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumsetlab import bitscan
from sumsetlab.groups import GroupContext, PointSet, dimension, sumset
from sumsetlab.search import canonical_count

# window -> cardinality.  Rows of A+B in (3, 7) and (2, 12) leave the low
# word: row 12 of (3, 7) straddles both words (bits 60-64), and so does row
# 21 of (2, 12) (bits 63-65), whose row 22 lies in the high word alone.  A+B
# spans 63 bits, one word, in (32,) and 65 bits, two words, in (33,).
WINDOWS = {(5,): 4, (6,): 4, (3, 3): 3, (4, 3): 3, (2, 5): 3, (3, 7): 2, (2, 12): 2,
           (32,): 2, (33,): 2}
# the windows whose recheck takes every V that `cases` draws: a row of
# A+B+V must fit one word, which leaves V at most 1 wide in (32,) and no V
# in (33,)
RECHECK_WINDOWS = sorted(set(WINDOWS) - {(32,), (33,)})


def window_dims(windows):
    """Each window with each dimension of V it holds, named by the window
    alone for 1-D V."""
    return [pytest.param(dims, dim, id=str(dims) if dim == 1 else f"{dims} dim {dim}")
            for dims in windows for dim in (1, 2) if dim <= len(dims)]


@functools.lru_cache(maxsize=None)
def scan_of(dims, dim):
    """The scan of a window for the V of dimension dim."""
    return bitscan.build_scan(dims, WINDOWS[dims], dim)


def scan_sets(scan):
    """Every set of a scan as a tuple of points."""
    return [scan.points_of(m) for m in range(len(scan.sizes))]


@functools.lru_cache(maxsize=None)
def window(dims):
    """A window's anchored sets, its group, and every pair (i <= j) of its
    sets in i-major order with |A||B| and A+B built by `groups.sumset`."""
    sets = bitscan.anchored_subsets(dims, WINDOWS[dims])
    ctx = GroupContext(len(dims))
    points = [PointSet.of(ctx, s) for s in sets]
    pairs = [
        (i, j, len(points[i]) * len(points[j]), sumset(points[i], points[j]))
        for i, j in itertools.combinations_with_replacement(range(len(sets)), 2)
    ]
    return sets, ctx, pairs


def certificate(s, v, dim):
    """The lower bound on |X+V| the recheck may rely on, from s = |X|, v = |V|
    and dim V: s+v-1, and Ruzsa's max(s,v) + 2 min(s,v) - 3 for 2-D V."""
    return max(s + v - 1, max(s, v) + 2 * min(s, v) - 3) if dim == 2 else s + v - 1


def oracle(dims, V):
    """The counterexample (A, B, slack), None when the law holds, and the
    number of pairs certificate(|A+B|, v, dim V)^2 >= v^2|A||B| leaves
    unproved, by brute force: A and B attain the first minimum of
    |A+B+V|^2 / (|A||B|) over all pairs, compared exactly, and the slack is
    |A+B+V|^2 - v^2|A||B| there."""
    sets, ctx, pairs = window(dims)
    U = PointSet.of(ctx, V)
    v = len(U)
    dim = dimension(U)
    size_of = {}
    best = None
    unproved = 0
    for i, j, ab, AB in pairs:
        if AB.points not in size_of:
            size_of[AB.points] = len(sumset(AB, U))
        ratio = Fraction(size_of[AB.points] ** 2, ab)
        if best is None or ratio < best[0]:
            best = (ratio, sets[i], sets[j], size_of[AB.points] ** 2 - v * v * ab)
        unproved += v > 1 and certificate(len(AB), v, dim) ** 2 < v * v * ab
    return None if best[0] >= v * v else best[1:], unproved


def packed_sums(scan, i, j):
    """The packed words of A+B for the pairs (i, j), one array per word, from
    `bitscan._pack_sums` with one offset column per point of A."""
    tmp, *words = (np.empty(len(i), dtype=np.uint64) for _ in range(bitscan.sum_words(scan.dims) + 1))
    bitscan._pack_sums(scan.masks[j], list(scan.shifts[i].T), words, tmp)
    return words


def decode(dims, words):
    """The points whose bits are set in a pair's packed words."""
    stride = 2 * dims[0] - 1
    word = sum(int(w) << 64 * k for k, w in enumerate(words))
    bits = [k for k in range(128) if word >> k & 1]
    return {(k,) if len(dims) == 1 else (k % stride, k // stride) for k in bits}


@pytest.mark.parametrize("dims, dim", window_dims(sorted(WINDOWS)))
def test_build_matches_brute_force(dims, dim):
    # survivors are the pairs, i-major, that the certificate of V's
    # dimension leaves unproved at some v in [2, MAX_V] (none at v = 2, so
    # CLASSES starts at 3); each class (v, dim) lists, in the same order,
    # the survivors whose certificate fails; and the packed words
    # `_pack_sums` forms for a survivor decode to its A+B
    scan = scan_of(dims, dim)
    sets, _, pairs = window(dims)
    unsafe = [
        (i, j, ab, AB) for i, j, ab, AB in pairs
        if any(certificate(len(AB), v, dim) ** 2 < v * v * ab for v in range(2, bitscan.MAX_V + 1))
    ]
    assert scan_sets(scan) == sets and scan.dim == dim
    assert list(zip(scan.surv_i.tolist(), scan.surv_j.tolist())) == [(i, j) for i, j, _, _ in unsafe]
    assert sorted(scan.classes) == [c for c in bitscan.CLASSES if c[1] == dim]
    for (v, k), (ci, cj) in scan.classes.items():
        assert list(zip(ci.tolist(), cj.tolist())) == [
            (i, j) for i, j, ab, AB in unsafe if certificate(len(AB), v, k) ** 2 < v * v * ab
        ]
    words = packed_sums(scan, scan.surv_i, scan.surv_j)
    assert len(words) == bitscan.sum_words(dims)
    for k, (_, _, _, AB) in enumerate(unsafe):
        assert decode(dims, [w[k] for w in words]) == set(AB.points)


@pytest.mark.parametrize("dims, words", [
    ((32,), 1), ((33,), 2), ((5, 4), 1), ((4, 4), 1), ((3, 3), 1), ((4, 5), 1), ((5, 5), 2), ((3, 7), 2),
])
def test_one_word_boundary(dims, words):
    # A+B spans one word when its grid, 2k-1 cells along an axis k wide, has
    # at most 64 cells: 63 for (32,), 5x4 (9x7) and 4x5, 65 for (33,) and 3x7 (5x13)
    assert bitscan.sum_words(dims) == words


@pytest.mark.parametrize("cells", [1, 37, 4099])
@pytest.mark.parametrize("dims, dim", window_dims(sorted(WINDOWS) + [(5, 4)]))
def test_block_height_changes_nothing(monkeypatch, dims, dim, cells):
    # one row per block (cells = 1), and blocks of one to many rows whose
    # boundaries fall elsewhere than the default's (37, 4099), give the
    # default build's survivors and class lists; (3, 7) and (2, 12) hold sums
    # that straddle the two words, and (32,) and (33,) lie either side of the
    # one-word switch
    card = WINDOWS.get(dims, 4)
    default = scan_5x4(dim) if dims == (5, 4) else scan_of(dims, dim)
    monkeypatch.setattr(bitscan, "_BLOCK_CELLS", cells)
    scan = bitscan.build_scan(dims, card, dim)
    pairs = [("surv_i", scan.surv_i, default.surv_i), ("surv_j", scan.surv_j, default.surv_j)]
    assert scan.classes.keys() == default.classes.keys()
    for c in scan.classes:
        pairs += [(c, got, want) for got, want in zip(scan.classes[c], default.classes[c])]
    for name, got, want in pairs:
        assert got.dtype == want.dtype and np.array_equal(got, want), name


# anchored_sets patched to hand the build a "set" {0, 0} of size 2 whose
# mask holds one bit, so |A+A| = 1 < 2 + 2 - 1
BROKEN_SETS = """
import sys
import numpy as np
from sumsetlab import bitscan

points, index, sizes = np.zeros((1, 1), dtype=np.int64), np.zeros((1, 2), dtype=np.intp), np.array([2])
bitscan.anchored_sets = lambda ctx, box, card: (points, index, sizes)
try:
    bitscan.build_scan((5,), 4, 1)
except AssertionError as err:
    print(sys.flags.optimize, err)
"""


def test_cauchy_davenport_check_runs_under_optimize(src_env):
    done = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_SETS],
        capture_output=True, text=True, timeout=300, env=src_env,
    )
    assert done.returncode == 0, done.stderr
    assert "Cauchy-Davenport" in done.stdout and done.stdout.startswith("1 "), done.stdout


@st.composite
def cases(draw):
    dims = draw(st.sampled_from(RECHECK_WINDOWS))
    grid = [(x,) for x in range(6)] if len(dims) == 1 else list(
        itertools.product(range(4), range(3)))
    pts = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4, unique=True))
    mins = [min(p[k] for p in pts) for k in range(len(dims))]
    return dims, tuple(tuple(c - m for c, m in zip(p, mins)) for p in pts)


@given(cases())
@example(((5,), ((0,), (1,), (2,))))  # {0,1,2} is no quasicube: the law fails
@example(((6,), ((0,), (1,), (3,), (4,))))
@example(((3, 7), ((0, 0), (0, 1), (0, 2))))
@example(((3, 7), ((0, 0), (2, 6), (4, 12))))  # fails at A = B = {0, (2, 6)}
@example(((2, 12), ((0, 0), (1, 11), (2, 22))))  # fails at A = B = {0, (1, 11)}
@example(((3, 7), ((0, 0), (1, 0), (0, 1), (1, 1))))
@example(((32,), ((0,), (1,))))  # a one-word window whose rows of A+B+V fill 64 bits
@example(((4, 3), ((0, 0), (1, 0), (0, 1), (1, 1))))
@settings(max_examples=40, deadline=None)
def test_recheck_matches_brute_force(case):
    dims, V = case
    dim = dimension(PointSet.of(GroupContext(len(dims)), V))
    res = bitscan.verify_subset_beta(scan_of(dims, max(dim, 1)), V)
    counterexample, unproved = oracle(dims, V)
    assert res["checked_pairs"] == unproved
    ce = res["counterexample"]
    assert (None if ce is None else (ce["A"], ce["B"], ce["slack"])) == counterexample


def test_pinned_counterexample():
    res = bitscan.verify_subset_beta(scan_of((5,), 1), [(2,), (0,), (1,)])
    assert res["checked_pairs"] == 77
    # |A+B+V| = |{0..8}| = 9 and 9^2 - 3^2 * 4 * 4 = -63
    assert res["counterexample"] == {
        "A": ((0,), (1,), (2,), (3,)),
        "B": ((0,), (1,), (2,), (3,)),
        "slack": -63,
    }


def test_counterexample_minimizes_the_ratio():
    # V = {0, 4, 8}: A = B = V gives |A+B+V|^2 / 9 = 7^2 / 9, below the
    # 15^2 / 36 of A = B = {0, 2, .., 10}, whose slack 15^2 - 3^2 * 36 = -99
    # is the lower; the ratio's minimum is named, with its slack 7^2 - 3^2 * 9
    res = bitscan.verify_subset_beta(bitscan.build_scan((12,), 6, 1), [(0,), (4,), (8,)])
    assert res["checked_pairs"] == 5714
    AB = ((0,), (4,), (8,))
    assert res["counterexample"] == {"A": AB, "B": AB, "slack": -32}


@pytest.mark.parametrize("plain_first", [True, False])
def test_counterexample_is_first_minimum(plain_first):
    # a twin scan of four sets holds two pairs that tie at the minimum: (A, B)
    # and its mirror image (A, B') under x -> -x, each set re-anchored, since
    # V = {0, 1, 2} is symmetric.  Both give |A+B+V| = |{0..9}| = 10, slack
    # 10^2 - 3^2 * 16, and the pair stored first is named
    scan = scan_of((6,), 1)
    where = {scan.points_of(m): m for m in range(len(scan.sizes))}
    A, B, B2 = ((0,), (1,), (2,), (3,)), ((0,), (1,), (2,), (4,)), ((0,), (2,), (3,), (4,))
    stored = [where[s] for s in (A, B, A, B2)]
    twin_i, twin_j = np.array([0, 2]), np.array([1, 3])
    if not plain_first:
        twin_i, twin_j = twin_i[::-1], twin_j[::-1]
    twin = dataclasses.replace(
        scan, sizes=scan.sizes[stored], masks=scan.masks[stored], shifts=scan.shifts[stored],
        surv_i=twin_i, surv_j=twin_j, classes={c: (twin_i, twin_j) for c in scan.classes},
    )
    res = bitscan.verify_subset_beta(twin, [(0,), (1,), (2,)])
    assert res["checked_pairs"] == 2
    assert res["counterexample"] == {"A": A, "B": B if plain_first else B2, "slack": 10 * 10 - 9 * 16}


@pytest.mark.parametrize("dims, dim", window_dims(sorted(set(WINDOWS) - {(33,)})))
def test_cached_rows_decode_to_the_sumsets(dims, dim):
    # each class's cached row r of a pair is row r of its A+B from
    # groups.sumset, in a word of A+B or straddling two, as in (3, 7) and
    # (2, 12); a row of (33,) spans 65 bits, which no recheck reads.  Its
    # cached |A||B| is the pair's
    scan = scan_of(dims, dim)
    _, _, pairs = window(dims)
    sumsets = {(i, j): AB for i, j, _, AB in pairs}
    products = {(i, j): ab for i, j, ab, _ in pairs}
    for cls, (ci, cj) in scan.classes.items():
        rows, ab = bitscan._class_rows(scan, cls)
        assert rows.shape == (math.prod(bitscan.sum_shape(dims)[1:]), len(ci))
        assert ab.dtype == np.uint16 and ab.tolist() == [products[p] for p in zip(ci.tolist(), cj.tolist())]
        for k, (i, j) in enumerate(zip(ci.tolist(), cj.tolist())):
            got = {(x,) if len(dims) == 1 else (x, r)
                   for r, row in enumerate(rows[:, k].tolist()) for x in range(64) if row >> x & 1}
            assert got == set(sumsets[i, j].points)


@pytest.mark.parametrize("cells", [1, 37, 4099])
def test_recheck_block_changes_nothing(monkeypatch, cells):
    # V = {0, 4, 8} on (12,) names the 5,533rd of its class's 5,714 pairs;
    # a fresh cache is filled in blocks of that many pairs, past the first
    # block at every size here, and read in blocks of that many uint64 cells
    # (2 pairs a cell at one uint32 row of A+B+V a pair: 2, 74 and 8,198)
    scan = bitscan.build_scan((12,), 6, 1)
    V = [(0,), (4,), (8,)]
    want = bitscan.verify_subset_beta(scan, V)
    monkeypatch.setattr(bitscan, "_BLOCK_CELLS", cells)
    fresh = dataclasses.replace(scan)
    assert not fresh._rows
    assert bitscan.verify_subset_beta(fresh, V) == want
    for got, want in zip(fresh._rows[(3, 1)], scan._rows[(3, 1)]):
        assert np.array_equal(got, want)


# (window, dim, V, dtype of the rows of A+B, of a row of A+B+V, and of the
# per-byte column sums): rows of A+B in uint8, uint16 and uint64 words, and
# sums in uint8 (8 top <= 255) and uint16, the latter on (2, 12), whose V
# spans rows 0..22 of A+B+V past the 23 of A+B: top = 45, 8 top = 360
SIZE_CASES = [
    ((3, 3), 2, ((0, 0), (1, 0), (0, 1)), np.uint8, np.uint8, np.uint8),
    ((3, 3), 2, ((0, 0), (2, 1), (1, 2), (2, 2)), np.uint8, np.uint8, np.uint8),
    ((5, 4), 2, ((0, 0), (1, 0), (0, 1), (1, 1)), np.uint16, np.uint16, np.uint8),
    ((32,), 1, ((0,), (1,)), np.uint64, np.uint64, np.uint8),
    ((2, 12), 1, ((0, 0), (1, 11), (2, 22)), np.uint8, np.uint8, np.uint16),
]


@pytest.mark.parametrize("dims, dim, V, rows_type, out_type, sum_type", SIZE_CASES, ids=str)
def test_sumset_sizes_match_groups_sumset(dims, dim, V, rows_type, out_type, sum_type):
    # _sumset_sizes gives |A+B+V| for every pair of every class, read off
    # the class's cached rows, as groups.sumset does; V need not be of the
    # class or of the scan's dimension here, the rows alone are read
    scan = scan_5x4(dim) if dims == (5, 4) else scan_of(dims, dim)
    width, *higher = bitscan.sum_shape(dims)
    top = math.prod(higher) + max(p[-1] for p in V) * (len(dims) > 1)
    assert np.min_scalar_type((1 << (width + max(p[0] for p in V))) - 1) == out_type
    assert np.min_scalar_type(8 * top) == sum_type
    ctx = GroupContext(len(dims))
    U = PointSet.of(ctx, V)
    sets = {}

    def of(m):
        if m not in sets:
            sets[m] = PointSet.of(ctx, scan.points_of(m))
        return sets[m]

    for cls, (ci, cj) in scan.classes.items():
        rows, _ = bitscan._class_rows(scan, cls)
        assert rows.dtype == rows_type
        got = bitscan._sumset_sizes(rows, width, V)
        assert got.dtype == np.int64
        assert got.tolist() == [len(sumset(sumset(of(i), of(j)), U)) for i, j in zip(ci.tolist(), cj.tolist())]


def test_kernels_leave_numpy_state_as_they_found_it(monkeypatch):
    # the kernels run with numpy's ufunc buffer at _BUFSIZE, and the
    # caller's buffer size and error state are back when they return or raise
    seen = []
    pack = bitscan._pack_sums
    monkeypatch.setattr(bitscan, "_pack_sums", lambda *args: seen.append(np.getbufsize()) or pack(*args))
    with np.errstate(over="raise", under="warn"):
        np.setbufsize(4096)
        state = np.getbufsize(), np.geterr()
        scan = bitscan.build_scan((6,), 4, 1)
        assert (np.getbufsize(), np.geterr()) == state
        assert bitscan.verify_subset_beta(scan, [(0,), (1,), (2,)])["counterexample"]
        assert (np.getbufsize(), np.geterr()) == state
        assert seen and set(seen) == {bitscan._BUFSIZE}
        with pytest.raises(ValueError):
            bitscan.build_scan((6,), 4, 2)
        assert (np.getbufsize(), np.geterr()) == state
        with pytest.raises(ValueError):
            bitscan.verify_subset_beta(scan, [(1,), (2,), (3,)])
        assert (np.getbufsize(), np.geterr()) == state


def test_second_v_of_a_class_forms_no_sums(monkeypatch):
    # the rows of a class are formed once, by its first V; the second V of
    # the class reads them and calls _pack_sums no more
    scan = bitscan.build_scan((5, 4), 4, 2)
    calls = []
    pack = bitscan._pack_sums
    monkeypatch.setattr(bitscan, "_pack_sums", lambda *args: calls.append(1) or pack(*args))
    first = bitscan.verify_subset_beta(scan, [(0, 0), (1, 0), (0, 1)])
    assert calls
    calls.clear()
    second = bitscan.verify_subset_beta(scan, [(0, 0), (1, 0), (1, 1)])
    assert not calls
    assert first["checked_pairs"] == second["checked_pairs"] > 0


@functools.lru_cache(maxsize=None)
def scan_5x4(dim):
    return bitscan.build_scan((5, 4), 4, dim)


def test_recheck_streams_rows():
    # the collinear {0,..,3} x {0} rechecks all 228,851 survivors of the 5x4
    # scan for 1-D V (its certificate is the build's screen); built one
    # output row at a time, from words formed one offset column at a time,
    # the peak was 12.8 MB, against 35-40 MB when every row of A+B and of
    # A+B+V is held at once.  No collinear V of four points is a quasicube,
    # and this one fails at A = B = V: |A+B+V| = 10 < 4 * 4
    scan = scan_5x4(1)
    tracemalloc.start()
    try:
        res = bitscan.verify_subset_beta(scan, [(0, 0), (1, 0), (2, 0), (3, 0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res["counterexample"] and res["checked_pairs"] == len(scan.surv_i) == 228851
    assert peak < 20 * 2**20, peak


def test_build_peak_stays_near_the_survivors():
    # the 5x4 build for 1-D V keeps 228,851 survivors, the most of any window
    # here.  Its 76,529 screened hits stand for their orbits under the box's
    # 4 maps: 306,116 keys, sorted once.  The peak was 5.3 MiB, against 4.3
    # MiB for the build that screened every pair, and 14.9 MiB when every hit
    # was expanded by every map with no care for copies
    tracemalloc.start()
    try:
        scan = bitscan.build_scan((5, 4), 4, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scan.surv_i) == 228851
    assert peak < 6.5 * 2**20, peak


def test_orbit_keys_peak_stays_near_the_survivors():
    # the 1-D window (12,) at cardinality 6 keeps 328,170 survivors from
    # 165,394 orbit representatives (|G| = 2).  Expanding every screened hit
    # by every map peaked at 8.66 MiB; with one hit per orbit, and the
    # images gathered as int32, it peaks near 6.2 MiB
    tracemalloc.start()
    try:
        scan = bitscan.build_scan((12,), 6, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scan.surv_i) == 328170
    assert peak < 6.5 * 2**20, peak


# sha256 of each scan's surv_i, surv_j and class arrays, (v, dim) in order,
# each with its dtype, as the build made them before the window was
# enumerated as arrays
SCAN_DIGESTS = {
    ((5, 4), 4, 1): "f1f9a504dd5e1a5f90e9a9d584871ed627d1c856c8094bca3f1dd52061a98bb6",
    ((5, 4), 4, 2): "14c4d7c6796b788ca24d41da7e3d1cce1eb04f1e9fe93479485670658d1e74d5",
    ((5, 5), 4, 1): "1a952f3fb9cfa8d094d22dfeff133c0b0d876007073df121f8744678821b62dd",
    ((5, 5), 4, 2): "ba055707cf67413321a984a9db04c21bae862af6080a316017fb12197faf61f8",
    ((6, 6), 4, 1): "1cfefa94e91a3bee859d999285a6d55020280b2717e51aa42e60ab315757abf5",
    ((6, 6), 4, 2): "debf0d1237ae5592b241cc3500ccb30ba548b92821e83638637fe6dc1c99b9c4",
    ((12,), 6, 1): "1bbfde54f2317c0114c321760ada51d83f3edaf0d427f77cc84c94b3a3e56145",
}


@pytest.mark.parametrize("dims, card, dim", sorted(SCAN_DIGESTS), ids=str)
def test_scan_arrays_are_pinned(dims, card, dim):
    scan = scan_5x4(dim) if (dims, card) == ((5, 4), 4) else bitscan.build_scan(dims, card, dim)
    digest = hashlib.sha256()
    for a in [scan.surv_i, scan.surv_j, *(a for c in sorted(scan.classes) for a in scan.classes[c])]:
        digest.update(a.dtype.str.encode() + a.tobytes())
    assert digest.hexdigest() == SCAN_DIGESTS[dims, card, dim]


@pytest.mark.parametrize("dim", [1, 2])
def test_screen_limit_matches_the_closed_form(dim):
    # the scan for V of dimension dim screens at the count of |A+B| values
    # whose (MAX_V, dim) certificate fails.  That count is a closed form in
    # exact integer roots, capped at 129, past the largest |A+B| of two
    # words.  Collinear: (s + v - 1)^2 < v^2 ab iff s < ceil(v sqrt(ab)) - v + 1.
    # Ruzsa's: s + 2v - 3 at s >= v fails iff s <= isqrt(v^2 ab - 1) - 2v + 3,
    # and at s < v, v + s - 1 + max(0, s - 2) is counted value by value
    v = bitscan.MAX_V

    def closed(ab):
        if dim == 1:
            return min(129, max(0, isqrt(v * v * ab - 1) + 2 - v))
        small = sum((v + s - 1 + max(0, s - 2)) ** 2 < v * v * ab for s in range(v))
        return min(129, small + max(0, isqrt(v * v * ab - 1) - 3 * v + 4))

    for width in range(1, 65):
        limit = bitscan.failure_tables(dim, width)[(v, dim)].sum(axis=0)
        assert limit.tolist() == [0] + [closed(ab) for ab in range(1, width * width + 1)]


@pytest.mark.parametrize("dim", [1, 2])
def test_screen_is_the_union_of_its_classes(dim):
    # a failing certificate fails at every smaller |A+B|, so each table is a
    # threshold on |A+B|, and (v, dim)'s lies within (MAX_V, dim)'s: the
    # union of a scan's class tables is its screen, (MAX_V, dim), at every
    # width one word of A holds
    for width in range(1, 65):
        tables = bitscan.failure_tables(dim, width)
        assert sorted(tables) == [c for c in bitscan.CLASSES if c[1] == dim]
        for fails in tables.values():
            assert np.array_equal(fails, np.arange(129)[:, None] < fails.sum(axis=0))
        assert np.array_equal(np.logical_or.reduce(list(tables.values())), tables[(bitscan.MAX_V, dim)])


def test_screen_class_is_not_stored():
    # (MAX_V, dim)'s certificate is the build's screen, so its class is every
    # survivor; the scan keeps no second copy of its pairs (1.7 MiB of int32
    # on 5x4 for 1-D V)
    for dim in (1, 2):
        ci, cj = scan_5x4(dim).classes[(bitscan.MAX_V, dim)]
        assert ci is scan_5x4(dim).surv_i and cj is scan_5x4(dim).surv_j


def held_bytes(scan):
    """The bytes of the distinct ndarrays a scan's fields hold."""
    held = {id(a): a for f in dataclasses.fields(scan) for a in ndarrays(getattr(scan, f.name))}
    return sum(a.nbytes for a in held.values())


def test_scan_retains_pairs_only():
    # a freshly built 5x4 scan at cardinality 4 keeps its survivors as (i, j)
    # and its 2,532 sets' sizes, masks and offsets.  For 1-D V that is
    # 228,851 survivors and 1.9 MiB of ndarrays, where keeping each
    # survivor's |A+B|, |A||B| and two packed words took 10.5 MiB; a 2-D V
    # reads Ruzsa's bound alone, which leaves 5,175 survivors and 0.16 MiB.  (The
    # scans of scan_5x4 are rechecked by other tests, and so hold rows.)
    for dim, survivors, mib in [(1, 228851, 4), (2, 5175, 0.25)]:
        scan = bitscan.build_scan((5, 4), 4, dim)
        assert len(scan.surv_i) == survivors
        assert held_bytes(scan) < mib * 2**20


@pytest.mark.parametrize("dim, vs", [
    (1, [[(0, 0), (1, 0), (2, 0)], [(0, 0), (1, 0), (2, 0), (3, 0)]]),
    (2, [[(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1), (1, 1)]]),
])
def test_rechecked_scan_keeps_rows_only(dim, vs):
    # a recheck keeps the 7 rows of A+B (9 bits each, in a uint16) of each
    # pair of its class on 5x4, 2 bytes per row per pair, and the pair's
    # |A||B| in a uint16, and nothing more: after one V per class, 16 x
    # (228,851 + 3,761) bytes (3.5 MiB) for 1-D V and 16 x (5,175 + 75) for
    # 2-D V
    scan = bitscan.build_scan((5, 4), 4, dim)
    fresh = held_bytes(scan)
    for V in vs:
        bitscan.verify_subset_beta(scan, V)
    assert sorted(scan._rows) == sorted(scan.classes)
    kept = 0
    for cls, (rows, ab) in scan._rows.items():
        pairs = len(scan.classes[cls][0])
        assert rows.dtype == ab.dtype == np.uint16 and rows.shape == (7, pairs) and ab.shape == (pairs,)
        kept += 2 * 8 * pairs
    assert held_bytes(scan) == fresh + kept


def ndarrays(value):
    """The ndarrays a value holds, through dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    return [a for v in value for a in ndarrays(v)] if isinstance(value, (list, tuple)) else []


@pytest.mark.parametrize("dims, scanned", [
    ((6, 6), True), ((7, 5), True), ((9, 4), True), ((64,), True),
    ((6, 7), False), ((7, 6), False), ((10, 4), False), ((65,), False),
])
def test_two_word_boundary(dims, scanned):
    # the far corner of A+B, bit (2w-2) + (2h-2)(2w-1), must lie in bits 0-127
    too_large = "box too large for the two-word bit scan"
    assert bitscan.unsupported(dims) == (None if scanned else too_large)
    if not scanned:
        with pytest.raises(ValueError, match=too_large):
            bitscan.build_scan(dims, 1, 1)


def test_square_recheck_count():
    # of the 3,206,778 pairs of the 5x4 window, Ruzsa's bound leaves 5,175
    # unproved for the unit square (the collinear bound would leave 228,851),
    # as a brute force with `certificate` over every pair counts
    res = bitscan.verify_subset_beta(scan_5x4(2), [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert res["counterexample"] is None and res["checked_pairs"] == 5175


@pytest.mark.parametrize("dims", sorted(WINDOWS) + [(5, 4)], ids=str)
def test_pair_count_is_canonical_count(dims):
    # every scan of a window screens the n(n+1)/2 unordered pairs of its n
    # anchored sets, the n that search.canonical_count gives without listing
    card = WINDOWS.get(dims, 4)
    n = canonical_count(GroupContext(len(dims)), [(0, k - 1) for k in dims], card)
    for dim in range(1, len(dims) + 1):
        scan = scan_5x4(dim) if dims == (5, 4) else scan_of(dims, dim)
        assert len(scan.sizes) == n and scan.pair_count == n * (n + 1) // 2


@pytest.mark.parametrize("dim, V", [
    (1, [(0, 0), (1, 0), (0, 1)]),
    (2, [(0, 0), (1, 0), (2, 0)]),
    (2, [(0, 0), (1, 1), (2, 2), (3, 3)]),
])
def test_recheck_refuses_another_dimension(dim, V):
    # a scan lists the classes of one dimension of V only, so a V of three
    # or more points of the other dimension is refused, not given no pairs
    with pytest.raises(ValueError, match=f"serves dimension {dim}$"):
        bitscan.verify_subset_beta(scan_of((3, 3), dim), V)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("V", [[(0, 0)], [(0, 0), (1, 1)]])
def test_two_points_need_no_recheck(dim, V):
    # at |V| <= 2 every certificate holds, so either scan decides V with no pair
    scan = scan_of((3, 3), dim)
    res = bitscan.verify_subset_beta(scan, V)
    assert res == {"pair_count": scan.pair_count, "counterexample": None, "checked_pairs": 0}


@pytest.mark.parametrize("dims, dim", [((5,), 2), ((5,), 0), ((3, 3), 3), ((3, 3), 0)], ids=str)
def test_build_refuses_a_dimension_the_box_lacks(dims, dim):
    with pytest.raises(ValueError, match=f"dimension {dim} does not fit a {len(dims)}-dimensional box"):
        bitscan.build_scan(dims, 2, dim)


@st.composite
def certificate_cases(draw):
    # X in Z^2 with |X| <= 12, V of 1-4 points: collinear V along a drawn
    # direction, any V (mostly 2-D), or X and V in Z
    kind = draw(st.sampled_from(["line", "plane", "z"]))
    coord = st.integers(-4, 4)
    if kind == "z":
        X = draw(st.lists(st.tuples(coord), min_size=1, max_size=12, unique=True))
        V = draw(st.lists(st.tuples(coord), min_size=1, max_size=4, unique=True))
        return GroupContext(1), X, V
    X = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12, unique=True))
    if kind == "line":
        step = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (1, 3)]))
        ts = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
        V = [(t * step[0], t * step[1]) for t in ts]
    else:
        V = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4, unique=True))
    return GroupContext(2), X, V


@given(certificate_cases())
@example((GroupContext(2), [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 0), (1, 0), (0, 1), (1, 1)]))
@example((GroupContext(2), [(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 0), (1, 0), (0, 1)]))
@settings(max_examples=300, deadline=None)
def test_certified_size_is_a_lower_bound(case):
    ctx, X, V = case
    X, V = PointSet.of(ctx, X), PointSet.of(ctx, V)
    assert len(sumset(X, V)) >= bitscan.certified_size(len(X), len(V), dimension(V))
