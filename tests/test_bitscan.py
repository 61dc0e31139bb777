"""The bit scan's build and its numpy survivor recheck against a brute-force
oracle."""

import dataclasses
import functools
import hashlib
import itertools
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sumsetlab import bitscan, laws
from sumsetlab.groups import GroupContext, PointSet, dimension, sumset
from sumsetlab.search import canonical_count

# window -> cardinality.  Rows of A+B in (3, 7) and (2, 12) leave the low
# word: row 12 of (3, 7) straddles both words (bits 60-64), and so does row
# 21 of (2, 12) (bits 63-65), whose row 22 lies in the high word alone.  A
# row of A+B spans 33 bits in (17, 2), so rows are kept as uint64.
WINDOWS = {(3, 3): 3, (4, 3): 3, (2, 5): 3, (3, 7): 2, (2, 12): 2, (17, 2): 2}


def scanned(windows):
    """Each window as a test parameter, named with the dimension of the V
    its scan serves."""
    return [pytest.param(dims, id=f"{dims} dim 2") for dims in windows]


@functools.lru_cache(maxsize=None)
def scan_of(dims):
    """The scan of a window, at its WINDOWS cardinality, else at 4."""
    return bitscan.build_scan(dims, WINDOWS.get(dims, 4))


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


def certificate(s, v):
    """The lower bound on |X+V| the recheck may rely on for a 2-D V, from
    s = |X| and v = |V|: the larger of s+v-1 and Ruzsa's max(s,v) + 2 min(s,v) - 3."""
    return max(s + v - 1, max(s, v) + 2 * min(s, v) - 3)


def oracle(dims, V):
    """The counterexample (A, B, slack), None when the law holds, and the
    number of pairs certificate(|A+B|, v)^2 >= v^2|A||B| leaves unproved at
    v >= 3, by brute force: A and B attain the first minimum of
    |A+B+V|^2 / (|A||B|) over all pairs, compared exactly, and the slack is
    |A+B+V|^2 - v^2|A||B| there."""
    sets, ctx, pairs = window(dims)
    U = PointSet.of(ctx, V)
    v = len(U)
    size_of = {}
    best = None
    unproved = 0
    for i, j, ab, AB in pairs:
        if AB.points not in size_of:
            size_of[AB.points] = len(sumset(AB, U))
        ratio = Fraction(size_of[AB.points] ** 2, ab)
        if best is None or ratio < best[0]:
            best = (ratio, sets[i], sets[j], size_of[AB.points] ** 2 - v * v * ab)
        unproved += v > 2 and certificate(len(AB), v) ** 2 < v * v * ab
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
    return {(k % stride, k // stride) for k in range(128) if word >> k & 1}


@pytest.mark.parametrize("dims", scanned(sorted(WINDOWS)))
def test_build_matches_brute_force(dims):
    # survivors are the pairs, i-major, that the certificate leaves
    # unproved at some v in [2, MAX_V] (none at v = 2, so CLASSES starts at
    # 3); each class v lists, in the same order, the survivors whose
    # certificate fails; and the packed words `_pack_sums` forms for a
    # survivor decode to its A+B
    scan = scan_of(dims)
    sets, _, pairs = window(dims)
    unsafe = [
        (i, j, ab, AB) for i, j, ab, AB in pairs
        if any(certificate(len(AB), v) ** 2 < v * v * ab for v in range(2, bitscan.MAX_V + 1))
    ]
    assert scan_sets(scan) == sets
    assert list(zip(scan.surv_i.tolist(), scan.surv_j.tolist())) == [(i, j) for i, j, _, _ in unsafe]
    assert sorted(scan.classes) == list(bitscan.CLASSES)
    for v, (ci, cj) in scan.classes.items():
        assert list(zip(ci.tolist(), cj.tolist())) == [
            (i, j) for i, j, ab, AB in unsafe if certificate(len(AB), v) ** 2 < v * v * ab
        ]
    words = packed_sums(scan, scan.surv_i, scan.surv_j)
    assert len(words) == bitscan.sum_words(dims)
    for k, (_, _, _, AB) in enumerate(unsafe):
        assert decode(dims, [w[k] for w in words]) == set(AB.points)


@pytest.mark.parametrize("dims, words", [
    ((11, 2), 1), ((12, 2), 2), ((5, 4), 1), ((4, 4), 1), ((3, 3), 1), ((4, 5), 1), ((5, 5), 2), ((3, 7), 2),
])
def test_one_word_boundary(dims, words):
    # A+B spans one word when its grid, 2k-1 cells along an axis k wide, has
    # at most 64 cells: 63 for 11x2 (21x3), 5x4 (9x7) and 4x5, 69 for 12x2
    # (23x3) and 65 for 3x7 (5x13)
    assert bitscan.sum_words(dims) == words


@pytest.mark.parametrize("cells", [1, 37, 4099])
@pytest.mark.parametrize("dims", scanned(sorted(WINDOWS) + [(5, 4)]))
def test_block_height_changes_nothing(monkeypatch, dims, cells):
    # one row per block (cells = 1), and blocks of one to many rows whose
    # boundaries fall elsewhere than the default's (37, 4099), give the
    # default build's survivors and class lists; (3, 7) and (2, 12) hold sums
    # that straddle the two words, and 5x4 fits one
    card = WINDOWS.get(dims, 4)
    default = scan_of(dims)
    monkeypatch.setattr(bitscan, "_BLOCK_CELLS", cells)
    scan = bitscan.build_scan(dims, card)
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

points, index, sizes = np.zeros((1, 2), dtype=np.int64), np.zeros((1, 2), dtype=np.intp), np.array([2])
bitscan.anchored_sets = lambda ctx, box, card: (points, index, sizes)
try:
    bitscan.build_scan((3, 3), 2)
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
    dims = draw(st.sampled_from(sorted(WINDOWS)))
    grid = list(itertools.product(range(4), range(3)))
    pts = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4, unique=True))
    mins = [min(p[k] for p in pts) for k in range(2)]
    return dims, tuple(tuple(c - m for c, m in zip(p, mins)) for p in pts)


@given(cases())
@example(((3, 7), ((0, 0), (0, 1), (0, 2))))
@example(((3, 7), ((0, 0), (2, 6), (4, 12))))
@example(((3, 7), ((0, 0), (1, 0), (0, 1), (1, 1))))
@example(((2, 12), ((0, 0), (1, 0), (2, 0), (0, 1))))  # three collinear points in a 2-D V
@example(((17, 2), ((0, 0), (1, 0), (0, 1))))  # rows of A+B of 33 bits, in uint64
@example(((4, 3), ((0, 0), (1, 0), (0, 1), (1, 1))))
@settings(max_examples=40, deadline=None)
def test_recheck_matches_brute_force(case):
    # a 2-D V, or one of at most two points, gets the brute force's verdict
    # and count of unproved pairs; a collinear V of three or more points,
    # which the scan's certificate does not cover, is refused
    dims, V = case
    if len(V) > 2 and dimension(PointSet.of(GroupContext(2), V)) < 2:
        with pytest.raises(ValueError, match="collinear$"):
            bitscan.verify_subset_beta(scan_of(dims), V)
        return
    res = bitscan.verify_subset_beta(scan_of(dims), V)
    counterexample, unproved = oracle(dims, V)
    assert res["checked_pairs"] == unproved
    ce = res["counterexample"]
    assert (None if ce is None else (ce["A"], ce["B"], ce["slack"])) == counterexample


TRIANGLE = ((0, 0), (0, 1), (1, 0))
PAIR = ((0, 0), (1, 0))


def forged(pairs):
    """The 3x3 scan with its class 3 forged to the pairs (A, B, X), in order,
    whose cached rows read each pair's A+B as X, with the pair's real |A||B|.
    No real pair fails for a 2-D V of 3-4 points in [0,6]x[0,12] on any
    window here, so a counterexample of a 2-D V must be forged."""
    scan = scan_of((3, 3))
    where = {scan.points_of(m): m for m in range(len(scan.sizes))}
    i, j = (np.array([where[p[k]] for p in pairs], dtype=np.int32) for k in (0, 1))
    _, height = bitscan.sum_shape(scan.dims)
    rows = np.zeros((height, len(pairs)), dtype=np.uint8)
    for k, (_, _, X) in enumerate(pairs):
        for x, y in X:
            rows[y, k] |= 1 << x
    twin = dataclasses.replace(scan, classes={**scan.classes, 3: (i, j)})
    twin._rows[3] = rows, np.array([len(A) * len(B) for A, B, _ in pairs], dtype=np.uint16)
    return twin


def test_pinned_counterexample():
    # one forged pair, A = B = {0, (1, 0)} read as A+B = {0}: the triangle V
    # gives |A+B+V| = |V| = 3, and 3^2 - 3^2 * 2 * 2 = -27
    scan = forged([(PAIR, PAIR, [(0, 0)])])
    assert bitscan.verify_subset_beta(scan, TRIANGLE) == {
        "pair_count": scan.pair_count, "checked_pairs": 1,
        "counterexample": {"A": PAIR, "B": PAIR, "slack": -27},
    }


def test_counterexample_minimizes_the_ratio():
    # two forged pairs for the triangle V: A = B = V read as A+B = {0, (1, 0)}
    # gives |A+B+V|^2 / 9 = 5^2 / 9, whose slack 5^2 - 3^2 * 9 = -56 is the
    # lower, and A = B = {0, (1, 0)} read as A+B = {0} gives 3^2 / 4, below
    # it; the ratio's minimum is named, with its slack 3^2 - 3^2 * 4
    scan = forged([(TRIANGLE, TRIANGLE, [(0, 0), (1, 0)]), (PAIR, PAIR, [(0, 0)])])
    res = bitscan.verify_subset_beta(scan, TRIANGLE)
    assert res["checked_pairs"] == 2
    assert res["counterexample"] == {"A": PAIR, "B": PAIR, "slack": -27}


@pytest.mark.parametrize("plain_first", [True, False])
def test_counterexample_is_first_minimum(plain_first):
    # two forged pairs that tie at the minimum, (A, B) and (A, B'), each
    # read as A+B = {0}: both give |A+B+V| = 3 for the triangle V and slack
    # 3^2 - 3^2 * 4, and the pair stored first is named
    A, B, B2 = PAIR, ((0, 0), (0, 1)), ((0, 1), (1, 0))
    pairs = [(A, B, [(0, 0)]), (A, B2, [(0, 0)])]
    res = bitscan.verify_subset_beta(forged(pairs if plain_first else pairs[::-1]), TRIANGLE)
    assert res["checked_pairs"] == 2
    assert res["counterexample"] == {"A": A, "B": B if plain_first else B2, "slack": 9 - 9 * 4}


@pytest.mark.parametrize("dims", scanned(sorted(WINDOWS)))
def test_cached_rows_decode_to_the_sumsets(dims):
    # each class's cached row r of a pair is row r of its A+B from
    # groups.sumset, in a word of A+B or straddling two, as in (3, 7) and
    # (2, 12).  Its cached |A||B| is the pair's
    scan = scan_of(dims)
    _, _, pairs = window(dims)
    sumsets = {(i, j): AB for i, j, _, AB in pairs}
    products = {(i, j): ab for i, j, ab, _ in pairs}
    for cls, (ci, cj) in scan.classes.items():
        rows, ab = bitscan._class_rows(scan, cls)
        assert rows.shape == (bitscan.sum_shape(dims)[1], len(ci))
        assert ab.dtype == np.uint16 and ab.tolist() == [products[p] for p in zip(ci.tolist(), cj.tolist())]
        for k, (i, j) in enumerate(zip(ci.tolist(), cj.tolist())):
            got = {(x, r) for r, row in enumerate(rows[:, k].tolist()) for x in range(64) if row >> x & 1}
            assert got == set(sumsets[i, j].points)


@pytest.mark.parametrize("cells", [1, 37, 4099])
def test_recheck_block_changes_nothing(monkeypatch, cells):
    # the 6x6 scan's class 4 holds 27,975 pairs; a fresh cache is filled in
    # blocks of that many pairs, past the first block at every size here, and
    # the unit square's |A+B+V| is read in blocks of that many uint64 cells
    # (4 pairs a cell at twelve uint16 rows of A+B+V a pair: 1, 12 and 1,366
    # pairs a block)
    scan = scan_of((6, 6))
    V = [(0, 0), (1, 0), (0, 1), (1, 1)]
    width = bitscan.sum_shape(scan.dims)[0]
    rows, ab = bitscan._class_rows(scan, 4)
    want = bitscan._sumset_sizes(rows, width, V)
    monkeypatch.setattr(bitscan, "_BLOCK_CELLS", cells)
    fresh = dataclasses.replace(scan)
    assert not fresh._rows and len(fresh.classes[4][0]) == 27975
    for got, old in zip(bitscan._class_rows(fresh, 4), (rows, ab)):
        assert got.dtype == old.dtype and np.array_equal(got, old)
    assert np.array_equal(bitscan._sumset_sizes(fresh._rows[4][0], width, V), want)


# (window, dimension of V, V, dtype of the rows of A+B, of a row of A+B+V,
# and of the per-byte column sums): rows of A+B in uint8, uint16 and uint64
# words, and sums in uint8 (8 top <= 255) and uint16, the latter on (2, 12),
# whose collinear V spans rows 0..22 of A+B+V past the 23 of A+B: top = 45,
# 8 top = 360
SIZE_CASES = [
    ((3, 3), 2, ((0, 0), (1, 0), (0, 1)), np.uint8, np.uint8, np.uint8),
    ((3, 3), 2, ((0, 0), (2, 1), (1, 2), (2, 2)), np.uint8, np.uint8, np.uint8),
    ((5, 4), 2, ((0, 0), (1, 0), (0, 1), (1, 1)), np.uint16, np.uint16, np.uint8),
    ((17, 2), 2, ((0, 0), (1, 0), (0, 1)), np.uint64, np.uint64, np.uint8),
    ((2, 12), 1, ((0, 0), (1, 11), (2, 22)), np.uint8, np.uint8, np.uint16),
]


@pytest.mark.parametrize("dims, dim, V, rows_type, out_type, sum_type", SIZE_CASES, ids=str)
def test_sumset_sizes_match_groups_sumset(dims, dim, V, rows_type, out_type, sum_type):
    # _sumset_sizes gives |A+B+V| for every pair of every class, read off
    # the class's cached rows, as groups.sumset does; V need not be of the
    # class, or 2-D, here: the rows alone are read
    scan = scan_of(dims)
    width, height = bitscan.sum_shape(dims)
    top = height + max(y for _, y in V)
    assert np.min_scalar_type((1 << (width + max(x for x, _ in V))) - 1) == out_type
    assert np.min_scalar_type(8 * top) == sum_type
    ctx = GroupContext(2)
    U = PointSet.of(ctx, V)
    assert dimension(U) == dim
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
        scan = bitscan.build_scan((4, 3), 3)
        assert (np.getbufsize(), np.geterr()) == state
        assert bitscan.verify_subset_beta(scan, TRIANGLE)["checked_pairs"]
        assert (np.getbufsize(), np.geterr()) == state
        assert seen and set(seen) == {bitscan._BUFSIZE}
        with pytest.raises(ValueError):
            bitscan.build_scan((6,), 4)
        assert (np.getbufsize(), np.geterr()) == state
        with pytest.raises(ValueError):
            bitscan.verify_subset_beta(scan, [(1, 1), (2, 1), (1, 2)])
        assert (np.getbufsize(), np.geterr()) == state


def test_second_v_of_a_class_forms_no_sums(monkeypatch):
    # the rows of a class are formed once, by its first V; the second V of
    # the class reads them and calls _pack_sums no more
    scan = bitscan.build_scan((5, 4), 4)
    calls = []
    pack = bitscan._pack_sums
    monkeypatch.setattr(bitscan, "_pack_sums", lambda *args: calls.append(1) or pack(*args))
    first = bitscan.verify_subset_beta(scan, [(0, 0), (1, 0), (0, 1)])
    assert calls
    calls.clear()
    second = bitscan.verify_subset_beta(scan, [(0, 0), (1, 0), (1, 1)])
    assert not calls
    assert first["checked_pairs"] == second["checked_pairs"] > 0


def test_build_peak_stays_near_the_survivors():
    # the 5x4 build keeps 5,175 survivors.  Its 1,940 screened hits, 1,566
    # of them least among their folded images, stand for their orbits under
    # the box's 4 maps: 6,264 keys, sorted once.  The peak was 1.02 MiB, 0.94
    # MiB of it in search.set_images on the 2,532 sets
    tracemalloc.start()
    try:
        scan = bitscan.build_scan((5, 4), 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scan.surv_i) == 5175
    assert peak < 1.3 * 2**20, peak


def test_orbit_keys_peak_stays_near_the_survivors():
    # the 6x6 window at cardinality 4 keeps 27,975 survivors from 4,065
    # orbit representatives, of 4,864 screened hits, under the box's 8 maps:
    # 32,520 int64 keys (254 KiB).  The peak was 7.50 MiB, 6.86 MiB of it in
    # search.set_images on the 18,126 sets
    tracemalloc.start()
    try:
        scan = bitscan.build_scan((6, 6), 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scan.surv_i) == 27975
    assert peak < 9 * 2**20, peak


# sha256 of each scan's surv_i, surv_j and class arrays, by class in order,
# each with its dtype, at cardinality 4, as the build made them before the
# window was enumerated as arrays
SCAN_DIGESTS = {
    (5, 4): "14c4d7c6796b788ca24d41da7e3d1cce1eb04f1e9fe93479485670658d1e74d5",
    (5, 5): "ba055707cf67413321a984a9db04c21bae862af6080a316017fb12197faf61f8",
    (6, 6): "debf0d1237ae5592b241cc3500ccb30ba548b92821e83638637fe6dc1c99b9c4",
}


@pytest.mark.parametrize("dims", sorted(SCAN_DIGESTS), ids=str)
def test_scan_arrays_are_pinned(dims):
    scan = scan_of(dims)
    digest = hashlib.sha256()
    for a in [scan.surv_i, scan.surv_j, *(a for c in sorted(scan.classes) for a in scan.classes[c])]:
        digest.update(a.dtype.str.encode() + a.tobytes())
    assert digest.hexdigest() == SCAN_DIGESTS[dims]


def test_screen_limit_matches_the_closed_form():
    # the scan screens at the count of |A+B| values whose MAX_V certificate
    # fails.  That count is a closed form in exact integer roots, capped at
    # 129, past the largest |A+B| of two words: Ruzsa's s + 2v - 3 at s >= v
    # fails iff s <= isqrt(v^2 ab - 1) - 2v + 3, and at s < v,
    # v + s - 1 + max(0, s - 2) is counted value by value
    v = bitscan.MAX_V

    def closed(ab):
        small = sum((v + s - 1 + max(0, s - 2)) ** 2 < v * v * ab for s in range(v))
        return min(129, small + max(0, isqrt(v * v * ab - 1) - 3 * v + 4))

    for width in range(1, 65):
        limit = bitscan.failure_tables(width)[v].sum(axis=0)
        assert limit.tolist() == [0] + [closed(ab) for ab in range(1, width * width + 1)]


def test_screen_is_the_union_of_its_classes():
    # a failing certificate fails at every smaller |A+B|, so each table is a
    # threshold on |A+B|, and v's lies within MAX_V's: the union of the
    # class tables is the screen, MAX_V's, at every width one word of A holds
    for width in range(1, 65):
        tables = bitscan.failure_tables(width)
        assert sorted(tables) == list(bitscan.CLASSES)
        for fails in tables.values():
            assert np.array_equal(fails, np.arange(129)[:, None] < fails.sum(axis=0))
        assert np.array_equal(np.logical_or.reduce(list(tables.values())), tables[bitscan.MAX_V])


def test_screen_class_is_not_stored():
    # MAX_V's certificate is the build's screen, so its class is every
    # survivor; the scan keeps no second copy of its pairs
    scan = scan_of((5, 4))
    ci, cj = scan.classes[bitscan.MAX_V]
    assert ci is scan.surv_i and cj is scan.surv_j


def held_bytes(scan):
    """The bytes of the distinct ndarrays a scan's fields hold."""
    held = {id(a): a for f in dataclasses.fields(scan) for a in ndarrays(getattr(scan, f.name))}
    return sum(a.nbytes for a in held.values())


def test_scan_retains_pairs_only():
    # a freshly built 5x4 scan at cardinality 4 keeps its 5,175 survivors as
    # (i, j) and its 2,532 sets' sizes, masks and offsets: 0.16 MiB of
    # ndarrays.  (The scans of scan_of are rechecked by other tests, and so
    # hold rows.)
    scan = bitscan.build_scan((5, 4), 4)
    assert len(scan.surv_i) == 5175
    assert held_bytes(scan) < 0.25 * 2**20


def test_rechecked_scan_keeps_rows_only():
    # a recheck keeps the 7 rows of A+B (9 bits each, in a uint16) of each
    # pair of its class on 5x4, 2 bytes per row per pair, and the pair's
    # |A||B| in a uint16, and nothing more: after one V per class,
    # 16 x (5,175 + 75) bytes
    scan = bitscan.build_scan((5, 4), 4)
    fresh = held_bytes(scan)
    for V in [TRIANGLE, [(0, 0), (1, 0), (0, 1), (1, 1)]]:
        bitscan.verify_subset_beta(scan, V)
    assert sorted(scan._rows) == sorted(scan.classes)
    kept = 0
    for cls, (rows, ab) in scan._rows.items():
        pairs = len(scan.classes[cls][0])
        assert rows.dtype == ab.dtype == np.uint16 and rows.shape == (7, pairs) and ab.shape == (pairs,)
        kept += 2 * 8 * pairs
    assert kept == 16 * (5175 + 75) and held_bytes(scan) == fresh + kept


def ndarrays(value):
    """The ndarrays a value holds, through dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    return [a for v in value for a in ndarrays(v)] if isinstance(value, (list, tuple)) else []


@pytest.mark.parametrize("dims, scanned", [
    ((6, 6), True), ((7, 5), True), ((9, 4), True), ((13, 3), True),
    ((6, 7), False), ((7, 6), False), ((10, 4), False), ((14, 3), False),
])
def test_two_word_boundary(dims, scanned):
    # the far corner of A+B, bit (2w-2) + (2h-2)(2w-1), must lie in bits 0-127
    too_large = "box too large for the two-word bit scan"
    assert bitscan.unsupported(dims) == (None if scanned else too_large)
    if not scanned:
        with pytest.raises(ValueError, match=too_large):
            bitscan.build_scan(dims, 1)


def test_square_recheck_count():
    # of the 3,206,778 pairs of the 5x4 window, Ruzsa's bound leaves 5,175
    # unproved for the unit square (s+v-1 alone would leave 228,851), as a
    # brute force with `certificate` over every pair counts
    res = bitscan.verify_subset_beta(scan_of((5, 4)), [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert res["counterexample"] is None and res["checked_pairs"] == 5175


@pytest.mark.parametrize("dims", sorted(WINDOWS) + [(5, 4), (5,), (6,), (32,), (33,)], ids=str)
def test_pair_count_is_canonical_count(dims):
    # a verdict's note counts the n(n+1)/2 unordered pairs of its window's n
    # anchored sets, the n that search.canonical_count gives without
    # listing: a 2-D scan screens them, and a 1-D box, which has no scan,
    # counts them for a V of at most two points
    card = WINDOWS.get(dims, 4)
    n = canonical_count(GroupContext(len(dims)), [(0, k - 1) for k in dims], card)
    assert len(bitscan.anchored_subsets(dims, card)) == n
    assert laws._pair_count(dims, card) == n * (n + 1) // 2
    if len(dims) == 2:
        scan = scan_of(dims)
        assert len(scan.sizes) == n and scan.pair_count == n * (n + 1) // 2


@pytest.mark.parametrize("V", [[(0, 0), (1, 0), (2, 0)], [(0, 0), (1, 1), (2, 2), (3, 3)]])
def test_recheck_refuses_collinear_v(V):
    # the scan's classes cover 2-D V only, so a collinear V of three or
    # more points is refused, not given no pairs
    with pytest.raises(ValueError, match="collinear$"):
        bitscan.verify_subset_beta(scan_of((3, 3)), V)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("V", [[(0, 0)], [(0, 0), (1, 1)]])
def test_two_points_need_no_recheck(dim, V):
    # at |V| <= 2 every certificate holds, so V needs no pair: a 1-D box,
    # which has no scan, takes it, and the 2-D scan decides it with no pair
    box, V = (3, 3)[:dim], [p[:dim] for p in V]
    assert bitscan.unsupported(box, V) is None
    if dim == 1:
        assert bitscan.unsupported(box) == "bit scan builds 2-D boxes only"
        return
    scan = scan_of(box)
    res = bitscan.verify_subset_beta(scan, V)
    assert res == {"pair_count": scan.pair_count, "counterexample": None, "checked_pairs": 0}


@pytest.mark.parametrize("dims, reason", [
    ((5,), "bit scan builds 2-D boxes only"), ((2, 2, 2), "bit scan supports dimensions 1 and 2 only"),
], ids=str)
def test_build_refuses_a_box_that_is_not_2d(dims, reason):
    # a 1-D box holds no 2-D V; a V of at most two points in it reads no scan
    assert bitscan.unsupported(dims) == reason
    with pytest.raises(ValueError, match=reason):
        bitscan.build_scan(dims, 2)


@st.composite
def certificate_cases(draw):
    # X in Z^2 with |X| <= 12, and a 2-D V of 3-4 points.  The bound is
    # claimed for 2-D V only: for a collinear V Ruzsa's term can pass |X+V|,
    # as X = {0..3} x {0} and V = {0, 1, 2} x {0} give |X+V| = 6 < 4 + 2 * 3 - 3
    coord = st.integers(-4, 4)
    X = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12, unique=True))
    V = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=4, unique=True))
    assume(dimension(PointSet.of(GroupContext(2), V)) == 2)
    return GroupContext(2), X, V


@given(certificate_cases())
@example((GroupContext(2), [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 0), (1, 0), (0, 1), (1, 1)]))
@example((GroupContext(2), [(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 0), (1, 0), (0, 1)]))
@settings(max_examples=300, deadline=None)
def test_certified_size_is_a_lower_bound(case):
    ctx, X, V = case
    X, V = PointSet.of(ctx, X), PointSet.of(ctx, V)
    assert len(sumset(X, V)) >= bitscan.certified_size(len(X), len(V))
