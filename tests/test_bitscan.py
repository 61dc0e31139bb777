"""The bit scan's build and its numpy survivor recheck against a brute-force
oracle."""

import dataclasses
import functools
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumsetlab import bitscan
from sumsetlab.groups import GroupContext, PointSet, dimension, sumset

# window -> cardinality.  Rows of A+B in the last two windows leave the low
# word: row 12 of (3, 7) straddles both words (bits 60-64), and so does row
# 21 of (2, 12) (bits 63-65), whose row 22 lies in the high word alone.
WINDOWS = {(5,): 4, (6,): 4, (3, 3): 3, (4, 3): 3, (2, 5): 3, (3, 7): 2, (2, 12): 2}


@functools.lru_cache(maxsize=None)
def window(dims):
    """The scan of a window, and every anchored pair (i <= j) of its sets in
    i-major order with |A||B| and A+B built by `groups.sumset`."""
    scan = bitscan.build_scan(dims, WINDOWS[dims])
    ctx = GroupContext(len(dims))
    sets = [PointSet.of(ctx, s) for s in scan.sets]
    pairs = [
        (i, j, len(sets[i]) * len(sets[j]), sumset(sets[i], sets[j]))
        for i, j in itertools.combinations_with_replacement(range(len(sets)), 2)
    ]
    return scan, ctx, pairs


def certificate(s, v, dim):
    """The lower bound on |X+V| the recheck may rely on, from s = |X|, v = |V|
    and dim V: s+v-1, and Ruzsa's max(s,v) + 2 min(s,v) - 3 for 2-D V."""
    return max(s + v - 1, max(s, v) + 2 * min(s, v) - 3) if dim == 2 else s + v - 1


def oracle(dims, V):
    """holds, the counterexample's (A, B, slack) and the number of pairs
    certificate(|A+B|, v, dim V)^2 >= v^2|A||B| leaves unproved, by brute
    force: the first minimum of |A+B+V|^2 - v^2|A||B| over all pairs."""
    scan, ctx, pairs = window(dims)
    U = PointSet.of(ctx, V)
    v = len(U)
    dim = dimension(U)
    size_of = {}
    best = None
    unproved = 0
    for i, j, ab, AB in pairs:
        if AB.points not in size_of:
            size_of[AB.points] = len(sumset(AB, U))
        slack = size_of[AB.points] ** 2 - v * v * ab
        if best is None or slack < best[0]:
            best = (slack, scan.sets[i], scan.sets[j])
        unproved += v > 1 and certificate(len(AB), v, dim) ** 2 < v * v * ab
    holds = best[0] >= 0
    return holds, None if holds else (best[1], best[2], best[0]), unproved


def decode(dims, lo, hi):
    """The points whose bits are set in a survivor's two packed words."""
    stride = 2 * dims[0] - 1
    word = int(lo) | int(hi) << 64
    bits = [k for k in range(128) if word >> k & 1]
    return {(k,) if len(dims) == 1 else (k % stride, k // stride) for k in bits}


@pytest.mark.parametrize("dims", sorted(WINDOWS), ids=str)
def test_build_matches_brute_force(dims):
    # survivors are the pairs, i-major, the collinear certificate leaves
    # unproved at some v in [2, MAX_V]; each keeps |A+B| and the words of
    # A+B, and each (v, dim) class lists, ascending, the survivors whose
    # certificate fails, for dim <= d
    scan, _, pairs = window(dims)
    unsafe = [
        (i, j, ab, AB) for i, j, ab, AB in pairs
        if any((len(AB) + v - 1) ** 2 < v * v * ab for v in range(2, bitscan.MAX_V + 1))
    ]
    assert list(zip(scan.surv_i.tolist(), scan.surv_j.tolist())) == [(i, j) for i, j, _, _ in unsafe]
    assert scan.surv_pop.tolist() == [len(AB) for _, _, _, AB in unsafe]
    for c, (v, dim) in enumerate(bitscan.CLASSES):
        assert scan.flagged(c).tolist() == [
            k for k, (_, _, ab, AB) in enumerate(unsafe)
            if dim <= len(dims) and certificate(len(AB), v, dim) ** 2 < v * v * ab
        ]
    for k, (_, _, _, AB) in enumerate(unsafe):
        assert decode(dims, scan.surv_lo[k], scan.surv_hi[k]) == set(AB.points)


SCAN_FIELDS = ("surv_i", "surv_j", "surv_pop", "surv_ab", "surv_lo", "surv_hi",
               "class_rows", "class_bounds")


@pytest.mark.parametrize("cells", [1, 37, 4099])
@pytest.mark.parametrize("dims", sorted(WINDOWS) + [(5, 4)], ids=str)
def test_block_height_changes_nothing(monkeypatch, dims, cells):
    # one row per block (cells = 1), and blocks of one to many rows whose
    # boundaries fall elsewhere than the default's (37, 4099), give the
    # default build's arrays; (3, 7) and (2, 12) hold sums that straddle the
    # two words
    card = WINDOWS.get(dims, 4)
    default = scan_5x4() if dims == (5, 4) else window(dims)[0]
    monkeypatch.setattr(bitscan, "_BLOCK_CELLS", cells)
    scan = bitscan.build_scan(dims, card)
    for f in SCAN_FIELDS:
        got, want = getattr(scan, f), getattr(default, f)
        assert got.dtype == want.dtype and np.array_equal(got, want), f


# anchored_subsets patched to hand the build a "set" {0, 0} of size 2 whose
# mask holds one bit, so |A+A| = 1 < 2 + 2 - 1
BROKEN_SETS = """
import sys
from sumsetlab import bitscan

bitscan.anchored_subsets = lambda dims, card: [((0,), (0,))]
try:
    bitscan.build_scan((5,), 4)
except AssertionError as err:
    print(sys.flags.optimize, err)
"""


def test_cauchy_davenport_check_runs_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_SETS],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert "Cauchy-Davenport" in done.stdout and done.stdout.startswith("1 "), done.stdout


@st.composite
def cases(draw):
    dims = draw(st.sampled_from(sorted(WINDOWS)))
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
@example(((4, 3), ((0, 0), (1, 0), (0, 1), (1, 1))))
@settings(max_examples=40, deadline=None)
def test_recheck_matches_brute_force(case):
    dims, V = case
    scan, _, _ = window(dims)
    res = bitscan.verify_subset_beta(scan, V)
    holds, counterexample, unproved = oracle(dims, V)
    assert res["holds"] == holds
    assert res["checked_pairs"] == unproved
    if holds:
        assert res["counterexample"] is None
    else:
        ce = res["counterexample"]
        assert (ce["A"], ce["B"], ce["slack"]) == counterexample


def test_pinned_counterexample():
    scan, _, _ = window((5,))
    res = bitscan.verify_subset_beta(scan, [(2,), (0,), (1,)])
    assert res["holds"] is False and res["checked_pairs"] == 77
    # |A+B+V| = |{0..8}| = 9 and 9^2 - 3^2 * 4 * 4 = -63
    assert res["counterexample"] == {
        "A": ((0,), (1,), (2,), (3,)),
        "B": ((0,), (1,), (2,), (3,)),
        "V": ((0,), (1,), (2,)),
        "slack": -63,
    }


@pytest.mark.parametrize("ce_first", [True, False])
def test_counterexample_is_first_minimum(ce_first):
    # the counterexample's words stored twice, under its own (i, j) and under
    # another survivor's, tie at the minimum: the first label stored is named
    scan, _, _ = window((6,))
    V = [(0,), (1,), (2,)]
    ce = bitscan.verify_subset_beta(scan, V)["counterexample"]
    k = next(k for k in range(len(scan.surv_i))
             if (scan.sets[scan.surv_i[k]], scan.sets[scan.surv_j[k]]) == (ce["A"], ce["B"]))
    other = 0 if k else 1
    labels = [k, other] if ce_first else [other, k]
    # each class lists both twins or neither, as it lists survivor k or not
    rows = [np.flatnonzero(np.isin([k, k], scan.flagged(c))) for c in range(len(bitscan.CLASSES))]
    twin = dataclasses.replace(
        scan,
        surv_i=scan.surv_i[labels], surv_j=scan.surv_j[labels],
        **{f: getattr(scan, f)[[k, k]]
           for f in ("surv_pop", "surv_ab", "surv_lo", "surv_hi")},
        class_rows=np.concatenate(rows),
        class_bounds=np.cumsum([0] + [len(r) for r in rows]),
    )
    res = bitscan.verify_subset_beta(twin, V)
    first = labels[0]
    assert res["checked_pairs"] == 2
    assert res["counterexample"] == {
        "A": scan.sets[scan.surv_i[first]],
        "B": scan.sets[scan.surv_j[first]],
        "V": ce["V"],
        "slack": ce["slack"],
    }


@functools.lru_cache(maxsize=None)
def scan_5x4():
    return bitscan.build_scan((5, 4), 4)


def test_recheck_streams_rows():
    # the collinear {0,..,3} x {0} rechecks all 228,851 survivors of the 5x4
    # scan (its certificate is the build's screen); built one output row at a
    # time the peak was 14.0 MB, against 35-40 MB when every row of A+B and of
    # A+B+V is held at once.  No collinear V of four points is a quasicube,
    # and this one fails at A = B = V: |A+B+V| = 10 < 4 * 4
    scan = scan_5x4()
    tracemalloc.start()
    try:
        res = bitscan.verify_subset_beta(scan, [(0, 0), (1, 0), (2, 0), (3, 0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not res["holds"] and res["checked_pairs"] == len(scan.surv_i) == 228851
    assert peak < 20 * 2**20, peak


def test_screen_class_is_not_stored():
    # (MAX_V, 1)'s certificate is the build's screen, so its class is every
    # survivor; the scan keeps no list for it (1.75 MB of int64 on 5x4)
    scan = scan_5x4()
    k = bitscan.SCREEN_CLASS
    assert bitscan.CLASSES[k] == (bitscan.MAX_V, 1)
    assert scan.class_bounds[k + 1] == scan.class_bounds[k]
    assert np.array_equal(scan.flagged(k), np.arange(len(scan.surv_i)))


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
            bitscan.build_scan(dims, 1)


def test_square_recheck_count():
    # of the 3,206,778 pairs of the 5x4 window, Ruzsa's bound leaves 5,175
    # unproved for the unit square (the collinear bound leaves all 228,851
    # survivors), as a brute force with `certificate` over every pair counts
    res = bitscan.verify_subset_beta(scan_5x4(), [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert res["holds"] and res["checked_pairs"] == 5175


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
