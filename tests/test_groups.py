"""Group arithmetic, sumsets, dimension, compression along a free coordinate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab.groups import (
    GroupContext,
    PointSet,
    compress,
    dimension,
    iterated_sumset,
    sumset,
)

Z1 = GroupContext(1)
Z2 = GroupContext(2)


def ps(ctx, pts):
    return PointSet.of(ctx, pts)


def pts_of(A):
    return set(A.points)


class TestSumset:
    def test_interval(self):
        A = ps(Z1, [(0,), (1,)])
        assert pts_of(sumset(A, A)) == {(0,), (1,), (2,)}

    def test_independent_directions(self):
        A = ps(Z2, [(0, 0), (1, 0)])
        B = ps(Z2, [(0, 0), (0, 1)])
        assert pts_of(sumset(A, B)) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_mod2_wraparound(self):
        # Z x Z_2: layout is (free, torsion)
        ctx = GroupContext(1, (2,))
        A = ps(ctx, [(0, 0), (0, 1)])
        B = ps(ctx, [(0, 1)])
        assert pts_of(sumset(A, B)) == {(0, 1), (0, 0)}

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            sumset(ps(Z1, [(0,)]), ps(Z2, [(0, 0)]))

    def test_iterated(self):
        A = ps(Z1, [(0,), (1,)])
        assert pts_of(iterated_sumset(A, 3)) == {(0,), (1,), (2,), (3,)}
        assert iterated_sumset(A, 1) == A
        with pytest.raises(ValueError):
            iterated_sumset(A, 0)

    def test_iterated_grid(self):
        A = ps(Z2, [(x, y) for x in (0, 1) for y in (0, 1)])
        assert len(iterated_sumset(A, 3)) == 16


class TestDimension:
    def test_singleton(self):
        assert dimension(ps(Z1, [(5,)])) == 0

    def test_collinear(self):
        assert dimension(ps(Z2, [(2, 4), (4, 8)])) == 1

    def test_spanning(self):
        assert dimension(ps(Z2, [(0, 0), (1, 0), (0, 1)])) == 2

    def test_torsion_contributes_zero(self):
        ctx = GroupContext(0, (2, 3))
        assert dimension(ps(ctx, [(0, 0), (1, 2)])) == 0


class TestCompression:
    def test_two_fibers(self):
        A = ps(Z2, [(0, 0), (0, 3), (1, 7)])
        assert pts_of(compress(A, 1)) == {(0, 0), (0, 1), (1, 0)}

    def test_forced_example(self):
        A = ps(Z2, [(0, 2), (1, 2), (1, 9)])
        assert pts_of(compress(A, 1)) == {(0, 0), (1, 0), (1, 1)}

    def test_idempotence(self):
        A = ps(Z2, [(0, 0), (0, 1), (1, 0)])
        assert compress(A, 1) == A
        assert compress(compress(A, 1), 1) == compress(A, 1)

    def test_unsupported_kernel(self):
        for ctx, coord in ((Z2, 2), (Z2, -1), (GroupContext(0, (3,)), 0)):
            with pytest.raises(ValueError, match="no free coordinate"):
                compress(ps(ctx, [ctx.zero()]), coord)


small_sets = st.sets(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=6
)
line_sets = st.sets(st.integers(-8, 8), min_size=1, max_size=6)


@given(line_sets, line_sets)
@settings(max_examples=150)
def test_sumset_commutative_and_large(a, b):
    A = ps(Z1, [(x,) for x in a])
    B = ps(Z1, [(x,) for x in b])
    S = sumset(A, B)
    assert S == sumset(B, A)
    assert len(S) >= max(len(A), len(B))
    assert len(S) <= len(A) * len(B)


@given(line_sets, line_sets, line_sets)
@settings(max_examples=100)
def test_sumset_associative(a, b, c):
    A, B, C = (ps(Z1, [(x,) for x in s]) for s in (a, b, c))
    assert sumset(sumset(A, B), C) == sumset(A, sumset(B, C))


@given(line_sets, st.integers(-5, 5))
@settings(max_examples=100)
def test_singleton_translate(a, x):
    A = ps(Z1, [(v,) for v in a])
    assert len(sumset(A, ps(Z1, [(x,)]))) == len(A)
    assert sumset(A, ps(Z1, [(x,)])) == A.translate((x,))


@given(small_sets, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@settings(max_examples=100)
def test_dimension_translation_invariant(a, t):
    A = ps(Z2, a)
    assert dimension(A.translate(t)) == dimension(A)
    assert dimension(A) <= len(A) - 1


@given(small_sets, st.integers(0, 1))
@settings(max_examples=150)
def test_compression_preserves_cardinality_and_shrinks(a, axis):
    A = ps(Z2, a)
    CA = compress(A, axis)
    assert len(CA) == len(A)
    # shrinkage: C(A)+C(A) inside C(A+A)
    assert sumset(CA, CA).is_subset(compress(sumset(A, A), axis))


@given(small_sets, small_sets, st.integers(0, 1))
@settings(max_examples=150)
def test_compression_shrinks_pairs(a, b, axis):
    A, B = ps(Z2, a), ps(Z2, b)
    assert sumset(compress(A, axis), compress(B, axis)).is_subset(
        compress(sumset(A, B), axis)
    )


# (context, free coordinate) for every valid coordinate of Z^3, Z x Z_2 and Z^2 x Z_3
COMPRESS_CASES = [
    (GroupContext(3), 0), (GroupContext(3), 1), (GroupContext(3), 2),
    (GroupContext(1, (2,)), 0),
    (GroupContext(2, (3,)), 0), (GroupContext(2, (3,)), 1),
]


def point_in(ctx):
    free = [st.integers(-2, 3)] * ctx.free_rank
    tors = [st.integers(0, m - 1) for m in ctx.torsion_moduli]
    return st.tuples(*free, *tors)


@pytest.mark.parametrize(
    "ctx,coord", COMPRESS_CASES, ids=["Z3-0", "Z3-1", "Z3-2", "ZxZ2-0", "Z2xZ3-0", "Z2xZ3-1"]
)
@given(data=st.data())
@settings(max_examples=100)
def test_compress_matches_definition(ctx, coord, data):
    A = ps(ctx, data.draw(st.sets(point_in(ctx), min_size=1, max_size=8)))
    # the definition: points that agree off `coord` form a fiber, and a
    # fiber of n points becomes 0..n-1 on `coord`
    fiber_sizes = {}
    for p in A.points:
        rest = tuple(x for k, x in enumerate(p) if k != coord)
        fiber_sizes[rest] = fiber_sizes.get(rest, 0) + 1
    expected = set()
    for rest, n in fiber_sizes.items():
        for i in range(n):
            q = list(rest)
            q.insert(coord, i)
            expected.add(tuple(q))
    assert pts_of(compress(A, coord)) == expected
