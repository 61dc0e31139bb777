"""Quasicube construction, recognition, and the log-span test."""

import random

import pytest

from sumsetlab.groups import GroupContext, PointSet, dimension
from sumsetlab.quasicube import (
    Leaf,
    Node,
    format_spec,
    is_quasicube,
    log_span_check,
    make_quasicube,
    random_spec,
    spec_depth,
)

Z1 = GroupContext(1)
Z2 = GroupContext(2)

STANDARD_SQUARE = Node(
    Node(Leaf((0, 0)), Leaf((0, 0)), (1, 0)),
    Node(Leaf((0, 0)), Leaf((0, 0)), (1, 0)),
    (0, 1),
)
TRAPEZOID = Node(
    Node(Leaf((0, 0)), Leaf((0, 0)), (1, 0)),
    Node(Leaf((0, 0)), Leaf((0, 0)), (3, 0)),
    (0, 1),
)


class TestConstruction:
    def test_standard_square(self):
        U = make_quasicube(STANDARD_SQUARE)
        assert set(U.points) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_depth_zero(self):
        assert set(make_quasicube(Leaf((7,))).points) == {(7,)}

    def test_trapezoid(self):
        U = make_quasicube(TRAPEZOID)
        assert set(U.points) == {(0, 0), (1, 0), (0, 1), (3, 1)}

    def test_colliding_halves_rejected(self):
        with pytest.raises(ValueError):
            make_quasicube(Node(Leaf((0,)), Leaf((0,)), (0,)))

    def test_coset_separation_enforced(self):
        # both halves and the cross shift lie on one line
        bad = Node(
            Node(Leaf((0, 0)), Leaf((0, 0)), (1, 0)),
            Node(Leaf((0, 0)), Leaf((0, 0)), (1, 0)),
            (2, 0),
        )
        with pytest.raises(ValueError):
            make_quasicube(bad)

    def test_unbalanced_tree_rejected(self):
        bad = Node(Node(Leaf((0, 0)), Leaf((0, 0)), (1, 0)), Leaf((0, 0)), (0, 1))
        with pytest.raises(ValueError):
            make_quasicube(bad)

    def test_size_and_dimension(self):
        for seed in range(12):
            rng = random.Random(seed)
            depth = seed % 4
            U = make_quasicube(random_spec(depth, 3, rng))
            assert len(U) == 2**depth
            assert dimension(U) == depth


class TestRecognition:
    def test_square_is_quasicube(self):
        ok, wit = is_quasicube(PointSet.of(Z2, [(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert ok and wit is not None

    def test_three_points_not(self):
        ok, wit = is_quasicube(PointSet.of(Z1, [(0,), (1,), (2,)]))
        assert not ok and wit is None

    def test_skew_quadruple(self):
        ok, _ = is_quasicube(PointSet.of(Z2, [(0, 0), (1, 0), (2, 1), (3, 1)]))
        assert ok

    def test_four_collinear_not(self):
        ok, _ = is_quasicube(PointSet.of(Z1, [(0,), (1,), (2,), (3,)]))
        assert not ok

    def test_generated_cubes_recognized(self):
        for seed in range(10):
            rng = random.Random(seed)
            depth = (seed % 3) + 1
            U = make_quasicube(random_spec(depth, 2, rng))
            ok, wit = is_quasicube(U)
            assert ok and wit is not None

    def test_translation_and_unimodular_invariance(self):
        U = PointSet.of(Z2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        assert is_quasicube(U.translate((5, -3)))[0]
        sheared = PointSet.of(Z2, [(x + y, y) for x, y in U.points])
        assert is_quasicube(sheared)[0]

    def test_dimension_cap(self):
        rng = random.Random(0)
        U = make_quasicube(random_spec(5, 2, rng))
        with pytest.raises(ValueError):
            is_quasicube(U)


class TestLogSpan:
    def test_square_passes(self):
        ok, wit = log_span_check(PointSet.of(Z2, [(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert ok and wit is None

    def test_three_collinear_fails(self):
        ok, wit = log_span_check(PointSet.of(Z1, [(0,), (1,), (2,)]))
        assert not ok
        assert set(wit.points) == {(0,), (1,), (2,)}

    def test_embedded_collinear_triple(self):
        V = PointSet.of(Z2, [(0, 0), (1, 1), (2, 2), (0, 1)])
        ok, wit = log_span_check(V)
        assert not ok
        assert dimension(wit) == 1 and len(wit) == 3

    def test_cube_subsets_pass(self):
        # d=3 cube: passing the check on U itself covers all its subsets
        ctx = GroupContext(3)
        U = PointSet.of(ctx, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        ok, _ = log_span_check(U)
        assert ok

    def test_generated_cubes_pass(self):
        for seed in range(8):
            rng = random.Random(seed)
            U = make_quasicube(random_spec((seed % 3) + 1, 3, rng))
            assert log_span_check(U)[0]

    def test_enumeration_bound(self):
        V = PointSet.of(Z1, [(i,) for i in range(25)])
        with pytest.raises(ValueError):
            log_span_check(V)


class TestSpecFormat:
    def test_roundtrip(self):
        assert format_spec(Leaf((7,))) == "[7]"
        assert format_spec(STANDARD_SQUARE) == "(([0 0] [0 0] [1 0]) ([0 0] [0 0] [1 0]) [0 1])"
        assert format_spec(TRAPEZOID) == "(([0 0] [0 0] [1 0]) ([0 0] [0 0] [3 0]) [0 1])"

    def test_roundtrip_random(self):
        for seed in range(10):
            rng = random.Random(seed)
            spec = random_spec((seed % 3) + 1, 3, rng)
            assert spec_depth(spec) == (seed % 3) + 1

