"""Estimation of the doubling/tripling functionals and two-point closed forms."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumsetlab import search
from sumsetlab.functional import WeightedFunction, gamma_ratio, l1_norm, max_convolve
from sumsetlab.groups import GroupContext, PointSet, sumset
from sumsetlab.search import (
    FixedSupportGamma,
    SearchConfig,
    _bounded_minimum,
    alpha_estimate,
    beta_estimate,
    box_points,
    c_p_constant,
    canonical_count,
    canonical_subsets,
    compare_ratios,
    gamma_estimate,
    gamma_indicator_estimate,
    geometric_family_ratio,
    geometric_family_ratio_squared_exact,
    node_ceiling_default,
    ratio_float,
    refine_weights_coordinate_descent,
    two_point_constant,
)

Z1 = GroupContext(1)
Z2 = GroupContext(2)
F = Fraction

# frozen numeric oracles for the transcendental constants, evaluated from
# the closed forms with mpmath-independent spot checks before pinning
C_HALF_P4 = 1.3469195974050352
C_HALF_P3 = 1.4301704088400686
C_P4 = 0.8773826753016617


def ps(ctx, pts):
    return PointSet.of(ctx, pts)


class TestCanonicalEnumeration:
    def test_anchoring(self):
        sets = canonical_subsets(Z1, ((-1, 1),), 2)
        assert sets == [((-1,),), ((-1,), (0,)), ((-1,), (1,))]

    def test_translation_classes_complete(self):
        # every 2-subset of [-1,1] is a translate of an anchored one
        sets = canonical_subsets(Z1, ((-1, 1),), 2)
        shapes = {tuple(sorted(p[0] - min(q[0] for q in s) for p in s)) for s in sets}
        assert shapes == {(0,), (0, 1), (0, 2)}

    @pytest.mark.parametrize("ctx, box, k", [
        (Z1, ((-2, 3),), 4),
        (Z2, ((0, 3), (-1, 1)), 3),
        (GroupContext(1, (2,)), ((-1, 2),), 3),
        (GroupContext(0, (3,)), (), 4),  # free rank 0: every set, none of 4 points
    ], ids=["Z", "Z2", "ZxZ2", "Z3"])
    def test_matches_definition(self, ctx, box, k):
        # written out: every set of at most k box points whose min on each
        # free axis is the box's low end
        pts = box_points(ctx, box)
        want = sorted(
            c for r in range(1, k + 1) for c in itertools.combinations(pts, r)
            if all(min(q[i] for q in c) == box[i][0] for i in range(ctx.free_rank))
        )
        assert canonical_subsets(ctx, box, k) == want

    @pytest.mark.parametrize("ctx, box, counts", [
        (Z2, ((0, 5), (0, 5)), [1, 61, 1381, 18126]),
        (Z2, ((-2, 2), (1, 4)), [1, 32, 377, 2532]),
        (Z1, ((3, 9),), [1, 7, 22, 42]),
        (GroupContext(3), ((0, 2),) * 3, [1, 63, 1144, 10929]),
        (GroupContext(1, (2,)), ((-1, 2),), [2, 15, 51, 106]),
        (GroupContext(0, (3,)), (), [3, 6, 7, 7]),
    ], ids=["6x6", "5x4", "7", "3x3x3", "ZxZ2", "Z3"])
    def test_count_without_listing(self, ctx, box, counts):
        # the inclusion-exclusion count is the length of the list
        for k, count in enumerate(counts, 1):
            assert canonical_count(ctx, box, k) == len(canonical_subsets(ctx, box, k)) == count

    @pytest.mark.parametrize("ctx, box", [
        (Z1, ((3, 6),)), (Z2, ((0, 1), (0, 1))), (GroupContext(1, (2,)), ((-1, 0),)),
        (GroupContext(0, (3,)), ()),
    ], ids=["Z", "Z2", "ZxZ2", "Z3"])
    def test_cardinality_stops_at_the_box(self, ctx, box):
        # no set holds more than the box's N points, so a cardinality of
        # 10^11 counts and lists what N does, at once
        n = len(box_points(ctx, box))
        assert canonical_count(ctx, box, 10**11) == canonical_count(ctx, box, n)
        assert canonical_subsets(ctx, box, 10**11) == canonical_subsets(ctx, box, n)


@st.composite
def windows(draw):
    # a group of free rank 0-2 with up to two torsion moduli, a box of 1-4
    # points per free axis from lo in -2..2, and a cardinality up to two
    # past the box's N points
    d = draw(st.integers(0, 2))
    moduli = tuple(draw(st.lists(st.integers(2, 3), max_size=2 if d < 2 else 1)))
    box = tuple((lo, lo + draw(st.integers(0, 3))) for lo in draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
    ctx = GroupContext(d, moduli)
    n = len(box_points(ctx, box))
    return ctx, box, draw(st.integers(1, min(n + 2, 5)))


@given(windows())
@example((GroupContext(1, (2,)), ((-1, 1),), 3))  # torsion: the tuples sort away from box order
@example((GroupContext(0, (3, 2)), (), 7))  # free rank 0: every set, up to all 6 points
@example((GroupContext(2), ((1, 2), (-2, 0)), 9))  # lo != 0, cardinality past N = 6
@settings(max_examples=60, deadline=None)
def test_anchored_sets_match_brute_force(window):
    # every subset of at most k box points, by itertools, kept when its min
    # on each free axis is the box's low end, in tuple order; and the arrays
    # behind it: indices into the box points, ascending, padded with the first
    ctx, box, k = window
    pts = box_points(ctx, box)
    want = sorted(
        c for r in range(1, k + 1) for c in itertools.combinations(pts, r)
        if all(min(q[i] for q in c) == box[i][0] for i in range(ctx.free_rank))
    )
    points, index, sizes = search.anchored_sets(ctx, box, k)
    assert [tuple(p) for p in points.tolist()] == pts
    assert index.shape == (len(want), min(k, len(pts)))
    assert sizes.tolist() == [len(s) for s in want]
    for row, size, s in zip(index.tolist(), sizes.tolist(), want):
        assert row == [pts.index(q) for q in s] + [pts.index(s[0])] * (len(row) - size)
    assert canonical_subsets(ctx, box, k) == want
    assert canonical_count(ctx, box, k) == len(want)


def anchored(dims, k):
    """A box's anchored sets as tuples and as the index rows set_images reads."""
    ctx, box = GroupContext(len(dims)), [(0, w - 1) for w in dims]
    return canonical_subsets(ctx, box, k), search.anchored_sets(ctx, box, k)[1]


class TestSetImages:
    # dims, cardinality and |G|: a square, oblong boxes, lines, a cube, and a
    # 9x9 box past one word of 64 cells
    BOXES = [((2, 2), 4, 8), ((3, 3), 3, 8), ((4, 3), 3, 4), ((2, 5), 3, 4), ((5,), 4, 2),
             ((12,), 3, 2), ((2, 2, 2), 4, 48), ((9, 9), 3, 8)]

    @pytest.mark.parametrize("dims, k, order", BOXES, ids=str)
    def test_each_row_permutes_the_sets(self, dims, k, order):
        sets, index = anchored(dims, k)
        images = search.set_images(index, dims)
        assert images.shape == (order, len(sets)) == (len(search.signed_permutations(dims)), len(sets))
        assert images[0].tolist() == list(range(len(sets)))  # the identity first
        for row in images:
            assert sorted(row.tolist()) == list(range(len(sets)))

    @pytest.mark.parametrize("dims, k, order", BOXES, ids=str)
    def test_images_match_the_maps(self, dims, k, order):
        # written out: p -> (signs[a] p[perm[a]])_a, translated to min 0 per
        # axis and sorted, found by value in the list
        sets, index = anchored(dims, k)
        where = {s: m for m, s in enumerate(sets)}
        images = search.set_images(index, dims)
        for g, (perm, signs) in enumerate(search.signed_permutations(dims)):
            for m in random.Random(g).sample(range(len(sets)), min(len(sets), 300)):
                assert images[g, m] == where[image_of(sets[m], perm, signs)]

    @pytest.mark.parametrize("dims, k", [((5, 4), 4), ((5, 5), 4), ((6, 6), 4), ((12,), 6), ((3, 3, 3), 3),
                                         ((16,), 16)], ids=str)
    def test_keys_find_every_image(self, dims, k):
        # every image of every set, found by value: the int64 key of each
        # window but (16,) at 16 points, whose base-17 keys of 16 digits
        # pass int64 and are compared as bytes
        sets, index = anchored(dims, k)
        images = search.set_images(index, dims)
        where = {s: m for m, s in enumerate(sets)}
        for g, (perm, signs) in enumerate(search.signed_permutations(dims)):
            assert images[g].tolist() == [where[image_of(s, perm, signs)] for s in sets]

    def test_stabilizers_are_kept(self):
        # the unit square and the 2x2 cross are fixed by all 8 maps of the
        # square, an L-tromino by a reflection in the diagonal, {0} by all
        dims = (3, 3)
        sets, index = anchored(dims, 4)
        images = search.set_images(index, dims)
        for s, fixed in [(((0, 0), (0, 1), (1, 0), (1, 1)), 8), (((0, 1), (1, 0), (1, 2), (2, 1)), 8),
                         (((0, 0), (0, 1), (1, 0)), 2), (((0, 0),), 8)]:
            assert (images[:, sets.index(s)] == sets.index(s)).sum() == fixed

    @pytest.mark.parametrize("dims, k", [((4, 3), 3), ((3, 3), 4), ((7,), 4)], ids=str)
    def test_sumset_sizes_are_invariant(self, dims, k):
        # |gA + gB| = |A + B| on sampled pairs, through groups.sumset
        sets, index = anchored(dims, k)
        images = search.set_images(index, dims)
        ctx = GroupContext(len(dims))
        size = lambda i, j: len(sumset(ps(ctx, sets[i]), ps(ctx, sets[j])))
        rng = random.Random(5)
        for _ in range(200):
            i, j = rng.randrange(len(sets)), rng.randrange(len(sets))
            assert {size(row[i], row[j]) for row in images} == {size(i, j)}

    @pytest.mark.parametrize("dims, k", [((5, 4), 4), ((6, 6), 4), ((3, 3, 3), 4)], ids=str)
    def test_products_match_the_searched_maps(self, dims, k, monkeypatch):
        # the maps filled as products of maps found (one of three on 5x4,
        # five of seven on 6x6) equal the maps searched one by one: with
        # every product named the identity, which is always found,
        # set_images searches every map
        index = search.anchored_sets(GroupContext(len(dims)), [(0, w - 1) for w in dims], k)[1]
        composed = search.set_images(index, dims)
        identity = search.signed_permutations(dims)[0]
        monkeypatch.setattr(search, "_compose", lambda h, k: identity)
        assert np.array_equal(composed, search.set_images(index, dims))

    def test_compose_is_the_product_of_the_maps(self):
        # _compose(h, k) sends p to h(k(p)), for every pair of the 48 maps of a cube
        moves = search.signed_permutations((3, 3, 3))
        apply = lambda move, p: tuple(sg * p[a] for a, sg in zip(*move))
        points = [(1, 2, 3), (-4, 0, 5)]
        for h, k in itertools.product(moves, repeat=2):
            assert all(apply(search._compose(h, k), p) == apply(h, apply(k, p)) for p in points)

    def test_refuses_sets_it_cannot_index(self):
        sets, index = anchored((3, 3), 2)
        with pytest.raises(ValueError, match="closed"):  # {(0,0), (0,1)} lacks its transpose
            search.set_images(index[[s != ((0, 0), (1, 0)) for s in sets]], (3, 3))
        with pytest.raises(ValueError, match="sorted"):
            search.set_images(index[::-1], (3, 3))


def image_of(s, perm, signs):
    """The set's image under p -> (signs[a] p[perm[a]])_a, translated to min
    0 per axis, sorted."""
    img = [tuple(sg * p[a] for a, sg in zip(perm, signs)) for p in s]
    low = [min(axis) for axis in zip(*img)]
    return tuple(sorted(tuple(c - lo for c, lo in zip(q, low)) for q in img))


class TestBetaEstimate:
    def test_two_point_set(self):
        U = ps(Z1, [(0,), (1,)])
        cfg = SearchConfig(box=((-2, 3),), max_cardinality=4)
        r = beta_estimate(U, cfg)
        assert r.value_exact == 4 and r.value_float == pytest.approx(2.0)
        assert len(r.witness_a) == 1 and len(r.witness_b) == 1
        assert r.complete

    def test_singleton(self):
        r = beta_estimate(ps(Z1, [(0,)]), SearchConfig(box=((-1, 1),), max_cardinality=2))
        assert r.value_exact == 1

    def test_three_point_window_value(self):
        # over [0,4] at cardinality 5 the best pair is the full interval
        U = ps(Z1, [(0,), (1,), (2,)])
        cfg = SearchConfig(box=((0, 4),), max_cardinality=5)
        r = beta_estimate(U, cfg)
        assert r.value_exact == F(121, 25)
        assert r.value_float == pytest.approx(11 / 5)
        assert len(r.witness_a) == 5 and len(r.witness_b) == 5

    def test_replay_from_witness(self):
        U = ps(Z2, [(0, 0), (1, 0), (0, 1)])
        cfg = SearchConfig(box=((-1, 1), (-1, 1)), max_cardinality=3)
        r = beta_estimate(U, cfg)
        A = ps(Z2, r.witness_a)
        B = ps(Z2, r.witness_b)
        n = len(sumset(sumset(A, B), U))
        assert r.value_exact == F(n * n, len(A) * len(B))
        assert r.value_float == pytest.approx(ratio_float(n, len(A), len(B), F(2)))

    def test_window_monotonicity(self):
        U = ps(Z1, [(0,), (1,), (3,)])
        vals = []
        for hi, card in ((1, 2), (2, 3), (3, 4)):
            cfg = SearchConfig(box=((0, hi),), max_cardinality=card)
            vals.append(beta_estimate(U, cfg).value_exact)
        assert vals[0] >= vals[1] >= vals[2]

    def test_parallel_determinism(self):
        U = ps(Z1, [(0,), (2,)])
        base = SearchConfig(box=((-3, 4),), max_cardinality=4)
        r1 = beta_estimate(U, base)
        r3 = beta_estimate(U, SearchConfig(box=((-3, 4),), max_cardinality=4, parallelism=3))
        assert (r1.value_exact, r1.witness_a, r1.witness_b, r1.nodes) == (
            r3.value_exact, r3.witness_a, r3.witness_b, r3.nodes
        )

    def test_node_ceiling_flags_incomplete(self):
        U = ps(Z1, [(0,), (1,)])
        cfg = SearchConfig(box=((-2, 3),), max_cardinality=4, node_ceiling=10)
        r = beta_estimate(U, cfg)
        assert not r.complete and r.nodes == 10

    def test_node_ceiling_bounds_memory(self):
        # 436 sets give 190,096 pairs; a ceiling of 100 must not build them all
        U = ps(Z1, [(0,), (1,)])
        cfg = SearchConfig(box=((0, 29),), max_cardinality=3, node_ceiling=100)
        tracemalloc.start()
        try:
            r = beta_estimate(U, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.nodes == 100 and r.complete is False
        assert peak < 2 * 2**20

    def test_node_ceiling_env(self, monkeypatch):
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "7")
        cfg = SearchConfig(box=((0, 1),), max_cardinality=1)
        assert cfg.node_ceiling == 7
        # read once, at construction: a later change reaches no built config
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", "0")
        assert beta_estimate(ps(Z1, [(0,)]), cfg).config["node_ceiling"] == 7

    def test_config_holds_only_what_a_scan_reads(self):
        names = [f.name for f in dataclasses.fields(SearchConfig)]
        assert names == ["box", "max_cardinality", "p", "variant", "strategy", "seed", "node_ceiling"]
        cfg = SearchConfig(box=((0, 1),), max_cardinality=1, parallelism=4)
        assert cfg == SearchConfig(box=((0, 1),), max_cardinality=1)
        assert sorted(cfg.echo()) == sorted(names)
        with pytest.raises(ValueError, match="parallelism"):
            SearchConfig(box=((0, 1),), max_cardinality=1, parallelism=0)

    @pytest.mark.parametrize("env", ["0", "-3", "abc", "1.5"])
    def test_node_ceiling_env_rejected(self, monkeypatch, env):
        monkeypatch.setenv("SUMSETLAB_NODE_CEILING", env)
        with pytest.raises(ValueError, match="SUMSETLAB_NODE_CEILING"):
            node_ceiling_default()
        with pytest.raises(ValueError, match="SUMSETLAB_NODE_CEILING"):
            SearchConfig(box=((0, 1),), max_cardinality=1)

    def test_float_p_rejected(self):
        # Fraction(1.3) is 5854679515581645/4503599627370496: compare_ratios
        # would raise numerators to that power
        with pytest.raises(ValueError, match="1.3"):
            SearchConfig(box=((0, 1),), max_cardinality=1, p=1.3)

    def test_p_with_large_terms_rejected(self):
        # exactly Fraction(1.3): a comparison would raise to its numerator
        p = Fraction(5854679515581645, 4503599627370496)
        with pytest.raises(ValueError, match=str(p)):
            SearchConfig(box=((0, 1),), max_cardinality=1, p=p)
        with pytest.raises(ValueError, match="1001/1000"):
            SearchConfig(box=((0, 1),), max_cardinality=1, p=Fraction(1001, 1000))
        SearchConfig(box=((0, 1),), max_cardinality=1, p=Fraction(1000, 999))

    def test_int_p_accepted(self):
        cfg = SearchConfig(box=((0, 1),), max_cardinality=1, p=2)
        assert cfg.echo()["p"] == "2/1"

    def test_p_stored_as_fraction(self):
        # p is normalized once, so no reader re-wraps it; the echo is as before
        cfg = SearchConfig(box=((0, 1),), max_cardinality=1, p=2)
        assert type(cfg.p) is Fraction and cfg.p == 2
        assert type(dataclasses.replace(cfg, p=3).p) is Fraction
        assert cfg.echo() == {"box": [[0, 1]], "max_cardinality": 1, "p": "2/1", "variant": "unrestricted",
                              "strategy": "exhaustive", "seed": 0, "node_ceiling": cfg.node_ceiling}

    @pytest.mark.parametrize("ceiling", [0, -1])
    def test_node_ceiling_below_one_rejected(self, ceiling):
        with pytest.raises(ValueError, match="node_ceiling"):
            SearchConfig(box=((0, 1),), max_cardinality=1, node_ceiling=ceiling)

    def test_variant_nesting(self):
        U = ps(Z1, [(0,), (1,)])
        vals = []
        for v in ("unrestricted", "isometric", "isomeric"):
            cfg = SearchConfig(box=((-1, 2),), max_cardinality=3, variant=v)
            vals.append(beta_estimate(U, cfg).value_exact)
        assert vals[0] <= vals[1] <= vals[2]

    def test_hill_climb_is_upper_bound(self):
        U = ps(Z1, [(0,), (1,)])
        ex = beta_estimate(U, SearchConfig(box=((-1, 2),), max_cardinality=3))
        hc = beta_estimate(
            U, SearchConfig(box=((-1, 2),), max_cardinality=3, strategy="hill_climb", seed=5)
        )
        assert not hc.complete
        assert hc.value_exact >= ex.value_exact

    def test_hill_climb_cardinality_above_box(self):
        U = ps(Z1, [(0,), (1,)])
        cfg = SearchConfig(box=((0, 1),), max_cardinality=5, strategy="hill_climb", seed=1)
        r = beta_estimate(U, cfg)
        assert r.quantity == "beta" and not r.complete
        assert 1 <= len(r.witness_a) <= 2 and 1 <= len(r.witness_b) <= 2

    @pytest.mark.parametrize("variant", ["isometric", "isomeric"])
    def test_hill_climb_variants_replay(self, variant):
        # coverage: the restricted moves keep |A| = |B| (isometric) or A = B
        # (isomeric), and the witness replays through groups.sumset
        U = ps(Z1, [(0,), (1,), (3,)])
        cfg = SearchConfig(box=((-1, 3),), max_cardinality=3, variant=variant,
                           strategy="hill_climb", seed=5)
        r = beta_estimate(U, cfg)
        A, B = ps(Z1, r.witness_a), ps(Z1, r.witness_b)
        assert A == B if variant == "isomeric" else len(A) == len(B)
        n = len(sumset(sumset(A, B), U))
        assert r.value_exact == F(n * n, len(A) * len(B))
        assert r.value_float == ratio_float(n, len(A), len(B), F(2))
        assert r.variant == variant and not r.complete

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(box=((1, 0),), max_cardinality=1)
        with pytest.raises(ValueError):
            SearchConfig(box=((0, 1),), max_cardinality=0)
        with pytest.raises(ValueError):
            SearchConfig(box=((0, 1),), max_cardinality=1, p=F(1, 2))
        with pytest.raises(ValueError):
            SearchConfig(box=((0, 1),), max_cardinality=1, variant="nope")

    def test_report_json_shape(self):
        r = beta_estimate(ps(Z1, [(0,)]), SearchConfig(box=((0, 1),), max_cardinality=1))
        doc = r.to_json_dict()
        assert set(doc) == {
            "quantity", "p", "variant", "value_float", "value_exact", "witness_a",
            "witness_b", "nodes", "complete", "config", "tool_version",
        }
        assert doc["p"] == "2/1" and doc["value_exact"] == "1/1"
        json.dumps(doc)  # serializable


class TestAlphaEstimate:
    def test_two_point_set(self):
        U = ps(Z1, [(0,), (1,)])
        cfg = SearchConfig(box=((-1, 2),), max_cardinality=4)
        r = alpha_estimate(U, cfg)
        assert r.value_exact == F(9, 4)  # ratio 3/2 squared, A = B = U
        assert r.value_float == pytest.approx(1.5)

    def test_singleton(self):
        r = alpha_estimate(ps(Z1, [(0,)]), SearchConfig(box=((0, 1),), max_cardinality=2))
        assert r.value_exact == 1

    def test_square_isomeric(self):
        U = ps(Z2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        cfg = SearchConfig(box=((0, 1), (0, 1)), max_cardinality=4, variant="isomeric")
        r = alpha_estimate(U, cfg)
        assert r.value_exact == F(81, 16)  # |A+A|/|A| = 9/4 squared

    def test_set_outside_box_rejected(self):
        with pytest.raises(ValueError):
            alpha_estimate(ps(Z1, [(5,)]), SearchConfig(box=((0, 1),), max_cardinality=2))


class TestGammaEstimate:
    def test_indicator_matches_beta(self):
        cfg = SearchConfig(box=((-1, 2),), max_cardinality=3)
        U = ps(Z1, [(0,), (1,)])
        r = gamma_indicator_estimate(WeightedFunction.indicator(U), cfg)
        assert r.value_exact == 4 and r.value_float == pytest.approx(2.0)

    def test_point_mass(self):
        cfg = SearchConfig(box=((0, 1),), max_cardinality=2)
        r = gamma_estimate(WeightedFunction.indicator(ps(Z1, [(0,)])), cfg)
        assert r.value_float == pytest.approx(1.0)

    def test_geometric_family_strategy(self):
        f = WeightedFunction.of(Z1, [((0,), F(1)), ((1,), F(1, 2))])
        cfg = SearchConfig(box=((0, 1),), max_cardinality=2, strategy="geometric_family")
        r = gamma_estimate(f, cfg)
        assert r.value_float == pytest.approx(1.5)
        assert not r.complete

    def test_refinement_replaces_indicator_value(self):
        # coverage: the descent beats the best indicator pair, so the report
        # keeps that pair's witness and drops its exact value
        f = WeightedFunction.of(Z1, [((-1,), F(1)), ((0,), F(3, 4)), ((1,), F(1, 2))])
        cfg = SearchConfig(box=((-1, 1),), max_cardinality=3)
        ind = gamma_indicator_estimate(f, cfg)
        r = gamma_estimate(f, cfg)
        assert ind.value_float == pytest.approx(2.0833, abs=1e-4)
        assert r.value_exact is None
        assert r.value_float == pytest.approx(1.8341996954988742, abs=1e-9)
        assert (r.witness_a, r.witness_b, r.nodes) == (ind.witness_a, ind.witness_b, ind.nodes)

    def test_refinement_never_inflates(self):
        f = WeightedFunction.of(Z1, [((0,), F(1)), ((1,), F(1, 2))])
        cfg = SearchConfig(box=((-1, 1),), max_cardinality=2)
        r = gamma_estimate(f, cfg)
        assert r.value_float <= gamma_indicator_estimate(f, cfg).value_float + 1e-12


@pytest.mark.parametrize("estimate, strategy", [
    (alpha_estimate, "hill_climb"),
    (alpha_estimate, "geometric_family"),
    (beta_estimate, "geometric_family"),
    (gamma_estimate, "hill_climb"),
    (gamma_indicator_estimate, "hill_climb"),
    (gamma_indicator_estimate, "geometric_family"),
])
def test_estimate_rejects_strategy_it_does_not_run(estimate, strategy):
    # a report that echoed the strategy would name a search that never ran
    cfg = SearchConfig(box=((0, 1),), max_cardinality=2, strategy=strategy)
    U = ps(Z1, [(0,), (1,)])
    arg = WeightedFunction.indicator(U) if estimate in (gamma_estimate, gamma_indicator_estimate) else U
    with pytest.raises(ValueError, match=f"no {strategy} strategy"):
        estimate(arg, cfg)


class TestTwoPointClosedForms:
    def test_p2_is_one_plus_delta(self):
        assert two_point_constant(0.5, 2.0) == pytest.approx(1.5)
        assert two_point_constant(1.0, 2.0) == pytest.approx(2.0)
        assert two_point_constant(0.0, 3.0) == 1.0

    def test_pinned_constants(self):
        assert two_point_constant(0.5, 4.0) == pytest.approx(C_HALF_P4, abs=1e-15)
        assert two_point_constant(0.5, 3.0) == pytest.approx(C_HALF_P3, abs=1e-15)
        assert c_p_constant(4.0) == pytest.approx(C_P4, abs=1e-15)

    def test_c_p_at_two_exact(self):
        assert c_p_constant(2.0) == 1.0

    def test_c_p_below_one(self):
        for p in (1.5, 3.0, 4.0):
            assert c_p_constant(p) < 1.0

    def test_conjugate_symmetry(self):
        # c_delta(p) = c_delta(q) by the g <-> h swap
        assert two_point_constant(0.3, 1.5) == pytest.approx(two_point_constant(0.3, 3.0))
        assert c_p_constant(1.5) == pytest.approx(c_p_constant(3.0))

    def test_geometric_exact_is_one_plus_delta_squared(self):
        for num in range(0, 11):
            d = F(num, 10)
            for r in range(5):
                assert geometric_family_ratio_squared_exact(d, r, r) == (1 + d) ** 2

    def test_geometric_float_matches_exact(self):
        v = geometric_family_ratio(0.5, 2.0, 3, 3)
        assert v == pytest.approx(1.5)

    def test_geometric_above_constant(self):
        for p in (1.5, 2.0, 3.0):
            for r in range(6):
                assert geometric_family_ratio(0.4, p, r, r) >= two_point_constant(0.4, p) - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            two_point_constant(1.5, 2.0)
        with pytest.raises(ValueError):
            geometric_family_ratio(0.5, 1.0, 1, 1)
        with pytest.raises(ValueError):
            c_p_constant(1.0)


ratio_keys = st.tuples(st.integers(1, 30), st.integers(1, 9), st.integers(1, 9))


@given(ratio_keys, ratio_keys, st.sampled_from([F(2), F(3, 2), F(3), F(7, 3)]))
@settings(max_examples=200)
def test_compare_ratios_matches_floats(k1, k2, p):
    sign = compare_ratios(*k1, *k2, p)
    diff = ratio_float(*k1, p) - ratio_float(*k2, p)
    if abs(diff) > 1e-9:
        assert sign == (diff > 0) - (diff < 0)
    assert compare_ratios(*k2, *k1, p) == -sign


# --- the streamed pair scan against a brute-force first minimum -------------

ZT = GroupContext(1, (2,))
ZT3 = GroupContext(1, (3,))
Z2T = GroupContext(2, (2,))
WINDOWS = (  # (group, box, points U and f may use, largest cardinality)
    (Z1, ((-1, 2),), [(0,), (1,), (2,)], 3),
    (Z2, ((0, 1), (0, 2)), [(0, 0), (1, 0), (0, 1), (1, 2)], 3),
    (ZT, ((0, 2),), [(0, 0), (0, 1), (1, 0), (2, 1)], 3),
    (ZT3, ((0, 1),), [(0, 0), (0, 2), (1, 1), (1, 2)], 3),  # rolls by 1 and 2
    (Z2T, ((0, 1), (0, 1)), [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)], 3),
    (Z1, ((-1, 2),), [(0,), (7,), (-5,)], 3),  # U far outside the box
    (Z1, ((0, 40),), [(0,), (1,), (40,)], 2),  # A+B+U up to 121 cells wide
    (GroupContext(0), (), [()], 3),  # the trivial group: arity 0, one set
    (GroupContext(0, (3,)), (), [(0,), (1,), (2,)], 3),  # torsion only
    (GroupContext(0, (2, 2)), (), [(0, 0), (0, 1), (1, 0), (1, 1)], 3),
)


def brute_first_minimum(sets, cfg, num, exact=True):
    """Every pair in i-major order, then the ceiling cut, then the first
    strict minimum: the scan's contract spelled out with no streaming.

    num gives each pair's exact numerator, and pairs are ordered on the
    exact ratio to the power pa, n^pa / (a^pb b^(pa-pb)) at p = pa/pb.  With
    exact=False (a float-mode function) only the winner's numerator is
    rounded, to the float the report carries."""
    p = F(cfg.p)
    pa, pb = p.numerator, p.denominator
    pairs = [
        (i, j)
        for i, j in itertools.product(range(len(sets)), repeat=2)
        if (cfg.variant != "isomeric" or i == j)
        and (cfg.variant != "isometric" or len(sets[i]) == len(sets[j]))
    ]
    ceiling = cfg.node_ceiling
    best = None
    for i, j in pairs[:ceiling]:
        n, a, b = num(sets[i], sets[j]), len(sets[i]), len(sets[j])
        power = F(n) ** pa / (a**pb * b ** (pa - pb))
        if best is None or power < best[0]:
            best = (power, (n, a, b), sets[i], sets[j])
    _, (n, a, b), wa, wb = best
    if not exact:
        n = float(n)  # Fraction to float: correctly rounded
    return {
        "value_float": ratio_float(n, a, b, p),
        "value_exact": n * n / F(a * b) if p == 2 and exact else None,
        "witness_a": wa,
        "witness_b": wb,
        "nodes": min(len(pairs), ceiling),
        "complete": len(pairs) <= ceiling,
    }


@pytest.mark.parametrize("ctx, pts, beta_nodes, alpha_nodes", [
    (GroupContext(0), [()], 1, 1),
    (GroupContext(0, (3,)), [(0,), (1,)], 49, 4),
    (GroupContext(0, (2, 2)), [(0, 0), (0, 1)], 196, 9),
], ids=["trivial", "Z3", "Z2xZ2"])
def test_rank_zero_contexts(ctx, pts, beta_nodes, alpha_nodes):
    # no free axis: the box is (), and the whole group is one of the sets
    U = ps(ctx, pts)
    cfg = SearchConfig(box=(), max_cardinality=3)
    beta, alpha = beta_estimate(U, cfg), alpha_estimate(U, cfg)
    assert (beta.value_exact, beta.nodes, beta.complete) == (1, beta_nodes, True)
    assert (alpha.value_exact, alpha.nodes, alpha.complete) == (1, alpha_nodes, True)

    def beta_num(A, B):
        return len(sumset(sumset(ps(ctx, A), ps(ctx, B)), U))

    sets = canonical_subsets(ctx, (), 3)
    for variant in search.VARIANTS:
        cfgv = dataclasses.replace(cfg, variant=variant)
        assert report_fields(beta_estimate(U, cfgv)) == brute_first_minimum(sets, cfgv, beta_num)


def test_bit_index_layout():
    # two sets of points, the second padded with its first
    pts = np.array([[[0, 1], [2, 0]], [[1, 2], [1, 2]]])
    # first axis fastest; the second, a torsion axis, wraps modulo 3
    assert search.bit_index(pts, (3, 3), 1).tolist() == [[3, 2], [7, 7]]
    assert search.bit_index(np.array([1, 4]), (3, 3), 1) == 4
    with pytest.raises(ValueError):  # a free coordinate off the grid
        search.bit_index(np.array([3, 0]), (3, 3), 1)
    assert search.bit_index(np.zeros((2, 2, 0), dtype=np.int64), (), 0).tolist() == [[0, 0]] * 2


def json_cases():
    """Values of every kind json_value meets: a report, a verdict with a
    counterexample, a scan state with a near ledger, a config, and bools,
    nested tuples and Fractions."""
    from sumsetlab.conjectures import ScanState
    from sumsetlab.laws import Verdict

    cfg = SearchConfig(box=((-2, 3), (0, 1)), max_cardinality=4, p=F(3, 2), variant="isometric", node_ceiling=77)
    report = search.EstimateReport(
        quantity="beta", p=F(3, 2), variant="isometric", value_float=1.25, value_exact=None,
        witness_a=((0, 0), (1, 0)), witness_b=((0, 1),), nodes=12, complete=False,
        config=cfg.echo(), tool_version="0.0.0")
    verdict = Verdict(
        law="quasicube_beta", holds=False, margin=F(-7, 9),
        inputs={"V": [[0, 0], [1, 2]], "box": ((0, 4), (0, 3))},
        counterexample={"A": ((0, 0), (1, 0)), "B": [(1, 1)], "ratio": F(25, 9), "exact": True},
        note="pinned")
    state = ScanState("log_span", 64, 210, 60, 4, [], None, cfg.echo(), out_bytes=4096)
    rng = random.Random(5)
    for idx in range(12):
        state.push_near(F(rng.randint(0, 90), rng.randint(1, 7)), {"index": idx, "V": [[idx, 0], [0, idx % 3]]})
    state.counterexample = {"index": 7, "V": [[0, 0], [1, 2]], "ratio_squared": "7/3"}
    mixed = {"flags": (True, False, None), "nested": ((1, (2, (3, F(1, 3)))), [F(5), "x", 2.5]),
             "fraction": F(-4, 6), "empty": ((), [])}
    return {"report": report, "verdict": verdict, "state": state, "config": cfg, "mixed": mixed}


# sha256 of json.dumps(json_value(x), sort_keys=True) for each of
# json_cases(), as json_value gave them before it dispatched on exact types
JSON_DIGESTS = {
    "report": "360abe4ed413de7fe7a5a13455dc8f93d2513bc02e44880a5faf957ca8de97b7",
    "verdict": "f6ee72b68121d9ff637f6f2858b8fe1d3da5ebf851f1c1d50fa59e1ad14c9a23",
    "state": "b3cbfb6c89acb54c6bab7ab1e83645bd17bd691d6efb207692edfe19e541f02d",
    "config": "d853655e882acab36c2136d64f5031f7edf8a5d607b4507f2a13fff4c66df934",
    "mixed": "7c06163712261440f7b0611d42c12bbe0c9d3d5fd4b1bf15fe940d7d8240fe49",
}


def test_json_bytes_are_pinned():
    for name, value in json_cases().items():
        text = json.dumps(search.json_value(value), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == JSON_DIGESTS[name], (name, text)


def report_fields(r):
    return {k: getattr(r, k) for k in
            ("value_float", "value_exact", "witness_a", "witness_b", "nodes", "complete")}


@st.composite
def scan_cases(draw, max_points=2):
    ctx, box, pool, top = draw(st.sampled_from(WINDOWS))
    U = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_points, unique=True))
    cfg = SearchConfig(
        box=box,
        max_cardinality=draw(st.integers(2, top)),
        p=draw(st.sampled_from([F(2), F(3, 2)])),
        variant=draw(st.sampled_from(["unrestricted", "isometric", "isomeric"])),
        node_ceiling=draw(st.sampled_from([10**6, 1, 7, 40])),
    )
    return ctx, U, cfg


@given(scan_cases())
@example((ZT3, [(0, 2), (1, 1)], SearchConfig(box=((0, 1),), max_cardinality=3)))
@example((Z2T, [(0, 0, 0), (1, 0, 1)], SearchConfig(box=((0, 1), (0, 1)), max_cardinality=3)))
# alpha's witness is U itself, (1,0,1) before (1,1,0) as tuples but after it
# by the torsion-first key of box_points
@example((Z2T, [(1, 0, 1), (1, 1, 0)], SearchConfig(box=((0, 1), (0, 1)), max_cardinality=2)))
@example((Z1, [(7,), (-5,)], SearchConfig(box=((-1, 2),), max_cardinality=3, variant="isometric")))
@example((Z1, [(0,), (40,)], SearchConfig(box=((0, 40),), max_cardinality=2)))
@settings(max_examples=60, deadline=None)
def test_beta_alpha_match_brute_force(case):
    ctx, pts, cfg = case
    U = ps(ctx, pts)

    def beta_num(A, B):
        return len(sumset(sumset(ps(ctx, A), ps(ctx, B)), U))

    beta_sets = canonical_subsets(ctx, cfg.box, cfg.max_cardinality)
    assert report_fields(beta_estimate(U, cfg)) == brute_first_minimum(beta_sets, cfg, beta_num)

    def alpha_num(A, B):
        return len(sumset(ps(ctx, A), ps(ctx, B)))

    inside = box_points(ctx, cfg.box)
    if not set(U.points) <= set(inside):
        with pytest.raises(ValueError, match="inside the search box"):
            alpha_estimate(U, cfg)
        return
    alpha_sets = sorted(
        tuple(sorted(c))
        for k in range(1, cfg.max_cardinality + 1)
        for c in itertools.combinations(inside, k)
        if set(U.points) <= set(c)
    )
    assert report_fields(alpha_estimate(U, cfg)) == brute_first_minimum(alpha_sets, cfg, alpha_num)


# w/4 for w in 1..8 sum exactly as floats; 5/3, 1/7 and 3/10 do not
GAMMA_WEIGHTS = [F(w, 4) for w in range(1, 9)] + [F(5, 3), F(1, 7), F(3, 10)]


@given(scan_cases(max_points=3), st.booleans(), st.lists(st.sampled_from(GAMMA_WEIGHTS), min_size=3, max_size=3))
@example((ZT3, [(0, 0), (0, 2), (1, 1)], SearchConfig(box=((0, 1),), max_cardinality=3)), True,
         [F(1, 2), F(1), F(1, 2)])
@example((Z2T, [(0, 0, 0), (1, 0, 1), (0, 1, 1)], SearchConfig(box=((0, 1), (0, 1)), max_cardinality=3)),
         False, [F(3, 4), F(1, 4), F(3, 4)])
@example((ZT3, [(0, 0), (0, 2), (1, 1)], SearchConfig(box=((0, 1),), max_cardinality=3)), True,
         [F(2), F(1), F(2)])
@example((Z2T, [(0, 0, 0), (1, 0, 1), (0, 1, 1)], SearchConfig(box=((0, 1), (0, 1)), max_cardinality=3)),
         False, [F(2), F(1), F(1)])
@example((ZT3, [(0, 0), (0, 2), (1, 1)], SearchConfig(box=((0, 1),), max_cardinality=3, p=F(3, 2))), False,
         [F(5, 3), F(1, 7), F(3, 10)])
@settings(max_examples=30, deadline=None)
def test_gamma_matches_brute_force(case, exact, weights):
    # up to three support points with weights in GAMMA_WEIGHTS: tied
    # weights make one level set of two points, integer weights (such as
    # 2, 1, 2) scale over the denominator 1, and a float-mode function is
    # keyed on the exact values of its doubles
    ctx, pts, cfg = case
    ws = [w if exact else float(w) for w in weights]
    f = WeightedFunction.of(ctx, list(zip(pts, ws)))
    sets = canonical_subsets(ctx, cfg.box, cfg.max_cardinality)
    expected = brute_first_minimum(sets, cfg, gamma_oracle(f), f.exact)
    assert report_fields(gamma_indicator_estimate(f, cfg)) == expected


def gamma_oracle(f):
    """The exact numerator ||f*1_A*1_B||_1 through functional.max_convolve,
    a Fraction; a float weight is taken at its exact (dyadic) value."""
    fx = WeightedFunction.of(f.context, [(q, F(w)) for q, w in f.entries])

    def gamma_num(A, B):
        ga = WeightedFunction.of(f.context, [(q, F(1)) for q in A])
        gb = WeightedFunction.of(f.context, [(q, F(1)) for q in B])
        return l1_norm(max_convolve(max_convolve(fx, ga), gb))

    return gamma_num


FLOAT_WEIGHTS = [5 / 3, 3 / 4, 1 / 7, 0.3, 0.1, 0.7, 1 / 3, 2 / 3, 1.0, 2.0]
FLOAT_WINDOWS = ((Z1, ((-1, 2),)), (Z2, ((0, 1), (0, 2))), (ZT, ((0, 2),)), (ZT3, ((0, 1),)))


@st.composite
def float_gamma_cases(draw):
    ctx, box = draw(st.sampled_from(FLOAT_WINDOWS))
    coords = [st.integers(-1, 2)] * ctx.free_rank + [st.integers(0, m - 1) for m in ctx.torsion_moduli]
    pts = draw(st.lists(st.tuples(*coords), min_size=1, max_size=3, unique=True))
    ws = draw(st.lists(st.sampled_from(FLOAT_WEIGHTS), min_size=len(pts), max_size=len(pts)))
    cfg = SearchConfig(
        box=box,
        max_cardinality=draw(st.integers(2, 3)),
        p=draw(st.sampled_from([F(2), F(3, 2), F(3)])),
        variant=draw(st.sampled_from(search.VARIANTS)),
        node_ceiling=draw(st.sampled_from([50, 10**6])),
    )
    return ctx, list(zip(pts, ws)), cfg


# the pairs ({(0, 0)}, {(0, 0)}) and (S, S), S = {(0, 0), (0, 1), (0, 2)},
# tie exactly; keyed on rounded float sums, the later pair was named
FLOAT_TIE = (ZT3, [((2, 0), 1.6666666666666667), ((-1, 2), 0.75), ((1, 2), 0.14285714285714285)],
             SearchConfig(box=((0, 1),), max_cardinality=3, p=F(3, 2), variant="isometric", node_ceiling=50))


@given(float_gamma_cases())
@example(FLOAT_TIE)
@settings(max_examples=60, deadline=None)
def test_float_gamma_names_the_exact_first_minimum(case):
    # a float weight is a dyadic rational: float mode scans the same exact
    # keys as exact mode on those values and rounds only the winner's value
    ctx, entries, cfg = case
    f = WeightedFunction.of(ctx, entries)
    r = gamma_indicator_estimate(f, cfg)
    ex = gamma_indicator_estimate(WeightedFunction.of(ctx, [(q, F(w)) for q, w in entries]), cfg)
    assert (r.witness_a, r.witness_b, r.nodes, r.complete) == (ex.witness_a, ex.witness_b, ex.nodes, ex.complete)
    n = gamma_oracle(f)(r.witness_a, r.witness_b)
    assert r.value_float == ratio_float(float(n), len(r.witness_a), len(r.witness_b), cfg.p)
    assert r.value_exact is None


def test_gamma_float_numerator_is_correctly_rounded():
    # 0.3 + 0.1 + 0.7 summed in key order is 1.1; the exact sum of the three
    # doubles rounds to 1.0999999999999999
    f = WeightedFunction.of(Z1, [((0,), 0.3), ((1,), 0.1), ((2,), 0.7)])
    cfg = SearchConfig(box=((-1, 1),), max_cardinality=3)
    r = gamma_indicator_estimate(f, cfg)
    a, b = len(r.witness_a), len(r.witness_b)
    exact = gamma_oracle(f)(r.witness_a, r.witness_b)
    ga, gb = (WeightedFunction.of(Z1, [(q, 1.0) for q in w]) for w in (r.witness_a, r.witness_b))
    float_sum = l1_norm(max_convolve(max_convolve(f, ga), gb))
    assert r.value_float == ratio_float(float(exact), a, b, cfg.p)
    assert r.value_float == pytest.approx(ratio_float(float_sum, a, b, cfg.p), abs=1e-12)
    assert (r.witness_a, r.witness_b, r.value_float) == (((-1,),), ((-1,),), 1.0999999999999999)


@pytest.mark.parametrize("exact", [False, True])
def test_gamma_weights_past_int64(exact):
    # 1e-300 is m / 2^1049 for an odd m, so the weights scale to integers
    # far past int64 and the levels are summed in Python ints
    ws = [1.0, 1e-300, 1.0]
    f = WeightedFunction.of(Z1, [((x,), F(w) if exact else w) for x, w in enumerate(ws)])
    cfg = SearchConfig(box=((-1, 2),), max_cardinality=3)
    expected = brute_first_minimum(canonical_subsets(Z1, cfg.box, 3), cfg, gamma_oracle(f), exact)
    assert report_fields(gamma_indicator_estimate(f, cfg)) == expected


def test_gamma_float_overflow_gives_inf():
    # every f*1_A*1_B sums two weights of 1e308 or more: inf, as a float sum gives
    f = WeightedFunction.of(Z1, [((0,), 1e308), ((1,), 1.5e308)])
    r = gamma_indicator_estimate(f, SearchConfig(box=((0, 1),), max_cardinality=2))
    assert r.value_float == math.inf and r.value_exact is None and r.complete


def test_gamma_exact_overflow_gives_inf():
    # the first minimum, A = B = {0}, sums f to 10^400 + 1, past the float
    # range: value_float is inf, as in float mode, and value_exact is exact;
    # the weight descent reads 10^400 as inf too, so the report stands
    f = WeightedFunction.of(Z1, [((0,), F(10**400)), ((1,), F(1))])
    cfg = SearchConfig(box=((0, 1),), max_cardinality=2)
    for r in (gamma_indicator_estimate(f, cfg), gamma_estimate(f, cfg)):
        assert r.value_float == math.inf and r.value_exact == (10**400 + 1) ** 2 and r.complete


def test_ratio_float_past_the_float_range():
    # an int or Fraction numerator past the float range is divided exactly:
    # inf only when the ratio is past the range too
    assert ratio_float(10**400, 1, 1, F(2)) == math.inf
    assert ratio_float(F(3 * 10**308), 4, 4, F(2)) == 7.5e307
    assert ratio_float(F(10**400, 10**399), 1, 1, F(2)) == 10.0


def test_table_above_limit_is_refused_before_allocation(monkeypatch):
    # 3001 sets times 3001 points times 94 words: 6.3 GiB, which the default
    # 5M-pair ceiling would not have bounded
    zeros = np.zeros

    def guarded_zeros(shape, dtype=float):
        assert math.prod(np.atleast_1d(shape)) * np.dtype(dtype).itemsize <= 1 << 30
        return zeros(shape, dtype=dtype)

    monkeypatch.setattr(np, "zeros", guarded_zeros)
    U = ps(Z1, [(0,), (1,)])
    with pytest.raises(ValueError, match=f"needs {3001 * 3001 * 94 * 8} bytes"):
        beta_estimate(U, SearchConfig(box=((0, 3000),), max_cardinality=2))
    # four distinct weights: four levels of 1501 * 1501 rows of 47 words,
    # 847 MB each, 3.4 GB together
    f = WeightedFunction.of(Z1, [((x,), F(x + 1)) for x in range(4)])
    with pytest.raises(ValueError, match=f"needs {4 * 1501 * 1501 * 47 * 8} bytes"):
        gamma_indicator_estimate(f, SearchConfig(box=((0, 1500),), max_cardinality=2))


GUARDED_WINDOWS = [  # (estimate, its first argument, box, max_cardinality), all under the cap
    (beta_estimate, ps(Z1, [(0,), (2,)]), ((-2, 3),), 4),
    (beta_estimate, ps(Z2, [(0, 0), (1, 1)]), ((0, 3), (-1, 1)), 3),
    (beta_estimate, ps(GroupContext(1, (2,)), [(0, 0), (1, 1)]), ((-1, 2),), 3),
    (beta_estimate, ps(GroupContext(0, (3,)), [(0,), (1,)]), (), 2),
    (alpha_estimate, ps(Z1, [(0,), (1,)]), ((-1, 3),), 4),
    (alpha_estimate, ps(Z2, [(0, 0)]), ((0, 2), (0, 1)), 3),
    (gamma_indicator_estimate, WeightedFunction.of(Z1, [((0,), F(2)), ((1,), F(1))]), ((0, 4),), 3),
    (gamma_indicator_estimate, WeightedFunction.of(Z2, [((0, 0), F(1)), ((0, 1), F(1, 2))]), ((0, 2), (0, 2)), 2),
]


@pytest.mark.parametrize("estimate, arg, box, card", GUARDED_WINDOWS)
def test_window_bound_never_passes_the_table(estimate, arg, box, card, monkeypatch):
    # the bytes a scan is refused on before it lists its window, checked
    # once per size on the sets counted so far, are at most those of the
    # pair table it then sizes, so a window whose table fits runs
    calls = []
    check = search._check_table

    def spy(rows, words, at_least=""):
        calls.append((rows * words, at_least))
        check(rows, words, at_least)

    monkeypatch.setattr(search, "_check_table", spy)
    estimate(arg, SearchConfig(box=box, max_cardinality=card))
    *bounds, (table, exact) = calls
    assert exact == "" and {at_least for _, at_least in bounds} == {"at least "}
    assert 0 < bounds[-1][0] <= table


def test_window_of_the_wrong_arity_is_named():
    # the window guard leaves a box of the wrong arity to box_points, whose
    # error names it, however wide the box
    with pytest.raises(ValueError, match="box arity does not match the free rank"):
        beta_estimate(ps(Z1, [(0,), (1,)]), SearchConfig(box=((0, 29), (0, 29)), max_cardinality=4))


# rows of the window below: sizes 1, 2, 3, 3, 2, 3, 2, so 49 unrestricted
# pairs in rows of 7, and 19 isometric pairs in rows of 1, 3, 3, 3, 3, 3, 3
CUT_SETS = canonical_subsets(Z1, ((-1, 2),), 3)


CUT_CASES = [
    ("unrestricted", len(CUT_SETS), False),  # exactly the first row
    ("unrestricted", len(CUT_SETS) ** 2, True),
    ("unrestricted", len(CUT_SETS) ** 2 - 1, False),
    ("isometric", 5, False),  # one pair into the third row
    ("isometric", 19, True),
]


@pytest.mark.parametrize("variant, ceiling, complete", CUT_CASES)
def test_node_ceiling_cuts_rows(variant, ceiling, complete):
    assert [len(s) for s in CUT_SETS] == [1, 2, 3, 3, 2, 3, 2]
    U = ps(Z1, [(0,), (2,)])
    cfg = SearchConfig(box=((-1, 2),), max_cardinality=3, variant=variant, node_ceiling=ceiling)
    r = beta_estimate(U, cfg)
    assert (r.nodes, r.complete) == (ceiling, complete)
    expected = brute_first_minimum(
        CUT_SETS, cfg, lambda A, B: len(sumset(sumset(ps(Z1, A), ps(Z1, B)), U)))
    assert report_fields(r) == expected


@pytest.mark.parametrize("block", [1, 3, 7])
def test_scans_match_brute_force_in_small_blocks(block, monkeypatch):
    """Every window above fits one block of the default size; blocks of 1, 3
    and 7 pairs put block edges mid-row, on the ceiling and between tied
    minima."""
    monkeypatch.setattr(search, "_BLOCK_PAIRS", block)
    test_beta_alpha_match_brute_force()
    test_gamma_matches_brute_force()
    for case in CUT_CASES:
        test_node_ceiling_cuts_rows(*case)


def synthetic_scan(sizes, nums, p, dtype):
    """_first_minimum over sets of the given sizes, with nums[i][j] the
    numerator of the pair (i, j); returns its (key, A, B, nodes, complete),
    with the sets A and B of the pair it names, and the sets."""
    sets = [tuple((10 * i + k,) for k in range(size)) for i, size in enumerate(sizes)]
    cfg = SearchConfig(box=((0, 0),), max_cardinality=1, p=p)

    def eval_pairs(I, J):
        return np.array([nums[i][j] for i, j in zip(I.tolist(), J.tolist())], dtype=dtype)

    key, i, j, nodes, complete = search._first_minimum(np.array(sizes), cfg, eval_pairs)
    return (key, sets[i], sets[j], nodes, complete), sets


BIG = 10**6  # a numerator that never competes


@pytest.mark.parametrize("block", [4096, 2])
@pytest.mark.parametrize("dtype, scale", [(np.int64, 1), (object, 1), (object, 2**1100)],
                         ids=["int64", "int", "int-past-float"])
@pytest.mark.parametrize("order", [(1, 4), (4, 1)])
def test_prescreen_keeps_earlier_of_equal_ratios(block, dtype, scale, order, monkeypatch):
    # A of size 2 against B of size 1 (numerator 2) and of size 4 (numerator
    # 4): 2/sqrt(2 * 1) == 4/sqrt(2 * 4) exactly at p = 2.  Pairs (0, 1) and
    # (0, 2) fall in one block of 4096 and in two blocks of 2.  Python-int
    # numerators are gamma's; scaled by 2^1100 they pass the float range.
    monkeypatch.setattr(search, "_BLOCK_PAIRS", block)
    sizes = (2, *order)
    num_of = {1: 2, 4: 4}
    nums = [[BIG * scale] + [num_of[b] * scale for b in order]] + [[BIG * scale] * 3] * 2
    (key, a, b, nodes, complete), sets = synthetic_scan(sizes, nums, F(2), dtype)
    assert (a, b) == (sets[0], sets[1])
    assert key == (num_of[order[0]] * scale, 2, order[0])
    assert (nodes, complete) == (9, True)
    if scale == 1:
        r = search._report("beta", SearchConfig(box=((0, 0),), max_cardinality=1), key, a, b, nodes, complete)
        assert (r.value_float, r.value_exact) == (ratio_float(*key, F(2)), F(2))


@pytest.mark.parametrize("later_wins", [True, False])
def test_prescreen_leaves_near_ties_to_exact_comparison(later_wins):
    # at p = 999/500 the key (s2, 2, 1) of pair (1, 0) is within 1e-12
    # (relative) of the key (s1, 1, 1) of the earlier pair (0, 0), on either
    # side of it; at s2 ~ 1e17 consecutive s1 differ by less than a float's
    # resolution, so only the exact comparison can order them
    p = F(999, 500)
    s2 = 10**17 + 7
    s1 = int(s2 / 2 ** (500 / 999)) - 100
    assert compare_ratios(s1, 1, 1, s2, 2, 1, p) < 0
    while compare_ratios(s1 + 1, 1, 1, s2, 2, 1, p) < 0:
        s1 += 1
    # s1 is now the largest numerator whose ratio lies below the later pair's
    assert compare_ratios(s1 + 1, 1, 1, s2, 2, 1, p) > 0
    if later_wins:
        s1 += 1
    close = ratio_float(s1, 1, 1, p) / ratio_float(s2, 2, 1, p)
    assert abs(close - 1) < 1e-12
    nums = [[s1, 2 * s2], [s2, 2 * s2]]  # ratios about 1.4 s2 and s2
    (_, a, b, _, _), sets = synthetic_scan((1, 2), nums, p, np.int64)
    assert (a, b) == ((sets[1], sets[0]) if later_wins else (sets[0], sets[0]))


# --- gamma on fixed supports --------------------------------------------------


def float_mode(f):
    return WeightedFunction.of(f.context, [(q, float(w)) for q, w in f.entries]) if f.exact else f


def gamma_by_rebuild(f, support_g, support_h, p, gw, hw):
    """The oracle: build g and h from their positive weights, call gamma_ratio."""
    ctx = f.context
    g = WeightedFunction.of(ctx, [(q, w) for q, w in zip(support_g, gw) if w > 0])
    h = WeightedFunction.of(ctx, [(q, w) for q, w in zip(support_h, hw) if w > 0])
    if not g.entries or not h.entries:
        return math.inf
    return gamma_ratio(float_mode(f), g, h, float(p))


@pytest.mark.parametrize("ctx", [Z1, Z2, ZT3, Z2T], ids=["Z", "Z2", "ZxZ3", "Z2xZ2"])
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, F(2)])
def test_fixed_support_gamma_equals_gamma_ratio(ctx, exact, p):
    rng = random.Random(f"{ctx}{exact}{p}")

    def support(k):
        pts = {}
        while len(pts) < k:
            x = tuple(rng.randint(-2, 4) for _ in range(ctx.arity))
            pts[ctx.reduce(x)] = x  # unreduced torsion residues, as callers may pass
        out = list(pts.values())
        rng.shuffle(out)  # out of canonical order
        return out

    for _ in range(6):
        f = WeightedFunction.of(ctx, [
            (x, F(rng.randint(1, 9), rng.randint(1, 9)) if exact else rng.uniform(0.05, 3.0))
            for x in support(rng.randint(1, 3))])
        sg, sh = support(rng.randint(1, 5)), support(rng.randint(1, 5))
        evaluate = FixedSupportGamma(f, sg, sh, p)
        cases = [([0.0] * len(sg), [1.0] * len(sh)), ([1.0] * len(sg), [0.0] * len(sh))]
        cases += [([rng.choice([0.0, rng.uniform(0.0, 4.0)]) for _ in sg],
                   [rng.choice([0.0, rng.uniform(0.0, 4.0)]) for _ in sh]) for _ in range(30)]
        for gw, hw in cases:
            assert evaluate(gw, hw) == gamma_by_rebuild(f, sg, sh, p, gw, hw)
        assert evaluate(*cases[0]) == evaluate(*cases[1]) == math.inf


def test_fixed_support_gamma_rejects_duplicate_point():
    f = WeightedFunction.of(ZT3, [((0, 0), 1.0)])
    with pytest.raises(ValueError, match="duplicate support point"):
        FixedSupportGamma(f, [(0, 1), (0, 4)], [(0, 0)], 2.0)  # 4 = 1 mod 3


def test_underflowing_norm_gives_inf():
    # 1e-300 ** 1.5 underflows to 0.0, so ||g||_p is 0.0 and the ratio inf
    f = WeightedFunction.of(Z1, [((0,), 1.0)])
    evaluate = FixedSupportGamma(f, [(0,)], [(0,)], 1.5)
    g, h = (WeightedFunction.of(Z1, [((0,), w)]) for w in (1e-300, 1.0))
    assert evaluate([1e-300], [1.0]) == evaluate.line([1.0], [1.0], 0, 0)(1e-300) == math.inf
    assert gamma_ratio(f, g, h, 1.5) == math.inf


@pytest.mark.parametrize("ctx", [Z1, Z2, ZT3, Z2T], ids=["Z", "Z2", "ZxZ3", "Z2xZ2"])
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, F(2)])
def test_line_equals_gamma_ratio(ctx, exact, p):
    # evaluate.line(gw, hw, side, i)(x) is gamma_ratio with that one weight
    # set to x: for every coordinate of either side, at x <= 0 (the point
    # drops), at 1e-300 (whose power underflows, so a lone point's norm is
    # 0.0 and the ratio inf), in (0, 4] and at 4, from weights with zeros on
    # the moving side, on the other side, or everywhere but the moving point
    rng = random.Random(f"line{ctx}{exact}{p}")
    xs = [-1.0, -0.0, 0.0, 1e-300, 1e-6, 0.25, 0.5, 1.0, 3.999, 4.0] + [rng.uniform(0.0, 4.0) for _ in range(4)]

    def support(k):
        pts = {}
        while len(pts) < k:
            x = tuple(rng.randint(-2, 4) for _ in range(ctx.arity))
            pts[ctx.reduce(x)] = x
        out = list(pts.values())
        rng.shuffle(out)
        return out

    for _ in range(3):
        f = WeightedFunction.of(ctx, [
            (x, F(rng.randint(1, 9), rng.randint(1, 9)) if exact else rng.uniform(0.05, 3.0))
            for x in support(rng.randint(1, 3))])
        sg, sh = support(rng.randint(1, 4)), support(rng.randint(1, 4))
        evaluate = FixedSupportGamma(f, sg, sh, p)
        cases = [([rng.uniform(0.1, 2.0) for _ in sg], [rng.uniform(0.1, 2.0) for _ in sh]),
                 ([rng.choice([0.0, rng.uniform(0.1, 2.0)]) for _ in sg],
                  [rng.choice([0.0, rng.uniform(0.1, 2.0)]) for _ in sh]),
                 ([0.0] * len(sg), [rng.uniform(0.1, 2.0) for _ in sh]),
                 ([rng.uniform(0.1, 2.0) for _ in sg], [0.0] * len(sh))]
        for gw, hw in cases:
            before = (gw[:], hw[:])
            for side, ws in enumerate((gw, hw)):
                for i in range(len(ws)):
                    line = evaluate.line(gw, hw, side, i)
                    for x in xs:
                        moved = ws[:i] + [x] + ws[i + 1:]
                        g, h = (moved, hw) if side == 0 else (gw, moved)
                        assert line(x) == gamma_by_rebuild(f, sg, sh, p, g, h) == evaluate(g, h)
            assert (gw, hw) == before  # a line leaves the weights it was built from alone


def descent_by_rebuild(f, support_g, support_h, p, init_g=None, init_h=None, max_sweeps=200):
    """The coordinate descent with its objective rebuilt through gamma_ratio
    on every call, as the reference for the fixed-support one."""
    from scipy.optimize import minimize_scalar

    gw = [float(x) for x in (init_g if init_g is not None else [1.0] * len(support_g))]
    hw = [float(x) for x in (init_h if init_h is not None else [1.0] * len(support_h))]

    def objective():
        return gamma_by_rebuild(f, support_g, support_h, p, gw, hw)

    cur = objective()
    for _ in range(max_sweeps):
        start = cur
        for ws in (gw, hw):
            for idx in range(len(ws)):
                saved = ws[idx]

                def one(x, idx=idx, ws=ws):
                    ws[idx] = max(x, 0.0)
                    return objective()

                res = minimize_scalar(one, bounds=(0.0, 4.0), method="bounded")
                if res.fun < cur:
                    ws[idx] = max(float(res.x), 0.0)
                    cur = float(res.fun)
                else:
                    ws[idx] = saved
        if start - cur < 1e-10 * max(abs(start), 1.0):
            break
    return cur


@pytest.mark.parametrize("delta, p", [(0.5, 2.0), (0.1, 1.5)])
def test_descent_matches_rebuild_on_two_point_starts(delta, p):
    # the starts of laws.check_two_point: g, h on {0..4}, seeded uniform weights
    f = WeightedFunction.of(Z1, [((0,), 1.0), ((1,), delta)])
    supp = [(i,) for i in range(5)]
    rng = random.Random(0)
    for _ in range(2):
        init_g = [rng.uniform(0.1, 1.0) for _ in supp]
        init_h = [rng.uniform(0.1, 1.0) for _ in supp]
        args = (f, supp, supp, p, init_g, init_h, 12)
        assert refine_weights_coordinate_descent(*args) == descent_by_rebuild(*args)


def test_descent_matches_rebuild_on_gamma_witness():
    f = WeightedFunction.of(Z2, [((0, 0), F(1)), ((1, 0), F(1, 2)), ((0, 1), F(1, 3))])
    cfg = SearchConfig(box=((0, 1), (0, 1)), max_cardinality=3)
    w = gamma_indicator_estimate(f, cfg)
    refined = refine_weights_coordinate_descent(f, w.witness_a, w.witness_b, cfg.p)
    assert refined == descent_by_rebuild(f, w.witness_a, w.witness_b, cfg.p)
    assert refined == gamma_estimate(f, cfg).value_float


def test_descent_matches_rebuild_on_torsion_supports():
    # Z x Z_3 supports listed out of canonical order, one with an unreduced residue
    f = WeightedFunction.of(ZT3, [((0, 0), F(1)), ((1, 1), F(1, 2)), ((0, 2), F(2, 3))])
    sg = [(1, 0), (0, 0), (0, 4), (-1, 2)]
    sh = [(0, 2), (1, 1), (0, 0)]
    rng = random.Random(3)
    init_g = [rng.uniform(0.1, 1.0) for _ in sg]
    init_h = [rng.uniform(0.1, 1.0) for _ in sh]
    args = (f, sg, sh, 1.5, init_g, init_h, 8)
    assert refine_weights_coordinate_descent(*args) == descent_by_rebuild(*args)
    assert refine_weights_coordinate_descent(f, sg, sh, F(2)) == descent_by_rebuild(f, sg, sh, F(2))


def test_all_nonpositive_start_stops_after_one_sweep(monkeypatch):
    # no line can lower inf while the other side keeps no point; inf - inf
    # is NaN, and a NaN improvement must stop the descent, not run every sweep
    f = WeightedFunction.of(Z1, [((0,), 1.0), ((1,), 0.5)])
    supp = [(i,) for i in range(5)]
    calls = []
    real = search._bounded_minimum

    def counted(func, lo, hi):
        calls.append(lo)
        return real(func, lo, hi)

    monkeypatch.setattr(search, "_bounded_minimum", counted)
    assert refine_weights_coordinate_descent(f, supp, supp, 1.5, [0.0] * 5, [0.0] * 5) == math.inf
    assert len(calls) == 2 * len(supp)  # one sweep: every g weight, then every h weight


def bounded_objectives():
    """Seeded objectives on [0, 4]: smooth, kinked, inf on a sub-interval (its
    parabola terms go NaN), plateaus, and fixed-support gamma evaluators."""
    rng = random.Random(7)
    objs = []
    for _ in range(100):
        c, s = rng.uniform(-1.0, 5.0), rng.uniform(0.1, 3.0)
        objs += [
            lambda x, c=c, s=s: s * (x - c) ** 2 + math.sin(3.0 * x),
            lambda x, c=c, s=s: s * abs(x - c),
            lambda x, c=c, s=s: math.inf if x < c else s * (x - c - 0.5) ** 2,
            lambda x, c=c: math.inf if abs(x - c) < 1.0 else abs(x - c),
            lambda x, s=s: float(round(s * x)),
            lambda x, c=c, s=s: min(abs(x - c), s),  # ties where the kink is cut off
        ]
    f = WeightedFunction.of(Z1, [((0,), 1.0), ((1,), 0.5)])
    supp = [(i,) for i in range(3)]
    evaluate = FixedSupportGamma(f, supp, supp, 1.5)
    for _ in range(20):
        gw = [rng.uniform(0.0, 1.0) for _ in supp]
        hw = [rng.uniform(0.0, 1.0) for _ in supp]
        k = rng.randrange(len(supp))

        def one(x, gw=gw, hw=hw, k=k):
            return evaluate(gw[:k] + [max(x, 0.0)] + gw[k + 1:], hw)

        objs.append(one)
    return objs


def test_bounded_minimum_matches_scipy():
    # the port calls the objective at the same x's, in the same order, and
    # returns the same (x, fun) as the scipy routine it ports
    from scipy.optimize import minimize_scalar

    for obj in bounded_objectives():
        ours, theirs = [], []
        x, fun = _bounded_minimum(lambda x: ours.append(x) or obj(x), 0.0, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in its parabola
            res = minimize_scalar(lambda x: theirs.append(x) or obj(x),
                                  bounds=(0.0, 4.0), method="bounded")
        assert ours == theirs
        assert (x, fun) == (res.x, res.fun)


SCIPY_FREE = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from fractions import Fraction as F
from sumsetlab import laws, search
from sumsetlab.functional import WeightedFunction
from sumsetlab.groups import GroupContext

assert laws.check_two_point([0.5], [1.5]).holds
f = WeightedFunction.of(GroupContext(1), [((-1,), F(1)), ((0,), F(3, 4)), ((1,), F(1, 2))])
cfg = search.SearchConfig(box=((-1, 1),), max_cardinality=3)
print(repr(search.gamma_estimate(f, cfg).value_float))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m] is not None))
"""


@pytest.mark.parametrize("scipy", ["blocked", "importable"])
def test_descent_runs_without_scipy(scipy, src_env):
    # blocked: the descent needs no scipy; importable: nothing imports it
    # anyway, as a lazy import with a fallback would
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE, scipy],
        capture_output=True, text=True, timeout=300, env=src_env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["1.8341996954988742", "[]"], done.stdout
