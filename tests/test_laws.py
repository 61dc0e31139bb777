"""Verdict checks for the proved inequalities, plus the seeded suites."""

from dataclasses import replace
from fractions import Fraction

import pytest

from sumsetlab import bitscan, laws
from sumsetlab.functional import WeightedFunction
from sumsetlab.groups import GroupContext, PointSet
from sumsetlab.laws import (
    InstanceRejected,
    _normalized_free,
    check_beta_is_gamma,
    check_bm_corollary,
    check_compression_shrinks,
    check_freiman,
    check_independence_beta,
    check_petridis_instance,
    check_plunnecke,
    check_prekopa_discrete,
    check_product_multiplicativity,
    check_quasicube_beta,
    check_tensorization,
    check_trivial_lower_bounds,
    check_two_point,
    petridis_qualify,
    run_suite,
)
from sumsetlab.search import DEFAULT_NODE_CEILING, SearchConfig, beta_estimate

Z1 = GroupContext(1)
Z2 = GroupContext(2)
F = Fraction


def ps(ctx, pts):
    return PointSet.of(ctx, pts)


class TestQuasicubeBeta:
    def test_square(self):
        V = ps(Z2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        cfg = SearchConfig(box=((-1, 2), (-1, 2)), max_cardinality=4)
        v = check_quasicube_beta(V, cfg)
        assert v.holds and v.margin == 0

    def test_singleton(self):
        v = check_quasicube_beta(
            ps(Z1, [(4,)]), SearchConfig(box=((-1, 2),), max_cardinality=3)
        )
        assert v.holds

    def test_trapezoid(self):
        V = ps(Z2, [(0, 0), (1, 0), (0, 1), (3, 1)])
        cfg = SearchConfig(box=((-1, 2), (-1, 2)), max_cardinality=4)
        v = check_quasicube_beta(V, cfg)
        assert v.holds

    @pytest.mark.parametrize("ctx, pts, box", [
        (GroupContext(1, (2,)), [(0, 0), (1, 1)], ((0, 2),)),
        (GroupContext(3), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
         ((0, 1), (0, 1), (0, 0))),
    ])
    def test_generic_path_holds(self, ctx, pts, box):
        # coverage: torsion and rank 3 have no bit scan, beta_estimate decides
        v = check_quasicube_beta(ps(ctx, pts), SearchConfig(box=box, max_cardinality=4))
        assert v.holds and v.margin == 0 and v.counterexample is None and v.note == ""

    def test_generic_path_torsion_coset_fails(self):
        # {0} x Z_2 is a subgroup: A = B = V give the squared ratio 1 < |V|^2
        V = ps(GroupContext(1, (2,)), [(0, 0), (0, 1)])
        v = check_quasicube_beta(V, SearchConfig(box=((0, 2),), max_cardinality=3))
        assert not v.holds and v.margin == -3
        assert v.counterexample == {"A": [[0, 0], [0, 1]], "B": [[0, 0], [0, 1]],
                                    "V": [[0, 0], [0, 1]]}

    def test_both_paths_report_one_margin(self):
        # V = {0,1,2} is no quasicube: A = B = {0..3} gives |A+B+V| = 9, so the
        # margin is 81/16 - 9 = -63/16, on the bit scan in Z and generically
        # for the same V embedded in Z^3
        line = check_quasicube_beta(ps(Z1, [(0,), (1,), (2,)]),
                                    SearchConfig(box=((0, 3),), max_cardinality=4))
        space = check_quasicube_beta(ps(GroupContext(3), [(x, 0, 0) for x in range(3)]),
                                     SearchConfig(box=((0, 3), (0, 0), (0, 0)), max_cardinality=4))
        assert line.note.startswith("pairs=") and space.note == ""
        for v in (line, space):
            assert not v.holds and v.margin == F(-63, 16)
            assert v.to_json_dict()["margin"] == "-63/16"
        pts = [[0], [1], [2], [3]]
        assert line.counterexample == {"A": pts, "B": pts, "V": pts[:3]}
        first_axis = {k: [q[:1] for q in qs] for k, qs in space.counterexample.items()}
        assert first_axis == line.counterexample

    @pytest.mark.parametrize("ctx, pts, box, card, reason", [
        (Z1, [(0,), (1,)], ((0, 70),), 2, "box too large"),
        (Z2, [(0, 0), (62, 0)], ((0, 1), (0, 1)), 4, "V too wide"),
        (Z1, [(0,), (1,), (3,), (7,), (15,)], ((0, 2),), 3, "certificate bound"),
    ], ids=["wide_box", "wide_V", "five_points"])
    def test_bit_scan_refusals_go_to_beta_estimate(self, ctx, pts, box, card, reason):
        # the bit scan refuses these inputs, which beta_estimate decides
        V = ps(ctx, pts)
        dims = tuple(hi - lo + 1 for lo, hi in box)
        assert reason in bitscan.unsupported(dims, _normalized_free(V))
        v = check_quasicube_beta(V, SearchConfig(box=box, max_cardinality=card))
        assert v.holds and v.margin == 0 and v.note == ""
        assert beta_estimate(V, SearchConfig(box=box, max_cardinality=card)).value_exact == len(V) ** 2

    def test_cut_beta_estimate_is_refused(self):
        # the same wide box at cardinality 3 holds 6.18M pairs, above the
        # default ceiling: a cut scan is no proof, so no verdict
        V = ps(Z1, [(0,), (1,)])
        cfg = SearchConfig(box=((0, 70),), max_cardinality=3, node_ceiling=DEFAULT_NODE_CEILING)
        assert not beta_estimate(V, cfg).complete
        with pytest.raises(ValueError, match="node ceiling"):
            check_quasicube_beta(V, cfg)

    def test_requires_exact_config(self):
        with pytest.raises(ValueError):
            check_quasicube_beta(
                ps(Z1, [(0,)]),
                SearchConfig(box=((0, 1),), max_cardinality=2, p=F(3)),
            )


class TestPetridisPlunnecke:
    def test_petridis_example(self):
        X = ps(Z1, [(0,)])
        Y = ps(Z1, [(0,), (1,)])
        v = check_petridis_instance(X, Y, Y)
        assert v.holds and v.margin == 1  # 3*1 <= 2*2

    def test_petridis_trivial(self):
        X = ps(Z1, [(0,)])
        v = check_petridis_instance(X, X, X)
        assert v.holds and v.margin == 0

    def test_petridis_rejects_nonminimal(self):
        X = ps(Z1, [(0,), (1,), (5,)])
        Y = ps(Z1, [(0,), (1,)])
        with pytest.raises(InstanceRejected):
            check_petridis_instance(X, Y, Y)

    def test_qualify_produces_minimal(self):
        X = ps(Z1, [(0,), (1,), (5,)])
        Y = ps(Z1, [(0,), (1,)])
        Xq = petridis_qualify(X, Y)
        assert check_petridis_instance(Xq, Y, Y).holds

    def test_plunnecke_example(self):
        X = ps(Z1, [(i,) for i in range(5)])
        Y = ps(Z1, [(0,), (1,)])
        v = check_plunnecke(X, Y, 2)
        assert v.holds and v.margin == 5  # 180 - 175

    def test_plunnecke_singleton_y(self):
        X = ps(Z1, [(0,), (3,)])
        v = check_plunnecke(X, ps(Z1, [(0,)]), 3)
        assert v.holds and "witness_size=2" in v.note


class TestBmCorollary:
    def test_square_equality(self):
        U = ps(Z2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        A = ps(Z2, [(x, y) for x in range(3) for y in range(3)])
        v = check_bm_corollary(U, A, A)
        assert v.holds and v.margin == 0 and v.note == "exact"

    def test_singleton_pairs(self):
        U = ps(Z1, [(0,), (1,)])
        A = ps(Z1, [(0,)])
        assert check_bm_corollary(U, A, A).holds

    def test_dim_zero_rejected(self):
        with pytest.raises(ValueError):
            check_bm_corollary(ps(Z1, [(0,)]), ps(Z1, [(0,)]), ps(Z1, [(0,)]))


class TestCompression:
    def test_example(self):
        A = ps(Z2, [(0, 0), (0, 1)])
        B = ps(Z2, [(0, 0), (1, 2)])
        assert check_compression_shrinks(A, B, 1).holds


class TestTrivialBounds:
    def test_two_point(self):
        U = ps(Z1, [(0,), (1,)])
        v = check_trivial_lower_bounds(U, SearchConfig(box=((-2, 3),), max_cardinality=4))
        assert v.holds and v.margin == 0  # both bounds attained

    def test_torsion_coset_degenerate(self):
        ctx = GroupContext(0, (2,))
        U = ps(ctx, [(0,), (1,)])
        v = check_trivial_lower_bounds(U, SearchConfig(box=(), max_cardinality=2))
        assert v.holds and "degenerate" in v.note

    def test_gap_two(self):
        U = ps(Z1, [(0,), (3,)])
        v = check_trivial_lower_bounds(U, SearchConfig(box=((-2, 5),), max_cardinality=4))
        assert v.holds


class TestIndependence:
    def test_scaled_windows(self):
        cfg = SearchConfig(box=((-2, 3),), max_cardinality=4)
        for m in (1, 2, 3):
            v = check_independence_beta(ps(Z1, [(0,), (1,)]), m, cfg)
            assert v.holds and v.margin == 0


class TestBetaIsGamma:
    def test_float_p_rejected(self):
        # a float p reaches SearchConfig as given, not as its exact Fraction
        with pytest.raises(ValueError, match="1.3"):
            check_beta_is_gamma(ps(Z1, [(0,), (1,)]), 1.3, SearchConfig(box=((0, 1),), max_cardinality=2))

    @pytest.mark.parametrize("p", [F(2), F(3, 2)])
    def test_holds_and_replays(self, p):
        v = check_beta_is_gamma(ps(Z2, [(0, 0), (1, 0), (0, 1)]), p, SearchConfig(box=((0, 1), (0, 1)), max_cardinality=3))
        assert v.holds and v.margin == 0 and v.counterexample is None

    @pytest.mark.parametrize("estimate", ["beta_estimate", "gamma_indicator_estimate"])
    def test_witness_that_does_not_replay_fails(self, estimate, monkeypatch):
        # equal values, but one report names a pair whose ratio is not its value
        real = getattr(laws, estimate)
        monkeypatch.setattr(laws, estimate, lambda *a: replace(real(*a), witness_b=((0,), (1,))))
        v = check_beta_is_gamma(ps(Z1, [(0,), (1,)]), F(2), SearchConfig(box=((-1, 2),), max_cardinality=3))
        assert not v.holds and v.margin == 0
        side = "beta" if estimate == "beta_estimate" else "gamma"
        assert v.counterexample["replayed"] == {"beta": side != "beta", "gamma": side != "gamma"}


class TestProductAndTensorization:
    def test_product_multiplicativity_on_the_square(self):
        # {0,1} x {0,1} on the box 0..2 at cardinality 2, so the square on
        # 0..2 x 0..2 at cardinality 4
        U = ps(Z1, [(0,), (1,)])
        cfg = SearchConfig(box=((0, 2),), max_cardinality=2)
        v = check_product_multiplicativity(U, U, cfg, cfg)
        assert v.holds and v.margin == 0

    def test_tensorization_of_the_square(self):
        f = WeightedFunction.indicator(ps(Z2, [(0, 0), (1, 0), (0, 1), (1, 1)]))
        line = SearchConfig(box=((0, 2),), max_cardinality=2)
        v = check_tensorization(f, SearchConfig(box=((0, 2), (0, 2)), max_cardinality=4), line, line)
        assert v.holds and v.margin == 0


class TestPrekopaDiscrete:
    def test_irrational_p_rejected_before_the_scan(self):
        # p is taken as SearchConfig takes it: a float is refused before the
        # scan, not rounded to a Fraction that the bound would not use
        with pytest.raises(ValueError, match="p must be an int or a Fraction, not the float"):
            check_prekopa_discrete(ps(Z1, [(0,), (1,)]), 2**0.5, SearchConfig(box=((0, 3),), max_cardinality=3))


class TestFreiman:
    def test_triangle_equality(self):
        v = check_freiman(ps(Z2, [(0, 0), (1, 0), (0, 1)]))
        assert v.holds and v.margin == 0  # 6 >= 6

    def test_singleton(self):
        v = check_freiman(ps(Z1, [(0,)]))
        assert v.holds and v.margin == 0


class TestTwoPoint:
    def test_small_grid(self):
        v = check_two_point([0.0, 0.5, 1.0], [2.0, 3.0], r_max=4, descent_starts=0)
        assert v.holds
        assert v.margin >= -1e-9

    @pytest.mark.parametrize("deltas, ps_, r_max", [([0.5], [2.0], -1), ([], [2.0], 2),
                                                    ([0.5], [], 2)])
    def test_rejects_empty_grid(self, deltas, ps_, r_max):
        # such a grid checks no ratio, and its margin would be inf
        with pytest.raises(ValueError, match="two_point needs"):
            check_two_point(deltas, ps_, r_max=r_max)


FAST_SUITES = [
    "rearrangement",
    "compression",
    "beta_gamma",
    "independence",
    "chains",
    "trivial_freiman",
    "two_point",
    "petridis_plunnecke",
]


@pytest.mark.parametrize("name", FAST_SUITES)
def test_suite_green(name):
    verdicts = run_suite(name)
    bad = [v for v in verdicts if not v.holds]
    assert not bad, bad[:3]
    assert verdicts  # nonempty


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("no_such_suite")


def test_verdict_serialization():
    v = run_suite("independence")[0]
    doc = v.to_json_dict()
    assert doc["holds"] is True
    assert set(doc) == {"law", "holds", "margin", "inputs", "counterexample", "note"}
