"""Verdict checks for the proved inequalities, plus the seeded suites."""

import itertools
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumsetlab import bitscan, laws
from sumsetlab.functional import WeightedFunction
from sumsetlab.groups import GroupContext, PointSet
from sumsetlab.laws import (
    InstanceRejected,
    _normalized_free,
    check_basic_chains,
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
from sumsetlab.search import DEFAULT_NODE_CEILING, SearchConfig, beta_estimate, canonical_count

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

    @pytest.mark.parametrize("variant", ["isometric", "isomeric"])
    @pytest.mark.parametrize("pts, hi, card", [((0, 4, 8), 11, 6), ((0, 1, 2), 3, 4)])
    def test_variants_go_to_beta_estimate(self, variant, pts, hi, card):
        # the bit scan scans unrestricted pairs only: a variant's verdict is
        # that of its own complete pair stream
        V = ps(Z1, [(x,) for x in pts])
        cfg = SearchConfig(box=((0, hi),), max_cardinality=card, variant=variant)
        v, r = check_quasicube_beta(V, cfg), beta_estimate(V, cfg)
        assert r.complete and v.note == "" and v.margin == r.value_exact - len(V) ** 2
        ce = {"A": [list(q) for q in r.witness_a], "B": [list(q) for q in r.witness_b], "V": [[x] for x in pts]}
        assert v.counterexample == (None if v.holds else ce) and v.holds == (v.margin == 0)

    @pytest.mark.parametrize("pts, box, card", [
        ([(4,)], ((-1, 2),), 3),
        ([(0,), (3,)], ((0, 4),), 4),
        ([(0, 0), (1, 1)], ((0, 4), (0, 3)), 4),
    ], ids=["one_point", "two_points", "two_points_2d"])
    def test_two_points_build_no_scan(self, monkeypatch, pts, box, card):
        # every certificate holds at |V| <= 2, so no scan is built; the note
        # counts the window's n(n+1)/2 pairs from canonical_count, as a scan would
        monkeypatch.setattr(laws, "_SCAN_CACHE", {})
        V = ps(GroupContext(len(box)), pts)
        v = check_quasicube_beta(V, SearchConfig(box=box, max_cardinality=card))
        assert laws._SCAN_CACHE == {}
        n = canonical_count(V.context, box, card)
        assert v.holds and v.margin == 0 and v.note == f"pairs={n * (n + 1) // 2} rechecked=0"

    def test_scans_are_kept_per_dimension(self, monkeypatch):
        # a 1-D and a 2-D V of three points on one window read two scans,
        # each kept under its dimension
        monkeypatch.setattr(laws, "_SCAN_CACHE", {})
        cfg = SearchConfig(box=((0, 2), (0, 2)), max_cardinality=3)
        for pts in ([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 1), (2, 2)], [(1, 0), (0, 1), (1, 1)]):
            check_quasicube_beta(ps(Z2, pts), cfg)
        assert sorted(laws._SCAN_CACHE) == [((3, 3), 3, 1), ((3, 3), 3, 2)]
        assert [s.dim for _, s in sorted(laws._SCAN_CACHE.items())] == [1, 2]

    def test_requires_exact_config(self):
        with pytest.raises(ValueError):
            check_quasicube_beta(
                ps(Z1, [(0,)]),
                SearchConfig(box=((0, 1),), max_cardinality=2, p=F(3)),
            )


@st.composite
def bit_scan_windows(draw):
    """A box the bit scan takes, often with its low corner off the origin:
    1-D up to 12 wide at cardinality <= 6, 2-D up to 4x3 at cardinality
    <= 4; and a V of at most 4 points, not translated to the origin."""
    d = draw(st.sampled_from([1, 2]))
    dims = (draw(st.integers(1, 12)),) if d == 1 else (draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    card = draw(st.integers(1, 6 if d == 1 else 4))
    box = tuple((lo, lo + n - 1) for lo, n in zip((draw(st.integers(-3, 3)) for _ in dims), dims))
    grid = list(itertools.product(range(-2, 10)) if d == 1 else itertools.product(range(-1, 3), range(-1, 2)))
    pts = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4, unique=True))
    return box, card, tuple(pts)


@given(bit_scan_windows())
@example((((0, 11),), 6, ((0,), (4,), (8,))))  # the slack's minimum is not the ratio's
@settings(max_examples=60, deadline=None)
def test_bit_scan_verdict_is_beta_estimates(case):
    # the bit scan's verdict names the margin and counterexample of a complete
    # beta_estimate on the same window
    box, card, pts = case
    V = ps(GroupContext(len(box)), pts)
    cfg = SearchConfig(box=box, max_cardinality=card)
    v = check_quasicube_beta(V, cfg)
    assert v.note.startswith("pairs=")
    report = beta_estimate(V, replace(cfg, node_ceiling=10**8))
    assert report.complete
    margin = report.value_exact - len(V) ** 2
    assert (v.holds, v.margin) == (margin == 0, margin)
    assert v.counterexample == (None if margin == 0 else {
        "A": [list(q) for q in report.witness_a],
        "B": [list(q) for q in report.witness_b],
        "V": [list(q) for q in V.points],
    })


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

    @pytest.mark.parametrize("u, hi, margin", [((0, 1, 2), 2, F(29, 9)), ((0, 1, 3), 3, 11)])
    def test_product_window_holds_sets_that_are_no_products(self, u, hi, margin):
        # the product window at cardinality 4 also holds sets that are no
        # products (A = B = {(0,0), (1,0), (2,0)} for U = {0,1,2}), so gamma-hat
        # of U x V falls strictly below the product: only "<=" is a theorem
        U, V = ps(Z1, [(x,) for x in u]), ps(Z1, [(0,), (1,)])
        cfg = SearchConfig(box=((0, hi),), max_cardinality=2)
        for v in (check_product_multiplicativity(U, V, cfg, cfg), check_product_multiplicativity(V, U, cfg, cfg)):
            assert v.holds and v.margin == margin and v.counterexample is None

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


U01 = ps(Z1, [(0,), (1,)])
LINE = SearchConfig(box=((0, 2),), max_cardinality=2, node_ceiling=1)
SQUARE = WeightedFunction.indicator(ps(Z2, [(0, 0), (1, 0), (0, 1), (1, 1)]))


@pytest.mark.parametrize("check", [
    lambda cfg: check_quasicube_beta(ps(GroupContext(1, (2,)), [(0, 0), (1, 0)]), cfg),
    lambda cfg: check_prekopa_discrete(U01, F(3), cfg),
    lambda cfg: check_beta_is_gamma(U01, F(2), cfg),
    lambda cfg: check_product_multiplicativity(U01, U01, cfg, cfg),
    lambda cfg: check_tensorization(SQUARE, replace(cfg, box=((0, 2), (0, 2))), cfg, cfg),
    lambda cfg: check_trivial_lower_bounds(U01, cfg),
    lambda cfg: check_independence_beta(U01, 2, cfg),
    lambda cfg: check_basic_chains(U01, cfg),
], ids=["quasicube_beta", "prekopa_discrete", "beta_is_gamma", "product_multiplicativity",
        "tensorization", "trivial_lower_bounds", "independence_beta", "basic_chains"])
def test_law_refuses_a_cut_window(check):
    # a window minimum is evidence about an infimum only when the whole
    # window was scanned: a law gives no verdict on a cut one
    with pytest.raises(ValueError, match=r"^(beta|alpha|gamma) scan cut at the node ceiling of 1 pairs$"):
        check(LINE)


@pytest.mark.parametrize("check, error", [
    (lambda cfg: check_prekopa_discrete(U01, F(3), cfg), "a hill_climb estimate covers no whole window"),
    (lambda cfg: check_independence_beta(U01, 2, cfg), "a hill_climb estimate covers no whole window"),
    (lambda cfg: check_product_multiplicativity(U01, U01, cfg, cfg), "gamma estimates have no hill_climb strategy"),
    (lambda cfg: check_tensorization(SQUARE, replace(cfg, box=((0, 2), (0, 2))), cfg, cfg),
     "gamma estimates have no hill_climb strategy"),
], ids=["prekopa_discrete", "independence_beta", "product_multiplicativity", "tensorization"])
def test_law_refuses_a_heuristic_estimate(check, error):
    # a hill climb never covers its window, whatever the ceiling, and gamma
    # has none: its indicator scan would run exhaustively and echo it
    with pytest.raises(ValueError, match=f"^{error}$"):
        check(replace(LINE, strategy="hill_climb", node_ceiling=DEFAULT_NODE_CEILING))


# the bit scan's kernel, forged to name a witness below |V|^2 for the
# triangle V that does not replay to it (A = {0}, B = {0, (1, 0)} give
# |A+B+V| = 5, not a squared ratio of 9 - 1/2); and beta_estimate, forged to
# give 1/2, attained at A = B = {0}: the law must refuse either verdict, also
# under -O.  V has three points, so the forged kernel is reached
FORGED_KERNELS = """
import dataclasses, sys
from fractions import Fraction
from sumsetlab import laws
from sumsetlab.groups import GroupContext, PointSet
from sumsetlab.search import SearchConfig

V = PointSet.of(GroupContext(2), [(0, 0), (1, 0), (0, 1)])
cfg = SearchConfig(box=((0, 1), (0, 1)), max_cardinality=2)
laws.bitscan.verify_subset_beta = lambda scan, v: {"pair_count": 55, "checked_pairs": 1, "counterexample": {
    "A": ((0, 0),), "B": ((0, 0), (1, 0)), "slack": -1}}
real = laws.beta_estimate
laws.beta_estimate = lambda V, cfg: dataclasses.replace(real(V, cfg), value_exact=Fraction(1, 2))
for variant in ("unrestricted", "isomeric"):
    try:
        laws.check_quasicube_beta(V, dataclasses.replace(cfg, variant=variant))
    except AssertionError as err:
        print(sys.flags.optimize, err)
"""


def test_witness_replay_runs_under_optimize(src_env):
    done = subprocess.run(
        [sys.executable, "-O", "-c", FORGED_KERNELS],
        capture_output=True, text=True, timeout=300, env=src_env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("1 witness of V = ((0, 0), (0, 1), (1, 0)) replays to 5^2/2, not 17/2\n"
                           "1 witness of V = ((0, 0), (0, 1), (1, 0)) replays to 3^2/1, not 1/2\n"), done.stdout


class TestFreiman:
    def test_triangle_equality(self):
        v = check_freiman(ps(Z2, [(0, 0), (1, 0), (0, 1)]))
        assert v.holds and v.margin == 0  # 6 >= 6

    def test_singleton(self):
        v = check_freiman(ps(Z1, [(0,)]))
        assert v.holds and v.margin == 0


class TestTwoPoint:
    def test_small_grid(self):
        v = check_two_point([0.0, 0.5, 1.0], [2.0, 3.0], r_max=4)
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
