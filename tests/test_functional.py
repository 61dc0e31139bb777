"""Max-convolution calculus, norms, rearrangements."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab.functional import (
    WeightedFunction,
    gamma_ratio,
    holder_conjugate,
    l1_norm,
    lp_norm,
    max_convolve,
    min_over_permutations,
    rearrange_nonincreasing,
)
from sumsetlab.groups import GroupContext, PointSet, sumset

Z1 = GroupContext(1)

F = Fraction


def fn(entries, ctx=Z1):
    return WeightedFunction.of(ctx, entries)


def line(*weights, start=0):
    return fn([((start + i,), w) for i, w in enumerate(weights)])


class TestMaxConvolve:
    def test_indicators_are_sumsets(self):
        f = line(F(1), F(1))
        c = max_convolve(f, f)
        assert c.entries == (((0,), F(1)), ((1,), F(1)), ((2,), F(1)))

    def test_singletons_multiply(self):
        f = fn([((0,), F(2))])
        g = fn([((5,), F(3))])
        assert max_convolve(f, g).entries == (((5,), F(6)),)

    def test_geometric_halves(self):
        f = line(F(1), F(1, 2))
        c = max_convolve(f, f)
        assert c.entries == (((0,), F(1)), ((1,), F(1, 2)), ((2,), F(1, 4)))

    def test_mode_mixing_rejected(self):
        with pytest.raises(ValueError):
            max_convolve(line(F(1)), fn([((0,), 1.0)]))

    def test_zero_weights_purged(self):
        f = fn([((0,), F(1)), ((1,), F(0))])
        assert len(f) == 1

    @pytest.mark.parametrize("w", [math.inf, math.nan])
    def test_non_finite_weights_rejected(self, w):
        with pytest.raises(ValueError, match="finite"):
            fn([((0,), 1.0), ((1,), w)])


class TestNorms:
    def test_l1_indicator(self):
        assert l1_norm(line(F(1), F(1), F(1))) == 3

    def test_l2_float(self):
        assert lp_norm(line(F(1), F(1, 2)), 2) == pytest.approx(math.sqrt(5) / 2)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            lp_norm(line(F(1)), 1)
        with pytest.raises(ValueError):
            holder_conjugate(Fraction(1))

    def test_conjugates(self):
        assert holder_conjugate(Fraction(2)) == 2
        assert holder_conjugate(Fraction(3, 2)) == 3
        assert holder_conjugate(4.0) == pytest.approx(4 / 3)


class TestGammaRatio:
    def test_point_masses(self):
        one = fn([((0,), F(1))])
        assert gamma_ratio(one, one, one, 2.0) == pytest.approx(1.0)

    def test_indicator_numerator(self):
        f = line(F(1), F(1))
        one = fn([((0,), F(1))])
        assert gamma_ratio(f, one, one, 2.0) == pytest.approx(2.0)

    def test_two_point_family_value(self):
        f = line(F(1), F(1, 2))
        assert gamma_ratio(f, f, f, 2.0) == pytest.approx(1.5)
        # numerator 15/8 over norm product 5/4
        assert l1_norm(max_convolve(max_convolve(f, f), f)) == F(15, 8)

    def test_exact_numerator_past_the_float_range(self):
        # ||f*g*h||_1 = 10^400 + 1 overflows float(); the ratio is inf, and
        # with g = h = 10^150 at 0 the same numerator over 10^300 is 10^100
        f = line(F(10**400), F(1))
        one = fn([((0,), F(1))])
        assert gamma_ratio(f, one, one, 2) == math.inf
        f, g = line(F(10**100)), fn([((0,), F(10**150))])
        den = lp_norm(g, 2) ** 2
        assert gamma_ratio(f, g, g, 2) == float(F(10**400) / F(den)) == pytest.approx(1e100)

    @given(
        st.lists(st.fractions(F(1, 8), F(8), max_denominator=8), min_size=1, max_size=4),
        st.fractions(F(1, 4), F(4), max_denominator=4),
        st.integers(-5, 5),
    )
    @settings(max_examples=60)
    def test_scaling_and_translation_invariance(self, ws, c, t):
        f = line(F(1), F(1, 2))
        g = line(*ws)
        h = line(F(1), F(2), F(1))
        base = gamma_ratio(f, g, h, 2.0)
        assert gamma_ratio(f, g.scale(c), h, 2.0) == pytest.approx(base)
        assert gamma_ratio(f.translate((t,)), g, h.translate((-t,)), 2.0) == pytest.approx(base)


@given(
    st.sets(st.integers(-6, 6), min_size=1, max_size=5),
    st.sets(st.integers(-6, 6), min_size=1, max_size=5),
)
@settings(max_examples=100)
def test_indicator_convolution_is_sumset(a, b):
    A = PointSet.of(Z1, [(x,) for x in a])
    B = PointSet.of(Z1, [(x,) for x in b])
    c = max_convolve(WeightedFunction.indicator(A), WeightedFunction.indicator(B))
    assert c.support() == sumset(A, B)
    assert all(w == 1 for _, w in c.entries)


class TestRearrangement:
    def test_swap(self):
        assert rearrange_nonincreasing(line(F(1), F(2))).weights() == (F(2), F(1))

    def test_constant_fixed(self):
        f = line(F(3), F(3), F(3))
        assert rearrange_nonincreasing(f) == f

    def test_oracle_two_point(self):
        f = line(F(1), F(2))
        mn, arr = min_over_permutations(f, f, f)
        fr = rearrange_nonincreasing(f)
        assert l1_norm(max_convolve(max_convolve(fr, fr), fr)) == mn
        assert sorted(arr[0]) == [F(1), F(2)]

    def test_oracle_bound(self):
        f = line(*[F(1)] * 6)
        with pytest.raises(ValueError):
            min_over_permutations(f, f, f)

    def test_nonincreasing_attains_min_on_intervals(self):
        # seeded interval-support triples; exact agreement with brute force
        rng = random.Random(11)
        for _ in range(25):
            fs = []
            for _ in range(3):
                size = rng.randint(1, 4)
                start = rng.randint(-2, 2)
                fs.append(line(*[F(rng.randint(16, 256), 16) for _ in range(size)],
                               start=start))
            mn, _ = min_over_permutations(*fs)
            r = [rearrange_nonincreasing(x) for x in fs]
            assert l1_norm(max_convolve(max_convolve(r[0], r[1]), r[2])) == mn

    def test_gapped_supports_can_beat_nonincreasing(self):
        # with holes in the support the nonincreasing arrangement is not
        # always minimal; a seeded search over gapped triples finds a strict
        # witness, so the interval restriction above is essential
        rng = random.Random(0)
        found = False
        for _ in range(300):
            fs = []
            for _ in range(3):
                size = rng.randint(2, 4)
                pts = rng.sample(range(6), size)
                fs.append(fn([((x,), F(rng.randint(16, 256), 16)) for x in pts]))
            mn, _ = min_over_permutations(*fs)
            r = [rearrange_nonincreasing(x) for x in fs]
            val = l1_norm(max_convolve(max_convolve(r[0], r[1]), r[2]))
            assert val >= mn  # oracle minimum is global by construction
            if val > mn:
                found = True
                break
        assert found
