"""Finitely supported nonnegative functions and the max-convolution calculus.

A function is a finite map from group elements to strictly positive weights
(zeros are purged eagerly, so the support is exactly where the function is
positive).  Two arithmetic modes exist and never mix inside one computation:
exact (Fraction weights) and numeric (float weights).  Exact mode powers all
p=2 and integer-p verdicts; floats carry a 1e-9 tolerance for irrational
exponents.

Max-convolution (f * g)(x) = max_t f(t) g(x - t) extends the sumset: for
indicators, 1_A * 1_B = 1_{A+B}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .groups import GroupContext, PointSet, Vec

Weight = Fraction | float
FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class WeightedFunction:
    context: GroupContext
    entries: tuple[tuple[Vec, Weight], ...]  # sorted by canonical point order
    exact: bool

    @staticmethod
    def of(
        context: GroupContext, weights: Mapping[Sequence[int], Weight] | Iterable[tuple[Sequence[int], Weight]]
    ) -> "WeightedFunction":
        items = weights.items() if isinstance(weights, Mapping) else weights
        acc: dict[Vec, Weight] = {}
        exact = True
        for p, w in items:
            if isinstance(w, float):
                exact = False
            elif isinstance(w, (int, Fraction)):
                w = Fraction(w)
            else:
                raise ValueError(f"unsupported weight type {type(w)!r}")
            if w < 0:
                raise ValueError("weights must be nonnegative")
            if w == 0:
                continue
            key = context.reduce(p)
            if key in acc:
                raise ValueError(f"duplicate support point {key}")
            acc[key] = w
        if not exact:
            acc = {k: float(v) for k, v in acc.items()}
        ordered = tuple(sorted(acc.items(), key=lambda kv: context.sort_key(kv[0])))
        return WeightedFunction(context, ordered, exact)

    @staticmethod
    def indicator(A: PointSet) -> "WeightedFunction":
        return WeightedFunction.of(A.context, [(p, Fraction(1)) for p in A.points])

    def __len__(self) -> int:
        return len(self.entries)

    def __call__(self, p: Vec) -> Weight:
        for q, w in self.entries:
            if q == p:
                return w
        return Fraction(0) if self.exact else 0.0

    def support(self) -> PointSet:
        return PointSet.of(self.context, (p for p, _ in self.entries))

    def weights(self) -> tuple[Weight, ...]:
        return tuple(w for _, w in self.entries)

    def translate(self, t: Sequence[int]) -> "WeightedFunction":
        ctx = self.context
        tt = ctx.reduce(t)
        return WeightedFunction.of(ctx, [(ctx.add(p, tt), w) for p, w in self.entries])

    def scale(self, c: Weight) -> "WeightedFunction":
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        if self.exact and isinstance(c, float):
            raise ValueError("float scale on an exact-mode function")
        return WeightedFunction.of(self.context, [(p, w * c) for p, w in self.entries])


def _require_compatible(f: WeightedFunction, g: WeightedFunction) -> None:
    if f.context != g.context:
        raise ValueError("functions live in different group contexts")
    if f.exact != g.exact:
        raise ValueError("exact and numeric modes cannot mix")
    if not f.entries or not g.entries:
        raise ValueError("empty support")


def max_convolve(f: WeightedFunction, g: WeightedFunction) -> WeightedFunction:
    """(f * g)(x) = max over splittings x = s + t of f(s) g(t)."""
    _require_compatible(f, g)
    ctx = f.context
    out: dict[Vec, Weight] = {}
    for p, wf in f.entries:
        for q, wg in g.entries:
            key = ctx.add(p, q)
            w = wf * wg
            if key not in out or w > out[key]:
                out[key] = w
    return WeightedFunction.of(ctx, out)


def l1_norm(f: WeightedFunction) -> Weight:
    if not f.entries:
        raise ValueError("empty support")
    total = sum(w for _, w in f.entries)
    return total


def lp_norm(f: WeightedFunction, p: Fraction | float) -> float:
    """(sum f(x)^p)^(1/p) as a float; p must exceed 1 (use l1_norm for p=1)."""
    if not f.entries:
        raise ValueError("empty support")
    pf = float(p)
    if pf <= 1:
        raise ValueError("lp_norm requires p > 1")
    return sum(float(w) ** pf for _, w in f.entries) ** (1.0 / pf)


def holder_conjugate(p: Fraction | float) -> Fraction | float:
    if isinstance(p, Fraction):
        if p <= 1:
            raise ValueError("p must exceed 1")
        return p / (p - 1)
    if p <= 1:
        raise ValueError("p must exceed 1")
    return p / (p - 1.0)


def gamma_ratio(
    f: WeightedFunction, g: WeightedFunction, h: WeightedFunction, p: Fraction | float
) -> float:
    """||f*g*h||_1 / (||g||_p ||h||_q) with q the Hölder conjugate of p."""
    q = holder_conjugate(p)
    num = float(l1_norm(max_convolve(max_convolve(f, g), h)))
    return num / (lp_norm(g, p) * lp_norm(h, q))


# --- rearrangements on Z ---------------------------------------------------


def _require_line(f: WeightedFunction) -> None:
    if f.context.free_rank != 1 or f.context.torsion_moduli:
        raise ValueError("rearrangement requires functions on Z")


def rearrange_nonincreasing(f: WeightedFunction) -> WeightedFunction:
    """Place the weights in nonincreasing order along the sorted support."""
    _require_line(f)
    if not f.entries:
        raise ValueError("empty support")
    positions = sorted(p for p, _ in f.entries)
    values = sorted((w for _, w in f.entries), reverse=True)
    return WeightedFunction.of(f.context, zip(positions, values))


def _int_weights(f: WeightedFunction) -> tuple[list[int], int]:
    """Scale exact weights to integers; returns (weights, denominator)."""
    dens = [Fraction(w).denominator for _, w in f.entries]
    lcm = math.lcm(*dens) if dens else 1
    return [int(Fraction(w) * lcm) for _, w in f.entries], lcm


def _triple_l1_int(fw: Sequence[int], fpos: Sequence[int], ghw: dict[int, int]) -> int:
    out: dict[int, int] = {}
    for w, x in zip(fw, fpos):
        for y, v in ghw.items():
            key = x + y
            prod = w * v
            if prod > out.get(key, -1):
                out[key] = prod
    return sum(out.values())


def _pair_conv_int(gw: Sequence[int], gpos: Sequence[int], hw: Sequence[int], hpos: Sequence[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for w, x in zip(gw, gpos):
        for v, y in zip(hw, hpos):
            key = x + y
            prod = w * v
            if prod > out.get(key, -1):
                out[key] = prod
    return out


def min_over_permutations(
    f: WeightedFunction,
    g: WeightedFunction,
    h: WeightedFunction,
    max_support: int = 5,
) -> tuple[Weight, tuple[tuple[Weight, ...], tuple[Weight, ...], tuple[Weight, ...]]]:
    """Brute-force oracle: minimum of ||f_s * g_t * h_r||_1 over all
    permutations of the three supports, with the minimizing weight
    arrangements (weights listed along each sorted support).

    Exact-mode only; supports capped (the search is factorial).
    """
    for fn in (f, g, h):
        _require_line(fn)
        if not fn.exact:
            raise ValueError("the permutation oracle runs in exact mode")
        if len(fn) > max_support:
            raise ValueError(f"support size {len(fn)} above oracle bound {max_support}")
    _require_compatible(f, g)
    _require_compatible(g, h)

    scaled = [_int_weights(fn) for fn in (f, g, h)]
    positions = [sorted(p[0] for p, _ in fn.entries) for fn in (f, g, h)]
    denom = scaled[0][1] * scaled[1][1] * scaled[2][1]

    perms = [sorted(set(itertools.permutations(ws))) for ws, _ in scaled]
    best: int | None = None
    best_arr = None
    for tau in perms[1]:
        for rho in perms[2]:
            gh = _pair_conv_int(tau, positions[1], rho, positions[2])
            for sigma in perms[0]:
                val = _triple_l1_int(sigma, positions[0], gh)
                if best is None or val < best:
                    best = val
                    best_arr = (sigma, tau, rho)
    assert best is not None and best_arr is not None

    def rescale(ws: Sequence[int], lcm: int) -> tuple[Weight, ...]:
        return tuple(Fraction(w, lcm) for w in ws)

    arrangements = tuple(
        rescale(arr, scaled[i][1]) for i, arr in enumerate(best_arr)
    )
    return Fraction(best, denom), arrangements  # type: ignore[return-value]
