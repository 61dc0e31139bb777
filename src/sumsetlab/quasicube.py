"""Quasicube construction, recognition, and the log-span test.

A 0-dimensional quasicube is a singleton.  A d-dimensional quasicube splits
into two halves lying in distinct parallel cosets of a subgroup whose coset
difference has infinite order, each half a (d-1)-dimensional quasicube; such
a set has exactly 2^d points and dimension d.  In Z^2 a quasicube is any
trapezoid: four points on two distinct parallel lines.

Recognition enumerates balanced bipartitions and tests each candidate split
with exact integer rank computations; no recognition algorithm better than
this is known to us, and the search is capped at dimension 4.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .groups import GroupContext, PointSet, Vec, dimension
from .intlinalg import in_rational_span

MAX_RECOGNITION_DIM = 4
LOG_SPAN_MAX_POINTS = 20


@dataclass(frozen=True)
class Leaf:
    point: Vec


@dataclass(frozen=True)
class Node:
    left: "QuasicubeSpec"
    right: "QuasicubeSpec"
    shift: Vec


QuasicubeSpec = Union[Leaf, Node]


@dataclass(frozen=True)
class QuasicubeWitness:
    """Recursive certificate that a set is a quasicube.

    `subgroup_basis` spans (over Q) the lattice containing both halves'
    internal differences; `coset_reps` are one point from each half, whose
    difference lies outside that span (hence has infinite order in the
    quotient).
    """

    subgroup_basis: tuple[Vec, ...]
    coset_reps: tuple[Vec, Vec]
    halves: tuple[Optional["QuasicubeWitness"], Optional["QuasicubeWitness"]]


def spec_depth(spec: QuasicubeSpec) -> int:
    if isinstance(spec, Leaf):
        return 0
    return 1 + max(spec_depth(spec.left), spec_depth(spec.right))


def _balanced(spec: QuasicubeSpec) -> bool:
    if isinstance(spec, Leaf):
        return True
    return (
        spec_depth(spec.left) == spec_depth(spec.right)
        and _balanced(spec.left)
        and _balanced(spec.right)
    )


def _separation(left: Sequence[Vec], right: Sequence[Vec]) -> Optional[list[Vec]]:
    """The within-half differences of consecutive points, or None when the
    coset difference right[0] - left[0] lies in their rational span (the
    halves are then not separated by a difference of infinite order in the
    quotient)."""
    within = [
        tuple(a - b for a, b in zip(p, q))
        for side in (left, right)
        for p, q in zip(side[1:], side)
    ]
    cross = tuple(a - b for a, b in zip(right[0], left[0]))
    return None if in_rational_span(cross, within) else within


def _build(spec: QuasicubeSpec, ctx: GroupContext) -> list[Vec]:
    """Build and validate one node: halves must not collide, and they must
    be coset separated (see _separation)."""
    if isinstance(spec, Leaf):
        return [ctx.reduce(spec.point)]
    left = _build(spec.left, ctx)
    right = [ctx.add(p, ctx.reduce(spec.shift)) for p in _build(spec.right, ctx)]
    if set(left) & set(right):
        raise ValueError("spec halves collide")
    if _separation(left, right) is None:
        raise ValueError("spec violates coset separation")
    return left + right


def make_quasicube(spec: QuasicubeSpec) -> PointSet:
    """Build the point set of a spec in Z^n, n the length of its points,
    validating the quasicube property at every node."""
    context = GroupContext(_spec_arity(spec))
    d = spec_depth(spec)
    if not _balanced(spec):
        raise ValueError("spec tree must be a full binary tree (both halves equal depth)")
    U = PointSet.of(context, _build(spec, context))
    assert len(U) == 2**d and dimension(U) == d
    return U


def _spec_arity(spec: QuasicubeSpec) -> int:
    if isinstance(spec, Leaf):
        return len(spec.point)
    return len(spec.shift)


def random_spec(depth: int, box: int, rng: random.Random) -> QuasicubeSpec:
    """Random quasicube spec in Z^depth with leaf/level shifts drawn from
    [-box, box].

    Level k separates its halves along coordinate k-1; the extra shift of the
    upper half is drawn from the box in the earlier coordinates, so halves
    can never collide and coset separation holds by construction.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if box < 0:
        raise ValueError("box must be nonnegative")

    def gen(k: int) -> QuasicubeSpec:
        if k == 0:
            return Leaf((0,) * depth)
        sep = [0] * depth
        sep[k - 1] = rng.choice([m for m in range(-box, box + 1) if m != 0] or [1])
        for i in range(k - 1):
            sep[i] = rng.randint(-box, box)
        return Node(gen(k - 1), gen(k - 1), tuple(sep))

    return gen(depth)


def is_quasicube(U: PointSet) -> tuple[bool, Optional[QuasicubeWitness]]:
    """Decide whether U is a quasicube; on success return a full witness.

    Enumerates balanced bipartitions, checking each for a separating
    sublattice via exact rank computations and recursing on the halves.
    Capped at dimension 4 (the bipartition count explodes beyond that).
    """
    if not U.points:
        raise ValueError("empty set")
    if not U.context.is_torsion_free:
        raise ValueError("recognition is implemented for torsion-free contexts only")
    n = len(U)
    if n == 1:
        return True, QuasicubeWitness((), (U.points[0], U.points[0]), (None, None))
    d = dimension(U)
    if d > MAX_RECOGNITION_DIM:
        raise ValueError(f"recognition capped at dimension {MAX_RECOGNITION_DIM}")
    if n != 2**d:
        return False, None
    return _recognize(U.context, U.points)


def _recognize(ctx: GroupContext, pts: tuple[Vec, ...]) -> tuple[bool, Optional[QuasicubeWitness]]:
    n = len(pts)
    if n == 1:
        return True, QuasicubeWitness((), (pts[0], pts[0]), (None, None))
    half = n // 2
    first = pts[0]
    rest = pts[1:]
    # fix pts[0] in the left half; bipartitions are unordered
    for combo in itertools.combinations(rest, half - 1):
        left = (first,) + combo
        left_set = set(left)
        right = tuple(p for p in pts if p not in left_set)
        within = _separation(left, right)
        if within is None:
            continue
        okl, wl = _recognize(ctx, left)
        if not okl:
            continue
        okr, wr = _recognize(ctx, right)
        if not okr:
            continue
        basis = tuple(v for v in within if any(v))
        return True, QuasicubeWitness(basis, (left[0], right[0]), (wl, wr))
    return False, None


def log_span_check(V: PointSet) -> tuple[bool, Optional[PointSet]]:
    """True iff every subset V' of V has at most 2^dim(V') elements.

    A violation of size m forces one of size 2^k + 1 (drop points until the
    count is one above a power of two; the dimension can only shrink), so
    only subset sizes 2^k + 1 need scanning.
    """
    if not V.points:
        raise ValueError("empty set")
    if len(V) > LOG_SPAN_MAX_POINTS:
        raise ValueError(f"set of size {len(V)} above the enumeration bound {LOG_SPAN_MAX_POINTS}")
    n = len(V)
    k = 0
    while 2**k + 1 <= n:
        size = 2**k + 1
        for combo in itertools.combinations(V.points, size):
            sub = PointSet(V.context, combo)
            if dimension(sub) <= k:
                return False, sub
        k += 1
    return True, None


# --- spec text format: leaf `[x1 ... xn]`, node `(<left> <right> [s1 ... sn])`


def format_spec(spec: QuasicubeSpec) -> str:
    if isinstance(spec, Leaf):
        return "[" + " ".join(str(x) for x in spec.point) + "]"
    return f"({format_spec(spec.left)} {format_spec(spec.right)} [" + " ".join(
        str(x) for x in spec.shift
    ) + "])"

