"""Exact arithmetic on finitely generated commutative groups.

The ambient group is Z^d x Z_{m1} x ... x Z_{mk}.  An element is a plain
tuple of ints laid out as (free coords..., torsion residues...); torsion
residues are always stored reduced mod m_i.  Finite sets of elements are
held in `PointSet` in a canonical order (torsion part first, then free part,
lexicographically), so equality and hashing are structural and every
operation is reproducible bit for bit.  `compress` is the discrete
compression along one free coordinate that the compression law checks.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .intlinalg import int_rank

Vec = tuple[int, ...]


@dataclass(frozen=True)
class GroupContext:
    """Ambient group Z^free_rank x Z_{m1} x ... x Z_{mk}."""

    free_rank: int
    torsion_moduli: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        if any(m < 2 for m in self.torsion_moduli):
            raise ValueError("torsion moduli must all be >= 2")

    @property
    def arity(self) -> int:
        return self.free_rank + len(self.torsion_moduli)

    @property
    def is_torsion_free(self) -> bool:
        return not self.torsion_moduli

    def zero(self) -> Vec:
        return (0,) * self.arity

    def reduce(self, v: Sequence[int]) -> Vec:
        """Reduce torsion residues mod their moduli."""
        if len(v) != self.arity:
            raise ValueError(f"point arity {len(v)} != context arity {self.arity}")
        d = self.free_rank
        free = tuple(int(x) for x in v[:d])
        tors = tuple(int(x) % m for x, m in zip(v[d:], self.torsion_moduli))
        return free + tors

    def add(self, u: Vec, v: Vec) -> Vec:
        return self.reduce(tuple(a + b for a, b in zip(u, v)))

    def free_part(self, u: Vec) -> Vec:
        return u[: self.free_rank]

    def torsion_part(self, u: Vec) -> Vec:
        return u[self.free_rank :]

    def sort_key(self, u: Vec) -> Vec:
        # canonical order: torsion residues first, then free coordinates
        return self.torsion_part(u) + self.free_part(u)


@dataclass(frozen=True)
class PointSet:
    """Finite duplicate-free set of group elements in canonical order."""

    context: GroupContext
    points: tuple[Vec, ...]

    @staticmethod
    def of(context: GroupContext, points: Iterable[Sequence[int]]) -> "PointSet":
        reduced = {context.reduce(p) for p in points}
        ordered = tuple(sorted(reduced, key=context.sort_key))
        return PointSet(context, ordered)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p: Vec) -> bool:
        return p in set(self.points)

    def as_set(self) -> frozenset[Vec]:
        return frozenset(self.points)

    def is_subset(self, other: "PointSet") -> bool:
        return self.as_set() <= other.as_set()

    def translate(self, t: Sequence[int]) -> "PointSet":
        tt = self.context.reduce(t)
        return PointSet.of(self.context, (self.context.add(p, tt) for p in self.points))

    def subsets(self):
        """Yield all nonempty subsets (as PointSets), by size."""
        for k in range(1, len(self.points) + 1):
            for combo in itertools.combinations(self.points, k):
                yield PointSet(self.context, combo)


def _require_same_context(A: PointSet, B: PointSet) -> None:
    if A.context != B.context:
        raise ValueError("point sets live in different group contexts")


def sumset(A: PointSet, B: PointSet) -> PointSet:
    """{a+b : a in A, b in B}, canonical."""
    _require_same_context(A, B)
    if not A.points or not B.points:
        raise ValueError("sumset of an empty set is undefined here")
    ctx = A.context
    out = {ctx.add(a, b) for a in A.points for b in B.points}
    return PointSet(ctx, tuple(sorted(out, key=ctx.sort_key)))


def iterated_sumset(A: PointSet, k: int) -> PointSet:
    """k-fold sumset A + ... + A; k=1 returns A."""
    if k < 1:
        raise ValueError("k must be >= 1")
    acc = A
    for _ in range(k - 1):
        acc = sumset(acc, A)
    return acc


def dimension(A: PointSet) -> int:
    """Rank over Q of the differences A - A, free part only (torsion adds 0)."""
    if not A.points:
        raise ValueError("dimension of the empty set is undefined")
    ctx = A.context
    base = A.points[0]
    diffs = [
        [a - b for a, b in zip(ctx.free_part(p), ctx.free_part(base))]
        for p in A.points[1:]
    ]
    if not diffs:
        return 0
    return int_rank(diffs)


def compress(A: PointSet, coord: int) -> PointSet:
    """Compression along free coordinate `coord`.

    Points that agree off `coord` form a fiber; a fiber of n points becomes
    {0, ..., n-1} on `coord`, so the result has the same cardinality as A.
    """
    if not 0 <= coord < A.context.free_rank:
        raise ValueError(f"no free coordinate {coord}")
    if not A.points:
        raise ValueError("compression of an empty set is undefined")
    sizes = Counter(p[:coord] + p[coord + 1 :] for p in A.points)
    return PointSet.of(
        A.context,
        (rest[:coord] + (i,) + rest[coord:] for rest, n in sizes.items() for i in range(n)),
    )
