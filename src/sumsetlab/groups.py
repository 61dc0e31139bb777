"""Exact arithmetic on finitely generated commutative groups.

The ambient group is Z^d x Z_{m1} x ... x Z_{mk}.  An element is a plain
tuple of ints laid out as (free coords..., torsion residues...); torsion
residues are always stored reduced mod m_i.  Finite sets of elements are
held in `PointSet` in a canonical order (torsion part first, then free part,
lexicographically), so equality and hashing are structural and every
operation is reproducible bit for bit.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class Homomorphism:
    """Group homomorphism given by integer matrices on coordinates.

    Output free coordinates are integer combinations of input free
    coordinates (torsion cannot map into a free coordinate).  Output torsion
    coordinates take integer combinations of both parts, reduced mod the
    target modulus; a coefficient c from an input residue mod m into a target
    residue mod m' is well defined only when m' divides c*m.
    """

    context_in: GroupContext
    context_out: GroupContext
    free_matrix: tuple[tuple[int, ...], ...]  # out_free x in_free
    torsion_free_matrix: tuple[tuple[int, ...], ...] = ()  # out_tors x in_free
    torsion_matrix: tuple[tuple[int, ...], ...] = ()  # out_tors x in_tors
    # indices of input coordinates deleted by a pure coordinate projection,
    # or None for a general matrix map (fibers need this to name the kernel)
    dropped_free: tuple[int, ...] | None = field(default=None)
    dropped_torsion: tuple[int, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        ci, co = self.context_in, self.context_out
        if len(self.free_matrix) != co.free_rank:
            raise ValueError("free_matrix row count != output free rank")
        for row in self.free_matrix:
            if len(row) != ci.free_rank:
                raise ValueError("free_matrix column count != input free rank")
        n_out_t = len(co.torsion_moduli)
        if len(self.torsion_free_matrix) not in (0, n_out_t):
            raise ValueError("torsion_free_matrix row count mismatch")
        if len(self.torsion_matrix) not in (0, n_out_t):
            raise ValueError("torsion_matrix row count mismatch")
        for j, row in enumerate(self.torsion_matrix):
            m_out = co.torsion_moduli[j]
            for c, m_in in zip(row, ci.torsion_moduli):
                if (c * m_in) % m_out != 0:
                    raise ValueError(
                        f"coefficient {c} from Z_{m_in} into Z_{m_out} is not well defined"
                    )

    @staticmethod
    def identity(ctx: GroupContext) -> "Homomorphism":
        d, k = ctx.free_rank, len(ctx.torsion_moduli)
        eye = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
        teye = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        tzero = tuple((0,) * d for _ in range(k))
        return Homomorphism(ctx, ctx, eye, tzero, teye, dropped_free=(), dropped_torsion=())

    @staticmethod
    def projection(
        ctx: GroupContext,
        keep_free: Sequence[int],
        keep_torsion: Sequence[int] | None = None,
    ) -> "Homomorphism":
        """Coordinate projection keeping the listed input coordinates."""
        keep_t = tuple(range(len(ctx.torsion_moduli))) if keep_torsion is None else tuple(keep_torsion)
        keep_f = tuple(keep_free)
        out_ctx = GroupContext(len(keep_f), tuple(ctx.torsion_moduli[i] for i in keep_t))
        fm = tuple(
            tuple(1 if j == src else 0 for j in range(ctx.free_rank)) for src in keep_f
        )
        tfm = tuple((0,) * ctx.free_rank for _ in keep_t)
        tm = tuple(
            tuple(1 if j == src else 0 for j in range(len(ctx.torsion_moduli)))
            for src in keep_t
        )
        dropped_f = tuple(i for i in range(ctx.free_rank) if i not in keep_f)
        dropped_t = tuple(i for i in range(len(ctx.torsion_moduli)) if i not in keep_t)
        return Homomorphism(ctx, out_ctx, fm, tfm, tm, dropped_free=dropped_f, dropped_torsion=dropped_t)

    @staticmethod
    def drop_free_coordinate(ctx: GroupContext, coord: int) -> "Homomorphism":
        if not 0 <= coord < ctx.free_rank:
            raise ValueError(f"no free coordinate {coord}")
        keep = [i for i in range(ctx.free_rank) if i != coord]
        return Homomorphism.projection(ctx, keep)

    @staticmethod
    def mod_reduction(ctx: GroupContext, coord: int, m: int) -> "Homomorphism":
        """Reduce one free coordinate mod m, keeping everything else."""
        if not 0 <= coord < ctx.free_rank:
            raise ValueError(f"no free coordinate {coord}")
        keep = [i for i in range(ctx.free_rank) if i != coord]
        out_ctx = GroupContext(len(keep), ctx.torsion_moduli + (m,))
        fm = tuple(
            tuple(1 if j == src else 0 for j in range(ctx.free_rank)) for src in keep
        )
        k = len(ctx.torsion_moduli)
        tfm = tuple((0,) * ctx.free_rank for _ in range(k)) + (
            tuple(1 if j == coord else 0 for j in range(ctx.free_rank)),
        )
        tm = tuple(
            tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
        ) + ((0,) * k,)
        return Homomorphism(ctx, out_ctx, fm, tfm, tm)

    def is_projection(self) -> bool:
        return self.dropped_free is not None

    def apply(self, p: Vec) -> Vec:
        ci, co = self.context_in, self.context_out
        free = ci.free_part(p)
        tors = ci.torsion_part(p)
        out_free = tuple(sum(c * x for c, x in zip(row, free)) for row in self.free_matrix)
        out_tors = []
        for j in range(len(co.torsion_moduli)):
            acc = 0
            if self.torsion_free_matrix:
                acc += sum(c * x for c, x in zip(self.torsion_free_matrix[j], free))
            if self.torsion_matrix:
                acc += sum(c * x for c, x in zip(self.torsion_matrix[j], tors))
            out_tors.append(acc)
        return co.reduce(out_free + tuple(out_tors))


def apply_hom(h: Homomorphism, A: PointSet) -> PointSet:
    if A.context != h.context_in:
        raise ValueError("point set context does not match homomorphism domain")
    return PointSet.of(h.context_out, (h.apply(p) for p in A.points))


def _kernel_context(h: Homomorphism) -> GroupContext:
    ci = h.context_in
    assert h.dropped_free is not None and h.dropped_torsion is not None
    return GroupContext(
        len(h.dropped_free), tuple(ci.torsion_moduli[i] for i in h.dropped_torsion)
    )


def fibers(A: PointSet, h: Homomorphism) -> dict[Vec, PointSet]:
    """Partition of A indexed by the image points of h.

    For coordinate projections the fiber elements are expressed in the
    dropped (kernel) coordinates; for general matrix maps the fibers are
    returned as subsets of A in the input context.
    """
    if A.context != h.context_in:
        raise ValueError("point set context does not match homomorphism domain")
    if not A.points:
        raise ValueError("fibers of an empty set are undefined")
    groups: dict[Vec, list[Vec]] = {}
    for p in A.points:
        groups.setdefault(h.apply(p), []).append(p)
    if not h.is_projection():
        return {x: PointSet.of(A.context, ps) for x, ps in groups.items()}
    ci = A.context
    d = ci.free_rank
    ker_ctx = _kernel_context(h)
    assert h.dropped_free is not None and h.dropped_torsion is not None

    def ker_coords(p: Vec) -> Vec:
        return tuple(p[i] for i in h.dropped_free) + tuple(
            p[d + i] for i in h.dropped_torsion
        )

    return {x: PointSet.of(ker_ctx, (ker_coords(p) for p in ps)) for x, ps in groups.items()}


def compress(A: PointSet, h: Homomorphism) -> PointSet:
    """Fiber-wise compression along h.

    Each fiber of size n is replaced by the initial segment {0, ..., n-1} on
    the dropped coordinate, so the result has the same cardinality as A.
    Implemented for the rank-1 torsion-free kernel case: h drops exactly one
    free coordinate.  Higher-rank compressions compose rank-1 steps.
    """
    if A.context != h.context_in:
        raise ValueError("point set context does not match homomorphism domain")
    if not h.is_projection() or h.dropped_torsion or len(h.dropped_free or ()) != 1:
        raise ValueError("compression needs a kernel that is torsion-free of rank 1")
    if not A.points:
        raise ValueError("compression of an empty set is undefined")
    coord = h.dropped_free[0]
    ctx = A.context
    groups: dict[Vec, list[Vec]] = {}
    for p in A.points:
        groups.setdefault(h.apply(p), []).append(p)
    out = []
    for image, ps in groups.items():
        base = ps[0]
        for i in range(len(ps)):
            q = list(base)
            q[coord] = i
            out.append(tuple(q))
    return PointSet.of(ctx, out)
