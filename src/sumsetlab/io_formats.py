"""Text formats for point sets, weighted functions, and quasicube specs.

Point set:
    group <free_rank> [mod <m1> <m2> ...]
    <free_rank + k integers per line>
Function files use the same header; each line carries the coordinates
followed by one weight token, a decimal (numeric mode) or `a/b` rational /
plain integer (exact mode).  `#` starts a comment.  Output is canonical:
sorted lines, LF-terminated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .functional import Weight, WeightedFunction
from .groups import GroupContext, PointSet, Vec


class FormatError(ValueError):
    pass


def _parse_header(line: str) -> GroupContext:
    toks = line.split()
    if not toks or toks[0] != "group":
        raise FormatError(f"expected 'group' header, got {line!r}")
    try:
        free_rank = int(toks[1])
    except (IndexError, ValueError):
        raise FormatError("header must be 'group <free_rank> [mod <m1> ...]'")
    moduli: tuple[int, ...] = ()
    rest = toks[2:]
    if rest:
        if rest[0] != "mod":
            raise FormatError(f"unexpected header token {rest[0]!r}")
        try:
            moduli = tuple(int(t) for t in rest[1:])
        except ValueError:
            raise FormatError("moduli must be integers")
        if not moduli:
            raise FormatError("'mod' requires at least one modulus")
    try:
        return GroupContext(free_rank, moduli)
    except ValueError as e:
        raise FormatError(str(e))


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _parse_rows(text: str, weighted: bool) -> tuple[GroupContext, dict[Vec, Optional[Weight]]]:
    """The header's group and each line's reduced point, with its weight when
    `weighted` (else None), in line order.  A line is checked whole, in turn:
    its length, its coordinates, a repeated point, then its weight."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty input")
    ctx = _parse_header(lines[0])
    rows: dict[Vec, Optional[Weight]] = {}
    for line in lines[1:]:
        toks = line.split()
        if len(toks) != ctx.arity + weighted:
            raise FormatError(f"expected {ctx.arity} coordinates{' and a weight' * weighted}, got {line!r}")
        try:
            p = ctx.reduce(tuple(int(t) for t in toks[:ctx.arity]))
        except ValueError as e:
            raise FormatError(str(e))
        if p in rows:
            raise FormatError(f"duplicate coordinate line for {p}" if weighted else f"duplicate point {p}")
        w = _parse_weight(toks[-1]) if weighted else None
        if w is not None and w < 0:
            raise FormatError("negative weight")
        rows[p] = w
    if not rows:
        raise FormatError("function has no support" if weighted else "point set has no points")
    return ctx, rows


def parse_point_set(text: str) -> PointSet:
    ctx, rows = _parse_rows(text, weighted=False)
    return PointSet.of(ctx, rows)


def _format_header(ctx: GroupContext) -> str:
    head = f"group {ctx.free_rank}"
    if ctx.torsion_moduli:
        head += " mod " + " ".join(str(m) for m in ctx.torsion_moduli)
    return head


def format_point_set(A: PointSet) -> str:
    lines = [_format_header(A.context)]
    for p in A.points:
        lines.append(" ".join(str(x) for x in p))
    return "\n".join(lines) + "\n"


def _parse_weight(tok: str) -> Union[Fraction, float]:
    if "/" in tok:
        num, den = tok.split("/", 1)
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"bad rational weight {tok!r}")
    if "." in tok or "e" in tok or "E" in tok:
        try:
            return float(tok)
        except ValueError:
            raise FormatError(f"bad decimal weight {tok!r}")
    try:
        return Fraction(int(tok))
    except ValueError:
        raise FormatError(f"bad weight token {tok!r}")


def _format_weight(w: Union[Fraction, float]) -> str:
    if isinstance(w, Fraction):
        return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
    return repr(w)


def parse_function(text: str) -> WeightedFunction:
    ctx, rows = _parse_rows(text, weighted=True)
    try:
        return WeightedFunction.of(ctx, rows)
    except ValueError as e:
        raise FormatError(str(e))


def format_function(f: WeightedFunction) -> str:
    lines = [_format_header(f.context)]
    for p, w in f.entries:
        lines.append(" ".join(str(x) for x in p) + " " + _format_weight(w))
    return "\n".join(lines) + "\n"
