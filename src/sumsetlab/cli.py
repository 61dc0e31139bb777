"""Command-line entry point.

Exit codes: 0 success, 2 a proved-law verdict came back false, 3 a
conjecture disproof was found, 64 flag/validation errors, 74 I/O errors.
Every artifact embeds a run manifest (flags, input digests, tool version,
wall clock); reports are byte-identical across reruns apart from the
wall-clock field.  Scans are sequential: --threads is validated and
recorded in the manifest only, and changes neither the work nor any
report.  Conjecture scans are exhaustive and read no seed, so their config
echo (and so their checkpoints) carry neither --threads nor --seed, and a
checkpoint resumes under any value of either, or of SUMSETLAB_NODE_CEILING.
That pair ceiling is read when a config is built, so a bad value exits 64
before any work; a law or scan that would read a cut estimate exits 64.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import __version__
from . import io_formats, laws
from .conjectures import scan_doubling_tripling, scan_log_span
from .groups import compress
from .quasicube import format_spec, is_quasicube, make_quasicube, random_spec
from .search import (
    STRATEGIES,
    VARIANTS,
    SearchConfig,
    alpha_estimate,
    beta_estimate,
    frac_str,
    gamma_estimate,
    geometric_family_ratio,
    two_point_constant,
)

EXIT_OK = 0
EXIT_LAW_FAILURE = 2
EXIT_DISPROOF = 3
EXIT_USAGE = 64
EXIT_IO = 74


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we need 64
        raise CliError(message, EXIT_USAGE)


def parse_rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad rational {text!r}, expected num/den", EXIT_USAGE)


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n

    return parse


positive_int = _int_at_least(1)
nonnegative_int = _int_at_least(0)


def parse_box(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for part in text.split(","):
        if ".." not in part:
            raise CliError(f"bad box interval {part!r}, expected a..b", EXIT_USAGE)
        lo_s, hi_s = part.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise CliError(f"bad box interval {part!r}", EXIT_USAGE)
        if lo > hi:
            raise CliError(f"empty box interval {part!r}", EXIT_USAGE)
        out.append((lo, hi))
    return tuple(out)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _manifest(args: argparse.Namespace, inputs: dict[str, str], started: float) -> dict:
    flags = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    digests = {
        path: hashlib.sha256(text.encode()).hexdigest() for path, text in inputs.items()
    }
    return {
        "subcommand": args.subcommand,
        "flags": flags,
        "input_digests": digests,
        "tool_version": __version__,
        "wall_clock_ms": round((time.monotonic() - started) * 1000, 3),
    }


def _json(obj) -> str:
    """obj as standard JSON: a value past the float range (inf or nan) has
    no JSON form, so its ValueError makes the command exit 64."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _write_doc(args: argparse.Namespace, doc: dict, inputs: dict[str, str], started: float) -> int:
    """Write one JSON document with its run manifest to --out (or stdout)."""
    doc["manifest"] = _manifest(args, inputs, started)
    _write(args.out, _json(doc) + "\n")
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace, started: float) -> int:
    cfg = SearchConfig(
        box=parse_box(args.box),
        max_cardinality=args.max_card,
        p=parse_rational(args.p),
        variant=args.variant,
        strategy=args.strategy,
        seed=args.seed,
    )
    if args.quantity in ("alpha", "beta"):
        if not args.set:
            raise CliError("--set is required for alpha/beta", EXIT_USAGE)
        text = _read(args.set)
        inputs = {args.set: text}
        U = io_formats.parse_point_set(text)
        report = (beta_estimate if args.quantity == "beta" else alpha_estimate)(U, cfg)
    else:
        if not args.fn:
            raise CliError("--fn is required for gamma", EXIT_USAGE)
        text = _read(args.fn)
        inputs = {args.fn: text}
        report = gamma_estimate(io_formats.parse_function(text), cfg)
    return _write_doc(args, report.to_json_dict(), inputs, started)


def _cmd_quasicube(args: argparse.Namespace, started: float) -> int:
    if args.action == "gen":
        rng = random.Random(args.seed)
        spec = random_spec(args.depth, args.box, rng)
        U = make_quasicube(spec)
        text = "# spec: " + format_spec(spec) + "\n" + io_formats.format_point_set(U)
        _write(args.out, text)
        return EXIT_OK
    if not args.set:
        raise CliError("--set is required for check", EXIT_USAGE)
    text = _read(args.set)
    U = io_formats.parse_point_set(text)
    ok, _ = is_quasicube(U)
    return _write_doc(args, {"quasicube": ok, "size": len(U)}, {args.set: text}, started)


def _cmd_compress(args: argparse.Namespace, started: float) -> int:
    A = io_formats.parse_point_set(_read(args.set))
    C = compress(A, args.coord)
    _write(args.out, io_formats.format_point_set(C))
    return EXIT_OK


def _cmd_laws(args: argparse.Namespace, started: float) -> int:
    verdicts = laws.run_suite(args.suite, seed=args.seed)
    lines = [_json(v.to_json_dict()) for v in verdicts]
    summary = {
        "suite": args.suite,
        "verdicts": len(verdicts),
        "failures": sum(1 for v in verdicts if not v.holds),
        "manifest": _manifest(args, {}, started),
    }
    lines.append(_json(summary))
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if summary["failures"] == 0 else EXIT_LAW_FAILURE


def _cmd_conjecture(args: argparse.Namespace, started: float) -> int:
    box = parse_box(args.box)
    d = len(box)
    side = box[0][1] - box[0][0] + 1
    if any(hi - lo + 1 != side for lo, hi in box):
        raise CliError("conjecture scans use a cubical box", EXIT_USAGE)
    # exhaustive scans read no seed, so neither --seed nor --threads enters the
    # config echo and a checkpoint resumes under any of their values
    cfg = SearchConfig(box=box, max_cardinality=args.max_card)
    scan = scan_log_span if args.id == "log_span" else scan_doubling_tripling
    state = scan(
        d, side, args.max_size, cfg,
        checkpoint_path=args.checkpoint, out_path=args.out,
    )
    sys.stderr.write(
        f"scanned {state.examined} candidates ({state.skipped} skipped)\n"
    )
    if state.counterexample is not None:
        kind = state.counterexample.get("kind", "disproof")
        return EXIT_LAW_FAILURE if kind == "bug" else EXIT_DISPROOF
    return EXIT_OK


def _cmd_two_point(args: argparse.Namespace, started: float) -> int:
    p = parse_rational(args.p)
    delta = float(parse_rational(args.delta)) if "/" in args.delta else float(args.delta)
    ratios = [
        geometric_family_ratio(delta, float(p), r, r) for r in range(args.r_max + 1)
    ]
    doc = {
        "delta": delta,
        "p": frac_str(p),
        "c_delta": two_point_constant(delta, float(p)),
        "geometric_ratios": ratios,
    }
    return _write_doc(args, doc, {}, started)


def build_parser() -> _Parser:
    parser = _Parser(prog="sumsetlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=positive_int, default=1)
        sp.add_argument("--out", default=None)

    est = sub.add_parser("estimate", description="estimate alpha/beta/gamma on a window")
    est.add_argument("quantity", choices=["alpha", "beta", "gamma"])
    est.add_argument("--set", default=None)
    est.add_argument("--fn", default=None)
    est.add_argument("--p", default="2/1")
    est.add_argument("--variant", default="unrestricted", choices=VARIANTS)
    est.add_argument("--box", required=True)
    est.add_argument("--max-card", type=int, required=True)
    est.add_argument("--strategy", default="exhaustive", choices=STRATEGIES)
    add_common(est)
    est.set_defaults(func=_cmd_estimate)

    qc = sub.add_parser("quasicube")
    qc.add_argument("action", choices=["gen", "check"])
    qc.add_argument("--depth", type=int, default=2)
    qc.add_argument("--box", type=int, default=3, help="shift box radius for gen")
    qc.add_argument("--set", default=None)
    add_common(qc)
    qc.set_defaults(func=_cmd_quasicube)

    cp = sub.add_parser("compress")
    cp.add_argument("--set", required=True)
    cp.add_argument("--coord", type=int, required=True)
    add_common(cp)
    cp.set_defaults(func=_cmd_compress)

    lw = sub.add_parser("laws")
    lw.add_argument("action", choices=["run"])
    lw.add_argument("--suite", required=True)
    add_common(lw)
    lw.set_defaults(func=_cmd_laws)

    cj = sub.add_parser("conjecture")
    cj.add_argument("action", choices=["scan"])
    cj.add_argument("--id", required=True, choices=["log_span", "doubling_tripling"])
    cj.add_argument("--box", required=True)
    cj.add_argument("--max-size", type=int, default=5)
    cj.add_argument("--max-card", type=int, default=4)
    cj.add_argument("--checkpoint", default=None)
    add_common(cj)
    cj.set_defaults(func=_cmd_conjecture)

    tp = sub.add_parser("two-point")
    tp.add_argument("--delta", required=True)
    tp.add_argument("--p", default="2/1")
    tp.add_argument("--r-max", type=nonnegative_int, default=8)
    add_common(tp)
    tp.set_defaults(func=_cmd_two_point)

    return parser


def _merge_negative_box(argv: list[str]) -> list[str]:
    # argparse mistakes "-2..3" for an option; fold it into "--box=-2..3"
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--box" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--box={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.monotonic()
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_box(list(argv))
    # the one place an exception becomes an exit code: every library check
    # raises ValueError (bad input, 64) and every failed read or write OSError (74)
    try:
        args = parser.parse_args(argv)
        return args.func(args, started)
    except CliError as e:
        code, error = e.code, e
    except ValueError as e:  # FormatError, JSONDecodeError, UnicodeDecodeError too
        code, error = EXIT_USAGE, e
    except OSError as e:
        code, error = EXIT_IO, e
    sys.stderr.write(f"error: {error}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
