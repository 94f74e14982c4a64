"""Command-line front end.

Verbs: gen, check, enumerate, count, verify, census, export.  Streams
(enumerate, census) emit JSON lines; verdicts and reports emit a single
JSON document.  Exit status: 0 on success or verification pass, 2 on
verification violations, 1 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import GuardError, Tournament, is_indecomposable, is_module, reverse_pairs, transitive
from .enumeration import (
    EnumSpec,
    FULL_ENUM_LIMIT,
    PARTIAL_ENUM_LIMIT,
    census,
    count_irreducible_pairings,
    enumerate_families,
)
from .pairs import PairFamily, classify, is_irreducible_pairing, is_irreducible_quasi
from .theorems import verify_range


class _InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _InputError(message)


def _parse_range(text: str) -> tuple[int, int]:
    left, sep, right = text.partition("..")
    try:
        lo, hi = int(left), int(right)
    except ValueError:
        raise _InputError(f"bad range {text!r}: want a..b") from None
    if not sep or lo > hi:
        raise _InputError(f"bad range {text!r}: want a..b with a <= b")
    return lo, hi


def _parse_vertex_set(text: str) -> list[int]:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise _InputError(f"bad vertex set {text!r}: want {{a,b,...}}")
    body = body[1:-1].strip()
    if not body:
        return []
    try:
        return [int(tok) for tok in body.split(",")]
    except ValueError:
        raise _InputError(f"bad vertex set {text!r}") from None


def _effective_guard(args: argparse.Namespace, default: int) -> int | None:
    limit = getattr(args, "max_n", None)
    if limit is None:
        return None
    if limit > default and not args.unsafe:
        raise _InputError(
            f"--max-n {limit} exceeds the default guard {default}; pass --unsafe to override"
        )
    return limit


def _add_guard_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-n", type=int, default=None, help="override the size guard")
    parser.add_argument(
        "--unsafe", action="store_true", help="allow --max-n above the default guard"
    )


def _read_tournament() -> Tournament:
    return Tournament.from_text(sys.stdin.read())


def _cmd_gen(args: argparse.Namespace) -> int:
    t = transitive(args.n)
    if args.what == "inv":
        t = reverse_pairs(t, PairFamily.parse(args.n, args.pairs))
    sys.stdout.write(t.to_text())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.what == "indecomposable":
        verdict = {"indecomposable": is_indecomposable(_read_tournament())}
    elif args.what == "module":
        if args.set is None:
            raise _InputError("check module needs --set \"{a,b,...}\"")
        t = _read_tournament()
        verdict = {"module": is_module(t, _parse_vertex_set(args.set))}
    else:
        if args.n is None or args.pairs is None:
            raise _InputError("check irreducible needs --n and --pairs")
        family = PairFamily.parse(args.n, args.pairs)
        kind = classify(family)
        if kind == "pairing":
            verdict = {"irreducible": is_irreducible_pairing(family), "kind": kind}
        elif kind == "quasi-pairing":
            verdict = {"irreducible": is_irreducible_quasi(family), "kind": kind}
        else:
            raise _InputError(
                f"family {family.serialize()!r} is neither a pairing nor a quasi-pairing"
            )
    print(json.dumps(verdict))
    return 0


def _default_enum_guard(kind: str) -> int:
    return PARTIAL_ENUM_LIMIT if kind.startswith("partial") else FULL_ENUM_LIMIT


def _cmd_enumerate(args: argparse.Namespace) -> int:
    limit = _effective_guard(args, _default_enum_guard(args.kind))
    spec = EnumSpec(
        args.n,
        args.kind,
        "irreducible-only" if args.irreducible_only else "all",
        include_empty=args.include_empty,
    )
    for family in enumerate_families(spec, max_n=limit):
        print(json.dumps(
            {"n": args.n, "kind": args.kind, "pairs": family.serialize()},
            separators=(",", ":"),
        ))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.m_range)
    limit = _effective_guard(args, FULL_ENUM_LIMIT)
    table = {}
    for m in range(lo, hi + 1):
        if m % 2:
            continue
        table[str(m)] = count_irreducible_pairings(m, max_m=limit)
    print(json.dumps(table, separators=(",", ":")))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.n_range)
    limit = _effective_guard(args, PARTIAL_ENUM_LIMIT)
    theorem = args.theorem if args.theorem == "corollaries" else int(args.theorem)
    report = verify_range(theorem, lo, hi, jobs=args.jobs, max_n=limit)
    print(json.dumps(report.to_json()))
    return 0 if report.passed else 2


def _cmd_census(args: argparse.Namespace) -> int:
    limit = _effective_guard(args, _default_enum_guard(args.kind))
    spec = EnumSpec(args.n, args.kind)
    for record in census(spec, max_n=limit):
        print(json.dumps(
            {
                "n": args.n,
                "kind": args.kind,
                "pairs": record.family.serialize(),
                "indecomposable": record.indecomposable,
                "irreducible": record.irreducible,
                "class": record.class_id,
            },
            separators=(",", ":"),
        ))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    sys.stdout.write(_read_tournament().to_dot())
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="revtour", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="emit a tournament in text format")
    gen.add_argument("what", choices=["transitive", "inv"])
    gen.add_argument("n", type=int)
    gen.add_argument("--pairs", default="", help='pairs to reverse, e.g. "0-2,1-4"')
    gen.set_defaults(func=_cmd_gen)

    check = sub.add_parser("check", help="emit a JSON verdict")
    check.add_argument("what", choices=["indecomposable", "irreducible", "module"])
    check.add_argument("--set", default=None, help='vertex set, e.g. "{1,2}"')
    check.add_argument("--n", type=int, default=None)
    check.add_argument("--pairs", default=None)
    check.set_defaults(func=_cmd_check)

    enum = sub.add_parser("enumerate", help="emit families as JSON lines")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--kind", required=True,
                      choices=["pairing", "partial-pairing", "quasi", "partial-quasi"])
    enum.add_argument("--irreducible-only", action="store_true")
    enum.add_argument("--include-empty", action="store_true")
    _add_guard_options(enum)
    enum.set_defaults(func=_cmd_enumerate)

    count = sub.add_parser("count", help="count families over a size range")
    count.add_argument("what", choices=["irreducible-pairings"])
    count.add_argument("--m-range", required=True, help="even sizes a..b")
    _add_guard_options(count)
    count.set_defaults(func=_cmd_count)

    verify = sub.add_parser("verify", help="check a theorem exhaustively")
    verify.add_argument("--theorem", required=True, choices=["1", "2", "3", "corollaries"])
    verify.add_argument("--n-range", required=True, help="ambient sizes a..b")
    verify.add_argument("--jobs", type=int, default=1)
    _add_guard_options(verify)
    verify.set_defaults(func=_cmd_verify)

    cens = sub.add_parser("census", help="emit per-family verdicts as JSON lines")
    cens.add_argument("--n", type=int, required=True)
    cens.add_argument("--kind", required=True,
                      choices=["pairing", "partial-pairing", "quasi", "partial-quasi"])
    _add_guard_options(cens)
    cens.set_defaults(func=_cmd_census)

    export = sub.add_parser("export", help="convert tournament text on stdin")
    export.add_argument("what", choices=["dot"])
    export.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (GuardError, _InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
