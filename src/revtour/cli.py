"""Command-line front end.

Verbs: gen, check, enumerate, count, verify, census, export.  Streams
(enumerate, census) emit JSON lines; verdicts and reports emit a single
JSON document.  Exit status: 0 on success or verification pass, 2 on
verification violations, 1 on input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable

from .core import GuardError, Tournament, is_indecomposable, is_module, reverse_pairs, transitive
from .enumeration import (
    KINDS,
    EnumSpec,
    census,
    check_guard,
    count_irreducible_pairings,
    default_limit,
    enumerate_families,
)
from .pairs import PairFamily, classify, is_irreducible_pairing, is_irreducible_quasi
from .theorems import CHECKS, verify_range


class _InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _InputError(message)


def _digits(text: str) -> int:
    """A number written in ASCII digits only: no sign, space or underscore."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"want ASCII digits, got {text!r}")
    return int(text)


def _parse_range(text: str) -> tuple[int, int]:
    left, sep, right = text.partition("..")
    try:
        lo, hi = _digits(left), _digits(right)
    except argparse.ArgumentTypeError:
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
        return [_digits(tok.strip()) for tok in body.split(",")]
    except argparse.ArgumentTypeError:
        raise _InputError(f"bad vertex set {text!r}") from None


def _effective_guard(args: argparse.Namespace, *kinds: str) -> int | None:
    """The --max-n override, refused above the enumeration guard of the
    kinds the verb enumerates unless --unsafe is given."""
    limit = args.max_n
    if limit is None:
        return None
    default = min(map(default_limit, kinds))
    if limit > default and not args.unsafe:
        raise _InputError(
            f"--max-n {limit} exceeds the default guard {default}; pass --unsafe to override"
        )
    return limit


def _add_guard_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-n", type=_digits, default=None, help="override the size guard")
    parser.add_argument(
        "--unsafe", action="store_true", help="allow --max-n above the default guard"
    )


def _refuse_unread(args: argparse.Namespace, *options: str) -> None:
    """An option given to a ``what`` that does not read it is an input error."""
    for option in options:
        if getattr(args, option) is not None:
            raise _InputError(f"{args.verb} {args.what} does not read --{option}")


def _write_lines(head: dict, tails: Iterable[str]) -> None:
    """Write a JSON line per tail, the members of ``head`` then those the
    tail holds already encoded, in the bytes of ``json.dumps(line,
    separators=(",", ":"))``.  The head is encoded once; tails hold ints,
    ``true``, ``false``, ``null`` and pair strings, whose digits, ``-`` and
    ``,`` need no escaping."""
    start = json.dumps(head, separators=(",", ":"))[:-1] + ","
    write = sys.stdout.write
    for tail in tails:
        write(f"{start}{tail}}}\n")


def _read_tournament() -> Tournament:
    return Tournament.from_text(sys.stdin.read())


def _cmd_gen(args: argparse.Namespace) -> int:
    t = transitive(args.n)
    if args.what == "inv":
        t = reverse_pairs(t, PairFamily.parse(args.n, args.pairs or ""))
    else:
        _refuse_unread(args, "pairs")
    sys.stdout.write(t.to_text())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.what == "indecomposable":
        _refuse_unread(args, "set", "n", "pairs")
        verdict = {"indecomposable": is_indecomposable(_read_tournament())}
    elif args.what == "module":
        _refuse_unread(args, "n", "pairs")
        if args.set is None:
            raise _InputError("check module needs --set \"{a,b,...}\"")
        t = _read_tournament()
        verdict = {"module": is_module(t, _parse_vertex_set(args.set))}
    else:
        _refuse_unread(args, "set")
        if args.n is None or args.pairs is None:
            raise _InputError("check irreducible needs --n and --pairs")
        family = PairFamily.parse(args.n, args.pairs)
        kind = classify(family)
        judges = {"pairing": is_irreducible_pairing, "quasi-pairing": is_irreducible_quasi}
        if kind not in judges:
            raise _InputError(
                f"family {family.serialize()!r} is neither a pairing nor a quasi-pairing"
            )
        verdict = {"irreducible": judges[kind](family), "kind": kind}
    print(json.dumps(verdict))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    limit = _effective_guard(args, args.kind)
    spec = EnumSpec(
        args.n,
        args.kind,
        "irreducible-only" if args.irreducible_only else "all",
        include_empty=args.include_empty,
    )
    _write_lines({"n": args.n, "kind": args.kind}, (
        f'"pairs":"{family.serialize()}"' for family in enumerate_families(spec, max_n=limit)
    ))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.m_range)
    limit = _effective_guard(args, "pairing")
    sizes = range(lo + lo % 2, hi + 1, 2)
    if sizes:  # the largest size first, so that none is counted past the guard
        check_guard(EnumSpec(sizes[-1], "pairing"), limit)
    table = {str(m): count_irreducible_pairings(m, max_m=limit) for m in sizes}
    print(json.dumps(table, separators=(",", ":")))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.n_range)
    theorem = args.theorem if args.theorem == "corollaries" else int(args.theorem)
    limit = _effective_guard(args, *(check.kind for check in CHECKS if check.run == theorem))
    report = verify_range(theorem, lo, hi, jobs=args.jobs, max_n=limit)
    print(json.dumps(report.to_json()))
    return 0 if report.passed else 2


def _cmd_census(args: argparse.Namespace) -> int:
    limit = _effective_guard(args, args.kind)
    _write_lines({"n": args.n, "kind": args.kind}, (
        f'"pairs":"{record.family.serialize()}"'
        f',"indecomposable":{"true" if record.indecomposable else "false"}'
        f',"irreducible":{"true" if record.irreducible else "false"}'
        f',"class":{"null" if record.class_id is None else record.class_id}'
        for record in census(EnumSpec(args.n, args.kind), max_n=limit)
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
    gen.add_argument("n", type=_digits)
    gen.add_argument("--pairs", default=None, help='pairs to reverse, e.g. "0-2,1-4"')
    gen.set_defaults(func=_cmd_gen)

    check = sub.add_parser("check", help="emit a JSON verdict")
    check.add_argument("what", choices=["indecomposable", "irreducible", "module"])
    check.add_argument("--set", default=None, help='vertex set, e.g. "{1,2}"')
    check.add_argument("--n", type=_digits, default=None)
    check.add_argument("--pairs", default=None)
    check.set_defaults(func=_cmd_check)

    enum = sub.add_parser("enumerate", help="emit families as JSON lines")
    enum.add_argument("--n", type=_digits, required=True)
    enum.add_argument("--kind", required=True, choices=KINDS)
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
    theorems = dict.fromkeys(str(check.run) for check in CHECKS)
    verify.add_argument("--theorem", required=True, choices=theorems)
    verify.add_argument("--n-range", required=True, help="ambient sizes a..b")
    verify.add_argument("--jobs", type=_digits, default=1)
    _add_guard_options(verify)
    verify.set_defaults(func=_cmd_verify)

    cens = sub.add_parser("census", help="emit per-family verdicts as JSON lines")
    cens.add_argument("--n", type=_digits, required=True)
    cens.add_argument("--kind", required=True, choices=KINDS)
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
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (GuardError, _InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader has gone: the rest goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
