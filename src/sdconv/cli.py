"""Command-line front end.

Commands operate on the text formats of the library: polynomials over z
in the grammar documented on ``fields._parse_terms``, matrices with rows
separated by ';' and entries by ',', and field selectors like "2", "4" or
"3^2".  All output is deterministic.  Exit codes: 0 for success
(including "false" verdicts), 2 for unparseable input, 3 for violated
preconditions, among them an ``--out`` path that cannot be written.

Each request is parsed once.  An argv that starts with a command word is
read by that command's own parser; any other argv by the root parser.
Strings the command's parser leaves over are reported by the root parser,
as ``parse_args`` would, so the message keeps the root usage line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import classify as classify_mod
from .codes import ConvolutionalCode
from .constructions import (
    building_up,
    direct_sum,
    find_completion,
    hm_extend,
    orthogonal_chain,
)
from .errors import ParseError, SdconvError, ShapeUnsupported
from .fields import parse_element, parse_field_selector
from .matrices import (
    col_hermite,
    format_matrix,
    format_vector,
    parse_matrix,
    parse_poly,
    parse_vector,
    row_hermite,
    smith,
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that wraps help and usage text at 78 columns, the
    width argparse takes on an 80-column terminal, whatever the terminal or
    COLUMNS says, so the CLI prints the same bytes everywhere.  Its
    subparsers are _Parser too."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=functools.partial(argparse.HelpFormatter, width=78), **kwargs)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser and each command word's own parser."""
    parser = _Parser(
        prog="sdconv",
        description="Exact arithmetic for self-dual convolutional codes over F_q[z].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, **kwargs):
        commands[name] = sub.add_parser(name, **kwargs)
        return commands[name]

    def add_common(p, needs_field=True):
        if needs_field:
            p.add_argument("--field", default="2", help="field selector: q or p^l")
            p.add_argument("--modulus", default=None, help="modulus polynomial in a")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")

    p = command("check", help="self-orthogonality / catastrophicity / self-duality")
    add_common(p)
    p.add_argument("--canonical", action="store_true", help="also print the canonical generator")
    p.add_argument("matrix")

    p = command("dual", help="print a generator of the dual code")
    add_common(p)
    p.add_argument("--canonical", action="store_true", help="canonicalize the output")
    p.add_argument("matrix")

    p = command("hermite", help="row or column Hermite decomposition")
    add_common(p)
    p.add_argument("--side", choices=("row", "col"), default="row")
    p.add_argument("matrix")

    p = command("smith", help="Smith decomposition U A V = S")
    add_common(p)
    p.add_argument("matrix")

    p = command("distance", help="bounded free-distance search")
    add_common(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("matrix")

    p = command("construct", help="build a new self-dual code")
    csub = p.add_subparsers(dest="construction", required=True)

    pc = csub.add_parser("direct-sum")
    add_common(pc)
    pc.add_argument("matrix1")
    pc.add_argument("matrix2")

    pc = csub.add_parser("building-up")
    add_common(pc)
    pc.add_argument("--f", required=True, help="extension row vector")
    pc.add_argument("--a", default=None, help="scalar a (default: 1)")
    pc.add_argument("--b", default=None, help="scalar b (default: a square root of -1)")
    pc.add_argument("matrix")

    pc = csub.add_parser("orthogonal-chain")
    add_common(pc)
    pc.add_argument("--m", action="append", default=[], help="transform matrix (repeatable)")
    pc.add_argument("--lam", action="append", default=[], help="scale constant (repeatable)")
    pc.add_argument("--perm", action="append", default=[], help="permutation matrix (repeatable)")
    pc.add_argument("matrix")

    p = command("complete", help="paired-column extension and its self-dual completion")
    add_common(p)
    p.add_argument("--a", required=True, help="comma list of pairing polynomials")
    p.add_argument("--witness", default=None, help="candidate completion row to validate")
    p.add_argument("matrix")

    p = command("classify", help="write a classification catalog")
    ksub = p.add_subparsers(dest="family", required=True)

    pk = ksub.add_parser("two-one")
    add_common(pk)

    pk = ksub.add_parser("four-two")
    add_common(pk, needs_field=False)
    pk.add_argument("--max-deg", type=int, required=True)

    pk = ksub.add_parser("double-diagonal")
    add_common(pk)
    pk.add_argument("--k", type=int, required=True)

    return parser, commands


# Text labels are the result keys with "_" spelled "-", except these.
_LABELS = {"n_eq_2k": "n=2k"}


def _emit(args, result: dict, text: Optional[str] = None) -> None:
    """Writes a command's one result: as JSON, or as ``text`` when the
    command has its own, else as one ``label: value`` line per key, with
    booleans spelled true/false."""
    if args.format == "json":
        payload = json.dumps(result)
    elif text is not None:
        payload = text
    else:
        payload = "\n".join(
            f"{_LABELS.get(key, key.replace('_', '-'))}: "
            f"{str(value).lower() if isinstance(value, bool) else value}"
            for key, value in result.items()
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _field(args):
    return parse_field_selector(args.field, args.modulus)


def _code(args, text: str) -> ConvolutionalCode:
    return ConvolutionalCode(parse_matrix(_field(args), text))


def _cmd_check(args) -> int:
    code = _code(args, args.matrix)
    result = {
        "n": code.n,
        "k": code.k,
        "n_eq_2k": code.n == 2 * code.k,
        "degree": code.code_degree(),
        "self_orthogonal": code.is_self_orthogonal(),
        "non_catastrophic": code.is_noncatastrophic(),
        "self_dual": code.is_self_dual(),
    }
    if args.canonical:
        result["canonical"] = format_matrix(code.canonical_generator())
    _emit(args, result)
    return 0


def _cmd_dual(args) -> int:
    dual = _code(args, args.matrix).dual()
    if not dual.k:
        raise ShapeUnsupported("the dual of a full-rank square generator is the zero code: no rows to print")
    gen = format_matrix(dual.canonical_generator() if args.canonical else dual.generator)
    _emit(args, {"generator": gen}, gen)
    return 0


def _cmd_hermite(args) -> int:
    matrix = parse_matrix(_field(args), args.matrix)
    dec = row_hermite(matrix) if args.side == "row" else col_hermite(matrix)
    form, transform = format_matrix(dec.form), format_matrix(dec.transform)
    _emit(
        args,
        {"side": dec.side, "form": form, "transform": transform},
        f"form: {form}\ntransform: {transform}",
    )
    return 0


def _cmd_smith(args) -> int:
    dec = smith(parse_matrix(_field(args), args.matrix))
    _emit(args, {"U": format_matrix(dec.U), "S": format_matrix(dec.S), "V": format_matrix(dec.V)})
    return 0


def _cmd_distance(args) -> int:
    report = _code(args, args.matrix).free_distance(args.bound)
    result = {"dfree": report.value, "bound": report.search_bound, "status": report.status}
    _emit(args, result, report.render())
    return 0


def _cmd_construct(args) -> int:
    if args.construction == "direct-sum":
        out = direct_sum(_code(args, args.matrix1), _code(args, args.matrix2))
    elif args.construction == "building-up":
        code = _code(args, args.matrix)
        f = parse_vector(code.spec, args.f)
        a = parse_element(code.spec, args.a) if args.a is not None else None
        b = parse_element(code.spec, args.b) if args.b is not None else None
        out = building_up(code, f, a, b)
    else:
        code = _code(args, args.matrix)
        if not (len(args.m) == len(args.lam) == len(args.perm)):
            raise ParseError("--m, --lam and --perm must be given the same number of times")
        spec = code.spec
        steps = [
            (parse_matrix(spec, m), parse_poly(spec, lam), parse_matrix(spec, perm))
            for m, lam, perm in zip(args.m, args.lam, args.perm)
        ]
        out = orthogonal_chain(code, steps)
    gen = format_matrix(out.generator)
    _emit(args, {"generator": gen}, gen)
    return 0


def _cmd_complete(args) -> int:
    code = _code(args, args.matrix)
    extended = hm_extend(code, parse_vector(code.spec, args.a))
    witness = parse_vector(code.spec, args.witness) if args.witness is not None else None
    found = find_completion(extended, witness=witness)
    result = {
        "completion": found.kind,
        "extended": format_matrix(extended),
        "witness": format_vector(found.witness),
        "generator": format_matrix(found.generator),
    }
    _emit(args, result)
    return 0


def _cmd_classify(args) -> int:
    if args.family == "two-one":
        records = classify_mod.classify_double_diagonal(_field(args), 1) or []
    elif args.family == "four-two":
        records = classify_mod.classify_42_binary(args.max_deg)
    else:
        records = classify_mod.classify_double_diagonal(_field(args), args.k)
        if records is None:
            _emit(args, {"records": None}, "absent: no square root of -1 in this field")
            return 0
    result = {
        "records": [
            {
                "q": r.q,
                "n": r.n,
                "k": r.k,
                "delta": r.degree,
                "dfree": r.dfree.value,
                "dfree_status": r.dfree.status,
                "gen": format_matrix(r.canonical_generator),
            }
            for r in records
        ]
    }
    _emit(args, result, classify_mod.format_catalog(records))
    return 0


_DISPATCH = {
    "check": _cmd_check,
    "dual": _cmd_dual,
    "hermite": _cmd_hermite,
    "smith": _cmd_smith,
    "distance": _cmd_distance,
    "construct": _cmd_construct,
    "complete": _cmd_complete,
    "classify": _cmd_classify,
}


# Built by the first request and reused: parsing leaves no state in the
# parsers, and building them costs more than a small request.  A command
# word's own parser reads its request alone, since the root parser would
# only hand it the same strings to parse again; leftover strings still go
# to the root parser, so their message keeps its usage line.
_PARSER: Optional[tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]] = None


def _parse(argv: list[str]) -> argparse.Namespace:
    """The parsed request: what the root parser's ``parse_args`` gives."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    root, commands = _PARSER
    parser = commands.get(argv[0]) if argv else None
    if parser is None:
        return root.parse_args(argv)
    args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if rest:
        root.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return 2
    except (SdconvError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
