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

Every leaf parser carries its command's handler as ``run``.  A handler
prints nothing: it returns the command's one result, a dict, and the
command's own text for it or None.  ``main`` renders that pair once
(``_emit``), as JSON or as text.
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
    """The root parser and each command word's own parser (the subparsers
    action's own map).  Every leaf parser carries its handler as ``run``."""
    parser = _Parser(
        prog="sdconv",
        description="Exact arithmetic for self-dual convolutional codes over F_q[z].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, needs_field=True):
        p.set_defaults(run=run)
        if needs_field:
            p.add_argument("--field", default="2", help="field selector: q or p^l")
            p.add_argument("--modulus", default=None, help="modulus polynomial in a")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("check", help="self-orthogonality / catastrophicity / self-duality")
    add_common(p, _cmd_check)
    p.add_argument("--canonical", action="store_true", help="also print the canonical generator")
    p.add_argument("matrix")

    p = sub.add_parser("dual", help="print a generator of the dual code")
    add_common(p, _cmd_dual)
    p.add_argument("--canonical", action="store_true", help="canonicalize the output")
    p.add_argument("matrix")

    p = sub.add_parser("hermite", help="row or column Hermite decomposition")
    add_common(p, _cmd_hermite)
    p.add_argument("--side", choices=("row", "col"), default="row")
    p.add_argument("matrix")

    p = sub.add_parser("smith", help="Smith decomposition U A V = S")
    add_common(p, _cmd_smith)
    p.add_argument("matrix")

    p = sub.add_parser("distance", help="bounded free-distance search")
    add_common(p, _cmd_distance)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("matrix")

    p = sub.add_parser("construct", help="build a new self-dual code")
    csub = p.add_subparsers(dest="construction", required=True)

    pc = csub.add_parser("direct-sum")
    add_common(pc, _cmd_direct_sum)
    pc.add_argument("matrix1")
    pc.add_argument("matrix2")

    pc = csub.add_parser("building-up")
    add_common(pc, _cmd_building_up)
    pc.add_argument("--f", required=True, help="extension row vector")
    pc.add_argument("--a", default=None, help="scalar a (default: 1)")
    pc.add_argument("--b", default=None, help="scalar b (default: a square root of -1)")
    pc.add_argument("matrix")

    pc = csub.add_parser("orthogonal-chain")
    add_common(pc, _cmd_orthogonal_chain)
    pc.add_argument("--m", action="append", default=[], help="transform matrix (repeatable)")
    pc.add_argument("--lam", action="append", default=[], help="scale constant (repeatable)")
    pc.add_argument("--perm", action="append", default=[], help="permutation matrix (repeatable)")
    pc.add_argument("matrix")

    p = sub.add_parser("complete", help="paired-column extension and its self-dual completion")
    add_common(p, _cmd_complete)
    p.add_argument("--a", required=True, help="comma list of pairing polynomials")
    p.add_argument("--witness", default=None, help="candidate completion row to validate")
    p.add_argument("matrix")

    p = sub.add_parser("classify", help="write a classification catalog")
    ksub = p.add_subparsers(dest="family", required=True)

    pk = ksub.add_parser("two-one")
    add_common(pk, _cmd_two_one)

    pk = ksub.add_parser("four-two")
    add_common(pk, _cmd_four_two, needs_field=False)
    pk.add_argument("--max-deg", type=int, required=True)

    pk = ksub.add_parser("double-diagonal")
    add_common(pk, _cmd_double_diagonal)
    pk.add_argument("--k", type=int, required=True)

    return parser, sub.choices


# Text labels are the result keys with "_" spelled "-", except these.
_LABELS = {"n_eq_2k": "n=2k"}


def _emit(args, result: dict, text: Optional[str]) -> None:
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


_Result = tuple[dict, Optional[str]]


def _field(args):
    return parse_field_selector(args.field, args.modulus)


def _code(args, text: str) -> ConvolutionalCode:
    return ConvolutionalCode(parse_matrix(_field(args), text))


def _cmd_check(args) -> _Result:
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
    return result, None


def _generator(matrix) -> _Result:
    gen = format_matrix(matrix)
    return {"generator": gen}, gen


def _cmd_dual(args) -> _Result:
    dual = _code(args, args.matrix).dual()
    if not dual.k:
        raise ShapeUnsupported("the dual of a full-rank square generator is the zero code: no rows to print")
    return _generator(dual.canonical_generator() if args.canonical else dual.generator)


def _cmd_hermite(args) -> _Result:
    matrix = parse_matrix(_field(args), args.matrix)
    dec = row_hermite(matrix) if args.side == "row" else col_hermite(matrix)
    form, transform = format_matrix(dec.form), format_matrix(dec.transform)
    return {"side": dec.side, "form": form, "transform": transform}, f"form: {form}\ntransform: {transform}"


def _cmd_smith(args) -> _Result:
    dec = smith(parse_matrix(_field(args), args.matrix))
    return {"U": format_matrix(dec.U), "S": format_matrix(dec.S), "V": format_matrix(dec.V)}, None


def _cmd_distance(args) -> _Result:
    report = _code(args, args.matrix).free_distance(args.bound)
    return {"dfree": report.value, "bound": report.search_bound, "status": report.status}, report.render()


def _cmd_direct_sum(args) -> _Result:
    return _generator(direct_sum(_code(args, args.matrix1), _code(args, args.matrix2)).generator)


def _cmd_building_up(args) -> _Result:
    code = _code(args, args.matrix)
    f = parse_vector(code.spec, args.f)
    a = parse_element(code.spec, args.a) if args.a is not None else None
    b = parse_element(code.spec, args.b) if args.b is not None else None
    return _generator(building_up(code, f, a, b).generator)


def _cmd_orthogonal_chain(args) -> _Result:
    code = _code(args, args.matrix)
    if not (len(args.m) == len(args.lam) == len(args.perm)):
        raise ParseError("--m, --lam and --perm must be given the same number of times")
    spec = code.spec
    steps = [
        (parse_matrix(spec, m), parse_poly(spec, lam), parse_matrix(spec, perm))
        for m, lam, perm in zip(args.m, args.lam, args.perm)
    ]
    return _generator(orthogonal_chain(code, steps).generator)


def _cmd_complete(args) -> _Result:
    code = _code(args, args.matrix)
    extended = hm_extend(code, parse_vector(code.spec, args.a))
    witness = parse_vector(code.spec, args.witness) if args.witness is not None else None
    found = find_completion(extended, witness=witness)
    return {
        "completion": found.kind,
        "extended": format_matrix(extended),
        "witness": format_vector(found.witness),
        "generator": format_matrix(found.generator),
    }, None


def _catalog(records) -> _Result:
    return {
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
    }, classify_mod.format_catalog(records)


def _cmd_two_one(args) -> _Result:
    return _catalog(classify_mod.classify_double_diagonal(_field(args), 1) or [])


def _cmd_four_two(args) -> _Result:
    return _catalog(classify_mod.classify_42_binary(args.max_deg))


def _cmd_double_diagonal(args) -> _Result:
    records = classify_mod.classify_double_diagonal(_field(args), args.k)
    if records is None:
        return {"records": None}, "absent: no square root of -1 in this field"
    return _catalog(records)


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
        _emit(args, *args.run(args))
        return 0
    except ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return 2
    except (SdconvError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
