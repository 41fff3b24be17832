import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import generalized_singleton_bound, run_capped, run_cli_capped
from sdconv import ConvolutionalCode, make_field, parse_field_selector, parse_matrix
from sdconv.cli import main

F2 = make_field(2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_f5_worked_example(capsys):
    code, out, _ = run(
        capsys, "check", "--field", "5", "3,z,1,3*z ; 1,2*z+4,2,z+2"
    )
    assert code == 0
    assert "self-dual: true" in out
    assert "non-catastrophic: true" in out
    assert "self-orthogonal: true" in out


def test_check_false_verdict_still_exits_zero(capsys):
    code, out, _ = run(
        capsys, "check", "--field", "2", "z^2+z+1,z^2,z,1 ; 1,z,z^2,z^2+z+1"
    )
    assert code == 0
    assert "self-orthogonal: true" in out
    assert "non-catastrophic: false" in out
    assert "self-dual: false" in out


def test_check_json_format(capsys):
    code, out, _ = run(
        capsys, "check", "--field", "5", "--format", "json", "3,z,1,3*z ; 1,2*z+4,2,z+2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["self_dual"] is True
    # all six maximal minors of this generator are constants mod 5
    assert obj["degree"] == 0


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "check", "--field", "2", "1,,1")
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--field", "2^40", "1,1"),
        ("check", "--field", "2^0", "1,1"),
        ("distance", "--bound", "-1", "1,1"),
        ("classify", "four-two", "--max-deg", "-1"),
        ("classify", "double-diagonal", "--field", "5", "--k", "0"),
    ],
)
def test_out_of_range_arguments_give_typed_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (2, 3)
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["1000000000000000003", "1000000000000000003^1"])
def test_huge_field_is_refused_before_factoring(capsys, field):
    start = perf_counter()
    code, _, err = run(capsys, "check", "--field", field, "1,1")
    assert perf_counter() - start < 1.0
    assert code == 3
    assert err.startswith("error: SearchSpaceTooLarge:")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "z^200000,1"),
        ("check", "z^" + "9" * 5000 + ",1"),
        ("check", "1" * 5000 + ",1"),
        ("check", "--field", "9", "1" * 5000 + "*a,1"),
        ("check", "1" * 5000 + "*z,1"),
        ("check", "--field", "3^2", "--modulus", "a^2000000+1", "1,1"),
        ("classify", "four-two", "--max-deg", "7"),
        ("classify", "four-two", "--max-deg", "10"),
        ("classify", "four-two", "--max-deg", "40"),
        ("classify", "double-diagonal", "--k", "40"),
        ("classify", "double-diagonal", "--field", "5", "--k", "40"),
        ("check", "z^01025,1"),
    ],
)
def test_oversized_exponents_and_searches_are_refused_promptly(capsys, argv):
    start = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: SearchSpaceTooLarge:")


# Generators whose output is delayed: every trellis state still owes output
# at cost 0 and goes on, so the message cap does not bound the states.  These
# searches took 6 s or ran out of memory before the d_free work cap.
DELAYED_DISTANCE_PROBES = [
    ("--bound", "14", "z^1000,z^1000"),
    ("--bound", "20", "z^1000,z^1000"),
    ("--field", "4", "--bound", "10", "z^300,z^300"),
    ("--bound", "6", "z^300,z^300,0,0,0,0;0,0,z^300,z^300,0,0;0,0,0,0,z^300,z^300"),
]


@pytest.mark.parametrize("argv", DELAYED_DISTANCE_PROBES)
def test_delayed_generator_distance_is_refused_within_a_memory_cap(argv):
    proc, cpu_s = run_cli_capped(["distance", *argv])
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error: SearchSpaceTooLarge:")
    assert cpu_s < 2.0


def test_delayed_generator_distance_under_the_work_cap_still_answers():
    proc, _ = run_cli_capped(["distance", "--bound", "10", "z^1000,z^1000"])
    assert (proc.returncode, proc.stdout) == (0, "d_free <= 2 (bound 10)\n")


# One request of each kind the parser state could leak between: the output
# format, the subcommand (with a repeatable option), a parse error.
REQUEST_SEQUENCE = [
    ("check", "--field", "5", "--format", "json", "3,z,1,3*z ; 1,2*z+4,2,z+2"),
    ("check", "--field", "5", "3,z,1,3*z ; 1,2*z+4,2,z+2"),
    ("construct", "orthogonal-chain", "--field", "2",
     "--m", "1,0 ; 0,1", "--lam", "1", "--perm", "0,1 ; 1,0", "1,1"),
    ("construct", "orthogonal-chain", "--field", "2",
     "--m", "1,0 ; 0,1", "--lam", "1", "--perm", "1,0 ; 0,1", "1,1"),
    ("smith", "--field", "2", "1+z,1+z,0,0 ; z,z,1,1"),
    ("classify", "two-one", "--field", "5", "--format", "json"),
    ("check", "--bogus", "1,1"),
    ("check", "--field", "2", "1,1"),
    ("distance", "--field", "2", "--bound", "4", "0,z^2+z+1,z,z^2+1 ; 1,1,1,1"),
    ("chec", "1"),
    (),
]


def test_reused_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    from sdconv import cli

    fresh = []
    for argv in REQUEST_SEQUENCE:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(capsys, *argv))
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [run(capsys, *REQUEST_SEQUENCE[0])]
    parser = cli._PARSER
    reused += [run(capsys, *argv) for argv in REQUEST_SEQUENCE[1:]]
    assert cli._PARSER is parser
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0] * 6 + [2, 0, 0, 2, 2]


def _parse_outcome(capsys, parse, argv):
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


# Requests the command's own parser reads, and requests the root parser
# keeps: empty, help, options before the command, an unknown word.
PARSE_ROUTE_CASES = [
    (), ("-h",), ("check",), ("check", "-h"),
    ("check", "--bogus", "1,1"), ("check", "1,1", "extra"), ("check", "1,1", "-x"),
    ("-x", "check", "1,1"), ("--field", "5", "check", "1,1"), ("chec", "1"),
    ("check", "--canon", "1,1"), ("check", "--field=5", "1,1"), ("check", "--", "1,1"),
    ("check", "--format", "xml", "1"), ("distance", "--bound", "x", "1,1"),
    ("classify",), ("classify", "bogus"), ("classify", "four-two", "-h"),
    ("classify", "four-two", "--max-deg", "0", "--bogus"),
    ("construct",), ("construct", "direct-sum", "1,1", "1,1", "x"),
]


@pytest.mark.parametrize("argv", PARSE_ROUTE_CASES, ids=" ".join)
def test_command_parser_route_answers_like_the_root_parser(capsys, argv):
    from sdconv import cli

    root, _ = cli._build_parser()
    expected = _parse_outcome(capsys, root.parse_args, argv)
    assert _parse_outcome(capsys, cli._parse, argv) == expected


@pytest.mark.parametrize(
    "argv, calls",
    [(("check", "1,1"), 1), (("classify", "four-two", "--max-deg", "0"), 2)],
    ids=["check", "classify"],
)
def test_a_request_is_parsed_once_per_parser_level(capsys, monkeypatch, argv, calls):
    run(capsys, "check", "1,1")  # builds the parsers outside the count
    seen = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        seen.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run(capsys, *argv)[0] == 0
    assert len(seen) == calls, seen


def _leaf_parsers(parser):
    """The parsers under ``parser`` that have no subcommands of their own."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [parser]
    return [leaf for a in subs for p in a.choices.values() for leaf in _leaf_parsers(p)]


def test_every_leaf_parser_carries_its_handler():
    from sdconv import cli

    root, commands = cli._build_parser()
    leaves = _leaf_parsers(root)
    assert len(leaves) == 12
    assert all(callable(p.get_default("run")) for p in leaves), [p.prog for p in leaves]
    assert len({p.get_default("run") for p in leaves}) == len(leaves)
    assert sorted(commands) == ["check", "classify", "complete", "construct", "distance", "dual", "hermite", "smith"]


@pytest.mark.parametrize(
    "command, dest, choices",
    [("construct", "construction", "direct-sum,building-up,orthogonal-chain"),
     ("classify", "family", "two-one,four-two,double-diagonal")],
)
def test_a_command_without_its_family_names_the_missing_argument(capsys, command, dest, choices):
    assert run(capsys, command) == (2, "", (
        f"usage: sdconv {command} [-h] {{{choices}}} ...\n"
        f"sdconv {command}: error: the following arguments are required: {dest}\n"
    ))


def test_unknown_flag_exits_2(capsys):
    assert main(["check", "--bogus", "1,1"]) == 2


def test_precondition_violation_exits_3(capsys):
    code, _, err = run(capsys, "smith", "--field", "2", "z,z ; z,z")
    assert code == 3
    assert "RankDeficient" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--field", "0^2", "--modulus", "a", "1,1"),
        ("classify", "two-one", "--field", "0^2", "--modulus", "a^2+2"),
    ],
)
def test_field_selector_below_two_with_a_modulus_exits_3(capsys, argv):
    # the modulus is not read mod 0: p < 2 is refused first, as without it
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "error: NotPrime: 0 is not prime\n")


def test_dual_roundtrip(capsys):
    code, out, _ = run(capsys, "dual", "--field", "2", "1,1")
    assert code == 0
    assert out.strip() == "1,1"
    code, out, _ = run(capsys, "dual", "--field", "2", "--canonical", "0,0,1,1 ; 1,1,1,1")
    assert parse_matrix(F2, out.strip()) == parse_matrix(F2, "1,1,0,0 ; 0,0,1,1")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_dual_of_a_full_rank_square_generator_is_refused(capsys, fmt):
    # the dual is the zero code: its 0-row generator would print as "",
    # which parse_matrix refuses
    code, out, err = run(capsys, "dual", "--field", "2", "--format", fmt, "1,0;0,1")
    assert (code, out) == (3, "")
    assert err.startswith("error: ShapeUnsupported:") and "zero code" in err


def test_hermite_and_smith_output(capsys):
    code, out, _ = run(capsys, "hermite", "--field", "2", "--side", "row", "1,1,1,1 ; 1,1,0,0")
    assert code == 0
    assert "form: 1,1,0,0 ; 0,0,1,1" in out
    code, out, _ = run(capsys, "smith", "--field", "2", "1+z,1+z,0,0 ; z,z,1,1")
    assert code == 0
    assert "S: z+1,0,0,0 ; 0,1,0,0" in out
    # leading zeros of an exponent do not count against its cap
    code, out, _ = run(capsys, "hermite", "--field", "9", "a^00002*z^00001,1")
    assert code == 0
    assert "form: z,2" in out


def test_distance_rendering(capsys):
    code, out, _ = run(
        capsys, "distance", "--field", "2", "--bound", "4", "0,z^2+z+1,z,z^2+1 ; 1,1,1,1"
    )
    assert code == 0
    assert out.strip() == "d_free = 4 (stable at bound 4)"


def test_distance_at_the_search_cap_is_prompt(capsys):
    # bound 10 for k = 2 over GF(2) asks for 2^22 messages, exactly the cap
    start = perf_counter()
    code, out, _ = run(
        capsys, "distance", "--field", "2", "--bound", "10", "0,z^2+z+1,z,z^2+1 ; 1,1,1,1"
    )
    assert perf_counter() - start < 1.0
    assert code == 0
    assert out.strip() == "d_free = 4 (stable at bound 10)"


@pytest.mark.parametrize("command", ["check", "double-diagonal"])
def test_eleven_row_double_diagonal_code_is_prompt(capsys, command):
    # the generator [I_11 I_11] has C(22, 11) = 705,432 maximal minors
    k = 11
    gen = " ; ".join(",".join("1" if j in (i, k + i) else "0" for j in range(2 * k)) for i in range(k))
    argv = ("check", gen) if command == "check" else ("classify", "double-diagonal", "--k", "11")
    start = perf_counter()
    code, out, _ = run(capsys, *argv)
    assert perf_counter() - start < 2.0
    assert code == 0
    if command == "check":
        assert "degree: 0" in out.splitlines() and "self-dual: true" in out.splitlines()
    else:
        [line] = out.splitlines()
        assert " delta=0 " in line


def test_construct_building_up_worked_example(capsys):
    code, out, _ = run(
        capsys,
        "construct", "building-up", "--field", "2",
        "--f", "1,z,z^2,z^2+z",
        "1,1,1,1 ; 0,1,z+1,z",
    )
    assert code == 0
    assert out.strip() == "1,0,1,z,z^2,z^2+z ; 1,1,1,1,1,1 ; z,z,0,1,z+1,z"


def test_construct_direct_sum(capsys):
    code, out, _ = run(capsys, "construct", "direct-sum", "--field", "2", "1,1", "1,1")
    assert code == 0
    assert out.strip() == "1,1,0,0 ; 0,0,1,1"


def test_construct_orthogonal_chain(capsys):
    code, out, _ = run(
        capsys,
        "construct", "orthogonal-chain", "--field", "2",
        "--m", "1,0,0,0 ; 0,1,0,0 ; 0,0,1,0 ; 0,0,0,1",
        "--lam", "1",
        "--perm", "0,1,0,0 ; 1,0,0,0 ; 0,0,1,0 ; 0,0,0,1",
        "1,1,1,1 ; 0,1,z+1,z",
    )
    assert code == 0
    assert out.strip() == "1,1,1,1 ; 1,0,z+1,z"


def test_complete_trivial_only(capsys):
    code, out, _ = run(capsys, "complete", "--field", "2", "--a", "z", "1,1")
    assert code == 0
    assert "completion: trivial-only" in out
    assert "extended: z,z,1,1" in out


def test_complete_non_trivial_with_witness(capsys):
    code, out, _ = run(
        capsys,
        "complete", "--field", "2", "--a", "1", "--witness", "0,z^2+z+1,z,z^2+1", "1,1",
    )
    assert code == 0
    assert "completion: non-trivial" in out
    assert "generator: 0,z^2+z+1,z,z^2+1 ; 1,1,1,1" in out


@pytest.mark.parametrize("option", ["--a", "--witness"])
def test_complete_refuses_an_empty_vector(capsys, option):
    # an empty --witness is a parse error like an empty --a, not "no witness"
    argv = {"--a": "1", "--witness": "0,z^2+z+1,z,z^2+1"}
    argv[option] = ""
    code, out, err = run(capsys, "complete", "--field", "2", *(x for kv in argv.items() for x in kv), "1,1")
    assert (code, out, err) == (2, "", "error: ParseError: empty vector text\n")


def test_classify_four_two_catalog(capsys):
    code, out, _ = run(capsys, "classify", "four-two", "--max-deg", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    # every itemized generator re-checks as self-dual
    for line in lines:
        gen_text = line.split("gen=", 1)[1]
        code2, out2, _ = run(capsys, "check", "--field", "2", gen_text)
        assert code2 == 0
        assert "self-dual: true" in out2


def test_classify_two_one_json(capsys):
    code, out, _ = run(capsys, "classify", "two-one", "--field", "5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert [r["gen"] for r in obj["records"]] == ["1,2", "1,3"]


def test_classify_double_diagonal_absent(capsys):
    code, out, _ = run(capsys, "classify", "double-diagonal", "--field", "7", "--k", "2")
    assert code == 0
    assert "absent" in out


def test_extension_field_selector(capsys):
    code, out, _ = run(capsys, "check", "--field", "4", "1,a ; a,1")
    assert code == 0  # verdicts may be false; parsing must succeed
    code, out, _ = run(capsys, "check", "--field", "3^2", "--modulus", "a^2+1", "1,a")
    assert code == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_degree_one_modulus_prints_what_the_prime_field_prints(capsys, fmt):
    plain = run(capsys, "check", "--field", "5", "--format", fmt, "1,2")
    assert plain[0] == 0 and "true" in plain[1]
    assert run(capsys, "check", "--field", "5", "--modulus", "a+3", "--format", fmt, "1,2") == plain


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "catalog.txt"
    code, out, _ = run(
        capsys, "classify", "four-two", "--max-deg", "0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert len(target.read_text().strip().splitlines()) == 3


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_path_exits_3(tmp_path, capsys, where):
    target = tmp_path / "no" / "such" / "x" if where == "missing" else tmp_path
    code, out, err = run(capsys, "check", "--out", str(target), "1,1")
    assert code == 3
    assert out == ""
    expected = "FileNotFoundError" if where == "missing" else "IsADirectoryError"
    assert err.startswith(f"error: {expected}: ")
    assert err.count("\n") == 1


def test_determinism_byte_identical(capsys):
    args = ("classify", "four-two", "--max-deg", "1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# Whole outputs of one request per command, construction and catalog family,
# in text and JSON, plus parse and precondition failures: a list of
# {argv, rc, stdout, stderr}.
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def test_outputs_match_the_golden_file(capsys):
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    replayed = [
        dict(zip(("argv", "rc", "stdout", "stderr"), (r["argv"], *run(capsys, *r["argv"]))))
        for r in records
    ]
    assert replayed == records


GOLDEN_REPLAY_SCRIPT = """
import contextlib, io, json, sys
from sdconv.cli import main
replayed = []
for r in json.load(open(sys.argv[1], encoding="utf-8")):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(r["argv"])
    replayed.append({"argv": r["argv"], "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
print(json.dumps({"asserts": __debug__, "replayed": replayed}))
"""


def test_golden_outputs_hold_with_asserts_off():
    # python -O drops every assert, so no output may depend on one
    proc, _ = run_capped(["-O", "-c", GOLDEN_REPLAY_SCRIPT, str(GOLDEN)], seconds=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["asserts"] is False
    assert result["replayed"] == json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("columns", ["40", "400"])
def test_usage_text_does_not_depend_on_the_terminal_width(capsys, monkeypatch, columns):
    # argparse wraps at COLUMNS unless the width is fixed: the golden usage
    # entries and the help text must read as on an 80-column terminal
    records = [r for r in json.loads(GOLDEN.read_text(encoding="utf-8")) if "usage:" in r["stderr"] + r["stdout"]]
    helps = [("-h",), ("check", "-h"), ("construct", "building-up", "-h")]
    monkeypatch.setenv("COLUMNS", "80")
    wanted = [run(capsys, *argv) for argv in helps]
    monkeypatch.setenv("COLUMNS", columns)
    assert records
    assert [run(capsys, *r["argv"]) for r in records] == [(r["rc"], r["stdout"], r["stderr"]) for r in records]
    assert [run(capsys, *argv) for argv in helps] == wanted


def test_golden_proven_free_distances_respect_the_generalized_singleton_bound():
    # every exact d_free the golden file records, from `distance` in text
    # and JSON and from the JSON catalogs, is within (n-k)(floor(delta/k)+1)
    # + delta + 1
    checked = []
    for r in json.loads(GOLDEN.read_text(encoding="utf-8")):
        argv, out = r["argv"], r["stdout"]
        if r["rc"] or argv[0] not in ("distance", "classify"):
            continue
        if argv[0] == "classify":
            if "--format" in argv:
                checked += [
                    (rec["n"], rec["k"], rec["delta"], rec["dfree"])
                    for rec in json.loads(out)["records"] or []
                    if rec["dfree_status"] == "exact-under-bound"
                ]
            continue
        if "--format" in argv:
            report = json.loads(out)
            if report["status"] != "exact-under-bound":
                continue
            value = report["dfree"]
        elif out.startswith("d_free = "):
            value = int(out.split()[2])
        else:
            continue
        c = ConvolutionalCode(parse_matrix(parse_field_selector(argv[argv.index("--field") + 1]), argv[-1]))
        checked.append((c.n, c.k, c.code_degree(), value))
    assert len(checked) == 18
    for n, k, delta, value in checked:
        assert value <= generalized_singleton_bound(n, k, delta), (n, k, delta, value)


# A request as its own process: `sdconv ARGV`, or with "api" first, the
# outcome of find_completion on one extended matrix over GF(2).
PROCESS_SCRIPT = """
import sys
from sdconv import find_completion, make_field, parse_matrix
from sdconv.cli import main
if sys.argv[1] == "api":
    try:
        print(find_completion(parse_matrix(make_field(2), sys.argv[2])).kind)
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
    sys.exit(0)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        # the pair-sum example, a trivial-only extension, and the catastrophic
        # extension 0,0,z,z: the CLI refuses its base code z,z before it
        # extends it, and find_completion refuses the extension itself
        (["complete", "--a", "1,z^2", "1,1,1,1 ; z^3+z^2+1,z^2+z+1,0,z^3+z"],
         "witness: 1,0,z^5+z^4+z^3+z^2+z,0,z^4+z,z^5+z^3+z^2+1\n"),
        (["complete", "--a", "z", "1,1"], "completion: trivial-only\n"),
        (["complete", "--a", "0", "z,z"], "error: NotSelfDual: hm_extend requires a self-dual input code\n"),
        (["api", "0,0,z,z"], "MalformedInput: the columns past the paired ones generate a catastrophic code\n"),
    ],
)
def test_asserts_off_gives_the_same_outputs(argv, expected):
    # the library still states some invariants with assert; python -O drops
    # them, and every output and exit code must stay the same
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    runs = [
        subprocess.run([sys.executable, *flags, "-c", PROCESS_SCRIPT, *argv],
                       env=env, capture_output=True, text=True, timeout=60)
        for flags in ([], ["-O"])
    ]
    normal, optimized = [(p.returncode, p.stdout, p.stderr) for p in runs]
    assert optimized == normal
    assert normal[0] == (3 if argv[-1] == "z,z" else 0), normal
    assert expected in normal[1] + normal[2]


# -- fuzzing: generated argv must end with exit 0, 2 or 3, promptly ---------

# Matrix text: a k x n grid of small entries ("a" is the generator of an
# extension field), or any string over a small alphabet.
FUZZ_ENTRY = st.sampled_from(["0", "1", "2", "z", "z+1", "z^2+z+1", "z^3", "a*z+1"])


@st.composite
def fuzz_grid(draw):
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return " ; ".join(",".join(draw(FUZZ_ENTRY) for _ in range(n)) for _ in range(k))


FUZZ_MATRIX = st.one_of(fuzz_grid(), st.text(alphabet="01az+^*,; ", max_size=12))
FUZZ_SCALAR = st.sampled_from(["0", "1", "2", "a", "z", "x", ""])
FUZZ_COUNT = st.sampled_from(["0", "1", "2", "-1", "40", "x"])
# None leaves the default field; about three in four draws are valid.
FUZZ_FIELD = st.sampled_from(
    [None, "2", "3", "4", "5", "9", "3^2", "13", "16", "256"] * 3
    + ["0", "1", "6", "2^0", "2^40", "x", "", "3^2^2", "1000000000000000003"]
)


@st.composite
def fuzz_argv(draw):
    """A command with its own arguments, then the common options, which
    are drawn whether or not the command takes them."""
    def m():
        return draw(FUZZ_MATRIX)

    command = draw(st.sampled_from([
        "check", "dual", "hermite", "smith", "distance", "direct-sum",
        "building-up", "orthogonal-chain", "complete", "two-one", "four-two",
        "double-diagonal",
    ]))
    if command in ("check", "dual"):
        argv = [command] + draw(st.sampled_from([[], ["--canonical"]])) + [m()]
    elif command == "hermite":
        argv = [command, "--side", draw(st.sampled_from(["row", "col", "up"])), m()]
    elif command == "smith":
        argv = [command, m()]
    elif command == "distance":
        argv = [command, "--bound", draw(FUZZ_COUNT), m()]
    elif command == "direct-sum":
        argv = ["construct", command, m(), m()]
    elif command == "building-up":
        argv = ["construct", command, "--f", m(), m()]
        argv += draw(st.sampled_from([[], ["--a", draw(FUZZ_SCALAR), "--b", draw(FUZZ_SCALAR)]]))
    elif command == "orthogonal-chain":
        argv = ["construct", command, "--m", m(), "--lam", draw(FUZZ_SCALAR), "--perm", m(), m()]
    elif command == "complete":
        argv = [command, "--a", m(), m()]
        argv += draw(st.sampled_from([[], ["--witness", m()]]))
    elif command == "two-one":
        argv = ["classify", command]
    elif command == "four-two":
        argv = ["classify", command, "--max-deg", draw(FUZZ_COUNT)]
    else:
        argv = ["classify", command, "--k", draw(FUZZ_COUNT)]
    field = draw(FUZZ_FIELD)
    if field is not None:
        argv += ["--field", field]
    argv += draw(st.sampled_from([[], [], ["--format", "json"], ["--format", "xml"]]))
    return argv, draw(st.sampled_from([None, "file", "missing"]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fuzz_argv())
def test_generated_requests_end_with_a_known_exit_code(tmp_path_factory, drawn):
    argv, out = drawn
    if out is not None:
        base = tmp_path_factory.getbasetemp()
        argv = argv + ["--out", str(base / "out.txt" if out == "file" else base / "no" / "out.txt")]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert perf_counter() - start < 2.0, argv
    assert code in (0, 2, 3), argv
    if code or out is not None:
        assert stdout.getvalue() == "", argv
    if code:
        assert stderr.getvalue().strip(), argv
