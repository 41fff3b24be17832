"""The package's public names: ``__all__`` lists exactly what ``sdconv``
imports, so removing a name means editing both lists.  Every name a module
imports is used, and every public door refuses a value of the wrong kind
with a typed error."""

import ast
import json
import types
from pathlib import Path

import pytest

import sdconv
from helpers import run_capped
from sdconv.errors import (
    BadScalars, DimensionMismatch, FieldMismatch, MalformedInput, OutOfRange, ParseError, SdconvError,
)


def test_all_lists_every_public_name_the_package_imports():
    public = {
        name
        for name, value in vars(sdconv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(sdconv.__all__) == len(set(sdconv.__all__))
    assert set(sdconv.__all__) == public


def _used_names(tree: ast.Module) -> set:
    """The names a module reads, and the re-exports in its ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(Path(sdconv.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    assert sorted(imported - _used_names(tree)) == []


def test_star_import_gives_the_names_of_all():
    namespace = {}
    exec("from sdconv import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sdconv.__all__)


F5 = sdconv.make_field(5)
SELF_DUAL = sdconv.ConvolutionalCode(sdconv.parse_matrix(F5, "1,2"))  # 1 + 2^2 = 0


@pytest.mark.parametrize(
    "error, call",
    [
        (OutOfRange, lambda: sdconv.Poly(F5, (0, 1)) ** 2.5),
        (OutOfRange, lambda: F5.one ** 2.5),
        (OutOfRange, lambda: sdconv.iter_bounded_polys(F5, 2.5)),
        (OutOfRange, lambda: sdconv.classify_42_binary(1.5)),
        (OutOfRange, lambda: sdconv.classify_double_diagonal(F5, 2.0)),
        (OutOfRange, lambda: SELF_DUAL.free_distance(1.5)),
        (OutOfRange, lambda: sdconv.PolyMatrix.identity(F5, 2.5)),
        (OutOfRange, lambda: sdconv.PolyMatrix.zeros(F5, 1.5, 2)),
        (OutOfRange, lambda: sdconv.PolyMatrix(F5, [], cols=2.5)),
        (BadScalars, lambda: sdconv.building_up(SELF_DUAL, [1, 0], 1.0, 2)),
        (OutOfRange, lambda: F5.from_int(2.5)),
        (OutOfRange, lambda: F5.from_int("3")),
        (OutOfRange, lambda: F5.element((1.0,))),
        (OutOfRange, lambda: F5.element(3)),
    ],
    ids=["Poly-pow", "element-pow", "iter_bounded_polys", "classify_42_binary",
         "classify_double_diagonal", "free_distance", "identity", "zeros", "cols", "building_up",
         "from_int-float", "from_int-str", "element-float", "element-int"],
)
def test_int_arguments_refuse_other_numbers_with_a_typed_error(error, call):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "error, call",
    [
        (FieldMismatch, lambda: sdconv.iter_bounded_polys(3, 0)),
        (FieldMismatch, lambda: sdconv.classify_double_diagonal(0, 1)),
        (FieldMismatch, lambda: sdconv.sqrt_of_minus_one(0)),
        (ParseError, lambda: sdconv.parse_poly(F5, 5)),
        (ParseError, lambda: sdconv.parse_matrix(F5, None)),
        (ParseError, lambda: sdconv.parse_vector(F5, 5)),
        (ParseError, lambda: sdconv.parse_element(F5, 5)),
        (ParseError, lambda: sdconv.parse_field_selector(5)),
        (ParseError, lambda: sdconv.parse_field_selector("4", 5)),
        (DimensionMismatch, lambda: sdconv.PolyMatrix(F5, 0)),
        (MalformedInput, lambda: sdconv.format_catalog(0)),
        (MalformedInput, lambda: sdconv.format_catalog("z")),
    ],
    ids=["iter_bounded_polys", "classify_double_diagonal", "sqrt_of_minus_one", "parse_poly",
         "parse_matrix", "parse_vector", "parse_element", "parse_field_selector",
         "parse_field_selector-modulus", "PolyMatrix", "format_catalog-int", "format_catalog-str"],
)
def test_a_field_a_text_or_rows_of_the_wrong_kind_is_a_typed_error(error, call):
    with pytest.raises(error):
        call()


# Each door that takes a matrix, a code's generator, a list of steps, a code
# or a vector, called with a value of the wrong kind.
WRONG_KIND_DOORS = {
    "smith": sdconv.smith,
    "row_hermite": sdconv.row_hermite,
    "col_hermite": sdconv.col_hermite,
    "rank": sdconv.rank,
    "determinant": sdconv.determinant,
    "inverse_unimodular": sdconv.inverse_unimodular,
    "right_kernel_basis": sdconv.right_kernel_basis,
    "solve_left": lambda x: sdconv.solve_left(x, [1]),
    "format_matrix": sdconv.format_matrix,
    "vstack": sdconv.vstack,
    "ConvolutionalCode": sdconv.ConvolutionalCode,
    "orthogonal_chain": lambda x: sdconv.orthogonal_chain(SELF_DUAL, x),
    "format_vector": sdconv.format_vector,
    "find_completion": sdconv.find_completion,
    "is_trivial_completion": sdconv.is_trivial_completion,
    "reduce_double_triangular": sdconv.reduce_double_triangular,
    "direct_sum": lambda x: sdconv.direct_sum(x, SELF_DUAL),
    "direct_sum-second": lambda x: sdconv.direct_sum(SELF_DUAL, x),
    "building_up": lambda x: sdconv.building_up(x, (1,)),
    "hm_extend": lambda x: sdconv.hm_extend(x, (1, 1)),
    "default_a_vec": sdconv.default_a_vec,
    "orthogonal_chain-code": lambda x: sdconv.orthogonal_chain(x, []),
}
WRONG_KINDS = {"int": 3, "str": "1,z", "None": None, "Poly": sdconv.Poly(F5, (0, 1)), "field": F5}


@pytest.mark.parametrize("value", WRONG_KINDS.values(), ids=WRONG_KINDS)
@pytest.mark.parametrize("door", WRONG_KIND_DOORS.values(), ids=WRONG_KIND_DOORS)
def test_a_value_of_the_wrong_kind_at_a_door_is_a_typed_error(door, value):
    with pytest.raises(SdconvError):
        door(value)


# Every callable of __all__ with at most two required positional arguments,
# and every public method of the pool's sdconv values, with __pow__,
# __divmod__ and __matmul__, with at most three (PolyMatrix.zeros takes
# three; the classmethods Poly.zero/one/z and PolyMatrix.identity/zeros come
# with the pool's Poly and PolyMatrix), called with every tuple of values
# from a small pool, each under a 1 s alarm; prints the calls that ended in
# an exception other than an SdconvError, and those that ran past the alarm.
TABLE_SCRIPT = """
import inspect, itertools, json, signal
import sdconv
from sdconv.errors import SdconvError

F2, F5 = sdconv.make_field(2), sdconv.make_field(5)
POOL = [0, -1, 3, 10**50, 2.5, "z", "", None, F2, F5, F5.one, sdconv.Poly.z(F5),
        sdconv.parse_matrix(F2, "1,1"), sdconv.ConvolutionalCode(sdconv.parse_matrix(F5, "1,2")),
        [1, 0], (sdconv.Poly.z(F2),)]
DOORS = [(name, getattr(sdconv, name), 2) for name in sdconv.__all__]
DOORS += [
    (f"{type(value).__name__}.{name}", getattr(value, name), 3)
    for value in POOL if type(value).__module__.startswith("sdconv")
    for name in dir(value)
    if (not name.startswith("_") or name in ("__pow__", "__divmod__", "__matmul__"))
    and callable(getattr(value, name))
]


class Late(Exception):
    pass


def late(*_):
    raise Late


signal.signal(signal.SIGALRM, late)
bare, slow, calls = [], [], 0
for name, door, most in DOORS:
    try:
        params = inspect.signature(door).parameters.values()
    except (TypeError, ValueError):
        continue
    required = [p for p in params if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    if len(required) > most:
        continue
    for args in itertools.product(range(len(POOL)), repeat=len(required)):
        calls += 1
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            door(*[POOL[i] for i in args])
        except SdconvError:
            pass
        except Late:
            slow.append([name, args])
        except Exception as exc:
            bare.append([name, args, type(exc).__name__])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
print(json.dumps({"calls": calls, "bare": bare, "slow": slow}))
"""


# Matrices too large to build, each to be refused with SearchSpaceTooLarge
# before anything of its size is allocated; the child prints each outcome,
# then the shapes of two matrices at the cap.
SHAPE_SCRIPT = """
import sdconv
F5 = sdconv.make_field(5)
BIG = [
    lambda: sdconv.PolyMatrix.identity(F5, 10**6),
    lambda: sdconv.PolyMatrix.zeros(F5, 10**50, 1),
    lambda: sdconv.PolyMatrix.zeros(F5, 3, 10**50),
    lambda: sdconv.PolyMatrix.zeros(F5, 3000, 3000),
    lambda: sdconv.PolyMatrix(F5, [], cols=10**50).transpose(),
    lambda: sdconv.ConvolutionalCode(sdconv.PolyMatrix(F5, [], cols=10**12)).dual(),
    lambda: sdconv.smith(sdconv.PolyMatrix(F5, [[1] * 3000])),
]
for call in BIG:
    try:
        call()
        print("result")
    except Exception as exc:
        print(type(exc).__name__)
print(sdconv.PolyMatrix.zeros(F5, 2048, 2048).rows, sdconv.PolyMatrix(F5, [], cols=2048).cols)
"""


def test_a_matrix_past_the_size_cap_is_refused_before_it_is_built():
    proc, cpu_s = run_capped(["-c", SHAPE_SCRIPT], seconds=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["SearchSpaceTooLarge"] * 7 + ["2048 2048", ""]
    assert cpu_s < 2.0


def test_every_public_call_ends_in_a_result_or_a_typed_error_in_time():
    proc, _ = run_capped(["-c", TABLE_SCRIPT], seconds=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["calls"] > 1000
    assert result["bare"] == [] and result["slow"] == []
