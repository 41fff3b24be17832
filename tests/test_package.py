"""The package's public names: ``__all__`` lists exactly what ``sdconv``
imports, so removing a name means editing both lists.  Every name a module
imports is used, and every public door refuses a value of the wrong kind
with a typed error."""

import ast
import types
from pathlib import Path

import pytest

import sdconv
from sdconv.errors import BadScalars, OutOfRange, SdconvError


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
