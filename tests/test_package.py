"""The package's public names: ``__all__`` lists exactly what ``sdconv``
imports, so removing a name means editing both lists."""

import types

import pytest

import sdconv
from sdconv.errors import BadScalars, OutOfRange


def test_all_lists_every_public_name_the_package_imports():
    public = {
        name
        for name, value in vars(sdconv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(sdconv.__all__) == len(set(sdconv.__all__))
    assert set(sdconv.__all__) == public


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
