"""The package's public names: ``__all__`` lists exactly what ``sdconv``
imports, so removing a name means editing both lists."""

import types

import sdconv


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
