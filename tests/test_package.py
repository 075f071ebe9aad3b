"""The package namespace re-exports exactly its submodules' public names."""

import heatrobin
from heatrobin import extension, polyalg, solver, spectral, verify

SUBMODULES = (polyalg, extension, spectral, solver, verify)


def test_all_has_no_duplicates():
    assert len(heatrobin.__all__) == len(set(heatrobin.__all__))


def test_every_exported_name_is_its_submodules_object():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(heatrobin, name) is getattr(module, name), (module.__name__, name)


def test_all_is_the_union_of_the_submodules_lists():
    want = {"__version__"}.union(*(module.__all__ for module in SUBMODULES))
    assert set(heatrobin.__all__) == want
