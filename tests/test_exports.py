"""The public names of the package and of each module exist."""

import importlib
import pkgutil

import calderon3d


def test_every_exported_name_is_defined():
    modules = [calderon3d] + [
        importlib.import_module(f"calderon3d.{info.name}")
        for info in pkgutil.iter_modules(calderon3d.__path__)
    ]
    assert len(modules) > 1  # the submodules were found
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
