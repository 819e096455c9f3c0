"""The public names of the package and of each module exist, the package
exports exactly its library modules' names, and the package keeps only the
module-level caches it means to."""

import importlib
import pkgutil

import calderon3d
from calderon3d import recon


def _modules():
    return [calderon3d] + [
        importlib.import_module(f"calderon3d.{info.name}")
        for info in pkgutil.iter_modules(calderon3d.__path__)
    ]


def test_every_exported_name_is_defined():
    modules = _modules()
    assert len(modules) > 1  # the submodules were found
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_the_package_exports_each_library_modules_names_once():
    library = [
        importlib.import_module(f"calderon3d.{name}")
        for name in ("specfun", "quadrature", "zernike", "forward", "recon", "phantoms", "serialize")
    ]
    names = [name for module in library for name in module.__all__]
    # a star import of a later module would silently shadow an earlier name
    assert len(set(names)) == len(names)
    assert calderon3d.__all__ == names
    for module in library:
        for name in module.__all__:
            assert getattr(calderon3d, name) is getattr(module, name), (module.__name__, name)


def test_the_only_module_level_cache_is_the_coupling_operators():
    # a new module-global cache is a design decision: add it here on purpose
    owners = []
    for module in _modules():
        owners.append(module)
        owners += [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__.startswith("calderon3d")]
    cached = {v for owner in owners for v in vars(owner).values() if hasattr(v, "cache_info")}
    assert cached == {recon.coupling_operator}
