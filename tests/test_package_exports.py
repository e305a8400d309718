"""Every package's ``__all__`` names only what the package defines.

A def deleted from a module but left in a package's ``__all__`` does not
break ``import repro.x``: it breaks ``from repro.x import *`` and any
caller that scrapes ``__all__``.  One case per package, so a stale entry
names its package.
"""

import importlib
import pathlib

import pytest

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = sorted(
    ".".join(("repro",) + init.parent.relative_to(SRC_ROOT).parts)
    for init in SRC_ROOT.rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_only_what_the_package_defines(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{package} declares no __all__"
    assert len(set(exported)) == len(exported), f"{package}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not define: {missing}"
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(exported) <= set(namespace)
