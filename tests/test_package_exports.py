"""Every package's ``__all__`` names only what the package defines, and
every annotation in ``src/repro/`` names something its module has.

A def deleted from a module but left in a package's ``__all__`` does not
break ``import repro.x``: it breaks ``from repro.x import *`` and any
caller that scrapes ``__all__``.  One case per package, so a stale entry
names its package.  An import deleted while an annotation still uses it
breaks nothing either until a linter or ``typing.get_type_hints`` reads it.
"""

import importlib
import inspect
import pathlib
import typing

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


MODULES = sorted(
    ".".join(("repro",) + path.with_suffix("").relative_to(SRC_ROOT).parts)
    for path in SRC_ROOT.rglob("*.py")
    if path.name not in ("__init__.py", "__main__.py")
)


def annotated_defs(module):
    """``(qualified name, object)`` for every module-level function and class
    ``module`` defines, and every method and property of those classes."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) or inspect.isclass(value):
            yield name, value
        if inspect.isclass(value):
            for attr, member in vars(value).items():
                member = getattr(member, "__func__", member)  # static / class methods
                member = getattr(member, "fget", member)  # properties
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_every_annotation_in_src_resolves():
    """An annotation naming something the module never imports is an F821
    that only a linter or ``typing.get_type_hints`` sees: under ``from
    __future__ import annotations`` the module still imports and runs."""
    unresolved = []
    for name in MODULES:
        module = importlib.import_module(name)
        for qualified, obj in annotated_defs(module):
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                unresolved.append(f"{name}.{qualified}: {exc}")
    assert not unresolved, "annotations that do not resolve:\n  " + "\n  ".join(unresolved)
