"""The package root holds README's library quick start and nothing else.

Every other name is imported from its module, whose ``__all__`` is its one
public list: each entry must exist there and appear once.
"""

import importlib
import os
import pkgutil
import re
import types

import wingcp

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _quick_start_names():
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"^from wingcp import \(([^)]*)\)", fh.read(), re.MULTILINE).group(1)
    return [name.strip() for name in block.split(",")]


def test_root_holds_the_quick_start_names_of_their_modules():
    names = _quick_start_names()
    assert len(names) == len(set(names)) == 9
    public = {name for name, obj in vars(wingcp).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == set(names)
    assert isinstance(wingcp.__version__, str)
    for name in names:
        obj = getattr(wingcp, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_every_all_entry_is_defined_once():
    modules = list(pkgutil.iter_modules(wingcp.__path__))
    assert len(modules) > 10
    for info in modules:
        module = importlib.import_module(f"wingcp.{info.name}")
        entries = getattr(module, "__all__", [])
        assert len(entries) == len(set(entries)), info.name
        missing = [name for name in entries if not hasattr(module, name)]
        assert not missing, (info.name, missing)
