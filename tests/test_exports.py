"""Every name that a sexticrank module lists in ``__all__`` exists.

A stale entry breaks only ``from sexticrank.<module> import *``, which
nothing else runs.  This imports each module and looks each listed name
up on it.
"""

import importlib
import pkgutil

import pytest

import sexticrank

MODULES = ["sexticrank"] + [
    f"sexticrank.{info.name}"
    for info in pkgutil.iter_modules(sexticrank.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ())
               if not hasattr(mod, attr)]
    assert not missing, (name, missing)
