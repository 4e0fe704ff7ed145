"""The package's exports: six names, three of them served on first
access from the certificate and oracle modules."""

import importlib

import pytest

import sexticrank


def test_star_import_gives_the_six_names():
    namespace = {}
    exec("from sexticrank import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sexticrank.__all__) == sorted(
        ["rank_breakdown", "classify", "full_certificate",
         "verify_certificate_json", "census_rows", "cross_validate"])


@pytest.mark.parametrize("name,module", [
    ("full_certificate", "generators"),
    ("verify_certificate_json", "generators"),
    ("cross_validate", "oracle"),
])
def test_deferred_names_are_their_modules_own(name, module):
    value = getattr(sexticrank, name)
    assert value is getattr(importlib.import_module(f"sexticrank.{module}"),
                            name)
    assert vars(sexticrank)[name] is value


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sexticrank.no_such_name
