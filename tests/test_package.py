"""The package's exports: six names, three of them served on first
access from the certificate and oracle modules; and README's Library
block, run as written."""

import ast
import importlib
import re
from pathlib import Path

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


def test_readme_library_block_prints_what_its_comments_say():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library\n.*?```python\n(.*?)```", readme,
                      re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            expr = ast.get_source_segment(block, stmt)
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            assert comment.startswith(repr(eval(expr, namespace))), expr
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
    assert checked  # the block still has commented expressions
