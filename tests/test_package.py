"""The package namespace and the README's code."""

import importlib
import pathlib
import re

import hypermaj
from hypermaj import linearhg, lll

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_module_lists():
    expected = [name for names in hypermaj._EXPORTS.values() for name in names]
    assert hypermaj.__all__ == expected
    assert len(expected) == 32
    assert len(set(expected)) == 32
    assert list(hypermaj._EXPORTS) == [
        "errors", "genlab", "hypercore", "linearhg", "lll", "partition", "rounder",
    ]


def test_package_names_are_their_home_modules_objects():
    for home, names in hypermaj._EXPORTS.items():
        mod = importlib.import_module(f"hypermaj.{home}")
        for name in names:
            assert getattr(hypermaj, name) is getattr(mod, name), name


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from hypermaj import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(hypermaj.__all__)


def test_reference_names_are_module_attributes_only():
    # bench/spans.layer_table() reads these from their modules
    for mod, name in [
        (linearhg, "LineGraph"),
        (linearhg, "line_graph"),
        (linearhg, "greedy_colour"),
        (lll, "bad_vertices"),
    ]:
        assert callable(getattr(mod, name))
        assert not hasattr(hypermaj, name)
        assert name not in hypermaj.__all__


def test_readme_python_blocks_run_as_written():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
