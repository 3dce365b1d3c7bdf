"""The product never imports its tests.

Test-only oracles (:mod:`tests.oracles`: the die and package media
models, the reference scheduler, the event-driven SSD, ...) model what
no program path runs.  A module under ``src/repro`` that imported one
would ship it, so every module is scanned for an import of ``tests``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def imports_of_tests(tree: ast.AST) -> list[int]:
    """Lines of ``tree`` that import ``tests`` or a module under it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "tests" or name.startswith("tests.") for name in names):
            lines.append(node.lineno)
    return lines


def test_no_product_module_imports_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 100  # the whole package, not an empty glob
    offenders = {}
    for path in modules:
        text = path.read_text()
        # an import of ``tests`` spells the word: parse only those files
        if "tests" in text and (lines := imports_of_tests(ast.parse(text, str(path)))):
            offenders[str(path.relative_to(SRC))] = lines
    assert offenders == {}


def test_the_scan_sees_every_spelling():
    source = """
import tests
import numpy, tests.oracles.media as media
from tests.oracles import media
from tests import oracles
from . import tests
from .tests import x
import testsuite
from testsuite import y
"""
    assert imports_of_tests(ast.parse(source)) == [2, 3, 4, 5]
