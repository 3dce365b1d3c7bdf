"""``walk`` is ``ast.walk`` as a list: the same nodes, in the same order."""

import ast
from pathlib import Path

import pytest

import repro
from repro.lint.context import walk

SRC = Path(repro.__file__).resolve().parent
FLOW_FIXTURES = Path(__file__).parents[1] / "flow" / "fixtures"

SNIPPETS = {
    "nested defs": """
def outer(a, *args, b=1, **kw):
    def inner(x, /, y):
        async def innermost():
            return await x
        return innermost
    class Local:
        attr: int = 2
        def method(self):
            return self.attr
    return inner, Local
""",
    "lambdas": "f = lambda x, *a, k=(lambda: 0), **kw: (lambda y: x + y)(k())\n",
    "comprehensions": """
rows = [x * y for x in range(3) if x for y in range(x) if y % 2]
cells = {k: {v for v in vs} for k, vs in pairs if k}
total = sum(a for a in (b async for b in stream()))
""",
    "match": """
match command:
    case ["go", direction] if direction in allowed:
        go(direction)
    case {"kind": "stop", **rest}:
        stop(rest)
    case Point(x=0, y=y) | Point(x=y, y=0):
        axis(y)
    case [1, *others] as whole:
        pass
    case _:
        pass
""",
}


def assert_same_walk(tree: ast.AST) -> None:
    got = walk(tree)
    want = list(ast.walk(tree))
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


def test_live_tree_and_flow_fixtures():
    files = sorted(SRC.rglob("*.py")) + sorted(FLOW_FIXTURES.rglob("*.py"))
    assert len(files) > 100
    for path in files:
        assert_same_walk(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("name", sorted(SNIPPETS))
def test_snippets(name):
    tree = ast.parse(SNIPPETS[name])
    assert_same_walk(tree)
    # every sub-tree walks the same too (rules walk functions and
    # call arguments, not only modules)
    for node in walk(tree):
        assert_same_walk(node)
