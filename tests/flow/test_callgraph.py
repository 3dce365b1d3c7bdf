"""ProjectIndex resolution: modules, aliases, methods, field binds."""

import ast

from repro.flow.symbols import ProjectIndex, module_name_for
from repro.lint.context import walk


def build(files: dict[str, str]) -> ProjectIndex:
    trees = {relpath: ast.parse(src) for relpath, src in files.items()}
    return ProjectIndex.build(
        (relpath, tree, walk(tree)) for relpath, tree in trees.items()
    )


def test_module_name_anchors_after_src():
    assert module_name_for("src/repro/obs/trace.py") == "repro.obs.trace"
    assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name_for("tools/report.py") == "tools.report"


def test_resolve_name_through_import_aliases():
    index = build(
        {
            "src/pkg/util.py": "def helper():\n    return 1\n",
            "src/pkg/user.py": (
                "from pkg import util as u\n"
                "def run():\n"
                "    return u.helper()\n"
            ),
        }
    )
    mod = index.modules["pkg.user"]
    assert index.resolve_name(mod, "u.helper") == "pkg.util.helper"
    assert index.function_for("pkg.util.helper") is not None


def test_resolve_relative_import():
    index = build(
        {
            "src/pkg/a.py": "def f():\n    return 2\n",
            "src/pkg/b.py": (
                "from .a import f\n" "def g():\n" "    return f()\n"
            ),
        }
    )
    mod = index.modules["pkg.b"]
    assert index.resolve_name(mod, "f") == "pkg.a.f"


def test_function_for_follows_package_reexport():
    index = build(
        {
            "src/pkg/impl.py": "def core():\n    return 3\n",
            "src/pkg/__init__.py": "from .impl import core\n",
        }
    )
    # calling pkg.core resolves one hop through the __init__ re-export
    fn = index.function_for("pkg.core")
    assert fn is not None and fn.fqn == "pkg.impl.core"


def test_method_resolution_through_project_bases():
    index = build(
        {
            "src/pkg/base.py": (
                "class Base:\n"
                "    def run(self):\n"
                "        return 0\n"
            ),
            "src/pkg/child.py": (
                "from .base import Base\n"
                "class Child(Base):\n"
                "    pass\n"
            ),
        }
    )
    fn = index.method_on("pkg.child.Child", "run")
    assert fn is not None and fn.fqn == "pkg.base.Base.run"


def test_init_attr_binds_record_field_constructors():
    index = build(
        {
            "src/pkg/w.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "class Worker:\n"
                "    def __init__(self):\n"
                "        self.pool = ProcessPoolExecutor()\n"
                "        self.log = open('x')\n"
            ),
        }
    )
    binds = index.classes["pkg.w.Worker"].attr_binds
    assert binds["pool"] == "concurrent.futures.ProcessPoolExecutor"
    assert binds["log"] == "open"


def test_unresolvable_head_returned_verbatim_for_external_tables():
    index = build({"src/pkg/x.py": "def f():\n    return id(f)\n"})
    mod = index.modules["pkg.x"]
    # bare builtins come back as-is so source tables can match them
    assert index.resolve_name(mod, "id") == "id"
    # locals headed by self resolve to nothing
    assert index.resolve_name(mod, "self.thing") is None


def test_resolve_module_exact_then_unique_dotted_suffix():
    index = build(
        {
            "src/pkg/util.py": "",
            "src/pkg/a/common.py": "",
            "src/pkg/b/common.py": "",
        }
    )
    assert index.resolve_module("pkg.util").name == "pkg.util"
    assert index.resolve_module("util").name == "pkg.util"
    assert index.resolve_module("a.common").name == "pkg.a.common"
    # two modules end in ".common": ambiguous
    assert index.resolve_module("common") is None
    # a suffix must start at a dot
    assert index.resolve_module("til") is None
    assert index.resolve_module("missing") is None


def test_string_annotations_are_parsed_at_index_build():
    index = build(
        {
            "src/pkg/m.py": (
                "def f(a: 'pkg.m.Engine', b: Engine, c: 'not (valid', "
                "d: int, *rest, e: 'list[int]', f=None):\n"
                "    return a\n"
                "class Engine:\n"
                "    pass\n"
            ),
        }
    )
    assert index.functions["pkg.m.f"].annotations == [
        ("a", "pkg.m.Engine"),
        ("b", "Engine"),
        ("d", "int"),
    ]
