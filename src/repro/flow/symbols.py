"""Project-wide symbol table and call resolution for :mod:`repro.flow`.

Builds, from the parsed file set the lint runner already holds, an
index of every module, class, function and import alias, so the taint
engine can resolve ``obs.tracer()`` through ``from ..obs import trace
as obs`` to :func:`repro.obs.trace.tracer`, bind ``engine =
MatrixEngine(...)`` receivers to project methods, and follow ``self.``
calls inside a class.

Resolution is deliberately static and conservative: a name that cannot
be resolved stays unresolved (the engine then applies the external
source/sink tables and the default propagation policy) rather than
guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..lint.context import walk

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectIndex",
    "module_name_for",
    "dotted",
]


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def module_name_for(relpath: str) -> str:
    """Dotted module name of a source file.

    Anchors at the segment after ``src`` when present (the installed
    package layout); otherwise uses the whole relative path, so fixture
    trees resolve among themselves by suffix matching.
    """
    parts = list(relpath.replace("\\", "/").split("/"))
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


@dataclass
class FunctionInfo:
    """One function or method defined somewhere in the project."""

    fqn: str  # module.Class.method or module.function
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    relpath: str
    params: list[str] = field(default_factory=list)
    owner_class: Optional[str] = None  # class fqn for methods
    is_nested: bool = False
    #: (param, dotted annotation) in signature order; string
    #: annotations are parsed here, once
    annotations: list[tuple[str, str]] = field(default_factory=list)

    @property
    def display(self) -> str:
        return f"{self.fqn} ({self.relpath}:{self.node.lineno})"


@dataclass
class ClassInfo:
    fqn: str
    module: str
    node: ast.ClassDef
    relpath: str
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn fqn
    bases: list[str] = field(default_factory=list)  # unresolved dotted names
    #: attribute name -> class-or-ctor fqn bound in __init__
    #: (``self._pool = ThreadPoolExecutor(...)`` makes ``self._pool``
    #: resolvable as a thread executor at submit sites)
    attr_binds: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    relpath: str
    tree: ast.Module
    #: local alias -> fully dotted target ("obs" -> "repro.obs.trace")
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, str] = field(default_factory=dict)  # local -> fqn
    classes: dict[str, str] = field(default_factory=dict)  # local -> fqn


def _params_of(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    a = node.args
    names = [p.arg for p in a.posonlyargs]
    names += [p.arg for p in a.args]
    if a.vararg:
        names.append(a.vararg.arg)
    names += [p.arg for p in a.kwonlyargs]
    if a.kwarg:
        names.append(a.kwarg.arg)
    return names


def _annotations_of(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[str, str]]:
    a = node.args
    out: list[tuple[str, str]] = []
    for p in a.posonlyargs + a.args + a.kwonlyargs:
        ann = p.annotation
        if ann is None:
            continue
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                continue
        name = dotted(ann)
        if name is not None:
            out.append((p.arg, name))
    return out


class ProjectIndex:
    """Symbol table over one parsed file set."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: dotted suffix -> the one module name ending in ``.suffix``,
        #: or ``None`` when several do
        self._by_suffix: dict[str, Optional[str]] = {}

    # -- construction -------------------------------------------------
    @classmethod
    def build(
        cls, files: Iterable[tuple[str, ast.Module, Sequence[ast.AST]]]
    ) -> "ProjectIndex":
        """Index ``(relpath, tree, nodes)`` triples, ``nodes`` being the
        tree's :func:`~repro.lint.context.walk` list (lint's per-file
        contexts hold it already)."""
        index = cls()
        for relpath, tree, nodes in files:
            index._index_module(relpath, tree, nodes)
        index._index_suffixes()
        for cinfo in index.classes.values():
            index._bind_init_attrs(cinfo)
        return index

    def _index_module(
        self, relpath: str, tree: ast.Module, nodes: Sequence[ast.AST]
    ) -> None:
        name = module_name_for(relpath)
        mod = ModuleInfo(name=name, relpath=relpath, tree=tree)
        self.modules[name] = mod
        self._collect_imports(mod, nodes)
        self._collect_defs(mod, tree)

    def _index_suffixes(self) -> None:
        for name in self.modules:
            parts = name.split(".")
            for i in range(1, len(parts)):
                suffix = ".".join(parts[i:])
                seen = self._by_suffix.get(suffix, name)
                self._by_suffix[suffix] = name if seen == name else None

    def _collect_imports(
        self, mod: ModuleInfo, nodes: Iterable[ast.AST]
    ) -> None:
        # the whole tree: TYPE_CHECKING / function-local imports
        # still name project modules usefully
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(mod.name, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    @staticmethod
    def _import_base(module_name: str, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        parts = module_name.split(".")
        # ``from . import x`` in package __init__ vs plain module: the
        # indexed name of a package is its dotted dir, of a module its
        # dotted file; both drop ``level`` trailing segments
        base_parts = parts[: len(parts) - node.level] if node.level <= len(parts) else []
        base = ".".join(base_parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    def _collect_defs(self, mod: ModuleInfo, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fqn = f"{mod.name}.{node.name}"
                mod.functions[node.name] = fqn
                self.functions[fqn] = FunctionInfo(
                    fqn=fqn,
                    module=mod.name,
                    node=node,
                    relpath=mod.relpath,
                    params=_params_of(node),
                    annotations=_annotations_of(node),
                )
            elif isinstance(node, ast.ClassDef):
                cfqn = f"{mod.name}.{node.name}"
                mod.classes[node.name] = cfqn
                cinfo = ClassInfo(
                    fqn=cfqn,
                    module=mod.name,
                    node=node,
                    relpath=mod.relpath,
                    bases=[b for b in (dotted(x) for x in node.bases) if b],
                )
                self.classes[cfqn] = cinfo
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        mfqn = f"{cfqn}.{item.name}"
                        cinfo.methods[item.name] = mfqn
                        self.functions[mfqn] = FunctionInfo(
                            fqn=mfqn,
                            module=mod.name,
                            node=item,
                            relpath=mod.relpath,
                            params=_params_of(item),
                            owner_class=cfqn,
                            annotations=_annotations_of(item),
                        )

    def _bind_init_attrs(self, cinfo: ClassInfo) -> None:
        init_fqn = cinfo.methods.get("__init__")
        if init_fqn is None:
            return
        init = self.functions[init_fqn]
        mod = self.modules[cinfo.module]
        for node in walk(init.node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            ctor = dotted(node.value.func)
            if ctor is None:
                continue
            resolved = self.resolve_name(mod, ctor) or ctor
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cinfo.attr_binds[target.attr] = resolved

    # -- resolution ---------------------------------------------------
    def resolve_module(self, guess: str) -> Optional[ModuleInfo]:
        """The module named ``guess``, else the one module whose dotted
        name ends in ``.guess``, else ``None``."""
        mod = self.modules.get(guess)
        if mod is not None:
            return mod
        hit = self._by_suffix.get(guess)
        return self.modules[hit] if hit is not None else None

    def resolve_name(self, mod: ModuleInfo, name: str) -> Optional[str]:
        """Fully-qualify a dotted name as seen from ``mod``.

        Returns a project fqn (function/class/module) or an external
        dotted name after alias substitution; ``None`` when the head is
        a plain local variable.
        """
        head, _, rest = name.partition(".")
        if head in mod.functions:
            base = mod.functions[head]
        elif head in mod.classes:
            base = mod.classes[head]
        elif head in mod.imports:
            base = mod.imports[head]
        elif head in ("self", "cls"):
            return None
        elif (head_mod := self.resolve_module(head)) is not None:
            base = head_mod.name
        else:
            # external builtin / unknown local: return as-is so source
            # tables can match bare names like ``id`` / ``open``
            return name
        return f"{base}.{rest}" if rest else base

    def function_for(self, fqn: Optional[str]) -> Optional[FunctionInfo]:
        if fqn is None:
            return None
        fn = self.functions.get(fqn)
        if fn is not None:
            return fn
        # calling a module attr that is itself a module-level function
        # re-exported via a package: try suffix module resolution
        mod_name, _, attr = fqn.rpartition(".")
        if not attr:
            return None
        mod = self.resolve_module(mod_name) if mod_name else None
        if mod is not None:
            local = mod.functions.get(attr)
            if local is not None:
                return self.functions.get(local)
            # re-resolve through that module's own aliases (one hop:
            # package __init__ re-exports)
            target = mod.imports.get(attr)
            if target is not None and target != fqn:
                return self.function_for(target)
        return None

    def class_for(self, fqn: Optional[str]) -> Optional[ClassInfo]:
        if fqn is None:
            return None
        ci = self.classes.get(fqn)
        if ci is not None:
            return ci
        mod_name, _, attr = fqn.rpartition(".")
        if not attr:
            return None
        mod = self.resolve_module(mod_name) if mod_name else None
        if mod is not None:
            local = mod.classes.get(attr)
            if local is not None:
                return self.classes.get(local)
            target = mod.imports.get(attr)
            if target is not None and target != fqn:
                return self.class_for(target)
        return None

    def method_on(self, class_fqn: str, method: str) -> Optional[FunctionInfo]:
        """Resolve a method through the class and its project bases."""
        seen: set[str] = set()
        stack = [class_fqn]
        while stack:
            cur = stack.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            cinfo = self.class_for(cur)
            if cinfo is None:
                continue
            mfqn = cinfo.methods.get(method)
            if mfqn is not None:
                return self.functions.get(mfqn)
            mod = self.modules.get(cinfo.module)
            for base in cinfo.bases:
                resolved = (
                    self.resolve_name(mod, base) if mod is not None else base
                )
                if resolved:
                    stack.append(resolved)
        return None
