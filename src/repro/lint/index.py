"""Whole-project index: one parse of ``src/``, symbols, imports, calls.

PR 3's rules are per-file AST matchers; the bug classes PR 8 targets —
packed-word width overflow gated in a *caller*, a cffi buffer typed in
one module and filled in another, an env var read under a constant
imported from elsewhere — are only visible with cross-module facts.
This module builds them once per lint run:

- a **module table** (:class:`ModuleInfo`): every ``.py`` under the
  project's ``src/`` parsed once, keyed by dotted module name, with its
  top-level symbols, import-alias map and simple constants;
- an **import graph**: local alias → fully-qualified dotted target,
  resolved through ``import``/``from ... import`` (one re-export hop);
- a **call graph**: every resolvable call site recorded in both
  directions (:meth:`ProjectIndex.callers_of` /
  :meth:`ProjectIndex.callees_of`), so rules can ask "is this function
  reachable from a width guard" without re-walking the tree.

Resolution is deliberately best-effort: attribute calls on objects
(``self.x()``, ``bank.update()``) and dynamic dispatch stay unresolved,
which is the right failure mode for lint — an unresolved edge can only
*suppress* a cross-module finding, never invent one.

The index is cached on :class:`~repro.lint.engine.ProjectContext` via
:meth:`~repro.lint.engine.ProjectContext.index`, so R007/R008/R009
share one build per run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.engine import ProjectContext
from repro.lint.rules._ast_util import dotted_name, import_aliases, walk_functions

__all__ = ["CallSite", "ModuleInfo", "ProjectIndex"]


@dataclass(frozen=True)
class CallSite:
    """One resolved call: ``function`` in ``module`` calls the target."""

    module: str  # caller's dotted module name
    function: str  # caller's qualified function name ("" = module level)
    call: ast.Call = field(compare=False, hash=False)


class ModuleInfo:
    """One parsed project module and its per-module tables."""

    def __init__(self, name: str, path: Path, rel_path: str, tree: ast.Module):
        self.name = name
        self.path = path
        self.rel_path = rel_path
        self.tree = tree
        #: local alias -> fully dotted import target
        self.imports: Dict[str, str] = import_aliases(tree)
        #: top-level name -> defining node (def / class / assignment)
        self.symbols: Dict[str, ast.AST] = {}
        #: top-level name -> literal value (str/int/float/bool constants)
        self.constants: Dict[str, object] = {}
        #: qualified function name -> node, methods included
        self.functions: Dict[str, ast.FunctionDef] = dict(walk_functions(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.symbols[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.symbols[target.id] = node
                        if isinstance(node.value, ast.Constant):
                            self.constants[target.id] = node.value.value
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self.symbols[node.target.id] = node
                if isinstance(node.value, ast.Constant):
                    self.constants[node.target.id] = node.value.value


class ProjectIndex:
    """Cross-module symbol, import and call-site index of one project."""

    def __init__(self, project: ProjectContext):
        self.project = project
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_rel_path: Dict[str, ModuleInfo] = {}
        #: (module, top-level callee name) -> call sites targeting it
        self._callers: Dict[Tuple[str, str], List[CallSite]] = {}
        #: (module, qualified caller name) -> resolved callee keys
        self._callees: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
        self._build()

    # -- construction --------------------------------------------------

    def _module_name(self, path: Path) -> Optional[str]:
        try:
            rel = path.resolve().relative_to(self.project.src_root.resolve())
        except ValueError:
            return None
        parts = list(rel.with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts) if parts else None

    def _build(self) -> None:
        src_root = self.project.src_root
        if not src_root.is_dir():
            return
        for path in sorted(src_root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            name = self._module_name(path)
            if name is None:
                continue
            tree = self.project.parse(path)
            if tree is None:
                continue
            info = ModuleInfo(name, path, self.project.rel_path(path), tree)
            self.modules[name] = info
            self._by_rel_path[info.rel_path] = info
        for info in self.modules.values():
            self._index_calls(info)

    def _index_calls(self, info: ModuleInfo) -> None:
        scopes: List[Tuple[str, ast.AST]] = [("", info.tree)]
        scopes.extend(info.functions.items())
        # Walk each function body exactly once: module level walks only
        # statements outside any function (approximated by attributing
        # nested calls to the innermost function that contains them).
        for qualname, fn in info.functions.items():
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    self._record_call(info, qualname, node)
        covered = {
            id(call)
            for fn in info.functions.values()
            for call in ast.walk(fn)
            if isinstance(call, ast.Call)
        }
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Call) and id(node) not in covered:
                self._record_call(info, "", node)

    def _record_call(
        self, info: ModuleInfo, qualname: str, call: ast.Call
    ) -> None:
        target = self.resolve_function_key(info.name, dotted_name(call.func))
        if target is None:
            return
        site = CallSite(info.name, qualname, call)
        self._callers.setdefault(target, []).append(site)
        self._callees.setdefault((info.name, qualname), set()).add(target)

    # -- resolution ----------------------------------------------------

    def module(self, name: str) -> Optional[ModuleInfo]:
        """The indexed module with this dotted name, if any."""
        return self.modules.get(name)

    def module_for_path(self, rel_path: str) -> Optional[ModuleInfo]:
        """The indexed module at this project-relative path, if any."""
        return self._by_rel_path.get(rel_path)

    def split_dotted(self, dotted: str) -> Optional[Tuple[str, str]]:
        """Split a fully-qualified path into ``(module, symbol-path)``.

        Chooses the *longest* module prefix known to the index, so
        ``repro.sim.native.run_table_kernel`` resolves to the module
        ``repro.sim.native`` with symbol ``run_table_kernel`` even
        though ``repro.sim`` is also a module.
        """
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, ".".join(parts[cut:])
        return None

    def resolve(
        self, module: str, name: Optional[str]
    ) -> Optional[Tuple[str, str]]:
        """Resolve a (possibly dotted) local name to ``(module, symbol)``.

        Follows the module's import aliases, then one re-export hop
        (``from repro.a import b`` where ``repro.a``'s ``b`` is itself
        imported).  Returns ``None`` for anything outside the project.
        """
        if not name:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = name.partition(".")
        if head in info.imports:
            expanded = info.imports[head] + (f".{rest}" if rest else "")
        elif head in info.symbols:
            return module, name
        else:
            return None
        located = self.split_dotted(expanded)
        if located is None:
            return None
        target_module, symbol = located
        if not symbol:
            return None
        target = self.modules[target_module]
        first = symbol.split(".")[0]
        if first in target.symbols:
            return target_module, symbol
        if first in target.imports:  # one re-export hop
            return self.resolve(target_module, symbol)
        return None

    def resolve_function_key(
        self, module: str, name: Optional[str]
    ) -> Optional[Tuple[str, str]]:
        """Like :meth:`resolve`, but only for project *functions*.

        The symbol path's first component must name a top-level
        function in the target module (methods stay unresolved — an
        attribute call's receiver type is unknown here).
        """
        resolved = self.resolve(module, name)
        if resolved is None:
            return None
        target_module, symbol = resolved
        first = symbol.split(".")[0]
        node = self.modules[target_module].symbols.get(first)
        if isinstance(node, ast.FunctionDef):
            return target_module, first
        return None

    def resolve_constant(self, module: str, name: str) -> Optional[object]:
        """The literal value bound to ``name`` in ``module``, if any.

        Follows import aliases so a constant defined in one module and
        read through ``from x import NAME`` in another still resolves.
        """
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.constants:
            return info.constants[name]
        resolved = self.resolve(module, name)
        if resolved is None or resolved == (module, name):
            return None
        target_module, symbol = resolved
        return self.modules[target_module].constants.get(symbol)

    # -- call graph ----------------------------------------------------

    def callers_of(self, module: str, function: str) -> List[CallSite]:
        """Every resolved call site targeting a top-level function."""
        return list(self._callers.get((module, function), ()))

    def callees_of(self, module: str, function: str) -> Set[Tuple[str, str]]:
        """Resolved ``(module, name)`` targets called by a function."""
        return set(self._callees.get((module, function), ()))

    def neighborhood(
        self, module: str, function: str, depth: int = 3
    ) -> Set[Tuple[str, str]]:
        """Functions within ``depth`` call-graph hops, both directions.

        The undirected ball around a function: its callees, its
        callers, their callees, and so on.  R007 searches this set for
        width guards — a gate like ``key_bits + shift <= 32`` before
        packing uint32 words typically sits one hop *up* (in the caller
        that decides to take the fast path) and one or two hops
        *sideways* (a helper the caller consults).
        """
        start = (module, function.split(".")[0] if function else "")
        seen: Set[Tuple[str, str]] = {(module, function)}
        frontier: Set[Tuple[str, str]] = {(module, function), start}
        for _ in range(depth):
            grown: Set[Tuple[str, str]] = set()
            for mod, fn in frontier:
                grown |= self.callees_of(mod, fn)
                for site in self.callers_of(mod, fn):
                    grown.add((site.module, site.function))
            grown -= seen
            if not grown:
                break
            seen |= grown
            frontier = grown
        return seen
