"""R003 — the experiment/CLI contract for figure and table modules.

Every ``experiments/figure*.py`` / ``table*.py`` module is one cell of
the paper-reproduction matrix, and the runner, the sweep fan-out and
the full-experiments harness all address them uniformly.  The contract:

- the module defines a top-level ``run(...)``;
- ``run`` accepts a ``jobs`` keyword (defaulted), so ``repro-experiments
  --jobs N`` reaches every experiment — modules without a sweep accept
  and ignore it;
- the module is registered in ``runner.py``'s ``EXPERIMENTS`` table
  (an unregistered figure silently falls out of ``all``);
- every call to a jobs-aware sweep helper (``sweep_specs``,
  ``size_sweep``, ``history_sweep``, ``simulate_specs``, ``run_cells``)
  passes ``jobs=`` — a sweep that drops ``jobs`` silently serialises
  the whole experiment.

One clause covers *every* module under ``experiments/``: none imports
or calls the generic interpreter ``repro.sim.engine.simulate``.
``repro.sim.vectorized.simulate_fast`` returns the same result and
falls back to that interpreter by itself for the families no fast tier
expresses, so a direct call only skips the fast tiers.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Set

from repro.lint.engine import FileContext, ProjectContext, Rule, Violation
from repro.lint.rules._ast_util import (
    dotted_name,
    import_aliases,
    resolve_call_target,
)

__all__ = ["ExperimentContractRule"]

_EXPERIMENT = re.compile(r"experiments/[^/]*\.py$")
_TARGET = re.compile(r"experiments/(figure|table)[^/]*\.py$")

#: The generic interpreter experiments reach only through simulate_fast.
_GENERIC_ENGINE = "repro.sim.engine.simulate"

#: Sweep helpers that accept (and should be handed) ``jobs``.
_JOBS_AWARE = frozenset(
    {"sweep_specs", "size_sweep", "history_sweep", "simulate_specs", "run_cells"}
)


def _registered_modules(project: ProjectContext, runner_path) -> Optional[Set[str]]:
    """Module names registered in runner.py's EXPERIMENTS dict."""
    tree = project.parse(runner_path)
    if tree is None:
        return None
    registered: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "EXPERIMENTS" for t in targets
        ):
            continue
        if not isinstance(node.value, ast.Dict):
            continue
        for value in node.value.values:
            elements = (
                value.elts if isinstance(value, ast.Tuple) else [value]
            )
            for element in elements:
                name = dotted_name(element)
                if name:
                    registered.add(name.split(".")[-1])
    return registered


def _generic_engine_uses(tree: ast.Module) -> Iterator[ast.AST]:
    """Imports of, and attribute calls to, the generic ``simulate``."""
    aliases = import_aliases(tree)
    module, _, name = _GENERIC_ENGINE.rpartition(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == module and any(a.name == name for a in node.names):
                yield node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # A bare-name call is covered by its import above.
            if _GENERIC_ENGINE in (
                dotted_name(node.func),
                resolve_call_target(node, aliases),
            ):
                yield node


class ExperimentContractRule(Rule):
    """R003: enforce the figure/table module contract (module doc)."""

    rule_id = "R003"
    name = "experiment-contract"
    description = (
        "figure/table modules expose run(..., jobs=...), register in "
        "runner.py, and thread jobs into sweep calls; no experiment "
        "module calls the generic engine directly"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return _EXPERIMENT.search(ctx.rel_path) is not None

    def check_file(
        self, ctx: FileContext, project: ProjectContext
    ) -> Iterator[Violation]:
        module_name = ctx.path.stem
        for node in _generic_engine_uses(ctx.tree):
            yield self.violation(
                ctx,
                node,
                module_name,
                f"experiment uses {_GENERIC_ENGINE} directly; call "
                "repro.sim.vectorized.simulate_fast, which gives the same "
                "result and falls back to the generic engine by itself",
            )
        if _TARGET.search(ctx.rel_path) is None:
            return

        run_fn: Optional[ast.FunctionDef] = None
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "run":
                run_fn = node
                break

        if run_fn is None:
            yield self.violation(
                ctx,
                ctx.tree.body[0] if ctx.tree.body else ctx.tree,
                module_name,
                "experiment module defines no top-level run()",
            )
        else:
            args = run_fn.args
            named = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            if "jobs" not in named and args.kwarg is None:
                yield self.violation(
                    ctx,
                    run_fn,
                    f"{module_name}.run",
                    "run() does not accept a 'jobs' keyword; every "
                    "figure/table experiment must expose "
                    "run(..., jobs=...)",
                )
            else:
                # A 'jobs' without a default breaks positional callers.
                positional = args.posonlyargs + args.args
                defaults_start = len(positional) - len(args.defaults)
                undefaulted = {
                    a.arg for a in positional[:defaults_start]
                } | {
                    kw.arg
                    for kw, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is None
                }
                if "jobs" in undefaulted:
                    yield self.violation(
                        ctx,
                        run_fn,
                        f"{module_name}.run",
                        "run()'s 'jobs' parameter must carry a default "
                        "(None) so serial callers stay unchanged",
                    )

        registered = _registered_modules(
            project, ctx.path.parent / "runner.py"
        )
        if registered is not None and module_name not in registered:
            yield self.violation(
                ctx,
                ctx.tree,
                module_name,
                f"module '{module_name}' is not registered in runner.py's "
                "EXPERIMENTS table",
            )

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            short = callee.split(".")[-1]
            if short in _JOBS_AWARE:
                if not any(kw.arg == "jobs" for kw in node.keywords):
                    yield self.violation(
                        ctx,
                        node,
                        module_name,
                        f"call to {short}() does not pass jobs=...; the "
                        "experiment's jobs setting is silently dropped",
                    )
