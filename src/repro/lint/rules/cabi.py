"""R008 — C-ABI parity: cffi declarations, kernel source, buffers agree.

The native backend crosses the Python/C boundary three times per
simulated predictor, and nothing in that path is checked by any
compiler: the ``cdef`` string is parsed by cffi at runtime, the C
kernel is compiled separately, and every ``ffi.from_buffer("T[]",
arr)`` reinterprets a numpy array's bytes as whatever ``T`` claims.  A
drift between any two of the three — a parameter added to the ``.c``
file but not the cdef, a buffer declared ``int32_t[]`` over an int64
array, two same-typed buffers swapped — does not crash; it silently
reads the wrong bytes and corrupts results.

This rule checks all three surfaces against each other:

1. **cdef vs kernel source**: every function declared in a cdef-bearing
   string constant is matched against its definition in any sibling
   ``.c`` file — return type, arity, and each parameter's base type and
   pointer-ness must agree, in order.
2. **call-site arity**: every ``lib.<entry>(...)`` call must pass
   exactly as many arguments as the declaration has parameters.
3. **buffer types**: at each pointer parameter, a
   ``ffi.from_buffer("T[]", arr)`` argument's declared ``T`` must equal
   the parameter's base type, and the numpy dtype the dataflow lattice
   (:mod:`repro.lint.dataflow`) infers for ``arr`` must be
   byte-compatible with ``T``.  Dtypes for function parameters are
   seeded from *call sites* through the project index — that is how the
   bank-concatenated ``values`` array, built in ``simulate_native``,
   types the buffer passed inside ``run_table_kernel``.  A
   ``from_buffer`` result bound to a name is traced through its
   definitions (both branches of an if/else), and ``ffi.NULL``
   satisfies any pointer.

Unknown dtypes stay silent: the rule only reports when two *known*
facts disagree.  Suppress with ``# repro-lint: disable=R008``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.engine import FileContext, ProjectContext, Rule, Violation
from repro.lint.dataflow import FunctionDataflow
from repro.lint.rules._ast_util import dotted_name, walk_functions

__all__ = ["CAbiParityRule", "parse_c_declarations"]

#: numpy dtypes whose memory layout each C element type accepts
_C_COMPATIBLE = {
    "uint8_t": {"uint8", "bool"},
    "uint16_t": {"uint16"},
    "uint32_t": {"uint32"},
    "uint64_t": {"uint64"},
    "int8_t": {"int8"},
    "int16_t": {"int16"},
    "int32_t": {"int32"},
    "int64_t": {"int64"},
    "double": {"float"},
    "float": {"float"},
}

_C_TYPES = (
    r"void|u?int(?:8|16|32|64)_t|int|long|size_t|double|float|char|_Bool"
)

#: one declaration inside a cdef string: ``ret name(params);``
_C_DECL = re.compile(
    rf"\b(?P<ret>(?:{_C_TYPES})(?:\s*\*)?)\s+(?P<name>\w+)\s*"
    r"\((?P<params>[^)]*)\)",
    re.S,
)


@dataclass(frozen=True)
class CParam:
    base: str
    name: str
    pointer: bool


@dataclass(frozen=True)
class CSignature:
    name: str
    ret: str
    params: Tuple[CParam, ...]


def _parse_params(text: str) -> Tuple[CParam, ...]:
    text = text.strip()
    if not text or text == "void":
        return ()
    params: List[CParam] = []
    for raw in text.split(","):
        tokens = raw.replace("*", " * ").split()
        tokens = [
            t for t in tokens if t not in ("const", "restrict", "volatile")
        ]
        pointer = "*" in tokens
        tokens = [t for t in tokens if t != "*"]
        if not tokens:
            continue
        if len(tokens) > 1:
            base, name = " ".join(tokens[:-1]), tokens[-1]
        else:
            base, name = tokens[0], ""
        params.append(CParam(base, name, pointer))
    return tuple(params)


def parse_c_declarations(text: str) -> Dict[str, CSignature]:
    """Extract ``name -> signature`` from cdef text or C source."""
    signatures: Dict[str, CSignature] = {}
    for match in _C_DECL.finditer(text):
        name = match.group("name")
        if name in signatures:
            continue  # definition after prototype: keep the first
        signatures[name] = CSignature(
            name=name,
            ret=match.group("ret").replace(" ", ""),
            params=_parse_params(match.group("params")),
        )
    return signatures


def _cdef_strings(tree: ast.Module) -> List[ast.Constant]:
    """String constants that look like they declare C functions."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and ";" in node.value
            and _C_DECL.search(node.value)
        ):
            found.append(node)
    return found


def _from_buffer_parts(
    node: ast.expr,
) -> Optional[Tuple[str, Optional[ast.expr], ast.expr]]:
    """``(declared base type, array expr, anchor)`` of a from_buffer call."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "from_buffer"
        and node.args
    ):
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        declared = first.value.replace("[]", "").strip()
        array = node.args[1] if len(node.args) > 1 else None
        return declared, array, node
    # one-argument form carries no type claim to check
    return None


def _is_ffi_null(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "NULL"


class CAbiParityRule(Rule):
    """R008: the cdef, the C kernel, and every buffer must agree."""

    rule_id = "R008"
    name = "c-abi-parity"
    description = (
        "cffi cdef declarations must match the kernel source, and every "
        "from_buffer call site's declared C type must match both the "
        "parameter it fills and the numpy dtype flowing into it"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.rel_path.startswith("tests/")

    def check_file(
        self, ctx: FileContext, project: ProjectContext
    ) -> Iterator[Violation]:
        cdef_nodes = _cdef_strings(ctx.tree)
        if not cdef_nodes:
            return
        declared: Dict[str, CSignature] = {}
        for node in cdef_nodes:
            declared.update(parse_c_declarations(node.value))
        if not declared:
            return
        yield from self._check_kernel_parity(ctx, declared, cdef_nodes[0])
        yield from self._check_call_sites(ctx, project, declared)

    # -- cdef vs .c source ----------------------------------------------

    def _check_kernel_parity(
        self,
        ctx: FileContext,
        declared: Dict[str, CSignature],
        anchor: ast.Constant,
    ) -> Iterator[Violation]:
        kernel_signatures: Dict[str, CSignature] = {}
        for c_path in sorted(ctx.path.parent.glob("*.c")):
            try:
                kernel_signatures.update(
                    parse_c_declarations(c_path.read_text(encoding="utf-8"))
                )
            except OSError:
                continue
        for name, cdef_sig in sorted(declared.items()):
            kernel_sig = kernel_signatures.get(name)
            if kernel_sig is None:
                if kernel_signatures:
                    yield self.violation(
                        ctx,
                        anchor,
                        name,
                        f"cdef declares '{name}' but no sibling .c file "
                        "defines it",
                    )
                continue
            if cdef_sig.ret != kernel_sig.ret:
                yield self.violation(
                    ctx,
                    anchor,
                    name,
                    f"'{name}' returns {kernel_sig.ret} in the kernel but "
                    f"{cdef_sig.ret} in the cdef",
                )
            if len(cdef_sig.params) != len(kernel_sig.params):
                yield self.violation(
                    ctx,
                    anchor,
                    name,
                    f"'{name}' takes {len(kernel_sig.params)} parameters in "
                    f"the kernel but {len(cdef_sig.params)} in the cdef",
                )
                continue
            for position, (cdef_p, kernel_p) in enumerate(
                zip(cdef_sig.params, kernel_sig.params)
            ):
                if (cdef_p.base, cdef_p.pointer) != (
                    kernel_p.base,
                    kernel_p.pointer,
                ):
                    yield self.violation(
                        ctx,
                        anchor,
                        name,
                        f"'{name}' parameter {position} "
                        f"('{kernel_p.name or kernel_p.base}') is "
                        f"{kernel_p.base}{'*' if kernel_p.pointer else ''} in "
                        f"the kernel but "
                        f"{cdef_p.base}{'*' if cdef_p.pointer else ''} in the "
                        "cdef",
                    )

    # -- call sites ------------------------------------------------------

    def _check_call_sites(
        self,
        ctx: FileContext,
        project: ProjectContext,
        declared: Dict[str, CSignature],
    ) -> Iterator[Violation]:
        index = project.index()
        info = index.module_for_path(ctx.rel_path)
        imports = info.imports if info else {}
        for qualname, fn in walk_functions(ctx.tree):
            calls = [
                node
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in declared
            ]
            if not calls:
                continue
            seeds = self._seed_param_dtypes(index, info, qualname, fn)
            flow = FunctionDataflow(fn, imports=imports, param_dtypes=seeds)
            for call in calls:
                signature = declared[call.func.attr]
                yield from self._check_one_call(
                    ctx, flow, qualname, call, signature
                )

    def _seed_param_dtypes(
        self, index, info, qualname: str, fn: ast.FunctionDef
    ) -> Dict[str, str]:
        """Infer parameter dtypes from every resolved caller's arguments."""
        if info is None or "." in qualname:
            return {}
        names = [a.arg for a in fn.args.args]
        seeded: Dict[str, str] = {}
        flows: Dict[Tuple[str, str], FunctionDataflow] = {}
        for site in index.callers_of(info.name, qualname):
            caller_info = index.module(site.module)
            caller_fn = (
                caller_info.functions.get(site.function)
                if caller_info and site.function
                else None
            )
            if caller_fn is None:
                continue
            key = (site.module, site.function)
            if key not in flows:
                flows[key] = FunctionDataflow(
                    caller_fn, imports=caller_info.imports
                )
            caller_flow = flows[key]
            bound: Dict[str, ast.expr] = {}
            for position, arg in enumerate(site.call.args):
                if position < len(names):
                    bound[names[position]] = arg
            for keyword in site.call.keywords:
                if keyword.arg:
                    bound[keyword.arg] = keyword.value
            for name, arg in bound.items():
                dtype = caller_flow.value_of(arg).dtype
                if dtype == "unknown":
                    continue
                previous = seeded.get(name)
                if previous is None:
                    seeded[name] = dtype
                elif previous != dtype:
                    seeded[name] = "unknown"
        return {k: v for k, v in seeded.items() if v != "unknown"}

    def _check_one_call(
        self,
        ctx: FileContext,
        flow: FunctionDataflow,
        qualname: str,
        call: ast.Call,
        signature: CSignature,
    ) -> Iterator[Violation]:
        if len(call.args) != len(signature.params):
            yield self.violation(
                ctx,
                call,
                qualname,
                f"'{signature.name}' takes {len(signature.params)} "
                f"arguments but this call passes {len(call.args)}",
            )
            return
        for position, (arg, param) in enumerate(
            zip(call.args, signature.params)
        ):
            yield from self._check_argument(
                ctx, flow, qualname, signature, position, arg, param
            )

    def _check_argument(
        self,
        ctx: FileContext,
        flow: FunctionDataflow,
        qualname: str,
        signature: CSignature,
        position: int,
        arg: ast.expr,
        param: CParam,
    ) -> Iterator[Violation]:
        label = param.name or f"parameter {position}"
        buffers: List[Tuple[str, Optional[ast.expr], ast.expr]] = []
        direct = _from_buffer_parts(arg)
        if direct is not None:
            buffers.append(direct)
        elif isinstance(arg, ast.Name):
            for definition in flow.definitions.get(arg.id, ()):
                if _is_ffi_null(definition):
                    continue
                parts = _from_buffer_parts(definition)
                if parts is not None:
                    buffers.append(parts)
        elif _is_ffi_null(arg):
            return
        if not param.pointer:
            if buffers or _is_ffi_null(arg):
                yield self.violation(
                    ctx,
                    arg,
                    qualname,
                    f"'{signature.name}' {label} is a scalar "
                    f"{param.base} but this call passes a buffer; the "
                    "argument order is off",
                )
            return
        for declared_type, array, anchor in buffers:
            if declared_type != param.base:
                yield self.violation(
                    ctx,
                    anchor,
                    qualname,
                    f"'{signature.name}' {label} is {param.base}* but the "
                    f"buffer is declared '{declared_type}[]'",
                )
                continue
            if array is None:
                continue
            dtype = flow.value_of(array).dtype
            compatible = _C_COMPATIBLE.get(param.base)
            if (
                dtype != "unknown"
                and compatible is not None
                and dtype not in compatible
            ):
                yield self.violation(
                    ctx,
                    anchor,
                    qualname,
                    f"'{signature.name}' {label} reinterprets a {dtype} "
                    f"array as {param.base}[]; element sizes differ, the "
                    "kernel will read the wrong bytes",
                )
