"""Purity contracts for engine chunk tasks.

A chunk task (:data:`repro.labeling.engine.executors.ChunkTask`) runs on
worker threads/processes with a shared ``payload`` — the LF suite or its
compiled plan, a fitted featurizer, or the fused wrapper's tuple of a label
task, its payload and the featurizer.  The engine's determinism guarantee
("results are bit-identical across backends") rests on tasks being *pure in the
payload*: a task may read the payload and the candidate chunk but must not
write to either, because under the threads backend those writes race and
under the processes backend each worker mutates its own copy and results
silently diverge from the sequential backend.  (A write that no output can
depend on and that does not touch the payload — the featurizer kernel's
process-wide hash tables, see :mod:`repro.labeling.engine.tasks` — is
outside that contract, and outside what either check below can see.)

:func:`check_task` verifies that contract statically over a task function's
AST (``EN001`` payload mutation, ``EN002`` fitted-featurizer writes,
``EN003`` global/closure mutation), and
:class:`repro.analysis.runtime.PurityCheckedTask` is the debug-mode runtime
shim that cross-checks the verdict dynamically by fingerprinting the payload
around every chunk.
"""

from __future__ import annotations

import ast
from typing import Callable

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, LFAnalysisResult, make_diagnostic
from repro.analysis.lint import MUTATING_METHODS, FunctionScope, root_name
from repro.labeling.source import extract_source, is_unresolved

#: Parameter-name fragments identifying the fitted-featurizer part of a
#: payload (writes to it get the more specific ``EN002``).
_FEATURIZER_HINTS = ("featurizer", "vectorizer")

#: Method calls on the payload that are reads with internal validation, not
#: state writes.
_ALLOWED_PAYLOAD_CALLS = {"require_fitted", "chunk_triples", "transform", "get", "items"}


class _TaskContractVisitor(ast.NodeVisitor):
    def __init__(self, scope: FunctionScope, task_name: str) -> None:
        self.scope = scope
        self.task_name = task_name
        self.diagnostics: list[Diagnostic] = []
        # Every parameter except the bookkeeping scalars is contract-guarded:
        # the payload (first param) and the candidates chunk (last param).
        params = scope.params
        excluded = ("fault_tolerant", "index", "start_row")
        self.guarded = {name for name in params if name not in excluded}

    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        diagnostic = make_diagnostic(
            code, message, lf_name=self.task_name, lineno=getattr(node, "lineno", None)
        )
        if diagnostic not in self.diagnostics:
            self.diagnostics.append(diagnostic)

    def _code_for(self, name: str) -> str:
        if any(hint in name.lower() for hint in _FEATURIZER_HINTS):
            return "EN002"
        return "EN001"

    def _check_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.scope.global_decls:
                self._emit("EN003", f"assignment to global {target.id!r}", target)
            elif target.id in self.scope.nonlocal_decls:
                self._emit("EN003", f"assignment to nonlocal {target.id!r}", target)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            name = root_name(target)
            if name is None:
                return
            if name in self.guarded:
                kind = "attribute" if isinstance(target, ast.Attribute) else "item"
                self._emit(
                    self._code_for(name),
                    f"{kind} store into task parameter {name!r}; chunk tasks "
                    "must treat the payload and candidates as read-only",
                    target,
                )
            elif self.scope.kind(name) in ("free", "global"):
                value = self.scope.info.resolve_name(name)
                if (
                    not is_unresolved(value)
                    and type(value).__name__ != "module"
                    and not callable(value)
                ):
                    self._emit("EN003", f"store into shared object {name!r}", target)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            name = root_name(func.value)
            if name is not None and name in self.guarded:
                self._emit(
                    self._code_for(name),
                    f".{func.attr}() mutates task parameter {name!r}",
                    node,
                )
        self.generic_visit(node)


def check_task(task: Callable) -> LFAnalysisResult:
    """Statically verify one chunk task against the purity contract."""
    info = extract_source(task)
    name = getattr(task, "__name__", repr(task))
    result = LFAnalysisResult(lf_name=name, source_available=info.tree is not None)
    if info.tree is None:
        result.diagnostics.append(
            make_diagnostic(
                "LF001" if info.failure == "unavailable" else "LF002",
                "task source unavailable; purity contract not statically checkable",
                lf_name=name,
            )
        )
        return result
    scope = FunctionScope(info)
    visitor = _TaskContractVisitor(scope, name)
    visitor.visit(info.tree)
    result.diagnostics.extend(visitor.diagnostics)
    return result


def check_engine_tasks() -> AnalysisReport:
    """Check every built-in engine chunk task; used by CI's self-lint.

    That is the two label tasks (interpreted ``apply_chunk`` and the compiled
    tier's ``label_chunk_pushdown``, the default), ``featurize_chunk`` and
    the fused wrapper that runs a label task plus the featurizer.
    :func:`~repro.labeling.engine.runtime.run_attached_chunk` is included
    because it is the persistent worker pool's dispatch kernel: every task
    a worker executes flows through it with the attached spec as payload,
    so it must honor the same read-only contract as the tasks it wraps.
    """
    from repro.labeling.engine.accumulator import apply_chunk
    from repro.labeling.engine.runtime import run_attached_chunk
    from repro.labeling.engine.tasks import featurize_chunk, label_and_featurize_chunk
    from repro.labeling.pushdown.task import label_chunk_pushdown

    report = AnalysisReport()
    for task in (
        apply_chunk,
        label_chunk_pushdown,
        featurize_chunk,
        label_and_featurize_chunk,
        run_attached_chunk,
    ):
        report.results.append(check_task(task))
    return report
