"""The standalone LF linter: ``python -m repro.analysis <module_or_path>``.

Each target is either an importable module name
(``repro.datasets.lf_library``) or a path to a Python file
(``examples/quickstart.py``).  LFs are collected from the imported module:

* module-level :class:`~repro.labeling.lf.LabelingFunction` instances
  (including decorator-produced ones),
* module-level lists/tuples of them,
* a ``LINT_LFS`` hook — a sequence of LFs, or a zero-argument callable
  returning one — for modules whose LFs are built by parameterized
  factories (the library's own ``lf_library`` exposes a representative
  suite this way).  When present the hook is authoritative: module-level
  instances are NOT collected in addition, so a module can keep
  deliberately broken demonstration LFs out of its linted suite.

Exit status is 1 when any ERROR-severity diagnostic is found, so the CI
self-lint job fails the build on a regression in our own LFs.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path
from typing import Iterable, List, Sequence

from repro.analysis import AnalysisReport, analyze_suite
from repro.labeling.lf import LabelingFunction


def load_target(target: str):
    """Import a module by dotted name or file path."""
    path = Path(target)
    if path.suffix == ".py" and path.exists():
        module_name = f"_repro_lint_{path.stem}"
        spec = importlib.util.spec_from_file_location(module_name, path)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot load {target!r}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
        return module
    return importlib.import_module(target)


def collect_lfs(module) -> List[LabelingFunction]:
    """Gather the LFs a module exposes for linting (see module docstring)."""
    collected: list[LabelingFunction] = []
    seen: set[int] = set()

    def add(candidates: Iterable) -> None:
        for lf in candidates:
            if isinstance(lf, LabelingFunction) and id(lf) not in seen:
                seen.add(id(lf))
                collected.append(lf)

    hook = getattr(module, "LINT_LFS", None)
    if callable(hook):
        add(hook())
        return collected
    if isinstance(hook, (list, tuple)):
        add(hook)
        return collected
    for name in sorted(vars(module)):
        value = vars(module)[name]
        if isinstance(value, LabelingFunction):
            add([value])
        elif isinstance(value, (list, tuple)) and value:
            add(value)
    return collected


def lint_targets(targets: Sequence[str]) -> tuple[AnalysisReport, list[str]]:
    """Analyze every target; returns (one report over all, per-target summaries)."""
    merged = AnalysisReport()
    summaries = []
    for target in targets:
        lfs = collect_lfs(load_target(target))
        report = analyze_suite(lfs)
        merged.results.extend(report.results)
        summaries.append(f"{target}: {len(lfs)} LF(s), {report.compilable_count} compilable")
    return merged, summaries


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically lint labeling-function modules.",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help="module names (repro.datasets.lf_library) or .py file paths",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print every LF's pushdown verdict, not only the diagnosed ones",
    )
    args = parser.parse_args(argv)

    report, summaries = lint_targets(args.targets)
    for summary in summaries:
        print(summary)
    print()
    print(report.format(verbose=args.verbose))
    if report.errors:
        print(f"\nFAILED: {len(report.errors)} diagnostic(s) at error severity")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
