#!/usr/bin/env python
"""List the functions of ``src/`` that no served path reaches.

    python scripts/list_unreached.py [--tests]

Runs, in this process and under one ``sys.settrace`` collector (a ``call``
event per Python frame, no line events):

* the four e2e workloads of ``benchmarks/e2e/workloads.py``: set-up, the
  op, the traced op and the per-layer probes, on the inputs of seed 0
  (``generate``, the load generator and oracle, runs untraced);
* every example's ``main()`` under ``examples/``;
* every ``repro.experiments.EXPERIMENTS`` driver at its defaults;
* the CI self-lint (``python -m repro.analysis`` over the library and the
  examples).

Imports count: the collector starts before ``repro`` is imported.  It then
prints every function and method defined under ``src/repro`` that none of
these reached, as ``path:line qualname``.  With ``--tests`` it also runs
tier-1 (``pytest`` from the repository root) in a child process under its
own collector, and marks each unreached function ``tier-1`` when a test
reaches it, ``-`` when nothing does.

``sys.settrace`` (and ``threading.settrace``, for the threads backend) is
used rather than ``sys.setprofile`` because the tests' ``cProfile`` call
counts replace the profile hook.  A trace hook does not cross a process
boundary: code that runs only in pool workers (``backend="processes"``) or
in the children the crash checks and the e2e smoke tests spawn and kill
reads as unreached here, and so does an abstract method whose body is only
its docstring.  This is a report, not a gate: read a listed function as a
candidate for deletion, then confirm with ``grep``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import os
import pathlib
import pickle
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
E2E = ROOT / "benchmarks" / "e2e"
LINT_TARGETS = ["repro.datasets.lf_library"] + [
    f"examples/{name}"
    for name in (
        "quickstart.py", "cdr_relation_extraction.py", "crowdsourcing_sentiment.py",
        "crossmodal_radiology.py", "streaming_pipeline.py", "resumable_pipeline.py",
        "lf_linting.py", "pushdown_labeling.py", "online_label_model.py",
    )
]


def _key(code: types.CodeType) -> tuple:
    return (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname)


def defined_functions() -> dict:
    """``key -> (relative path, line, qualname)`` of every named function in ``src/repro``."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
            # Functions only: no module or class bodies, lambdas or comprehensions.
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                found[_key(code)] = (path.relative_to(ROOT), code.co_firstlineno, code.co_qualname)
    return found


@contextlib.contextmanager
def collecting(reached: set):
    """Add the code object of every Python frame entered to ``reached``."""

    def trace(frame, event, arg):
        reached.add(frame.f_code)

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


def _quietly(call, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return call(*args)


def served_paths(reached: set) -> None:
    sys.path.insert(0, str(E2E))
    with collecting(reached):
        from spans import Tracer
        from workloads import WORKLOADS

        from repro.analysis.cli import main as lint_main
        from repro.experiments import EXPERIMENTS
        from repro.labeling.engine.runtime import shutdown_pools

    scratch = tempfile.mkdtemp(prefix="unreached-")
    try:
        for name, workload in WORKLOADS.items():
            inputs = workload.generate(0, False)
            print(f"workload {name}", file=sys.stderr)
            with collecting(reached):
                state = workload.setup(inputs, tempfile.mkdtemp(dir=scratch))
                workload.op(state)
                tracer = Tracer()
                with tracer.op(name):
                    workload.traced_op(state, tracer)
                workload.probe_layers(state, tracer, {}, scratch)
        with collecting(reached):
            for example in sorted((ROOT / "examples").glob("*.py")):
                print(f"example {example.name}", file=sys.stderr)
                _quietly(runpy.run_path, str(example), None, "__main__")
            for spec in EXPERIMENTS:
                print(f"driver {spec.driver}", file=sys.stderr)
                module, _, function = spec.driver.rpartition(".")
                _quietly(getattr(importlib.import_module(module), function))
            print("self-lint", file=sys.stderr)
            _quietly(lint_main, LINT_TARGETS)
    finally:
        shutdown_pools()
        shutil.rmtree(scratch, ignore_errors=True)


def tier_one(out: str) -> None:
    """Run tier-1 under a collector; pickle the keys it reached to ``out``."""
    import pytest

    reached: set = set()
    with collecting(reached):
        _quietly(pytest.main, ["-q", "-p", "no:cacheprovider", str(ROOT)])
    with open(out, "wb") as handle:
        pickle.dump(set(map(_key, reached)), handle)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true", help="also mark what tier-1 reaches")
    parser.add_argument("--tier-one-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.tier_one_into:
        tier_one(args.tier_one_into)
        return 0
    tested_keys: set = set()
    if args.tests:
        print("tier-1", file=sys.stderr)
        with tempfile.TemporaryDirectory() as temp:
            out = os.path.join(temp, "tier1.pickle")
            subprocess.run([sys.executable, __file__, "--tier-one-into", out], check=True)
            with open(out, "rb") as handle:
                tested_keys = pickle.load(handle)
    served: set = set()
    served_paths(served)
    defined = defined_functions()
    unreached = defined.keys() - set(map(_key, served))
    for key in sorted(unreached, key=lambda key: defined[key][:2]):
        path, line, qualname = defined[key]
        mark = ("tier-1" if key in tested_keys else "-") if args.tests else ""
        print(f"{path}:{line} {qualname} {mark}".rstrip())
    print(f"{len(unreached)} of {len(defined)} functions unreached by the served paths")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
