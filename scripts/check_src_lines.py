#!/usr/bin/env python
"""The ``src/`` line ratchet: code lines may only go down.

    python scripts/check_src_lines.py [PARENT_SRC]

Counts the code lines of ``src/repro`` (no blank lines, comments or
docstrings) per package, prints them beside ``PARENT_SRC``'s when given, and
exits 1 unless the total equals :data:`CEILING`.  A change above the ceiling
must delete before it adds; a change below it lowers :data:`CEILING` to its
own count in the same commit, so the ceiling only ever goes down.
"""

from __future__ import annotations

import ast
import collections
import io
import pathlib
import sys
import tokenize

#: Code lines of ``src/repro`` at the last change; lower it, never raise it.
CEILING = 11_946

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Lines holding a token that is neither a comment nor part of a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docstrings.update(range(value.lineno, value.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def count(src: str) -> collections.Counter:
    root = pathlib.Path(src, "repro")
    lines: collections.Counter = collections.Counter()
    for path in root.rglob("*.py"):
        parts = path.relative_to(root).parts
        lines[parts[0] if len(parts) > 1 else "(top level)"] += code_lines(path.read_text())
    return lines


def main(argv: list) -> int:
    change = count(pathlib.Path(__file__).resolve().parents[1] / "src")
    parent = count(argv[0]) if argv else change
    print(f"{'package':16s} {'parent':>8s} {'change':>8s} {'delta':>7s}")
    for package in sorted(parent.keys() | change.keys()):
        before, after = parent[package], change[package]
        print(f"{package:16s} {before:8d} {after:8d} {after - before:+7d}")
    before, after = sum(parent.values()), sum(change.values())
    print(f"{'src/':16s} {before:8d} {after:8d} {after - before:+7d}  (ceiling {CEILING})")
    if after > CEILING:
        print(f"src/ has {after} code lines, above the ceiling of {CEILING}: delete before adding")
        return 1
    if after < CEILING:
        print(f"src/ has {after} code lines: lower CEILING in {__file__} to {after}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
