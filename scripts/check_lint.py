"""Offline approximation of the enforced ruff rules (see ruff.toml).

CI runs real ruff; development containers without it can run

    python scripts/check_lint.py

to catch the same violation classes with only the stdlib:

* ``E501``  — lines longer than 100 characters;
* ``W291``/``W293`` — trailing whitespace;
* ``W292`` — missing newline at end of file;
* ``F401`` — module-level imports never used (``__all__`` re-exports count
  as uses, as do names referenced anywhere in the module body);
* ``I00x`` — import sections out of order (stdlib → third-party → repro)
  or unsorted modules within a section, over the leading import block.

Exit status is 1 when any violation is found.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

LINE_LIMIT = 100
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
FIRST_PARTY = {"repro"}
THIRD_PARTY = {"numpy", "scipy", "pytest", "hypothesis", "np"}

REPO = Path(__file__).resolve().parent.parent
TARGETS = ["src", "tests", "benchmarks", "examples", "scripts", "conftest.py", "setup.py"]


def _stdlib_names() -> set[str]:
    names = set(sys.stdlib_module_names)
    names.add("__future__")
    return names


STDLIB = _stdlib_names()


def iter_files() -> list[Path]:
    files: list[Path] = []
    for target in TARGETS:
        path = REPO / target
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
    return files


def section_of(module: str) -> int:
    root = module.split(".")[0]
    if root == "__future__":
        return 0
    if root in STDLIB:
        return 1
    if root in FIRST_PARTY:
        return 3
    return 2


def check_line_rules(path: Path, text: str, problems: list[str]) -> None:
    lines = text.split("\n")
    for number, line in enumerate(lines, start=1):
        if len(line) > LINE_LIMIT:
            problems.append(f"{path}:{number}: E501 line too long ({len(line)} > {LINE_LIMIT})")
        if line != line.rstrip():
            code = "W293" if not line.strip() else "W291"
            problems.append(f"{path}:{number}: {code} trailing whitespace")
    if text and not text.endswith("\n"):
        problems.append(f"{path}:{len(lines)}: W292 no newline at end of file")


def _imported_bindings(node: ast.stmt) -> list[tuple[str, str]]:
    """(bound name, module) pairs a top-level import statement introduces."""
    out: list[tuple[str, str]] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            out.append((bound, alias.name))
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module == "__future__":
            return out  # __future__ imports are compiler directives, never "unused"
        for alias in node.names:
            if alias.name == "*":
                continue
            out.append((alias.asname or alias.name, module))
    return out


def check_unused_imports(path: Path, tree: ast.Module, problems: list[str]) -> None:
    imports: dict[str, tuple[int, str]] = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for bound, _module in _imported_bindings(node):
                imports.setdefault(bound, (node.lineno, bound))
    if not imports:
        return
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # "module.attr" marks "module" used via the Name node already.
            continue
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # __all__ entries, string annotations ("ChunkResult | None"), and
            # doctest-style references count as uses; take every identifier
            # token the string contains, as ruff parses string annotations.
            used.update(_IDENTIFIER.findall(node.value))
    for bound, (lineno, name) in sorted(imports.items(), key=lambda kv: kv[1][0]):
        if bound not in used:
            problems.append(f"{path}:{lineno}: F401 {name!r} imported but unused")


def check_import_order(path: Path, tree: ast.Module, problems: list[str]) -> None:
    """Check the leading import block: sections ordered, modules sorted.

    Within a section isort places straight ``import x`` statements before
    ``from x import y`` statements, each run alphabetized (ruff's default
    ``force-sort-within-sections = false``).
    """
    entries: list[tuple[tuple[int, int, str], str, int]] = []  # (key, module, lineno)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.level:
                continue  # relative imports: out of scope for the approximation
            is_from = int(isinstance(node, ast.ImportFrom))
            module = (
                node.names[0].name if isinstance(node, ast.Import) else (node.module or "")
            )
            key = (section_of(module), is_from, module.lower())
            entries.append((key, module, node.lineno))
        elif isinstance(node, (ast.Expr, ast.If)):
            continue  # docstring / TYPE_CHECKING blocks may interleave
        elif entries:
            break  # first non-import statement ends the leading block
    for previous, current in zip(entries, entries[1:]):
        if current[0] < previous[0]:
            problems.append(
                f"{path}:{current[2]}: I001 imports not sorted "
                f"({current[1]!r} after {previous[1]!r})"
            )


def _member_key(name: str) -> tuple[int, str]:
    """isort's default ``order-by-type``: constants, then classes, then rest."""
    if name.isupper():
        kind = 0
    elif name[:1].isupper():
        kind = 1
    else:
        kind = 2
    return (kind, name.lower())


def check_member_order(path: Path, tree: ast.Module, problems: list[str]) -> None:
    """Names inside one ``from x import a, b, c`` must be member-sorted."""
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
            continue
        names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        ordered = sorted(names, key=_member_key)
        if names != ordered:
            problems.append(
                f"{path}:{node.lineno}: I001 from-import members not sorted "
                f"(expected {', '.join(ordered)})"
            )


def main() -> int:
    problems: list[str] = []
    files = iter_files()
    for path in files:
        text = path.read_text()
        check_line_rules(path, text, problems)
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            problems.append(f"{path}:{exc.lineno}: E999 syntax error: {exc.msg}")
            continue
        check_unused_imports(path, tree, problems)
        check_import_order(path, tree, problems)
        check_member_order(path, tree, problems)
    for problem in problems:
        print(problem)
    print(f"{len(files)} files checked, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
