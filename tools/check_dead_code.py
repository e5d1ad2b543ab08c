#!/usr/bin/env python3
"""Fail on functions, classes and methods in ``src/repro`` that nothing names.

A definition is dead when its name occurs nowhere in the scanned tree except
where it is defined.  The scan reads every word of the ``.py`` and ``.md``
files under ``src/``, ``tests/``, ``tools/``, ``perfbench/``,
``benchmarks/``, ``examples/`` and ``docs/``, and ``README.md``, so a call, an
attribute access, a ``getattr`` string, a monkeypatch target and a mention in
the docs all count as uses.  Three kinds of occurrence do not count:

* the definitions themselves (``def name`` / ``class name`` in ``src/repro``);
* the strings listed in a module's ``__all__``;
* the names a ``from ... import`` statement imports (a re-export is not a use).

Dunder methods are called by the runtime and are never reported; framework
callbacks that only the standard library calls go on :data:`ALLOWLIST`, each
with its reason.  ruff's F rules catch unused imports and locals, not unused
methods; this check covers the rest.

Usage::

    python tools/check_dead_code.py            # from the repo root
    python tools/check_dead_code.py --root PATH

Exits 0 when every definition is named somewhere, 1 otherwise (listing each
dead definition as ``file:line: kind name``).  Used by the CI ``lint`` job and
by ``tests/tools/test_check_dead_code.py``; stdlib-only on purpose.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: Where definitions are checked.
DEFINITIONS = "src/repro"

#: Where occurrences are counted (directories recursively, plus files).
SCANNED = ("src", "tests", "tools", "perfbench", "benchmarks", "examples", "docs", "README.md")

#: Definitions nothing in the tree names, kept on purpose: name -> reason.
ALLOWLIST: Dict[str, str] = {
    "do_GET": "HTTP framework callback: http.server dispatches GET requests to it",
    "do_POST": "HTTP framework callback: http.server dispatches POST requests to it",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def scanned_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` and ``.md`` file the occurrence count reads."""
    for entry in SCANNED:
        path = root / entry
        if path.is_file():
            yield path
        elif path.is_dir():
            for suffix in ("*.py", "*.md"):
                yield from sorted(path.rglob(suffix))


def _not_uses(tree: ast.AST) -> Iterator[str]:
    """Names in ``__all__`` strings and ``from ... import`` statements."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                for item in ast.walk(node.value):
                    if isinstance(item, ast.Constant) and isinstance(item.value, str):
                        yield item.value


def definitions(root: Path) -> List[Tuple[str, int, str, str]]:
    """``(path, line, kind, name)`` of every function, class and method."""
    found = []
    for path in sorted((root / DEFINITIONS).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                kind = "class"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kind = "def"
            else:
                continue
            found.append((str(path.relative_to(root)), node.lineno, kind, node.name))
    return sorted(found)


def occurrences(root: Path) -> Counter:
    """Word counts over the scanned tree, less the occurrences that are not uses."""
    counts: Counter = Counter()
    for path in scanned_files(root):
        text = path.read_text(encoding="utf-8", errors="replace")
        counts.update(_WORD.findall(text))
        if path.suffix == ".py":
            try:
                tree = ast.parse(text, filename=str(path))
            except SyntaxError:
                continue
            counts.subtract(_not_uses(tree))
    return counts


def dead_definitions(root: Path) -> List[str]:
    """``file:line: kind name`` for each definition nothing else names."""
    found = definitions(root)
    counts = occurrences(root)
    counts.subtract(name for _path, _line, _kind, name in found)
    return [
        f"{path}:{line}: {kind} {name}"
        for path, line, kind, name in found
        if counts[name] <= 0
        and name not in ALLOWLIST
        and not (name.startswith("__") and name.endswith("__"))
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="repository root (default: this script's repository)")
    args = parser.parse_args(argv)
    dead = dead_definitions(args.root)
    for line in dead:
        print(line)
    if dead:
        print(f"{len(dead)} definition(s) in {DEFINITIONS} are named nowhere else; "
              f"delete them or add them to ALLOWLIST with a reason", file=sys.stderr)
        return 1
    print(f"no dead definitions in {DEFINITIONS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
