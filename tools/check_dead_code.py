#!/usr/bin/env python3
"""Fail on functions, classes and methods in ``src/repro`` that no code calls.

A definition is dead when no program code names it.  The check parses every
``.py`` file under ``src/``, ``tools/``, ``perfbench/``, ``benchmarks/`` and
``examples/`` and counts three kinds of node as uses:

* a name (``foo``, ``Foo(...)``);
* an attribute (``obj.foo``);
* a string constant that is exactly an identifier, so a ``getattr`` string
  and a ``mock.patch`` target still count.

A method (a ``def`` directly in a class body) is only ever called through an
object, so only the last two count for it: a local variable or a module
function that shares a method's name does not keep the method alive.  A
use inside a definition of the same name does not count either: recursion,
a ``-> "Packet"`` annotation in ``Packet``'s body or a property that reads
a field of its own name cannot keep a definition alive.  Decorators and
base classes are outside the definition they decorate or derive.

Everything else is not a use: ``tests/``, ``docs/`` and the README, comments,
docstrings, the strings listed in a module's ``__all__`` and the names a
``from ... import`` statement imports (a re-export is not a use).  So a
definition that only a test or a page of prose names is reported too.

Dunder methods are called by the runtime and are never reported.  A
definition nothing calls that is kept on purpose goes on :data:`ALLOWLIST`
with its reason, which starts with one of the three :data:`REASON_KINDS`:
it resets process state for tests; it is a read-only view that hides an
internal encoding and that the equivalence matrix or a reference-model test
reads; or a framework calls it.  ruff's F rules catch unused imports and
locals, not unused methods; this check covers the rest.

Usage::

    python tools/check_dead_code.py            # from the repo root
    python tools/check_dead_code.py --root PATH

Exits 0 when every definition has a caller, 1 otherwise (listing each dead
definition as ``file:line: kind name``).  Used by the CI ``lint`` job and by
``tests/tools/test_check_dead_code.py``; stdlib-only on purpose.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

#: Where definitions are checked.
DEFINITIONS = "src/repro"

#: The code whose uses count (directories, scanned recursively for ``.py``).
SCANNED = ("src", "tools", "perfbench", "benchmarks", "examples")

#: The kinds of reason that keep a definition no code calls.
REASON_KINDS = (
    "resets process state for tests",
    "read-only view of an internal encoding",
    "framework callback",
)

#: Definitions no code calls, kept on purpose: name -> "kind: reason".
ALLOWLIST: Dict[str, str] = {
    "clear_memo": "resets process state for tests: empties EngineContext's "
                  "per-process set-up memo, so a test times or counts set-up from scratch",
    "resident_blocks": "read-only view of an internal encoding: the SRAM and DRAM "
                       "caches' packed tags; the equivalence matrix compares them",
    "set_index": "read-only view of an internal encoding: the caches' block-to-set "
                 "mapping; the cache reference-model tests group lines by it",
    "shard_path": "read-only view of an internal encoding: the store's key-to-shard "
                  "mapping; the store corruption tests damage a record through it",
    "do_GET": "framework callback: http.server dispatches GET requests to it",
    "do_POST": "framework callback: http.server dispatches POST requests to it",
    "log_message": "framework callback: http.server logs each request through it",
}


def scanned_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file whose uses count, less this script (the names on
    :data:`ALLOWLIST` are not uses)."""
    this_script = Path(__file__).resolve()
    for entry in SCANNED:
        path = root / entry
        if path.is_dir():
            yield from (found for found in sorted(path.rglob("*.py"))
                        if found.resolve() != this_script)


def _docstrings(tree: ast.AST) -> Set[int]:
    """``id()`` of each docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _exported(tree: ast.AST) -> Set[int]:
    """``id()`` of each string constant in an ``__all__`` assignment."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                found.update(id(item) for item in ast.walk(node.value)
                             if isinstance(item, ast.Constant))
    return found


def uses(tree: ast.AST) -> Iterator[Tuple[str, bool]]:
    """``(name, bare)`` for each name, attribute and identifier string
    ``tree`` uses outside the definitions of the same name; ``bare`` is true
    for a plain name."""
    skip = _docstrings(tree) | _exported(tree)
    # (node, names of the definitions that enclose it)
    pending = [(tree, frozenset())]
    while pending:
        node, enclosing = pending.pop()
        if isinstance(node, ast.Name):
            used = node.id, True
        elif isinstance(node, ast.Attribute):
            used = node.attr, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skip):
            used = node.value, False
        else:
            used = None
        if used is not None and used[0] not in enclosing:
            yield used
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            outside = node.decorator_list + getattr(node, "bases", []) + getattr(
                node, "keywords", [])
            pending.extend((child, enclosing) for child in outside)
            outside_ids = {id(child) for child in outside}
            enclosing = enclosing | {node.name}
            pending.extend((child, enclosing) for child in ast.iter_child_nodes(node)
                           if id(child) not in outside_ids)
        else:
            pending.extend((child, enclosing) for child in ast.iter_child_nodes(node))


def definitions(root: Path) -> List[Tuple[str, int, str, str, bool]]:
    """``(path, line, kind, name, is_method)`` of every function, class and
    method."""
    found = []
    for path in sorted((root / DEFINITIONS).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body
                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                kind = "class"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kind = "def"
            else:
                continue
            found.append((str(path.relative_to(root)), node.lineno, kind, node.name,
                          id(node) in methods))
    return sorted(found)


def occurrences(root: Path) -> Tuple[Counter, Counter]:
    """How often the scanned code uses each name: every use, and the uses
    through an attribute or an identifier string only."""
    counts: Counter = Counter()
    member_counts: Counter = Counter()
    for path in scanned_files(root):
        text = path.read_text(encoding="utf-8", errors="replace")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError:
            continue
        for name, bare in uses(tree):
            counts[name] += 1
            if not bare:
                member_counts[name] += 1
    return counts, member_counts


def dead_definitions(root: Path) -> List[str]:
    """``file:line: kind name`` for each definition no code calls."""
    counts, member_counts = occurrences(root)
    return [
        f"{path}:{line}: {kind} {name}"
        for path, line, kind, name, is_method in definitions(root)
        if (member_counts if is_method else counts)[name] <= 0
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
        print(f"{len(dead)} definition(s) in {DEFINITIONS} have no caller outside tests/; "
              f"delete them or add them to ALLOWLIST with a reason", file=sys.stderr)
        return 1
    print(f"no dead definitions in {DEFINITIONS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
