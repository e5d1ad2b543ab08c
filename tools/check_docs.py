#!/usr/bin/env python3
"""Fail on broken intra-repo links in README.md and docs/*.md.

Scans every markdown link and image reference (``[text](target)`` /
``![alt](target)``) in the repo's user-facing documentation.  External
targets (``http(s)://``, ``mailto:``) and pure in-page anchors (``#...``)
are ignored; every other target is resolved relative to the containing file
(anchors and query strings stripped) and must exist in the working tree.

Run without arguments, it also fails on a mention of a root-level page that
does not exist: a bare upper-case page name such as ``README.md`` (the
convention of the pages at the repository root) in README.md or any file
under ``MENTION_DIRS``.  The history pages at the root (CHANGES.md,
ROADMAP.md) are not scanned.  It also fails on a ``--flag`` that README.md
or a docs/*.md page mentions but no ``add_argument`` call under
``FLAG_SOURCES`` defines, unless ``FLAG_ALLOWLIST`` names it with a reason:
a page must not document an option that is gone.

Usage::

    python tools/check_docs.py            # from the repo root
    python tools/check_docs.py README.md docs/workloads.md

Exits 0 when every link resolves, 1 otherwise (listing each broken link as
``file:line: target``).  Used by the CI ``docs`` job and by
``tests/docs/test_doc_links.py``; stdlib-only on purpose.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable, List, Set, Tuple

#: Markdown inline link/image: [text](target) or ![alt](target).  Nested
#: parentheses inside targets are not supported (none are used in this repo).
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

_EXTERNAL = ("http://", "https://", "mailto:")

#: A bare upper-case page name, not part of a path: ``README.md``, not
#: ``docs/README.md`` or ``experiments.md``.
_ROOT_PAGE = re.compile(r"(?<![\w./-])([A-Z][A-Z0-9_-]*\.md)\b")

#: Where a mention of a root-level page must resolve (besides README.md).
MENTION_DIRS = ("docs", "src", "tools", "benchmarks", "tests", "examples")

#: A command-line flag in prose or a code block: ``--name``, not the middle
#: of ``a--b`` or a ``---`` rule.
_FLAG = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")

#: Where the flags the documentation may mention are defined (the code
#: whose ``add_argument`` calls count, scanned recursively for ``.py``).
FLAG_SOURCES = ("src", "tools", "perfbench")

#: Flags the documentation may mention although no ``add_argument`` under
#: ``FLAG_SOURCES`` defines them, each with the reason.
FLAG_ALLOWLIST = {
    "--trace-mem": "Valgrind's own flag, in docs/ingestion.md's recipe for "
                   "recording a Lackey trace",
}

#: Documentation pages that must exist (the docs/*.md glob would silently
#: shrink if one were deleted or renamed; this list pins the expected set).
REQUIRED_DOCS = (
    "README.md",
    "docs/architecture.md",
    "docs/campaigns.md",
    "docs/experiments.md",
    "docs/ingestion.md",
    "docs/performance.md",
    "docs/robustness.md",
    "docs/sampling.md",
    "docs/serving.md",
    "docs/workloads.md",
)

#: Load-bearing content that must survive edits to the pages above: section
#: headings other pages and CI jobs deep-link to, and table rows that must
#: track the code (e.g. the registered-engine table).  Matched as literal
#: substrings of the page text.
REQUIRED_SECTIONS = {
    "docs/architecture.md": (
        "## Execution engines",
        "## Serving layer",
        "`repro.api`",
    ),
    "docs/ingestion.md": (
        "## Import formats",
        "## Clone fitting and its tolerances",
        "workload-profile/v1",
        "workload-clone/v1",
    ),
    "docs/serving.md": (
        "## The sharded store layout (`sharded/v1`)",
        "### HTTP API",
        "## Concurrency model",
        "sharded/v1",
    ),
}


def missing_required_sections(root: Path) -> List[str]:
    """``page: heading`` for each pinned section absent from its page."""
    missing: List[str] = []
    for rel, needles in REQUIRED_SECTIONS.items():
        page = root / rel
        if not page.is_file():
            continue  # already reported by missing_required_docs
        text = page.read_text()
        missing.extend(f"{rel}: {needle!r}" for needle in needles if needle not in text)
    return missing


def repo_root() -> Path:
    """The repository root (parent of this script's directory)."""
    return Path(__file__).resolve().parent.parent


def default_documents(root: Path) -> List[Path]:
    """The documents checked by default: README.md plus every docs/*.md."""
    documents = [root / "README.md"]
    documents.extend(sorted((root / "docs").glob("*.md")))
    return [d for d in documents if d.is_file()]


def missing_required_docs(root: Path) -> List[str]:
    """Required pages (``REQUIRED_DOCS``) absent from the working tree."""
    return [rel for rel in REQUIRED_DOCS if not (root / rel).is_file()]


def missing_root_pages(root: Path) -> List[str]:
    """``file:line: page`` for each mention of a root-level page absent
    from ``root``, in README.md and every file under ``MENTION_DIRS``."""
    files = [root / "README.md"]
    for rel in MENTION_DIRS:
        files.extend(sorted(
            path for path in (root / rel).rglob("*")
            if path.is_file() and "__pycache__" not in path.parts
        ))
    missing: List[str] = []
    for path in files:
        if not path.is_file():
            continue
        text = path.read_bytes().decode("utf-8", errors="replace")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in _ROOT_PAGE.finditer(line):
                if not (root / match.group(1)).is_file():
                    missing.append(
                        f"{path.relative_to(root)}:{lineno}: {match.group(1)}"
                    )
    return missing


def defined_flags(root: Path) -> Set[str]:
    """Every ``--flag`` an ``add_argument`` call under ``FLAG_SOURCES`` defines."""
    flags: Set[str] = set()
    for rel in FLAG_SOURCES:
        for path in sorted((root / rel).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_bytes(), filename=str(path))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"
                ):
                    flags.update(
                        arg.value for arg in node.args
                        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                        and arg.value.startswith("--")
                    )
    return flags


def stale_flags(root: Path) -> List[str]:
    """``file:line: --flag`` for each flag README.md or a docs/*.md page
    mentions that neither an ``add_argument`` call nor ``FLAG_ALLOWLIST``
    accounts for."""
    known = defined_flags(root) | set(FLAG_ALLOWLIST)
    stale: List[str] = []
    for document in default_documents(root):
        for lineno, line in enumerate(document.read_text().splitlines(), start=1):
            for match in _FLAG.finditer(line):
                if match.group(1) not in known:
                    stale.append(
                        f"{document.relative_to(root)}:{lineno}: {match.group(1)}"
                    )
    return stale


def broken_links(document: Path) -> Iterable[Tuple[int, str]]:
    """Yield ``(line_number, target)`` for every unresolvable link."""
    for lineno, line in enumerate(document.read_text().splitlines(), start=1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0].split("?", 1)[0]
            if not path_part:
                continue
            resolved = (document.parent / path_part).resolve()
            if not resolved.exists():
                yield lineno, target


def main(argv: List[str]) -> int:
    root = repo_root()
    if not argv:
        missing = missing_required_docs(root)
        if missing:
            print(f"{len(missing)} required documentation page(s) missing:")
            for rel in missing:
                print(f"  {rel}")
            return 1
        gone = missing_required_sections(root)
        if gone:
            print(f"{len(gone)} pinned documentation section(s) missing:")
            for entry in gone:
                print(f"  {entry}")
            return 1
        absent = missing_root_pages(root)
        if absent:
            print(f"{len(absent)} mention(s) of a root-level page that does not exist:")
            for entry in absent:
                print(f"  {entry}")
            return 1
        stale = stale_flags(root)
        if stale:
            print(f"{len(stale)} mention(s) of a flag that nothing defines:")
            for entry in stale:
                print(f"  {entry}")
            return 1
    documents = [Path(arg).resolve() for arg in argv] or default_documents(root)
    failures: List[str] = []
    checked = 0
    for document in documents:
        checked += 1
        try:
            shown = document.relative_to(root)
        except ValueError:  # explicit argument outside the repo
            shown = document
        for lineno, target in broken_links(document):
            failures.append(f"{shown}:{lineno}: {target}")
    if failures:
        print(f"{len(failures)} broken intra-repo link(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"checked {checked} document(s): all intra-repo links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
