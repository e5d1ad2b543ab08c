"""Unit tests for tools/check_dead_code.py (the CI dead-definition check)."""

import importlib.util
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "check_dead_code", REPO_ROOT / "tools" / "check_dead_code.py"
)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def make_tree(root: Path) -> None:
    write(root, "src/repro/__init__.py", """\
        from .mod import Handler, exported_only, used

        __all__ = ["Handler", "exported_only", "used"]
        """)
    write(root, "src/repro/mod.py", """\
        __all__ = ["Handler", "exported_only", "used"]


        def used():
            def inner():
                return 1
            return inner()


        def exported_only():
            return 2


        def documented():
            return 3


        class Handler:
            def __init__(self):
                self.value = 0

            def do_GET(self):
                return self.value

            def looked_up(self):
                return 4

            def unnamed(self):
                return 5
        """)
    write(root, "tests/test_mod.py", """\
        from repro.mod import Handler, used


        def test_used():
            assert used() == 1
            assert getattr(Handler(), "looked_up")() == 4
        """)
    write(root, "docs/mod.md", "`documented()` returns 3.\n")


def test_the_tree_has_no_dead_definitions():
    assert tool.dead_definitions(REPO_ROOT) == []


def test_exports_imports_and_definitions_are_not_uses(tmp_path):
    make_tree(tmp_path)
    assert tool.dead_definitions(tmp_path) == [
        "src/repro/mod.py:10: def exported_only",
        "src/repro/mod.py:28: def unnamed",
    ]


def test_main_lists_each_dead_definition_and_fails(tmp_path, capsys):
    make_tree(tmp_path)
    assert tool.main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "def exported_only" in out and "def unnamed" in out
    assert tool.main(["--root", str(REPO_ROOT)]) == 0


def test_every_allowlist_entry_names_its_reason():
    assert set(tool.ALLOWLIST) >= {"do_GET", "do_POST"}
    assert all(reason.strip() for reason in tool.ALLOWLIST.values())
