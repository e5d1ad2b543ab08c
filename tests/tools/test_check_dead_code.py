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


        def tested_only():
            return 4


        def docstring_only():
            return 5


        def silenced():
            return 6


        class Handler:
            def __init__(self):
                self.value = 0

            def do_GET(self):
                return self.value

            def looked_up(self):
                return 7

            def unnamed(self):
                return 8
        """)
    write(root, "src/repro/cli.py", """\
        from .mod import Handler


        def main():
            \"\"\"docstring_only\"\"\"
            # documented, tested_only
            return getattr(Handler(), "looked_up")()


        if __name__ == "__main__":
            main()
        """)
    write(root, "tools/run.py", """\
        from repro.mod import used

        print(used())
        """)
    write(root, "tests/test_mod.py", """\
        from repro.mod import Handler, documented, tested_only


        def test_mod():
            assert tested_only() == 4
            assert documented() == 3
            assert Handler().unnamed() == 8
        """)
    write(root, "docs/mod.md", "`documented()` returns 3; see `docstring_only`.\n")
    write(root, "README.md", "`silenced()` and `exported_only()` are documented here.\n")


def test_the_tree_has_no_dead_definitions():
    assert tool.dead_definitions(REPO_ROOT) == []


def test_exports_imports_and_definitions_are_not_uses(tmp_path):
    """Only code outside tests/ counts: a name in tests/, docs/, the README,
    a docstring, a comment, ``__all__`` or an import is not a use, while a
    call from tools/ and a ``getattr`` string in src/ are."""
    make_tree(tmp_path)
    assert tool.dead_definitions(tmp_path) == [
        "src/repro/mod.py:10: def exported_only",
        "src/repro/mod.py:14: def documented",
        "src/repro/mod.py:18: def tested_only",
        "src/repro/mod.py:22: def docstring_only",
        "src/repro/mod.py:26: def silenced",
        "src/repro/mod.py:40: def unnamed",
    ]


def test_a_same_named_local_or_function_does_not_keep_a_method_alive(tmp_path):
    """A method counts as used only through an attribute or an identifier
    string: a local variable or a module function that shares its name is
    another object, while a function is still used by its bare name."""
    write(tmp_path, "src/repro/mod.py", """\
        def owner_of(entry):
            return entry


        class Mapper:
            def touched_pages(self):
                return 1

            def owner_of(self, block):
                return block

            def home(self):
                return 2


        def walk(mapper):
            touched_pages = {}
            touched_pages[0] = mapper.home()
            return owner_of(touched_pages)
        """)
    write(tmp_path, "tools/run.py", """\
        from repro.mod import Mapper, walk

        print(walk(Mapper()))
        """)
    assert tool.dead_definitions(tmp_path) == [
        "src/repro/mod.py:6: def touched_pages",
        "src/repro/mod.py:9: def owner_of",
    ]


def test_a_definitions_uses_of_its_own_name_do_not_keep_it_alive(tmp_path):
    """Recursion, a class's own name in an annotation inside its body and a
    property that reads a same-named field are uses inside the definition
    itself, so they do not count; a decorator and a base class are outside
    the definition they decorate or derive, so they do."""
    write(tmp_path, "src/repro/mod.py", """\
        def countdown(n):
            return countdown(n - 1) if n else 0


        class Packet:
            @classmethod
            def control(cls) -> "Packet":
                return cls()


        class Workload:
            def __init__(self, spec):
                self.spec = spec

            @property
            def best_policy(self):
                return self.spec.best_policy

            @property
            def name(self):
                return self.spec.name


        def registered(func):
            return func


        @registered
        def plugin():
            return 1


        class Base:
            pass


        class Derived(Base):
            pass
        """)
    write(tmp_path, "tools/run.py", """\
        from repro.mod import Derived, Workload, plugin

        print(Workload(None).name, plugin(), Derived())
        """)
    assert tool.dead_definitions(tmp_path) == [
        "src/repro/mod.py:1: def countdown",
        "src/repro/mod.py:5: class Packet",
        "src/repro/mod.py:7: def control",
        "src/repro/mod.py:16: def best_policy",
    ]


def test_an_allowlist_entry_silences_a_name(tmp_path, monkeypatch):
    make_tree(tmp_path)
    monkeypatch.setitem(tool.ALLOWLIST, "silenced", "framework callback: test")
    dead = tool.dead_definitions(tmp_path)
    assert "src/repro/mod.py:26: def silenced" not in dead
    assert "src/repro/mod.py:40: def unnamed" in dead


def test_main_lists_each_dead_definition_and_fails(tmp_path, capsys):
    make_tree(tmp_path)
    assert tool.main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "def exported_only" in out and "def unnamed" in out
    assert tool.main(["--root", str(REPO_ROOT)]) == 0


def test_every_allowlist_entry_names_its_reason():
    """Each reason starts with one of the three kinds a definition no code
    calls may be kept for, and says more than the kind."""
    assert set(tool.ALLOWLIST) >= {"do_GET", "do_POST", "clear_memo"}
    for name, reason in tool.ALLOWLIST.items():
        kind, _, detail = reason.partition(": ")
        assert kind in tool.REASON_KINDS, name
        assert detail.strip(), name
