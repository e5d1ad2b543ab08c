"""The docs link checker must pass on the repo and catch broken links."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_docs_have_no_broken_links(capsys):
    checker = _load_checker()
    assert checker.main([]) == 0
    out = capsys.readouterr().out
    assert "all intra-repo links resolve" in out


def test_checker_scans_readme_and_all_docs():
    checker = _load_checker()
    documents = {d.name for d in checker.default_documents(REPO_ROOT)}
    assert "README.md" in documents
    assert {
        "workloads.md", "experiments.md", "performance.md",
        "campaigns.md", "architecture.md",
    } <= documents


def test_required_docs_all_present():
    checker = _load_checker()
    assert checker.missing_required_docs(REPO_ROOT) == []
    assert {"docs/campaigns.md", "docs/architecture.md"} <= set(checker.REQUIRED_DOCS)


def test_missing_required_doc_fails(tmp_path):
    checker = _load_checker()
    assert "README.md" in checker.missing_required_docs(tmp_path)


def test_checker_flags_broken_links(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "page.md"
    doc.write_text(
        "[ok](https://example.com) [anchor](#here)\n"
        "[missing](does/not/exist.md)\n"
        "![img](gone.png)\n"
    )
    broken = list(checker.broken_links(doc))
    assert broken == [(2, "does/not/exist.md"), (3, "gone.png")]
    assert checker.main([str(doc)]) == 1


def test_checker_accepts_anchored_relative_links(tmp_path):
    checker = _load_checker()
    (tmp_path / "other.md").write_text("# hi\n")
    doc = tmp_path / "page.md"
    doc.write_text("[sect](other.md#section)\n")
    assert list(checker.broken_links(doc)) == []


def test_checker_flags_mentions_of_missing_root_pages(tmp_path):
    checker = _load_checker()
    # Spelled in two parts, so that the scan of this repository does not
    # read this file as a mention of a missing page.
    gone, present = "GONE" + ".md", "PRESENT" + ".md"
    (tmp_path / present).write_text("# here\n")
    (tmp_path / "README.md").write_text(f"See {present} and {gone}.\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "page.md").write_text(
        f"[sibling](other.md), docs/{gone} and lower.md are no root pages.\n"
    )
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(f'"""\n\nNumbers in {gone}."""\n')
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(f"# {gone} and README.md\n")
    # History pages at the root are not scanned.
    (tmp_path / "CHANGES.md").write_text(f"{gone}\n")
    assert checker.missing_root_pages(tmp_path) == [
        f"README.md:1: {gone}",
        f"src/pkg/mod.py:3: {gone}",
        f"tests/test_x.py:1: {gone}",
    ]


def test_checker_flags_mentions_of_flags_nothing_defines(tmp_path):
    checker = _load_checker()
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "cli.py").write_text(
        "import argparse\n"
        "parser = argparse.ArgumentParser()\n"
        "parser.add_argument('--kept', '-k')\n"
        "parser.add_argument('spec')\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(
        "def options(parser):\n    parser.add_argument('--seconds', type=float)\n"
    )
    # A flag that only a test defines does not count.
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("parser.add_argument('--test-only')\n")
    (tmp_path / "README.md").write_text(
        "Run with `--kept` or --seconds 40; a--b and `---` are no flags.\n"
        "`--gone` was deleted.\n"
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "page.md").write_text(
        "valgrind --trace-mem=yes, then --test-only\n"
    )
    assert checker.stale_flags(tmp_path) == [
        "README.md:2: --gone",
        "docs/page.md:1: --test-only",
    ]
    assert all(reason for reason in checker.FLAG_ALLOWLIST.values())
