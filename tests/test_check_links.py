"""The docs link checker: catches rot, passes the real doc set."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CHECKER = REPO / "tools" / "check_links.py"


def run_checker(*paths):
    return subprocess.run(
        [sys.executable, str(CHECKER), *map(str, paths)],
        capture_output=True,
        text=True,
    )


def test_repo_docs_have_no_broken_links():
    docs = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    result = run_checker(*docs)
    assert result.returncode == 0, result.stdout + result.stderr


def test_broken_file_and_anchor_detected(tmp_path):
    target = tmp_path / "b.md"
    target.write_text("# Other\n## Section Two\n")
    source = tmp_path / "a.md"
    source.write_text(
        "# Title\n"
        "[ok](b.md) [ok anchor](b.md#section-two) [self](#title)\n"
        "[bad](missing.md) [bad anchor](b.md#nope)\n"
    )
    result = run_checker(source)
    assert result.returncode == 1
    assert "missing.md" in result.stdout
    assert "b.md#nope" in result.stdout


def test_code_blocks_and_external_links_ignored(tmp_path):
    doc = tmp_path / "c.md"
    doc.write_text(
        "# C\n"
        "[web](https://example.com/404) `[code](gone.md)`\n"
        "```\n[fenced](gone.md)\n```\n"
    )
    result = run_checker(doc)
    assert result.returncode == 0, result.stdout


def test_heading_inside_code_block_creates_no_anchor(tmp_path):
    doc = tmp_path / "e.md"
    doc.write_text(
        "# Real\n"
        "```bash\n# fake heading in code\n```\n"
        "[bad](#fake-heading-in-code) [ok](#real)\n"
    )
    result = run_checker(doc)
    assert result.returncode == 1
    assert "#fake-heading-in-code" in result.stdout


def test_duplicate_headings_get_suffixed_anchors(tmp_path):
    doc = tmp_path / "d.md"
    doc.write_text(
        "# Setup\n# Setup\n"
        "[first](#setup) [second](#setup-1) [third](#setup-2)\n"
    )
    result = run_checker(doc)
    assert result.returncode == 1
    assert "#setup-2" in result.stdout and "#setup-1" not in result.stdout


def test_python_sources_name_only_documents_that_exist():
    sources = [
        *sorted((REPO / "src" / "repro").rglob("*.py")),
        *sorted((REPO / "benchmarks").glob("*.py")),
        *sorted((REPO / "tools").glob("*.py")),
    ]
    result = run_checker(*sources)
    assert result.returncode == 0, result.stdout + result.stderr


def test_missing_document_in_a_docstring_or_comment_detected(tmp_path):
    """The rule is picked by the argument's extension; only docstrings
    and comments are read, and only upper-case document names."""
    module = tmp_path / "mod.py"
    module.write_text(
        '"""Module; see DESIGN.md section 4 and README.md."""\n'
        "\n"
        "def f():\n"
        '    """Recorded in docs/EXPERIMENTS.md; layout in docs/BENCHMARKS.md."""\n'
        '    return "usage: tool FILE.md notes.md"  # as GONE.md says\n'
    )
    result = run_checker(module)
    assert result.returncode == 1
    reported = [line.strip() for line in result.stdout.splitlines()[1:]]
    assert [line.split(": ")[0].rsplit(":", 1)[1] for line in reported] == ["1", "4", "5"]
    for name, line in zip(("DESIGN.md", "EXPERIMENTS.md", "GONE.md"), reported, strict=True):
        assert repr(name) in line
    assert "README.md" not in result.stdout and "BENCHMARKS.md" not in result.stdout
    assert "FILE.md" not in result.stdout and "notes.md" not in result.stdout
