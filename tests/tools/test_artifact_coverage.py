"""The line recorder and report of ``tools/artifact_coverage.py``, on a
hand-written module run in traced child interpreters."""

import sys
import textwrap
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import artifact_coverage  # noqa: E402

MODULE = textwrap.dedent(
    '''\
    from typing import TYPE_CHECKING

    if TYPE_CHECKING:
        import collections


    def used(x):
        if x < 0:
            sign = "negative"
            raise ValueError(
                sign
            )
        return x + 1


    def unused():
        return 2
    '''
)
#: What ``import mod; mod.used(1)`` runs: the module body, then two lines
#: of ``used``; never the ``TYPE_CHECKING`` import, the error path (lines
#: 9-12) or ``unused``.
RAN = {1, 3, 7, 8, 13, 16}


@pytest.fixture
def src(tmp_path, monkeypatch):
    root = tmp_path / "src"
    root.mkdir()
    (root / "mod.py").write_text(MODULE, encoding="utf-8")
    monkeypatch.setattr(artifact_coverage, "SRC", root)
    monkeypatch.setattr(artifact_coverage, "REPO_ROOT", tmp_path)
    return root


def traced(program, tmp_path, index):
    code, _, lines = artifact_coverage.traced_run(["-c", program], tmp_path, index)
    assert code == 0
    return lines


def test_records_exactly_the_lines_the_module_ran(src, tmp_path):
    """Only files under ``src/`` are recorded (not the ``-c`` program),
    and only the lines that ran."""
    assert traced("import mod; mod.used(1)", tmp_path, 0) == {"mod.py": RAN}


def test_a_forked_child_writes_its_own_lines(src, tmp_path):
    program = "import os, mod\nif os.fork() == 0:\n    mod.unused()\nelse:\n    os.wait()"
    assert traced(program, tmp_path, 0) == {"mod.py": {1, 3, 7, 16, 17}}


def test_report_splits_artifact_tests_only_and_raise_lines(src, tmp_path):
    artifact = traced("import mod; mod.used(1)", tmp_path, 0)
    tests = traced(
        "import mod\nmod.unused()\ntry:\n    mod.used(-1)\nexcept ValueError:\n    pass",
        tmp_path, 1,
    )
    executable = artifact_coverage.executable_lines(compile(MODULE, "mod.py", "exec"))
    raises = executable & {9, 10, 11, 12}
    assert {9, 10} <= raises and 4 in executable and RAN | {17} <= executable

    result = artifact_coverage.report(artifact, tests)
    row = result["files"]["mod.py"]
    assert row["executable"] == len(executable)
    assert row["artifact"] == len(RAN)
    assert row["tests_only"] == 1 and row["tests_only_lines"] == [17]
    assert row["tests_only_raise"] == len(raises) and row["raise"] == len(raises)
    assert row["typing"] == 1
    assert row["neither"] == len(executable) - len(RAN) - 1 - len(raises)
    assert result["total"] == {k: v for k, v in row.items() if k != "tests_only_lines"}
    assert result["functions"] == {"mod.py::unused": 1}
    assert result["uncalled"] == ["mod.py::unused"]
    table = artifact_coverage.format_report(result)
    assert "tests only" in table and table.endswith("mod.py::unused *")


def test_classify_counts_error_blocks_and_names_their_functions():
    """A block that ends in ``raise`` is an error path, whether it sits
    under an ``if``, an ``else``, a ``finally`` or a re-raising
    ``except`` (whose own line counts too); a handler that swallows the
    error does not. Lines belong to the innermost ``def``, dotted
    through its classes; a ``def`` line runs with the enclosing scope."""
    source = textwrap.dedent(
        '''\
        class Box:
            def open(self, x):
                try:
                    x()
                except KeyError:
                    x = 1
                    raise
                except OSError:
                    return None
                else:
                    raise ValueError(x)

            class Lid:
                def shut(self):
                    try:
                        pass
                    finally:
                        raise RuntimeError
        '''
    )
    kinds, owners = artifact_coverage.classify(source)
    assert sorted(kinds) == [5, 6, 7, 11, 18]
    assert set(kinds.values()) == {"raise"}
    assert owners[4] == owners[9] == "Box.open" and 2 not in owners
    assert owners[15] == owners[18] == "Box.Lid.shut" and 14 not in owners


def test_every_benchmark_and_example_is_an_artifact():
    """``bench_paper.py`` runs as CI runs it, ``--check`` at full size;
    every other benchmark runs ``--smoke --check``; the tier-1 command is
    the tests' alone."""
    commands = artifact_coverage.artifacts()
    scripts = {command[0] for command in commands}
    root = artifact_coverage.REPO_ROOT
    for path in [*root.glob("benchmarks/bench_*.py"), *root.glob("examples/*.py")]:
        assert str(path.relative_to(root)) in scripts
    for command in commands:
        if command[0] == "benchmarks/bench_paper.py":
            assert command == ["benchmarks/bench_paper.py", "--check"]
        elif command[0].startswith("benchmarks/"):
            assert command[1:3] == ["--smoke", "--check"]
    assert artifact_coverage.TESTS not in commands
    assert "-x" not in artifact_coverage.TESTS
