"""The repository's scripts under tools/."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring
over two lines."""

import os


def join(x):
    """A function docstring."""
    # a comment line

    return os.path.join(
        x,
        "y")
'''


def test_code_lines_counts_only_code():
    # `import os`, the `def` line and the three lines of the call: not the
    # docstrings, the comment or the blank lines
    assert _load("code_lines").count_lines(SNIPPET) == 5


def test_code_lines_prints_each_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1  # a comment after code\n")
    assert _load("code_lines").main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a                 5",
        "b                 1",
        "total             6",
    ]


def test_code_lines_compares_each_module_with_a_base_tree(tmp_path, capsys):
    now, base = tmp_path / "now", tmp_path / "base"
    now.mkdir()
    base.mkdir()
    (now / "a.py").write_text(SNIPPET)
    (base / "a.py").write_text("x = 1\n")
    (now / "b.py").write_text("x = 1\ny = 2\n")
    (base / "c.py").write_text("z = 3\n")
    assert _load("code_lines").main([str(now), str(base)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module         base    now  change",
        "a                 1      5      +4",
        "b                 0      2      +2",
        "c                 1      0      -1",
        "total             2      7      +5",
    ]


def test_code_lines_widens_the_name_column_to_the_longest_name(tmp_path, capsys):
    now, base = tmp_path / "now", tmp_path / "base"
    now.mkdir()
    base.mkdir()
    (now / "test_benchmark_names.py").write_text("x = 1\n")
    (base / "a.py").write_text("x = 1\n")
    assert _load("code_lines").main([str(now)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "test_benchmark_names      1",
        "total                     1",
    ]
    assert _load("code_lines").main([str(now), str(base)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module                 base    now  change",
        "a                         1      0      -1",
        "test_benchmark_names      0      1      +1",
        "total                     1      1      +0",
    ]


def test_code_lines_refuses_a_directory_that_is_not_there(tmp_path, capsys):
    assert _load("code_lines").main([str(tmp_path), str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'missing'} is not a directory\n"
