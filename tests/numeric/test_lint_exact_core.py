"""Pytest wrapper for the exact-core AST lint (tools/lint_exact_core.py)."""

import ast
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

import lint_exact_core  # noqa: E402


def test_exact_core_is_clean():
    violations = []
    for path in lint_exact_core.exact_core_files():
        violations.extend(lint_exact_core.check_file(path))
    assert violations == []


def test_lint_targets_exist():
    files = lint_exact_core.exact_core_files()
    names = {f.name for f in files}
    # the load-bearing modules must be covered
    assert {"exact.py", "counters.py", "fastpath.py", "residual.py",
            "dinic.py", "warmstart.py", "parametric.py",
            "feasibility.py"} <= names


def test_lint_catches_division_and_float(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1 / 2\ny = float(3)\nz = 4 // 5\nz /= 2\n")
    violations = lint_exact_core.check_file(bad)
    joined = "\n".join(violations)
    assert len(violations) == 3  # two '/' sites and one float(); '//' is fine
    assert "true division" in joined and "float()" in joined


def test_lint_ignores_strings_and_comments(tmp_path):
    ok = tmp_path / "ok.py"
    ok.write_text('"""a/b in a docstring"""\n# 1 / 2 in a comment\ns = "x/y"\n')
    assert lint_exact_core.check_file(ok) == []


def test_missing_target_is_loud(monkeypatch):
    monkeypatch.setattr(lint_exact_core, "EXACT_CORE_GLOBS", ["no/such_module.py"])
    with pytest.raises(FileNotFoundError):
        lint_exact_core.exact_core_files()
