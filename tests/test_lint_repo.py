"""Tier-1 wrapper: the repo itself satisfies every lint invariant.

This is the machine-checked version of the contracts in DESIGN.md section
14 — if a PR introduces a second environment-read site, an upward import,
a runtime knob in the job key, or an unjustified suppression, this test
fails before CI does.  A second (gated) test runs the mypy baseline over
``repro.api`` and ``repro.lint`` when mypy is installed.
"""

import pathlib
import subprocess
import sys

import pytest

from repro.lint import all_rules, lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


def test_repo_is_lint_clean():
    result = lint_paths([PACKAGE_ROOT], all_rules())
    assert result.parse_errors == []
    assert [v.render() for v in result.violations] == []
    # Sanity: the run actually covered the package, not an empty dir.
    assert result.files_checked > 50


def _names_existing_module(name):
    """Whether dotted ``name`` is a module or package under src/repro."""
    head, *rest = name.split(".")
    assert head == "repro", name
    path = PACKAGE_ROOT.joinpath(*rest)
    return (path / "__init__.py").is_file() or path.with_suffix(".py").is_file()


def test_rule_scopes_name_existing_modules():
    """RL006 ranks and RL002 scopes never outlive the code they govern."""
    from repro.lint.rules_determinism import SCOPED_PACKAGES
    from repro.lint.rules_layering import LAYER_RANKS

    prefixes = [prefix for prefix, _ in LAYER_RANKS] + list(SCOPED_PACKAGES)
    assert [p for p in prefixes if not _names_existing_module(p)] == []


def test_every_rule_documents_its_contract():
    for rule in all_rules():
        assert rule.id and rule.title and rule.rationale, rule


def test_module_entry_point_is_wired():
    process = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(PACKAGE_ROOT)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert process.returncode == 0, process.stdout + process.stderr
    assert "clean" in process.stdout


def test_mypy_baseline_when_available():
    pytest.importorskip("mypy")
    process = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "--config-file",
            str(REPO_ROOT / "pyproject.toml"),
            str(PACKAGE_ROOT / "api"),
            str(PACKAGE_ROOT / "lint"),
        ],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )
    assert process.returncode == 0, process.stdout + process.stderr
