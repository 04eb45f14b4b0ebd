"""What pyproject.toml and the package advertise must exist."""

import importlib
import re
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_targets_import():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_docstring_submodules_import():
    import morphkit

    names = re.findall(r"^\s{4}(\w+)\s+- ", morphkit.__doc__, re.MULTILINE)
    assert len(names) >= 7, names
    for name in names:
        importlib.import_module(f"morphkit.{name}")


def test_gradcore_all_resolves():
    from morphkit import gradcore

    missing = [n for n in gradcore.__all__ if not hasattr(gradcore, n)]
    assert not missing
