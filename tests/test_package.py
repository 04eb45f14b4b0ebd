"""What pyproject.toml and the package advertise must exist."""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"

# public names and methods kept without a caller in src/ or bench/, each for
# a planned one
UNCALLED_ALLOWED = {
    # the report and curve export of the planned CLI (ROADMAP item 6)
    "evalkit.summary_block", "evalkit.write_curve_csv",
    # the checkpoint-meta and manifest readers the planned CLI loads runs and
    # datasets with (ROADMAP item 6)
    "embednet.config_meta", "embednet.config_from_meta", "imaging.load_manifest",
    # looked up by name in bench/harness.py, which traces it for its
    # ``geometry.tps_apply.s`` figure; ``tps_fit`` maps its control points
    # through ``_tps_map`` with the kernel it already built (ROADMAP item 5)
    "geometry.tps_apply",
    # opened only by tests; the bench's traced run is to read its per-layer
    # rows (ROADMAP item 5)
    "gradcore.profile",
    # the checkpoint writer and reader of the planned CLI (ROADMAP item 6)
    # and of resumable training runs (ROADMAP item 9)
    "gradcore.ParamStore.save", "gradcore.ParamStore.load",
}


def test_console_script_targets_import():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_docstring_submodules_import():
    # the docstring lists exactly the package's modules, and each imports
    import morphkit

    names = re.findall(r"^\s{4}(\w+)\s+- ", morphkit.__doc__, re.MULTILINE)
    modules = [p.stem for p in (REPO / "src" / "morphkit").glob("*.py")
               if p.stem != "__init__"]
    assert sorted(names) == sorted(modules)
    for name in names:
        importlib.import_module(f"morphkit.{name}")


def test_gradcore_all_resolves():
    from morphkit import gradcore

    missing = [n for n in gradcore.__all__ if not hasattr(gradcore, n)]
    assert not missing


def _root_name(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_every_public_function_and_class_has_a_caller():
    # also fails on a module-level _private function or class, or a method,
    # that nothing in src/ or bench/ refers to by name, such as a helper a
    # deletion left behind
    modules = sorted((REPO / "src" / "morphkit").glob("*.py"))
    used = set()
    for path in modules + sorted((REPO / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        # ``np.exp`` or ``math.log`` reads an outside module, not morphkit's
        outside = {alias.asname or alias.name.partition(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names
                   if alias.name.partition(".")[0] != "morphkit"}
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                if _root_name(node) not in outside:
                    read.add(node.attr)
        # an imported name is used only where its module reads it, by its
        # ``as`` name if it has one; a re-export is not a call
        used |= read | {alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for alias in node.names
                        if alias.asname in read}
    uncalled = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in used:
                uncalled.append(f"{path.stem}.{node.name}")
            # and each method of a class but its dunders, which Python calls
            if isinstance(node, ast.ClassDef):
                uncalled += [f"{path.stem}.{node.name}.{m.name}" for m in node.body
                             if isinstance(m, ast.FunctionDef)
                             and not m.name.startswith("__") and m.name not in used]
    assert not [name for name in uncalled if name not in UNCALLED_ALLOWED]
    # an entry that gained a caller leaves the list
    assert not UNCALLED_ALLOWED - set(uncalled)
