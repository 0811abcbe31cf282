import ast
import shutil
import subprocess
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_no_tracked_file_is_ignored():
    run = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
                         capture_output=True, text=True)
    if run.returncode:
        pytest.skip(f"git cannot read this checkout: {run.stderr.strip()}")
    assert run.stdout == ""


def _names(node):
    """The identifiers a statement names: variables and attributes it reads."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_library_definition_has_a_caller():
    # a top-level function or class of the package that no other top-level
    # statement of the package or of the benchmark names is test-only code:
    # it belongs in tests/reference.py
    library = sorted((ROOT / "src" / "coxpizza").glob("*.py"))
    statements = [(path, node) for path in library + sorted((ROOT / "perfbench").glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    uncalled = []
    for path, node in statements:
        if path in library and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not any(node.name in _names(other) for _, other in statements if other is not node):
                uncalled.append(f"{path.name}:{node.name}")
    assert uncalled == []


def _attributes(node):
    """The attribute names a statement reads or writes (obj.attr)."""
    return (sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_public_library_method_has_a_caller():
    # a public method of a package class that nothing in the package or the
    # benchmark reads as an attribute, outside its own body, is test-only
    # code: it belongs in tests/reference.py as a function.  Bare names do
    # not count: a free function of the same name calls no method.
    library = sorted((ROOT / "src" / "coxpizza").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in library + sorted((ROOT / "perfbench").glob("*.py"))]
    named = Counter(name for tree in trees for name in _attributes(tree))
    uncalled = []
    for path, tree in zip(library, trees):
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if (isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                        and named[method.name] == Counter(_attributes(method))[method.name]):
                    uncalled.append(f"{path.name}:{cls.name}.{method.name}")
    assert uncalled == []
