import ast
import builtins
import shutil
import subprocess
import symtable
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


def _defined(node):
    """The names a top-level statement defines: a function, a class, or the
    variables of an assignment, dunder names aside."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and not (sub.id.startswith("__") and sub.id.endswith("__")):
                    yield sub.id


def test_every_library_definition_has_a_caller():
    # a top-level function, class or variable of the package that no other
    # top-level statement of the package or of the benchmark names is
    # test-only code: it belongs in tests/reference.py, or nowhere
    library = sorted((ROOT / "src" / "coxpizza").glob("*.py"))
    statements = [(path, node) for path in library + sorted((ROOT / "perfbench").glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    uncalled = []
    for path, node in statements:
        for name in _defined(node) if path in library else ():
            if not any(name in _names(other) for _, other in statements if other is not node):
                uncalled.append(f"{path.name}:{name}")
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


def test_only_cli_main_writes_to_stderr():
    # a command refuses by raising, and main turns the exception into its
    # one `error:` line: a command that printed to stderr itself would
    # bypass that line and its exit code
    tree = ast.parse((ROOT / "src" / "coxpizza" / "cli.py").read_text(encoding="utf-8"))
    writers = [getattr(node, "name", f"line {node.lineno}") for node in tree.body
               if not (isinstance(node, ast.FunctionDef) and node.name == "main")
               and "stderr" in _names(node)]
    assert writers == []


def test_only_walk_plan_reads_the_pfaffian_plan():
    # the Pfaffian memo is walked once, by oracle._walk_plan, over each fold's
    # ring: every name or attribute _pfaffian_plan under src/ lies in its body
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "coxpizza").glob("*.py"))]
    walks = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "_walk_plan"]
    reads = Counter(name for tree in trees for name in _names(tree))["_pfaffian_plan"]
    assert len(walks) == 1 and reads > 0
    assert Counter(_names(walks[0]))["_pfaffian_plan"] == reads


def _unbound_globals(path):
    """The global names a module reads but neither defines nor imports, at
    its top level or by a `global` statement, builtins and __file__ aside."""
    top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    defined = {symbol.get_name() for symbol in top.get_symbols()
               if symbol.is_assigned() or symbol.is_imported()}
    read = set()
    tables = [top]
    while tables:
        table = tables.pop()
        tables += table.get_children()
        for symbol in table.get_symbols():
            if table is top or symbol.is_global():
                if table is not top and symbol.is_assigned():
                    defined.add(symbol.get_name())
                if symbol.is_referenced():
                    read.add(symbol.get_name())
    return sorted(read - defined - set(dir(builtins)) - {"__file__"})


def test_every_global_name_read_is_bound():
    # a function that reads a name its module never binds raises NameError
    # only when it runs: no linter is installed, so the symbol tables stand in
    unbound = [f"{path.relative_to(ROOT)}: {name}"
               for folder in ("src", "tests", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))
               for name in _unbound_globals(path)]
    assert unbound == []
