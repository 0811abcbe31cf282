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


CENTER_READERS = ("_edge_forms", "_squared_radii", "_signed_sums")


def test_one_center_lives_in_one_object():
    # a center's integer forms, its radii histogram and its folds are
    # oracle.CenterSeries's: every call under src/ of the three functions
    # that compute them lies in that class, and no per-center result is
    # cached at module level, so oracle's one lru_cache is the plan's
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "coxpizza").glob("*.py"))}
    owners = [node for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "CenterSeries"]
    assert len(owners) == 1
    inside = {id(node) for node in ast.walk(owners[0])}
    calls = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and set(_names(node.func)) & set(CENTER_READERS)]
    assert {reader for _, call in calls for reader in _names(call.func)} >= set(CENTER_READERS)
    assert [f"{name}: {ast.unparse(call)}" for name, call in calls if id(call) not in inside] == []
    oracle = trees["oracle.py"]
    cached = [node.name for node in ast.walk(oracle) if isinstance(node, ast.FunctionDef)
              for decorator in node.decorator_list if {"lru_cache", "cache"} & set(_names(decorator))]
    assert cached == ["_pfaffian_plan"]
    assert sum(name in ("lru_cache", "cache") for name in _names(oracle)) == 1


def _fold_copies(tree):
    """The expressions of a module that rederive a family's fold numbers:
    `2 if <x>.pair_forms else 1` (the forms per edge) and `<x> + <x> % 2`
    (the Pfaffian's order)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Attribute)
                and node.test.attr == "pair_forms"
                and [getattr(node.body, "value", None), getattr(node.orelse, "value", None)] == [2, 1]):
            yield ast.unparse(node)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mod)
                and getattr(node.right.right, "value", None) == 2
                and ast.dump(node.left) == ast.dump(node.right.left)):
            yield ast.unparse(node)


def test_only_fold_parameters_derives_a_fold():
    # a family's ground size, forms per edge, k, nslots and Pfaffian order are derived once,
    # by matchings.fold_parameters: no other code builds a FoldGeometry or rederives its numbers
    paths = [path for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    builders = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and "FoldGeometry" in _names(node.func)):
            owners = [f.name for f in functions if call in ast.walk(f)]
            builders.append(f"{path.relative_to(ROOT)}:{'.'.join(owners) or '<module>'}")
    assert builders == ["src/coxpizza/matchings.py:fold_parameters"]
    copies = [f"{path.name}: {copy}" for path in sorted((ROOT / "src" / "coxpizza").glob("*.py"))
              if path.name != "matchings.py"
              for copy in _fold_copies(ast.parse(path.read_text(encoding="utf-8")))]
    assert copies == []


def _frame_copies(tree):
    """The expressions of a module that rederive the degree frame, each with
    the functions around it: a degree tested against or reduced by the root
    count (`<x> - <y>.roots`, `<x> < <y>.positive_root_count`, ...), a
    cap's top block `(<cap> - <k>) // 2`, and a block `(<d> - <literal>) // 2`
    of a fixed k."""
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            operands = [node.right]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        else:
            operands = []
        counts = any(getattr(x, "attr", None) in ("roots", "positive_root_count") for x in operands)
        halved = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                  and getattr(node.right, "value", None) == 2
                  and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub))
        top_block = halved and any("cap" in name for name in _names(node.left.left))
        literal_block = halved and isinstance(node.left.right, ast.Constant)
        if counts or top_block or literal_block:
            owners = ".".join(f.name for f in functions if node in ast.walk(f))
            kind = "top block" if top_block else "block" if literal_block else "root count"
            yield kind, f"{owners}: {ast.unparse(node)}"


def test_only_the_degree_frame_derives_the_shift_and_the_top_block():
    # the Schur shift and the test against |Phi+| are FoldGeometry.schur_shift's alone, and
    # a cap's top block m_top is oracle._require_cap's, and a degree's block m is
    # FoldGeometry.half_degree's: no other code under src/ rederives them, not even for one
    # fixed k (rootsys, which defines positive_root_count, checks its list of roots against it)
    copies = {"root count": [], "top block": [], "block": []}
    for path in sorted((ROOT / "src" / "coxpizza").glob("*.py")):
        for kind, copy in _frame_copies(ast.parse(path.read_text(encoding="utf-8"))):
            copies[kind].append(f"{path.name}:{copy}")
    assert [copy for copy in copies["root count"]
            if copy.split(":")[0] not in ("matchings.py", "rootsys.py")] == []
    assert copies["top block"] == ["oracle.py:_require_cap: (degree_cap - k) // 2"]
    assert [copy for copy in copies["block"] if not copy.startswith("matchings.py:")] == []


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


def _library_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "coxpizza").glob("*.py"))}


def test_the_quotient_has_one_schur_expansion():
    # a quotient's Schur expansion is expansion_report's (monomial_coefficients, then
    # spread_monomials for the expanded Poly): taylor.quotient reads its report entry,
    # and no second expansion of sum c_lambda s_lambda is defined under src/
    defined = [f"{name}:{node.name}" for name, tree in _library_trees().items()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name == "schur_combination"]
    assert defined == []


def test_sum2s_reads_one_center_series():
    # sum_over_2structures takes its family, dimension and k checks from one CenterSeries
    # and its value from that object: it derives no fold and checks no dimension itself
    tree = _library_trees()["oracle.py"]
    function, = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "sum_over_2structures"]
    called = Counter(name for node in ast.walk(function) if isinstance(node, ast.Call)
                     for name in _names(node.func))
    assert called["CenterSeries"] == 1
    assert [name for name in ("fold_parameters", "require_dimension", "exact_sign_fold")
            if called[name]] == []


def test_the_seed_rule_has_one_home():
    # a negative seed is refused by oracle.require_seed alone
    texts = [path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "src" / "coxpizza").glob("*.py"))]
    assert sum(text.count("seed must be non-negative") for text in texts) == 1


def _owner(functions, node):
    return ".".join(f.name for f in functions if node in ast.walk(f)) or "<module>"


def _reads_size(node):
    """Whether an expression reads a spec's rank or ambient dimension."""
    return bool({"rank", "ambient_dim"} & set(_names(node)))


def _family_frame_copies(tree):
    """The expressions of a module that rederive a family's frame, each with the
    functions around it: a family tested against "A" or "D" (`<x>.family == "A"`,
    `<x>.family in ("A", "D")`), a count of coordinate pairs `<x> * (<x> - 1)` or
    `<x> * (<x> + 1)` of a ground size, and a ball's dimension (the dimension argument of
    ball_volume, radius_power and a1k_pizza_series, or a report's "ball_dim") read off a
    spec's rank or ambient dimension."""
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    dimension_args = {"ball_volume": 0, "radius_power": 1, "a1k_pizza_series": 0}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and "family" in _names(node.left):
            literals = {sub.value for comparator in node.comparators for sub in ast.walk(comparator)
                        if isinstance(sub, ast.Constant)}
            if literals & {"A", "D"}:
                yield "family", f"{_owner(functions, node)}: {ast.unparse(node)}"
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, (ast.Add, ast.Sub))
                and getattr(node.right.right, "value", None) == 1
                and set(_names(node.right.left)) & {"rank", "ambient_dim", "ambient", "ground"}):
            factors = [node.left, getattr(node.left, "right", None)]
            if any(f is not None and ast.dump(f) == ast.dump(node.right.left) for f in factors):
                yield "pairs", f"{_owner(functions, node)}: {ast.unparse(node)}"
        elif isinstance(node, ast.Call) and set(_names(node.func)) & set(dimension_args):
            index = dimension_args[[n for n in _names(node.func) if n in dimension_args][0]]
            if len(node.args) > index and _reads_size(node.args[index]):
                yield "ball", f"{_owner(functions, node)}: {ast.unparse(node)}"
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if getattr(key, "value", None) == "ball_dim" and _reads_size(value):
                    yield "ball", f"{_owner(functions, node)}: {ast.unparse(value)}"


def test_only_rootsys_defines_the_family_frame():
    # which roots a pair of coordinates carries (rootsys.PAIR_SIGNS), |Phi+| and the balls'
    # dimension (ArrangementSpec.ball_dim, with the sum-zero relation ArrangementSpec.sum_zero)
    # are rootsys's: outside it a family is tested against "A" only by the paper's parity
    # regime and by check sign's choice of its prediction, and nothing counts pairs or reads
    # a ball's dimension off the rank or the ambient dimension
    copies = [f"{name}:{kind}:{copy}" for name, tree in _library_trees().items()
              if name != "rootsys.py" for kind, copy in _family_frame_copies(tree)]
    assert copies == ["cli.py:family:cmd_check_sign: spec.family == 'A'",
                      "taylor.py:family:_require_symbolic_regime: spec.family == 'A'"]
    frame = _library_trees()["oracle.py"]
    sampling, = [node for node in frame.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_sampling_frame"]
    assert {"ball_dim", "sum_zero"} <= set(_names(sampling))


def test_fold_geometry_reads_the_pair_table():
    # a FoldGeometry's forms per edge are the roots rootsys.PAIR_SIGNS gives a pair, and
    # edge_forms builds the forms from the geometry's signs
    from coxpizza.matchings import fold_parameters
    from coxpizza.rootsys import PAIR_SIGNS, make_spec

    functions = {node.name: node for node in _library_trees()["matchings.py"].body
                 if isinstance(node, ast.FunctionDef)}
    assert "PAIR_SIGNS" in _names(functions["fold_parameters"])
    assert "signs" in _names(functions["edge_forms"])
    for family, rank in (("A", 2), ("A", 7), ("D", 3), ("D", 6)):
        geometry = fold_parameters(make_spec(family, rank))
        assert geometry.signs is PAIR_SIGNS[family]
        assert geometry.forms == len(PAIR_SIGNS[family])


def test_the_wall_tolerance_is_defined_once():
    # a float pairing within rootsys.WALL_TOL of 0 lies on its hyperplane, for chamber_sign
    # and for the Monte Carlo sampling alike: no second 1e-12 is assigned under src/
    defined = [f"{name}:{ast.unparse(target)}" for name, tree in _library_trees().items()
               for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
               and getattr(node.value, "value", None) == 1e-12
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    assert defined == ["rootsys.py:WALL_TOL"]


def test_check_tpos_builds_its_frame_once():
    # check t-pos reads D_3's frame from one geometry: no function of conjectures that
    # builds a spec or a geometry (make_spec, fold_parameters, or a function that calls one)
    # is called inside a loop, and the t-pos functions write no literal of D_3's frame
    tree = _library_trees()["conjectures.py"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    builders = {"make_spec", "fold_parameters"}
    while True:
        grown = builders | {name for name, node in functions.items()
                            if any(isinstance(sub, ast.Call) and set(_names(sub.func)) & builders
                                   for sub in ast.walk(node))}
        if grown == builders:
            break
        builders = grown
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    in_loops = [f"{name}: {ast.unparse(sub)}" for name, node in functions.items()
                for loop in ast.walk(node) if isinstance(loop, loops)
                for part in ([*loop.body, *loop.orelse] if isinstance(loop, (ast.For, ast.While))
                             else [loop])
                for sub in ast.walk(part)
                if isinstance(sub, ast.Call) and set(_names(sub.func)) & builders]
    assert in_loops == []
    literals = [f"{name}: {ast.unparse(sub)}" for name in ("check_t_positivity", "_t_block_basis")
                for sub in ast.walk(functions[name])
                if isinstance(sub, ast.Constant) and sub.value == 6
                or isinstance(sub, ast.Call) and "c_coefficient" in _names(sub.func)
                and any(isinstance(arg, ast.Constant) for arg in sub.args)]
    assert literals == []


def test_every_library_exception_is_a_refusal_or_a_contradiction():
    # cli.main tells a failure's kind by its base class alone: a refusal is a ValueError
    # (exit 2) and an internal contradiction a coxpizza.VerificationFailure (exit 1)
    import importlib

    import coxpizza

    kinds = (ValueError, coxpizza.VerificationFailure)
    classes = {}
    for path in sorted((ROOT / "src" / "coxpizza").glob("*.py")):
        name = "coxpizza" if path.stem == "__init__" else f"coxpizza.{path.stem}"
        module = importlib.import_module(name)
        classes.update({f"{path.stem}.{cls.__name__}": cls for cls in vars(module).values()
                        if isinstance(cls, type) and issubclass(cls, BaseException)
                        and cls.__module__ == name})
    assert {"taylor.ResourceCapExceeded", "polyring.NonDivisible",
            "conjectures.OracleDisagreement"} <= set(classes)
    assert [name for name, cls in classes.items() if not issubclass(cls, kinds)] == []


def test_cli_main_imports_nothing():
    # main needs no engine module to tell a refusal from a contradiction
    tree = _library_trees()["cli.py"]
    main, = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "main"]
    assert [ast.unparse(node) for node in ast.walk(main)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []
