import ast
import importlib
from pathlib import Path

import gf2hyper


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements; self-checks must raise explicitly
    package = Path(gf2hyper.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _decorator_name(node):
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def test_every_lru_cache_is_a_module_global():
    # caches are cleared by scanning module globals for cache_clear; one on
    # a method or a nested function would be missed and leak between runs.
    # Only the two shape-keyed caches remain: what is derived from an
    # operator is kept on it (`nilpotent._per_operator`), not keyed by it
    package = Path(gf2hyper.__file__).parent
    decorated = 0
    reachable = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [_decorator_name(d) for d in node.decorator_list]
                decorated += names.count("lru_cache")
        module = importlib.import_module(f"gf2hyper.{path.stem}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                if all(value is not seen for seen in reachable):
                    reachable.append(value)
    assert decorated == len(reachable), [f.__qualname__ for f in reachable]
    verify = importlib.import_module("gf2hyper.verify")
    shape_keyed = {id(verify.jordan_operator), id(verify.census)}
    assert {id(f) for f in reachable} == shape_keyed, [f.__qualname__ for f in reachable]


# public names that production code may leave uncalled, each for a reason
UNCALLED_EXPORTS = {
    "largest_hyperinvariant_inside",  # labels characteristic lattice frames (ROADMAP item 3)
    # the subspace enumerator behind the census oracles of the tests: bench/spans.py
    # times it by name
    "enumerate_subspaces",
    # the generating-set oracle: the generating-set tests use it and bench/spans.py
    # times it by name; it moves to tests/conftest.py once the benchmark stops tracing it
    "automorphism_generators",
    # the public characteristic predicate, with its full scan: production reads the
    # verdict from one _first_exit scan, or the characteristic subspaces from the
    # cover walk through the unit prefix, and bench/spans.py times it by name
    "is_characteristic",
}
# public class members that production code may leave uncalled, each for a reason
UNCALLED_MEMBERS = {
    "AnalysisDocument.from_json",  # the documented JSON round trip of `analyze --json`
}


def test_every_export_has_a_production_caller():
    # a public name or class member that only tests use belongs in the tests: every
    # export, and every public module-level function or class, exported or not
    package = Path(gf2hyper.__file__).parent
    init = ast.parse((package / "__init__.py").read_text())
    public = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    members = set()
    referenced = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        public |= {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                members |= {
                    (node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                }
    uncalled = sorted(public - referenced - UNCALLED_EXPORTS)
    assert not uncalled, uncalled
    assert UNCALLED_EXPORTS <= public - referenced
    uncalled = sorted({f"{c}.{n}" for c, n in members if n not in referenced} - UNCALLED_MEMBERS)
    assert not uncalled, uncalled
    assert UNCALLED_MEMBERS <= {f"{c}.{n}" for c, n in members}


def test_every_private_helper_is_named_outside_its_definition():
    # a private module-level function or class that no other statement of the
    # package names is dead: the tests alone cannot keep it
    package = Path(gf2hyper.__file__).parent
    statements = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            statements.append((path.name, node, names))
    private = [
        (module, node)
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    unnamed = [
        f"{module}:{node.name}"
        for module, node in private
        if not any(node.name in names for _, other, names in statements if other is not node)
    ]
    assert private and not unnamed, unnamed


def test_no_unused_module_imports():
    # a module-level import that nothing in its module reads is left over;
    # __init__.py is exempt, as its imports are the exports
    package = Path(gf2hyper.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert not found, found


def test_every_traced_name_is_a_module_level_function():
    # bench/spans.py wraps these by name with getattr; a renamed or moved function
    # would break `bench/run.py --trace 1`, so the table is read here, not imported
    spans = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    tree = ast.parse(spans.read_text(), filename=str(spans))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    ]
    package = Path(gf2hyper.__file__).parent
    missing = []
    for module, names in traced.items():
        source = ast.parse((package / f"{module}.py").read_text())
        defined = {node.name for node in source.body if isinstance(node, ast.FunctionDef)}
        missing += [f"{module}.{name}" for name in names if name not in defined]
    assert traced and not missing, missing


def _calls_by_function(tree, name):
    """The names of the module-level functions that call `name`, once per call;
    a call outside any function is listed under None."""
    found = []
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and _decorator_name(call) == name:
                found.append(owner)
    return found


def test_only_build_parser_makes_an_argument_parser():
    # a well-formed argv is read from the cli's table; a parser built per call,
    # or kept at module level, would come back as a second place that defines
    # the arguments, and a cost on every call
    package = Path(gf2hyper.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.stem}.{owner}" for owner in _calls_by_function(tree, "ArgumentParser")]
    assert found == ["cli.build_parser"]


def test_cli_leaves_the_lattice_routes_and_caps_to_classify():
    # classify._lattice picks each family's walk and its refusal; a route or cap
    # named again in the cli would be a second place that makes that choice
    routes_and_caps = {
        "_stable_lattice",
        "_hyperinvariant_lattice",
        "_monotone_shift_count",
        "hyperinvariant_lattice",
        "MOVED_BY_F",
        "MOVED_BY_UNIT",
        "SUBSPACE_ENUM_CAP",
        "_check_subspace_cap",
    }
    path = Path(gf2hyper.__file__).parent / "cli.py"
    bound = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.alias):
            bound |= {node.name, node.asname}
        elif isinstance(node, ast.Name):
            bound.add(node.id)
        elif isinstance(node, ast.Attribute):
            bound.add(node.attr)
    assert not sorted(bound & routes_and_caps), sorted(bound & routes_and_caps)
