"""Dead-code guard: no module of src/hqfi keeps an unused import or an unreferenced private helper."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hqfi"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(SRC.glob("*.py"))}


def _reads(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name read under node, leaving out the subtree `skip` (a definition's own body)."""
    if node is skip:
        return set()
    found = {node.id} if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store) else set()
    for child in ast.iter_child_nodes(node):
        found |= _reads(child, skip)
    return found


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _private_definitions(tree: ast.Module):
    """(name, node) for each module-level function, class or constant whose name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_modules_parse():
    assert {"bounds", "harness", "quad"} <= set(MODULES)


def test_no_unused_imports():
    unused = []
    for module, tree in MODULES.items():
        used = _reads(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused, unused


def test_every_private_helper_is_referenced():
    # a sibling reaches a helper by `from .module import _name` or by `module._name`
    imported = set()
    attributes = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    dead = []
    for module, tree in MODULES.items():
        for name, node in _private_definitions(tree):
            if name not in _reads(tree, skip=node) and (module, name) not in imported and name not in attributes:
                dead.append(f"{module}.{name}")
    assert not dead, dead


def test_bounds_reaches_the_kernel_moments_through_public_names():
    # one route to each moment: the lam steps of c2/c3 and the memos of their 2F1 values stay inside kernels
    private = {
        alias.name
        for node in ast.walk(MODULES["bounds"])
        if isinstance(node, ast.ImportFrom) and node.module == "kernels"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == {"_check_args"}


def test_harness_leaves_the_identity_staging_to_bounds():
    # the lam/alpha staging of both sides, the naming of a failed quadrature and the verdict rule stay inside bounds
    imported = {
        alias.name
        for node in ast.walk(MODULES["harness"])
        if isinstance(node, ast.ImportFrom) and node.module == "bounds"
        for alias in node.names
    }
    assert imported == {
        "_SLACK_TOL", "Variant", "_bound_values", "_identity_values", "_point", "_rows", "_sups", "_verdicts"
    }


def _functions(tree: ast.Module):
    """(qualified name, node) of every function, methods as Class.method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_the_bound_verdict_rule_lives_in_one_function():
    # slack = bound - |lhs| and holds = slack >= -tol are written once, in bounds._verdicts
    subtracts, compares = set(), set()
    for module, tree in MODULES.items():
        for name, func in _functions(tree):
            for node in ast.walk(func):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                    if isinstance(node.right, ast.Name) and node.right.id == "lhs_abs":
                        subtracts.add(f"{module}.{name}")
                if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) and node.left.id == "slack":
                    if any(isinstance(op, ast.GtE) for op in node.ops):
                        compares.add(f"{module}.{name}")
    assert subtracts == compares == {"bounds._verdicts"}
    # the summary reads the view through its public names only
    summary = dict(_functions(MODULES["harness"]))["_summary"]
    private = {
        node.attr
        for node in ast.walk(summary)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "records"
        if node.attr.startswith("_")
    }
    assert not private, private


def test_harness_pairs_a_group_with_its_verdicts_in_one_method():
    # _BoundRecords.groups applies bounds._verdicts; the records, the summary and the JSON writer read groups()
    readers = {name for name, func in _functions(MODULES["harness"]) if "_verdicts" in _reads(func)}
    assert readers == {"_BoundRecords.groups"}
    calls = [node for node in ast.walk(MODULES["harness"]) if isinstance(node, ast.Name) and node.id == "_verdicts"]
    groups = dict(_functions(MODULES["harness"]))["_BoundRecords.groups"]
    assert calls and all(groups.lineno <= node.lineno <= groups.end_lineno for node in calls)


def test_no_module_reads_the_environment():
    # a run is fixed by its command line and its config file: no os.environ, os.getenv or os.putenv
    found = sorted(
        f"{module}:{node.lineno}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if {getattr(node, "id", None), getattr(node, "attr", None)} & {"environ", "getenv", "putenv"}
    )
    assert not found, found


def test_the_euler_integral_leaves_its_endpoint_weights_to_quad():
    # whether an endpoint weight is sampled or substituted away is decided in quad.integrate_singular
    # alone: specialfn reaches quadrature only through it, and its integral route branches on nothing
    imported = {
        alias.name
        for node in ast.walk(MODULES["specialfn"])
        if isinstance(node, ast.ImportFrom) and node.module == "quad"
        for alias in node.names
    }
    assert imported == {"integrate_singular"}
    route = dict(_functions(MODULES["specialfn"]))["_hyp2f1_integral"]
    assert not [node.lineno for node in ast.walk(route) if isinstance(node, (ast.If, ast.IfExp))]


def test_one_shape_test_picks_the_identity_record_writer():
    # the JSON writer tests a record's shape in one function, and has no encoder of its own for other shapes
    readers = {name for name, func in _functions(MODULES["harness"]) if "_IDENTITY_KEYS" in _reads(func)}
    assert readers == {"_is_identity_record"}
    encoders = [node.lineno for node in ast.walk(MODULES["harness"]) if getattr(node, "attr", None) == "JSONEncoder"]
    assert not encoders
