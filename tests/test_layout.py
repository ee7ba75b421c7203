"""src/ holds only what the product runs.

Every module-level function, class and constant of theta_loci is referenced
by name somewhere in src/ or bench/ outside its own definition, or is public
through theta_loci.__all__.  So is every method of a class outside __all__,
unless it overrides a base class's method (the base's callers reach it).
Reference implementations that only the tests use live under tests/
(oracles.py, resolutions.py), not in the package.
"""

import ast
import importlib
from pathlib import Path

import theta_loci

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "theta_loci"

# name -> why it stays in src/ without a caller there
ALLOWED = {
    "submaximal_pfaffian_complex_p8": "ROADMAP item 8 gives it a pipeline caller",
}


def _defined(tree: ast.Module):
    """(name, node) for each module-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _names(node: ast.AST, bare: bool = True) -> set[str]:
    """Every identifier node mentions: attributes, string constants spelling
    an identifier (bench/spans.py looks names up by string) and, if bare,
    bare names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and bare:
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _trees() -> dict[Path, ast.Module]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def _unreferenced() -> set[str]:
    """Module-level names of src/theta_loci with no reference in src/ or
    bench/ outside their own definition, and not in __all__."""
    trees = _trees()
    mentions = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    out = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for name, own in _defined(tree):
            if name.startswith("__") or name in theta_loci.__all__:
                continue
            if not any(name in names for node, names in mentions if node is not own):
                out.add(f"{path.stem}.{name}")
    return out


def test_every_src_name_has_a_caller_or_is_public():
    unreferenced = _unreferenced()
    allowed = {f"complexes.{name}" for name in ALLOWED}
    assert unreferenced - allowed == set(), \
        f"only tests reach these; move them to tests/: {sorted(unreferenced - allowed)}"
    assert allowed <= unreferenced, \
        f"these now have a caller; drop them from ALLOWED: {sorted(allowed - unreferenced)}"


def _unreferenced_methods() -> set[str]:
    """Methods (dunders and overrides of a base class's method aside) of the
    classes of src/theta_loci outside __all__ with no reference in src/ or
    bench/, as an attribute or an identifier string, outside their own
    definition.  A bare name is a local, not the method."""
    trees = _trees()
    # a class body's statements are mentioned one by one, so a method's own
    # definition is one unit and a call from a sibling method counts
    units = [(unit, _names(unit, bare=False))
             for tree in trees.values() for node in tree.body
             for unit in (node.body if isinstance(node, ast.ClassDef) else [node])]
    out = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        module = importlib.import_module(f"theta_loci.{path.stem}")
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name in theta_loci.__all__:
                continue
            bases = getattr(module, node.name).__mro__[1:]
            for own in node.body:
                if not isinstance(own, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = own.name
                if name.startswith("__") or any(hasattr(base, name) for base in bases):
                    continue
                if not any(name in names for unit, names in units if unit is not own):
                    out.add(f"{path.stem}.{node.name}.{name}")
    return out


def test_every_method_of_a_private_class_has_a_caller():
    unreferenced = _unreferenced_methods()
    assert unreferenced == set(), \
        f"only tests reach these; move them to tests/: {sorted(unreferenced)}"


def test_groebner_works_on_packings_only():
    """groebner.py reads monomials as packed keys and plain packings only:
    it reaches no exponent-tuple API of poly (the attributes _exps,
    from_exponent_dict, monomial and terms), which stays at the API edge
    (parse, printing).  A local named terms is no such reach."""
    tree = ast.parse((PACKAGE / "groebner.py").read_text(encoding="utf-8"))
    names = _names(tree, bare=False) | {alias.name for node in ast.walk(tree)
                                        if isinstance(node, ast.ImportFrom)
                                        for alias in node.names}
    used = names & {"_exps", "from_exponent_dict", "monomial", "terms"}
    assert used == set(), f"groebner.py unpacks monomials through {sorted(used)}"


def test_a_cached_basis_is_written_only_onto_its_own_ideal():
    """groebner.py writes into an ideal's _gb_cache at two sites only:
    Ideal.groebner_basis, onto the ideal asked, and _saturate_variable, onto
    the Ideal it builds and returns.  A saturation that wrote a basis back
    onto an ideal it was handed would be a third site."""
    tree = ast.parse((PACKAGE / "groebner.py").read_text(encoding="utf-8"))
    writes, funcs = [], {}

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = funcs[node.name] = node
        cache = None
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            cache = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr not in ("get", "values", "items", "keys"):
            cache = node.func.value
        if isinstance(cache, ast.Attribute) and cache.attr == "_gb_cache":
            writes.append((func.name, ast.unparse(cache.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    assert writes == [("groebner_basis", "self"), ("_saturate_variable", "sat")]
    body = funcs["_saturate_variable"].body
    built = [n.value.func.id for n in body if isinstance(n, ast.Assign)
             and [ast.unparse(t) for t in n.targets] == ["sat"]]
    assert built == ["Ideal"] and ast.unparse(body[-1]) == "return sat"
