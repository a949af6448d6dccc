"""Every public name in rcmlab has a caller outside the tests.

A public module-level function or class, and every public method, must be
used in ``src/rcmlab`` outside its own definition or in ``perfbench/``,
unless it is one of the documented checks and oracles in ``ALLOWED``.  A
module-level name counts as used where it appears as an attribute anywhere,
or as a bare name in its own module or in a module that imports it; a
method counts as used where it appears as an attribute.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rcmlab"

# The paper's hypothesis checks, the independent oracles tests compare
# against, the documented .rcm reader, the model's mu(x) and nu(x), and
# poisson_weights, which the benchmark tracer binds at import.
ALLOWED = {
    "chaining.chain_scale_threshold",
    "envelopes.composite_threshold",
    "environment.mu",
    "environment.nu",
    "environment.read_field",
    "environment.shift",
    "green.green_cutoff_radius",
    "green.green_decomposition",
    "green.quenched_bound_check",
    "green.srw_green",
    "kernel.simulate_walk",
    "kernel.spectral_oracle",
    "lattice.HyperRectangle.contains",
    "lattice.covering_rectangles",
    "moments.association_check",
    "moments.mixing_decay",
    "moments.n1_tail",
    "poisson.chernoff_check",
    "poisson.poisson_weights",
}


def _names(node):
    return Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))


def _attributes(node):
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _imports(tree):
    """(module, name) for every ``from [rcmlab.]module import name`` in ``tree``."""
    return {(sub.module.rsplit(".", 1)[-1], alias.name) for sub in ast.walk(tree)
            if isinstance(sub, ast.ImportFrom) and sub.module is not None
            for alias in sub.names}


def _parse(paths):
    return {path: ast.parse(path.read_text()) for path in paths}


def _definitions(tree, module):
    """(qualified name, node, is method) for every public function, class
    and method of a module, qualified as module[.Class].name."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield f"{module}.{node.name}.{m.name}", m, True


def _uncalled():
    package = _parse(sorted(PACKAGE.glob("*.py")))
    trees = {**package, **_parse(sorted((ROOT / "perfbench").glob("*.py")))}
    attributes = sum((_attributes(tree) for tree in trees.values()), Counter())
    names = {path: _names(tree) for path, tree in trees.items()}
    imports = {path: _imports(tree) for path, tree in trees.items()}
    out = []
    for path, tree in package.items():
        for qualified, node, is_method in _definitions(tree, path.stem):
            name = node.name
            uses = attributes[name] - _attributes(node)[name]
            if not is_method:
                uses += names[path][name] - _names(node)[name]
                uses += sum(names[other][name] for other in trees
                            if other != path and (path.stem, name) in imports[other])
            if uses <= 0:
                out.append(qualified)
    return out


def test_public_names_have_callers():
    uncalled = [name for name in _uncalled() if name not in ALLOWED]
    assert not uncalled, f"public names only tests call: {uncalled}"


def test_allowed_names_exist():
    defined = {qualified for path, tree in _parse(PACKAGE.glob("*.py")).items()
               for qualified, _, _ in _definitions(tree, path.stem)}
    assert ALLOWED <= defined, sorted(ALLOWED - defined)
