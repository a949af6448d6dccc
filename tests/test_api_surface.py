"""Every public name in rcmlab has a caller outside the tests.

A public module-level function or class, and every public method, must be
used in ``src/rcmlab`` outside its own definition or in ``perfbench/``,
unless it is one of the documented checks and oracles in ``ALLOWED``.  A
module-level name counts as used where it appears as an attribute anywhere,
or as a bare name in its own module or in a module that imports it; a
method counts as used where it appears as an attribute.

Every defaulted parameter of a function in ``src/rcmlab`` must be passed by
some call in ``src/rcmlab``, ``perfbench/`` or ``tests/``: a default no call
changes is a constant.
"""

import ast
import math
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


def _calls(trees):
    """Callee name -> (positional count, keyword names, passes *args or
    **kwargs) for every call in ``trees``, the callee named as a bare name
    or an attribute."""
    calls = {}
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        star = (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords))
        calls.setdefault(name, []).append((len(call.args), {k.arg for k in call.keywords}, star))
    return calls


def _unset_defaults():
    """module.function(parameter) for every defaulted parameter of a function
    in the package that no call in the package, perfbench or the tests passes.
    A method's first parameter is its instance or class, never passed by
    position."""
    package = _parse(sorted(PACKAGE.glob("*.py")))
    callers = _parse([*sorted((ROOT / "perfbench").glob("*.py")),
                      *sorted((ROOT / "tests").glob("*.py"))])
    calls = _calls([*package.values(), *callers.values()])
    out = []
    for path, tree in package.items():
        methods = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body}
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            params = fn.args.posonlyargs + fn.args.args
            skip = id(fn) in methods
            first = len(params) - len(fn.args.defaults)
            defaulted = [(i - skip, p.arg) for i, p in enumerate(params) if i >= first]
            defaulted += [(math.inf, p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            for index, param in defaulted:
                if not any(star or index < n or param in names
                           for n, names, star in calls.get(fn.name, ())):
                    out.append(f"{path.stem}.{fn.name}({param})")
    return out


def test_every_default_is_passed_somewhere():
    unset = _unset_defaults()
    assert not unset, f"defaulted parameters no call passes: {unset}"
