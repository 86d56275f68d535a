"""Every public top-level function and class of the package is used by the
package itself: another module of ``src/timedplan`` imports it by name, or
its own module names it outside the name's own definition, so a recursive
call does not count.  An attribute of the same name (``a.locations``) or a
same-named local in another module is not a use.  A name only the tests
reach is dead surface; move it to ``tests/helpers.py`` or delete it.
Callers import from the modules: the package root binds ``__version__``
alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "timedplan"

# names kept although no module refers to them, each for a stated reason
ALLOWED = {
    "accepts": "exact lasso-word membership, the reference of criteria 1, 3 and 7",
    "gor": "guard disjunction for hand-built automata in the acceptance tests",
    "lemma2_check": "the paper's Lemma 2 bound, checked by the tests",
}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_no_public_name_is_unused_by_the_package():
    defined = set()
    used = set()  # (module, name)
    for module, tree in _modules():
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if not own.startswith("_"):
                    defined.add((module, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    used.update((node.module, alias.name) for alias in node.names)
    unused = {f"{m}.{n}" for m, n in defined - used}
    assert unused == {f"{m}.{n}" for m, n in defined if n in ALLOWED}


def test_package_root_binds_only_the_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.alias):  # "*" for a star import
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert bound == {"__version__"}


def test_only_the_automaton_reads_its_guards():
    # the initial and step rules live in TBA.start and TBA.step, so no other
    # module evaluates a clock constraint of its own
    naming = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "eval_guard":
                naming.add(module)
            elif isinstance(node, ast.ImportFrom):
                naming.update(module for alias in node.names if alias.name == "eval_guard")
    assert naming == {"tba"}
