"""Every public top-level function and class of the package is used by the
package itself: another module of ``src/timedplan`` imports it by name, or
its own module names it outside the name's own definition, so a recursive
call does not count.  An attribute of the same name (``a.locations``) or a
same-named local in another module is not a use.  Every public method and
property of a class is read as an attribute (``p.has_transition``) by some
module of the package outside the member's own body.  A name only the
tests reach is dead surface; move it to ``tests/helpers.py`` or delete it.
Every name a module imports at its top level is read by that module, so no
import is kept only for others to reach through it.  Callers import from
the modules: the package root binds ``__version__`` alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "timedplan"

# names kept although no module refers to them, each for a stated reason
ALLOWED = {
    "accepts": "exact lasso-word membership, the reference of criteria 1, 3 and 7",
    "lemma2_check": "the paper's Lemma 2 bound, checked by the tests",
}

# public methods and properties kept although no module reads them, each for
# a stated reason
ALLOWED_MEMBERS = {
    "BuchiWTS.n_explored": "the budget counter of BuchiWTS and SyncProduct, "
    "which the benchmark's span hook and the budget tests read",
    "Box.distance": "the scalar reference that boxes_distance and the "
    "successor tables are tested against",
    "CellDecomposition.cell": "the bounds-checked reference box that the "
    "array corners are tested against",
    "Box.center": "the scalar reference for make_controller's target arithmetic",
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


def test_no_public_method_is_unused_by_the_package():
    defined = set()  # (class, member)
    read = set()  # (attribute, the (class, member) whose body reads it, or None)
    for _, tree in _modules():
        owner = {}  # id(node) -> the (class, member) whose body holds the node
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    if isinstance(item, ast.FunctionDef):
                        if not item.name.startswith("_"):
                            defined.add((top.name, item.name))
                        owner.update((id(node), (top.name, item.name)) for node in ast.walk(item))
        read.update(
            (node.attr, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    unused = {
        f"{c}.{m}" for c, m in defined
        if not any(attr == m and where != (c, m) for attr, where in read)
    }
    assert unused == set(ALLOWED_MEMBERS)


def test_every_module_reads_what_it_imports():
    unread = set()
    for module, tree in _modules():
        imported = set()
        for top in tree.body:
            if isinstance(top, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in top.names)
            elif isinstance(top, ast.ImportFrom) and top.module != "__future__":
                imported.update(a.asname or a.name for a in top.names)
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread.update(f"{module}.{name}" for name in imported if name not in read)
    assert unread == set()


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


def test_one_rule_builds_every_product_lasso():
    # each lasso of the acceptance product is a breadth-first stem plus the
    # shortest cycle through its entry, and only buchi._lasso puts them together
    tree = ast.parse((PACKAGE / "buchi.py").read_text(encoding="utf-8"))
    naming = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in ("tree_path", "shortest_cycle"):
                naming.add(getattr(top, "name", None))
    assert naming == {"_lasso"}


def test_one_depth_first_pass_in_the_search():
    # emptiness and the cycle marks share one Tarjan pass: only one function
    # of search.py runs a depth-first stack of successor iterators
    tree = ast.parse((PACKAGE / "search.py").read_text(encoding="utf-8"))
    naming = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "iter" and node.args
                and isinstance(node.args[0], ast.Call)
                and getattr(node.args[0].func, "id", None) == "succ"
            ):
                naming.add(getattr(top, "name", None))
    assert naming == {"_tarjan"}
