"""Every public top-level function and class of the package is used by the
package itself: some module of ``src/timedplan`` refers to its name outside
that name's own definition, so a recursive call does not count.  A name
only the tests (or ``__init__``'s re-exports) reach is dead surface; move it
to ``tests/helpers.py`` or delete it.
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
    defined = {}
    referenced = set()
    for module, tree in _modules():
        for top in tree.body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names.discard(top.name)
                if not top.name.startswith("_"):
                    defined[top.name] = module
            referenced |= names
    unused = {f"{defined[n]}.{n}" for n in defined.keys() - referenced}
    assert unused == {f"{defined[n]}.{n}" for n in ALLOWED}
