"""The benchmark's tracer wraps functions by the binding a caller reaches
them through.  A renamed or moved function must fail here, not only under
``perfbench/run.py --trace 1``.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def _load_spans():
    # executed from its source text, so nothing is written beside it
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_binding_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    for module, path, name, _ in spans.TARGETS:
        owner = importlib.import_module(f"timedplan.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{name}: timedplan.{module}.{path} is gone"
        assert callable(owner.__dict__[attr]), f"{name}: {module}.{path} not callable"
