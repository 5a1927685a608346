"""The names the benchmark's traced run wraps must exist in mubkit.

``perfbench/run.py --trace 1`` wraps every qualified name in
``perfbench/spans.TRACED``: it looks each one up with ``getattr`` and, for
a class, wraps the ``__init__`` in the class's own ``__dict__``. A rename
in ``src/`` would break that run without failing any other test. The
file is only read here, never changed.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("qualname", _traced())
def test_traced_name_resolves(qualname):
    module, attr = qualname.split(".")
    target = getattr(importlib.import_module(f"mubkit.{module}"), attr)
    if isinstance(target, type):
        assert callable(target.__dict__["__init__"])
    else:
        assert callable(target)
