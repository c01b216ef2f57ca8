"""The benchmark tracer's targets resolve against the package.

`perfbench/tracing.py` patches tribeta functions by module and name, so a
rename breaks `perfbench/run.py --trace 1`.  The tracer module is loaded
from its file, read as it is, and every `TARGETS` entry is looked up.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    unresolved = []
    for module_name, attr, name, _ in _tracing(monkeypatch).TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = getattr(owner, cls_name, None)
            target = vars(target).get(meth) if target is not None else None
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            unresolved.append(f"{name}: {module_name}.{attr}")
    assert unresolved == []
