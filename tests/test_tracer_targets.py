"""The benchmark tracer's targets still exist in the package.

``perfbench/tracer.py`` wraps the public functions of every layer plus the
methods it lists in ``METHODS`` and the private functions in ``PRIVATE``.
Renaming or deleting one of those breaks ``perfbench/run.py --trace 1``;
this test makes that show in the tier-1 suite.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_callable_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    names = [name for name, _, _, _ in tracer.traced_callables()]
    assert len(names) == len(set(names))
    for layer, privates in tracer.PRIVATE.items():
        for attr in privates:
            assert f"{layer.lstrip('_')}.{attr}" in names
