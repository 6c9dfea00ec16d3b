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


def test_kernel_dim_fast_is_bound_where_the_tracer_wraps_it():
    """The tracer must find `kernel_dim_fast` under the same object in
    each namespace it patches; a module that stops importing it, or binds
    a different function, loses its calls from the trace."""
    from ualie import analysis, linalg, liecore

    for mod in (linalg, liecore, analysis):
        assert getattr(mod, "kernel_dim_fast", None) is linalg.kernel_dim_fast, mod.__name__
