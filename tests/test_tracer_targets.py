"""The benchmark tracer's targets still exist in the package.

``perfbench/tracer.py`` wraps the public functions of every layer plus the
methods it lists in ``METHODS`` and the private functions in ``PRIVATE``.
Its ``FieldOpCounter`` wraps the operations in ``FIELD_OPS`` on every field
class of ``ualie.scalars``.  Renaming or deleting one of those breaks
``perfbench/run.py --trace 1``; these tests make that show in the tier-1
suite.
"""

import importlib
import inspect
import sys
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


def test_every_size_hook_binds_to_its_callables_positional_parameters(monkeypatch):
    """A traced call passes its arguments to the ``SIZE`` hook of its span,
    so each hook that names a traced callable must accept exactly that
    callable's positional parameters; only ``--trace 1`` runs the hooks."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    originals = {name: fn for name, _, _, fn in tracer.traced_callables()}
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    bound = 0
    for name, size_of in tracer.SIZE.items():
        if name not in originals:
            continue
        params = inspect.signature(originals[name]).parameters.values()
        args = [p.name for p in params if p.kind in positional]
        inspect.signature(size_of).bind(*args)  # TypeError when they do not bind
        bound += 1
    assert bound


def test_kernel_dim_fast_is_bound_where_the_tracer_wraps_it():
    """The tracer must find `kernel_dim_fast` under the same object in
    each namespace it patches; a module that stops importing it, or binds
    a different function, loses its calls from the trace."""
    from ualie import analysis, linalg, liecore

    for mod in (linalg, liecore, analysis):
        assert getattr(mod, "kernel_dim_fast", None) is linalg.kernel_dim_fast, mod.__name__


def test_tracer_and_field_op_counter_install_and_remove(monkeypatch):
    """``--trace 1`` patches the package in place with both probes, so a
    trim that deletes a name either one patches (a field operation of
    `ExtensionField`, say) must fail here and not only in a traced benchmark
    run; each probe must also put every original back."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    for layer in tracer.LAYERS:
        importlib.import_module(f"ualie.{layer}")
    modules = [m for n, m in sys.modules.items() if n == "ualie" or n.startswith("ualie.")]
    classes = {v for m in modules for v in vars(m).values()
               if inspect.isclass(v) and v.__module__.startswith("ualie.")}
    before = [(owner, dict(vars(owner))) for owner in [*modules, *classes]]
    for probe in (tracer.Tracer(), tracer.FieldOpCounter()):
        probe.install()
        assert probe._patches
        probe.remove()
    for owner, namespace in before:
        assert dict(vars(owner)) == namespace, owner.__name__
