"""Every layer the benchmark's tracer wraps names a function that exists.

``perfbench/tracer.py`` looks each ``(module, attr)`` of ``LAYERS`` up
in ``sexticrank`` at install time; a renamed or deleted function would
break ``perfbench/run.py --trace 1``.  This reads ``LAYERS`` and checks
each lookup the way ``Tracer.install`` makes it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for module, attr, _, _ in layers:
        mod = importlib.import_module(f"sexticrank.{module}")
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            assert fn_name in vars(getattr(mod, owner_name)), (module, attr)
        else:
            assert callable(getattr(mod, fn_name, None)), (module, attr)
