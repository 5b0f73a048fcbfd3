"""Every name the benchmark's tracer wraps still exists in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracer_targets():
    """``TARGETS`` of bench/tracing.py, loaded from its file as it stands."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def resolves(modname, attr):
    """Whether ``attr`` resolves in ``modname`` as ``Tracer.install`` looks
    it up: a dotted name is a method defined on the class itself."""
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return meth in vars(getattr(owner, cls_name, object))
    return callable(getattr(owner, attr, None))


def test_every_traced_name_resolves():
    missing = [f"{modname}.{attr}" for modname, attr, _ in tracer_targets()
               if not resolves(modname, attr)]
    assert not missing, f"bench/tracing.py traces names the package lacks: {missing}"
