"""The benchmark tracer patches program functions by (module, attribute) name.

A refactor that renames or removes one of them would silently drop a
traced layer, so every name in ``bench/tracing.py``'s ``WRAPS`` must still
resolve in ``birkdag``.  The tracer file is only read, never modified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_attribute_resolves():
    wraps = load_tracing().WRAPS
    assert wraps
    missing = [
        f"birkdag.{mod_name}.{attr}"
        for mod_name, attr, *_ in wraps
        if not callable(getattr(importlib.import_module(f"birkdag.{mod_name}"), attr, None))
    ]
    assert not missing, missing
