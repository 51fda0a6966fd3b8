"""The benchmark's tracer wraps xplain functions by module and name; every
name it lists must exist, or a traced run fails where the suite did not."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    missing = [
        f"{layer}: xplain.{mod}.{fn}"
        for layer, pairs in _tracing().LAYERS.items()
        for mod, fn in pairs
        if not callable(getattr(importlib.import_module(f"xplain.{mod}"), fn, None))
    ]
    assert missing == []
