"""The per-layer tracer in ``perfbench/`` wraps library callables by owner and
attribute name and skips a name it cannot find, so a renamed or deleted
function would silently drop its per-layer metric. This checks that the
tracer finds every target."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        missing = [
            (name, attr)
            for name, _, owner, attr in layers.TARGETS
            if not tracer.patch(owner, attr, name)
        ]
    finally:
        tracer.restore()
    assert layers.TARGETS and not missing
