"""The tracer's self time excludes wrapped calls beneath a span, and unwrapping restores the bindings."""

import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from tracer import Tracer, aggregate  # noqa: E402


def test_self_time_excludes_children_and_unwrap_restores():
    mod = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)
        return 3

    def outer():
        time.sleep(0.01)
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner", count=lambda a, k, r: r)
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "missing", "missing")  # absent bindings are skipped
    assert mod.outer() == 4 and tracer.spans == []  # not recording: no spans
    tracer.recording = True
    assert mod.outer() == 4
    spans = tracer.take()
    agg = aggregate(spans)
    assert agg[("inner", None)]["count"] == 3
    parent = {s[2]: s[1] for s in spans}
    ids = {s[2]: s[0] for s in spans}
    assert parent["inner"] == ids["outer"] and parent["outer"] is None
    outer_agg = agg[("outer", None)]
    assert outer_agg["total_s"] >= 0.03
    assert 0.01 <= outer_agg["self_s"] < outer_agg["total_s"] - 0.015
    tracer.unwrap_all()
    assert mod.inner is inner and mod.outer is outer and not hasattr(mod, "missing")
