"""The library names that the benchmark's traced run wraps still exist.

bench/tracing.py leaves a metric out of a traced run when the name it wraps
no longer resolves, so renaming or deleting a traced function would drop a
per-layer metric without any error.  This test reads tracing.py (it writes
nothing under bench/) and resolves every target it names.
"""

from __future__ import annotations

import types
from pathlib import Path

import ffba.cli  # noqa: F401  -- loads every module the tracer looks in

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing() -> types.ModuleType:
    mod = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(mod))
    return mod


def test_every_traced_target_resolves():
    tracing = _tracing()
    targets = [t for table in (tracing.SPANS, tracing.COUNTERS)
               for group in table.values() for t in group]
    targets += list(tracing.EXTRAS)
    tracer = tracing.Tracer()
    assert len(targets) > 30
    assert [t for t in targets if tracer._resolve(t) is None] == []
