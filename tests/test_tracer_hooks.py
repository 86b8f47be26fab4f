"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps simulator
attributes by name; a renamed or deleted one would silently read 0 in the
next traced benchmark run, so every hook must resolve."""

import importlib.util
import sys
from pathlib import Path

from refimsim import power

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_hook_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = power.general_algorithm
    t = tracer.Tracer().install()
    try:
        assert t.absent == []
        assert power.general_algorithm is not original
    finally:
        t.uninstall()
    assert power.general_algorithm is original
