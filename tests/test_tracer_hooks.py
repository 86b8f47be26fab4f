"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps simulator
attributes by name and reads counts from some of their return values; a
renamed or deleted hook, or a return value it no longer parses, would
silently read 0 in the next traced benchmark run."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from refimsim import engine, power
from refimsim.presets import get_preset

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    """perfbench/tracer.py, loaded without writing bytecode under perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves(tracer):
    original = power.general_algorithm
    t = tracer.Tracer().install()
    try:
        assert t.absent == []
        assert power.general_algorithm is not original
    finally:
        t.uninstall()
    assert power.general_algorithm is original


@pytest.mark.filterwarnings("ignore:zero throughput")   # runs too short to serve everyone
@pytest.mark.parametrize("overrides", [
    {"algorithm": "refim", "feedback_period_slots": 1},
    {"algorithm": "refim", "feedback_period_slots": 3, "edge_only_feedback": True},
    {"algorithm": "general", "sched_loops": 2, "power_loops": 2},
], ids=["refim-period-1", "refim-period-3-edge-only", "general-2x2"])
def test_traced_run_counters_parse(tracer, overrides):
    sc = replace(get_preset("two-cell"), **overrides, slots=7, warmup_slots=1)
    with tracer.Tracer() as t:
        engine.run(sc)
    c = t.counters
    assert c.unreadable == set()
    assert c.bisection_calls > 0
    if sc.algorithm == "refim":
        assert c.publish_events > 0
        assert np.mean(c.coverage) > 0
