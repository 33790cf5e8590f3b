"""The span recorder's self times and the namespace patching it relies on.

    python3 -m pytest perfbench
"""

import sys
from itertools import count
from pathlib import Path

import pytest

import tracing
from tracing import SpanRecorder, patched

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_self_time_is_span_minus_direct_children(monkeypatch):
    clock = count(1)
    monkeypatch.setattr(tracing, "perf_counter", lambda: float(next(clock)))
    rec = SpanRecorder()
    leaf = rec.wrap("leaf", lambda: None)
    inner = rec.wrap("inner", lambda: leaf())
    outer = rec.wrap("outer", lambda: (inner(), leaf()))
    outer()
    # clock ticks: outer 1..8, inner 2..5 holding leaf 3..4, leaf 6..7
    assert rec.self_times() == {"outer": 3.0, "inner": 2.0, "leaf": 2.0}
    assert rec.parents == [-1, 0, 1, 0]


def test_patched_reaches_every_namespace_and_restores():
    import mesoscale
    import mesoscale.sampler as sampler
    import mesoscale.synth as synth
    import mesoscale.cli as cli

    original = sampler.run_chain
    with patched("mesoscale.sampler", "run_chain", lambda fn: "wrapped") as names:
        assert {"mesoscale.run_chain", "mesoscale.sampler.run_chain",
                "mesoscale.synth.run_chain", "mesoscale.cli.run_chain"} <= set(names)
        assert sampler.run_chain == synth.run_chain == cli.run_chain == "wrapped"
    assert sampler.run_chain is synth.run_chain is cli.run_chain is original
    assert mesoscale.run_chain is original


def test_counters_read_work_from_results():
    pytest.importorskip("mesoscale")
    from mesoscale.datasets import load_dataset

    rec = SpanRecorder()
    with rec.installed():
        g = load_dataset("karate")
    assert rec.counts["graph.edges"] == g.m
    assert "mesoscale.datasets.parse_edge_list" in rec.patched
