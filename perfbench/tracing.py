"""Outside-in instrumentation of the mesoscale package.

The package is never edited. Instead a public function is replaced by a
wrapper in every ``mesoscale`` namespace that holds it, because modules
import functions by name: ``sampler.run_chain`` looks up ``label_sweep`` in
``mesoscale.sampler``, ``cli`` and ``synth`` hold their own ``run_chain``,
``inference`` holds ``block_counts``, and so on. Replacing the attribute in
the defining module alone would miss those call sites.

``Tap`` keeps the last return value of one function so that the benchmark
can check outputs the CLI does not print. ``SpanRecorder`` records one span
per call, keeps the spans in memory, and derives self times (span minus the
spans of its direct children) when the run ends.
"""

from __future__ import annotations

import sys
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mesoscale" or name.startswith("mesoscale."))]


@contextmanager
def patched(module_name: str, attr: str, make_wrapper):
    """Replace ``module_name.attr`` by ``make_wrapper(current)`` everywhere it is bound.

    Yields the names of the namespaces that were patched; restores them on exit.
    """
    current = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(current)
    hits = [(m, name) for m in _namespaces()
            for name, value in list(vars(m).items()) if value is current]
    for m, name in hits:
        setattr(m, name, wrapper)
    try:
        yield sorted(f"{m.__name__}.{name}" for m, name in hits)
    finally:
        for m, name in hits:
            setattr(m, name, current)


class Tap:
    """Holds the most recent return value of a wrapped function."""

    def __init__(self):
        self.last = None

    def wrap(self, fn):
        def tapped(*args, **kwargs):
            self.last = fn(*args, **kwargs)
            return self.last
        return tapped

    def take(self):
        value, self.last = self.last, None
        return value


# (module, function, span name); several functions may share a span name
LAYERS = (
    ("mesoscale.graph", "parse_edge_list", "graph.parse"),
    ("mesoscale.synth", "generate_sbm", "synth.generate"),
    ("mesoscale.model", "block_counts", "model.block_counts"),
    ("mesoscale.model", "log_marginal_likelihood", "model.log_marginal"),
    ("mesoscale.model", "log_prior_labels", "model.log_prior_labels"),
    ("mesoscale.sampler", "run_chain", "sampler.run_chain"),
    ("mesoscale.sampler", "init_chain", "sampler.init_chain"),
    ("mesoscale.sampler", "label_sweep", "sampler.label_sweep"),
    ("mesoscale.sampler", "gibbs_update_probs", "sampler.gibbs"),
    ("mesoscale.sampler", "enforce_identifiability", "sampler.relabel"),
    ("mesoscale.inference", "exact_structure_posterior", "inference.oracle"),
    ("mesoscale.inference", "classify_structure", "inference.classify"),
    ("mesoscale.inference", "density_summary", "inference.density"),
    ("mesoscale.report", "build_analysis_report", "report.build"),
    ("mesoscale.report", "report_json", "report.serialize"),
    ("mesoscale.report", "traces_csv", "report.serialize"),
)


def _count_parse(counts, graph):
    counts["graph.edges"] += graph.m


def _count_sweep(counts, result):
    state, accepted = result
    counts["sampler.node_updates"] += len(state.c)
    counts["sampler.flips_accepted"] += accepted


def _count_chain(counts, samples):
    counts["sampler.retained_draws"] += samples.retained


# work counted at a span boundary, read from the call's result
COUNTERS = {
    "graph.parse": _count_parse,
    "sampler.label_sweep": _count_sweep,
    "sampler.run_chain": _count_chain,
}


class SpanRecorder:
    """Spans of the traced calls, in call order, with the op they belong to."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, int] = {"graph.edges": 0, "sampler.node_updates": 0,
                                       "sampler.flips_accepted": 0,
                                       "sampler.retained_draws": 0}
        self.patched: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        names, parents, op_ids = self.names, self.parents, self.op_ids
        starts, ends, stack = self.starts, self.ends, self._stack
        counter = COUNTERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
            if counter is not None:
                counter(counts, result)
            return result
        return traced

    def op(self, op_id: int, fn, *args):
        """Run one benchmark op as a root span so its children share its id."""
        self.op_id = op_id
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op_id = -1

    @contextmanager
    def installed(self):
        """Trace every function in LAYERS that the package still defines."""
        with ExitStack() as stack:
            for module_name, attr, span in LAYERS:
                module = sys.modules.get(module_name)
                if module is None or not hasattr(module, attr):
                    continue
                self.patched += stack.enter_context(patched(
                    module_name, attr, lambda fn, span=span: self.wrap(span, fn)))
            yield self

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children's durations."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        nested = parents >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child
        totals: dict[str, float] = {}
        for name, t in zip(self.names, own.tolist()):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name in self.names:
            out[name] = out.get(name, 0) + 1
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,name,parent,op,start_s,end_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, (name, parent, op, s, e) in enumerate(zip(
                    self.names, self.parents, self.op_ids, self.starts, self.ends)):
                f.write(f"{i},{name},{parent},{op},{s - t0:.9f},{e - t0:.9f}\n")

