"""Analysis and oracle report assembly and serialization (JSON / key-value CSV).

Reports embed the full configuration and seed, so any report can be
reproduced exactly. Serialization is deterministic: identical runs produce
byte-identical output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, fields

import numpy as np

from .graph import Graph
from .inference import StructureVerdict, group_size_posterior, membership_probabilities
from .model import Hyperparameters
from .sampler import ChainConfig, PosteriorSamples

SCHEMA_VERSION = 1


def edge_list_sha256(g: Graph) -> str:
    return hashlib.sha256(g.to_edge_list().encode()).hexdigest()


def _hyper_dict(h: Hyperparameters) -> dict:
    """The six Beta shapes and pi, in field order; not the derived fields."""
    return {f.name: getattr(h, f.name) for f in fields(h) if f.init}


def build_analysis_report(
    g: Graph,
    source: str,
    h: Hyperparameters,
    cfg: ChainConfig,
    samples: PosteriorSamples,
    verdict: StructureVerdict,
    density: dict,
    duration_seconds: float | None = None,
) -> dict:
    """The full analysis report as a JSON-ready dict with stable key order;
    density is the block density_summary returns."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": {
            "source": source,
            "n": g.n,
            "m": g.m,
            "edge_list_sha256": edge_list_sha256(g),
        },
        "config": {
            "hyperparameters": _hyper_dict(h),
            "chain": asdict(cfg),
        },
        "verdict": asdict(verdict),
        "membership": dict(zip(g.names, membership_probabilities(samples).tolist())),
        "group_size_posterior": group_size_posterior(samples).tolist(),
        "density": density,
        "swap_acceptance_rate": float(np.mean(samples.chain_acceptance)),
    }
    if duration_seconds is not None:
        report["duration_seconds"] = duration_seconds
    return report


def build_oracle_report(g: Graph, source: str, h: Hyperparameters, verdict: StructureVerdict,
                        quadrature_points: int, quadrature_error: float) -> dict:
    """The exact oracle's report as a JSON-ready dict with stable key order."""
    return {
        "schema_version": SCHEMA_VERSION,
        "input": {"source": source, "n": g.n, "m": g.m},
        "config": {"hyperparameters": _hyper_dict(h)},
        "verdict": asdict(verdict),
        "quadrature_points": quadrature_points,
        "quadrature_error": quadrature_error,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _flat_items(prefix: str, obj):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flat_items(f"{prefix}.{k}" if prefix else str(k), v)
    elif isinstance(obj, (list, tuple)):
        if any(isinstance(v, (dict, list, tuple)) for v in obj):
            for i, v in enumerate(obj):
                yield from _flat_items(f"{prefix}[{i}]", v)
        else:
            yield prefix, ";".join("" if v is None else f"{v}" for v in obj)
    else:
        yield prefix, "" if obj is None else f"{obj}"


def report_csv(report: dict) -> str:
    """Key-value CSV: nested keys joined with dots, lists joined with ';'; a
    field holding a comma, quote or line break is quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([("key", "value"),
                                                    *_flat_items("", report)])
    return out.getvalue()


def traces_csv(samples: PosteriorSamples) -> str:
    """Retained (p11, p12, p22) draws in chain order, one row per draw."""
    lines = ["draw,p11,p12,p22"]
    for i, (p11, p12, p22) in enumerate(samples.draws.tolist()):
        lines.append(f"{i},{p11!r},{p12!r},{p22!r}")
    return "\n".join(lines) + "\n"


def densities_csv(density: dict) -> str:
    """The histograms of a density_summary block, one row per bin."""
    lines = ["component,bin_left,bin_right,mass"]
    for name in ("p11", "p12", "p22"):
        edges = density[name]["bin_edges"]
        for left, right, mass in zip(edges, edges[1:], density[name]["mass"]):
            lines.append(f"{name},{left!r},{right!r},{mass!r}")
    return "\n".join(lines) + "\n"
