"""Analysis report assembly and serialization (JSON / key-value CSV).

Reports embed the full configuration and seed, so any report can be
reproduced exactly. Serialization is deterministic: identical runs produce
byte-identical output.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .graph import Graph
from .inference import (
    DensitySummary,
    StructureVerdict,
    density_summary,
    group_size_posterior,
    membership_by_name,
)
from .model import Hyperparameters
from .sampler import ChainConfig, PosteriorSamples

SCHEMA_VERSION = 1


def edge_list_sha256(g: Graph) -> str:
    return hashlib.sha256(g.to_edge_list().encode()).hexdigest()


def _hyper_dict(h: Hyperparameters) -> dict:
    pi = np.asarray(h.pi)
    pi_echo = float(pi[0]) if len(set(pi.tolist())) == 1 else pi.tolist()
    return {
        "a0_11": h.a0_11, "b0_11": h.b0_11,
        "a0_12": h.a0_12, "b0_12": h.b0_12,
        "a0_22": h.a0_22, "b0_22": h.b0_22,
        "pi": pi_echo,
    }


def _chain_dict(cfg: ChainConfig) -> dict:
    return {
        "total_samples": cfg.total_samples,
        "burn_in": cfg.burn_in,
        "thin": cfg.thin,
        "seed": cfg.seed,
        "init": cfg.init,
        "chains": cfg.chains,
        "coassign": cfg.coassign,
    }


def verdict_dict(v: StructureVerdict) -> dict:
    return {
        "p_assortative": v.p_assortative,
        "p_core_periphery": v.p_core_periphery,
        "p_disassortative": v.p_disassortative,
        "n_samples": v.n_samples,
        "per_chain": [list(row) for row in v.per_chain] if v.per_chain else None,
    }


def _density_dict(d: DensitySummary) -> dict:
    out = {"bins": len(d.p11.mass)}
    for name, comp in (("p11", d.p11), ("p12", d.p12), ("p22", d.p22)):
        out[name] = {
            "mean": comp.mean,
            "sd": comp.sd,
            "q025": comp.q025,
            "median": comp.median,
            "q975": comp.q975,
            "bin_edges": comp.bin_edges.tolist(),
            "mass": comp.mass.tolist(),
        }
    out["exceedance"] = {
        "p11_gt_p12": d.prob_p11_gt_p12,
        "p12_gt_p22": d.prob_p12_gt_p22,
        "p11_gt_p22": d.prob_p11_gt_p22,
    }
    return out


def build_analysis_report(
    g: Graph,
    source: str,
    h: Hyperparameters,
    cfg: ChainConfig,
    samples: PosteriorSamples,
    verdict: StructureVerdict,
    bins: int = 50,
    duration_seconds: float | None = None,
) -> dict:
    """The full analysis report as a JSON-ready dict with stable key order."""
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
            "chain": _chain_dict(cfg),
        },
        "verdict": verdict_dict(verdict),
        "membership": membership_by_name(samples, g),
        "group_size_posterior": group_size_posterior(samples).tolist(),
        "density": _density_dict(density_summary(samples, bins)),
        "swap_acceptance_rate": samples.swap_acceptance_rate,
    }
    if duration_seconds is not None:
        report["duration_seconds"] = duration_seconds
    return report


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
    """Key-value CSV: nested keys joined with dots, lists joined with ';'."""
    lines = ["key,value"]
    for key, value in _flat_items("", report):
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def traces_csv(samples: PosteriorSamples) -> str:
    """Retained (p11, p12, p22) draws in chain order, one row per draw."""
    lines = ["draw,p11,p12,p22"]
    for i, (p11, p12, p22) in enumerate(samples.draws.tolist()):
        lines.append(f"{i},{p11!r},{p12!r},{p22!r}")
    return "\n".join(lines) + "\n"


def densities_csv(d: DensitySummary) -> str:
    lines = ["component,bin_left,bin_right,mass"]
    for name, comp in (("p11", d.p11), ("p12", d.p12), ("p22", d.p22)):
        edges = comp.bin_edges.tolist()
        for left, right, mass in zip(edges, edges[1:], comp.mass.tolist()):
            lines.append(f"{name},{left!r},{right!r},{mass!r}")
    return "\n".join(lines) + "\n"
