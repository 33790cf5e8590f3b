"""Command-line interface: analyze, generate, simulate, oracle.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal
numerical error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import report as report_mod
from .datasets import DATASETS, load_dataset
from .graph import Graph, GraphParseError, parse_edge_list
from .inference import (
    ENUMERATION_LIMIT,
    classify_structure,
    density_summary,
    exact_structure_posterior,
)
from .model import BlockProbs, Hyperparameters
from .sampler import ChainConfig, require_chain_memory, require_memory, run_chain
from .synth import GeneratorSpec, SweepSpec, generate_sbm, run_sweep, sweep_table_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

PAPER_GRID = tuple(np.linspace(0.05, 0.25, 9).round(4).tolist())


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", help="edge-list file (two tokens per line)")
    p.add_argument("--dataset", choices=DATASETS, help="bundled dataset name")
    p.add_argument("--nodes", help="optional node-list sidecar (one name per line), "
                                   "the only way to include isolated nodes")


def _add_prior_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a0", type=float, default=1.0, help="Beta shape a for all blocks")
    p.add_argument("--b0", type=float, default=1.0, help="Beta shape b for all blocks")
    for blk in ("11", "12", "22"):
        p.add_argument(f"--a0-{blk}", type=float, default=None,
                       help=f"override Beta shape a for block {blk}")
        p.add_argument(f"--b0-{blk}", type=float, default=None,
                       help=f"override Beta shape b for block {blk}")
    p.add_argument("--pi", type=float, default=0.5,
                   help="prior probability of group 1 for every node; reports "
                        "call the group with p11 >= p22 \"group 1\"")


def _add_chain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=15000, help="total MCMC iterations")
    p.add_argument("--burn-in", type=int, default=5000, help="iterations to discard")
    p.add_argument("--thin", type=int, default=1, help="retain every thin-th draw")
    p.add_argument("--chains", type=int, default=1, help="independent chains to pool")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--init", choices=("random", "degree"), default="random",
                   help="label initialization")
    p.add_argument("--coassign", action="store_true",
                   help="tally pairwise co-assignment as float64 exact counts "
                        "(8*n^2 bytes); the report only echoes this setting, "
                        "the matrix is reachable through "
                        "mesoscale.coassignment_matrix")


def _bins(text: str) -> int:
    """--bins, checked here so that a bad value fails before any sampling."""
    try:
        bins = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if bins < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {bins}")
    return bins


def _load_graph(args) -> tuple[Graph, str]:
    if args.dataset and args.path:
        raise ValueError("give either a path or --dataset, not both")
    if args.dataset:
        return load_dataset(args.dataset), f"dataset:{args.dataset}"
    if not args.path:
        raise ValueError("an edge-list path or --dataset is required")
    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphParseError(f"cannot read {args.path}: {exc}") from exc
    node_list = None
    if args.nodes:
        try:
            node_list = Path(args.nodes).read_text(encoding="utf-8").split()
        except OSError as exc:
            raise GraphParseError(f"cannot read {args.nodes}: {exc}") from exc
    return parse_edge_list(text, node_list=node_list), args.path


def _hyper_from_args(args, n: int) -> Hyperparameters:
    def pick(override, default):
        return default if override is None else override

    return Hyperparameters(
        a0_11=pick(args.a0_11, args.a0), b0_11=pick(args.b0_11, args.b0),
        a0_12=pick(args.a0_12, args.a0), b0_12=pick(args.b0_12, args.b0),
        a0_22=pick(args.a0_22, args.a0), b0_22=pick(args.b0_22, args.b0),
        pi=np.full(n, args.pi),
    )


def _chain_from_args(args) -> ChainConfig:
    return ChainConfig(
        total_samples=args.samples,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=args.seed,
        init="random_labels" if args.init == "random" else "degree_split",
        chains=args.chains,
        coassign=args.coassign,
    )


def _check_outputs(*paths: str | None) -> None:
    """Refuse, before any work, an output whose directory does not exist."""
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise ValueError(f"cannot write {path}: no directory {Path(path).parent}")


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    _check_outputs(args.out, args.emit_traces, args.emit_densities)
    g, source = _load_graph(args)
    h = _hyper_from_args(args, g.n)
    cfg = _chain_from_args(args)
    # every array the command builds, checked before sampling; each of the
    # three density histograms keeps a float64 edge and mass per bin
    require_chain_memory(g.n, cfg)
    require_memory(48 * args.bins, f"--bins {args.bins}")
    t0 = time.perf_counter()
    samples = run_chain(g, h, cfg)
    duration = time.perf_counter() - t0
    verdict = classify_structure(samples)
    report = report_mod.build_analysis_report(
        g, source, h, cfg, samples, verdict, bins=args.bins,
        duration_seconds=duration if args.timing else None,
    )
    text = (report_mod.report_json(report) if args.format == "json"
            else report_mod.report_csv(report))
    _write_out(text, args.out)
    if args.emit_traces:
        Path(args.emit_traces).write_text(report_mod.traces_csv(samples),
                                          encoding="utf-8")
    if args.emit_densities:
        Path(args.emit_densities).write_text(
            report_mod.densities_csv(density_summary(samples, args.bins)),
            encoding="utf-8")
    print(f"analyzed {source}: n={g.n} m={g.m} in {duration:.1f}s", file=sys.stderr)
    return EXIT_OK


def cmd_generate(args) -> int:
    _check_outputs(f"{args.out}.edges")
    if args.sizes:
        n1, n2 = (int(t) for t in args.sizes.split(","))
        sizes = (n1, n2)
    else:
        n1 = round(args.frac * args.n)
        sizes = (n1, args.n - n1)
    spec = GeneratorSpec(
        n=args.n, sizes=sizes,
        p=BlockProbs(args.p11, args.p12, args.p22), seed=args.seed,
    )
    g, truth = generate_sbm(spec)
    edges_path = Path(f"{args.out}.edges")
    labels_path = Path(f"{args.out}.labels")
    edges_path.write_text(g.to_edge_list(), encoding="utf-8")
    labels_path.write_text(
        "".join(f"{g.names[i]} {truth[i]}\n" for i in range(g.n)), encoding="utf-8")
    print(f"wrote {edges_path} ({g.n} nodes, {g.m} edges) and {labels_path}",
          file=sys.stderr)
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, ...]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid range must be start:stop:step")
        start, stop, step = (float(t) for t in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = int(round((stop - start) / step)) + 1
        return tuple(np.linspace(start, start + step * (count - 1), count)
                     .round(10).tolist())
    return tuple(float(t) for t in text.split(","))


def cmd_simulate(args) -> int:
    _check_outputs(args.out, args.raw_out)
    grid = _parse_grid(args.grid) if args.grid else PAPER_GRID
    n1 = round(args.frac * args.n)
    spec = SweepSpec(
        n=args.n, sizes=(n1, args.n - n1),
        p11=args.p11, p22=args.p22,
        p12_grid=grid, replicates=args.replicates,
        chain=ChainConfig(total_samples=args.samples, burn_in=args.burn_in,
                          seed=0),
        seed=args.seed,
    )
    rows = run_sweep(spec)
    _write_out(sweep_table_csv(rows), args.out)
    if args.raw_out:
        lines = ["p12,replicate,p_assortative,p_cp,p_disassortative"]
        for row in rows:
            for rep, (pa, pcp, pd) in enumerate(row.replicate_probs):
                lines.append(f"{row.p12:.6g},{rep},{pa!r},{pcp!r},{pd!r}")
        Path(args.raw_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_oracle(args) -> int:
    _check_outputs(args.out)
    g, source = _load_graph(args)
    h = _hyper_from_args(args, g.n)
    verdict = exact_structure_posterior(g, h, quadrature_points=args.quad_points)
    payload = {
        "schema_version": report_mod.SCHEMA_VERSION,
        "input": {"source": source, "n": g.n, "m": g.m},
        "verdict": report_mod.verdict_dict(verdict),
        "quadrature_points": args.quad_points,
    }
    _write_out(report_mod.report_json(payload), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mesoscale",
        description="Bayesian posterior probabilities of assortative, "
                    "disassortative, and core-periphery structure in a network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="fit a graph and report the posterior")
    _add_input_args(p)
    _add_prior_args(p)
    _add_chain_args(p)
    p.add_argument("--bins", type=_bins, default=50,
                   help="density histogram bins (at least 2)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--emit-traces", metavar="FILE",
                   help="write retained (p11,p12,p22) draws as CSV")
    p.add_argument("--emit-densities", metavar="FILE",
                   help="write density histograms as CSV")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock duration in the report "
                        "(off by default to keep reports byte-reproducible)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="sample a two-block SBM graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--frac", type=float, default=0.4,
                   help="fraction of nodes in block 1")
    p.add_argument("--sizes", help="explicit block sizes n1,n2 (overrides --frac)")
    p.add_argument("--p11", type=float, required=True)
    p.add_argument("--p12", type=float, required=True)
    p.add_argument("--p22", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="sbm", help="output prefix")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="p12 sweep with replicate averaging")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--frac", type=float, default=0.4)
    p.add_argument("--p11", type=float, default=0.20)
    p.add_argument("--p22", type=float, default=0.10)
    p.add_argument("--grid", help="p12 values: comma list or start:stop:step "
                                  "(default 0.05:0.25:0.025)")
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--samples", type=int, default=1500)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="sweep table CSV path (default stdout)")
    p.add_argument("--raw-out", metavar="FILE",
                   help="also write per-replicate verdicts as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="exact verdict by label enumeration "
                                      f"(n <= {ENUMERATION_LIMIT})")
    _add_input_args(p)
    _add_prior_args(p)
    p.add_argument("--quad-points", type=int, default=4097,
                   help="Simpson quadrature points on [0, 1] for the p12 "
                        "integral (any number >= 3)")
    p.add_argument("--out", help="write the verdict here instead of stdout")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except GraphParseError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:  # OSError: an output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
