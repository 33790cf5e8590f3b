"""Command-line interface: analyze, generate, simulate, oracle.

Exit codes: 0 success, 1 usage/config error or out of memory, 2 data error,
3 internal numerical error.
"""

from __future__ import annotations

import argparse
import re
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
    require_bins,
    require_quadrature,
)
from .model import BlockProbs, Hyperparameters
from .sampler import (
    ChainConfig,
    require_memory,
    require_run_memory,
    run_chain,
    run_memory,
)
from .synth import GeneratorSpec, SweepSpec, generate_sbm, run_sweep, sweep_table_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

PAPER_GRID = tuple(np.linspace(0.05, 0.25, 9).round(4).tolist())


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read "-inf", "-1e-3" and "-3,19" as values, not as unknown options
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse prints its usage and exits 2; the contract is one line and 1
    def error(self, message):
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
    p.add_argument("--samples", type=int, default=15000,
                   help="total MCMC iterations")
    p.add_argument("--burn-in", type=int, default=5000,
                   help="iterations to discard (fewer than --samples)")
    p.add_argument("--thin", type=int, default=1, help="retain every thin-th draw")
    p.add_argument("--chains", type=int, default=1, help="independent chains to pool")
    p.add_argument("--seed", type=_bounded(0), default=0, help="RNG seed")
    p.add_argument("--coassign", action="store_true",
                   help="tally pairwise co-assignment as float32 exact counts "
                        "(4*n^2 bytes, at most 2**23 retained draws in all "
                        "chains); the report only echoes this setting, "
                        "the tally is run_chain(...).coassign_tally")


def _bounded(low, high=None, cast=int):
    """An argparse type for numbers in [low, high] (no upper bound when high
    is None), refused at parse time. Only --seed and --frac use it: no config
    checks a seed, and --frac only splits --n. The configs check the rest."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {text!r}") from None
        if not (low <= value if high is None else low <= value <= high):  # nan too
            bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    return parse


def _sizes(text: str) -> tuple[int, int]:
    """--sizes: two block sizes n1,n2."""
    try:
        n1, n2 = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two block sizes n1,n2, got {text!r}") from None
    return n1, n2


def _load_graph(args) -> tuple[Graph, str]:
    if args.dataset and args.path:
        raise ValueError("give either a path or --dataset, not both")
    if args.dataset:
        return load_dataset(args.dataset), f"dataset:{args.dataset}"
    if not args.path:
        raise ValueError("an edge-list path or --dataset is required")
    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphParseError(f"cannot read {args.path}: {exc}") from exc
    node_list = None
    if args.nodes:
        try:
            lines = Path(args.nodes).read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphParseError(f"cannot read {args.nodes}: {exc}") from exc
        node_list = []
        for lineno, line in enumerate(lines, start=1):
            tokens = line.split()
            if len(tokens) > 1:
                raise GraphParseError(f"{args.nodes} line {lineno}: expected one "
                                      f"node name, got {len(tokens)}")
            node_list += tokens
    return parse_edge_list(text, node_list=node_list), args.path


def _hyper_from_args(args) -> Hyperparameters:
    def pick(override, default):
        return default if override is None else override

    return Hyperparameters(
        a0_11=pick(args.a0_11, args.a0), b0_11=pick(args.b0_11, args.b0),
        a0_12=pick(args.a0_12, args.a0), b0_12=pick(args.b0_12, args.b0),
        a0_22=pick(args.a0_22, args.a0), b0_22=pick(args.b0_22, args.b0),
        pi=args.pi,
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
    h = _hyper_from_args(args)
    cfg = ChainConfig(
        total_samples=args.samples, burn_in=args.burn_in, thin=args.thin,
        seed=args.seed, chains=args.chains, coassign=args.coassign)
    require_bins(args.bins)
    g, source = _load_graph(args)
    # the three density histograms keep 48 bytes a bin and traces_csv's text 281
    # a draw (tracemalloc peak, 10**6 draws), next to run_chain's own arrays
    parts = run_memory(g.n, cfg)
    parts[f"--bins {args.bins}"] = 48 * args.bins
    if args.emit_traces:
        parts["--emit-traces"] = 281 * cfg.retained_per_chain * cfg.chains
    require_run_memory(parts)
    t0 = time.perf_counter()
    samples = run_chain(g, h, cfg)
    duration = time.perf_counter() - t0
    verdict = classify_structure(samples)
    density = density_summary(samples, args.bins)
    report = report_mod.build_analysis_report(
        g, source, h, cfg, samples, verdict, density,
        duration_seconds=duration if args.timing else None,
    )
    text = (report_mod.report_json(report) if args.format == "json"
            else report_mod.report_csv(report))
    _write_out(text, args.out)
    if args.emit_traces:
        _write_out(report_mod.traces_csv(samples), args.emit_traces)
    if args.emit_densities:
        _write_out(report_mod.densities_csv(density), args.emit_densities)
    print(f"analyzed {source}: n={g.n} m={g.m} in {duration:.1f}s", file=sys.stderr)
    return EXIT_OK


def cmd_generate(args) -> int:
    paths = [Path(f"{args.out}.{ext}") for ext in ("edges", "nodes", "labels")]
    _check_outputs(*paths)
    n1 = round(args.frac * args.n)
    g, truth = generate_sbm(GeneratorSpec(
        n=args.n, sizes=args.sizes or (n1, args.n - n1),
        p=BlockProbs(args.p11, args.p12, args.p22), seed=args.seed))
    edges_path, nodes_path, labels_path = paths
    edges_path.write_text(g.to_edge_list(), encoding="utf-8")
    nodes_path.write_text("".join(f"{name}\n" for name in g.names), encoding="utf-8")
    labels_path.write_text(
        "".join(f"{g.names[i]} {truth[i]}\n" for i in range(g.n)), encoding="utf-8")
    print(f"wrote {edges_path} ({g.n} nodes, {g.m} edges), {nodes_path} and "
          f"{labels_path}", file=sys.stderr)
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, ...]:
    """--grid: p12 values in [0, 1] as a comma list or start:stop:step."""
    is_range = ":" in text
    try:
        values = [float(t) for t in text.split(":" if is_range else ",")]
    except ValueError:
        raise ValueError("--grid takes a comma list or start:stop:step of "
                         f"numbers, got {text!r}") from None
    if is_range:
        if len(values) != 3:
            raise ValueError(f"--grid range must be start:stop:step, got {text!r}")
        start, stop, step = values
        if not (step > 0 and stop >= start):
            raise ValueError(
                f"--grid range needs step > 0 and stop >= start, got {text!r}")
        if 0.0 <= start and stop <= 1.0:  # else SweepSpec refuses start or stop
            # no point passes stop; + 1e-9 keeps stop in 0.1:0.3:0.1 (1.999...)
            steps = (stop - start) / step + 1e-9
            # ~64 bytes a point: two float64 arrays, then Python floats in lists
            require_memory(64 * (steps + 1), f"--grid {text}")
            count = int(steps) + 1
            values = (np.linspace(start, start + step * (count - 1), count)
                      .round(10).tolist())
    return tuple(values)


def cmd_simulate(args) -> int:
    _check_outputs(args.out, args.raw_out)
    grid = PAPER_GRID if args.grid is None else _parse_grid(args.grid)
    n1 = round(args.frac * args.n)
    spec = SweepSpec(
        n=args.n, sizes=(n1, args.n - n1),
        p11=args.p11, p22=args.p22,
        p12_grid=grid, replicates=args.replicates,
        chain=ChainConfig(total_samples=args.samples, burn_in=args.burn_in, seed=0),
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
    h = _hyper_from_args(args)
    require_quadrature(args.quad_points)
    g, source = _load_graph(args)
    verdict, error = exact_structure_posterior(g, h, quadrature_points=args.quad_points)
    report = report_mod.build_oracle_report(g, source, h, verdict, args.quad_points, error)
    _write_out(report_mod.report_json(report), args.out)
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
    p.add_argument("--bins", type=int, default=50,
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
    p.add_argument("--frac", type=_bounded(0.0, 1.0, float), default=0.4,
                   help="fraction of nodes in block 1")
    p.add_argument("--sizes", type=_sizes,
                   help="explicit block sizes n1,n2 (overrides --frac)")
    for blk in ("11", "12", "22"):
        p.add_argument(f"--p{blk}", type=float, required=True)
    p.add_argument("--seed", type=_bounded(0), default=0)
    p.add_argument("--out", default="sbm",
                   help="output prefix of PREFIX.edges, PREFIX.nodes (every node; "
                        "analyze --nodes keeps isolated ones) and PREFIX.labels")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="p12 sweep with replicate averaging")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--frac", type=_bounded(0.0, 1.0, float), default=0.4)
    p.add_argument("--p11", type=float, default=0.20)
    p.add_argument("--p22", type=float, default=0.10)
    p.add_argument("--grid", help="p12 values: comma list or start:stop:step "
                                  "(default 0.05:0.25:0.025)")
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--samples", type=int, default=1500)
    p.add_argument("--burn-in", type=int, default=500,
                   help="iterations to discard (fewer than --samples)")
    p.add_argument("--seed", type=_bounded(0), default=0)
    p.add_argument("--out", help="sweep table CSV path (default stdout)")
    p.add_argument("--raw-out", metavar="FILE",
                   help="also write per-replicate verdicts as CSV; each row is "
                        "one short fit of --samples iterations, not a "
                        "per-graph answer")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="exact verdict by label enumeration "
                                      f"(n <= {ENUMERATION_LIMIT})")
    _add_input_args(p)
    _add_prior_args(p)
    p.add_argument("--quad-points", type=int, default=4097,
                   help="grid points of [0, 1], graded toward both ends, on "
                        "which the Beta CDFs of p11, p12 and p22 are "
                        "integrated (at least 3)")
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
    except MemoryError as exc:  # past an address-space limit, below physical memory
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
