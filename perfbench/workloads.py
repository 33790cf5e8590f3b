"""The benchmark's four workloads: their inputs, one timed op, and output checks.

Every input is derived from the workload seed. Ops call the package's
public entry points (``mesoscale.cli.main`` and ``mesoscale.synth.run_sweep``)
the way a user would; nothing in the package is edited. See NOTES.md for why
each workload exists and which layers it leaves idle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import mesoscale.cli as cli
from mesoscale.inference import classify_draws
from mesoscale.model import BlockProbs
from mesoscale.sampler import ChainConfig
from mesoscale.synth import GeneratorSpec, SweepSpec, generate_sbm, run_sweep

from ess import bulk_ess
from tracing import Tap

# a verdict from MCMC agrees with the oracle when it lies within this many
# Monte Carlo standard errors of it
AGREEMENT_Z = 4.0
# Priors at which the MCMC verdict is known to be wrong, with the reason. The
# in-kernel p11 >= p22 relabel is exact only for a swap-symmetric prior
# (ROADMAP item 1), so at pi != 0.5 the sampler disagrees with the exact
# oracle. The comparison still runs on every such op and each disagreement is
# printed and recorded as a known defect, but it does not fail the op: the
# timed op is the oracle, whose output is right. Delete the entry when the
# sampler is fixed, and the comparison counts again like any other check.
KNOWN_WRONG_MCMC = {0.2: "ROADMAP item 1: the in-kernel relabel is exact only for pi = 0.5"}
VERDICT_KEYS = ("p_assortative", "p_core_periphery", "p_disassortative")


def derive_seed(*words: int) -> int:
    """A 32-bit seed determined by the workload seed and a path of integers."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def min_bulk_ess(draws: np.ndarray) -> float:
    """The smallest bulk ESS of p11, p12 and p22 over one chain's draws."""
    return min(bulk_ess(draws[:, j]) for j in range(3))


@dataclass
class OpResult:
    seconds: float
    fits: int = 0
    ess: float = 0.0                # min bulk ESS summed over the op's MCMC fits
    failures: list[str] = field(default_factory=list)
    crashed: bool = False           # raised instead of returning


@dataclass
class Chain:
    """An MCMC fit made for a check rather than as a timed op."""

    seconds: float
    ess: float


def _finite_numbers(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def check_report(path: Path, failures: list[str]) -> dict | None:
    """Parse a JSON report; record NaN/inf and verdicts that do not sum to 1."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"),
                            parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        failures.append(f"{path.name}: unreadable report ({exc})")
        return None
    if not _finite_numbers(report):
        failures.append(f"{path.name}: non-finite number")
    verdict = [report["verdict"][k] for k in VERDICT_KEYS]
    if not all(0.0 <= v <= 1.0 for v in verdict) or abs(sum(verdict) - 1.0) > 1e-9:
        failures.append(f"{path.name}: verdict {verdict} is not a distribution")
    return report


class Workload:
    """Base: subclasses set ``name`` and ``setup_script`` and define the hooks."""

    name = ""
    setup_script = ""       # run by a fresh interpreter: import the CLI, load input

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.chains: list[Chain] = []     # fits made by checks, not by ops
        self.checks: list[list[str]] = []  # failures of each standalone check
        self.known_defects: list[str] = []  # disagreements KNOWN_WRONG_MCMC explains
        self.tap = Tap()                  # holds the last run_chain result

    def prepare(self) -> None:
        """Write the inputs and run the standalone checks; not timed."""

    def finish(self) -> None:
        """Standalone checks that need the ops' outputs; not timed."""

    def call(self, k: int):
        """The timed part of op k."""
        raise NotImplementedError

    def check(self, k: int, output, result: OpResult) -> None:
        """Verify op k's output; fill in fits, ESS and failures."""
        raise NotImplementedError

    def _run_cli(self, argv: list[str], failures: list[str]) -> None:
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            failures.append(f"mesoscale {argv[0]} exited with {code}")


class _AnalyzeWorkload(Workload):
    """Shared by the two ``analyze`` workloads: the run's chain is tapped."""

    @property
    def report_path(self) -> Path:
        return self.out / "report.json"

    def argv(self, k: int) -> list[str]:
        raise NotImplementedError

    def call(self, k):
        failures: list[str] = []
        self._run_cli(self.argv(k), failures)
        return failures

    def check(self, k, failures, result):
        result.failures += failures
        samples = self.tap.take()
        path = self.report_path
        report = check_report(path, result.failures)
        if report is None or samples is None:
            result.failures.append("no report or no samples")
            return
        result.fits = 1
        result.ess = min_bulk_ess(samples.draws)
        self.check_samples(k, report, samples, result.failures)

    def check_samples(self, k, report, samples, failures) -> None:
        raise NotImplementedError


class AnalyzeDolphins(_AnalyzeWorkload):
    name = "analyze-dolphins"
    first_report: bytes | None = None
    setup_script = ("import mesoscale.cli\n"
                    "from mesoscale.datasets import load_dataset\n"
                    "load_dataset('dolphins')\n")

    def finish(self):
        # op 0 again: the same seed must give the same bytes
        failures: list[str] = []
        self._run_cli(self.argv(0), failures)
        self.tap.take()
        if self.report_path.read_bytes() != self.first_report:
            failures.append("repeated seed gave a different report")
        self.checks.append(failures)

    def argv(self, k):
        return ["analyze", "--dataset", "dolphins",
                "--seed", str(derive_seed(self.seed, k + 1)),
                "--out", str(self.report_path),
                "--emit-traces", str(self.out / "traces.csv")]

    def check_samples(self, k, report, samples, failures):
        if k == 0:
            self.first_report = self.report_path.read_bytes()
        rows = (self.out / "traces.csv").read_text(encoding="utf-8").splitlines()[1:]
        draws = np.array([[float(x) for x in row.split(",")[1:]] for row in rows])
        if draws.shape != samples.draws.shape or not np.array_equal(draws, samples.draws):
            failures.append("emitted traces differ from the chain's draws")


def _write_graph(g, stem: Path) -> tuple[str, str]:
    """Edge list plus node sidecar (the sidecar keeps isolated nodes)."""
    edges, nodes = stem.with_suffix(".edges"), stem.with_suffix(".nodes")
    edges.write_text(g.to_edge_list(), encoding="utf-8")
    nodes.write_text("\n".join(g.names) + "\n", encoding="utf-8")
    return str(edges), str(nodes)


def _parse_script(edges: str, nodes: str) -> str:
    return ("import mesoscale.cli\n"
            "from pathlib import Path\n"
            "from mesoscale.graph import parse_edge_list\n"
            f"parse_edge_list(Path({edges!r}).read_text(encoding='utf-8'),\n"
            f"                node_list=Path({nodes!r}).read_text(encoding='utf-8').split())\n")


class CoassignLarge(_AnalyzeWorkload):
    name = "coassign-large"
    N, SIZES, P = 3000, (1200, 1800), BlockProbs(0.02, 0.005, 0.01)

    def prepare(self):
        g, _ = generate_sbm(GeneratorSpec(n=self.N, sizes=self.SIZES, p=self.P,
                                          seed=derive_seed(self.seed, 0)))
        self.edges, self.nodes = _write_graph(g, self.out / "sbm")
        self.setup_script = _parse_script(self.edges, self.nodes)

    def argv(self, k):
        return ["analyze", self.edges, "--nodes", self.nodes, "--coassign",
                "--samples", "300", "--burn-in", "100",
                "--seed", str(derive_seed(self.seed, k + 1)),
                "--out", str(self.report_path)]

    def check_samples(self, k, report, samples, failures):
        if report["input"]["n"] != self.N or len(report["membership"]) != self.N:
            failures.append("report does not cover every node")
        tally = samples.coassign_tally
        if tally is None or tally.shape != (self.N, self.N):
            failures.append("no co-assignment tally")
            return
        if not np.array_equal(tally, tally.T):
            failures.append("co-assignment matrix is not symmetric")
        if not np.all(np.diagonal(tally) == samples.retained):
            failures.append("co-assignment diagonal is not 1")
        if tally.min() < 0 or tally.max() > samples.retained:
            failures.append("co-assignment entry outside [0, 1]")


class SimulateP12(Workload):
    """One op fits one replicate at one point of the paper's p12 grid."""

    name = "simulate-p12"
    setup_script = ("import mesoscale.cli\n"
                    "from mesoscale.sampler import ChainConfig\n"
                    "from mesoscale.synth import SweepSpec\n"
                    "SweepSpec(n=100, sizes=(40, 60), p11=0.2, p22=0.1,\n"
                    "          p12_grid=mesoscale.cli.PAPER_GRID, replicates=1,\n"
                    "          chain=ChainConfig(total_samples=1500, burn_in=500))\n")
    GRID = cli.PAPER_GRID

    def spec(self, grid, seed, samples=1500, burn_in=500) -> SweepSpec:
        return SweepSpec(n=100, sizes=(40, 60), p11=0.20, p22=0.10, p12_grid=grid,
                         replicates=1, seed=seed,
                         chain=ChainConfig(total_samples=samples, burn_in=burn_in))

    def prepare(self):
        # row order does not depend on chain length, so a short chain suffices
        rows = run_sweep(self.spec(self.GRID, derive_seed(self.seed, 0), 20, 10))
        self.tap.take()
        failures = []
        if [r.p12 for r in rows] != list(self.GRID):
            failures.append("sweep rows are not in grid order")
        for row in rows:
            self._check_row(row, failures)
        self.checks.append(failures)

    @staticmethod
    def _check_row(row, failures):
        means = (row.mean_assortative, row.mean_cp, row.mean_disassortative)
        if not all(math.isfinite(v) for v in means) or abs(sum(means) - 1.0) > 1e-9:
            failures.append(f"row p12={row.p12}: means {means} are not a distribution")

    def call(self, k):
        p12 = self.GRID[k % len(self.GRID)]
        return run_sweep(self.spec((p12,), derive_seed(self.seed, k + 1)))

    def check(self, k, rows, result):
        samples = self.tap.take()
        if len(rows) != 1 or rows[0].p12 != self.GRID[k % len(self.GRID)]:
            result.failures.append("sweep returned the wrong rows")
            return
        self._check_row(rows[0], result.failures)
        result.fits = 1
        result.ess = min_bulk_ess(samples.draws)


class OracleN14(Workload):
    """Op k runs the exact oracle on graph (k // 2) mod GRAPHS, at pi = 0.5 for
    even k and 0.2 for odd k. The quadrature's cost depends on the graph, so
    ops cycle over several graphs rather than time one."""

    name = "oracle-n14"
    PIS = (0.5, 0.2)
    GRAPHS = 4
    REFERENCE_SAMPLES, REFERENCE_BURN_IN = 10000, 1000

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.inputs: list[tuple[str, str]] = []
        # (graph, pi) -> (MCMC verdict, ESS of each verdict's indicator)
        self.reference: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}
        self.first_reports: dict[tuple[int, float], bytes] = {}

    def prepare(self):
        for i in range(self.GRAPHS):
            g, _ = generate_sbm(GeneratorSpec(n=14, sizes=(6, 8),
                                              p=BlockProbs(0.7, 0.3, 0.2),
                                              seed=derive_seed(self.seed, 0, i)))
            self.inputs.append(_write_graph(g, self.out / f"sbm{i}"))
        self.setup_script = _parse_script(*self.inputs[0])
        # the MCMC answers the oracle ops are checked against
        for i, (edges, nodes) in enumerate(self.inputs):
            for j, pi in enumerate(self.PIS):
                self._reference_chain(i, edges, nodes, pi, derive_seed(self.seed, 0, i, j))

    def _reference_chain(self, i, edges, nodes, pi, seed):
        path = self.out / "mcmc.json"
        failures: list[str] = []
        t0 = perf_counter()
        self._run_cli(["analyze", edges, "--nodes", nodes, "--pi", str(pi),
                       "--samples", str(self.REFERENCE_SAMPLES),
                       "--burn-in", str(self.REFERENCE_BURN_IN),
                       "--seed", str(seed), "--out", str(path)], failures)
        seconds = perf_counter() - t0
        samples = self.tap.take()
        report = check_report(path, failures)
        self.checks.append(failures)
        if report is None or samples is None:
            return
        self.chains.append(Chain(seconds, min_bulk_ess(samples.draws)))
        self.reference[i, pi] = (np.array([report["verdict"][k] for k in VERDICT_KEYS]),
                                 self._indicator_ess(samples.draws))

    @staticmethod
    def _indicator_ess(draws: np.ndarray) -> np.ndarray:
        """Bulk ESS of each verdict's indicator; the draw count where it is constant."""
        cats = classify_draws(draws)
        out = []
        for j in range(3):
            indicator = (cats == j).astype(float)
            constant = indicator.min() == indicator.max()
            out.append(float(len(draws)) if constant else bulk_ess(indicator))
        return np.array(out)

    def call(self, k):
        i, pi = (k // 2) % self.GRAPHS, self.PIS[k % 2]
        edges, nodes = self.inputs[i]
        path = self.out / "oracle.json"
        failures: list[str] = []
        self._run_cli(["oracle", edges, "--nodes", nodes, "--pi", str(pi),
                       "--quad-points", "4097", "--out", str(path)], failures)
        return i, pi, path, failures

    def check(self, k, output, result):
        i, pi, path, failures = output
        result.failures += failures
        report = check_report(path, result.failures)
        if report is None:
            return
        result.fits = 1
        if (i, pi) not in self.reference:
            result.failures.append(f"no MCMC reference for graph {i} at pi={pi}")
            return
        # the oracle is deterministic: every op on this graph and prior must
        # give the bytes of the first one
        first = self.first_reports.setdefault((i, pi), path.read_bytes())
        if path.read_bytes() != first:
            result.failures.append(f"graph {i}, pi={pi}: oracle report changed between ops")
        oracle = np.array([report["verdict"][key] for key in VERDICT_KEYS])
        mcmc, ess = self.reference[i, pi]
        tolerance = AGREEMENT_Z * np.sqrt(oracle * (1.0 - oracle) / ess)
        if np.any(np.abs(mcmc - oracle) > tolerance):
            message = (
                f"graph {i}, pi={pi}: MCMC verdict {np.round(mcmc, 4).tolist()} differs from the "
                f"oracle {np.round(oracle, 4).tolist()} by more than "
                f"{AGREEMENT_Z:g} Monte Carlo standard errors "
                f"{np.round(tolerance / AGREEMENT_Z, 4).tolist()}")
            if pi in KNOWN_WRONG_MCMC:
                self.known_defects.append(f"{message} ({KNOWN_WRONG_MCMC[pi]})")
            else:
                result.failures.append(message)


WORKLOADS = {w.name: w for w in (AnalyzeDolphins, SimulateP12, CoassignLarge, OracleN14)}
