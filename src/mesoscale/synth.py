"""Two-block SBM graph generation and the p12-sweep simulation experiment."""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Graph
from .inference import classify_structure
from .model import BlockCounts, BlockProbs, Hyperparameters, option
from .sampler import ChainConfig, require_memory, run_chain

PAIR_CHUNK = 1 << 18  # node pairs whose keep-uniforms generate_sbm draws at once


@dataclass(frozen=True)
class GeneratorSpec:
    n: int = field(metadata={"option": "--n"})
    sizes: tuple[int, int] = field(metadata={"option": "--sizes"})
    p: BlockProbs = field(metadata={"option": "--p11 --p12 --p22"})
    seed: int = 0

    def __post_init__(self):
        n, (n1, n2) = option(self, "n"), self.sizes
        if not self.n >= 1:
            raise ValueError(f"{n} must be at least 1, got {self.n}")
        if not (n1 >= 0 and n2 >= 0 and n1 + n2 == self.n):
            raise ValueError(f"{option(self, 'sizes')} ({n1},{n2}) must be "
                             f"nonnegative and sum to {n} ({self.n})")
        for name, q in zip(option(self, "p").split(), self.p):
            if not 0.0 <= q <= 1.0:  # nan too
                raise ValueError(f"{name} must lie in [0, 1], got {q}")
        # generate_sbm's tracemalloc peak, measured from 10 to 40000 nodes and
        # up to 1M edges: below 2.5 MB (a chunk of uniforms) plus 160 bytes a
        # node (151 measured) plus 240 an edge (162-212 measured)
        m = BlockCounts.of(0, 0, 0, n1, n2)
        edges = sum(k * q for k, q in zip((m.m11, m.m12, m.m22), self.p))
        require_memory(2.5e6 + 160 * self.n + 240 * edges, f"{n} {self.n}")


@dataclass(frozen=True)
class SweepSpec:
    """One simulation sweep: a generator template crossed with a p12 grid."""

    n: int = field(metadata={"option": "--n"})
    sizes: tuple[int, int]
    p11: float = field(metadata={"option": "--p11"})
    p22: float = field(metadata={"option": "--p22"})
    p12_grid: tuple[float, ...] = field(metadata={"option": "--grid"})
    replicates: int = field(metadata={"option": "--replicates"})
    chain: ChainConfig
    seed: int = 0

    def __post_init__(self):
        grid = option(self, "p12_grid")
        if not self.p12_grid:
            raise ValueError(f"{grid} must be nonempty")
        outside = [q for q in self.p12_grid if not 0.0 <= q <= 1.0]  # nan too
        if outside:
            raise ValueError(f"{grid} values must lie in [0, 1], got {outside[0]}")
        ordered = sorted(self.p12_grid)
        repeated = [a for a, b in zip(ordered, ordered[1:]) if a == b]
        if repeated:
            raise ValueError(f"{grid} points must differ, got {repeated[0]} twice")
        if not self.replicates >= 1:
            raise ValueError(f"{option(self, 'replicates')} must be at least 1, "
                             f"got {self.replicates}")
        for p12 in self.p12_grid:  # n, sizes, p11, p22 and memory, before any fit
            self.generator(p12, seed=0)

    def generator(self, p12: float, seed: int) -> GeneratorSpec:
        """The graph generator at one grid point."""
        return GeneratorSpec(n=self.n, sizes=self.sizes,
                             p=BlockProbs(self.p11, p12, self.p22), seed=seed)


@dataclass(frozen=True)
class SweepRow:
    p12: float
    mean_assortative: float
    se_assortative: float
    mean_cp: float
    se_cp: float
    mean_disassortative: float
    se_disassortative: float
    replicates: int
    # raw per-replicate (assortative, cp, disassortative) verdicts
    replicate_probs: tuple[tuple[float, float, float], ...] = field(
        default=(), compare=False, repr=False
    )


def _kept_pairs(rng: np.random.Generator, q: float, rows: np.ndarray,
                first: np.ndarray, stop: int) -> Iterator[tuple[int, int]]:
    """Yield each pair (rows[r], first[r] + k) with first[r] + k < stop that a
    uniform below q keeps. The uniforms are drawn in row-major pair order, at
    most PAIR_CHUNK at a time, and a kept pair's row is found by searchsorted
    on the row ends."""
    lengths = stop - first
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    shift = first - ends + lengths  # column = shift[row] + the pair's index
    for start in range(0, total, PAIR_CHUNK):
        index = np.flatnonzero(rng.random(min(PAIR_CHUNK, total - start)) < q) + start
        row = np.searchsorted(ends, index, side="right")
        yield from zip(rows[row].tolist(), (shift[row] + index).tolist())


def generate_sbm(spec: GeneratorSpec) -> tuple[Graph, np.ndarray]:
    """Sample a graph: nodes 0..n1-1 in block 1, the rest in block 2.

    Pair order is fixed (11 block, then 12, then 22, each row-major), so the
    draw is reproducible from the seed. The keep-uniforms are drawn in that
    order at most PAIR_CHUNK at a time, which gives the same stream as one
    draw per block, and kept pairs go straight into Graph.from_edges: memory
    is a chunk's arrays, a few per-node arrays and the edges, not the pairs
    (GeneratorSpec's rule). Returns the graph and the ground-truth label
    vector.
    """
    n1, n = spec.sizes[0], spec.n
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
    block1, block2 = np.arange(n1), np.arange(n1, n)
    edges = itertools.chain(_kept_pairs(rng, spec.p.p11, block1, block1 + 1, n1),
                            _kept_pairs(rng, spec.p.p12, block1, np.full(n1, n1), n),
                            _kept_pairs(rng, spec.p.p22, block2, block2 + 1, n))
    g = Graph.from_edges(edges, n=n)
    truth = np.where(np.arange(n) < n1, 1, 2).astype(np.int64)
    return g, truth


def replicate_seeds(seed: int, grid_index: int, replicate: int) -> tuple[int, int]:
    """(generator seed, chain seed) for one sweep task, derived deterministically."""
    gen = int(np.random.SeedSequence([seed, grid_index, replicate, 0]).generate_state(1)[0])
    fit = int(np.random.SeedSequence([seed, grid_index, replicate, 1]).generate_state(1)[0])
    return gen, fit


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Fit every (grid point, replicate) pair and average the verdicts.

    Rows are emitted in grid order; the standard error columns are the
    standard error of the replicate mean.
    """
    rows = []
    for grid_index, p12 in enumerate(spec.p12_grid):
        probs = np.empty((spec.replicates, 3))
        for rep in range(spec.replicates):
            gen_seed, fit_seed = replicate_seeds(spec.seed, grid_index, rep)
            g, _ = generate_sbm(spec.generator(p12, gen_seed))
            samples = run_chain(g, Hyperparameters.uniform(),
                                replace(spec.chain, seed=fit_seed))
            verdict = classify_structure(samples)
            probs[rep] = verdict.as_tuple()
        means = probs.mean(axis=0)
        if spec.replicates > 1:
            ses = probs.std(axis=0, ddof=1) / np.sqrt(spec.replicates)
        else:
            ses = np.zeros(3)
        rows.append(SweepRow(
            p12=p12,
            mean_assortative=float(means[0]), se_assortative=float(ses[0]),
            mean_cp=float(means[1]), se_cp=float(ses[1]),
            mean_disassortative=float(means[2]), se_disassortative=float(ses[2]),
            replicates=spec.replicates,
            replicate_probs=tuple(map(tuple, probs.tolist())),
        ))
    return rows


SWEEP_CSV_HEADER = (
    "p12,mean_assortative,se_assortative,mean_cp,se_cp,"
    "mean_disassortative,se_disassortative,replicates"
)


def sweep_table_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.p12:.6g},{r.mean_assortative:.10g},{r.se_assortative:.10g},"
            f"{r.mean_cp:.10g},{r.se_cp:.10g},"
            f"{r.mean_disassortative:.10g},{r.se_disassortative:.10g},{r.replicates}"
        )
    return "\n".join(lines) + "\n"
