"""MCMC over labels and block probabilities for the two-block SBM.

Each iteration runs a Metropolis label sweep over all nodes in fresh random
order, a conjugate Gibbs draw for the three block probabilities, and a
Metropolis exchange of the two groups, so the chain is exact for any prior.
Chains are deterministic given (seed, chain_index).

A Beta draw can round a block probability to exactly 0 or 1, so the sweep
takes its logs at p clamped to [P_FLOOR, P_CEIL], the nearest floats inside
(0, 1): every log is finite and one delta expression serves every state. A
flip impossible at p = 0 or 1 costs about 744 per edge (p = 0) or 36.7 per
non-edge (p = 1), so it is all but never accepted. The state's p is unclamped.

A chain is held in the sweep's own form from init_chain to its last draw:
group 1 as a bytearray of 0/1 flags, and d1, each node's number of group-1
neighbours. A proposal reads d1[i] in O(1); an accepted flip of node i adds
+-1 to d1 at each neighbour of i, so a sweep costs O(n + accepted * degree).
d1 holds floats, exact below 2**53: a*d1 is the float an int d1 gives, but
runs on CPython 3.11's float-specialised operations.

The sweep's log acceptance ratio for flipping node i, with d1 its group-1
neighbours, is taken in a reduced form. With w1, v1 (w2, v2) the log-ratios
per edge and per non-edge of moving a pair from block 11 to 12 (12 to 22):

    group 1 -> 2:  delta = a*d1 + b_i + k1
    group 2 -> 1:  delta = k0 - (a*d1 + b_i)

    a   = (w1 - v1) - (w2 - v2)
    b_i = deg_i*(w2 - v2) - log_odds
    k1  = (n1 - 1)*v1 + (n - n1)*v2 = c1 + s*n1
    k0  = -(n - n1 - 1)*v2 - n1*v1  = c0 - s*n1

    s = v1 - v2,   c1 = n*v2 - v1,   c0 = -(n - 1)*v2

a, s, c1 and c0 are fixed by p, b_i = bt[deg_i] from a per-sweep list over
the degrees, and k1, k0 change only when a flip is accepted, which it is
when log u < delta. Both sweep loops hold n1 as a float and take k1, k0 from
t = s*n1 in the one expression c1 + t, c0 - t, at the sweep's start and
after each accepted flip, so their k values are the same floats.
The state keeps only n1, M11 and D1 (group 1's degree sum), which a flip of
i moves by +-1, +-d1 and +-deg_i; the Gibbs draw takes its shapes from them
(model.group1_counts), and ChainState.c, the {1, 2} labels, is built when read.
Under a swap-symmetric prior the exchange's ratio is exactly 1 in every
state, so exchange_groups returns at once. run_chain names each state's
groups so p11 >= p22, appends p to an array('d'), and copies the flags into
a block of max(1, TALLY_BYTES // n) draws. A full block, and the last, adds
its column sums and its histogram of row sums to the label and size tallies.

The co-assignment tally counts, for each node pair, the R retained draws
with c_i == c_j. With y = 2x - 1 the +-1 form of a draw's group-1 flags x,
[c_i == c_j] = (1 + y_i y_j) / 2, so the tally is (R + Y^T Y) / 2, built in
one float32 (n, n) array (4 n^2 bytes) that starts at R/2. One BLAS ssyrk a
block adds half its Y^T Y to the upper triangle, mirrored into the lower one
after the last chain. Every value on the way is a multiple of 1/2 no larger
than R, so float32 holds each exactly, whatever the blocks, while R <= 2**23
(COASSIGN_MAX_DRAWS, which ChainConfig enforces).

The sweeps' randomness comes from sweep_draws, one endless iterator per
chain over the chain's own RNG. For each block of k = max(1, SWEEP_BLOCK // n)
sweeps it makes one row-wise permutation of a (k, n) array and one log of
k*n uniforms, then hands out a sweep's rows at a time. Drawing a block ahead
leaves the chain's law as it was, but puts those draws at other places in
the RNG stream than one sweep at a time would.

An iteration on dolphins (62 nodes, 66 sweeps a block, 5% of flips accepted)
takes about 16 us on one core of a 2-vCPU Xeon: the proposal loop 7.5 us
(0.12 us a proposal, 3 accepted flips), the draws and two .tolist() 2.3 us,
the logs of p and bt 1.8 us, the Gibbs draw 3.3 us, chain_states, the
exchange and run_chain's fold, copy and tally 0.9 us. On a 100-node SBM of
the p12 sweep's shape at p12 = 0.125 (40 sweeps a block, 45% of flips
accepted) a sweep takes about 42 us, most of it the accepted flips'
neighbour updates, and one simulate fit of 1500 iterations, the graph and
the verdict included, about 70 ms.

On a large graph few flips are accepted, and screened_sweep makes the same
decisions while visiting few proposals. Between two accepted flips the state
is fixed, so one numpy pass, a screen, computes every later proposal's margin
delta - log u at the state it finds, from the loop's own terms: a*d1 + b,
then x + k1 or k0 - x. A proposal's delta can move from its screened value
for two reasons only. (i) Each neighbour flip since the screen moves d1 by 1
and delta by |a|. (ii) k1 = c1 + s*n1 and k0 = c0 - s*n1 are linear in n1
with slope +-s = +-(v1 - v2), so a net change D of the group-1 size moves
them by |D| |s|; flips in opposite directions cancel. With tolerance
T = SCREEN_DRIFT |s| + slack, a proposal with margin <= -T is a certain
rejection while |D| <= SCREEN_DRIFT and its node has seen at most
B = floor((-T - margin) / |a|) neighbour flips.
The screen reads d1 as np.frombuffer(struct.Struct(f"{n}d").pack(*d1)), 18 us
at n = 3000 (np.array(d1) takes 78), and gives each node that budget (at
most 255) in a bytearray. The walk finds with bytearray.find the positions
with margin > -T and those whose node overdrew its budget, and decides each
with the plain loop's expressions. An accepted flip past |D| = SCREEN_DRIFT
starts a new screen of the rest of the sweep. Every decision is the plain
loop's, so every seeded output is too, byte for byte.

The slack covers rounding. Each side of a decision is a few float operations
on operands bounded by S = 1 + n (|v1| + |v2|) + (|a| + |w2 - v2|) max degree
+ |log_odds|: |x| and |k1|, |k0| are, and |log u| <= 36.8 for u > 0 (the
smallest nonzero uniform is 2**-53). Their roundings, screen and walk
together, stay under 100 eps S, and slack = SCREEN_SLACK S = 1e-9 S is 10**5
times that. S bounds k1's terms, not |k1|, which can cancel while they are
large.

label_sweep screens a sweep when n >= SCREEN_MIN_NODES and the last sweep's
accepted flips times the mean degree is at most SCREEN_MAX_MARKED * n: each
accepted flip touches its neighbours' budgets, and many flips mean many new
screens. A chain's first sweep, with no last sweep, is plain. Per sweep at
steady state: dolphins 12.8 us plain, 35 us screened; a 3000-node SBM like
the benchmark's (mean degree 27.7, 0.6% accepted) 434 us plain, 217 us
screened, deciding about 23 proposals with one screen. On two-group SBMs
with n = 1000 and mean degree 10 (medians of 200 sweeps each way), the screen
won at flips * degree = 0.53 n (157 against 190 us) and 0.65 n (188 against
200) and lost at 0.79 n (220 against 206), so SCREEN_MAX_MARKED is 0.7.
"""

from __future__ import annotations

import math
import os
import struct
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .model import (
    BlockProbs,
    Hyperparameters,
    block_counts,
    group1_counts,
    group1_degrees,
    option,
    posterior_shapes,
)

TALLY_BYTES = 2**17  # flag bytes of the retained draws run_chain tallies at once
DRAW_BYTES = 24 + 18  # p, then classify_structure's temporaries (tracemalloc, 10**6 draws)
MIRROR_BLOCK = 256  # tile side of the tally's upper-to-lower mirror
COASSIGN_MAX_DRAWS = 2**23  # float32 holds the tally's half-counts exactly up to here
SWEEP_BLOCK = 4096  # proposals whose draws sweep_draws makes at once
SCREEN_MIN_NODES = 1000  # smaller graphs always take the plain loop
SCREEN_MAX_MARKED = 0.7  # screen if the last sweep's flips * mean degree <= this * n
SCREEN_DRIFT = 8  # net change of the group-1 size one screen tolerates
SCREEN_SLACK = 1e-9  # the screen's rounding slack, relative to its operands' sizes
P_FLOOR, P_CEIL = math.ulp(0.0), math.nextafter(1.0, 0.0)
EXCHANGE_FLAGS = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # 0 <-> 1
SweepDraw = tuple[np.ndarray, np.ndarray]  # one sweep's visiting order and log u


@dataclass(frozen=True)
class ChainConfig:
    total_samples: int = field(default=15000, metadata={"option": "--samples"})
    burn_in: int = field(default=5000, metadata={"option": "--burn-in"})
    thin: int = field(default=1, metadata={"option": "--thin"})
    seed: int = 0
    chains: int = field(default=1, metadata={"option": "--chains"})
    coassign: bool = field(default=False, metadata={"option": "--coassign"})

    def __post_init__(self):
        for name, low in (("total_samples", 1), ("burn_in", 0), ("thin", 1),
                          ("chains", 1)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{option(self, name)} must be at least {low}, "
                                 f"got {getattr(self, name)}")
        if self.burn_in >= self.total_samples:
            raise ValueError(f"{option(self, 'burn_in')} ({self.burn_in}) must be smaller "
                             f"than {option(self, 'total_samples')} ({self.total_samples})")
        if self.retained_per_chain == 0:
            raise ValueError(
                f"no draws retained: {option(self, 'thin')} ({self.thin}) exceeds "
                f"{option(self, 'total_samples')} minus {option(self, 'burn_in')} "
                f"({self.total_samples - self.burn_in})")
        retained = self.retained_per_chain * self.chains
        if self.coassign and retained > COASSIGN_MAX_DRAWS:
            raise ValueError(
                f"{option(self, 'coassign')} tallies at most {COASSIGN_MAX_DRAWS} "
                f"retained draws exactly, got {retained} ({option(self, 'chains')} "
                f"times the draws each chain retains)")

    @property
    def retained_per_chain(self) -> int:
        return (self.total_samples - self.burn_in) // self.thin


@dataclass
class ChainState:
    """One MCMC state on graph g in the sweep's form (module docstring).

    flags[i] is 1 when node i is in group 1, d1[i] counts its group-1
    neighbours (as a float), and n1, M11, D1 are group 1's size, edges and
    degree sum. sweep_flips, the last sweep's accepted flips, chooses how the
    next sweep runs (label_sweep); flips_after_burn_in sums them after burn-in.
    """

    g: Graph = field(repr=False)
    flags: bytearray
    d1: list[float]
    p11: float
    p12: float
    p22: float
    n1: int
    M11: int
    D1: int
    sweep_flips: int | None = None  # None before a chain's first sweep
    flips_after_burn_in: int = 0

    @classmethod
    def of(cls, g: Graph, c: np.ndarray, p: BlockProbs) -> "ChainState":
        """The state on g with labels c (entries in {1, 2}) and the given p;
        d1 is counted once and the block counts are derived from it."""
        flags = bytearray((np.asarray(c) == 1).tobytes())
        d1 = group1_degrees(g, flags)
        k = block_counts(g, c, d1)
        return cls(g, flags, list(map(float, d1)), *p, k.n1, k.M11, 2 * k.M11 + k.M12)

    @property
    def c(self) -> np.ndarray:
        """The labels as a new int64 array with entries in {1, 2}."""
        return 2 - np.frombuffer(self.flags, dtype=np.uint8).astype(np.int64)


@dataclass
class PosteriorSamples:
    """Retained draws' p in chain order and tallies of their labels, made as
    the draws came; in every draw group 1 is the group with p11 >= p22."""

    draws: np.ndarray                       # (retained, 3) of (p11, p12, p22)
    label_tally: np.ndarray                 # per-node count of draws in group 1
    size_tally: np.ndarray                  # histogram of the group-1 size, 0..n
    retained: int                           # in all, as many from each chain
    # per chain, its label-flip acceptance after burn-in
    chain_acceptance: tuple[float, ...] = field(repr=False)
    # float32 (n, n) exact counts of draws with c_i == c_j; 4*n^2 bytes, opt-in
    coassign_tally: np.ndarray | None = None


def chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    """The RNG stream owned by one chain."""
    return np.random.default_rng(np.random.SeedSequence([seed, chain_index]))


def init_chain(g: Graph, h: Hyperparameters, rng: np.random.Generator) -> ChainState:
    """Draw the initial state from the prior on the chain's rng: p, then each
    node in group 1 with probability pi."""
    p = BlockProbs(*(rng.beta(a, b) for a, b in h.shapes))
    return ChainState.of(g, np.where(rng.random(g.n) < h.pi, 1, 2), p)


def _logs(q: float) -> tuple[float, float]:
    """log q and log(1 - q) at q clamped into [P_FLOOR, P_CEIL]. The clamp
    moves only q = 0 or 1, where math.log or math.log1p raises."""
    try:
        return math.log(q), math.log1p(-q)
    except ValueError:
        return _logs(min(max(q, P_FLOOR), P_CEIL))


def sweep_draws(rng: np.random.Generator, g: Graph) -> Iterator[SweepDraw]:
    """Endless draws for the label sweeps, one (order, log_us) per sweep: a
    uniform permutation of range(n) and the logs of n fresh uniforms, as
    array rows of a block of sweeps (module docstring). Only the log holds
    np.errstate: held across a yield, it would leak into the caller.
    """
    n = g.n
    rows = np.broadcast_to(np.arange(n), (max(1, SWEEP_BLOCK // n), n))
    while True:
        orders = rng.permuted(rows, axis=1)
        with np.errstate(divide="ignore"):
            log_us = np.log(rng.random(rows.shape))
        yield from zip(orders, log_us)


def label_sweep(
    state: ChainState, g: Graph, h: Hyperparameters, sweeps: Iterator[SweepDraw]
) -> tuple[ChainState, int]:
    """One Metropolis pass over all nodes in the order next(sweeps) gives.

    Each flip is tested with the reduced delta of the module docstring at
    the clamped p against its log u (u == 0 gives -inf, accepted). An
    accepted flip toggles the node's flag, adds +-1 to state.d1 at each of
    its neighbours and updates the counts. Takes one sweep's draws from
    sweeps (see sweep_draws); mutates ``state`` and returns it with the
    accepted-flip count, which it also keeps in state.sweep_flips. On large
    graphs whose last sweep flipped few nodes the pass is screened
    (screened_sweep), with the same decisions as this plain loop.
    """
    lp11, l1m11 = _logs(state.p11)
    lp12, l1m12 = _logs(state.p12)
    lp22, l1m22 = _logs(state.p22)
    # per-pair log-ratios of a 1 -> 2 flip; a 2 -> 1 flip negates them exactly
    w1, v1 = lp12 - lp11, l1m12 - l1m11
    w2, v2 = lp22 - lp12, l1m22 - l1m12
    a = (w1 - v1) - (w2 - v2)

    order, log_us = next(sweeps)
    flips = state.sweep_flips
    if (g.n >= SCREEN_MIN_NODES and flips is not None
            and flips * 2 * g.m <= SCREEN_MAX_MARKED * g.n * g.n):
        state.sweep_flips = screened_sweep(state, g, h, order, log_us, a, v1, v2, w2)
        return state, state.sweep_flips

    n, adjacency, degrees = g.n, g.adjacency, g.degrees
    flags, d1s = state.flags, state.d1
    n1, M11, D1 = float(state.n1), state.M11, state.D1
    s, c1, c0 = v1 - v2, n * v2 - v1, -(n - 1) * v2
    t = s * n1
    k1, k0 = c1 + t, c0 - t
    per_degree, log_odds = w2 - v2, h.log_odds
    bt = [per_degree * k - log_odds for k in g.degree_range]
    accepted = 0

    for i, log_u in zip(order.tolist(), log_us.tolist()):
        x = a * d1s[i] + bt[degrees[i]]
        if flags[i]:
            if log_u >= x + k1:
                continue
            flags[i] = 0
            n1 -= 1
            M11 -= d1s[i]
            D1 -= degrees[i]
            for j in adjacency[i]:
                d1s[j] -= 1.0
        else:
            if log_u >= k0 - x:
                continue
            flags[i] = 1
            n1 += 1
            M11 += d1s[i]
            D1 += degrees[i]
            for j in adjacency[i]:
                d1s[j] += 1.0
        accepted += 1
        t = s * n1
        k1, k0 = c1 + t, c0 - t

    state.n1, state.M11, state.D1 = int(n1), int(M11), D1
    state.sweep_flips = accepted
    return state, accepted


def screened_sweep(
    state: ChainState, g: Graph, h: Hyperparameters, order: np.ndarray,
    log_us: np.ndarray, a: float, v1: float, v2: float, w2: float,
) -> int:
    """label_sweep's pass, evaluating only the proposals a screen cannot
    prove rejected (module docstring). Takes label_sweep's order, log u and
    terms a, v1, v2, w2; mutates ``state``; returns the accepted-flip count.

    A screen at position s computes every later proposal's margin, delta -
    log u, at the state it finds. cand marks the positions the walk must
    decide: margin above -tolerance, or moved since the screen beyond the
    node's budget, the number of neighbour flips its margin absorbs. A net
    change of the group-1 size beyond SCREEN_DRIFT starts a new screen after
    the accepted flip.
    """
    n, adjacency, degrees = g.n, g.adjacency, g.degrees
    flags, d1s = state.flags, state.d1
    n1, M11, D1 = float(state.n1), state.M11, state.D1
    s, c1, c0 = v1 - v2, n * v2 - v1, -(n - 1) * v2  # label_sweep's k terms
    t = s * n1
    k1, k0 = c1 + t, c0 - t
    accepted = 0

    bs = (w2 - v2) * g.degree_array[order] - h.log_odds  # b in visiting order
    max_degree = int(g.degree_array.max())
    slack = SCREEN_SLACK * (1.0 + n * (abs(v1) + abs(v2))
                            + (abs(a) + abs(w2 - v2)) * max_degree + abs(h.log_odds))
    tolerance = SCREEN_DRIFT * abs(s) + slack
    # any per_flip <= 1/|a| gives safe budgets; the floor keeps it finite
    per_flip = 1.0 / max(abs(a), tolerance / 256)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    pack_d1 = struct.Struct(f"{n}d").pack  # d1 as n float64, for np.frombuffer
    cand = bytearray(n)  # by position: 1 where the walk decides
    budget = bytearray(n)  # by node: neighbour flips it absorbs unvisited
    start = 0
    while start < n:
        rest = order[start:]
        d1_now = np.frombuffer(pack_d1(*d1s))
        x = a * d1_now[rest] + bs[start:]
        margin = np.where(np.frombuffer(flags, dtype=np.uint8)[rest], x + k1, k0 - x)
        margin -= log_us[start:]
        cand[start:] = (margin > -tolerance).tobytes()
        reach = (-tolerance - margin) * per_flip
        np.clip(reach, 0, 255, out=reach)
        np.frombuffer(budget, dtype=np.uint8)[rest] = reach
        n1_screen = n1
        k = cand.find(1, start)
        start = n
        while k >= 0:
            i = order.item(k)
            d1 = d1s[i]
            x = a * d1 + bs.item(k)
            if flags[i]:
                if log_us.item(k) >= x + k1:
                    k = cand.find(1, k + 1)
                    continue
                flags[i] = 0
                n1 -= 1
                M11 -= d1
                D1 -= degrees[i]
                for j in adjacency[i]:
                    d1s[j] -= 1.0
                    if budget[j]:
                        budget[j] -= 1
                    else:
                        cand[position.item(j)] = 1
            else:
                if log_us.item(k) >= k0 - x:
                    k = cand.find(1, k + 1)
                    continue
                flags[i] = 1
                n1 += 1
                M11 += d1
                D1 += degrees[i]
                for j in adjacency[i]:
                    d1s[j] += 1.0
                    if budget[j]:
                        budget[j] -= 1
                    else:
                        cand[position.item(j)] = 1
            accepted += 1
            t = s * n1
            k1, k0 = c1 + t, c0 - t
            if abs(n1 - n1_screen) > SCREEN_DRIFT:
                start = k + 1
                break
            k = cand.find(1, k + 1)

    state.n1, state.M11, state.D1 = int(n1), int(M11), D1
    return accepted


def gibbs_update_probs(
    state: ChainState, h: Hyperparameters, rng: np.random.Generator
) -> ChainState:
    """Conjugate Beta draw for each block probability, in p11, p12, p22 order."""
    (a11, b11), (a12, b12), (a22, b22) = posterior_shapes(group1_counts(
        state.g.n, state.g.m, state.n1, state.M11, state.D1), h)
    state.p11, state.p12, state.p22 = (
        rng.beta(a11, b11), rng.beta(a12, b12), rng.beta(a22, b22))
    return state


def exchange_groups(
    state: ChainState, g: Graph, h: Hyperparameters, rng: np.random.Generator
) -> ChainState:
    """Metropolis move to the mirror state: c -> 3 - c, p11 <-> p22.

    The likelihood cancels, so the move is accepted with the prior ratio, its
    logs taken at p clamped like the sweep's. At a ratio of exactly 1 it is
    skipped without a draw: acceptance 0 both ways keeps detailed balance.
    Under a swap-symmetric prior (h.swap_symmetric) the ratio is 1 in every
    state, so the move returns before computing it. The label term is
    log_odds * (n2 - n1), exactly 0 at n1 == n2, where equal shapes give a
    ratio of exactly 1. An accepted move flips every flag and turns each
    group-1 neighbour count into degree - d1.
    """
    if h.swap_symmetric:
        return state
    lp11, l1m11 = _logs(state.p11)
    lp22, l1m22 = _logs(state.p22)
    log_ratio = (
        h.log_odds * (g.n - 2 * state.n1)
        + (h.a0_11 - h.a0_22) * (lp22 - lp11)
        + (h.b0_11 - h.b0_22) * (l1m22 - l1m11)
    )
    if log_ratio == 0.0 or rng.random() >= math.exp(min(log_ratio, 0.0)):
        return state
    state.flags = state.flags.translate(EXCHANGE_FLAGS)
    state.d1 = [d - d1 for d, d1 in zip(g.degrees, state.d1)]
    state.p11, state.p22 = state.p22, state.p11
    n1, M11, D1 = state.n1, state.M11, state.D1
    state.n1, state.M11, state.D1 = g.n - n1, g.m - D1 + M11, 2 * g.m - D1
    return state


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def require_memory(need: float, what: str) -> None:
    """Refuse (ValueError) an array of need bytes beyond physical memory."""
    have = physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"{what} needs {need:.0f} bytes, more than the {have} bytes of "
            "physical memory"
        )


def run_memory(n: int, cfg: ChainConfig) -> dict[str, int]:
    """Bytes run_chain keeps for cfg on an n-node graph, by what keeps them:
    DRAW_BYTES a retained draw and, under cfg.coassign, the 4 n^2 tally."""
    retained = cfg.retained_per_chain * cfg.chains
    parts = {f"{retained} draws": DRAW_BYTES * retained}
    if cfg.coassign:
        parts[f"co-assignment tally for n={n}"] = 4 * n * n
    return parts


def require_run_memory(parts: dict[str, int]) -> None:
    """Refuse (ValueError) a run whose parts, bytes by what keeps them, do not
    fit in physical memory together; the one line names the sum and each part."""
    require_memory(sum(parts.values()), "the run (" + ", ".join(
        f"{what}: {need}" for what, need in parts.items()) + ")")


def chain_states(
    g: Graph, h: Hyperparameters, cfg: ChainConfig, chain_index: int
) -> Iterator[ChainState]:
    """Run chain chain_index of cfg from init_chain on its own chain_rng, and
    yield its state at each of the cfg.retained_per_chain retained iterations
    (after burn_in, every thin-th). Each yield is the chain's one ChainState,
    changed in place by the next iteration: copy what you keep. Once the
    generator ends, state.flips_after_burn_in counts every flip after burn-in.
    """
    rng = chain_rng(cfg.seed, chain_index)
    state = init_chain(g, h, rng)
    sweeps = sweep_draws(rng, g)
    for it in range(-cfg.burn_in, cfg.total_samples - cfg.burn_in):
        _, accepted = label_sweep(state, g, h, sweeps)
        gibbs_update_probs(state, h, rng)
        exchange_groups(state, g, h, rng)
        if it >= 0:
            state.flips_after_burn_in += accepted
            if (it + 1) % cfg.thin == 0:
                yield state


def run_chain(g: Graph, h: Hyperparameters, cfg: ChainConfig) -> PosteriorSamples:
    """Run cfg.chains independent chains and pool their retained draws.

    chain_states runs each chain, and sweep_draws holds the error state of
    its logs. Each state yielded is named so p11 >= p22 and tallied as it
    comes, with cfg.coassign also into the float32 co-assignment tally of
    exact counts (module docstring). Draws (DRAW_BYTES each) and that tally
    (4 n^2 bytes) beyond physical memory together are refused before the
    first chain (run_memory).
    """
    n = g.n
    total_retained = cfg.retained_per_chain * cfg.chains

    require_run_memory(run_memory(n, cfg))
    ps = array("d")  # p11, p12, p22 of each draw in turn
    rows = max(1, TALLY_BYTES // n)
    block = bytearray(rows * n)  # the flags of the block's draw k at [k*n, (k+1)*n)
    label_tally, size_tally = np.zeros(n, np.int64), np.zeros(n + 1, np.int64)
    coassign = None
    if cfg.coassign:
        from scipy.linalg.blas import ssyrk

        coassign = np.full((n, n), total_retained / 2, dtype=np.float32, order="F")
    chain_acceptance = []

    for chain_index in range(cfg.chains):
        for state in chain_states(g, h, cfg, chain_index):
            p11, p22, flags = state.p11, state.p22, state.flags
            if p11 < p22:  # name group 1 the group with p11 >= p22
                p11, p22, flags = p22, p11, flags.translate(EXCHANGE_FLAGS)
            k = len(ps) // 3 % rows  # the draw's row in the block
            block[k * n:(k + 1) * n] = flags
            ps.extend((p11, state.p12, p22))
            if k + 1 == rows or len(ps) == 3 * total_retained:
                x = np.frombuffer(block, dtype=np.uint8, count=(k + 1) * n).reshape(-1, n)
                label_tally += x.sum(axis=0, dtype=np.int64)
                size_tally += np.bincount(x.sum(axis=1, dtype=np.int64), minlength=n + 1)
                if coassign is not None:
                    half_y = np.subtract(x.T, 0.5, dtype=np.float32)  # y/2 as ssyrk takes it
                    ssyrk(2.0, half_y, beta=1.0, c=coassign, overwrite_c=1)
        chain_acceptance.append(  # state as the chain's last iteration left it
            state.flips_after_burn_in / (n * (cfg.total_samples - cfg.burn_in)))

    if coassign is not None:
        below_diagonal = np.tri(MIRROR_BLOCK, k=-1, dtype=bool)
        for i in range(0, n, MIRROR_BLOCK):
            tile = coassign[i:i + MIRROR_BLOCK, i:i + MIRROR_BLOCK]
            np.copyto(tile, tile.T, where=below_diagonal[:len(tile), :len(tile)])
            for j in range(i + MIRROR_BLOCK, n, MIRROR_BLOCK):
                coassign[j:j + MIRROR_BLOCK, i:i + MIRROR_BLOCK] = \
                    coassign[i:i + MIRROR_BLOCK, j:j + MIRROR_BLOCK].T
    return PosteriorSamples(
        draws=np.frombuffer(ps, dtype=np.float64).reshape(total_retained, 3),
        label_tally=label_tally,
        size_tally=size_tally,
        retained=total_retained,
        chain_acceptance=tuple(chain_acceptance),
        coassign_tally=coassign,
    )
