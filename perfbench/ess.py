"""Bulk effective sample size (Vehtari et al. 2021, arXiv:1903.08008).

The draws of one chain are split in half, rank-normalized together, and the
ESS of the normal scores is estimated with Geyer's initial monotone sequence
over FFT autocovariances. This mirrors the estimator used by Stan and ArviZ,
restricted to the single-chain input the benchmark has.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocovariance(chains: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, lags 0..n-1."""
    n = chains.shape[1]
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spectrum * np.conjugate(spectrum), n=size, axis=1)[:, :n] / n


def ess_of_chains(chains: np.ndarray) -> float:
    """ESS of an (m chains, n draws) array by Geyer's initial monotone sequence."""
    m, n = chains.shape
    if n < 4:
        raise ValueError("need at least 4 draws per chain")
    acov = _autocovariance(chains)
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus == 0.0:
        raise ValueError("constant draws have no defined ESS")
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # initial positive sequence: keep pairs (rho[t], rho[t+1]) while their sum is positive
    kept = np.zeros(n)
    kept[0], kept[1] = rho[0], rho[1]
    even, odd = rho[0], rho[1]
    t = 1
    while t < n - 3 and even + odd > 0.0:
        even, odd = rho[t + 1], rho[t + 2]
        if even + odd >= 0.0:
            kept[t + 1], kept[t + 2] = even, odd
        t += 2
    max_t = t - 2
    if even > 0.0:
        kept[max_t + 1] = even
    # initial monotone sequence: pair sums may not increase
    t = 1
    while t <= max_t - 2:
        if kept[t + 1] + kept[t + 2] > kept[t - 1] + kept[t]:
            kept[t + 1] = kept[t + 2] = (kept[t - 1] + kept[t]) / 2.0
        t += 2

    total = m * n
    tau = -1.0 + 2.0 * kept[: max_t + 1].sum() + kept[max_t + 1 : max_t + 2].sum()
    tau = max(tau, 1.0 / np.log10(total))
    return float(total / tau)


def split_chain(draws: np.ndarray) -> np.ndarray:
    """The two halves of one chain as a (2, n // 2) array; a middle draw is dropped."""
    half = len(draws) // 2
    return np.stack([draws[:half], draws[len(draws) - half:]])


def bulk_ess(draws: np.ndarray) -> float:
    """Rank-normalized split-chain ESS of one chain's draws of a scalar."""
    chains = split_chain(np.asarray(draws, dtype=float))
    ranks = rankdata(chains, method="average").reshape(chains.shape)
    return ess_of_chains(ndtri((ranks - 0.375) / (ranks.size + 0.25)))
