"""Reference Monte Carlo estimators: one self-contained loop per estimator.

Each function repeats the draw-and-scatter loop that `covkit.metrics` now
shares (`_mc_values`): draw all n prompts, give each distinct prompt its
responses in one `sample_many` call, and write the per-draw value back in
draw order, with the value written inline in the same floating-point
operation order.  `pairwise_matrix` is the tournaments' K x K coverage
matrix as `covkit.selection` once computed it.  `test_mc_estimators.py`
requires covkit's estimators to equal these bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from covkit.core import group_prompts, logprob_matrix, sample_prompts
from covkit.metrics import covers, hoeffding_half_width
from prefix_oracle import prefix_levels_ref


def _kl_rows(PD, PH):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(PD > 0.0, PD * (np.log(PD) - np.log(PH)),
                        0.0).sum(axis=-1)


def _draws(piD, mu_sampler, n, rng):
    groups = group_prompts(sample_prompts(mu_sampler, n, rng))
    return [(x, idx, piD.sample_many(x, len(idx), rng))
            for x, idx in groups.items()]


def log_ratios(piD, piHat, mu_sampler, n, rng):
    draws = _draws(piD, mu_sampler, n, rng)
    out = np.empty(n)
    for x, idx, Y in draws:
        out[idx] = piD.logprob_many(x, Y) - piHat.logprob_many(x, Y)
    return out


def seq_kl(piD, piHat, mu_sampler, n, rng):
    return float(log_ratios(piD, piHat, mu_sampler, n, rng).mean())


def seq_ce(piD, piHat, mu_sampler, n, rng):
    draws = _draws(piD, mu_sampler, n, rng)
    vals = np.empty(n)
    for x, idx, Y in draws:
        vals[idx] = -piHat.logprob_many(x, Y)
    return float(vals.mean())


def stopped_kl(piD, piHat, mu_sampler, N, n, rng):
    logN = math.log(N)
    draws = _draws(piD, mu_sampler, n, rng)
    vals = np.empty(n)
    for x, idx, Y in draws:
        acc = np.zeros(len(idx))
        for h, first, inv in prefix_levels_ref(Y, piD.V):
            pre = Y[first, :h]
            acc += _kl_rows(piD.prefix_dists(x, pre),
                            piHat.prefix_dists(x, pre))[inv]
        vals[idx] = np.minimum(logN, acc)
    return float(vals.mean())


def coverage_mc(piD, piHat, mu_sampler, Ns, n, rng, delta=0.05):
    """(values, half-widths) of the Hoeffding curve."""
    Ns = np.atleast_1d(np.asarray(Ns, dtype=float))
    lrs = log_ratios(piD, piHat, mu_sampler, n, rng)
    values = np.array([(lrs >= math.log(N) - 1e-12).mean() for N in Ns])
    return values, np.full_like(Ns, hoeffding_half_width(n, delta))


def onpolicy_cov_mc(piBar, piPrime, pi, prompts, N, m, rng):
    logN = math.log(N)
    total = 0.0
    for x, idx in group_prompts(prompts).items():
        Y = piBar.sample_many(x, len(idx) * m, rng)
        hits = covers(piPrime.logprob_many(x, Y), pi.logprob_many(x, Y),
                      logN)
        total += int(hits.sum()) / m
    return total / len(prompts)


def pairwise_matrix(candidates, dataset, N):
    lp = logprob_matrix(candidates, dataset)
    M = np.array([covers(row, lp, math.log(N)).mean(axis=1) for row in lp])
    np.fill_diagonal(M, 0.0)
    return M
