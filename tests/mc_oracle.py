"""Reference Monte Carlo estimators: one self-contained loop per estimator.

Each function repeats the draw-and-scatter loop that `covkit.metrics` now
shares (`_mc_values`): draw all n prompts, give each distinct prompt its
responses in one `sample_many` call, and write the per-draw value back in
draw order, with the value written inline in the same floating-point
operation order.  `onpolicy_column_mc` is one column of the offset
tournament's on-policy offsets, and `pairwise_matrix` the tournaments'
K x K coverage matrix as `covkit.selection` once computed it.  `test_mc_estimators.py`
requires covkit's estimators to equal these bit for bit.  `bon_regret` is
Best-of-N regret at one N, as covkit computed it with one draw set per N,
and `bon_regret_grid` reads a grid off one draw set with a loop per trial;
`test_bon_grid.py` compares covkit's grid estimator with both.
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


def onpolicy_column_mc(piBar, policies, pi, prompts, N, m, rng):
    """Entry k: the on-policy coverage of policies[k] against pi, every
    entry from the same len(idx) * m draws per distinct prompt."""
    logN = math.log(N)
    total = np.zeros(len(policies))
    for x, idx in group_prompts(prompts).items():
        Y = piBar.sample_many(x, len(idx) * m, rng)
        lp = pi.logprob_many(x, Y)
        for k, q in enumerate(policies):
            total[k] += int(covers(q.logprob_many(x, Y), lp, logN).sum()) / m
    return total / len(prompts)


def pairwise_matrix(candidates, dataset, N):
    lp = logprob_matrix(candidates, dataset)
    M = np.array([covers(row, lp, math.log(N)).mean(axis=1) for row in lp])
    np.fill_diagonal(M, 0.0)
    return M


def _reward_rows(reward, x, Y):
    if hasattr(reward, "many"):
        return np.asarray(reward.many(x, Y), dtype=float)
    return np.array([reward(x, tuple(y)) for y in Y.tolist()], dtype=float)


def bon_regret(policy, piT, reward, mu_sampler, N, trials, rng, delta=0.05):
    """(estimate, half-width) at one N: each prompt drawn c times gets c
    piT responses and c * N policy responses, one `sample_many` each."""
    total = 0.0
    for x, idx in group_prompts(sample_prompts(mu_sampler, trials,
                                               rng)).items():
        c = len(idx)
        r_t = _reward_rows(reward, x, piT.sample_many(x, c, rng))
        r_b = _reward_rows(reward, x, policy.sample_many(x, c * N, rng))
        total += float(r_t.sum() - r_b.reshape(c, N).max(axis=1).sum())
    return total / trials, 2.0 * hoeffding_half_width(trials, delta)


def bon_regret_grid(policy, piT, reward, mu_sampler, Ns, trials, rng):
    """The estimate at each N of Ns from the draws of one call at
    max(Ns): a trial's BoN_N reward is the max of its first N rewards."""
    n_max = max(Ns)
    total = np.zeros(len(Ns))
    for x, idx in group_prompts(sample_prompts(mu_sampler, trials,
                                               rng)).items():
        c = len(idx)
        r_t = _reward_rows(reward, x, piT.sample_many(x, c, rng))
        R = _reward_rows(reward, x, policy.sample_many(x, c * n_max, rng))
        for k, N in enumerate(Ns):
            best = np.array([max(row[:N]) for row in
                             R.reshape(c, n_max).tolist()])
            total[k] += float(r_t.sum() - best.sum())
    return total / trials
