"""Decoding strategies: test-time-training policies and Best-of-N.

`TTTPolicy` implements only `prefix_dists`, as every policy does: a level's
rows replay the token steps of all its prefixes at once.  Best-of-N draws
with `sample_many` and scores rewards with `reward.many` when the reward
has it, one batch per distinct prompt; `bon_regret` reads a whole grid of
N off one draw set, max N policy responses per trial.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Policy, check_number, group_prompts, sample_prompts
from .metrics import covers, hoeffding_half_width
from .models import LinearARModel, candidate_dists, token_steps


class TTTPolicy(Policy):
    """Policy that takes a token gradient step after each generated token.

    The conditional at (x, prefix) is the base linear model evaluated at the
    parameter obtained by replaying token-gradient steps along the prefix,
    starting from the base theta (reset per prompt).  `prefix_dists`
    replays a level at once, h stacked `token_steps` and one softmax, with
    no memo.  Like every policy, it answers `next_dist` as the one-row
    case and is scored and sampled by the `Policy` level paths.
    """

    def __init__(self, base: LinearARModel, eta: float):
        self.base = base
        self.eta = float(eta)
        self.V = base.V
        self.H = base.H

    def prefix_dists(self, x, prefixes) -> np.ndarray:
        fm, theta = self.base.featmap, self.base.theta[None]
        for j in range(prefixes.shape[1] if self.eta else 0):
            feats = fm.candidates(x, prefixes[:, :j], self.V)
            theta = token_steps(theta, feats, prefixes[:, j], self.eta)
        return candidate_dists(fm.candidates(x, prefixes, self.V), theta)


def best_of_n(policy: Policy, reward, x, N: int, rng) -> tuple:
    """Draw N i.i.d. responses; return the first attaining maximal reward."""
    check_number("N", N, 1, integer=True)
    draws = policy.sample_many(x, N, rng)
    return tuple(draws[int(np.argmax(_rewards(reward, x, draws)))].tolist())


def bon_regret(policy: Policy, piT: Policy, reward, mu, Ns, trials: int,
               rng, delta: float = 0.05):
    """MC estimates of E_x[r(x, piT(x)) - r(x, BoN_N(x))] for each N of the
    grid `Ns`, with a Hoeffding band; returns (estimates in the order of
    `Ns`, half-width).

    One draw set serves the grid.  The trials' prompts are drawn first.
    Each prompt drawn c times then gets c responses from piT and
    c * max(Ns) from `policy`, one batch each; BoN_N's reward in a trial is
    the largest of its first N rewards, the reward of the response
    `best_of_n` would return, so the estimates cannot increase with N.  A
    one-element grid [N] draws what N alone always drew.  The per-trial
    difference lies in [-1, 1], so the half-width carries a range factor
    of 2; it is a band for each N alone, not a joint band over the grid.
    """
    check_number("trials", trials, 100, integer=True)
    if not np.iterable(Ns) or not len(Ns):
        raise ValueError(f"Ns must be a nonempty list of Best-of-N sizes, "
                         f"got {Ns!r}")
    for N in Ns:
        check_number("N", N, 1, integer=True)
    hw = 2.0 * hoeffding_half_width(trials, delta)    # refuses a bad delta
    cols = np.array(Ns, dtype=np.int64) - 1
    n_max = int(cols.max()) + 1
    total = np.zeros(len(cols))
    for x, idx in group_prompts(sample_prompts(mu, trials, rng)).items():
        c = len(idx)
        r_t = _rewards(reward, x, piT.sample_many(x, c, rng))
        r_b = _rewards(reward, x, policy.sample_many(x, c * n_max, rng))
        # Row k of `best` is trial-by-trial BoN at N = cols[k] + 1; its sum
        # is a contiguous 1-D sum, as a lone N's was.
        best = np.maximum.accumulate(r_b.reshape(c, n_max), axis=1).T[cols]
        total += r_t.sum() - best.sum(axis=1)
    return total / trials, hw


def _rewards(reward, x, Y) -> np.ndarray:
    """reward(x, y) of each row of Y: `reward.many` if it has one, else
    one call per row with y a tuple of ints."""
    if hasattr(reward, "many"):
        return np.asarray(reward.many(x, Y), dtype=float)
    # Column lists zipped into row tuples: a fraction of the cost of
    # converting each row of a large Y on its own.
    rows = zip(*Y.T.tolist()) if Y.shape[1] else [()] * len(Y)
    return np.array([reward(x, y) for y in rows], dtype=float)


class AdversarialReward:
    """r(x, y) = 1 iff log piT(y|x) - log piHat(y|x) >= log(2N).

    A response piT cannot produce scores 0; one only piHat misses scores 1.
    """

    def __init__(self, piT: Policy, piHat: Policy, N: float):
        check_number("N", N, 0, lo_open=True)
        self.piT = piT
        self.piHat = piHat
        self.log_thresh = math.log(2.0 * N)

    def __call__(self, x, y) -> int:
        return int(self.many(x, [y])[0])

    def many(self, x, Y) -> np.ndarray:
        """0/1 reward of each row of the (n, H) int array Y.  Both policies
        score Y's distinct rows, found once, and the rewards are taken
        back to Y's rows."""
        Y, levels = np.asarray(Y, dtype=np.int64), {}
        lpT, inv = self.piT._logprob_distinct(x, Y, levels)
        lpHat = self.piHat._logprob_distinct(x, Y, levels)[0]
        return covers(lpT, lpHat, self.log_thresh).astype(np.int64).take(inv)

