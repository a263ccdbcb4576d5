"""Decoding strategies: test-time-training policies and Best-of-N.

`TTTPolicy` implements only `prefix_dists`, as every policy does: a level's
rows replay the token steps of all its prefixes at once.  Best-of-N draws
with `sample_many` and scores rewards with `reward.many` when the reward
has it, one batch per distinct prompt.
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


def bon_regret(policy: Policy, piT: Policy, reward, mu, N: int, trials: int,
               rng, delta: float = 0.05):
    """MC estimate of E_x[r(x, piT(x)) - r(x, BoN(x))] with Hoeffding band.

    The trials' prompts are drawn first.  Each prompt drawn c times then
    gets c responses from piT and c * N from `policy` in one batch each;
    BoN's reward in a trial is the largest of its N rewards, the reward of
    the response `best_of_n` would return.  The per-trial difference lies
    in [-1, 1], so the half-width carries a range factor of 2.
    """
    check_number("trials", trials, 100, integer=True)
    check_number("N", N, 1, integer=True)
    hw = 2.0 * hoeffding_half_width(trials, delta)    # refuses a bad delta
    total = 0.0
    for x, idx in group_prompts(sample_prompts(mu, trials, rng)).items():
        c = len(idx)
        r_t = _rewards(reward, x, piT.sample_many(x, c, rng))
        r_b = _rewards(reward, x, policy.sample_many(x, c * N, rng))
        total += float(r_t.sum() - r_b.reshape(c, N).max(axis=1).sum())
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
        """0/1 reward of each row of the (n, H) int array Y."""
        return covers(self.piT.logprob_many(x, Y),
                      self.piHat.logprob_many(x, Y),
                      self.log_thresh).astype(np.int64)

