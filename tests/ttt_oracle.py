"""Reference test-time-training replays, one trajectory at a time.

These are the per-row scorer and sampler that `TTTPolicy` carried before
it was scored and sampled through the `Policy` level paths: each replays
the token-gradient steps along one response from the base theta, with no
memo, building the model at each step.  The gradient and the projection
are `train_oracle`'s per-model copies, not covkit's.  `test_ttt_paths.py`
checks the level paths against them.
"""

import math

from covkit.core import NEG_INF
from train_oracle import grad_logprob_token, project_unit_ball


def logprob(policy, x, y) -> float:
    """log pi(y|x) of a TTTPolicy by a fresh incremental replay."""
    theta = policy.base.theta
    total = 0.0
    prefix = ()
    for v in y:
        model = policy.base.with_theta(theta)
        p = model.next_dist(x, prefix)
        if p[v] <= 0.0:
            return NEG_INF
        total += math.log(p[v])
        if policy.eta != 0.0:
            g = grad_logprob_token(model, x, prefix, v)
            theta = project_unit_ball(theta + policy.eta * g)
        prefix = prefix + (v,)
    return total


def sample(policy, x, rng) -> tuple:
    """One response of a TTTPolicy: one rng.choice per token, replaying
    the gradient step after each drawn token."""
    theta = policy.base.theta
    y = ()
    for _ in range(policy.H):
        model = policy.base.with_theta(theta)
        p = model.next_dist(x, y)
        v = int(rng.choice(policy.V, p=p))
        if policy.eta != 0.0:
            g = grad_logprob_token(model, x, y, v)
            theta = project_unit_ball(theta + policy.eta * g)
        y = y + (v,)
    return y
