"""Per-example reference for datasets: the loader, writer, sampler and
prompt grouping that build one Trajectory per line, kept to check the
array-backed `covkit.core` paths against.

The samplers are the per-draw loops that `covkit.core` replaced with one
uniform-driven sampler: one `Generator.choice` call per prompt and per
token (one `rng.random(n)` per level for a batch), which the block draws
must reproduce bit for bit.
"""

import json

import numpy as np

from covkit.core import Dataset, FinitePromptDist, Trajectory
from prefix_oracle import prefix_levels_ref


def load_examples(path):
    """A list of Trajectory: one json.loads per line."""
    examples = []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            x = tuple(rec["x"]) if isinstance(rec["x"], list) else rec["x"]
            examples.append(Trajectory(x, tuple(rec["y"])))
    return examples


def save_examples(examples, path):
    with open(path, "w") as f:
        for t in examples:
            x = list(t.x) if isinstance(t.x, tuple) else t.x
            f.write(json.dumps({"x": x, "y": list(t.y)}) + "\n")


def prompt(mu, rng):
    """One prompt: one rng.choice on a FinitePromptDist's weights."""
    if isinstance(mu, FinitePromptDist):
        return mu.prompts[int(rng.choice(len(mu.prompts), p=mu.weights))]
    return mu(rng)


def sample(policy, x, rng):
    """One response: one rng.choice per token (one call for a product)."""
    step = policy.step_dist(x)
    if step is not None:
        return tuple(int(v) for v in rng.choice(policy.V, size=policy.H,
                                                p=step))
    y = ()
    for _ in range(policy.H):
        p = policy.next_dist(x, y)
        y = y + (int(rng.choice(policy.V, p=p)),)
    return y


def sample_many(policy, x, n, rng):
    """n responses: one rng.choice for a product, else rng.random(n) per
    level mapped through each prefix's normalised cumulative row."""
    step = policy.step_dist(x)
    if step is not None:
        return rng.choice(policy.V, size=(n, policy.H), p=step)
    Y = np.zeros((n, policy.H), dtype=np.int64)
    for h, first, inv in prefix_levels_ref(Y, policy.V):
        cdf = np.cumsum(policy.prefix_dists(x, Y[first, :h]), axis=1)
        cdf /= cdf[:, -1:]
        u = rng.random(n)
        Y[:, h] = (cdf[inv] <= u[:, None]).sum(axis=1)
    return Y


def sample_examples(policy, mu, n, rng):
    """n Trajectory objects: prompt, then response, per example."""
    out = []
    for _ in range(n):
        x = prompt(mu, rng)
        out.append(Trajectory(x, sample(policy, x, rng)))
    return out


def policy_stream(piD, mu, rng):
    """Infinite stream of (x, y) pairs drawing each example when it is
    taken."""
    while True:
        x = prompt(mu, rng)
        yield x, sample(piD, x, rng)


def sample_dataset(policy, mu, n, rng):
    """`covkit.core.sample_dataset` from `sample_examples`."""
    ex = sample_examples(policy, mu, n, rng)
    return Dataset([t.x for t in ex], [t.y for t in ex], H=policy.H,
                   V=policy.V)


def group_prompts(prompts):
    """prompt -> positions, built with one list.append per element."""
    groups = {}
    for i, x in enumerate(prompts):
        groups.setdefault(x, []).append(i)
    return {x: np.array(idx) for x, idx in groups.items()}
