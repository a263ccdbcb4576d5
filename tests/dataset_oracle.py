"""Per-example reference for datasets: the loader, writer, sampler and
prompt grouping that build one Trajectory per line, kept to check the
array-backed `covkit.core` paths against."""

import json

import numpy as np

from covkit.core import Trajectory


def load_examples(path, header_path=None):
    """(list of Trajectory, seed_info): one json.loads per line."""
    examples = []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            x = tuple(rec["x"]) if isinstance(rec["x"], list) else rec["x"]
            examples.append(Trajectory(x, tuple(rec["y"])))
    seed_info = {}
    if header_path is not None:
        with open(header_path) as f:
            seed_info = json.load(f).get("seed_info", {})
    return examples, seed_info


def save_examples(examples, path):
    with open(path, "w") as f:
        for t in examples:
            x = list(t.x) if isinstance(t.x, tuple) else t.x
            f.write(json.dumps({"x": x, "y": list(t.y)}) + "\n")


def sample_examples(policy, mu, n, rng):
    """n Trajectory objects: prompt, then response, per example."""
    out = []
    for _ in range(n):
        x = mu(rng)
        out.append(Trajectory(x, policy.sample(x, rng)))
    return out


def group_prompts(prompts):
    """prompt -> positions, built with one list.append per element."""
    groups = {}
    for i, x in enumerate(prompts):
        groups.setdefault(x, []).append(i)
    return {x: np.array(idx) for x, idx in groups.items()}
