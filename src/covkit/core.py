"""Sequence primitives and the policy abstraction.

Conventions used throughout the package:

* token ids are 0..V-1; responses have fixed length H,
* probabilities are carried in natural-log domain; -inf means zero mass,
* prompts are opaque JSON-serializable values (ints, strings, tuples).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Vocab:
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"vocab size must be >= 1, got {self.size}")


@dataclass(frozen=True)
class Trajectory:
    """A (prompt, response) pair with a fixed-length token response."""

    x: object
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(int(v) for v in self.y))


@dataclass
class Dataset:
    examples: list
    H: int
    V: int
    seed_info: dict = field(default_factory=dict)

    def __post_init__(self):
        for t in self.examples:
            if len(t.y) != self.H:
                raise ValueError("inhomogeneous horizon in dataset")
            if any(v < 0 or v >= self.V for v in t.y):
                raise ValueError("token id out of range")

    def __len__(self):
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)


class Policy:
    """Abstract conditional sequence distribution.

    Subclasses must set `V` and `H` and implement `next_dist`.  All other
    behavior (logprob, sampling) is derived from the token conditionals, so
    the sampler law and logprob consistency hold by construction.
    """

    V: int
    H: int

    def next_dist(self, x, prefix: tuple) -> np.ndarray:
        """Probability vector over the V candidate next tokens."""
        raise NotImplementedError

    def step_dist(self, x):
        """Per-step distribution if conditionals are prefix-independent.

        Returns a length-V probability vector valid at every step, or None
        when the policy has genuine prefix dependence.  Fast paths (product
        enumeration, vectorized sampling) key off this.
        """
        return None

    def logprob(self, traj: Trajectory) -> float:
        total = 0.0
        prefix = ()
        for v in traj.y:
            p = self.next_dist(traj.x, prefix)[v]
            if p <= 0.0:
                return NEG_INF
            total += math.log(p)
            prefix = prefix + (v,)
        return total

    def sample(self, x, rng: np.random.Generator) -> tuple:
        step = self.step_dist(x)
        if step is not None:
            return tuple(int(v) for v in rng.choice(self.V, size=self.H, p=step))
        y = ()
        for _ in range(self.H):
            p = self.next_dist(x, y)
            y = y + (int(rng.choice(self.V, p=p)),)
        return y

    def sample_many(self, x, n: int, rng: np.random.Generator) -> np.ndarray:
        """n responses as an (n, H) int array; vectorized when possible."""
        step = self.step_dist(x)
        if step is not None:
            return rng.choice(self.V, size=(n, self.H), p=step)
        return np.array([self.sample(x, rng) for _ in range(n)], dtype=np.int64)


def sample_dataset(policy: Policy, mu, n: int, rng: np.random.Generator,
                   seed_info: dict | None = None) -> Dataset:
    """Draw n i.i.d. trajectories with x ~ mu and y ~ policy(.|x).

    `mu` is a callable rng -> prompt.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    examples = []
    for _ in range(n):
        x = mu(rng)
        examples.append(Trajectory(x, policy.sample(x, rng)))
    return Dataset(examples, H=policy.H, V=policy.V,
                   seed_info=dict(seed_info or {}))


class FinitePromptDist:
    """Finite prompt distribution usable both as weights and as a sampler."""

    def __init__(self, prompts, weights):
        self.prompts = list(prompts)
        w = np.asarray(weights, dtype=float)
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        self.weights = w

    def items(self):
        return list(zip(self.prompts, self.weights))

    def __call__(self, rng: np.random.Generator):
        return self.prompts[int(rng.choice(len(self.prompts), p=self.weights))]


def check_enum_budget(what: str, n: int):
    """Raise before an exact computation would enumerate n > 1e6 items."""
    if n > 10 ** 6:
        raise ValueError(f"enumeration budget exceeded: {what} = {n} > 1e6; "
                         "use a Monte Carlo mode instead")


def enumerate_responses(V: int, H: int):
    """All V**H responses in lexicographic order."""
    check_enum_budget("V^H", V ** H)
    idx = np.indices((V,) * H).reshape(H, -1).T if H > 0 else np.zeros((1, 0), int)
    return [tuple(int(v) for v in row) for row in idx]


def save_jsonl(dataset: Dataset, path, header_path=None):
    """One trajectory per line: {"x": ..., "y": [...]}; seed info sidecar."""
    with open(path, "w") as f:
        for t in dataset.examples:
            x = list(t.x) if isinstance(t.x, tuple) else t.x
            f.write(json.dumps({"x": x, "y": list(t.y)}) + "\n")
    if header_path is not None:
        with open(header_path, "w") as f:
            json.dump({"H": dataset.H, "V": dataset.V,
                       "n": len(dataset), "seed_info": dataset.seed_info}, f)


def load_jsonl(path, H: int, V: int, header_path=None) -> Dataset:
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
    return Dataset(examples, H=H, V=V, seed_info=seed_info)
