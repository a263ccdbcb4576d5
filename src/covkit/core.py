"""Sequence primitives and the policy abstraction.

Conventions used throughout the package:

* token ids are 0..V-1; responses have fixed length H,
* probabilities are carried in natural-log domain; -inf means zero mass,
* prompts are opaque JSON-serializable values (ints, strings, tuples).

Batched paths: `Policy.logprob_many` scores an (n, H) array of responses
to one prompt and `Policy.sample_many` draws one; both take the product
path when `step_dist` is not None, and otherwise visit each distinct
prefix once per level (`prefix_levels`).  `sample_prompts` draws n
prompts at once and `group_prompts` groups them, so Monte Carlo callers
make one batched call per distinct prompt; `logprob_matrix` does the same
for a dataset.
"""

from __future__ import annotations

import json
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
        return float(self.logprob_many(traj.x, [traj.y])[0])

    def logprob_many(self, x, Y) -> np.ndarray:
        """log pi(y|x) of each row y of the (n, H) int array Y, -inf where
        pi has no mass.

        Product policies gather log step[Y]; others call next_dist once per
        distinct prefix, level by level.  Either way each row sums its H
        token log-probs left to right, as a per-token loop would.  A
        subclass that overrides `logprob` is scored row by row with it.
        """
        Y = np.asarray(Y, dtype=np.int64)
        if type(self).logprob is not Policy.logprob:
            return np.array([self.logprob(Trajectory(x, y))
                             for y in Y.tolist()], dtype=float)
        total = np.zeros(len(Y))
        step = self.step_dist(x)
        with np.errstate(divide="ignore"):
            if step is not None:
                logs = np.log(np.asarray(step, dtype=float))[Y]
                for h in range(Y.shape[1]):
                    total += logs[:, h]
                return total
            for h, first, inv in prefix_levels(Y, self.V):
                P = self.prefix_dists(x, Y[first, :h])
                total += np.log(P[inv, Y[:, h]])
        return total

    def prefix_dists(self, x, prefixes) -> np.ndarray:
        """next_dist of each row of the (k, h) int array `prefixes`, (k, V)."""
        return np.array([self.next_dist(x, tuple(p))
                         for p in prefixes.tolist()],
                        dtype=float).reshape(len(prefixes), self.V)

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
        """n responses as an (n, H) int array.

        Product policies make one `rng.choice` call.  Otherwise each level
        calls next_dist once per distinct prefix and draws rng.random(n);
        row i takes the number of entries of its normalised cumulative
        distribution that are <= u_i, the rule of Generator.choice, so
        zero-mass tokens are never drawn.  A subclass that overrides
        `sample` is sampled row by row with it.
        """
        step = self.step_dist(x)
        if step is not None:
            return rng.choice(self.V, size=(n, self.H), p=step)
        if type(self).sample is not Policy.sample:
            return np.array([self.sample(x, rng) for _ in range(n)],
                            dtype=np.int64).reshape(n, self.H)
        Y = np.zeros((n, self.H), dtype=np.int64)
        for h, first, inv in prefix_levels(Y, self.V):
            cdf = np.cumsum(self.prefix_dists(x, Y[first, :h]), axis=1)
            cdf /= cdf[:, -1:]
            u = rng.random(n)
            # Filled before prefix_levels resumes and reads column h.
            Y[:, h] = (cdf[inv] <= u[:, None]).sum(axis=1)
        return Y


def prefix_levels(Y: np.ndarray, V: int):
    """For h = 0..H-1 yield (h, first, inv) over the prefixes Y[:, :h].

    Row first[j] holds the j-th distinct prefix and row i's prefix is the
    inv[i]-th.  Prefixes are integer codes (parent index * V + token), so
    codes stay below n * V.  Column h is read only after the yield, so a
    sampler may fill it in place.
    """
    code = np.zeros(len(Y), dtype=np.int64)
    for h in range(Y.shape[1]):
        _, first, inv = np.unique(code, return_index=True,
                                  return_inverse=True)
        yield h, first, inv
        code = inv * V + Y[:, h]


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

    def sample_many(self, n: int, rng: np.random.Generator) -> list:
        """n prompts from one rng.choice call: the same draws as n calls."""
        idx = rng.choice(len(self.prompts), size=n, p=self.weights)
        return [self.prompts[i] for i in idx.tolist()]


def sample_prompts(mu, n: int, rng: np.random.Generator) -> list:
    """n prompts from mu: its `sample_many` if it has one, else n calls."""
    if hasattr(mu, "sample_many"):
        return mu.sample_many(n, rng)
    return [mu(rng) for _ in range(n)]


def group_prompts(prompts) -> dict:
    """prompt -> int array of its positions, in order of first appearance."""
    groups = {}
    for i, x in enumerate(prompts):
        groups.setdefault(x, []).append(i)
    return {x: np.array(idx) for x, idx in groups.items()}


def logprob_matrix(policies, dataset) -> np.ndarray:
    """(K, n) log-probs of the n examples under K policies: the dataset is
    grouped by prompt once, then one logprob_many call per policy and
    prompt."""
    examples = list(dataset)
    lp = np.empty((len(policies), len(examples)))
    for x, idx in group_prompts([t.x for t in examples]).items():
        Y = np.array([examples[i].y for i in idx], dtype=np.int64)
        for k, pi in enumerate(policies):
            lp[k, idx] = pi.logprob_many(x, Y)
    return lp


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
