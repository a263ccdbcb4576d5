"""Concrete policies: autoregressive linear softmax models and tabular models."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Policy, Trajectory, check_enum_budget
from .metrics import tree_walk

# Lazy feature-norm validation; off by default in production runs.
CHECK_FEATURE_NORMS = False

_STEP_CACHE_LIMIT = 4096


class FeatureMap:
    """Deterministic feature map phi(x, y_{1:h}) -> R^d with ||phi|| <= B.

    The prefix argument includes the candidate token in the last position.
    Subclasses with per-step structure (phi depending only on the prompt and
    the last token) should implement `step_table` so models and trainers can
    use O(V d) vectorized paths.
    """

    d: int
    B: float

    def phi(self, x, prefix: tuple) -> np.ndarray:
        raise NotImplementedError

    def step_table(self, x):
        """(V, d) array with row v = phi(x, prefix + (v,)), if prefix-free."""
        return None

    def _checked_phi(self, x, prefix):
        v = np.asarray(self.phi(x, prefix), dtype=float)
        if CHECK_FEATURE_NORMS and np.linalg.norm(v) > self.B + 1e-9:
            raise AssertionError(
                f"feature norm {np.linalg.norm(v):.6g} exceeds bound {self.B}")
        return v


class CallableFeatureMap(FeatureMap):
    def __init__(self, fn, d: int, B: float, step_tables=None):
        self.fn = fn
        self.d = d
        self.B = float(B)
        self._step_tables = step_tables

    def phi(self, x, prefix):
        return np.asarray(self.fn(x, prefix), dtype=float)

    def step_table(self, x):
        if self._step_tables is None:
            return None
        return self._step_tables(x)


def project_unit_ball(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm <= 1.0:
        return v
    return v / nrm


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


class LinearARModel(Policy):
    """Softmax policy with logits <theta, phi(x, y_{1:h-1} o v)>, ||theta|| <= 1."""

    def __init__(self, theta, featmap: FeatureMap, V: int, H: int):
        self.theta = np.asarray(theta, dtype=float)
        if self.theta.shape != (featmap.d,):
            raise ValueError(
                f"theta has dim {self.theta.shape}, feature map has d={featmap.d}")
        if np.linalg.norm(self.theta) > 1.0 + 1e-9:
            raise ValueError("||theta|| must be <= 1")
        self.featmap = featmap
        self.V = int(V)
        self.H = int(H)
        self._steps = {}

    def with_theta(self, theta) -> "LinearARModel":
        return LinearARModel(theta, self.featmap, self.V, self.H)

    def candidate_features(self, x, prefix) -> np.ndarray:
        """(V, d) matrix of features for each candidate next token."""
        table = self.featmap.step_table(x)
        if table is not None:
            return table
        return np.stack([self.featmap._checked_phi(x, prefix + (v,))
                         for v in range(self.V)])

    def next_dist(self, x, prefix: tuple) -> np.ndarray:
        if len(prefix) >= self.H:
            raise ValueError("prefix length must be < H")
        return _softmax(self.candidate_features(x, prefix) @ self.theta)

    def step_dist(self, x):
        # Cached per prompt: theta is never changed in place (with_theta
        # builds a new model).
        if x not in self._steps:
            if len(self._steps) >= _STEP_CACHE_LIMIT:
                self._steps.clear()
            table = self.featmap.step_table(x)
            self._steps[x] = None if table is None else _softmax(
                table @ self.theta)
        return self._steps[x]


def grad_logprob(model: LinearARModel, traj: Trajectory) -> np.ndarray:
    """Gradient of log pi_theta(y|x): sum_h phi(x,y_{1:h}) - conditional mean."""
    if len(traj.y) != model.H:
        raise ValueError("trajectory must have full length H")
    table = model.featmap.step_table(traj.x)
    if table is not None:
        # Features depend only on the last token: one matrix op per sequence.
        p = _softmax(table @ model.theta)
        counts = np.bincount(np.asarray(traj.y), minlength=model.V).astype(float)
        return counts @ table - model.H * (p @ table)
    g = np.zeros(model.featmap.d)
    prefix = ()
    for v in traj.y:
        feats = model.candidate_features(traj.x, prefix)
        p = _softmax(feats @ model.theta)
        g += feats[v] - p @ feats
        prefix = prefix + (v,)
    return g


def grad_logprob_token(model: LinearARModel, x, prefix: tuple, v: int) -> np.ndarray:
    """Gradient of a single token conditional log pi_theta(v | x, prefix)."""
    feats = model.candidate_features(x, prefix)
    p = _softmax(feats @ model.theta)
    return feats[v] - p @ feats


class TabularModel(Policy):
    """Explicit conditional tables keyed by (x, prefix).

    Unseen prefixes fall back to `default` (uniform unless configured),
    keeping densities defined for arbitrary (x, y) as pairwise coverage
    requires.
    """

    def __init__(self, tables: dict, V: int, H: int, default=None):
        self.V = int(V)
        self.H = int(H)
        if default is None:
            default = np.full(V, 1.0 / V)
        self.default = np.asarray(default, dtype=float)
        self.tables = {}
        for key, row in tables.items():
            row = np.asarray(row, dtype=float)
            if abs(row.sum() - 1.0) > 1e-9 or row.min() < 0:
                raise ValueError(f"conditional row for {key} is not a distribution")
            self.tables[key] = row

    def next_dist(self, x, prefix: tuple) -> np.ndarray:
        return self.tables.get((x, tuple(prefix)), self.default)

    @functools.cached_property
    def _steps(self):
        # One scan for all prompts: a prompt is prefix-independent only when
        # every prefix has a stored row and all of them are equal.
        by_prompt = {}
        for (x, _), row in self.tables.items():
            by_prompt.setdefault(x, []).append(row)
        n_prefixes = sum(self.V ** h for h in range(self.H))
        return {x: rows[0] if len(rows) == n_prefixes and
                all(np.array_equal(r, rows[0]) for r in rows) else None
                for x, rows in by_prompt.items()}

    def step_dist(self, x):
        return self._steps.get(x, self.default)


def linear_to_tabular(model: LinearARModel, prompts) -> TabularModel:
    """Explicit conditional tables of a linear model on enumerable prompts."""
    tables = {}
    for x in prompts:
        stack = [()]
        while stack:
            prefix = stack.pop()
            tables[(x, prefix)] = model.next_dist(x, prefix)
            if len(prefix) + 1 < model.H:
                stack.extend(prefix + (v,) for v in range(model.V))
    return TabularModel(tables, V=model.V, H=model.H)


def sigma_star_sq(piD: Policy, featmap: FeatureMap, mu_items, mode="exact",
                  n=None, rng=None):
    """Inherent variance: E_piD[ sum_h ||phi(x,y_{1:h}) - phibar(x,y_{1:h-1})||^2 ].

    `mu_items` is a list of (prompt, weight) pairs for exact mode, or a
    prompt sampler callable for mc mode.  mc mode returns (estimate, se).
    """
    if mode == "exact":
        items = [(x, w, piD.step_dist(x), featmap.step_table(x))
                 for x, w in mu_items if w != 0.0]
        walks = sum(s is None or t is None for _, _, s, t in items)
        check_enum_budget("leaves", piD.V ** piD.H * walks)
        total = 0.0
        for x, w, step, table in items:
            if step is not None and table is not None:
                total += w * piD.H * _variance(step, table)
                continue
            lpD, _, sums, _ = tree_walk(piD, x,
                                        terms=[_sigma_term(piD, featmap, x)])
            total += w * float(np.exp(lpD) @ sums[0])
        return total
    if mode == "mc":
        if n is None or n < 2:
            raise ValueError("mc mode requires n >= 2")
        vals = np.empty(n)
        for i in range(n):
            x = mu_items(rng)
            y = piD.sample(x, rng)
            acc = 0.0
            prefix = ()
            for v in y:
                p = piD.next_dist(x, prefix)
                feats = np.stack([featmap._checked_phi(x, prefix + (u,))
                                  for u in range(piD.V)])
                mean = p @ feats
                acc += float(np.sum((feats[v] - mean) ** 2))
                prefix = prefix + (v,)
            vals[i] = acc
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))
    raise ValueError(f"unknown mode {mode!r}")


def _variance(p, feats):
    """E_{v ~ p} ||feats[v] - p @ feats||^2."""
    return float(p @ np.sum((feats - p @ feats) ** 2, axis=1))


def _sigma_term(piD, featmap, x):
    """tree_walk term: the feature variance under piD at each prefix."""
    def term(prefixes, PD, _):
        return [_variance(p, np.stack([featmap._checked_phi(x, pre + (v,))
                                       for v in range(piD.V)]))
                for pre, p in zip(prefixes, PD)]
    return term
