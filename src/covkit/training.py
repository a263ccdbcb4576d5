"""Learners over the autoregressive linear class.

Five learners: full-batch MLE (projected gradient ascent on the concave
log-likelihood), vanilla sequence-level SGD, normalized mini-batch SGD,
token-level SGD, and truncated distillation SGD.  The four SGD learners are
single-pass over an example stream and differ only in their step: each
resolves its step sizes and hands a step function to one driver,
`_sgd_loop`, which owns the theta init, the stream draws, the checkpoint
cadence, the example count and the timing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import Trajectory
from .metrics import step_kl
from .models import (FeatureMap, LinearARModel, grad_logprob,
                     grad_logprob_token, project_unit_ball)


@dataclass
class TrainConfig:
    eta: float | None = None
    T: int = 1000
    K: int = 1
    lam: float | None = None
    A: float | None = None            # truncation budget log N
    N: float | None = None            # coverage scale for proof schedules
    sigma_star_sq: float | None = None
    checkpoint_every: int = 0         # 0 -> geometric cadence 1,2,4,...
    theta0: np.ndarray | None = None

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be positive")
        if self.eta is not None and self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.lam is not None and self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.A is not None and self.A <= 0:
            raise ValueError("A must be positive")


@dataclass
class RunRecord:
    checkpoints: list = field(default_factory=list)   # (t, theta copy)
    final_theta: np.ndarray | None = None
    metrics: list = field(default_factory=list)       # optional, by harness
    n_examples: int = 0
    wall_clock: float = 0.0
    flags: list = field(default_factory=list)

    def summary(self) -> dict:
        return {"n_examples": self.n_examples, "wall_clock": self.wall_clock,
                "flags": self.flags,
                "final_theta": None if self.final_theta is None
                else self.final_theta.tolist()}


def checkpoint_iters(T: int, every: int = 0):
    """Iterations at which to snapshot; geometric by default."""
    if every > 0:
        ts = set(range(every, T + 1, every))
    else:
        ts = set()
        t = 1
        while t <= T:
            ts.add(t)
            t *= 2
    ts.add(T)
    return sorted(ts)


@dataclass
class MLEResult:
    theta: np.ndarray
    converged: bool
    iters: int
    grad_map_norm: float


def mle_fit(dataset, featmap: FeatureMap, V: int, H: int,
            tol: float = 1e-8, max_iters: int = 10 ** 5) -> MLEResult:
    """Full-batch projected gradient ascent on the average log-likelihood.

    Fixed step 1/(2 H B^2) (the objective is concave and H B^2-smooth).
    Terminates when the gradient-mapping norm drops below `tol`; on budget
    exhaustion the last iterate is returned with converged=False.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    step = 1.0 / (2.0 * H * featmap.B ** 2)
    theta = np.zeros(featmap.d)
    n = len(dataset)
    gnorm = math.inf
    for it in range(1, max_iters + 1):
        model = LinearARModel(theta, featmap, V, H)
        g = np.zeros(featmap.d)
        for traj in dataset:
            g += grad_logprob(model, traj)
        g /= n
        theta_new = project_unit_ball(theta + step * g)
        gnorm = float(np.linalg.norm(theta_new - theta) / step)
        theta = theta_new
        if gnorm <= tol:
            return MLEResult(theta, True, it, gnorm)
    return MLEResult(theta, False, max_iters, gnorm)


def _take(stream, k):
    out = []
    for _ in range(k):
        try:
            out.append(next(stream))
        except StopIteration:
            raise RuntimeError("example stream exhausted before T steps")
    return out


def _init_theta(config: TrainConfig, d: int) -> np.ndarray:
    if config.theta0 is not None:
        theta = np.asarray(config.theta0, dtype=float).copy()
        if theta.shape != (d,):
            raise ValueError("theta0 dimension mismatch")
        return project_unit_ball(theta)
    return np.zeros(d)


def _sgd_loop(stream, featmap: FeatureMap, V: int, H: int,
              config: TrainConfig, step, k: int = 1) -> RunRecord:
    """The single-pass driver shared by the four streaming learners.

    Runs T iterations from `config.theta0` (or 0).  Iteration t draws k
    examples and sets theta = step(model, batch, rec), where model is the
    LinearARModel at the current theta; a step may append to rec.flags.
    Snapshots theta at `checkpoint_iters` and counts examples and time.
    """
    t0 = time.perf_counter()
    theta = _init_theta(config, featmap.d)
    cps = set(checkpoint_iters(config.T, config.checkpoint_every))
    rec = RunRecord()
    for t in range(1, config.T + 1):
        batch = _take(stream, k)
        theta = step(LinearARModel(theta, featmap, V, H), batch, rec)
        rec.n_examples += k
        if t in cps:
            rec.checkpoints.append((t, theta.copy()))
    rec.final_theta = theta
    rec.wall_clock = time.perf_counter() - t0
    return rec


def sgd_vanilla(stream, featmap: FeatureMap, V: int, H: int,
                config: TrainConfig) -> RunRecord:
    """Projected sequence-level SGD: theta += eta * grad log pi(y|x)."""
    if config.eta is None:
        raise ValueError("vanilla SGD requires an explicit eta")

    def step(model, batch, rec):
        (traj,) = batch
        return project_unit_ball(
            model.theta + config.eta * grad_logprob(model, traj))
    return _sgd_loop(stream, featmap, V, H, config, step)


def normalized_schedule(B: float, T: int, N: float, sigma_star_sq: float):
    """Default (eta, lambda) from the normalized-SGD analysis."""
    logN = math.log(N)
    eta = 1.0 / (128.0 * B)
    if sigma_star_sq > 0:
        eta = min(eta, (logN / (sigma_star_sq * T)) ** 0.25)
    lam = logN / (16.0 * eta)
    return eta, lam


def sgd_normalized(stream, featmap: FeatureMap, V: int, H: int,
                   config: TrainConfig) -> RunRecord:
    """Mini-batch SGD with globally normalized steps g/(lambda + ||g||).

    With lambda = 0 a batch whose mean gradient is exactly 0 takes no step
    and sets the "zero-gradient-zero-lambda" flag.
    """
    eta, lam = config.eta, config.lam
    if eta is None or lam is None:
        if config.N is None or config.sigma_star_sq is None:
            raise ValueError("provide (eta, lam) or (N, sigma_star_sq) "
                             "for the default schedule")
        eta_s, lam_s = normalized_schedule(featmap.B, config.T, config.N,
                                           config.sigma_star_sq)
        eta = eta_s if eta is None else eta
        lam = lam_s if lam is None else lam

    def step(model, batch, rec):
        g = np.zeros(featmap.d)
        for traj in batch:                      # fixed summation order
            g += grad_logprob(model, traj)
        g /= config.K
        gnorm = float(np.linalg.norm(g))
        if lam == 0.0 and gnorm == 0.0:
            if "zero-gradient-zero-lambda" not in rec.flags:
                rec.flags.append("zero-gradient-zero-lambda")
            return model.theta
        return project_unit_ball(model.theta + eta * g / (lam + gnorm))
    return _sgd_loop(stream, featmap, V, H, config, step, k=config.K)


def sgd_token(stream, featmap: FeatureMap, V: int, H: int,
              config: TrainConfig) -> RunRecord:
    """Token-level SGD: one projected step per token, H steps per example."""
    if config.eta is None:
        raise ValueError("token SGD requires an explicit eta")

    def step(model, batch, rec):
        (traj,) = batch
        theta = model.theta
        for h, v in enumerate(traj.y):
            if h:       # the driver's model serves the first token
                model = model.with_theta(theta)
            g = grad_logprob_token(model, traj.x, traj.y[:h], v)
            theta = project_unit_ball(theta + config.eta * g)
        return theta
    return _sgd_loop(stream, featmap, V, H, config, step)


def truncation_weights(eps: list, A: float):
    """Per-token weights alpha for cumulative-KL budget A.

    eps[h] is the teacher-student conditional KL at the prefix before token
    h+1.  Returns (alpha, clipped_mass) where clipped_mass equals
    min(A, sum eps) exactly.
    """
    alpha = []
    cum = 0.0
    mass = 0.0
    for e in eps:
        if cum + e <= A:
            alpha.append(1.0)
            mass += e
        elif cum > A:
            alpha.append(0.0)
        else:
            # Fractional step: spend the remaining budget A - cum.
            alpha.append((A - cum) / e if e > 0 else 0.0)
            mass += A - cum
        cum += e
    return alpha, mass


def truncated_schedule(B: float, T: int, A: float, sigma_star_sq: float):
    eta = 1.0 / ((64.0 * A + 2.0) * B ** 2)
    if sigma_star_sq > 0:
        eta = min(eta, (1.0 / (T * sigma_star_sq * A)) ** 0.5)
    return eta


def sgd_truncated_distill(stream, teacher, featmap: FeatureMap, V: int,
                          H: int, config: TrainConfig) -> RunRecord:
    """Distillation SGD with token gradients truncated at KL budget A = log N.

    The teacher must expose exact token conditionals.  The truncation
    identity sum_h alpha_h eps_h = min(A, sum_h eps_h) is asserted on every
    processed example.
    """
    if config.A is None:
        raise ValueError("truncated distillation requires A = log N")
    A = config.A
    eta = config.eta
    if eta is None:
        if config.sigma_star_sq is None:
            raise ValueError("provide eta or sigma_star_sq for the schedule")
        eta = truncated_schedule(featmap.B, config.T, A, config.sigma_star_sq)

    def step(model, batch, rec):
        (traj,) = batch
        eps = []
        grads = []
        prefix = ()
        for v in traj.y:
            p_teacher = teacher.next_dist(traj.x, prefix)
            if p_teacher[v] <= 0.0:
                raise ValueError(
                    "teacher assigns zero mass to an observed token")
            eps.append(step_kl(p_teacher, model.next_dist(traj.x, prefix)))
            grads.append(grad_logprob_token(model, traj.x, prefix, v))
            prefix = prefix + (v,)
        alpha, mass = truncation_weights(eps, A)
        expected = min(A, sum(eps))
        if not math.isclose(mass, expected, rel_tol=1e-9, abs_tol=1e-9):
            raise AssertionError("truncation identity violated")
        g = np.zeros(featmap.d)
        for a, gh in zip(alpha, grads):
            if a > 0.0:
                g += a * gh
        return project_unit_ball(model.theta + eta * g)
    return _sgd_loop(stream, featmap, V, H, config, step)


def policy_stream(piD, mu, rng):
    """Infinite stream of fresh (x, y) examples from mu x piD."""
    while True:
        x = mu(rng)
        yield Trajectory(x, piD.sample(x, rng))
