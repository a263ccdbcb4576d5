"""Learners over the autoregressive linear class.

Five learners: full-batch MLE (projected gradient ascent on the concave
log-likelihood), vanilla sequence-level SGD, normalized mini-batch SGD,
token-level SGD, and truncated distillation SGD.  Each trains on one
`Dataset` and reads V and H from it: `mle_fit` reads its prompt groups as
response blocks, and the four SGD learners make one pass over its
examples, pairs (x, y) of a prompt and a tuple of H token ints.  They
differ only in their step: each resolves its step sizes and hands a step
function to one driver, `_sgd_loop`, which owns the theta init, the
batches, the checkpoint cadence, the example count and the timing.

The learners step on theta arrays with the feature map and build no
`LinearARModel`: every gradient is a `models.grad_logprob` (a block of
one prompt's responses) or `grad_logprob_token` call at the current
theta, and `TrainConfig` is the one check of theta's values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import check_number
from .metrics import step_kl
from .models import (FeatureMap, candidate_dists, count_rows, grad_logprob,
                     grad_logprob_token, project_unit_ball, token_step)


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
        """Refuse what a learner would fail on or silently misuse: each
        setting is a number in its range (`core.check_number`, so no bool
        and no NaN or inf), and theta0 a finite array without bools."""
        check_number("T", self.T, 1, integer=True)
        check_number("K", self.K, 1, integer=True)
        check_number("checkpoint_every", self.checkpoint_every, 0,
                     integer=True)          # 0: the geometric cadence
        # Step sizes and the truncation budget are positive; lam and
        # sigma_star_sq may be 0; N > 1, as log N is the coverage budget.
        for name, lo, lo_open in (("eta", 0, True), ("A", 0, True),
                                  ("lam", 0, False),
                                  ("sigma_star_sq", 0, False),
                                  ("N", 1, True)):
            if getattr(self, name) is not None:
                check_number(name, getattr(self, name), lo, lo_open=lo_open)
        # The one check of theta0's values: the learners step on theta
        # arrays and build no model that would check its norm.
        if self.theta0 is not None:
            theta0 = np.asarray(self.theta0, dtype=object)
            if any(isinstance(v, (bool, np.bool_)) for v in theta0.flat):
                raise ValueError("theta0 entries must be numbers, not bools")
            if not np.isfinite(theta0.astype(float)).all():
                raise ValueError("theta0 must be finite")


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
        ts = {2 ** k for k in range(T.bit_length())}
    return sorted(ts | {T})


@dataclass
class MLEResult:
    theta: np.ndarray
    converged: bool
    iters: int
    grad_map_norm: float


MLE_TOL, MLE_MAX_ITERS = 1e-8, 10 ** 5      # mle_fit's stopping rule


def mle_fit(dataset, featmap: FeatureMap) -> MLEResult:
    """Full-batch projected gradient ascent on the average log-likelihood.

    Fixed step 1/(2 H B^2) (the objective is concave and H B^2-smooth).
    Each iteration makes one `grad_logprob` block call per prompt group
    and sums the rows in dataset order, as a per-example loop would.  A
    group with a step table passes its `count_rows`, computed once.
    Terminates when the gradient-mapping norm drops below `MLE_TOL`; after
    `MLE_MAX_ITERS` iterations it returns the last one, converged=False.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    V, H = dataset.V, dataset.H
    step = 1.0 / (2.0 * H * featmap.B ** 2)
    theta = np.zeros(featmap.d)
    n = len(dataset)
    groups = []
    for x, idx, Y in dataset.groups:
        table = featmap.step_table(x)
        groups.append((x, idx, Y, None if table is None
                       else count_rows(table, V, Y)))
    rows = np.empty((n, featmap.d))
    gnorm = math.inf
    for it in range(1, MLE_MAX_ITERS + 1):
        for x, idx, Y, counts in groups:
            rows[idx] = grad_logprob(theta, featmap, V, x, Y, counts)
        # Summed in dataset order, as a running += over the examples.
        g = np.cumsum(rows, axis=0)[-1]
        g /= n
        theta_new = project_unit_ball(theta + step * g)
        gnorm = float(np.linalg.norm(theta_new - theta) / step)
        theta = theta_new
        if gnorm <= MLE_TOL:
            return MLEResult(theta, True, it, gnorm)
    return MLEResult(theta, False, MLE_MAX_ITERS, gnorm)


def resolve_config(learner: str, config: TrainConfig, featmap: FeatureMap):
    """(eta, lam) of the learner function `learner` on `config` and
    `featmap`, default schedules filled in; ValueError for a theta0 not of
    dimension featmap.d or missing step sizes.  Each learner calls this
    first, and `harness.validate_config` at every task point."""
    if config.theta0 is not None and \
            np.asarray(config.theta0, dtype=float).shape != (featmap.d,):
        raise ValueError("theta0 dimension mismatch")
    eta, lam = config.eta, config.lam
    if learner == "sgd_normalized" and None in (eta, lam):
        if None in (config.N, config.sigma_star_sq):
            raise ValueError("provide (eta, lam) or (N, sigma_star_sq) "
                             "for the default schedule")
        eta_s, lam_s = normalized_schedule(featmap.B, config.T, config.N,
                                           config.sigma_star_sq)
        eta = eta_s if eta is None else eta
        lam = lam_s if lam is None else lam
    if learner == "sgd_truncated_distill":
        if config.A is None:
            raise ValueError("truncated distillation requires A = log N")
        if eta is None and config.sigma_star_sq is None:
            raise ValueError("provide eta or sigma_star_sq for the schedule")
        if eta is None:
            eta = truncated_schedule(featmap.B, config.T, config.A,
                                     config.sigma_star_sq)
    if eta is None and learner != "mle_fit":
        raise ValueError(f"{learner} requires an explicit eta")
    return eta, lam


def _sgd_loop(dataset, featmap: FeatureMap, config: TrainConfig, step,
              k: int = 1) -> RunRecord:
    """The single-pass driver shared by the four SGD learners.

    Runs T iterations from `config.theta0` (or 0) over a dataset of
    exactly T * k examples; any other size is a ValueError before the
    first step.  Iteration t takes rows (t - 1) * k to t * k as (x, y)
    pairs, y a tuple of H ints, and sets theta = step(theta, batch, rec):
    a step reads the theta array and returns a new one (builds no model),
    and may append to rec.flags.  Snapshots theta at `checkpoint_iters`
    and counts examples and time.
    """
    t0 = time.perf_counter()
    if len(dataset) != config.T * k:
        raise ValueError(f"the dataset must hold T*K = {config.T * k} "
                         f"examples, got {len(dataset)}")
    theta = np.zeros(featmap.d) if config.theta0 is None else \
        project_unit_ball(np.asarray(config.theta0, dtype=float).copy())
    cps = set(checkpoint_iters(config.T, config.checkpoint_every))
    examples = list(zip(dataset.xs, map(tuple, dataset.Y.tolist())))
    rec = RunRecord()
    for t in range(1, config.T + 1):
        batch = examples[(t - 1) * k:t * k]
        theta = step(theta, batch, rec)
        rec.n_examples += k
        if t in cps:
            rec.checkpoints.append((t, theta.copy()))
    rec.final_theta = theta
    rec.wall_clock = time.perf_counter() - t0
    return rec


def sgd_vanilla(dataset, featmap: FeatureMap,
                config: TrainConfig) -> RunRecord:
    """Projected sequence-level SGD: theta += eta * grad log pi(y|x)."""
    eta, _ = resolve_config("sgd_vanilla", config, featmap)
    V = dataset.V

    def step(theta, batch, rec):
        ((x, y),) = batch
        return project_unit_ball(
            theta + eta * grad_logprob(theta, featmap, V, x, [y])[0])
    return _sgd_loop(dataset, featmap, config, step)


def normalized_schedule(B: float, T: int, N: float, sigma_star_sq: float):
    """Default (eta, lambda) from the normalized-SGD analysis."""
    logN = math.log(N)
    eta = 1.0 / (128.0 * B)
    if sigma_star_sq > 0:
        eta = min(eta, (logN / (sigma_star_sq * T)) ** 0.25)
    lam = logN / (16.0 * eta)
    return eta, lam


def sgd_normalized(dataset, featmap: FeatureMap,
                   config: TrainConfig) -> RunRecord:
    """Mini-batch SGD with globally normalized steps g/(lambda + ||g||).

    With lambda = 0 a batch whose mean gradient is exactly 0 takes no step
    and sets the "zero-gradient-zero-lambda" flag.
    """
    eta, lam = resolve_config("sgd_normalized", config, featmap)
    V = dataset.V

    def step(theta, batch, rec):
        g = np.zeros(featmap.d)
        for x, y in batch:                      # fixed summation order
            g += grad_logprob(theta, featmap, V, x, [y])[0]
        g /= config.K
        gnorm = float(np.linalg.norm(g))
        if lam == 0.0 and gnorm == 0.0:
            if "zero-gradient-zero-lambda" not in rec.flags:
                rec.flags.append("zero-gradient-zero-lambda")
            return theta
        return project_unit_ball(theta + eta * g / (lam + gnorm))
    return _sgd_loop(dataset, featmap, config, step, k=config.K)


def sgd_token(dataset, featmap: FeatureMap, config: TrainConfig) -> RunRecord:
    """Token-level SGD: one projected step per token, H steps per example."""
    eta, _ = resolve_config("sgd_token", config, featmap)
    V = dataset.V

    def step(theta, batch, rec):
        ((x, y),) = batch
        for h, v in enumerate(y):
            theta = token_step(theta, featmap, V, x, tuple(y[:h]), v, eta)
        return theta
    return _sgd_loop(dataset, featmap, config, step)


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


def sgd_truncated_distill(dataset, teacher, featmap: FeatureMap,
                          config: TrainConfig) -> RunRecord:
    """Distillation SGD with token gradients truncated at KL budget A = log N.

    The teacher must expose exact token conditionals.  The truncation
    identity sum_h alpha_h eps_h = min(A, sum_h eps_h) is asserted on every
    processed example.
    """
    eta, _ = resolve_config("sgd_truncated_distill", config, featmap)
    V = dataset.V

    def step(theta, batch, rec):
        ((x, y),) = batch
        eps = []
        grads = []
        prefix = ()
        for v in y:
            p_teacher = teacher.next_dist(x, prefix)
            if p_teacher[v] <= 0.0:
                raise ValueError(
                    "teacher assigns zero mass to an observed token")
            student = candidate_dists(
                featmap.candidates(x, [prefix], V), theta)[0]
            eps.append(step_kl(p_teacher, student))
            grads.append(grad_logprob_token(theta, featmap, V, x, prefix, v))
            prefix = prefix + (v,)
        alpha, mass = truncation_weights(eps, config.A)
        if not math.isclose(mass, min(config.A, sum(eps)), rel_tol=1e-9,
                            abs_tol=1e-9):
            raise AssertionError("truncation identity violated")
        g = np.zeros(featmap.d)
        for a, gh in zip(alpha, grads):
            if a > 0.0:
                g += a * gh
        return project_unit_ball(theta + eta * g)
    return _sgd_loop(dataset, featmap, config, step)
