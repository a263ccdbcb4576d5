"""Learners over the autoregressive linear class.

Five learners: full-batch MLE (projected gradient ascent on the concave
log-likelihood), vanilla sequence-level SGD, normalized mini-batch SGD,
token-level SGD, and truncated distillation SGD.  Each trains on one
`Dataset` and reads V and H from it: `mle_fit` reads its prompt groups as
response blocks, and the four SGD learners make one pass over its
examples, pairs (x, y) of a prompt and a tuple of H token ints.

The four SGD learners share one driver, `train_stack`, which steps a
stack of S jobs (each on its own dataset, with its own step sizes and
theta0) as one (S, d) theta array, and owns the theta init, the batches,
the checkpoint cadence, the example count and the timing.  Each public
SGD learner is its S = 1 case, and hands it its step builder
(`sgd_vanilla_steps`, ...), which gives the learner's one step, taken by
every row at every iteration.  Vanilla and normalized SGD read the
rows' sequence gradients from `_Stack.grads`: on product prompts it
subtracts H times one stacked softmax mean of each row's step table from
its token counts (computed once per dataset); on a walked prompt it sums
over h the `models.token_grads` at the example's `_Stack.prefixes`.
Token SGD steps through those candidate features, and truncated
distillation weighs their token gradients by teacher-student KLs.
Every row keeps the operation order of the per-example loop, so a job's
iterates are the same bits in a stack of any size.

The learners step on theta arrays with the feature map and build no
`LinearARModel`; `TrainConfig` is the one check of theta's values.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import check_number, distinct_rows, group_prompts
from .metrics import _kl_rows
from .models import (FeatureMap, candidate_dists, count_rows, grad_logprob,
                     project_rows, project_unit_ball, token_grads,
                     token_steps)


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
        and no NaN or inf), and theta0 a finite array without bools whose
        squared norm is finite."""
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
            theta0 = theta0.astype(float).ravel()
            if not np.isfinite(theta0).all():
                raise ValueError("theta0 must be finite")
            # The projection divides by sqrt(theta0 . theta0): where that
            # overflows, training would start at theta = 0.
            with np.errstate(over="ignore"):
                if not math.isfinite(theta0.dot(theta0)):
                    raise ValueError("theta0 . theta0 must be finite")


@dataclass
class RunRecord:
    """One job's training: its checkpoints, final theta, metrics (filled
    by the harness), example count, flags and wall_clock.  A learner's
    wall_clock is its time, or an equal share of its stack's time; a
    harness job's adds the job's own dataset draw to its share of the
    stack's training (`harness.run_learner`)."""

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
    Each iteration makes one `grad_logprob` block call per prompt group,
    on the group's distinct rows (`distinct_rows`, ranked once), takes the
    gradients back to the examples and sums them in dataset order, as a
    per-example loop would.  A group with a step table passes its
    `count_rows`, computed once.
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
        first, inv = distinct_rows(Y, V)
        U, table = Y[first], featmap.step_table(x)
        groups.append((x, idx, U, inv, None if table is None
                       else count_rows(table, V, U)))
    rows = np.empty((n, featmap.d))
    gnorm = math.inf
    for it in range(1, MLE_MAX_ITERS + 1):
        for x, idx, U, inv, counts in groups:
            G = grad_logprob(theta, featmap, V, x, U, counts)
            rows[idx] = G.take(inv, axis=0)
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


class _Stack:
    """The examples of a stack's S datasets, as the steps read them: each
    array is indexed by example first, then by row.

    `tables` is the (P, V, d) array of the distinct step tables of their
    prompts, and ids[i, s] the table of example i of row s, or -1 for a
    walked prompt; `walked` says whether any example has one.  Everything
    else is built on first use, by the steps that read it, so a stack
    holds no second copy of its datasets' tokens that its learner does
    not read; `prefixes` builds an example's features, which no theta
    enters, at every prefix of every row at once.
    """

    def __init__(self, datasets, featmap: FeatureMap):
        self.featmap, self.V, self.H = featmap, datasets[0].V, datasets[0].H
        self.datasets = datasets
        self.index, tables = {}, []
        for dataset in datasets:
            for x in dict.fromkeys(dataset.xs):
                if x not in self.index:
                    table = featmap.step_table(x)
                    self.index[x] = -1 if table is None else len(tables)
                    if table is not None:
                        tables.append(np.asarray(table, dtype=float))
        self.tables = np.array(tables).reshape(len(tables), self.V,
                                               featmap.d)
        self.ids = np.ascontiguousarray(np.array(
            [[self.index[x] for x in dataset.xs] for dataset in datasets],
            dtype=np.int64).T)
        self.walked = bool((self.ids < 0).any())

    @functools.cached_property
    def C(self) -> np.ndarray:
        """C[i, s], the `count_rows` of example i of row s: the half of its
        sequence gradient that no theta enters, computed once per prompt
        of each dataset (a task without step tables keeps none)."""
        C = np.zeros(self.ids.shape + (self.featmap.d if len(self.tables)
                                       else 0,))
        for s, dataset in enumerate(self.datasets):
            for x, idx in group_prompts(dataset.xs).items():
                if self.index[x] >= 0:
                    C[idx, s] = count_rows(self.tables[self.index[x]],
                                           self.V, dataset.Y[idx])
        return C

    @functools.cached_property
    def Y(self) -> np.ndarray:
        """Y[i, h, s], token h of example i of row s."""
        return np.stack([dataset.Y for dataset in self.datasets], axis=2)

    def grads(self, theta, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, S, d) sequence gradients of examples lo to hi - 1 of
        every row at the row's theta.  On product prompts: one gather of
        their step tables, one stacked softmax and one stacked
        vector-matrix product, each row bit-equal to its `grad_logprob`;
        otherwise one `walk` per example."""
        k, (S, d) = hi - lo, theta.shape
        if self.walked and (self.ids[lo:hi] < 0).any():
            return np.array([self.walk(theta, i) for i in range(lo, hi)])
        tab = self.tables[self.ids[lo] if k == 1 else self.ids[lo:hi].ravel()]
        rows = theta if k == 1 else np.tile(theta, (k, 1))
        mean = (candidate_dists(tab, rows)[:, None, :] @ tab)[:, 0]
        return self.C[lo:hi] - self.H * mean.reshape(k, S, d)

    def walk(self, theta, i: int) -> np.ndarray:
        """(S, d) sequence gradients of example i of every row, each
        bit-equal to its `grad_logprob`: on a walked prompt the sum over h
        of its `token_grads`, on a product prompt as in `grads`."""
        F, _ = self.prefixes(i)
        H, S, V, d = F.shape
        g, p = token_grads(np.tile(theta, (H, 1)), F.reshape(-1, V, d),
                           self.Y[i].ravel())
        G = np.zeros_like(theta)
        for gh in g.reshape(H, S, d):
            G += gh
        tab = self.ids[i] >= 0
        if tab.any():
            G[tab] = self.C[i, tab] - H * (p[:S, None][tab] @ F[0, tab])[:, 0]
        return G

    def prefixes(self, i: int, teacher=None):
        """(H, S, V, d) candidate features at the H prefixes of example i
        of every row, and a teacher's (H, S, V) rows there (or None): step
        tables gathered, and per level one `featmap.candidates` call per
        distinct walked prompt.  The teacher's rows at a prompt where its
        `step_dist` is not None are that step row at every level, which
        its `prefix_dists` agrees with; elsewhere they are one teacher
        `prefix_dists` call per level and prompt."""
        ids, Y = self.ids[i], self.Y[i]
        F = np.empty((self.H, len(ids), self.V, self.featmap.d))
        F[:, ids >= 0] = self.tables[ids[ids >= 0]]
        P = None if teacher is None else np.empty(F.shape[:3])
        for x, idx in group_prompts([d.xs[i] for d in self.datasets]).items():
            step = None if teacher is None else teacher.step_dist(x)
            if step is not None:
                P[:, idx] = step
            for h in range(self.H):
                if ids[idx[0]] < 0:
                    F[h, idx] = self.featmap.candidates(x, Y[:h, idx].T,
                                                        self.V)
                if teacher is not None and step is None:
                    P[h, idx] = teacher.prefix_dists(x, Y[:h, idx].T)
        return F, P


def train_stack(steps, datasets, featmap: FeatureMap, configs) -> list:
    """The single-pass driver shared by the four SGD learners: S jobs, job
    s on datasets[s] with configs[s], stepped as one (S, d) theta stack.
    Returns the S RunRecords; record s equals, bit for bit, the S = 1 call
    on datasets[s] and configs[s], which is the learner's own call.

    `steps` is the learner's step builder (`sgd_vanilla_steps`, ...),
    called as steps(V, H, featmap, configs) -> (step, k); it resolves each
    config's step sizes (`resolve_config`).  The configs may differ in
    eta, lam, A, N, sigma_star_sq and theta0, but must share T, K and
    checkpoint_every, and every dataset must hold exactly T * k examples;
    anything else is a ValueError before the first step.  Row s starts
    from configs[s].theta0 (or 0).  Iteration t takes examples
    lo = (t - 1) * k to hi = t * k of every dataset, as theta =
    step(theta, data, lo, hi, recs), `data` the datasets' `_Stack`.  A
    step reads theta and returns a new array (it builds no model), and
    may append to a record's flags.  Snapshots every row at
    `checkpoint_iters` and counts examples; each record's wall_clock is an
    equal share of the stack's time.
    """
    t0 = time.perf_counter()
    if not datasets or len(datasets) != len(configs):
        raise ValueError("give one config per dataset, and at least one")
    T, K, every = configs[0].T, configs[0].K, configs[0].checkpoint_every
    if any((c.T, c.K, c.checkpoint_every) != (T, K, every) for c in configs):
        raise ValueError("the jobs of a stack must share T, K and "
                         "checkpoint_every")
    if len({(dataset.V, dataset.H) for dataset in datasets}) > 1:
        raise ValueError("the datasets of a stack must share V and H")
    step, k = steps(datasets[0].V, datasets[0].H, featmap, configs)
    for dataset in datasets:
        if len(dataset) != T * k:
            raise ValueError(f"the dataset must hold T*K = {T * k} "
                             f"examples, got {len(dataset)}")
    theta = np.array([np.zeros(featmap.d) if c.theta0 is None else
                      project_unit_ball(np.asarray(c.theta0, dtype=float))
                      for c in configs])
    data = _Stack(datasets, featmap)
    cps = set(checkpoint_iters(T, every))
    recs = [RunRecord() for _ in configs]
    for t in range(1, T + 1):
        theta = step(theta, data, (t - 1) * k, t * k, recs)
        if t in cps:
            for rec, row in zip(recs, theta):
                rec.checkpoints.append((t, row.copy()))
    share = (time.perf_counter() - t0) / len(recs)
    for rec, row in zip(recs, theta):
        rec.final_theta = row.copy()
        rec.n_examples = T * k
        rec.wall_clock = share
    return recs


def _column(values) -> np.ndarray:
    """Per-row values as an (S, 1) float column."""
    return np.array(values, dtype=float)[:, None]


def sgd_vanilla(dataset, featmap: FeatureMap,
                config: TrainConfig) -> RunRecord:
    """Projected sequence-level SGD: theta += eta * grad log pi(y|x)."""
    return train_stack(sgd_vanilla_steps, [dataset], featmap, [config])[0]


def sgd_vanilla_steps(V, H, featmap, configs):
    """`sgd_vanilla`'s step builder, for `train_stack`."""
    eta = _column([resolve_config("sgd_vanilla", c, featmap)[0]
                   for c in configs])

    def step(theta, data, lo, hi, recs):
        return project_rows(theta + eta * data.grads(theta, lo, hi)[0])
    return step, 1


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
    return train_stack(sgd_normalized_steps, [dataset], featmap,
                       [config])[0]


def _flag(rec):
    if "zero-gradient-zero-lambda" not in rec.flags:
        rec.flags.append("zero-gradient-zero-lambda")


def sgd_normalized_steps(V, H, featmap, configs):
    """`sgd_normalized`'s step builder, for `train_stack`."""
    K = configs[0].K
    rates = [resolve_config("sgd_normalized", c, featmap) for c in configs]
    eta = _column([eta for eta, _ in rates])
    lam = np.array([lam for _, lam in rates], dtype=float)

    def step(theta, data, lo, hi, recs):
        G = data.grads(theta, lo, hi)
        g = np.zeros_like(theta)
        for j in range(K):                      # fixed summation order
            g += G[j]
        g /= K
        # lam + ||g|| is 0 exactly when lam = 0 and g = 0 (both are >= 0):
        # such a row takes no step and sets the flag.
        denom = lam + np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0, 0])
        stop = denom == 0.0
        if not stop.any():
            return project_rows(theta + eta * g / denom[:, None])
        for s in np.flatnonzero(stop).tolist():
            _flag(recs[s])
        moved = project_rows(
            theta + eta * g / np.where(stop, 1.0, denom)[:, None])
        return np.where(stop[:, None], theta, moved)
    return step, K


def sgd_token(dataset, featmap: FeatureMap, config: TrainConfig) -> RunRecord:
    """Token-level SGD: one projected step per token, H steps per example."""
    return train_stack(sgd_token_steps, [dataset], featmap, [config])[0]


def sgd_token_steps(V, H, featmap, configs):
    """`sgd_token`'s step builder, for `train_stack`."""
    eta = _column([resolve_config("sgd_token", c, featmap)[0]
                   for c in configs])

    def step(theta, data, lo, hi, recs):
        for feats, tokens in zip(data.prefixes(lo)[0], data.Y[lo]):
            theta = token_steps(theta, feats, tokens, eta)
        return theta
    return step, 1


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

    The teacher must share the dataset's (V, H) and expose exact token
    conditionals.  The truncation identity sum_h alpha_h eps_h =
    min(A, sum_h eps_h) is asserted on every processed example.
    """
    return train_stack(functools.partial(sgd_truncated_steps, teacher),
                       [dataset], featmap, [config])[0]


def sgd_truncated_steps(teacher, V, H, featmap, configs):
    """`sgd_truncated_distill`'s step builder for `train_stack`, bound to
    a teacher of the datasets' (V, H) with `functools.partial`.  Its step
    reads teacher and student rows at all prefixes of every row's example
    at once, and weighs the row's token gradients by their KLs."""
    if (teacher.V, teacher.H) != (V, H):
        raise ValueError(f"the teacher's (V, H) = {(teacher.V, teacher.H)} "
                         f"differs from the datasets' (V, H) = {(V, H)}")
    eta = _column([resolve_config("sgd_truncated_distill", c, featmap)[0]
                   for c in configs])

    def step(theta, data, lo, hi, recs):
        (F, P), Y = data.prefixes(lo, teacher), data.Y[lo]
        if (np.take_along_axis(P, Y[..., None], 2) <= 0.0).any():
            raise ValueError("teacher assigns zero mass to an observed token")
        g, q = token_grads(np.tile(theta, (H, 1)),
                           F.reshape(-1, V, featmap.d), Y.ravel())
        alpha = []
        for eps, config in zip(_kl_rows(P, q.reshape(P.shape)).T.tolist(),
                               configs):
            a, mass = truncation_weights(eps, config.A)
            if not math.isclose(mass, min(config.A, sum(eps)), rel_tol=1e-9,
                                abs_tol=1e-9):
                raise AssertionError("truncation identity violated")
            alpha.append(a)
        G = np.zeros_like(theta)
        for a, gh in zip(np.array(alpha).T, g.reshape(H, *theta.shape)):
            G += a[:, None] * gh
        return project_rows(theta + eta * G)
    return step, 1
