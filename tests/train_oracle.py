"""Reference learners: one self-contained loop per learner.

Each SGD function repeats the whole single-pass loop (theta init, the
dataset's examples taken in order, checkpoint cadence, example count)
that `covkit.training._sgd_loop` now shares, with the step written inline in the same floating-point
operation order, and `mle_fit` sums one gradient per example.  They build
a `LinearARModel` at every step and take its gradients from this module's
own per-example `grad_logprob`, `grad_logprob_token` and
`project_unit_ball`, so they share no gradient arithmetic with covkit.
`test_train_driver.py` requires the driver's iterates to equal these bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np

from covkit.metrics import step_kl
from covkit.models import LinearARModel
from covkit.training import (MLEResult, RunRecord, checkpoint_iters,
                             normalized_schedule, truncated_schedule,
                             truncation_weights)


def project_unit_ball(v):
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm <= 1.0:
        return v
    return v / nrm


def _softmax(logits):
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def grad_logprob(model, x, y):
    """Gradient of log pi_theta(y|x) of one example under a model."""
    if len(y) != model.H:
        raise ValueError("response must have full length H")
    table = model.featmap.step_table(x)
    if table is not None:
        p = _softmax(table @ model.theta)
        counts = np.bincount(np.asarray(y), minlength=model.V).astype(float)
        return counts @ table - model.H * (p @ table)
    g = np.zeros(model.featmap.d)
    prefix = ()
    for v in y:
        g += grad_logprob_token(model, x, prefix, v)
        prefix = prefix + (v,)
    return g


def grad_logprob_token(model, x, prefix, v):
    """Gradient of log pi_theta(v | x, prefix) under a model."""
    feats = model.featmap.candidates(x, [prefix], model.V)[0]
    p = _softmax(feats @ model.theta)
    return feats[v] - p @ feats


def mle_fit(dataset, featmap, tol=1e-8, max_iters=10 ** 5):
    V, H = dataset.V, dataset.H
    step = 1.0 / (2.0 * H * featmap.B ** 2)
    theta = np.zeros(featmap.d)
    n = len(dataset)
    gnorm = math.inf
    for it in range(1, max_iters + 1):
        model = LinearARModel(theta, featmap, V, H)
        g = np.zeros(featmap.d)
        for x, y in zip(dataset.xs, dataset.Y.tolist()):
            g += grad_logprob(model, x, y)
        g /= n
        theta_new = project_unit_ball(theta + step * g)
        gnorm = float(np.linalg.norm(theta_new - theta) / step)
        theta = theta_new
        if gnorm <= tol:
            return MLEResult(theta, True, it, gnorm)
    return MLEResult(theta, False, max_iters, gnorm)


def _init_theta(config, d):
    if config.theta0 is not None:
        return project_unit_ball(np.asarray(config.theta0, dtype=float).copy())
    return np.zeros(d)


def _pairs(dataset):
    """The dataset's examples as an iterator of (x, y) pairs, y a tuple."""
    return iter([(x, tuple(y)) for x, y in zip(dataset.xs,
                                               dataset.Y.tolist())])


def _take(stream, k):
    return [next(stream) for _ in range(k)]


def sgd_vanilla(dataset, featmap, config):
    V, H = dataset.V, dataset.H
    stream = _pairs(dataset)
    theta = _init_theta(config, featmap.d)
    cps = set(checkpoint_iters(config.T, config.checkpoint_every))
    rec = RunRecord()
    for t in range(1, config.T + 1):
        ((x, y),) = _take(stream, 1)
        model = LinearARModel(theta, featmap, V, H)
        theta = project_unit_ball(theta + config.eta * grad_logprob(model, x, y))
        rec.n_examples += 1
        if t in cps:
            rec.checkpoints.append((t, theta.copy()))
    rec.final_theta = theta
    return rec


def sgd_normalized(dataset, featmap, config):
    V, H = dataset.V, dataset.H
    stream = _pairs(dataset)
    eta, lam = config.eta, config.lam
    if eta is None or lam is None:
        eta_s, lam_s = normalized_schedule(featmap.B, config.T, config.N,
                                           config.sigma_star_sq)
        eta = eta_s if eta is None else eta
        lam = lam_s if lam is None else lam
    theta = _init_theta(config, featmap.d)
    cps = set(checkpoint_iters(config.T, config.checkpoint_every))
    rec = RunRecord()
    for t in range(1, config.T + 1):
        batch = _take(stream, config.K)
        model = LinearARModel(theta, featmap, V, H)
        g = np.zeros(featmap.d)
        for x, y in batch:
            g += grad_logprob(model, x, y)
        g /= config.K
        gnorm = float(np.linalg.norm(g))
        if lam == 0.0 and gnorm == 0.0:
            if "zero-gradient-zero-lambda" not in rec.flags:
                rec.flags.append("zero-gradient-zero-lambda")
        else:
            theta = project_unit_ball(theta + eta * g / (lam + gnorm))
        rec.n_examples += config.K
        if t in cps:
            rec.checkpoints.append((t, theta.copy()))
    rec.final_theta = theta
    return rec


def sgd_token(dataset, featmap, config):
    V, H = dataset.V, dataset.H
    stream = _pairs(dataset)
    theta = _init_theta(config, featmap.d)
    cps = set(checkpoint_iters(config.T, config.checkpoint_every))
    rec = RunRecord()
    for t in range(1, config.T + 1):
        ((x, y),) = _take(stream, 1)
        prefix = ()
        for v in y:
            model = LinearARModel(theta, featmap, V, H)
            g = grad_logprob_token(model, x, prefix, v)
            theta = project_unit_ball(theta + config.eta * g)
            prefix = prefix + (v,)
        rec.n_examples += 1
        if t in cps:
            rec.checkpoints.append((t, theta.copy()))
    rec.final_theta = theta
    return rec


def sgd_truncated_distill(dataset, teacher, featmap, config):
    V, H = dataset.V, dataset.H
    stream = _pairs(dataset)
    A = config.A
    eta = config.eta
    if eta is None:
        eta = truncated_schedule(featmap.B, config.T, A, config.sigma_star_sq)
    theta = _init_theta(config, featmap.d)
    cps = set(checkpoint_iters(config.T, config.checkpoint_every))
    rec = RunRecord()
    for t in range(1, config.T + 1):
        ((x, y),) = _take(stream, 1)
        model = LinearARModel(theta, featmap, V, H)
        eps = []
        grads = []
        prefix = ()
        for v in y:
            p_teacher = teacher.next_dist(x, prefix)
            assert p_teacher[v] > 0.0
            eps.append(step_kl(p_teacher, model.next_dist(x, prefix)))
            grads.append(grad_logprob_token(model, x, prefix, v))
            prefix = prefix + (v,)
        alpha, mass = truncation_weights(eps, A)
        assert math.isclose(mass, min(A, sum(eps)), rel_tol=1e-9,
                            abs_tol=1e-9)
        g = np.zeros(featmap.d)
        for a, gh in zip(alpha, grads):
            if a > 0.0:
                g += a * gh
        theta = project_unit_ball(theta + eta * g)
        rec.n_examples += 1
        if t in cps:
            rec.checkpoints.append((t, theta.copy()))
    rec.final_theta = theta
    return rec
