"""Reference SGD learners: one self-contained loop per learner.

Each function repeats the whole single-pass loop (theta init, stream draw,
checkpoint cadence, example count) that `covkit.training._sgd_loop` now
shares, with the step written inline in the same floating-point operation
order.  `test_train_driver.py` requires the driver's iterates to equal these
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from covkit.metrics import step_kl
from covkit.models import (LinearARModel, grad_logprob, grad_logprob_token,
                           project_unit_ball)
from covkit.training import (RunRecord, checkpoint_iters, normalized_schedule,
                             truncated_schedule, truncation_weights)


def _init_theta(config, d):
    if config.theta0 is not None:
        return project_unit_ball(np.asarray(config.theta0, dtype=float).copy())
    return np.zeros(d)


def _take(stream, k):
    return [next(stream) for _ in range(k)]


def sgd_vanilla(stream, featmap, V, H, config):
    theta = _init_theta(config, featmap.d)
    cps = set(checkpoint_iters(config.T, config.checkpoint_every))
    rec = RunRecord()
    for t in range(1, config.T + 1):
        (traj,) = _take(stream, 1)
        model = LinearARModel(theta, featmap, V, H)
        theta = project_unit_ball(theta + config.eta * grad_logprob(model, traj))
        rec.n_examples += 1
        if t in cps:
            rec.checkpoints.append((t, theta.copy()))
    rec.final_theta = theta
    return rec


def sgd_normalized(stream, featmap, V, H, config):
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
        for traj in batch:
            g += grad_logprob(model, traj)
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


def sgd_token(stream, featmap, V, H, config):
    theta = _init_theta(config, featmap.d)
    cps = set(checkpoint_iters(config.T, config.checkpoint_every))
    rec = RunRecord()
    for t in range(1, config.T + 1):
        (traj,) = _take(stream, 1)
        prefix = ()
        for v in traj.y:
            model = LinearARModel(theta, featmap, V, H)
            g = grad_logprob_token(model, traj.x, prefix, v)
            theta = project_unit_ball(theta + config.eta * g)
            prefix = prefix + (v,)
        rec.n_examples += 1
        if t in cps:
            rec.checkpoints.append((t, theta.copy()))
    rec.final_theta = theta
    return rec


def sgd_truncated_distill(stream, teacher, featmap, V, H, config):
    A = config.A
    eta = config.eta
    if eta is None:
        eta = truncated_schedule(featmap.B, config.T, A, config.sigma_star_sq)
    theta = _init_theta(config, featmap.d)
    cps = set(checkpoint_iters(config.T, config.checkpoint_every))
    rec = RunRecord()
    for t in range(1, config.T + 1):
        (traj,) = _take(stream, 1)
        model = LinearARModel(theta, featmap, V, H)
        eps = []
        grads = []
        prefix = ()
        for v in traj.y:
            p_teacher = teacher.next_dist(traj.x, prefix)
            assert p_teacher[v] > 0.0
            eps.append(step_kl(p_teacher, model.next_dist(traj.x, prefix)))
            grads.append(grad_logprob_token(model, traj.x, prefix, v))
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
