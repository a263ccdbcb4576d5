"""The shared SGD driver against one self-contained loop per learner.

`train_oracle` keeps a full loop for each learner; the driver's checkpoints,
final iterate, example count and flags must equal it exactly.
"""

import itertools
import math

import numpy as np
import pytest

import train_oracle
from covkit.core import sample_dataset
from covkit.seeding import SeedTree
from covkit.tasks import heterogeneous_kl_instance, sigma_star_instance
from covkit.training import (TrainConfig, sgd_normalized, sgd_token,
                             sgd_truncated_distill, sgd_vanilla)

T = 7

TASKS = {
    # step_table features: the vectorized gradient path
    "hetero": lambda: heterogeneous_kl_instance(n=2, H=3),
    # phi only: the per-token FeatureMap.candidates path
    "sigma_star": lambda: sigma_star_instance(
        H=3, B=1.0, N=2.0, n=2, theta_star=[0.6, -0.4, 0.2], c=1.0),
}


def _run_both(learner, oracle, task_name, cfg, seed, teacher=False):
    task = TASKS[task_name]()
    no_table = task.featmap.step_table(task.mu.prompts[0]) is None
    assert no_table == (task_name == "sigma_star")
    recs = []
    for fn in (learner, oracle):
        data = sample_dataset(task.piD, task.mu, cfg.T * cfg.K,
                              SeedTree(seed).rng())
        args = (task.piD,) if teacher else ()
        recs.append(fn(data, *args, task.featmap, cfg))
    new, ref = recs
    assert [t for t, _ in new.checkpoints] == [t for t, _ in ref.checkpoints]
    for (_, a), (_, b) in zip(new.checkpoints, ref.checkpoints):
        assert np.array_equal(a, b)
    assert np.array_equal(new.final_theta, ref.final_theta)
    assert new.n_examples == ref.n_examples
    assert new.flags == ref.flags
    return new


THETA0 = {"unset": None, "set": [0.3, -0.2, 0.9]}
GRID = list(itertools.product(TASKS, THETA0, (0, 3)))


def _theta0(task_name, key):
    if THETA0[key] is None:
        return None
    return np.array(THETA0[key][:TASKS[task_name]().featmap.d])


@pytest.mark.parametrize("task_name,theta0,every", GRID)
@pytest.mark.parametrize("name", ["vanilla", "token"])
def test_plain_sgd_matches_oracle(name, task_name, theta0, every):
    cfg = TrainConfig(eta=0.4, T=T, checkpoint_every=every,
                      theta0=_theta0(task_name, theta0))
    fn = {"vanilla": sgd_vanilla, "token": sgd_token}[name]
    rec = _run_both(fn, getattr(train_oracle, fn.__name__), task_name, cfg,
                    seed=1)
    assert rec.n_examples == T


@pytest.mark.parametrize("task_name,theta0,every", GRID)
@pytest.mark.parametrize("K,lam", itertools.product((1, 3), (0.0, 0.5)))
def test_normalized_matches_oracle(K, lam, task_name, theta0, every):
    cfg = TrainConfig(eta=0.3, lam=lam, K=K, T=T, checkpoint_every=every,
                      theta0=_theta0(task_name, theta0))
    rec = _run_both(sgd_normalized, train_oracle.sgd_normalized, task_name,
                    cfg, seed=2)
    assert rec.n_examples == T * K


def test_normalized_zero_gradient_flag_matches_oracle():
    # Prompt 0 of the heterogeneous task has zero features, so with K = 1
    # some batches have an exactly-zero gradient and lambda = 0 flags them.
    cfg = TrainConfig(eta=0.3, lam=0.0, K=1, T=T)
    rec = _run_both(sgd_normalized, train_oracle.sgd_normalized, "hetero",
                    cfg, seed=2)
    assert rec.flags == ["zero-gradient-zero-lambda"]


@pytest.mark.parametrize("task_name", TASKS)
def test_normalized_default_schedule_matches_oracle(task_name):
    cfg = TrainConfig(T=T, K=2, N=8.0, sigma_star_sq=0.7)
    _run_both(sgd_normalized, train_oracle.sgd_normalized, task_name, cfg,
              seed=3)


@pytest.mark.parametrize("task_name,theta0,every", GRID)
@pytest.mark.parametrize("A", [math.log(8.0), 0.01])
def test_truncated_matches_oracle(A, task_name, theta0, every):
    # A = 0.01 is below the first token's KL wherever teacher and student
    # differ there, so alpha clips to a fraction and then to 0.
    cfg = TrainConfig(eta=0.4, A=A, T=T, checkpoint_every=every,
                      theta0=_theta0(task_name, theta0))
    _run_both(sgd_truncated_distill, train_oracle.sgd_truncated_distill,
              task_name, cfg, seed=4, teacher=True)


@pytest.mark.parametrize("task_name", TASKS)
def test_truncated_default_schedule_matches_oracle(task_name):
    cfg = TrainConfig(T=T, A=0.5, sigma_star_sq=0.7)
    _run_both(sgd_truncated_distill, train_oracle.sgd_truncated_distill,
              task_name, cfg, seed=5, teacher=True)
