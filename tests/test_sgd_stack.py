"""A stack of SGD jobs against each job trained alone.

`training.train_stack` steps S jobs as one (S, d) theta array.  Every
row must equal, with ==, the same job run as a stack of one (which takes
the per-row step) and the self-contained per-example loop of
`train_oracle`: final theta, every checkpoint, flags and example count.
The instances cover mixed step sizes, two step tables, a prompt without
a step table (walked), a task with both kinds, a normalized row with
lambda = 0 and a zero gradient beside rows that step, and random step
tables up to V = d = 8, where a gemm in place of a vector-matrix product
per row would change bits.
"""

import functools
import math

import numpy as np
import pytest

import train_oracle
from covkit import training
from covkit.core import FinitePromptDist, sample_dataset
from covkit.models import CallableFeatureMap, LinearARModel
from covkit.seeding import SeedTree
from covkit.tasks import (TaskInstance, heterogeneous_kl_instance,
                          sgd_lower_instance, sigma_star_instance)
from covkit.training import TrainConfig, train_stack


def table_task(tables, H, theta_star, walked=()):
    """A linear task on the (V, d) step tables of prompts 0, 1, ...; a
    prompt in `walked` has the same features but no step table, so its
    examples take the per-row step."""
    def phi(x, prefix):
        return tables[x][prefix[-1]]

    def step_tables(x):
        return None if x in walked else tables[x]
    V, d = tables[0].shape
    B = max(float(np.linalg.norm(t, axis=1).max()) for t in tables)
    featmap = CallableFeatureMap(phi, d=d, B=B, step_tables=step_tables)
    piD = LinearARModel(theta_star, featmap, V=V, H=H)
    mu = FinitePromptDist(list(range(len(tables))),
                          [1.0 / len(tables)] * len(tables))
    return TaskInstance(mu=mu, piD=piD, featmap=featmap)


def random_task(seed):
    rng = np.random.default_rng(seed)
    V, d = rng.integers(2, 9, size=2)
    H = int(rng.integers(1, 6))
    tables = [rng.normal(size=(V, d)) for _ in range(rng.integers(1, 4))]
    theta_star = rng.normal(size=d)
    theta_star /= 1.5 * np.linalg.norm(theta_star)
    return table_task(tables, H, theta_star), rng


def mixed_task():
    """Prompt 0 has a step table, prompt 1 is walked."""
    rng = np.random.default_rng(11)
    tables = [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
    return table_task(tables, 3, np.array([0.3, -0.2, 0.4, 0.1]),
                      walked=(1,))


TASKS = {
    "hetero": lambda: heterogeneous_kl_instance(n=2, H=3),
    "sgd_lower": lambda: sgd_lower_instance("large_eta", H=4, B=1.0,
                                            eta=2.0),
    "sigma_star": lambda: sigma_star_instance(
        H=3, B=1.0, N=2.0, n=2, theta_star=[0.6, -0.4, 0.2], c=1.0),
    "mixed": mixed_task,
}

ORACLE = {"sgd_vanilla": train_oracle.sgd_vanilla,
          "sgd_normalized": train_oracle.sgd_normalized,
          "sgd_token": train_oracle.sgd_token,
          "sgd_truncated_distill": train_oracle.sgd_truncated_distill}


def same_record(a, b):
    assert [t for t, _ in a.checkpoints] == [t for t, _ in b.checkpoints]
    for (_, x), (_, y) in zip(a.checkpoints, b.checkpoints):
        assert (x == y).all()
    assert (a.final_theta == b.final_theta).all()
    assert a.flags == b.flags
    assert a.n_examples == b.n_examples


def steps(learner, task):
    """The step builder of the learner function `learner` on `task`."""
    if learner == "sgd_truncated_distill":
        return functools.partial(training.sgd_truncated_steps, task.piD)
    return getattr(training, learner + "_steps")


def check_stack(learner, task, configs, seeds):
    """Train the stack and each job alone; returns the stack's records."""
    teacher = (task.piD,) if learner == "sgd_truncated_distill" else ()
    datasets = [sample_dataset(task.piD, task.mu, c.T * c.K,
                               SeedTree(seed).rng())
                for c, seed in zip(configs, seeds)]
    recs = train_stack(steps(learner, task), datasets, task.featmap, configs)
    assert len(recs) == len(configs)
    for rec, data, cfg in zip(recs, datasets, configs):
        alone = train_stack(steps(learner, task), [data], task.featmap, [cfg])
        same_record(rec, alone[0])
        same_record(rec, ORACLE[learner](data, *teacher, task.featmap, cfg))
    return recs


ETAS = [0.4, 0.05, 1.3, 0.2, 0.7]


@pytest.mark.parametrize("task_name", sorted(TASKS))
@pytest.mark.parametrize("S", [1, 2, 5])
@pytest.mark.parametrize("learner", ["sgd_vanilla", "sgd_token"])
def test_plain_stacks_equal_their_jobs(learner, S, task_name):
    task = TASKS[task_name]()
    configs = [TrainConfig(eta=eta, T=9) for eta in ETAS[:S]]
    check_stack(learner, task, configs, seeds=range(S))


@pytest.mark.parametrize("task_name", sorted(TASKS))
@pytest.mark.parametrize("S", [1, 2, 5])
def test_normalized_stacks_equal_their_jobs(S, task_name):
    task = TASKS[task_name]()
    lams = [0.5, 0.0, 2.0, 0.0, 0.1]
    configs = [TrainConfig(eta=eta, lam=lam, K=3, T=6, checkpoint_every=2)
               for eta, lam in zip(ETAS[:S], lams[:S])]
    check_stack("sgd_normalized", task, configs, seeds=range(10, 10 + S))


def test_zero_gradient_row_beside_rows_that_step():
    # Prompt 0 of the heterogeneous task has zero features, so a batch of
    # K = 1 on it has an exactly-zero gradient; with lambda = 0 that row
    # takes no step and sets the flag, while the rows beside it step.
    task = TASKS["hetero"]()
    configs = [TrainConfig(eta=0.3, lam=lam, K=1, T=7)
               for lam in (0.0, 0.5, 0.0, 0.0)]
    recs = check_stack("sgd_normalized", task, configs, seeds=[2, 2, 3, 4])
    assert recs[0].flags == ["zero-gradient-zero-lambda"]
    assert recs[1].flags == []
    assert not (recs[0].final_theta == recs[1].final_theta).all()


@pytest.mark.parametrize("task_name", sorted(TASKS))
def test_truncated_stacks_equal_their_jobs(task_name):
    task = TASKS[task_name]()
    configs = [TrainConfig(eta=eta, A=A, T=5)
               for eta, A in zip(ETAS, [math.log(8.0), 0.01, 0.5])]
    check_stack("sgd_truncated_distill", task, configs, seeds=[4, 5, 6])


@pytest.mark.parametrize("seed", range(24))
def test_random_step_tables(seed):
    task, rng = random_task(seed)
    S = int(rng.integers(1, 6))
    etas = rng.uniform(0.01, 2.0, size=S).tolist()
    seeds = rng.integers(0, 1000, size=S).tolist()
    theta0 = [None if rng.random() < 0.5 else rng.normal(size=task.featmap.d)
              for _ in range(S)]
    T = int(rng.integers(1, 10))
    for learner in ("sgd_vanilla", "sgd_token"):
        check_stack(learner, task, [TrainConfig(eta=e, T=T, theta0=t0)
                                    for e, t0 in zip(etas, theta0)], seeds)
    K = int(rng.integers(1, 4))
    lams = rng.choice([0.0, 0.3, 1.0], size=S).tolist()
    check_stack("sgd_normalized", task,
                [TrainConfig(eta=e, lam=lam, K=K, T=T, theta0=t0)
                 for e, lam, t0 in zip(etas, lams, theta0)], seeds)


def test_stack_jobs_must_share_the_schedule():
    task = TASKS["hetero"]()
    data = [sample_dataset(task.piD, task.mu, 4, SeedTree(s).rng())
            for s in (0, 1)]
    for other in (TrainConfig(eta=0.1, T=2), TrainConfig(eta=0.1, T=4,
                                                         checkpoint_every=2)):
        with pytest.raises(ValueError, match="must share T, K and "
                                             "checkpoint_every"):
            train_stack(training.sgd_vanilla_steps, data, task.featmap,
                        [TrainConfig(eta=0.1, T=4), other])
    with pytest.raises(ValueError, match="one config per dataset"):
        train_stack(training.sgd_vanilla_steps, data, task.featmap,
                    [TrainConfig(eta=0.1, T=4)])


def counted(monkeypatch, names):
    """Count calls of training's per-row gradient and step functions."""
    calls = {name: 0 for name in names}
    for name in names:
        def wrapper(*args, _fn=getattr(training, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(training, name, wrapper)
    return calls


@pytest.mark.parametrize("learner", ["sgd_vanilla", "sgd_normalized",
                                     "sgd_token"])
def test_product_stacks_take_no_per_row_step(learner, monkeypatch):
    # The stacked step is the only path of an iteration of two examples or
    # more on product prompts: a fall back to the per-row step would still
    # give the same bits, so only a count of the per-row calls can show it.
    calls = counted(monkeypatch, ["grad_logprob", "grad_logprob_token",
                                  "token_step"])

    def run(task_name, S, K=2):
        task = TASKS[task_name]()
        configs = [TrainConfig(eta=eta, lam=0.5, K=K, T=6)
                   if learner == "sgd_normalized" else
                   TrainConfig(eta=eta, T=6) for eta in ETAS[:S]]
        data = [sample_dataset(task.piD, task.mu, 6 * configs[0].K,
                               SeedTree(s).rng()) for s in range(S)]
        train_stack(steps(learner, task), data, task.featmap, configs)
    for name in ("hetero", "sgd_lower"):
        for S in (2, 5):
            run(name, S)
    if learner == "sgd_normalized":
        run("hetero", 1)        # one row, two examples per iteration
    assert calls == {name: 0 for name in calls}
    # The same counters see the per-row step: on a walked prompt, and on
    # one example per iteration, which steps alone.
    run("sigma_star", 2)
    walked = sum(calls.values())
    assert walked > 0
    run("hetero", 1, K=1)
    assert sum(calls.values()) > walked
