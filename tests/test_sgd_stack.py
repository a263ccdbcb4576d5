"""A stack of SGD jobs against each job trained alone.

`training.train_stack` steps S jobs as one (S, d) theta array.  Every
row must equal, with ==, the same job run as a stack of one and the
self-contained per-example loop of `train_oracle`: final theta, every
checkpoint, flags and example count.
The instances cover mixed step sizes, two step tables, a prompt without
a step table (walked), a task with both kinds, a normalized row with
lambda = 0 and a zero gradient beside rows that step, and random step
tables up to V = d = 8, where a gemm in place of a vector-matrix product
per row would change bits, some of them walked, so that one iteration
mixes product and walked rows.
"""

import copy
import functools
import math

import numpy as np
import pytest

import train_oracle
from covkit import training
from covkit.core import Dataset, FinitePromptDist, sample_dataset
from covkit.models import CallableFeatureMap, LinearARModel, TabularModel
from covkit.seeding import SeedTree
from covkit.tasks import (TaskInstance, heterogeneous_kl_instance,
                          sgd_lower_instance, sigma_star_instance)
from covkit.training import TrainConfig, train_stack


def table_task(tables, H, theta_star, walked=()):
    """A linear task on the (V, d) step tables of prompts 0, 1, ...; a
    prompt in `walked` has the same features but no step table, so its
    examples take the walked path."""
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
    """A random table task whose prompts are each walked with chance 1/2."""
    rng = np.random.default_rng(seed)
    V, d = rng.integers(2, 9, size=2)
    H = int(rng.integers(1, 6))
    tables = [rng.normal(size=(V, d)) for _ in range(rng.integers(1, 4))]
    theta_star = rng.normal(size=d)
    theta_star /= 1.5 * np.linalg.norm(theta_star)
    walked = [x for x in range(len(tables)) if rng.random() < 0.5]
    return table_task(tables, H, theta_star, walked), rng


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


def mixes(task, datasets, k):
    """Whether some iteration of k examples holds a product and a walked
    example."""
    walked = np.array([[task.featmap.step_table(x) is None for x in d.xs]
                       for d in datasets]).reshape(len(datasets), -1, k)
    return bool((walked.any(axis=(0, 2)) & ~walked.all(axis=(0, 2))).any())


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("S", [1, 2, 5])
def test_random_walked_and_product_rows(S, seed):
    # All four learners on random tables with walked prompts, normalized
    # SGD at K = 1 and 2, and truncated distillation with budgets that
    # never clip, clip at the first token and clip further on.
    task, rng = random_task(seed)
    etas = rng.uniform(0.01, 2.0, size=S).tolist()
    seeds = rng.integers(0, 1000, size=S).tolist()
    lams = rng.choice([0.0, 0.3, 1.0], size=S).tolist()
    As = rng.choice([1e6, 1e-3, 0.05, 0.3], size=S).tolist()
    T = int(rng.integers(1, 8))
    for learner in ("sgd_vanilla", "sgd_token"):
        check_stack(learner, task, [TrainConfig(eta=e, T=T) for e in etas],
                    seeds)
    for K in (1, 2):
        check_stack("sgd_normalized", task,
                    [TrainConfig(eta=e, lam=lam, K=K, T=T)
                     for e, lam in zip(etas, lams)], seeds)
    check_stack("sgd_truncated_distill", task,
                [TrainConfig(eta=e, A=A, T=T) for e, A in zip(etas, As)],
                seeds)


def test_random_tasks_mix_product_and_walked_rows():
    # Those random tasks do mix the two kinds: on five datasets of eight
    # examples, some iteration holds a walked and a product example for
    # at least three of the twelve seeds.
    mixed = 0
    for seed in range(12):
        task, rng = random_task(seed)
        data = [sample_dataset(task.piD, task.mu, 8, SeedTree(s).rng())
                for s in range(5)]
        mixed += mixes(task, data, 1)
    assert mixed >= 3


def test_truncated_stack_clips_mid_example(monkeypatch):
    # On the mixed task's walked prompt every token's KL is about 0.4, so
    # A = 0.5 clips an example at its second token while A = 1e6 never
    # clips; the rows beside them clip at the first token or not at all.
    weights = []

    def recorded(eps, A):
        alpha, mass = truncation_weights(eps, A)
        weights.append((A, alpha))
        return alpha, mass
    truncation_weights = training.truncation_weights
    monkeypatch.setattr(training, "truncation_weights", recorded)
    configs = [TrainConfig(eta=eta, A=A, T=6)
               for eta, A in zip(ETAS, [1e6, 0.5, 0.01, 0.5, 1e6])]
    check_stack("sgd_truncated_distill", TASKS["mixed"](), configs,
                seeds=range(20, 25))
    assert all(alpha == [1.0] * 3 for A, alpha in weights if A == 1e6)
    assert any(alpha[0] == 1.0 and 0.0 < alpha[1] < 1.0 and alpha[2] == 0.0
               for A, alpha in weights if A == 0.5)


def test_truncated_stack_refuses_zero_teacher_mass_in_a_later_row():
    # The teacher gives token 2 no mass; only row 1's data has one.
    task = TASKS["mixed"]()
    teacher = TabularModel({}, V=3, H=3, default=[0.5, 0.5, 0.0])
    Y0 = [[0, 1, 0], [1, 1, 0], [0, 0, 1]]
    data = [Dataset([0, 1, 1], Y0, H=3, V=3),
            Dataset([1, 0, 1], Y0[:2] + [[0, 2, 1]], H=3, V=3)]
    configs = [TrainConfig(eta=0.3, A=1.0, T=3)] * 2
    step = functools.partial(training.sgd_truncated_steps, teacher)
    train_stack(step, data[:1], task.featmap, configs[:1])
    for rows in (data, data[::-1]):
        with pytest.raises(ValueError, match="teacher assigns zero mass to "
                                             "an observed token"):
            train_stack(step, rows, task.featmap, configs)


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


def counted(monkeypatch, obj, names):
    """Count the calls of obj's functions `names`."""
    calls = {name: 0 for name in names}
    for name in names:
        def wrapper(*args, _fn=getattr(obj, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(obj, name, wrapper)
    return calls


@pytest.mark.parametrize("learner", sorted(ORACLE))
def test_product_stacks_take_no_per_row_step(learner, monkeypatch):
    # Every iteration takes the learner's one step.  On product prompts it
    # gathers step tables at every S and K, one row and one example
    # included: a per-row gradient would still give the same bits, so only
    # a count of the per-row calls can show it.  On walked prompts an
    # example's features take one `candidates` call per level and distinct
    # walked prompt, and a teacher is read level by level, never by
    # `next_dist`.
    calls = counted(monkeypatch, training, ["grad_logprob"])
    T = 6

    def run(task_name, S, K):
        task = TASKS[task_name]()
        configs = [TrainConfig(eta=eta, lam=0.5, K=K, T=T)
                   if learner == "sgd_normalized" else
                   TrainConfig(eta=eta, A=0.5, T=T) for eta in ETAS[:S]]
        data = [sample_dataset(task.piD, task.mu, T * configs[0].K,
                               SeedTree(s).rng()) for s in range(S)]
        walked = [{d.xs[i] for d in data
                   if task.featmap.step_table(d.xs[i]) is None}
                  for i in range(T * K)]
        # The teacher gets a feature map of its own, so that only the
        # student's `candidates` calls are counted.
        teacher = copy.copy(task.piD)
        teacher.featmap = copy.copy(task.featmap)
        read = counted(monkeypatch, teacher, ["next_dist"])
        feats = counted(monkeypatch, task.featmap, ["candidates"])
        taken = []

        def builder(*args):
            step, k = (functools.partial(training.sgd_truncated_steps,
                                         teacher)
                       if learner == "sgd_truncated_distill" else
                       steps(learner, task))(*args)

            def counted_step(*step_args):
                taken.append(feats["candidates"])
                return step(*step_args)
            return counted_step, k
        train_stack(builder, data, task.featmap, configs)
        assert len(taken) == T
        assert read == {"next_dist": 0}
        # Per iteration, at most H calls per distinct walked prompt of
        # each of its examples.
        made = np.diff(taken + [feats["candidates"]])
        for t, n in enumerate(made.tolist()):
            assert n <= task.piD.H * sum(map(len, walked[t * K:t * K + K]))
        return int(made.sum())
    Ks = (1, 2) if learner == "sgd_normalized" else (1,)
    for name in ("hetero", "sgd_lower"):
        for S in (1, 2, 5):
            for K in Ks:
                assert run(name, S, K) == 0
    assert calls == {"grad_logprob": 0}
    # Walked stacks make no `grad_logprob` call either.
    for name in ("sigma_star", "mixed"):
        assert run(name, 2, Ks[-1]) > 0
    assert calls == {"grad_logprob": 0}
