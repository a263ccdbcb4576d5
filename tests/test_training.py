import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covkit import training
from covkit.core import Dataset, FinitePromptDist, sample_dataset
from covkit.models import CallableFeatureMap, LinearARModel, TabularModel
from covkit.seeding import SeedTree
from covkit.tasks import bernoulli_featmap, bernoulli_model
from covkit.training import (TrainConfig, checkpoint_iters, mle_fit,
                             normalized_schedule, sgd_normalized, sgd_token,
                             sgd_truncated_distill, sgd_truncated_steps,
                             sgd_vanilla, train_stack, truncated_schedule,
                             truncation_weights)


def coin_data(p, n, rng):
    return sample_dataset(bernoulli_model(p), lambda r: 0, n, rng)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(T=0)
    with pytest.raises(ValueError):
        TrainConfig(eta=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(K=0)
    with pytest.raises(ValueError):
        TrainConfig(lam=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(A=0.0)


def test_checkpoint_iters():
    assert checkpoint_iters(10) == [1, 2, 4, 8, 10]
    assert checkpoint_iters(10, every=3) == [3, 6, 9, 10]


# ------------------------------------------------------------------- MLE

def test_mle_saturated_boundary(monkeypatch):
    # All-ones coin dataset: theta* at boundary +1; p = e^B/(e^B + e^-B).
    monkeypatch.setattr(training, "MLE_TOL", 1e-10)
    B = 1.5
    fm = bernoulli_featmap(B)
    ds = Dataset([0] * 30, [[1]] * 30, H=1, V=2)
    res = mle_fit(ds, fm)
    # independent 1-d grid-search oracle over theta in [-1, 1]
    grid = np.linspace(-1, 1, 20001)
    lik = grid * B - np.logaddexp(grid * B, -grid * B)
    best = grid[np.argmax(lik)]
    assert abs(res.theta[0] - best) < 1e-3
    model = LinearARModel(res.theta, fm, V=2, H=1)
    expect = math.exp(B) / (math.exp(B) + math.exp(-B))
    assert math.isclose(model.next_dist(0, ())[1], expect, rel_tol=1e-6)


def test_mle_consistency_near_zero_theta():
    rng = SeedTree(0).rng()
    fm = bernoulli_featmap(1.0)
    piD = LinearARModel(np.zeros(1), fm, V=2, H=2)
    ds = sample_dataset(piD, lambda r: 0, 10 ** 4, rng)
    res = mle_fit(ds, fm)
    assert res.converged
    assert abs(res.theta[0]) < 0.1


def test_mle_duplication_invariance():
    fm = bernoulli_featmap(1.0)
    xs, ys = [0, 0, 0], [[1], [0], [1]]
    r1 = mle_fit(Dataset(xs, ys, H=1, V=2), fm)
    r2 = mle_fit(Dataset(xs * 2, ys * 2, H=1, V=2), fm)
    assert np.array_equal(r1.theta, r2.theta)


def test_mle_empty_dataset():
    with pytest.raises(ValueError):
        mle_fit(Dataset([], [], H=1, V=2), bernoulli_featmap(1.0))


# ------------------------------------------------------------------- SGD

def test_sgd_vanilla_constant_on_zero_gradient():
    # Deterministic model sampling its own path: gradient ~ 0 -> theta fixed.
    B = 60.0
    fm = bernoulli_featmap(B)
    piD = LinearARModel(np.array([1.0]), fm, V=2, H=2)
    rng = SeedTree(1).rng()
    data = sample_dataset(piD, lambda r: 0, 50, rng)
    cfg = TrainConfig(eta=0.1, T=50, theta0=np.array([1.0]))
    rec = sgd_vanilla(data, fm, config=cfg)
    assert abs(rec.final_theta[0] - 1.0) < 1e-6


def test_sgd_iterates_stay_in_ball_and_deterministic():
    fm = bernoulli_featmap(1.0)
    cfg = TrainConfig(eta=0.5, T=100, checkpoint_every=1)
    recs = []
    for _ in range(2):
        rng = SeedTree(2).rng()
        recs.append(sgd_vanilla(coin_data(0.8, 100, rng), fm, cfg))
    for _, th in recs[0].checkpoints:
        assert np.linalg.norm(th) <= 1 + 1e-12
    assert all(np.array_equal(a[1], b[1]) for a, b in
               zip(recs[0].checkpoints, recs[1].checkpoints))


SGD_LEARNERS = {
    "vanilla": (sgd_vanilla, TrainConfig(eta=0.1, T=5)),
    "normalized-K1": (sgd_normalized, TrainConfig(eta=0.1, lam=0.5, T=5)),
    "normalized-K3": (sgd_normalized,
                      TrainConfig(eta=0.1, lam=0.5, K=3, T=5)),
    "token": (sgd_token, TrainConfig(eta=0.1, T=5)),
    "truncated": (sgd_truncated_distill, TrainConfig(eta=0.1, A=1.0, T=5)),
}


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("name", SGD_LEARNERS)
def test_sgd_learners_refuse_a_dataset_not_of_T_K_rows(name, extra):
    learner, cfg = SGD_LEARNERS[name]
    # Any step asks the feature map for features and fails the test.
    fm = CallableFeatureMap(lambda x, pre: pytest.fail("a step was taken"),
                            d=1, B=1.0)
    n = cfg.T * cfg.K + extra
    data = Dataset([0] * n, [[1]] * n, H=1, V=2)
    teacher = (bernoulli_model(0.5),) if name == "truncated" else ()
    with pytest.raises(ValueError, match=rf"T\*K = {cfg.T * cfg.K} "
                                         rf"examples, got {n}$"):
        learner(data, *teacher, fm, cfg)


def test_normalized_step_norm():
    # lambda -> 0 with nonzero gradient: step norm exactly eta.
    fm = bernoulli_featmap(1.0)
    rng = SeedTree(3).rng()
    cfg = TrainConfig(eta=0.25, lam=0.0, T=1, checkpoint_every=1)
    rec = sgd_normalized(coin_data(1.0, 1, rng), fm, cfg)
    assert math.isclose(abs(rec.final_theta[0]), 0.25, rel_tol=1e-9)


def test_normalized_zero_gradient_zero_lambda_flag():
    B = 60.0
    fm = bernoulli_featmap(B)
    piD = LinearARModel(np.array([1.0]), fm, V=2, H=1)
    rng = SeedTree(4).rng()
    data = sample_dataset(piD, lambda r: 0, 5, rng)
    cfg = TrainConfig(eta=0.1, lam=0.0, T=5, theta0=np.array([1.0]))
    rec = sgd_normalized(data, fm, cfg)
    # The model puts all but about e^-120 of its mass on token 1, so the
    # conditional mean feature rounds to B and every gradient is exactly 0:
    # no step is taken and the flag is set once.
    assert rec.flags == ["zero-gradient-zero-lambda"]
    assert np.array_equal(rec.final_theta, cfg.theta0)


def test_normalized_exact_zero_gradient_flag():
    # theta = 0 is uniform, and y = (0, 1) has features -B and +B, so
    # g = (-B + B) - 2 * (p @ table) = 0 exactly, with no underflow.
    fm = bernoulli_featmap(2.0)
    data = Dataset([0] * 4, [[0, 1]] * 4, H=2, V=2)
    cfg = TrainConfig(eta=0.1, lam=0.0, T=4)
    rec = sgd_normalized(data, fm, cfg)
    assert rec.flags == ["zero-gradient-zero-lambda"]
    assert np.array_equal(rec.final_theta, np.zeros(1))
    assert rec.n_examples == 4


def test_normalized_schedule_formulas():
    B, T, N, s2 = 2.0, 100, 8.0, 4.0
    eta, lam = normalized_schedule(B, T, N, s2)
    expect_eta = min(1 / (128 * B), (math.log(N) / (s2 * T)) ** 0.25)
    assert math.isclose(eta, expect_eta, rel_tol=1e-12)
    assert math.isclose(lam, math.log(N) / (16 * eta), rel_tol=1e-12)
    e2 = truncated_schedule(B, T, math.log(N), s2)
    expect = min(1 / ((64 * math.log(N) + 2) * B * B),
                 (1 / (T * s2 * math.log(N))) ** 0.5)
    assert math.isclose(e2, expect, rel_tol=1e-12)


def test_token_sgd_h1_equals_vanilla():
    fm = bernoulli_featmap(1.0)
    cfg = TrainConfig(eta=0.3, T=50, checkpoint_every=1)
    rng1 = SeedTree(5).rng()
    rng2 = SeedTree(5).rng()
    r_tok = sgd_token(coin_data(0.7, 50, rng1), fm, cfg)
    r_van = sgd_vanilla(coin_data(0.7, 50, rng2), fm, cfg)
    for (t1, a), (t2, b) in zip(r_tok.checkpoints, r_van.checkpoints):
        assert t1 == t2 and np.allclose(a, b, atol=1e-12)


def test_token_step_norm_bound():
    B = 2.0
    fm = bernoulli_featmap(B)
    rng = SeedTree(6).rng()
    piD = bernoulli_model(0.5)
    data = sample_dataset(piD, lambda r: 0, 20, rng)
    cfg = TrainConfig(eta=0.1, T=20, checkpoint_every=1)
    rec = sgd_token(data, fm, cfg)
    prev = np.zeros(1)
    for _, th in rec.checkpoints:
        assert np.linalg.norm(th - prev) <= 2 * 0.1 * B + 1e-9
        prev = th


# ------------------------------------------------------------- truncation

def test_truncation_weights_cases():
    alpha, mass = truncation_weights([0.6, 0.6, 0.6], 1.0)
    assert alpha == [1.0, pytest.approx(2.0 / 3.0), 0.0]
    assert math.isclose(mass, 1.0)
    alpha, mass = truncation_weights([0.1, 0.2], 10.0)
    assert alpha == [1.0, 1.0]
    assert math.isclose(mass, 0.3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1,
                max_size=8),
       st.floats(min_value=1e-3, max_value=10.0))
def test_truncation_identity_property(eps, A):
    alpha, mass = truncation_weights(eps, A)
    assert all(0.0 <= a <= 1.0 for a in alpha)
    total = sum(a * e for a, e in zip(alpha, eps))
    assert math.isclose(total, min(A, sum(eps)), rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(mass, total, rel_tol=1e-9, abs_tol=1e-9)


def test_truncated_distill_runs_and_matches_vanilla_when_unclipped():
    # With a huge budget A, every alpha = 1 and the update is a vanilla step.
    fm = bernoulli_featmap(1.0)
    teacher = bernoulli_model(0.7)
    cfg_t = TrainConfig(eta=0.3, T=40, A=100.0, checkpoint_every=1)
    cfg_v = TrainConfig(eta=0.3, T=40, checkpoint_every=1)
    r1 = sgd_truncated_distill(coin_data(0.7, 40, SeedTree(7).rng()),
                               teacher, fm, cfg_t)
    r2 = sgd_vanilla(coin_data(0.7, 40, SeedTree(7).rng()), fm, cfg_v)
    assert np.allclose(r1.final_theta, r2.final_theta, atol=1e-12)


@pytest.mark.parametrize("V,H", [(3, 3), (2, 5)])
def test_truncated_distill_refuses_a_teacher_of_other_V_or_H(V, H):
    # A V = 3 teacher on V = 2 data used to fail mid-step on a broadcast,
    # and an H = 5 teacher on H = 3 data trained; both are refused before
    # the first step, which would fail the test.
    fm = CallableFeatureMap(lambda x, pre: pytest.fail("a step was taken"),
                            d=1, B=1.0)
    teacher = TabularModel({}, V=V, H=H)
    data = Dataset([0] * 4, [[0, 1, 1]] * 4, H=3, V=2)
    cfg = TrainConfig(eta=0.1, T=4, A=1.0)
    match = rf"teacher's \(V, H\) = \({V}, {H}\) differs from the " \
        r"datasets' \(V, H\) = \(2, 3\)"
    with pytest.raises(ValueError, match=match):
        sgd_truncated_distill(data, teacher, fm, cfg)
    with pytest.raises(ValueError, match=match):
        train_stack(functools.partial(sgd_truncated_steps, teacher),
                    [data, data], fm, [cfg, cfg])


def test_truncated_distill_teacher_zero_mass():
    fm = bernoulli_featmap(1.0)
    teacher = bernoulli_model(0.0)   # zero mass on y=1
    data = Dataset([0] * 5, [[1]] * 5, H=1, V=2)
    cfg = TrainConfig(eta=0.1, T=5, A=1.0)
    with pytest.raises(ValueError, match="zero mass"):
        sgd_truncated_distill(data, teacher, fm, cfg)
