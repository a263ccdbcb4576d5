"""The theta-level learner arithmetic against the per-model, per-example
references of `train_oracle`, bit for bit, on random instances: product,
prefix-dependent and steep feature maps (at scale 2000 many conditionals
underflow to exactly 0).  Also `mle_fit` on interleaved prompts, the
sweep quantiles of `harness._quantiles`, and the byte identity of every
seeded harness output with the `train_oracle` learners patched in."""

import itertools
import json
import math
import os

import numpy as np
import pytest

import train_oracle
from covkit import harness, training
from covkit.core import Dataset, sample_dataset
from covkit.models import (CallableFeatureMap, LinearARModel, grad_logprob,
                           grad_logprob_token, project_unit_ball, token_step)
from covkit.seeding import SeedTree
from covkit.tasks import bernoulli_featmap
from covkit.training import mle_fit

PROMPTS = (0, 1)
KINDS = ["product", "prefix", "steep product", "steep prefix"]


def instance(kind, seed):
    """(LinearARModel, rng): features from per-prompt step tables, or of
    the last two tokens; theta inside the unit ball."""
    rng = SeedTree(seed).child(f"theta-steps-{kind}").rng()
    # V and d reach sizes where a gemm's blocking changes the bits of a
    # (n, V) @ (V, d) product.
    V, H, d = (int(v) for v in rng.integers((2, 1, 2), (9, 6, 9)))
    scale = 2000.0 if kind.startswith("steep") else 2.0
    if kind.endswith("product"):
        tables = {x: rng.normal(size=(V, d)) * scale for x in PROMPTS}
        fm = CallableFeatureMap(lambda x, pre: tables[x][pre[-1]], d=d,
                                B=10.0 * scale,
                                step_tables=lambda x: tables[x])
    else:
        W = rng.normal(size=(len(PROMPTS), V + 1, V, d)) * scale
        fm = CallableFeatureMap(
            lambda x, pre: W[x, pre[-2] if len(pre) > 1 else V, pre[-1]],
            d=d, B=10.0 * scale)
    theta = rng.normal(size=d)
    theta *= rng.uniform(0.5, 1.0) / np.linalg.norm(theta)
    return LinearARModel(theta, fm, V=V, H=H), rng


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind,seed,n",
                         itertools.product(KINDS, range(3), (1, 7, 300)))
def test_block_grad_rows_are_the_per_example_gradients(kind, seed, n):
    model, rng = instance(kind, seed)
    underflow = 0
    for x in PROMPTS:
        Y = rng.integers(0, model.V, size=(n, model.H))
        got = grad_logprob(model.theta, model.featmap, model.V, x, Y)
        want = np.array([train_oracle.grad_logprob(model, x, tuple(y))
                         for y in Y.tolist()])
        assert same_bits(got, want)
        underflow += int((model.prefix_dists(
            x, Y[:, :model.H - 1]) == 0.0).sum())
    if kind.startswith("steep"):
        assert underflow > 0


@pytest.mark.parametrize("kind,seed", itertools.product(KINDS, range(3)))
def test_token_gradient_and_step_are_the_per_model_ones(kind, seed):
    model, rng = instance(kind, seed)
    fm, V = model.featmap, model.V
    for x, h in itertools.product(PROMPTS, range(model.H)):
        prefix = tuple(rng.integers(0, V, size=h).tolist())
        v = int(rng.integers(V))
        got = grad_logprob_token(model.theta, fm, V, x, prefix, v)
        want = train_oracle.grad_logprob_token(model, x, prefix, v)
        assert same_bits(got, want)
        for eta in (0.3, 5.0):
            assert same_bits(
                token_step(model.theta, fm, V, x, prefix, v, eta),
                train_oracle.project_unit_ball(model.theta + eta * want))


def test_a_model_refuses_a_non_finite_theta():
    model, _ = instance("product", 0)
    for bad in (np.nan, np.inf):
        theta = model.theta.copy()
        theta[0] = bad
        with pytest.raises(ValueError, match="theta"):
            LinearARModel(theta, model.featmap, model.V, model.H)


def test_projection_is_the_norm_based_one():
    rng = SeedTree(7).rng()
    for _ in range(2000):
        v = rng.normal(size=int(rng.integers(1, 9))) * rng.uniform(0, 3)
        assert same_bits(project_unit_ball(v),
                         train_oracle.project_unit_ball(v))


@pytest.mark.parametrize("kind", ["product", "prefix"])
@pytest.mark.parametrize("bad", [-1, "V"])
def test_block_grad_refuses_tokens_outside_the_vocabulary(kind, bad):
    model, _ = instance(kind, 0)
    for n in (1, 4):
        Y = np.zeros((n, model.H), dtype=np.int64)
        Y[n - 1 if bad == "V" else 0, 0] = model.V if bad == "V" else -1
        with pytest.raises(ValueError):
            grad_logprob(model.theta, model.featmap, model.V, 0, Y)


@pytest.mark.parametrize("kind", ["product", "prefix"])
def test_mle_fit_equals_the_per_example_loop_on_interleaved_prompts(
        kind, monkeypatch):
    model, rng = instance(kind, 1)
    n = 40
    xs = [int(rng.integers(2)) for _ in range(n)]
    assert xs != sorted(xs)
    Y = rng.integers(0, model.V, size=(n, model.H))
    ds = Dataset(xs, Y, model.H, model.V)
    args = (ds, model.featmap)
    monkeypatch.setattr(training, "MLE_TOL", 1e-6)
    monkeypatch.setattr(training, "MLE_MAX_ITERS", 40)
    got = mle_fit(*args)
    want = train_oracle.mle_fit(*args, tol=1e-6, max_iters=40)
    assert same_bits(got.theta, want.theta)
    assert (got.converged, got.iters) == (want.converged, want.iters)
    assert got.grad_map_norm == want.grad_map_norm


def block_mle_fit(dataset, featmap, tol=1e-8, max_iters=10 ** 5):
    """`mle_fit` with a full `grad_logprob` block call per group at every
    iteration, no count rows computed ahead."""
    V, H = dataset.V, dataset.H
    step = 1.0 / (2.0 * H * featmap.B ** 2)
    theta, n = np.zeros(featmap.d), len(dataset)
    rows = np.empty((n, featmap.d))
    gnorm = math.inf
    for it in range(1, max_iters + 1):
        for x, idx, Y in dataset.groups:
            rows[idx] = grad_logprob(theta, featmap, V, x, Y)
        g = np.cumsum(rows, axis=0)[-1]
        g /= n
        theta_new = project_unit_ball(theta + step * g)
        gnorm = float(np.linalg.norm(theta_new - theta) / step)
        theta = theta_new
        if gnorm <= tol:
            return theta, True, it, gnorm
    return theta, False, max_iters, gnorm


def test_mle_fit_count_rows_are_the_per_iteration_block_calls(monkeypatch):
    # The 10,000-row product group of the near-zero-theta MLE test, and
    # interleaved product and prefix-dependent instances.
    fm = bernoulli_featmap(1.0)
    piD = LinearARModel(np.zeros(1), fm, V=2, H=2)
    cases = [(sample_dataset(piD, lambda r: 0, 10 ** 4, SeedTree(0).rng()),
              fm)]
    for kind in ("product", "prefix", "steep product"):
        model, rng = instance(kind, 2)
        xs = [int(rng.integers(2)) for _ in range(60)]
        Y = rng.integers(0, model.V, size=(60, model.H))
        cases.append((Dataset(xs, Y, model.H, model.V), model.featmap))
    monkeypatch.setattr(training, "MLE_MAX_ITERS", 60)
    for args in cases:
        got = mle_fit(*args)
        want = block_mle_fit(*args, max_iters=60)
        assert same_bits(got.theta, want[0])
        assert (got.converged, got.iters, got.grad_map_norm) == want[1:]


@pytest.mark.parametrize("seeds", [1, 2, 5, 16])
def test_quantiles_are_the_per_column_calls(seeds):
    rng = SeedTree(seeds).rng()
    for _ in range(50):
        finals = rng.normal(size=(seeds, 4)) * rng.uniform(0, 10)
        finals[rng.random(finals.shape) < 0.2] = math.inf
        with np.errstate(invalid="ignore"):     # inf - inf in the lerp
            got = harness._quantiles(finals)
            want = [[float(np.quantile(finals[:, j], q))
                     for q in (0.5, 1.0 / 16.0, 15.0 / 16.0)]
                    for j in range(finals.shape[1])]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert all(type(q) is float for column in got for q in column)


# --- byte identity of the seeded harness outputs ------------------------

LEARNERS = {
    "mle": {"T": 12},
    "sgd_vanilla": {"eta": 0.1, "T": 40},
    "sgd_normalized": {"eta": 0.05, "lam": 1.0, "K": 2, "T": 20},
    "sgd_token": {"eta": 0.05, "T": 40},
    "sgd_truncated": {"eta": 0.05, "A": math.log(8.0), "T": 40},
}
TASKS = {
    "heterogeneous_kl": {"n": 4, "H": 3},
    "sigma_star": {"H": 3, "B": 1.0, "N": 2.0, "n": 2,
                   "theta_star": [0.6, -0.4, 0.2], "c": 1.0},
    "sgd_lower": {"variant": "large_eta", "H": 8, "B": 1.0, "eta": 1.0},
}
METRICS = {"exact": {"n_grid": [2, 8], "mode": "exact"},
           "mc": {"n_grid": [2, 8], "mode": "mc", "n_samples": 40}}


def run_outputs(tmp_path, tag):
    """{relative path: contents} of every CSV and summary.json the harness
    writes (wall_clock dropped) for each learner, task and metrics mode."""
    for (task, params), learner, mode in itertools.product(
            TASKS.items(), LEARNERS, METRICS):
        if task == "sgd_lower" and learner == "mle":
            continue
        harness.run({"version": 1, "task": {"name": task, "params": params},
                     "learner": {"name": learner, "train": LEARNERS[learner]},
                     "metrics": METRICS[mode], "sweep": {"seeds": [1, 2]},
                     "out_dir": str(tmp_path / tag / task / learner / mode),
                     "root_seed": 5})
    out = {}
    for root, _, files in os.walk(tmp_path / tag):
        for fn in files:
            path = os.path.join(root, fn)
            data = open(path, "rb").read()
            if fn == "summary.json":
                data = json.loads(data)
                del data["wall_clock"]
            out[os.path.relpath(path, tmp_path / tag)] = data
    return out


def test_harness_outputs_equal_the_oracle_learners(tmp_path, monkeypatch):
    new = run_outputs(tmp_path, "new")
    for name, _ in harness.LEARNERS.values():
        monkeypatch.setattr(training, name, getattr(train_oracle, name))
    ref = run_outputs(tmp_path, "oracle")
    assert sorted(new) == sorted(ref)
    assert sum(p.endswith("summary.json") for p in new) == 14 * 2 * 2
    for path in new:
        assert new[path] == ref[path], path
