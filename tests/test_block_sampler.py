"""The uniform-driven sampler and the block-drawn datasets, compared bit
for bit with the per-draw loops of `dataset_oracle` on random instances,
plus the byte identity of every seeded harness output."""

import itertools
import json
import math
import os

import numpy as np
import pytest

import dataset_oracle as oracle
from conftest import all_prefixes
from covkit import harness
from covkit.core import (FinitePromptDist, Policy, choice_cdf,
                         sample_dataset, sample_from_uniforms, sample_prompts)
from covkit.decoding import TTTPolicy
from covkit.models import CallableFeatureMap, LinearARModel, TabularModel
from covkit.seeding import SeedTree

PROMPTS = [0, "a", (1, 2), 3]
# Hundreds of examples, many of each prompt, and no round number.
N_LONG = 2 * 256 + 17


def random_mu(rng):
    """Weights over PROMPTS with one or two zero-weight prompts."""
    w = rng.dirichlet(np.ones(len(PROMPTS)))
    w[rng.choice(len(PROMPTS), size=int(rng.integers(1, 3)),
                 replace=False)] = 0.0
    return FinitePromptDist(PROMPTS, w / w.sum())


def linear_model(rng, V, H, product):
    """A LinearARModel over per-prompt feature tables: a product policy
    with step tables, or one whose features scale with the prefix."""
    d = 3
    tables = {x: rng.normal(size=(V, d)) for x in PROMPTS}
    theta = rng.normal(size=d)
    theta /= 2 * np.linalg.norm(theta)
    if product:
        fm = CallableFeatureMap(lambda x, pre: tables[x][pre[-1]], d=d,
                                B=9.0, step_tables=lambda x: tables[x])
    else:
        fm = CallableFeatureMap(
            lambda x, pre: tables[x][pre[-1]] * (1 + sum(pre)), d=d, B=99.0)
    return LinearARModel(theta, fm, V=V, H=H)


def tabular_model(rng, V, H):
    """Complete random tables with zero-mass tokens on some rows."""
    tables = {}
    for x in PROMPTS:
        for prefix in all_prefixes(V, H):
            row = rng.dirichlet(np.ones(V))
            row[rng.random(V) < 0.3] = 0.0
            if row.sum() == 0.0:
                row[int(rng.integers(V))] = 1.0
            tables[(x, prefix)] = row / row.sum()
    return TabularModel(tables, V=V, H=H)


KINDS = ["product", "prefix_linear", "tabular", "ttt"]


def instance(kind, seed):
    rng = np.random.default_rng(seed)
    V, H = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    if kind == "tabular":
        pol = tabular_model(rng, V, H)
    elif kind == "ttt":
        pol = TTTPolicy(linear_model(rng, V, H, product=seed % 2 == 0),
                        eta=rng.uniform(0.1, 1.0))
    else:
        pol = linear_model(rng, V, H, product=kind == "product")
    assert (pol.step_dist(0) is not None) == (kind == "product")
    return pol, random_mu(rng)


def same_rng_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


CASES = list(itertools.product(KINDS, range(4)))


@pytest.mark.parametrize("kind,seed", CASES)
def test_sample_and_sample_many_equal_per_draw_loops(kind, seed):
    pol, _ = instance(kind, seed)
    for x in PROMPTS:
        a, b = SeedTree(seed).rng(), SeedTree(seed).rng()
        assert [pol.sample(x, a) for _ in range(20)] == \
            [oracle.sample(pol, x, b) for _ in range(20)]
        for n in (0, 1, 7, 300):
            assert np.array_equal(pol.sample_many(x, n, a),
                                  oracle.sample_many(pol, x, n, b))
        assert same_rng_state(a, b)


@pytest.mark.parametrize("kind,seed", CASES)
def test_one_row_of_the_sampler_is_sample(kind, seed):
    pol, _ = instance(kind, seed)
    U = np.random.default_rng(seed).random((50, pol.H))
    for x in PROMPTS[:2]:
        Y = sample_from_uniforms(pol, x, U)
        for u, y in zip(U, Y.tolist()):
            assert sample_from_uniforms(pol, x, u[None]).tolist() == [y]


@pytest.mark.parametrize("kind,seed", CASES)
def test_stream_and_dataset_equal_per_example_draws(kind, seed):
    pol, mu = instance(kind, seed)
    # The learners' training data: one dataset of T * K examples.
    got = sample_dataset(pol, mu, N_LONG, SeedTree(seed).rng())
    assert got == oracle.sample_dataset(pol, mu, N_LONG, SeedTree(seed).rng())
    zero = {x for x, w in mu.items() if w == 0.0}
    assert zero and not zero & set(got.xs)
    for m in (1, 5, 300):
        a, b = SeedTree(seed).rng(), SeedTree(seed).rng()
        ds = sample_dataset(pol, mu, m, a)
        assert ds == oracle.sample_dataset(pol, mu, m, b)
        assert same_rng_state(a, b)


def test_prompt_draws_equal_choice_and_skip_zero_weights():
    mu = FinitePromptDist(["z0", "a", "z1", "b", "z2"],
                          [0.0, 0.3, 0.0, 0.7, 0.0])
    a, b = SeedTree(4).rng(), SeedTree(4).rng()
    got = [mu(a) for _ in range(500)] + sample_prompts(mu, 500, a)
    assert got == [oracle.prompt(mu, b) for _ in range(1000)]
    assert set(got) == {"a", "b"}
    assert mu.from_uniforms([0.0, 0.3 - 1e-12, 0.3, 1.0 - 1e-16]) == \
        ["a", "a", "b", "b"]


def test_prompt_weights_must_not_be_nan():
    with pytest.raises(ValueError, match="NaN"):
        FinitePromptDist([0, 1], [float("nan"), 1.0])


@pytest.mark.parametrize("prompts,weights", [
    ([0, 1, 2], [0.5, 0.5]), ([0], [0.5, 0.5]), ([0, 1], [[0.5, 0.5]]),
    ([0], 1.0), ([], [1.0])])
def test_prompt_weights_must_be_one_per_prompt(prompts, weights):
    with pytest.raises(ValueError, match="one weight per prompt"):
        FinitePromptDist(prompts, weights)


def test_plain_callable_mu_keeps_the_per_example_loop():
    rng = np.random.default_rng(3)
    base = linear_model(rng, 3, 3, product=True)
    m = lambda r: PROMPTS[int(r.integers(4))]
    for pol in (base, TTTPolicy(base, 0.5)):
        for n in (30, N_LONG):
            a, b = SeedTree(2).rng(), SeedTree(2).rng()
            assert sample_dataset(pol, m, n, a) == \
                oracle.sample_dataset(pol, m, n, b)
            assert same_rng_state(a, b)


class Rows(Policy):
    """Rows from a function of the prefix; product when asked."""

    def __init__(self, fn, V=3, H=3, product=False):
        self.fn, self.V, self.H, self.product = fn, V, H, product

    def prefix_dists(self, x, prefixes):
        return np.array([self.fn(tuple(p)) for p in prefixes.tolist()],
                        dtype=float).reshape(len(prefixes), self.V)

    def step_dist(self, x):
        return np.asarray(self.fn(()), dtype=float) if self.product else None


BAD_ROWS = [[0.5, 0.6, -0.1], [0.5, float("nan"), 0.5], [0.3, 0.3, 0.3],
            [0.5, 0.5, 1e-6], [float("inf"), 0.0, 0.0], [0.0, 0.0, 0.0]]


@pytest.mark.parametrize("row", BAD_ROWS)
@pytest.mark.parametrize("product", [True, False])
def test_invalid_conditional_raises_like_choice(row, product):
    # Only the second level is bad on the prefix path.
    pol = Rows(lambda pre: row if product or len(pre) == 1
               else [0.2, 0.3, 0.5], product=product)
    with pytest.raises(ValueError):
        oracle.sample(pol, 0, np.random.default_rng(0))
    mu = FinitePromptDist([0], [1.0])
    calls = [lambda r: pol.sample(0, r), lambda r: pol.sample_many(0, 9, r),
             lambda r: sample_from_uniforms(pol, 0, r.random((9, 3))),
             lambda r: sample_dataset(pol, mu, 9, r)]
    for call in calls:
        with pytest.raises(ValueError, match="probabilities"):
            call(np.random.default_rng(0))


def test_sum_tolerance_is_choices_to_the_last_bit():
    atol = math.sqrt(np.finfo(float).eps)
    rng = np.random.default_rng(7)
    accepted = 0
    for _ in range(3000):
        V = int(rng.integers(1, 9))
        p = rng.dirichlet(np.ones(V))
        p[int(rng.integers(V))] += rng.choice([-1, 1]) * atol * \
            (1 + 1e-7 * rng.normal())
        p = np.abs(p)
        try:
            np.random.default_rng(0).choice(V, p=p)
            ok = True
        except ValueError:
            ok = False
        try:
            choice_cdf(p[None])
            assert ok
        except ValueError:
            assert not ok
        accepted += ok
    assert 0 < accepted < 3000


# --- byte identity of the seeded harness outputs ------------------------

LEARNERS = {
    "mle": {"T": 30},
    "sgd_vanilla": {"eta": 0.1, "T": 300},
    "sgd_normalized": {"eta": 0.05, "lam": 1.0, "K": 2, "T": 150},
    "sgd_token": {"eta": 0.05, "T": 300},
    "sgd_truncated": {"eta": 0.05, "A": math.log(8.0), "T": 300},
}
TASKS = [("heterogeneous_kl", {"n": 4, "H": 3}),
         ("sigma_star", {"H": 3, "B": 1.0, "N": 2.0, "n": 2,
                         "theta_star": [0.6, -0.4, 0.2], "c": 1.0})]


def run_outputs(tmp_path, tag):
    """{relative path: bytes} of every file the harness and gen_data
    write, with summary.json's wall_clock dropped.  All five learners run
    on the product task; the four SGD ones also on the prefix-dependent
    task, where full-batch MLE is slow."""
    out = {}
    for (task, params), (learner, train) in itertools.product(TASKS,
                                                             LEARNERS.items()):
        if task == "sigma_star" and learner == "mle":
            continue
        d = tmp_path / tag / f"{task}-{learner}"
        harness.run({"version": 1, "task": {"name": task, "params": params},
                     "learner": {"name": learner, "train": train},
                     "metrics": {"n_grid": [2, 8], "mode": "exact"},
                     "sweep": {"seeds": [1]}, "out_dir": str(d),
                     "root_seed": 5})
    for task, params in TASKS:
        gen = tmp_path / tag / f"{task}.jsonl"
        harness.gen_data(task, params, 400, 3, str(gen),
                         header_path=str(gen) + ".head")
    for root, _, files in os.walk(tmp_path / tag):
        for fn in files:
            path = os.path.join(root, fn)
            data = open(path, "rb").read()
            if fn == "summary.json":
                summary = json.loads(data)
                del summary["wall_clock"]
                data = summary
            out[os.path.relpath(path, tmp_path / tag)] = data
    return out


def test_harness_outputs_are_byte_identical_to_per_example_draws(
        tmp_path, monkeypatch):
    new = run_outputs(tmp_path, "block")
    monkeypatch.setattr(harness, "sample_dataset", oracle.sample_dataset)
    ref = run_outputs(tmp_path, "oracle")
    assert sorted(new) == sorted(ref)
    assert sum(p.endswith(".csv") for p in new) == 2 * 9
    assert sum(p.endswith(".jsonl") for p in new) == 2
    for path in new:
        assert new[path] == ref[path], path
