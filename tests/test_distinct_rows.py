"""Each distinct (prompt, response) pair is scored once.

`core.distinct_rows` against a sorted-set reference, and every scorer
built on it checked with `==` against per-row references: log-probs,
the K-policy matrix, the pairwise coverage matrix and the adversarial
reward against `exact_oracle.path_logprob(conditionals(...))`;
`mle_fit` against its ascent over every row; the MC stopped KL and the
MC sigma*^2 against their level loops over every row; prompt groups of
equal prompts; and truncated distillation's teacher rows from a step
row against the per-level rows.
"""

import math

import numpy as np
import pytest

import exact_oracle
import mc_oracle
from conftest import random_product, random_tabular, tabular_with_missing_mass
from covkit import core, metrics, training
from covkit.core import (Dataset, FinitePromptDist, distinct_rows,
                         group_prompts, logprob_matrix, prefix_levels,
                         sample_dataset)
from covkit.decoding import AdversarialReward, TTTPolicy
from covkit.metrics import pairwise_cov_matrix, sigma_star_sq, stopped_kl
from covkit.models import (CallableFeatureMap, LinearARModel, count_rows,
                           grad_logprob, linear_to_tabular,
                           project_unit_ball)
from covkit.seeding import SeedTree
from covkit.tasks import heterogeneous_kl_instance
from covkit.training import (TrainConfig, _Stack, sgd_truncated_distill,
                             sgd_truncated_steps, train_stack)

PROMPTS = (0, 1)


def distinct_ref(Y):
    """The distinct rows of Y, sorted as tuples, and each row's index."""
    U = sorted(set(map(tuple, Y.tolist())))
    at = {u: j for j, u in enumerate(U)}
    return (np.array(U, dtype=np.int64).reshape(len(U), Y.shape[1]),
            np.array([at[tuple(r)] for r in Y.tolist()], dtype=np.int64))


def ranked(monkeypatch, Y, V):
    """distinct_rows(Y, V) and how many `_rank_codes` calls it made."""
    calls, real = [], core._rank_codes

    def counting(code, size, rows):
        calls.append(size)
        return real(code, size, rows)

    with monkeypatch.context() as m:
        m.setattr(core, "_rank_codes", counting)
        out = distinct_rows(Y, V)
    return out, len(calls)


def repeated(rng, V, H, n, k=5):
    """n rows drawn from k random rows."""
    return rng.integers(0, V, (k, H))[rng.integers(0, k, n)]


@pytest.mark.parametrize("V, H, blocks", [(1, 5, 1), (2, 8, 1), (3, 4, 1),
                                          (2, 62, 1), (2, 63, 2),
                                          (2, 130, 3), (3, 45, 2),
                                          (1000, 9, 2), (2, 0, 0)])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 3000])
def test_distinct_rows_match_the_sorted_set(monkeypatch, n, V, H, blocks):
    """inv and the rows Y[first] are the sorted set's; V^H >= 2^63 takes
    columns in several blocks, one block when V^H fits in int64."""
    rng = np.random.default_rng([n, V, H])
    for Y in (rng.integers(0, V, (n, H)), repeated(rng, V, H, n)):
        (first, inv), calls = ranked(monkeypatch, Y, V)
        U, want = distinct_ref(Y)
        assert inv.dtype == np.int64 and first.dtype == np.int64
        assert np.array_equal(inv, want)
        assert np.array_equal(Y[first], U)
        assert calls == (blocks if n > 1 else 0)


def test_all_distinct_rows_keep_their_lexicographic_ranks():
    rng = np.random.default_rng(3)
    Y = exact_oracle.responses(3, 5)
    perm = rng.permutation(len(Y))
    first, inv = distinct_rows(Y[perm], 3)
    assert np.array_equal(inv, perm)
    assert np.array_equal(Y[perm][first], Y)


# --- scoring against the per-row oracle ----------------------------------


def walked_linear(rng, V, H):
    """A LinearARModel whose features read the last two tokens: no step
    table, so it is scored level by level."""
    W = rng.normal(size=(2, V + 1, V, 3)) * 2.0
    fm = CallableFeatureMap(
        lambda x, pre: W[x, pre[-2] if len(pre) > 1 else V, pre[-1]],
        d=3, B=100.0)
    theta = rng.normal(size=3)
    return LinearARModel(theta / np.linalg.norm(theta) * 0.9, fm, V=V, H=H)


def product_linear(rng, V, H):
    tables = {x: rng.normal(size=(V, 3)) * 2.0 for x in PROMPTS}
    fm = CallableFeatureMap(lambda x, pre: tables[x][pre[-1]], d=3, B=10.0,
                            step_tables=lambda x: tables[x])
    theta = rng.normal(size=3)
    return LinearARModel(theta / np.linalg.norm(theta) * 0.9, fm, V=V, H=H)


def policies(rng, V, H):
    """Product and prefix-dependent tables (the second with zero-mass
    tokens), a walked and a product linear model, and a TTT policy."""
    return [random_product(rng, V, H, PROMPTS),
            tabular_with_missing_mass(rng, V, H, PROMPTS),
            random_tabular(rng, V, H, PROMPTS),
            walked_linear(rng, V, H), product_linear(rng, V, H),
            TTTPolicy(product_linear(rng, V, H), eta=0.7)]


def oracle_logprob(pol, x, Y):
    """Per-row log-probs from every row's own conditionals."""
    if len(Y) == 0:
        return np.zeros(0)
    return exact_oracle.path_logprob(exact_oracle.conditionals(pol, x, Y), Y)


def batches(rng, V, H):
    """Heavily repeated (n >> V^H), all distinct, one and no rows."""
    every = exact_oracle.responses(V, H)
    return [rng.integers(0, V, (400, H)), repeated(rng, V, H, 300, k=3),
            every[rng.permutation(len(every))], every[:1],
            np.zeros((0, H), dtype=np.int64)]


def test_logprobs_equal_the_per_row_oracle():
    rng = SeedTree(901).rng()
    V, H = 3, 3
    pols = policies(rng, V, H)
    saw_zero_mass = False
    for Y in batches(rng, V, H):
        for pol in pols:
            for x in PROMPTS:
                want = oracle_logprob(pol, x, Y)
                got = pol.logprob_many(x, Y)
                assert got.shape == want.shape
                assert np.array_equal(got, want)
                saw_zero_mass |= bool(np.isneginf(want).any())
    assert saw_zero_mass


def test_matrix_pairwise_and_reward_equal_the_per_row_oracle():
    rng = SeedTree(902).rng()
    V, H = 3, 3
    pols = policies(rng, V, H)
    for Y in batches(rng, V, H)[:4]:
        xs = [PROMPTS[i] for i in rng.integers(0, 2, len(Y))]
        ds = Dataset(xs, Y, H=H, V=V)
        want = np.empty((len(pols), len(Y)))
        for x, idx, Yx in ds.groups:
            for k, pol in enumerate(pols):
                want[k, idx] = oracle_logprob(pol, x, Yx)
        assert np.array_equal(logprob_matrix(pols, ds), want)
        for N in (1.0, 2.0, 16.0):
            M = np.array([metrics.covers(row, want, math.log(N)).mean(axis=1)
                          for row in want])
            np.fill_diagonal(M, 0.0)
            assert np.array_equal(pairwise_cov_matrix(pols, ds, N), M)
        for x, idx, Yx in ds.groups:
            for a, b in ((0, 1), (3, 5), (2, 4)):
                reward = AdversarialReward(pols[a], pols[b], 2.0)
                hit = metrics.covers(want[a, idx], want[b, idx],
                                     math.log(4.0)).astype(np.int64)
                got = reward.many(x, Yx)
                assert got.dtype == np.int64
                assert np.array_equal(got, hit)


@pytest.mark.parametrize("V, H", [(2, 64), (3, 41)])
def test_scoring_past_int64_codes_takes_the_block_loop(monkeypatch, V, H):
    """V^H >= 2^63: the rows are ranked in more than one block, and the
    walked and product linear models still score each row as the oracle
    does."""
    rng = np.random.default_rng([903, V])
    pols = [walked_linear(rng, V, H), product_linear(rng, V, H)]
    Y = repeated(rng, V, H, 40, k=6)
    assert ranked(monkeypatch, Y, V)[1] > 1
    ds = Dataset([PROMPTS[i] for i in rng.integers(0, 2, len(Y))], Y,
                 H=H, V=V)
    want = np.empty((len(pols), len(Y)))
    for x, idx, Yx in ds.groups:
        for k, pol in enumerate(pols):
            want[k, idx] = oracle_logprob(pol, x, Yx)
            assert np.array_equal(pol.logprob_many(x, Yx), want[k, idx])
    assert np.array_equal(logprob_matrix(pols, ds), want)
    M = np.array([metrics.covers(row, want, 0.0).mean(axis=1)
                  for row in want])
    np.fill_diagonal(M, 0.0)
    assert np.array_equal(pairwise_cov_matrix(pols, ds, 1.0), M)


# --- level accumulators against the loop over every row ----------------


def mle_over_every_row(dataset, featmap, iters):
    """mle_fit's first `iters` ascent steps with one grad_logprob call on
    each group's own rows."""
    V, H, n = dataset.V, dataset.H, len(dataset)
    step = 1.0 / (2.0 * H * featmap.B ** 2)
    theta, rows = np.zeros(featmap.d), np.empty((n, featmap.d))
    for _ in range(iters):
        for x, idx, Y in dataset.groups:
            table = featmap.step_table(x)
            counts = None if table is None else count_rows(table, V, Y)
            rows[idx] = grad_logprob(theta, featmap, V, x, Y, counts)
        g = np.cumsum(rows, axis=0)[-1] / n
        theta = project_unit_ball(theta + step * g)
    return theta


@pytest.mark.parametrize("make", [walked_linear, product_linear])
def test_mle_fit_equals_the_ascent_over_every_row(monkeypatch, make):
    """Ranking each group's rows once and taking the distinct rows'
    gradients back gives the per-row ascent, bit for bit."""
    rng = SeedTree(904).rng()
    V, H = 3, 4
    featmap = make(rng, V, H).featmap
    Y = np.concatenate([rng.integers(0, V, (40, H)),
                        repeated(rng, V, H, 200, k=4)])
    ds = Dataset([PROMPTS[i] for i in rng.integers(0, 2, len(Y))], Y,
                 H=H, V=V)
    monkeypatch.setattr(training, "MLE_MAX_ITERS", 25)
    got = training.mle_fit(ds, featmap)
    assert got.iters == 25 and not got.converged
    assert np.array_equal(got.theta, mle_over_every_row(ds, featmap, 25))


def test_mc_stopped_kl_equals_the_level_loop_over_every_row():
    rng = SeedTree(905).rng()
    V, H = 2, 5
    piD = random_tabular(rng, V, H, PROMPTS)
    piHat = tabular_with_missing_mass(rng, V, H, PROMPTS)
    piBar = random_tabular(rng, V, H, PROMPTS)
    mu = FinitePromptDist(PROMPTS, [0.7, 0.3])
    for q in (piHat, piBar):
        for N in (2.0, 1e6):
            a, b = SeedTree(906).rng(), SeedTree(906).rng()
            got = stopped_kl(piD, q, None, N, mode="mc", n=3000, rng=a,
                             mu_sampler=mu)
            assert got == mc_oracle.stopped_kl(piD, q, mu, N, 3000, b)
            assert a.bit_generator.state == b.bit_generator.state


def sigma_levels(piD, featmap, mu, n, rng):
    """MC sigma*^2 as a level loop over every drawn row."""
    vals = np.empty(n)
    for x, idx, Y in sample_dataset(piD, mu, n, rng).groups:
        acc = np.zeros(len(idx))
        for h, first, inv in prefix_levels(Y, piD.V):
            pre = Y[first, :h]
            sq = metrics._sq_deviations(featmap, x, pre,
                                        piD.prefix_dists(x, pre))
            acc += sq[inv, Y[:, h]]
        vals[idx] = acc
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("n", [2, 40, 2000])
def test_mc_sigma_star_equals_the_level_loop_over_every_row(n):
    rng = np.random.default_rng([907, n])
    V, H = 3, 3
    piD = walked_linear(rng, V, H)
    mu = FinitePromptDist(PROMPTS, [0.4, 0.6])
    a, b = SeedTree(908).rng(), SeedTree(908).rng()
    got = sigma_star_sq(piD, piD.featmap, mu, mode="mc", n=n, rng=a)
    assert got == sigma_levels(piD, piD.featmap, mu, n, b)
    assert a.bit_generator.state == b.bit_generator.state


# --- prompt groups ---------------------------------------------------------


def test_equal_prompts_form_one_group_keyed_by_the_first_draw():
    """The MC modes' prompt groups, on a `FinitePromptDist` listing equal
    prompts and one prompt twice, are keyed by value."""
    # 0 == 0.0 == False and 1 == True: two values, and "a".
    mu = FinitePromptDist([0, 0.0, False, 1, True, "a", 0], [1 / 7] * 7)
    u = (np.array([2, 1, 4, 0, 3, 5, 6, 1]) + 0.5) / 7
    got = group_prompts(mu.from_uniforms(u))
    assert [(type(x), x) for x in got] == [(bool, False), (bool, True),
                                           (str, "a")]
    assert [g.tolist() for g in got.values()] == [[0, 1, 3, 6, 7], [2, 4],
                                                  [5]]


def test_an_empty_prompt_distribution_is_refused():
    with pytest.raises(ValueError, match="at least one prompt"):
        FinitePromptDist([], [])


# --- truncated distillation's teacher rows ------------------------------


class PerLevel:
    """A teacher's conditionals without its step rows: every level is one
    `prefix_dists` call, as for a prefix-dependent teacher."""

    def __init__(self, pol):
        self.pol, self.V, self.H = pol, pol.V, pol.H

    def step_dist(self, x):
        return None

    def prefix_dists(self, x, prefixes):
        return self.pol.prefix_dists(x, prefixes)


def teachers(task):
    """heterogeneous_kl's linear data policy and its table, both product
    at either prompt."""
    tab = linear_to_tabular(task.piD, PROMPTS)
    for t in (task.piD, tab):
        assert all(t.step_dist(x) is not None for x in PROMPTS)
    return [task.piD, tab]


def test_step_row_teachers_fill_the_per_level_rows():
    task = heterogeneous_kl_instance(4, 5)
    datasets = [sample_dataset(task.piD, task.mu, 40, np.random.default_rng([910, s]))
                for s in range(3)]
    data = _Stack(datasets, task.featmap)
    for teacher in teachers(task):
        for i in range(40):
            F, P = data.prefixes(i, teacher)
            F0, P0 = data.prefixes(i, PerLevel(teacher))
            assert np.array_equal(F, F0) and np.array_equal(P, P0)


def test_truncated_distillation_equals_the_per_level_teacher():
    task = heterogeneous_kl_instance(4, 6)
    T = 300
    configs = [TrainConfig(eta=0.05, T=T, A=A, checkpoint_every=100)
               for A in (math.log(8.0), 0.05, 1e6)]
    datasets = [sample_dataset(task.piD, task.mu, T, np.random.default_rng([911, s]))
                for s in range(len(configs))]
    for teacher in teachers(task):
        for slow, fast in (
                ([sgd_truncated_distill(d, PerLevel(teacher), task.featmap,
                                        c) for d, c in zip(datasets, configs)],
                 [sgd_truncated_distill(d, teacher, task.featmap, c)
                  for d, c in zip(datasets, configs)]),
                (train_stack(lambda *a: sgd_truncated_steps(
                    PerLevel(teacher), *a), datasets, task.featmap, configs),
                 train_stack(lambda *a: sgd_truncated_steps(teacher, *a),
                             datasets, task.featmap, configs))):
            for a, b in zip(slow, fast):
                assert np.array_equal(a.final_theta, b.final_theta)
                assert [t for t, _ in a.checkpoints] == \
                    [t for t, _ in b.checkpoints]
                for (_, x), (_, y) in zip(a.checkpoints, b.checkpoints):
                    assert np.array_equal(x, y)
