"""Batched log-probs and sampling against per-row references."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from conftest import (random_product, random_tabular,
                      tabular_with_missing_mass)
from covkit.core import (Dataset, FinitePromptDist, Policy, Trajectory,
                         enumerate_responses, logprob_matrix, sample_prompts)
from covkit.decoding import TTTPolicy, adversarial_reward, bon_regret
from covkit.graphs import GraphConfig, gen_graph_instance
from covkit.metrics import (coverage_mc, empirical_pairwise_cov,
                            onpolicy_cov_estimate, pairwise_cov_matrix, seq_ce,
                            seq_kl, stopped_kl)
from covkit.models import CallableFeatureMap, LinearARModel, TabularModel
from covkit.seeding import SeedTree


def loop_logprob(pol, x, y):
    """The per-token loop: one next_dist call and one log per token."""
    total, prefix = 0.0, ()
    for v in y:
        p = pol.next_dist(x, prefix)[v]
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
        prefix += (v,)
    return total


def random_theta(rng, d):
    theta = rng.normal(size=d)
    return theta / np.linalg.norm(theta) * rng.uniform(0.5, 1.0)


def linear_step_table(rng, V, H):
    tables = {x: rng.normal(size=(V, 3)) * 2.0 for x in (0, 1)}
    fm = CallableFeatureMap(lambda x, pre: tables[x][pre[-1]], d=3, B=10.0,
                            step_tables=lambda x: tables[x])
    return LinearARModel(random_theta(rng, 3), fm, V=V, H=H)


def linear_prefix_features(rng, V, H):
    # Features of the last two tokens (V stands for "no token").
    W = rng.normal(size=(2, V + 1, V, 3)) * 2.0

    def phi(x, pre):
        return W[x, pre[-2] if len(pre) > 1 else V, pre[-1]]
    fm = CallableFeatureMap(phi, d=3, B=100.0)
    return LinearARModel(random_theta(rng, 3), fm, V=V, H=H)


def ttt(rng, V, H):
    return TTTPolicy(linear_step_table(rng, V, H), eta=0.7)


def product_tabular(rng, V, H):
    return random_product(rng, V, H, prompts=(0, 1))


def prefix_tabular(rng, V, H):
    return tabular_with_missing_mass(rng, V, H, prompts=(0,))


BUILDERS = [product_tabular, prefix_tabular, linear_step_table,
            linear_prefix_features, ttt]


def check_rows(pol, x, Y):
    got = pol.logprob_many(x, Y)
    per_row = np.array([pol.logprob(Trajectory(x, y)) for y in Y.tolist()])
    loop = np.array([loop_logprob(pol, x, y) for y in Y.tolist()])
    for ref in (per_row, loop):
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        fin = np.isfinite(ref)
        assert np.allclose(got[fin], ref[fin], rtol=0.0, atol=1e-12)
    return got


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_logprob_many_matches_per_row(build):
    for seed in range(4):
        rng = SeedTree(seed).child(build.__name__).rng()
        V, H = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        pol = build(rng, V, H)
        for x in (0, 1):
            Y = np.vstack([rng.integers(0, V, size=(30, H)),
                           pol.sample_many(x, 10, rng)])
            got = check_rows(pol, x, Y)
            assert np.isfinite(got[30:]).all()


def test_logprob_many_graph_policy():
    rng = SeedTree(11).rng()
    for cid in ("G1", "GH3"):
        _, prompt, pol = gen_graph_instance(cid, GraphConfig(m=40, L=6), rng)
        paths = np.array([y for y, _ in pol.selected_paths(prompt)])
        Y = np.vstack([paths, rng.integers(0, pol.V, size=(20, pol.H)),
                       pol.sample_many(prompt, 5, rng)])
        got = check_rows(pol, prompt, Y)
        assert np.isfinite(got[:len(paths)]).all()
        assert np.isneginf(got[len(paths):len(paths) + 20]).all()


def test_missing_mass_gives_neg_inf_in_both_paths():
    # Product path and level path score a zero-mass token as -inf.
    prod = TabularModel({(0, ()): [0.0, 1.0]}, V=2, H=1)
    assert prod.step_dist(0) is not None
    pre = TabularModel({(0, ()): [0.5, 0.5], (0, (0,)): [0.0, 1.0],
                        (0, (1,)): [1.0, 0.0]}, V=2, H=2)
    assert pre.step_dist(0) is None
    assert prod.logprob_many(0, [[0], [1]]).tolist() == [-math.inf, 0.0]
    got = pre.logprob_many(0, [[0, 0], [0, 1], [1, 0], [1, 1]])
    assert got.tolist() == [-math.inf, math.log(0.5), math.log(0.5),
                            -math.inf]


class OneStep(Policy):
    """A single-token policy without a step_dist, so it takes the level
    path of sample_many."""

    def __init__(self, p):
        self.p = np.asarray(p, dtype=float)
        self.V, self.H = len(p), 1

    def prefix_dists(self, x, prefixes):
        return np.broadcast_to(self.p, (len(prefixes), self.V))


def test_level_sampler_draws_like_generator_choice():
    p = [0.0, 0.2, 0.0, 0.5, 0.3, 0.0]
    got = OneStep(p).sample_many(0, 5000, np.random.default_rng(3))
    want = np.random.default_rng(3).choice(len(p), size=5000, p=p)
    assert np.array_equal(got[:, 0], want)


def test_level_sampler_chi_square():
    rng = SeedTree(7).rng()
    V, H, n = 3, 3, 30_000
    pol = tabular_with_missing_mass(rng, V, H, prompts=(0,))
    assert pol.step_dist(0) is None
    Y = pol.sample_many(0, n, rng)
    counts = Counter(map(tuple, Y.tolist()))
    ys = enumerate_responses(V, H)
    p = np.array([math.exp(loop_logprob(pol, 0, y)) for y in ys])
    obs = np.array([counts.get(y, 0) for y in ys])
    assert obs[p == 0.0].sum() == 0
    pos = p > 0.0
    stat, pval = stats.chisquare(obs[pos], n * p[pos] / p[pos].sum())
    assert pval > 1e-3, (stat, pval)


def test_prompt_sampling():
    mu = FinitePromptDist(["a", "b", "c"], [0.2, 0.5, 0.3])
    rng_a, rng_b = SeedTree(1).rng(), SeedTree(1).rng()
    got = sample_prompts(mu, 200, rng_a)
    assert got == [mu(rng_b) for _ in range(200)]
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    rng_a, rng_b = SeedTree(2).rng(), SeedTree(2).rng()
    fn = lambda r: int(r.integers(5))
    assert sample_prompts(fn, 50, rng_a) == [fn(rng_b) for _ in range(50)]
    assert sample_prompts(mu, 50, rng_a) == mu.from_uniforms(rng_b.random(50))


def test_logprob_matrix_and_pairwise_match_per_row():
    rng = SeedTree(5).rng()
    cands = [tabular_with_missing_mass(rng, 3, 3, prompts=(0, 1))
             for _ in range(3)]
    data = [Trajectory(int(rng.integers(2)), tuple(rng.integers(0, 3, 3)))
            for _ in range(60)]
    ds = Dataset([t.x for t in data], [t.y for t in data], H=3, V=3)
    lp = logprob_matrix(cands, ds)
    ref = np.array([[pi.logprob(t) for t in data] for pi in cands])
    assert np.array_equal(lp, ref)
    M = pairwise_cov_matrix(cands, ds, 4.0)
    for i in range(3):
        for j in range(3):
            hits = 0
            for t in data:
                a = loop_logprob(cands[i], t.x, t.y)
                b = loop_logprob(cands[j], t.x, t.y)
                hits += a > -math.inf and (
                    b == -math.inf or a - b >= math.log(4.0) - 1e-12)
            want = 0.0 if i == j else hits / len(data)
            assert M[i, j] == want
            if i != j:
                assert empirical_pairwise_cov(cands[i], cands[j], ds,
                                              4.0) == want


def test_adversarial_reward_many_matches_call_and_bon_fallback():
    rng = SeedTree(6).rng()
    piT = tabular_with_missing_mass(rng, 3, 2, prompts=(0, 1))
    piHat = tabular_with_missing_mass(rng, 3, 2, prompts=(0, 1))
    adv = adversarial_reward(piT, piHat, 2.0)
    Y = np.array(enumerate_responses(3, 2))
    for x in (0, 1):
        assert adv.many(x, Y).tolist() == [adv(x, tuple(y)) for y in Y]
    mu = FinitePromptDist([0, 1], [0.3, 0.7])
    # Without `many`, bon_regret calls the reward row by row; the rewards
    # draw nothing from the rng, so the estimate is the same.
    a = bon_regret(piHat, piT, adv, mu, 4, 300, SeedTree(8).rng())
    b = bon_regret(piHat, piT, lambda x, y: adv(x, y), mu, 4, 300,
                   SeedTree(8).rng())
    assert a == b


def test_bon_regret_against_exact():
    # For a 0/1 reward, BoN fails at x with probability (1 - q(x))^N, where
    # q(x) is the chance of one draw from piHat scoring 1.
    rng = SeedTree(13).rng()
    piT = tabular_with_missing_mass(rng, 2, 3, prompts=(0, 1))
    piHat = random_tabular(rng, 2, 3, prompts=(0, 1))
    reward = adversarial_reward(piT, piHat, 1.0)
    mu = FinitePromptDist([0, 1], [0.3, 0.7])
    N, trials = 3, 20_000
    Y = np.array(enumerate_responses(2, 3))
    exact = 0.0
    for x, w in mu.items():
        r = reward.many(x, Y)
        pT = np.exp([loop_logprob(piT, x, y) for y in Y.tolist()])
        pH = np.exp([loop_logprob(piHat, x, y) for y in Y.tolist()])
        exact += w * (pT @ r - (1.0 - (1.0 - pH @ r) ** N))
    est, hw = bon_regret(piHat, piT, reward, mu, N, trials, rng)
    assert abs(est - exact) <= hw


def test_onpolicy_mc_with_repeated_prompts():
    rng = SeedTree(14).rng()
    pi = tabular_with_missing_mass(rng, 2, 3, prompts=(0, 1))
    piP = random_tabular(rng, 2, 3, prompts=(0, 1))
    prompts, m = [1, 0, 1, 1], 5000
    exact = onpolicy_cov_estimate(piP, pi, prompts, 2.0)
    mc = onpolicy_cov_estimate(piP, pi, prompts, 2.0, mode="mc", m=m,
                               rng=rng)
    # Each prompt's frequency is within 1e-4-Hoeffding of its probability.
    assert abs(mc - exact) <= math.sqrt(math.log(2e4) / (2 * m))


@pytest.mark.parametrize("n", [0, None])
def test_mc_modes_need_samples(n):
    pol = random_tabular(SeedTree(0).rng(), 2, 2)
    mu = FinitePromptDist([0], [1.0])
    for call in (lambda: seq_kl(pol, pol, None, mode="mc", n=n, rng=None,
                                mu_sampler=mu),
                 lambda: seq_ce(pol, pol, None, mode="mc", n=n, rng=None,
                                mu_sampler=mu),
                 lambda: stopped_kl(pol, pol, None, 4.0, mode="mc", n=n,
                                    rng=None, mu_sampler=mu)):
        with pytest.raises(ValueError, match="n must be >= 1 and an integer"):
            call()


def test_mc_modes_against_exact():
    rng = SeedTree(12).rng()
    piD = tabular_with_missing_mass(rng, 2, 3, prompts=(0, 1))
    piHat = random_tabular(rng, 2, 3, prompts=(0, 1))
    mu = FinitePromptDist([0, 1], [0.4, 0.6])
    N, n = 3.0, 20_000

    def stopped(x, y):
        acc, prefix = 0.0, ()
        for v in y:
            p, q = piD.next_dist(x, prefix), piHat.next_dist(x, prefix)
            acc += sum(a * math.log(a / b) for a, b in zip(p, q) if a > 0)
            prefix += (v,)
        return min(math.log(N), acc)

    per_sample = [
        (seq_kl, {}, lambda x, y: loop_logprob(piD, x, y) -
         loop_logprob(piHat, x, y)),
        (seq_ce, {}, lambda x, y: -loop_logprob(piHat, x, y)),
        (stopped_kl, {"N": N}, stopped)]
    for fn, kw, value in per_sample:
        w, f = [], []
        for x, wx in mu.items():
            for y in enumerate_responses(2, 3):
                w.append(wx * math.exp(loop_logprob(piD, x, y)))
                f.append(value(x, y) if w[-1] > 0 else 0.0)
        w, f = np.array(w), np.array(f)
        mean = float(w @ f)
        sd = math.sqrt(float(w @ (f - mean) ** 2))
        assert math.isclose(fn(piD, piHat, mu.items(), **kw), mean,
                            rel_tol=1e-9)
        mc = fn(piD, piHat, None, mode="mc", n=n, rng=rng, mu_sampler=mu,
                **kw)
        assert abs(mc - mean) <= 5.0 * sd / math.sqrt(n), fn.__name__


def test_wilson_half_widths_at_scipy_z():
    rng = SeedTree(12).rng()
    piD = random_tabular(rng, 3, 3, prompts=(0, 1))
    piHat = random_tabular(rng, 3, 3, prompts=(0, 1))
    mu = FinitePromptDist([0, 1], [0.6, 0.4])
    n = 500
    for delta in (0.2, 0.05, 0.01, 0.001):
        curve = coverage_mc(piD, piHat, mu, [1.0, 2.0, 4.0, 16.0], n,
                            SeedTree(13).rng(), delta=delta,
                            interval="wilson")
        z = stats.norm.ppf(1 - delta / 2)
        p = curve.values
        want = z / (1 + z * z / n) * np.sqrt(p * (1 - p) / n +
                                             z * z / (4 * n * n))
        assert np.allclose(curve.half_widths, want, rtol=1e-12, atol=0.0)
