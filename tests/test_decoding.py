import math

import numpy as np
import pytest

from covkit.core import FinitePromptDist, Trajectory
from covkit.decoding import (AdversarialReward, TTTPolicy, best_of_n,
                             bon_regret)
from covkit.metrics import coverage_exact, hoeffding_half_width
from covkit.models import (CallableFeatureMap, LinearARModel,
                           grad_logprob_token, linear_to_tabular,
                           project_unit_ball)
from covkit.seeding import SeedTree
from covkit.tasks import bernoulli_featmap, bernoulli_model


def small_model(theta0=0.2, B=1.0, H=3):
    fm = bernoulli_featmap(B)
    return LinearARModel(np.array([theta0]), fm, V=2, H=H)


def test_ttt_eta_zero_matches_base():
    base = small_model()
    ttt = TTTPolicy(base, eta=0.0)
    for prefix in [(), (1,), (1, 0)]:
        assert np.allclose(ttt.next_dist(0, prefix), base.next_dist(0, prefix))


def test_ttt_empty_prefix_matches_base_any_eta():
    base = small_model()
    ttt = TTTPolicy(base, eta=0.5)
    assert np.allclose(ttt.next_dist(0, ()), base.next_dist(0, ()))


def test_ttt_logprob_matches_explicit_replay():
    # V=2, H=3: replay by hand and compare conditionals and logprob.
    base = small_model(theta0=0.1)
    eta = 0.3
    ttt = TTTPolicy(base, eta=eta)
    for y in [(0, 1, 1), (1, 1, 0), (0, 0, 0)]:
        theta = base.theta.copy()
        lp = 0.0
        prefix = ()
        for v in y:
            m = LinearARModel(theta, base.featmap, base.V, base.H)
            p = m.next_dist(0, prefix)
            lp += math.log(p[v])
            assert np.allclose(ttt.next_dist(0, prefix),
                               p, atol=1e-12)
            theta = project_unit_ball(
                theta + eta * grad_logprob_token(theta, base.featmap, base.V,
                                                 0, prefix, v))
            prefix += (v,)
        assert math.isclose(ttt.logprob(Trajectory(0, y)), lp, abs_tol=1e-9)


def test_ttt_conditionals_sum_to_one_and_sampler_consistent():
    base = small_model(theta0=0.4)
    ttt = TTTPolicy(base, eta=0.2)
    assert math.isclose(ttt.next_dist(0, (1, 0)).sum(), 1.0, abs_tol=1e-12)
    rng = SeedTree(0).rng()
    n = 20000
    from collections import Counter
    freq = Counter(ttt.sample(0, rng) for _ in range(n))
    from covkit.core import enumerate_responses
    for y in enumerate_responses(2, 3):
        p = math.exp(ttt.logprob(Trajectory(0, y)))
        assert abs(freq.get(y, 0) / n - p) <= 4 * math.sqrt(p * (1 - p) / n) + 1e-3


def test_best_of_n_basics():
    pol = bernoulli_model(0.5)
    rng = SeedTree(1).rng()
    y = best_of_n(pol, lambda x, y: 1, 0, 5, rng)
    assert y in [(0,), (1,)]
    with pytest.raises(ValueError):
        best_of_n(pol, lambda x, y: 1, 0, 0, rng)


def test_best_of_n_success_probability():
    # q = 0.2 per draw, N = 5 -> P(success) = 1 - 0.8^5 = 0.67232.
    pol = bernoulli_model(0.2)
    reward = lambda x, y: int(y[0] == 1)
    rng = SeedTree(2).rng()
    n = 10 ** 5
    hits = sum(reward(0, best_of_n(pol, reward, 0, 5, rng)) for _ in range(n))
    expect = 1 - 0.8 ** 5
    assert abs(hits / n - expect) <= 4 * math.sqrt(expect * (1 - expect) / n)


def test_adversarial_reward_threshold():
    # Ber(0.5) vs Ber(0.05), N=2: ratio at y=1 is 10 >= 4.
    r = AdversarialReward(bernoulli_model(0.5), bernoulli_model(0.05), 2.0)
    assert r(0, (1,)) == 1
    assert r(0, (0,)) == 0
    same = AdversarialReward(bernoulli_model(0.3), bernoulli_model(0.3), 1.0)
    assert same(0, (0,)) == 0 and same(0, (1,)) == 0


def test_adversarial_reward_expectation_is_coverage():
    piT, piHat = bernoulli_model(0.4), bernoulli_model(0.04)
    N = 4.0
    r = AdversarialReward(piT, piHat, N)
    expect = sum(math.exp(piT.logprob(Trajectory(0, (y,)))) * r(0, (y,))
                 for y in (0, 1))
    cov = coverage_exact(piT, piHat, [(0, 1.0)], [2 * N]).values[0]
    assert math.isclose(expect, cov, abs_tol=1e-12)


def test_bon_regret_identical_policies():
    pol = bernoulli_model(0.5)
    mu = FinitePromptDist([0], [1.0])
    rng = SeedTree(3).rng()
    (est,), hw = bon_regret(pol, pol, lambda x, y: int(y[0]), mu, [1], 2000,
                            rng)
    assert abs(est) <= 2 * hw
    (est,), _ = bon_regret(pol, pol, lambda x, y: 1, mu, [4], 200, rng)
    assert est == 0.0
    with pytest.raises(ValueError):
        bon_regret(pol, pol, lambda x, y: 1, mu, [1], 50, rng)


@pytest.mark.parametrize("delta", [2.0, 0.0, math.nan])
def test_bon_regret_refuses_delta_outside_unit_interval_before_drawing(delta):
    pol = bernoulli_model(0.5)
    rng = SeedTree(3).rng()
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="delta must lie"):
        bon_regret(pol, pol, lambda x, y: 1, FinitePromptDist([0], [1.0]),
                   [1], 200, rng, delta=delta)
    assert rng.bit_generator.state == state


def test_bon_lower_bound_with_adversarial_reward():
    # piHat starves the rewarded event: regret >= 0.5*Pcov_{2N} - 3*hw.
    N = 4
    piT = bernoulli_model(0.3)
    piHat = bernoulli_model(0.3 / (2 * N))
    reward = AdversarialReward(piT, piHat, N)
    mu = FinitePromptDist([0], [1.0])
    rng = SeedTree(4).rng()
    trials = 20000
    (est,), hw = bon_regret(piHat, piT, reward, mu, [N], trials, rng)
    pcov = coverage_exact(piT, piHat, mu.items(), [2.0 * N]).values[0]
    assert est >= 0.5 * pcov - 3 * hw
