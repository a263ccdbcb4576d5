import math

import numpy as np
import pytest

from covkit.core import sample_dataset
from covkit.metrics import coverage_exact, seq_kl, sigma_star_sq
from covkit.models import LinearARModel
from covkit.seeding import SeedTree
from covkit.tasks import (SGD_TOKEN_VALUES, bernoulli_mle, bernoulli_model,
                          bernoulli_task, heterogeneous_kl_instance,
                          misspec_instance, sgd_lower_instance,
                          sigma_star_instance)


def kl_ber(p, q):
    out = 0.0
    for a, b in ((p, q), (1 - p, 1 - q)):
        if a > 0:
            out += math.inf if b <= 0 else a * math.log(a / b)
    return out


# ------------------------------------------------------------- bernoulli

def test_bernoulli_task_validation():
    bernoulli_task(0.02)
    for bad in (0.0, 0.5, -0.1, 0.9):
        with pytest.raises(ValueError):
            bernoulli_task(bad)


def test_bernoulli_mle_is_empirical_frequency():
    task = bernoulli_task(0.3)
    rng = SeedTree(0).rng()
    ds = sample_dataset(task.piD, task.mu, 100, rng)
    phat = bernoulli_mle(ds)
    assert phat == np.mean([y[0] for y in ds.Y.tolist()])


def test_bernoulli_missing_mass_coverage():
    # MLE = Ber(0) trial: exact Pcov_N = p* for all N.
    task = bernoulli_task(0.02)
    mu = task.mu.items()
    curve = coverage_exact(task.piD, bernoulli_model(0.0), mu,
                           [2.0, 64.0, 2.0 ** 16])
    assert np.allclose(curve.values, 0.02)
    # MLE with phat >= p*/2 has Pcov_2 = 0.
    curve = coverage_exact(task.piD, bernoulli_model(0.04), mu, [2.0])
    assert curve.values[0] == 0.0


# --------------------------------------------------------- heterogeneous

def test_heterogeneous_instance_structure():
    t = heterogeneous_kl_instance(n=10, H=3)
    # x=0 features vanish: uniform sequence law for any theta.
    for theta in ([0.3], [-1.0]):
        m = LinearARModel(np.array(theta), t.featmap, V=2, H=3)
        assert np.allclose(m.next_dist(0, ()), 0.5)
    p_plus = math.e / (math.e + math.exp(-1))
    assert math.isclose(t.piD.next_dist(1, ())[1], p_plus, rel_tol=1e-12)
    # mu weights
    items = dict(t.mu.items())
    assert math.isclose(items[1], 1.0 / 20.0)


def test_heterogeneous_kl_closed_form():
    # KL(pi_{+1} || pi_{-1}) at x=1 equals H * KL(Ber(p+) || Ber(1-p+)).
    H = 3
    t = heterogeneous_kl_instance(n=5, H=H)
    m_pos = LinearARModel(np.array([1.0]), t.featmap, V=2, H=H)
    m_neg = LinearARModel(np.array([-1.0]), t.featmap, V=2, H=H)
    p_plus = math.e / (math.e + math.exp(-1))
    expect = H * kl_ber(p_plus, 1 - p_plus)
    got = seq_kl(m_pos, m_neg, [(1, 1.0)])
    assert math.isclose(got, expect, rel_tol=1e-9)


# ----------------------------------------------------------- SGD lower

def test_sgd_lower_large_eta_constraint():
    with pytest.raises(ValueError, match="eta\\*H\\*B >= 8"):
        sgd_lower_instance("large_eta", H=4, B=1.0, eta=0.5)
    with pytest.raises(ValueError, match="requires eta"):
        sgd_lower_instance("large_eta", H=4, B=1.0)
    with pytest.raises(ValueError, match="unknown variant"):
        sgd_lower_instance("weird", H=4, B=1.0)


def test_sgd_lower_large_eta_geometry():
    # Claim: || v_a + etabar*(v0 - v_a) || = etabar - 1 for a in {-1, +1},
    # with etabar = eta*H*B and v the unit feature directions.
    H, B, eta = 16, 2.0, 1.0
    t = sgd_lower_instance("large_eta", H=H, B=B, eta=eta)
    table = t.featmap.step_table(0) / B      # unit vectors v
    etabar = eta * H * B
    v0 = table[SGD_TOKEN_VALUES.index(0)]
    for a in (-1, 1):
        va = table[SGD_TOKEN_VALUES.index(a)]
        norm = np.linalg.norm(va + etabar * (v0 - va))
        assert math.isclose(norm, etabar - 1.0, abs_tol=1e-9)
    # all features on the radius-B sphere
    assert np.allclose(np.linalg.norm(t.featmap.step_table(0), axis=1), B)


def test_sgd_lower_large_eta_sigma_star_bounded():
    # B >= c_B log(TH) regime: the instance's inherent variance stays <= 1.
    H, T = 16, 1000
    B = 3.0 * math.log(T * H)
    eta = 8.0 / (H * B) * 1.5
    t = sgd_lower_instance("large_eta", H=H, B=B, eta=eta)
    s2 = sigma_star_sq(t.piD, t.featmap, t.mu.items())
    assert s2 <= 1.0


def test_sgd_lower_small_eta():
    with pytest.raises(ValueError,
                       match=r"Bbar must lie in \[1, 1\], got 2.0"):
        sgd_lower_instance("small_eta", H=4, B=1.0, Bbar=2.0, N=8.0, n=10)
    t = sgd_lower_instance("small_eta", H=16, B=16.0, Bbar=8.0,
                           N=math.e ** 4, n=1000)
    expect = min(1.0, 256.0 / (512.0 * math.e * 1000 * 64 * 4))
    assert math.isclose(t.metadata["mu_plus"], expect, rel_tol=1e-12)
    # the two prompts excite orthogonal coordinates
    plus = t.featmap.step_table("+")
    minus = t.featmap.step_table("-")
    assert np.allclose(plus[:, 1], 0) and np.allclose(minus[:, 0], 0)
    assert np.allclose(t.theta_star, [0.5, 0.5])


# ----------------------------------------------------------- sigma star

def test_sigma_star_instance_precondition():
    with pytest.raises(ValueError, match="precondition"):
        sigma_star_instance(H=10, B=2.0, N=100.0, n=10)


def test_sigma_star_instance_conditionals():
    H, B = 300, 30.0
    t = sigma_star_instance(H=H, B=B, N=math.e ** 2, n=10)
    # x=- has zero features: fair coin for every theta.
    assert np.allclose(t.piD.next_dist("-", (1, 0)), 0.5)
    # theta=0 default: fair coin at x=+ as well.
    assert np.allclose(t.piD.next_dist("+", ()), 0.5)
    # logistic closed form at nonzero theta.
    theta = np.zeros(H)
    theta[0] = 0.02
    m = LinearARModel(theta, t.featmap, V=2, H=H)
    expect = math.exp(B * theta[0]) / (1 + math.exp(B * theta[0]))
    assert math.isclose(m.next_dist("+", ())[1], expect, rel_tol=1e-12)


# -------------------------------------------------------------- misspec

def test_misspec_validation():
    with pytest.raises(ValueError):
        misspec_instance(alpha=0.0, M=10.0)
    with pytest.raises(ValueError):
        misspec_instance(alpha=1.5, M=10.0)
    with pytest.raises(ValueError):
        misspec_instance(alpha=1.0, M=2.0)   # M <= e^alpha


def test_misspec_parameters_and_coverage():
    task, cands = misspec_instance(alpha=1.0, M=math.e ** 3)
    assert math.isclose(task.metadata["p"], 1.0 / 96.0, rel_tol=1e-12)
    M = math.e ** 3
    mu = task.mu.items()
    # candidate 0 has bounded log ratio: zero coverage above e^alpha.
    c0 = coverage_exact(task.piD, cands.candidates[0], mu, [M]).values[0]
    assert c0 == 0.0
    assert task.metadata["sup_log_ratio_cand1"] <= 1.0 + 1e-12
    # candidate 1: the (x=-, y=1) event has ratio exactly M -> p/2.
    c1 = coverage_exact(task.piD, cands.candidates[1], mu, [M]).values[0]
    assert math.isclose(c1, task.metadata["p"] / 2.0, abs_tol=1e-15)
    assert c1 >= task.metadata["p"] * 0.5 - 1e-15
