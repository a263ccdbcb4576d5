import math

import numpy as np
import pytest

from conftest import random_product, random_tabular
from covkit.core import FinitePromptDist, Trajectory, enumerate_responses
from covkit.metrics import sigma_star_sq
from covkit.models import (CallableFeatureMap, LinearARModel, TabularModel,
                           grad_logprob, grad_logprob_token, linear_to_tabular,
                           project_unit_ball)
from covkit.seeding import SeedTree


def _random_featmap(rng, d, V, H, B=1.0):
    # One random feature table per (prefix length, token); prefix-dependent.
    vecs = {}

    def phi(x, prefix):
        key = (len(prefix), prefix[-1])
        if key not in vecs:
            raise KeyError(key)
        return vecs[key]

    for h in range(1, H + 1):
        for v in range(V):
            raw = rng.normal(size=d)
            vecs[(h, v)] = B * raw / max(1.0, np.linalg.norm(raw) / 1.0)
    return CallableFeatureMap(phi, d=d, B=B)


def test_zero_theta_uniform():
    rng = SeedTree(0).rng()
    fm = _random_featmap(rng, 3, 4, 2)
    model = LinearARModel(np.zeros(3), fm, V=4, H=2)
    assert np.allclose(model.next_dist(0, ()), 0.25)


def test_scalar_sign_feature_conditional():
    # d=1, tokens map to -1/+1, theta=1 -> P(+1) = e/(e+1/e).
    table = np.array([[-1.0], [1.0]])
    fm = CallableFeatureMap(lambda x, pre: table[pre[-1]], d=1, B=1.0,
                            step_tables=lambda x: table)
    model = LinearARModel(np.array([1.0]), fm, V=2, H=3)
    p = model.next_dist(0, ())
    assert math.isclose(p[1], math.e / (math.e + math.exp(-1)), rel_tol=1e-12)


def test_softmax_normalization_and_shift_invariance():
    rng = SeedTree(1).rng()
    fm = _random_featmap(rng, 4, 3, 2)
    theta = project_unit_ball(rng.normal(size=4))
    model = LinearARModel(theta, fm, V=3, H=2)
    p = model.next_dist(0, (1,))
    assert math.isclose(p.sum(), 1.0, abs_tol=1e-12)
    # Shifting all candidate features by a constant vector leaves the
    # distribution unchanged.
    c = rng.normal(size=4)
    fm2 = CallableFeatureMap(lambda x, pre: fm.phi(x, pre) + c, d=4, B=10.0)
    p2 = LinearARModel(theta, fm2, V=3, H=2).next_dist(0, (1,))
    assert np.allclose(p, p2, atol=1e-12)


def test_theta_validation():
    fm = _random_featmap(SeedTree(2).rng(), 2, 2, 1)
    with pytest.raises(ValueError):
        LinearARModel(np.array([1.0, 1.0]), fm, V=2, H=1)
    with pytest.raises(ValueError):
        LinearARModel(np.array([0.1]), fm, V=2, H=1)


def test_project_unit_ball():
    assert np.array_equal(project_unit_ball(np.zeros(3)), np.zeros(3))
    assert np.allclose(project_unit_ball(np.array([3.0, 4.0])), [0.6, 0.8])
    v = np.array([5.0, -2.0, 1.0])
    once = project_unit_ball(v)
    assert np.array_equal(project_unit_ball(once), once)


def test_grad_logprob_zero_for_deterministic_path():
    # One logit dominates by >= 50 at every step -> gradient ~ 0 on the path.
    table = np.array([[50.0], [0.0]])
    fm = CallableFeatureMap(lambda x, pre: table[pre[-1]], d=1, B=50.0,
                            step_tables=lambda x: table)
    model = LinearARModel(np.array([1.0]), fm, V=2, H=3)
    g = grad_logprob(model.theta, fm, 2, 0, [(0, 0, 0)])[0]
    assert np.linalg.norm(g) <= 1e-10


def test_grad_logprob_finite_difference():
    rng = SeedTree(3).rng()
    for trial in range(10):
        d = int(rng.integers(1, 6))
        V = int(rng.integers(2, 5))
        H = int(rng.integers(1, 4))
        fm = _random_featmap(rng, d, V, H)
        theta = 0.5 * project_unit_ball(rng.normal(size=d))
        model = LinearARModel(theta, fm, V=V, H=H)
        y = tuple(rng.integers(0, V, H))
        g = grad_logprob(theta, fm, V, 0, [y])[0]
        eps = 1e-5
        num = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = eps
            up = LinearARModel(theta + e, fm, V, H).logprob(Trajectory(0, y))
            dn = LinearARModel(theta - e, fm, V, H).logprob(Trajectory(0, y))
            num[j] = (up - dn) / (2 * eps)
        assert np.allclose(g, num, atol=1e-6)


def test_grad_norm_bound():
    rng = SeedTree(4).rng()
    B, H = 2.0, 3
    fm = _random_featmap(rng, 3, 3, H, B=B)
    theta = project_unit_ball(rng.normal(size=3))
    model = LinearARModel(theta, fm, V=3, H=H)
    for _ in range(20):
        y = tuple(rng.integers(0, 3, H))
        assert np.linalg.norm(grad_logprob(theta, fm, 3, 0, [y])[0]) <= \
            2 * B * H + 1e-9


def test_step_table_fast_path_matches_generic():
    rng = SeedTree(5).rng()
    table = rng.normal(size=(3, 2))
    fm_fast = CallableFeatureMap(lambda x, pre: table[pre[-1]], d=2, B=5.0,
                                 step_tables=lambda x: table)
    fm_slow = CallableFeatureMap(lambda x, pre: table[pre[-1]], d=2, B=5.0)
    theta = project_unit_ball(rng.normal(size=2))
    fast = LinearARModel(theta, fm_fast, V=3, H=4)
    slow = LinearARModel(theta, fm_slow, V=3, H=4)
    y = (2, 0, 1, 1)
    assert np.allclose(grad_logprob(theta, fm_fast, 3, 0, [y])[0],
                       grad_logprob(theta, fm_slow, 3, 0, [y])[0], atol=1e-12)
    assert np.allclose(fast.next_dist(0, (2,)), slow.next_dist(0, (2,)))
    assert np.allclose(fast.step_dist(0), slow.next_dist(0, ()))


def test_grad_logprob_token_matches_sum():
    rng = SeedTree(6).rng()
    fm = _random_featmap(rng, 3, 2, 3)
    theta = 0.7 * project_unit_ball(rng.normal(size=3))
    model = LinearARModel(theta, fm, V=2, H=3)
    y = (1, 0, 1)
    total = np.zeros(3)
    prefix = ()
    for v in y:
        total += grad_logprob_token(theta, fm, 2, 0, prefix, v)
        prefix += (v,)
    assert np.allclose(total, grad_logprob(theta, fm, 2, 0, [y])[0],
                       atol=1e-12)


def test_tabular_row_validation_and_default():
    with pytest.raises(ValueError):
        TabularModel({(0, ()): [0.5, 0.6]}, V=2, H=1)
    pol = TabularModel({}, V=4, H=2)
    assert np.allclose(pol.next_dist(0, ()), 0.25)


# Rows that are not distributions, then rows within 1e-9 of summing to 1.
ROW_CASES = [([math.nan, 1.0], False), ([math.inf, 0.0], False),
             ([-math.inf, 1.0], False), ([math.inf, -math.inf], False),
             ([-0.25, 1.25], False), ([0.5, 0.5 + 2e-9], False),
             ([0.5, 0.5 - 2e-9], False), ([0.5, 0.5 + 5e-10], True),
             ([0.5, 0.5 - 5e-10], True)]


@pytest.mark.parametrize("row,ok", ROW_CASES)
@pytest.mark.parametrize("where", ["stored", "default"])
def test_tabular_refuses_rows_that_are_not_distributions(row, ok, where):
    good = [0.25, 0.75]
    # The row sits after a good key and before another, so a refusal must
    # name it, not the first or last entry.
    tables = {(0, ()): good, (1, ()): row if where == "stored" else good,
              (1, (1,)): good}
    default = row if where == "default" else None
    if ok:
        pol = TabularModel(tables, V=2, H=2, default=default)
        got = pol.next_dist(1, ()) if where == "stored" else pol.default
        assert got.tolist() == row
        return
    with pytest.raises(ValueError) as e:
        TabularModel(tables, V=2, H=2, default=default)
    assert str(e.value) == ("table key (1, ()): row is not a distribution"
                            if where == "stored" else
                            "default is not a distribution")


def test_tabular_step_dist():
    rng = SeedTree(9).rng()
    prod = random_product(rng, 3, 3, prompts=(0, 1))
    assert np.array_equal(prod.step_dist(1), prod.next_dist(1, (2, 0)))
    assert random_tabular(rng, 3, 3).step_dist(0) is None
    partial = TabularModel({(0, ()): [0.5, 0.5]}, V=2, H=2)
    assert partial.step_dist(0) is None
    assert np.allclose(partial.step_dist(1), 0.5)   # no rows: the default


def test_linear_to_tabular_equivalence():
    rng = SeedTree(7).rng()
    fm = _random_featmap(rng, 2, 2, 3)
    theta = project_unit_ball(rng.normal(size=2))
    model = LinearARModel(theta, fm, V=2, H=3)
    tab = linear_to_tabular(model, [0])
    for y in enumerate_responses(2, 3):
        t = Trajectory(0, y)
        assert math.isclose(model.logprob(t), tab.logprob(t), abs_tol=1e-9)


def test_sigma_star_deterministic_zero():
    table = np.array([[50.0], [0.0]])
    fm = CallableFeatureMap(lambda x, pre: table[pre[-1]], d=1, B=50.0,
                            step_tables=lambda x: table)
    model = LinearARModel(np.array([1.0]), fm, V=2, H=4)
    val = sigma_star_sq(model, fm, [(0, 1.0)])
    assert val < 1e-8


def test_sigma_star_fair_coin_closed_form():
    # H fair-coin steps with phi = +-B at a single coordinate: sigma*^2 = H B^2.
    B, H = 2.0, 5
    table = np.array([[-B], [B]])
    fm = CallableFeatureMap(lambda x, pre: table[pre[-1]], d=1, B=B,
                            step_tables=lambda x: table)
    piD = TabularModel({}, V=2, H=H)   # uniform everywhere
    val = sigma_star_sq(piD, fm, [(0, 1.0)])
    assert math.isclose(val, H * B * B, rel_tol=1e-12)


def test_sigma_star_bound_and_mc_agreement():
    rng = SeedTree(8).rng()
    B, V, H = 1.5, 3, 3
    table = B * rng.dirichlet(np.ones(2), size=V)  # rows with norm <= B
    fm = CallableFeatureMap(lambda x, pre: table[pre[-1]], d=2, B=B,
                            step_tables=lambda x: table)
    piD = random_tabular(rng, V, H)
    exact = sigma_star_sq(piD, fm, [(0, 1.0)])
    assert 0.0 <= exact <= 4 * B * B * H
    mu = FinitePromptDist([0], [1.0])
    est, se = sigma_star_sq(piD, fm, mu, mode="mc", n=4000, rng=rng)
    assert abs(est - exact) <= 4 * se + 1e-9
    with pytest.raises(ValueError):
        sigma_star_sq(piD, fm, mu, mode="mc", n=1, rng=rng)


def _prefix_dependent_tabular(V=2, H=6):
    rng = SeedTree(21).rng()
    piD = random_tabular(rng, V, H)
    assert piD.step_dist(0) is None
    fm = CallableFeatureMap(lambda x, pre: np.array([len(pre), pre[-1]]),
                            d=2, B=99.0)
    return piD, fm


@pytest.mark.parametrize("weights", [[(0, -1.0)], [(0, float("nan"))],
                                     [(0, 1.0), (1, float("inf"))]])
def test_sigma_star_exact_refuses_bad_weights_on_a_walked_prompt(weights):
    piD, fm = _prefix_dependent_tabular()
    with pytest.raises(ValueError, match="finite and >= 0"):
        sigma_star_sq(piD, fm, weights)


def test_sigma_star_exact_refuses_weights_without_a_positive_one():
    piD, fm = _prefix_dependent_tabular()
    for weights in ([], [(0, 0.0)]):
        with pytest.raises(ValueError, match="positive"):
            sigma_star_sq(piD, fm, weights)


def test_sigma_star_exact_refuses_negative_product_weights():
    from covkit.tasks import heterogeneous_kl_instance
    t = heterogeneous_kl_instance(n=4, H=3)
    with pytest.raises(ValueError, match="finite and >= 0"):
        sigma_star_sq(t.piD, t.featmap, [(0, -1.0), (1, -2.0)])
    # Zero weights are still skipped.
    assert sigma_star_sq(t.piD, t.featmap, [(0, 0.0), (1, 1.0)]) == \
        sigma_star_sq(t.piD, t.featmap, [(1, 1.0)])


@pytest.mark.parametrize("product", [True, False])
def test_linear_prefix_dists_equals_next_dist_rows(product):
    rng = SeedTree(22).rng()
    V, H, d = 3, 4, 2
    table = rng.normal(size=(V, d))
    if product:
        fm = CallableFeatureMap(lambda x, pre: table[pre[-1]], d=d, B=9.0,
                                step_tables=lambda x: table)
    else:
        fm = _random_featmap(rng, d, V, H)
    model = LinearARModel(project_unit_ball(rng.normal(size=d)), fm, V, H)
    for h in range(H):
        pre = rng.integers(0, V, (5, h))
        want = np.array([model.next_dist(0, tuple(p)) for p in pre.tolist()])
        got = model.prefix_dists(0, pre)
        assert got.shape == (5, V) and np.array_equal(got, want)
    assert model.prefix_dists(0, np.zeros((0, 2), np.int64)).shape == (0, V)
