"""TTT decoding through the `Policy` level paths, compared with the per-row
replays of `ttt_oracle` and the per-draw loops of `dataset_oracle` on
random instances; and the contract that no policy overrides the derived
scoring and sampling methods."""

import importlib
import inspect
import itertools
import pkgutil

import numpy as np
import pytest

import covkit
import dataset_oracle
import ttt_oracle
from covkit.core import Policy, Trajectory
from covkit.decoding import TTTPolicy
from covkit.models import CallableFeatureMap, LinearARModel
from covkit.seeding import SeedTree

PROMPTS = (0, 1)


def base_model(rng, V, H, product, scale):
    """A LinearARModel over per-prompt feature tables: a product policy
    with step tables, or features of the last two tokens.  At scale 2000
    many conditionals have entries that underflow to exactly 0."""
    d = 3
    theta = rng.normal(size=d)
    theta *= rng.uniform(0.5, 1.0) / np.linalg.norm(theta)
    if product:
        tables = {x: rng.normal(size=(V, d)) * scale for x in PROMPTS}
        fm = CallableFeatureMap(lambda x, pre: tables[x][pre[-1]], d=d,
                                B=10.0 * scale,
                                step_tables=lambda x: tables[x])
    else:
        W = rng.normal(size=(len(PROMPTS), V + 1, V, d)) * scale

        def phi(x, pre):
            return W[x, pre[-2] if len(pre) > 1 else V, pre[-1]]
        fm = CallableFeatureMap(phi, d=d, B=10.0 * scale)
    return LinearARModel(theta, fm, V=V, H=H)


BASES = ["product", "prefix"]
ETAS = [0.0, 0.2, 0.7]
CASES = list(itertools.product(BASES, ETAS, range(4)))


def instance(base, eta, seed):
    rng = SeedTree(seed).child(base, eta).rng()
    V, H = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    scale = 2000.0 if seed % 2 else 2.0
    pol = TTTPolicy(base_model(rng, V, H, base == "product", scale), eta)
    assert pol.step_dist(0) is None
    return pol, rng


def same_rng_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("base,eta,seed", CASES)
def test_logprob_many_matches_per_row_replay(base, eta, seed):
    pol, rng = instance(base, eta, seed)
    for x in PROMPTS:
        Y = np.vstack([rng.integers(0, pol.V, size=(40, pol.H)),
                       pol.sample_many(x, 10, rng)])
        got = pol.logprob_many(x, Y)
        want = np.array([ttt_oracle.logprob(pol, x, y) for y in Y.tolist()])
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        fin = np.isfinite(want)
        assert np.isfinite(got[fin]).all()
        assert np.allclose(got[fin], want[fin], rtol=0.0, atol=1e-12)
        assert np.isfinite(want[40:]).all()
        for y, w in zip(Y[:5].tolist(), want):
            assert pol.logprob(Trajectory(x, y)) == pytest.approx(
                w, rel=0.0, abs=1e-12)


def test_some_replays_score_neg_inf():
    # The steep instances reach the oracle's zero-mass branch.
    hits = 0
    for base, eta, seed in CASES:
        if seed % 2:
            pol, rng = instance(base, eta, seed)
            Y = rng.integers(0, pol.V, size=(40, pol.H))
            hits += np.isneginf(pol.logprob_many(0, Y)).sum()
    assert hits > 0


@pytest.mark.parametrize("base,eta,seed", CASES)
def test_sample_is_the_per_token_replay(base, eta, seed):
    pol, _ = instance(base, eta, seed)
    for x in PROMPTS:
        a, b = SeedTree(seed).rng(), SeedTree(seed).rng()
        assert [pol.sample(x, a) for _ in range(25)] == \
            [ttt_oracle.sample(pol, x, b) for _ in range(25)]
        assert same_rng_state(a, b)


@pytest.mark.parametrize("base,eta,seed", CASES)
def test_sample_many_is_the_level_loop(base, eta, seed):
    pol, _ = instance(base, eta, seed)
    for x in PROMPTS:
        a, b = SeedTree(seed).rng(), SeedTree(seed).rng()
        for n in (0, 1, 7, 200):
            assert np.array_equal(pol.sample_many(x, n, a),
                                  dataset_oracle.sample_many(pol, x, n, b))
        assert same_rng_state(a, b)


DERIVED = ["logprob", "logprob_many", "_logprob_rows", "sample",
           "sample_many"]


def policy_classes():
    """Every Policy subclass defined in a covkit module."""
    found = set()
    for info in pkgutil.iter_modules(covkit.__path__):
        module = importlib.import_module(f"covkit.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Policy) and cls is not Policy:
                found.add(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__name__))


def test_no_policy_overrides_derived_scoring_or_sampling():
    classes = policy_classes()
    names = {c.__name__ for c in classes}
    assert {"TTTPolicy", "LinearARModel", "TabularModel",
            "GraphPathPolicy"} <= names
    for cls in classes:
        for klass in cls.__mro__[:cls.__mro__.index(Policy)]:
            overridden = set(DERIVED) & set(vars(klass))
            assert not overridden, (cls, klass, overridden)


def test_policies_over_a_feature_map_answer_a_level_in_one_call():
    # A policy built on a feature map (or on a model that has one) answers
    # a level itself, never through the per-prefix next_dist loop.
    over_features = {cls for cls in policy_classes()
                     if {"featmap", "base"} &
                     set(inspect.signature(cls.__init__).parameters)}
    assert {LinearARModel, TTTPolicy} <= over_features
    for cls in over_features:
        assert "prefix_dists" in vars(cls), cls
