"""The linear class's level paths compared with the per-prefix references
of `exact_oracle` on random instances, steep ones included (at scale 2000
many conditionals have entries that underflow to exactly 0):
`LinearARModel.prefix_dists`, `token_steps`, MC and exact `sigma_star_sq`,
and `linear_to_tabular`."""

import itertools

import numpy as np
import pytest

import exact_oracle
from conftest import random_tabular
from covkit.core import FinitePromptDist
from covkit.metrics import sigma_star_sq
from covkit.models import (CallableFeatureMap, LinearARModel,
                           linear_to_tabular, token_step, token_steps)
from covkit.seeding import SeedTree

PROMPTS = (0, 1)
CASES = list(itertools.product(["product", "prefix"], range(6)))


def featmap(rng, V, d, scale, product):
    """Per-prompt feature tables: a step table, or features of the last
    two tokens."""
    if product:
        tables = {x: rng.normal(size=(V, d)) * scale for x in PROMPTS}
        return CallableFeatureMap(lambda x, pre: tables[x][pre[-1]], d=d,
                                  B=10.0 * scale,
                                  step_tables=lambda x: tables[x])
    W = rng.normal(size=(len(PROMPTS), V + 1, V, d)) * scale

    def phi(x, pre):
        return W[x, pre[-2] if len(pre) > 1 else V, pre[-1]]
    return CallableFeatureMap(phi, d=d, B=10.0 * scale)


def instance(base, seed):
    rng = SeedTree(seed).child(f"linear-levels-{base}").rng()
    V, H, d = int(rng.integers(2, 5)), int(rng.integers(1, 6)), 3
    scale = 2000.0 if seed % 2 else 2.0
    fm = featmap(rng, V, d, scale, base == "product")
    theta = rng.normal(size=d)
    theta *= rng.uniform(0.5, 1.0) / np.linalg.norm(theta)
    return LinearARModel(theta, fm, V=V, H=H), rng


def levels(rng, V, H, k=30):
    """Per h < H: every prefix when there are at most k, else k random."""
    for h in range(H):
        if V ** h <= k:
            yield np.indices((V,) * h, dtype=np.int64).reshape(h, V ** h).T
        else:
            yield rng.integers(0, V, size=(k, h))


@pytest.mark.parametrize("seed", range(6))
def test_prefix_dists_is_the_per_row_softmax(seed):
    model, rng = instance("prefix", seed)
    zeros = 0
    for x in PROMPTS:
        assert model.step_dist(x) is None
        for pre in levels(rng, model.V, model.H):
            got = model.prefix_dists(x, pre)
            want = np.array([exact_oracle.next_row(model, x, tuple(p))
                             for p in pre.tolist()]).reshape(got.shape)
            assert np.array_equal(got, want)
            zeros += int((got == 0.0).sum())
    assert (zeros > 0) == bool(seed % 2)


@pytest.mark.parametrize("base,seed", CASES)
def test_token_steps_are_token_step_row_by_row(base, seed):
    model, rng = instance(base, seed)
    d = model.featmap.d
    for x, eta in itertools.product(PROMPTS, (0.3, 5.0)):
        for pre in levels(rng, model.V, model.H):
            k = len(pre)
            theta = rng.normal(size=(k, d))
            theta *= rng.uniform(0.5, 1.0, size=(k, 1)) / \
                np.linalg.norm(theta, axis=1, keepdims=True)
            tok = rng.integers(0, model.V, size=k)
            feats = model.featmap.candidates(x, pre, model.V)
            got = token_steps(theta, feats, tok, eta)
            want = [token_step(th, model.featmap, model.V, x, tuple(p), v,
                               eta)
                    for th, p, v in zip(theta, pre.tolist(), tok.tolist())]
            assert np.array_equal(got, np.array(want).reshape(k, d))


def policies(base, seed):
    """A LinearARModel, a random prefix-dependent table and its feature
    map."""
    model, rng = instance(base, seed)
    return [model, random_tabular(rng, model.V, model.H, prompts=PROMPTS)], \
        model.featmap


@pytest.mark.parametrize("base,seed", CASES)
def test_mc_sigma_star_sq_is_the_per_token_loop(base, seed):
    pols, fm = policies(base, seed)
    mu = FinitePromptDist(PROMPTS, [0.3, 0.7])
    for piD, n in itertools.product(pols, (2, 57)):
        a, b = SeedTree(seed).rng(), SeedTree(seed).rng()
        got = sigma_star_sq(piD, fm, mu, mode="mc", n=n, rng=a)
        assert got == exact_oracle.sigma_star_sq_mc(piD, fm, mu, n, b)
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("base,seed", CASES)
def test_exact_sigma_star_sq_matches_the_enumeration(base, seed):
    pols, fm = policies(base, seed)
    items = [(0, 0.4), (1, 0.6)]
    for piD in pols:
        got = sigma_star_sq(piD, fm, items)
        want = exact_oracle.sigma_star_sq(piD, fm, items)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("base,seed", CASES)
def test_linear_to_tabular_tables_are_the_dfs_tables(base, seed):
    model, _ = instance(base, seed)
    got = linear_to_tabular(model, PROMPTS).tables
    want = exact_oracle.linear_tables(model, PROMPTS)
    assert set(got) == set(want)
    for key, row in want.items():
        assert np.array_equal(got[key], row), key
