"""The exact engine against the brute-force oracle, and its work budget."""

import math
import time

import numpy as np
import pytest

import exact_oracle
from conftest import all_prefixes
from covkit.metrics import (PairLaw, coverage_exact, coverage_sup_log,
                            hellinger_sq, onpolicy_cov_estimate, seq_ce,
                            seq_kl, stepwise_hellinger_tail, stopped_kl)
from covkit.models import CallableFeatureMap, TabularModel, sigma_star_sq
from covkit.seeding import SeedTree

NS = [2.0, 8.0, 64.0]
PROMPTS = (0, 1)


def close(a, b, tol=1e-12):
    """Equal within tol, relative above magnitude 1; infinities must match."""
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def _model(rng, V, H, product, missing):
    """A1-style random policy; `missing` zeroes a token in some rows."""
    tables = {}
    for x in PROMPTS:
        base = rng.dirichlet(np.ones(V))
        if product and missing:
            base[rng.integers(V)] = 0.0
            base /= base.sum()
        for prefix in all_prefixes(V, H):
            row = base.copy() if product else rng.dirichlet(np.ones(V))
            if not product and missing and rng.random() < 0.15:
                row[rng.integers(V)] = 0.0
                row /= row.sum()
            tables[(x, prefix)] = row
    return TabularModel(tables, V=V, H=H)


def _instances(kind, missing, n=12):
    tree = SeedTree(202).child(kind, int(missing))
    for k in range(n):
        rng = tree.child("inst", k).rng()
        V, H = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        piD = _model(rng, V, H, product=kind == "product", missing=False)
        piHat = _model(rng, V, H, product=kind == "product", missing=missing)
        w = float(rng.uniform(0.2, 0.8))
        yield rng, piD, piHat, [(0, w), (1, 1.0 - w)]


@pytest.mark.parametrize("missing", [False, True])
@pytest.mark.parametrize("kind", ["product", "tree"])
def test_exact_functionals_match_brute_force(kind, missing):
    for _, piD, piHat, mu in _instances(kind, missing):
        # At H = 1 every policy is a product.
        is_product = kind == "product" or piD.H == 1
        assert (piHat.step_dist(0) is not None) == is_product
        # Identical policies can have step Hellinger -1e-16 by rounding: the
        # tail at threshold 0 still counts every path (early stop at h = 0).
        for stop_N, tail_N, tail_delta, piHat in [
                (4.0, 1.0, 0.8, piHat), (16.0, 2.0, 0.5, piHat),
                (2.0, 1.0, 1.0, piHat), (2.0, 1.0, 1.0, piD)]:
            want = exact_oracle.exact_functionals(piD, piHat, mu, NS, stop_N,
                                                  tail_N, tail_delta)
            got = {
                "seq_kl": seq_kl(piD, piHat, mu),
                "seq_ce": seq_ce(piD, piHat, mu),
                "hellinger_sq": hellinger_sq(piD, piHat, mu),
                "stopped_kl": stopped_kl(piD, piHat, mu, stop_N),
                "stepwise_hellinger_tail": stepwise_hellinger_tail(
                    piD, piHat, mu, tail_N, tail_delta),
                "coverage_exact": coverage_exact(piD, piHat, mu, NS).values,
                "coverage_sup_log": coverage_sup_log(piD, piHat, mu),
            }
            for key, w in want.items():
                for a, b in zip(np.ravel(got[key]), np.ravel(w)):
                    assert close(a, b), (key, got[key], w)


@pytest.mark.parametrize("kind", ["product", "tree"])
def test_onpolicy_and_sigma_match_brute_force(kind):
    prompts = [0, 1, 1, 0, 0]   # duplicates are walked once, by count
    for rng, piD, piHat, mu in _instances(kind, missing=True, n=8):
        piP = _model(rng, piD.V, piD.H, product=kind == "product",
                     missing=False)
        for a, b in [(piP, piHat), (piHat, piD), (piD, piHat), (piP, piD)]:
            got = onpolicy_cov_estimate(a, b, prompts, 4.0)
            want = exact_oracle.onpolicy_cov(b, a, b, prompts, 4.0)
            assert close(got, want)
        table = rng.normal(size=(piD.V, 2))
        # Prefix-free features take the closed form on product policies;
        # depth-dependent ones always walk the tree.
        fms = [CallableFeatureMap(lambda x, pre: table[pre[-1]], d=2, B=9.0,
                                  step_tables=lambda x: table),
               CallableFeatureMap(lambda x, pre: table[pre[-1]] * len(pre),
                                  d=2, B=99.0)]
        for fm in fms:
            assert close(sigma_star_sq(piD, fm, mu),
                         exact_oracle.sigma_star_sq(piD, fm, mu))


def test_identical_wide_product_is_one_atom():
    # V^H = 4.1e9 leaves, but identical steps have one log-ratio group.
    pol = TabularModel({}, V=40, H=6)
    t0 = time.perf_counter()
    curve = coverage_exact(pol, pol, [(0, 1.0)], NS)
    ratios, probs = PairLaw(pol, pol, [(0, 1.0)]).atoms()
    assert time.perf_counter() - t0 < 1.0
    assert np.array_equal(curve.values, np.zeros(3))
    assert ratios.tolist() == [0.0] and math.isclose(probs[0], 1.0)


def test_exact_work_over_budget_raises():
    rng = SeedTree(203).rng()
    pD, pH = rng.dirichlet(np.ones(40)), rng.dirichlet(np.ones(40))
    piD = TabularModel({}, V=40, H=6, default=pD)
    piHat = TabularModel({}, V=40, H=6, default=pH)
    # 40 distinct step log-ratios: comb(45, 39) = 8.1e6 atoms.
    with pytest.raises(ValueError, match="Monte Carlo"):
        coverage_exact(piD, piHat, [(0, 1.0)], NS)
    # The closed forms need no enumeration.
    kl = float(pD @ np.log(pD / pH))
    assert math.isclose(seq_kl(piD, piHat, [(0, 1.0)]), 6 * kl, rel_tol=1e-12)
    # One stored row makes the policy prefix-dependent: a 4.1e9-leaf walk.
    tree = TabularModel({(0, ()): pH}, V=40, H=6)
    with pytest.raises(ValueError, match="Monte Carlo"):
        hellinger_sq(piD, tree, [(0, 1.0)])
    with pytest.raises(ValueError, match="Monte Carlo"):
        onpolicy_cov_estimate(piD, tree, [0], 4.0)
