import json
import math

import numpy as np
import pytest

from conftest import random_tabular
from covkit.core import (Dataset, FinitePromptDist, Trajectory,
                         enumerate_responses, load_jsonl, sample_dataset,
                         save_jsonl)
from covkit.models import TabularModel
from covkit.seeding import SeedTree


def test_dataset_homogeneity():
    with pytest.raises(ValueError):
        Dataset([Trajectory(0, (0,)), Trajectory(0, (0, 1))], H=1, V=2)
    with pytest.raises(ValueError):
        Dataset([Trajectory(0, (5,))], H=1, V=2)


def test_deterministic_policy_sampling():
    pol = TabularModel({(0, ()): [0, 1], (0, (1,)): [0, 1]}, V=2, H=2)
    rng = SeedTree(0).rng()
    ds = sample_dataset(pol, lambda r: 0, 10, rng)
    assert (ds.Y == [1, 1]).all()


def test_fair_coin_frequency():
    pol = TabularModel({(0, ()): [0.5, 0.5]}, V=2, H=1)
    rng = SeedTree(1).rng()
    ds = sample_dataset(pol, lambda r: 0, 10_000, rng)
    frac = np.mean(ds.Y[:, 0])
    assert 0.48 <= frac <= 0.52


def test_all_zero_dataset_probability():
    # Bernoulli p*=0.02, n=25: P(all zeros) = 0.98^25 ~ 0.6035 over 5000 reps.
    pol = TabularModel({(0, ()): [0.98, 0.02]}, V=2, H=1)
    rng = SeedTree(2).rng()
    hits = 0
    for _ in range(5000):
        ds = sample_dataset(pol, lambda r: 0, 25, rng)
        hits += bool((ds.Y[:, 0] == 0).all())
    assert abs(hits / 5000 - 0.98 ** 25) < 0.02


def test_logprob_next_dist_consistency():
    rng = SeedTree(3).rng()
    pol = random_tabular(rng, V=3, H=3)
    for _ in range(20):
        y = tuple(rng.integers(0, 3, 3))
        lp = pol.logprob(Trajectory(0, y))
        prod = 1.0
        prefix = ()
        for v in y:
            prod *= pol.next_dist(0, prefix)[v]
            prefix += (v,)
        assert math.isclose(math.exp(lp), prod, rel_tol=1e-9)


def test_subnormal_conditional_has_finite_logprob():
    # log of the smallest positive double is -744.44: never -inf.
    tiny = 5e-324
    pol = TabularModel({(0, ()): [1.0 - tiny, tiny]}, V=2, H=1)
    lp = pol.logprob(Trajectory(0, (1,)))
    assert lp == math.log(tiny) and math.isfinite(lp)
    assert pol.logprob(Trajectory(0, (0,))) == 0.0


def test_sampler_law_matches_exact_probabilities():
    rng = SeedTree(4).rng()
    pol = random_tabular(rng, V=2, H=2)
    n = 10 ** 5
    ys = [pol.sample(0, rng) for _ in range(n)]
    from collections import Counter
    freq = Counter(ys)
    for y in enumerate_responses(2, 2):
        p = math.exp(pol.logprob(Trajectory(0, y)))
        emp = freq.get(y, 0) / n
        assert abs(emp - p) <= 4 * math.sqrt(p * (1 - p) / n) + 1e-12


def test_enumeration_budget():
    assert len(enumerate_responses(2, 3)) == 8
    with pytest.raises(ValueError, match="Monte Carlo"):
        enumerate_responses(10, 7)


def test_finite_prompt_dist_validation():
    with pytest.raises(ValueError):
        FinitePromptDist([0, 1], [0.7, 0.7])
    mu = FinitePromptDist([0, 1], [0.25, 0.75])
    assert mu.items()[1] == (1, 0.75)


def test_jsonl_round_trip(tmp_path):
    pol = TabularModel({(0, ()): [0.5, 0.5]}, V=2, H=1)
    rng = SeedTree(5).rng()
    ds = sample_dataset(pol, lambda r: 0, 20, rng, seed_info={"root": 5})
    p = tmp_path / "d.jsonl"
    h = tmp_path / "d.head.json"
    save_jsonl(ds, p, header_path=h)
    back = load_jsonl(p, H=1, V=2, header_path=h)
    assert back.Y.tolist() == ds.Y.tolist()
    assert back.seed_info == {"root": 5}
    rec = json.loads(p.read_text().splitlines()[0])
    assert set(rec) == {"x", "y"}
