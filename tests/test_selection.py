import math
import warnings

import numpy as np
import pytest

from covkit.core import Dataset, sample_dataset
from covkit.seeding import SeedTree
from covkit.selection import (CandidateClass, offset_tournament, select_ce,
                              simple_tournament)
from covkit.tasks import bernoulli_model, misspec_instance


def coin_dataset(p, n, seed):
    pol = bernoulli_model(p)
    return sample_dataset(pol, lambda r: 0, n, SeedTree(seed).rng())


def test_candidate_class_validation():
    with pytest.raises(ValueError):
        CandidateClass([])
    a = bernoulli_model(0.3)
    b = bernoulli_model(0.5)
    CandidateClass([a, b])
    from covkit.models import TabularModel
    c = TabularModel({}, V=3, H=1)
    with pytest.raises(ValueError):
        CandidateClass([a, c])


def test_singleton_selects_zero():
    cands = CandidateClass([bernoulli_model(0.3)])
    ds = coin_dataset(0.3, 20, 0)
    assert select_ce(cands, ds).selected == 0
    assert simple_tournament(cands, ds, 4.0).selected == 0
    assert offset_tournament(cands, ds, N=64.0, gamma=1.0).selected == 0


def test_select_ce_excludes_infinite_likelihood():
    cands = CandidateClass([bernoulli_model(0.0), bernoulli_model(0.3)])
    ds = Dataset([0, 0], [[1], [0]], H=1, V=2)
    rep = select_ce(cands, ds)
    assert rep.selected == 1
    assert rep.extra["loglik"][0] is None


def test_select_ce_tie_break_lowest_index():
    p = bernoulli_model(0.4)
    cands = CandidateClass([p, bernoulli_model(0.4)])
    ds = coin_dataset(0.4, 10, 1)
    assert select_ce(cands, ds).selected == 0


def test_simple_tournament_prefers_data_policy():
    # {piD, Ber(0)} with a dataset containing a 1: Ber(0) suffers coverage
    # failures against piD, piD suffers none -> picks piD.
    piD = bernoulli_model(0.3)
    cands = CandidateClass([bernoulli_model(0.0), piD])
    ds = Dataset([0, 0], [[1], [0]], H=1, V=2)
    rep = simple_tournament(cands, ds, 2.0)
    assert rep.selected == 1
    assert rep.pairwise[1, 0] > 0      # piD covers against Ber(0)
    assert rep.pairwise[0, 1] == 0.0


def test_empty_dataset_rejected():
    cands = CandidateClass([bernoulli_model(0.3)])
    empty = Dataset([], [], H=1, V=2)
    for fn in (lambda: select_ce(cands, empty),
               lambda: simple_tournament(cands, empty, 2.0),
               lambda: offset_tournament(cands, empty, 64.0, 1.0)):
        with pytest.raises(ValueError):
            fn()


def test_offset_gamma_zero_matches_simple():
    rng = SeedTree(2).rng()
    cands = CandidateClass([bernoulli_model(0.2), bernoulli_model(0.5),
                            bernoulli_model(0.8)])
    ds = coin_dataset(0.5, 50, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert offset_tournament(cands, ds, N=4.0, gamma=0.0).selected == \
            simple_tournament(cands, ds, N=4.0).selected


def test_offset_precondition_warning():
    cands = CandidateClass([bernoulli_model(0.2), bernoulli_model(0.5)])
    ds = coin_dataset(0.5, 20, 4)
    with pytest.warns(UserWarning, match="8 gamma"):
        offset_tournament(cands, ds, N=2.0, gamma=10.0)


def test_offset_power_wrapper():
    cands = CandidateClass([bernoulli_model(0.2), bernoulli_model(0.5)])
    ds = coin_dataset(0.5, 30, 5)
    N = 64.0
    # gamma = N^0.25: 8 gamma^2 = 8 N^0.5 rounds to just above N = 64.
    assert 8.0 * (N ** 0.25) ** 2 > N
    with pytest.warns(UserWarning, match="8 gamma"):
        rep = offset_tournament(cands, ds, N, gamma=N ** 0.25)
    worst = (rep.pairwise - 2.0 * N ** 0.25 * rep.offsets).max(axis=0)
    assert rep.selected == int(np.argmin(worst))


def test_permutation_covariance():
    rng = SeedTree(6).rng()
    cands = [bernoulli_model(0.1), bernoulli_model(0.5), bernoulli_model(0.9)]
    ds = coin_dataset(0.5, 100, 7)
    base = simple_tournament(CandidateClass(cands), ds, 4.0).selected
    perm = [2, 0, 1]
    permuted = [cands[i] for i in perm]
    got = simple_tournament(CandidateClass(permuted), ds, 4.0).selected
    assert permuted[got] is cands[base]


def test_misspec_directional_single_trial():
    # On a typical trial the tournament picks the sup-ratio-bounded candidate
    # (index 0) while CE can pick the rare-prompt-starving one (index 1).
    task, cands = misspec_instance(alpha=1.0, M=math.e ** 3)
    rng = SeedTree(8).rng()
    ds = sample_dataset(task.piD, task.mu, 400, rng)
    assert simple_tournament(cands, ds, N=16.0).selected == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert offset_tournament(cands, ds, N=8 * math.e ** 2 + 1,
                                 gamma=math.e).selected == 0


def test_report_json():
    cands = CandidateClass([bernoulli_model(0.3), bernoulli_model(0.6)])
    ds = coin_dataset(0.3, 20, 9)
    rep = simple_tournament(cands, ds, 2.0)
    import json
    d = json.loads(rep.to_json())
    assert d["selected"] in (0, 1)
    assert len(d["pairwise"]) == 2
