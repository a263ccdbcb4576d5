"""On-policy coverage by columns: `metrics.onpolicy_cov` and the offset
tournament built on it.  Exact columns equal the per-entry two-policy
walks bit for bit, each candidate is walked once, over the distinct
prompts, and asked once per level and prompt of a column, and a bad m, a
non-finite gamma or responses of the wrong horizon are refused before any
work."""

import collections
import math

import numpy as np
import pytest

import exact_oracle
import mc_oracle
from conftest import random_product, random_tabular, tabular_with_missing_mass
from covkit import metrics, selection
from covkit.core import Dataset, FinitePromptDist, logprob_matrix, \
    sample_dataset
from covkit.decoding import AdversarialReward
from covkit.metrics import covers, onpolicy_cov, onpolicy_cov_estimate
from covkit.seeding import SeedTree
from covkit.selection import (CandidateClass, offset_tournament, select_ce,
                              simple_tournament)

V, H, PROMPTS = 3, 4, (0, 1, 2)
MU = FinitePromptDist(PROMPTS, [0.5, 0.3, 0.2])


def candidates(seed):
    """Product, prefix-dependent and missing-mass candidates."""
    rng = SeedTree(seed).rng()
    return [random_product(rng, V, H, prompts=PROMPTS),
            random_tabular(rng, V, H, prompts=PROMPTS),
            tabular_with_missing_mass(rng, V, H, prompts=PROMPTS),
            random_product(rng, V, H, prompts=PROMPTS),
            tabular_with_missing_mass(rng, V, H, prompts=PROMPTS)]


def per_entry(piBar, piPrime, pi, prompts, N):
    """One (piPrime, pi) entry from its own two-policy walk per distinct
    prompt, as the offset tournament once made for each of its K (K - 1)
    entries."""
    total = 0.0
    for x, c in collections.Counter(prompts).items():
        (lpBar, (lpP, lpQ), _, _), = metrics.tree_walk(piBar, [x],
                                                       [piPrime, pi])
        hit = covers(lpP, lpQ, math.log(N))
        total += c * float(np.exp(lpBar)[hit].sum())
    return total / len(prompts)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_offsets_equal_per_entry_walks(seed):
    cands = candidates(700 + seed)
    ds = sample_dataset(cands[1], MU, 30, SeedTree(710 + seed).rng())
    assert len(set(ds.xs)) < len(ds)            # repeated prompts
    for N in (1.0, 2.0, 8.0):
        rep = offset_tournament(CandidateClass(cands), ds, N, gamma=0.1,
                                mode="exact")
        for j, c in enumerate(cands):
            for i, q in enumerate(cands):
                want = 0.0 if i == j else per_entry(c, q, c, ds.xs, N)
                assert rep.offsets[i, j] == want, (i, j, N)
        worst = (rep.pairwise - 0.2 * rep.offsets).max(axis=0)
        assert rep.selected == int(np.argmin(worst))


def test_offset_tournament_walks_each_candidate_once_per_prompt(monkeypatch):
    cands = candidates(720)
    ds = Dataset([0, 2, 0, 0, 2], [[0, 1, 2, 0]] * 5, H=H, V=V)
    walks = []
    walk = metrics.tree_walk

    def counted(piD, xs, policies=(), **kw):
        walks.append((id(piD), tuple(xs), len(policies)))
        return walk(piD, xs, policies, **kw)

    monkeypatch.setattr(metrics, "tree_walk", counted)
    offset_tournament(CandidateClass(cands), ds, 2.0, gamma=0.1,
                      mode="exact")
    K = len(cands)
    assert len(walks) == K              # one walk of each candidate ...
    assert collections.Counter(w[:2] for w in walks) == {
        (id(c), (0, 2)): 1 for c in cands}     # ... over each distinct prompt
    assert {w[2] for w in walks} == {K - 1}


class Counted:
    """Wraps a policy's conditionals and log-probs to count who asks what."""

    def __init__(self, pol, log):
        self.pol, self.log = pol, log
        self.V, self.H = pol.V, pol.H

    def step_dist(self, x):
        return self.pol.step_dist(x)

    def prefix_dists(self, x, prefixes):
        self.log.append(("prefix_dists", id(self), x, prefixes.shape[1]))
        return self.pol.prefix_dists(x, prefixes)

    def sample_many(self, x, n, rng):
        self.log.append(("sample_many", id(self), x))
        return self.pol.sample_many(x, n, rng)

    def _logprob_rows(self, x, Y, levels):
        self.log.append(("score", id(self), x))
        return self.pol._logprob_rows(x, Y, levels)


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_a_column_asks_each_candidate_once(monkeypatch, mode):
    # K = 3 prefix-dependent candidates, two distinct prompts.
    rng = SeedTree(725).rng()
    pols = [random_tabular(rng, V, H, prompts=PROMPTS) for _ in range(3)]
    ds = Dataset([0, 2, 0], [[0, 1, 2, 0]] * 3, H=H, V=V)
    want = offset_tournament(CandidateClass(pols), ds, 2.0, gamma=0.1,
                             mode=mode, m=5, rng=SeedTree(726).rng())
    log, columns = [], []
    cands = [Counted(p, log) for p in pols]
    column = metrics.onpolicy_cov

    def counted(policies, pi, *args):
        log.clear()
        out = column(policies, pi, *args)
        columns.append((pi, list(log)))
        return out

    monkeypatch.setattr(selection, "onpolicy_cov", counted)
    got = offset_tournament(CandidateClass(cands), ds, 2.0, gamma=0.1,
                            mode=mode, m=5, rng=SeedTree(726).rng())
    assert np.array_equal(got.offsets, want.offsets)
    assert got.selected == want.selected
    K = len(cands)
    assert [pi for pi, _ in columns] == cands
    for pi, calls in columns:
        if mode == "exact":
            # One prefix_dists call per candidate, level and prompt.
            assert collections.Counter(calls) == {
                ("prefix_dists", id(c), x, h): 1
                for c in cands for x in (0, 2) for h in range(H)}
            assert len(calls) == K * 2 * H
        else:
            # One draw from pi and one score by each candidate per prompt.
            assert collections.Counter(calls) == {
                **{("score", id(c), x): 1 for c in cands for x in (0, 2)},
                **{("sample_many", id(pi), x): 1 for x in (0, 2)}}


@pytest.mark.parametrize("N", [1.0, 2.0, 16.0])
def test_columns_equal_their_entries(N):
    cands = candidates(730)
    prompts = [0, 1, 1, 2, 0, 1]
    pi = cands[2]
    exact = onpolicy_cov(cands, pi, prompts, N)
    for k, q in enumerate(cands):
        assert exact[k] == onpolicy_cov_estimate(q, pi, prompts, N)
        assert exact[k] == per_entry(pi, q, pi, prompts, N)
        assert math.isclose(exact[k], exact_oracle.onpolicy_cov(
            pi, q, pi, prompts, N), rel_tol=1e-9, abs_tol=1e-12)
    mc = onpolicy_cov(cands, pi, prompts, N, mode="mc", m=30,
                      rng=SeedTree(731).rng())
    want = mc_oracle.onpolicy_column_mc(pi, cands, pi, prompts, N, 30,
                                        SeedTree(731).rng())
    assert np.array_equal(mc, want)


@pytest.mark.parametrize("m", [2.5, True, 0, -1, None, "3", np.float64(4)])
def test_mc_refuses_m_that_is_no_integer_before_drawing(m):
    q, pi = candidates(740)[1:3]
    rng = SeedTree(741).rng()
    state = rng.bit_generator.state
    for call in (onpolicy_cov_estimate, onpolicy_cov):
        with pytest.raises(ValueError, match="m must be >= 1 and an integer"):
            call(q if call is onpolicy_cov_estimate else [q], pi,
                 [0, 1], 2.0, mode="mc", m=m, rng=rng)
        assert rng.bit_generator.state == state
    assert onpolicy_cov([q], pi, [0], 2.0, mode="mc",
                        m=np.int64(3), rng=rng).shape == (1,)


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_offset_tournament_refuses_non_finite_gamma(gamma):
    cands = CandidateClass(candidates(750)[:2])
    ds = sample_dataset(cands.candidates[0], MU, 10, SeedTree(751).rng())
    with pytest.raises(ValueError, match="gamma must be >= 0 and finite"):
        offset_tournament(cands, ds, 4.0, gamma=gamma)


@pytest.mark.parametrize("width", [3, 6])
def test_responses_of_the_wrong_horizon_are_refused(width):
    pol = candidates(760)[1]                    # H = 4
    Y = np.zeros((2, width), dtype=np.int64)
    for call in (lambda: pol.logprob_many(0, Y),
                 lambda: pol.logprob_many(0, Y[0]),
                 lambda: AdversarialReward(pol, pol, 2.0).many(0, Y)):
        with pytest.raises(ValueError, match=r"\(n, 4\) array"):
            call()
    cands = CandidateClass(candidates(760)[:3])
    ds = Dataset([0, 1], Y, H=width, V=V)
    for call in (lambda: logprob_matrix(cands.candidates, ds),
                 lambda: select_ce(cands, ds),
                 lambda: simple_tournament(cands, ds, 2.0),
                 lambda: offset_tournament(cands, ds, 64.0, 1.0)):
        with pytest.raises(ValueError, match=r"\(n, 4\) array"):
            call()
