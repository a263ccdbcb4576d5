"""Seeded Monte Carlo estimators and the tournaments' coverage matrix equal
the per-estimator loops of `mc_oracle`, bit for bit."""

import numpy as np
import pytest

import mc_oracle
from conftest import random_product, random_tabular, tabular_with_missing_mass
from covkit.core import FinitePromptDist, sample_dataset
from covkit.metrics import (coverage_mc, onpolicy_cov_estimate,
                            pairwise_cov_matrix, seq_ce, seq_kl, stopped_kl)
from covkit.seeding import SeedTree
from covkit.selection import (CandidateClass, offset_tournament,
                              simple_tournament)

V, H, PROMPTS = 3, 4, (0, 1, 2)


def pairs():
    """(name, piD, piHat): product, prefix-dependent and missing-mass."""
    rng = SeedTree(21).rng()
    prod = [random_product(rng, V, H, prompts=PROMPTS) for _ in range(2)]
    tab = [random_tabular(rng, V, H, prompts=PROMPTS) for _ in range(2)]
    miss = tabular_with_missing_mass(rng, V, H, prompts=PROMPTS)
    return [("product", *prod), ("prefix", *tab), ("missing", tab[0], miss),
            ("missing_piD", miss, tab[1])]


PAIRS = pairs()


# Repeated prompts: a FinitePromptDist and a plain callable, both drawing
# each prompt many times in n draws.
MUS = [FinitePromptDist(PROMPTS, [0.5, 0.3, 0.2]),
       lambda rng: int(rng.integers(len(PROMPTS)))]


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("mu", MUS, ids=["finite", "callable"])
@pytest.mark.parametrize("name,piD,piHat", PAIRS, ids=[p[0] for p in PAIRS])
def test_mc_estimators_equal_oracle(name, piD, piHat, mu):
    rng = lambda k: SeedTree(30 + k).rng()
    mc = dict(mode="mc", mu_sampler=mu)
    for k, (fn, ref) in enumerate(((seq_kl, mc_oracle.seq_kl),
                                   (seq_ce, mc_oracle.seq_ce))):
        for n in (1, 7, 400):
            got = fn(piD, piHat, None, n=n, rng=rng(k), **mc)
            assert same(got, ref(piD, piHat, mu, n, rng(k))), (fn, n)
    for N in (1.5, 8.0):
        got = stopped_kl(piD, piHat, None, N, n=300, rng=rng(2), **mc)
        assert same(got, mc_oracle.stopped_kl(piD, piHat, mu, N, 300,
                                              rng(2)))
    Ns = [1.0, 2.0, 8.0, 1e3]
    curve = coverage_mc(piD, piHat, mu, Ns, 500, rng(3), delta=0.1)
    values, hw = mc_oracle.coverage_mc(piD, piHat, mu, Ns, 500, rng(3),
                                       delta=0.1)
    assert same(curve.values, values) and same(curve.half_widths, hw)
    prompts = [0, 1, 1, 2, 0, 1]
    for piPrime, pi in ((piD, piHat), (piHat, piD)):
        got = onpolicy_cov_estimate(piPrime, pi, prompts, 2.0, mode="mc",
                                    m=40, rng=rng(4))
        assert same(got, mc_oracle.onpolicy_cov_mc(pi, piPrime, pi, prompts,
                                                   2.0, 40, rng(4)))


def test_tournament_matrix_equals_per_pair_coverage():
    cands = [c for _, *pair in PAIRS for c in pair][:5]
    ds = sample_dataset(cands[1], MUS[0], 300, SeedTree(40).rng())
    for N in (1.0, 2.0, 16.0):
        want = mc_oracle.pairwise_matrix(cands, ds, N)
        for i in range(len(cands)):
            for j in range(len(cands)):
                per_pair = 0.0 if i == j else \
                    pairwise_cov_matrix([cands[i], cands[j]], ds, N)[0, 1]
                assert per_pair == want[i, j]
        simple = simple_tournament(CandidateClass(cands), ds, N)
        assert same(simple.pairwise, want)
        offset = offset_tournament(CandidateClass(cands), ds, N, gamma=0.25,
                                   mode="mc", m=20, rng=SeedTree(41).rng())
        assert same(offset.pairwise, want)
        # Column j draws once per distinct prompt from candidate j, the
        # columns in order from one rng, and scores every candidate.
        rng = SeedTree(41).rng()
        for j in range(len(cands)):
            col = mc_oracle.onpolicy_column_mc(cands[j], cands, cands[j],
                                               ds.xs, N, 20, rng)
            col[j] = 0.0
            assert same(offset.offsets[:, j], col)
