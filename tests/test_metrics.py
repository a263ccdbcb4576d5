import math

import numpy as np
import pytest

from conftest import random_product, random_tabular
from covkit.core import FinitePromptDist, Trajectory
from covkit.metrics import (CoverageCurve, PairLaw, coverage_exact,
                            coverage_mc, coverage_sup_log, hellinger_sq,
                            hoeffding_half_width, kl_to_cov_bound,
                            onpolicy_cov_estimate, pairwise_cov_matrix,
                            seq_ce, seq_kl, step_kl, stepwise_hellinger_tail,
                            stopped_kl)
from covkit.models import TabularModel
from covkit.seeding import SeedTree
from covkit.tasks import bernoulli_model

ONE = [(0, 1.0)]


def ber(p, H=1):
    tables = {}
    prefixes = [()]
    for _ in range(H - 1):
        prefixes += [pre + (v,) for pre in list(prefixes) for v in (0, 1)]
    for pre in prefixes:
        tables[(0, pre)] = [1 - p, p]
    return TabularModel(tables, V=2, H=H)


def kl_ber(p, q):
    out = 0.0
    for a, b in ((p, q), (1 - p, 1 - q)):
        if a > 0:
            out += math.inf if b <= 0 else a * math.log(a / b)
    return out


# ---------------------------------------------------------------- coverage

def test_coverage_identical_zero():
    piD = ber(0.3)
    curve = coverage_exact(piD, piD, ONE, [2.0])
    assert curve.values[0] == 0.0


def test_coverage_markov_witness():
    # piD=Ber(p), piHat=Ber(p/N): ratio at y=1 is exactly N (covered under
    # the closed event), at y=0 below N -> Pcov_N = p.
    for p, N in [(0.1, 4.0), (0.25, 8.0), (0.5, 2.0)]:
        curve = coverage_exact(ber(p), ber(p / N), ONE, [N])
        assert math.isclose(curve.values[0], p, abs_tol=1e-12)


def test_coverage_missing_mass():
    # piHat = Ber(0): Pcov_N = p* for every N.
    curve = coverage_exact(ber(0.02), ber(0.0), ONE, [2.0, 100.0, 2.0 ** 16])
    assert np.allclose(curve.values, 0.02)


def test_coverage_monotone_and_range():
    rng = SeedTree(0).rng()
    piD = random_tabular(rng, 3, 3)
    piHat = random_tabular(rng, 3, 3)
    curve = coverage_exact(piD, piHat, ONE, 2.0 ** np.arange(1, 17))
    assert np.all(np.diff(curve.values) <= 1e-15)
    assert np.all((curve.values >= 0) & (curve.values <= 1))


def test_coverage_curve_validation():
    with pytest.raises(ValueError):
        CoverageCurve([0.5], [0.1], [0.0])
    with pytest.raises(ValueError):
        CoverageCurve([4.0, 2.0], [0.1, 0.1], [0.0, 0.0])


def test_product_fast_path_matches_enumeration():
    rng = SeedTree(1).rng()
    piD = random_product(rng, 3, 4)
    piHat = random_product(rng, 3, 4)
    # Break the fast path by wrapping piHat with hidden step structure.
    slowHat = TabularModel(dict(piHat.tables), V=3, H=4)
    slowHat.step_dist = lambda x: None
    grid = [2.0, 4.0, 16.0]
    fast = coverage_exact(piD, piHat, ONE, grid)
    slow = coverage_exact(piD, slowHat, ONE, grid)
    assert np.allclose(fast.values, slow.values, atol=1e-10)


def test_coverage_mc_against_exact():
    rng = SeedTree(2).rng()
    piD, piHat = ber(0.1), ber(0.025)
    mu = FinitePromptDist([0], [1.0])
    curve = coverage_mc(piD, piHat, mu, [4.0], 10 ** 5, rng)
    assert abs(curve.values[0] - 0.1) < 0.012
    assert math.isclose(curve.half_widths[0],
                        hoeffding_half_width(10 ** 5), rel_tol=1e-12)


def test_coverage_mc_monotone_shared_samples():
    rng = SeedTree(3).rng()
    piD = random_tabular(rng, 3, 2)
    piHat = random_tabular(rng, 3, 2)
    mu = FinitePromptDist([0], [1.0])
    curve = coverage_mc(piD, piHat, mu, 2.0 ** np.arange(1, 9), 500, rng)
    assert np.all(np.diff(curve.values) <= 0)


def test_coverage_mc_wilson_interval():
    rng = SeedTree(4).rng()
    mu = FinitePromptDist([0], [1.0])
    curve = coverage_mc(ber(0.1), ber(0.025), mu, [4.0], 1000, rng,
                        interval="wilson")
    assert 0.0 < curve.half_widths[0] < hoeffding_half_width(1000)
    with pytest.raises(ValueError):
        coverage_mc(ber(0.1), ber(0.025), mu, [4.0], 1, rng)


def test_coverage_csv_header():
    curve = coverage_exact(ber(0.1), ber(0.025), ONE, [4.0])
    assert curve.to_csv().splitlines()[0] == "N,log2N,pcov,half_width,n_samples"


# ---------------------------------------------------------------- divergences

def test_kl_closed_form():
    assert math.isclose(seq_kl(ber(0.5), ber(0.25), ONE),
                        0.5 * math.log(2) + 0.5 * math.log(2 / 3),
                        rel_tol=1e-12)
    assert seq_kl(ber(0.3), ber(0.3), ONE) == 0.0
    assert seq_kl(ber(0.02), ber(0.0), ONE) == math.inf


def test_kl_mc_mode():
    rng = SeedTree(5).rng()
    mu = FinitePromptDist([0], [1.0])
    est = seq_kl(ber(0.5), ber(0.25), None, mode="mc", n=20000, rng=rng,
                 mu_sampler=mu)
    assert abs(est - 0.14384) < 0.02


def test_ce_equals_kl_plus_entropy():
    rng = SeedTree(6).rng()
    piD = random_tabular(rng, 2, 3)
    piHat = random_tabular(rng, 2, 3)
    ce = seq_ce(piD, piHat, ONE)
    kl = seq_kl(piD, piHat, ONE)
    # brute-force cross-entropy
    brute = 0.0
    from covkit.core import enumerate_responses
    for y in enumerate_responses(2, 3):
        t = Trajectory(0, y)
        brute += -math.exp(piD.logprob(t)) * piHat.logprob(t)
    assert math.isclose(ce, brute, rel_tol=1e-9)
    assert ce >= kl - 1e-12


def test_hellinger_values():
    assert hellinger_sq(ber(0.3), ber(0.3), ONE) == 0.0
    assert math.isclose(hellinger_sq(ber(1.0), ber(0.0), ONE), 1.0)
    expect = 0.5 * ((math.sqrt(0.5) - math.sqrt(0.25)) ** 2 +
                    (math.sqrt(0.5) - math.sqrt(0.75)) ** 2)
    assert math.isclose(hellinger_sq(ber(0.5), ber(0.25), ONE), expect,
                        rel_tol=1e-12)


def test_hellinger_brute_force_sequence():
    rng = SeedTree(7).rng()
    piD = random_tabular(rng, 2, 3)
    piHat = random_tabular(rng, 2, 3)
    from covkit.core import enumerate_responses
    brute = 0.0
    for y in enumerate_responses(2, 3):
        t = Trajectory(0, y)
        a = math.exp(piD.logprob(t))
        b = math.exp(piHat.logprob(t))
        brute += 0.5 * (math.sqrt(a) - math.sqrt(b)) ** 2
    assert math.isclose(hellinger_sq(piD, piHat, ONE), brute, rel_tol=1e-9)


# ---------------------------------------------------------------- stopped KL

def test_stopped_kl_cases():
    piD, piHat = ber(0.5, H=10), ber(0.25, H=10)
    # N huge: clip never binds -> equals seq_kl.
    big = math.exp(200.0)
    assert math.isclose(stopped_kl(piD, piHat, ONE, big),
                        seq_kl(piD, piHat, ONE), rel_tol=1e-9)
    assert stopped_kl(piD, piD, ONE, 8.0) == 0.0
    with pytest.raises(ValueError):
        stopped_kl(piD, piHat, ONE, 1.0)


def test_stopped_kl_prefix_independent_clip():
    # H=10 i.i.d. steps with per-step KL kappa=0.5, N=e^3 -> min(3, 5) = 3.
    kappa = 0.5
    # pick q for Ber(0.5)||Ber(q) with KL = 0.5: solve numerically
    lo, hi = 1e-9, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kl_ber(0.5, mid) > kappa:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    piD, piHat = ber(0.5, H=10), ber(q, H=10)
    val = stopped_kl(piD, piHat, ONE, math.exp(3.0))
    assert math.isclose(val, 3.0, rel_tol=1e-6)


def test_step_kl_zero_mass():
    assert step_kl([0.5, 0.5], [1.0, 0.0]) == math.inf
    assert step_kl([1.0, 0.0], [0.5, 0.5]) == math.log(2)


# ---------------------------------------------------------------- conversions

def test_kl_to_cov_bound_values():
    assert kl_to_cov_bound(0.0, 4.0) == 0.0
    val = kl_to_cov_bound(1.0, math.e ** 2)
    assert math.isclose(val, 1.0 / (1.0 + math.e ** -2), rel_tol=1e-12)
    with pytest.raises(ValueError):
        kl_to_cov_bound(1.0, 2.0)


def test_kl_to_cov_bound_on_random_bernoulli_pairs():
    rng = SeedTree(8).rng()
    for _ in range(1000):
        p, q = rng.uniform(0.01, 0.99, 2)
        kl = kl_ber(p, q)
        for N in (3.0, 4.0, 16.0, 64.0):
            cov = coverage_exact(ber(p), ber(q), ONE, [N]).values[0]
            assert cov <= kl_to_cov_bound(kl, N) + 1e-12
            if N > math.e:
                # main-text variant with denominator log(N/e)
                assert cov <= kl / math.log(N / math.e) + 1e-12


def test_empirical_pairwise_cov():
    piD = ber(0.5)
    from covkit.core import Dataset
    ds = Dataset([0] * 4, [[1], [0], [0], [0]], H=1, V=2)
    # ratio Ber(0.5)/Ber(0.05) at y=1 is 10 >= 4 -> exactly one of four points
    assert pairwise_cov_matrix([piD, ber(0.05)], ds, 4.0)[0, 1] == 0.25
    assert pairwise_cov_matrix([piD, piD], ds, 2.0)[0, 1] == 0.0


def test_empirical_pairwise_cov_consistency():
    rng = SeedTree(9).rng()
    piD, piHat = ber(0.1), ber(0.025)
    from covkit.core import sample_dataset
    ds = sample_dataset(piD, lambda r: 0, 10 ** 5, rng)
    est = pairwise_cov_matrix([piD, piHat], ds, 4.0)[0, 1]
    assert abs(est - 0.1) <= hoeffding_half_width(10 ** 5) + 1e-12


def test_onpolicy_cov_estimate():
    piD, piHat = ber(0.5), ber(0.05)
    assert onpolicy_cov_estimate(piD, piD, [0], 2.0) == 0.0
    # Markov: P_pi(piPrime / pi >= N) <= 1/N, attained by a point mass
    # on a response of pi-probability 1/N.
    det = ber(1.0)
    assert onpolicy_cov_estimate(det, ber(0.25), [0], 4.0) == 0.25
    rng = SeedTree(10).rng()
    exact = onpolicy_cov_estimate(piD, piHat, [0], 4.0)
    assert math.isclose(exact, 0.05, rel_tol=1e-12)
    mc = onpolicy_cov_estimate(piD, piHat, [0], 4.0, mode="mc",
                               m=10 ** 4, rng=rng)
    assert abs(mc - exact) <= 3 * math.sqrt(0.25 / 10 ** 4)
    with pytest.raises(ValueError):
        onpolicy_cov_estimate(piD, piHat, [0], 4.0, mode="mc", m=0)


def test_log_ratio_atoms_sum_to_one():
    rng = SeedTree(11).rng()
    piD = random_tabular(rng, 3, 2)
    piHat = random_tabular(rng, 3, 2)
    _, probs = PairLaw(piD, piHat, ONE).atoms()
    assert math.isclose(probs.sum(), 1.0, abs_tol=1e-9)


def test_coverage_sup_log_identical():
    piD = ber(0.3)
    C, log_wmax = coverage_sup_log(piD, piD, ONE)
    assert C == 0.0 and abs(log_wmax) < 1e-12


# ------------------------------------------------ N and delta out of range

@pytest.mark.parametrize("N, delta", [(math.nan, 0.5), (2.0, math.nan),
                                      (2.0, 0.0), (0.5, 0.5), (2.0, 1.5)])
def test_hellinger_tail_refuses_bad_N_or_delta(N, delta):
    piD, piHat = ber(0.3, H=2), ber(0.6, H=2)
    for tail in (lambda: stepwise_hellinger_tail(piD, piHat, ONE, N, delta),
                 lambda: PairLaw(piD, piHat, ONE).hellinger_tail(N, delta)):
        with pytest.raises(ValueError, match=r"N must be >= 1|delta must lie "
                                             r"in \(0, 1\]"):
            tail()


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("N", [math.nan, 0.5])
def test_onpolicy_estimate_refuses_N_below_one(mode, N):
    piD, piHat = ber(0.5), ber(0.05)
    with pytest.raises(ValueError, match="N must be >= 1"):
        onpolicy_cov_estimate(piD, piHat, [0], N, mode=mode, m=4,
                              rng=SeedTree(1).rng())


@pytest.mark.parametrize("N", [math.nan, 0.5])
def test_pairwise_coverage_refuses_N_below_one(N):
    from covkit.core import Dataset
    ds = Dataset([0] * 4, [[1], [0], [0], [0]], H=1, V=2)
    pols = [ber(0.5), ber(0.05)]
    with pytest.raises(ValueError, match="N must be >= 1"):
        pairwise_cov_matrix(pols, ds, N)


@pytest.mark.parametrize("interval, delta", [
    ("hoeffding", 2.0), ("hoeffding", math.nan), ("hoeffding", 0.0),
    ("hoeffding", 1.0), ("wilson", 1.5), ("wilson", -0.1)])
def test_coverage_mc_refuses_delta_outside_unit_interval_before_drawing(
        interval, delta):
    rng = SeedTree(2).rng()
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        coverage_mc(ber(0.3), ber(0.6), lambda r: 0, [2.0], 100, rng,
                    delta=delta, interval=interval)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n, delta, match", [
    (0, 0.05, "n must be >= 1"), (0.5, 0.05, "n must be >= 1"),
    (100, 2.0, "delta must lie"), (100, 0.0, "delta must lie"),
    (100, math.nan, "delta must lie")])
def test_hoeffding_half_width_refuses_bad_n_or_delta(n, delta, match):
    with pytest.raises(ValueError, match=match):
        hoeffding_half_width(n, delta)


BAD_THRESHOLDS = {"zero": [0.0], "below one": [2.0, 0.5], "nan": [math.nan],
                  "unsorted": [8.0, 2.0]}


@pytest.mark.parametrize("case", sorted(BAD_THRESHOLDS))
def test_exact_coverage_checks_thresholds_first(case):
    Ns = BAD_THRESHOLDS[case]
    match = "sorted" if case == "unsorted" else "thresholds must be >= 1"
    with pytest.raises(ValueError, match=match):
        coverage_exact(bernoulli_model(0.3), bernoulli_model(0.6), ONE, Ns)
    with pytest.raises(ValueError, match=match):
        PairLaw(ber(0.3), ber(0.6), ONE).coverage(Ns)


@pytest.mark.parametrize("case", sorted(BAD_THRESHOLDS) + ["interval"])
def test_coverage_mc_checks_thresholds_and_interval_before_drawing(case):
    rng = SeedTree(3).rng()
    state = rng.bit_generator.state
    Ns, interval = BAD_THRESHOLDS.get(case, [2.0]), "hoeffding"
    match = {"unsorted": "sorted", "interval": "unknown interval"}.get(
        case, "thresholds must be >= 1")
    if case == "interval":
        interval = "wald"
    with pytest.raises(ValueError, match=match):
        coverage_mc(ber(0.3), ber(0.6), lambda r: 0, Ns, 100, rng,
                    interval=interval)
    assert rng.bit_generator.state == state
