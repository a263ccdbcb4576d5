"""Best-of-N over a grid of N from one draw set.

`bon_regret` draws max(Ns) policy responses per trial and reads every N of
the grid off them.  A one-element grid must equal the one-N estimator it
replaced (`mc_oracle.bon_regret`) bit for bit, and every N of a grid must
equal a per-trial loop over the same draws (`mc_oracle.bon_regret_grid`).
"""

import json

import numpy as np
import pytest

import mc_oracle
from conftest import random_tabular, tabular_with_missing_mass
from covkit import core
from covkit.cli import load_policy, main
from covkit.core import FinitePromptDist
from covkit.decoding import AdversarialReward, bon_regret
from covkit.harness import build_task
from covkit.models import TabularModel
from covkit.seeding import SeedTree


class TableReward:
    """A real-valued reward in [0, 1]: one random value per (x, y)."""

    def __init__(self, rng, V, H, prompts):
        self.w = {x: rng.random(V ** H) for x in prompts}
        self.pow = V ** np.arange(H - 1, -1, -1)

    def many(self, x, Y):
        return self.w[x][np.asarray(Y) @ self.pow]


def random_instance(seed):
    """(policy, piT, reward, mu) with 1-3 prompts, a 0/1 or a real-valued
    reward, with or without `many`, and a finite or a callable mu."""
    rng = np.random.default_rng([seed, 29])
    V, H, K = int(rng.integers(2, 4)), int(rng.integers(1, 4)), \
        int(rng.integers(1, 4))
    prompts = list(range(K))
    piT = tabular_with_missing_mass(rng, V, H, prompts)
    policy = random_tabular(rng, V, H, prompts, alpha=0.5)
    kind = seed % 4
    if kind < 2:
        reward = AdversarialReward(piT, policy, float(rng.integers(1, 5)))
    else:
        reward = TableReward(rng, V, H, prompts)
    if kind % 2:
        many = reward
        reward = lambda x, y: many.many(x, np.array([y]))[0]
    if seed % 3:
        mu = FinitePromptDist(prompts, rng.dirichlet(np.ones(K)))
    else:
        mu = lambda r: int(r.integers(K))
    return policy, piT, reward, mu


@pytest.mark.parametrize("seed", range(24))
def test_one_element_grid_equals_the_one_n_estimator(seed):
    policy, piT, reward, mu = random_instance(seed)
    rng = np.random.default_rng(seed)
    N, trials = int(rng.integers(1, 7)), int(rng.integers(100, 301))
    (est,), hw = bon_regret(policy, piT, reward, mu, [N], trials,
                            SeedTree(seed).rng())
    want, hw_want = mc_oracle.bon_regret(policy, piT, reward, mu, N, trials,
                                         SeedTree(seed).rng())
    assert est == want and hw == hw_want


@pytest.mark.parametrize("seed", range(24))
def test_each_n_of_a_grid_is_read_off_one_draw_set(seed):
    policy, piT, reward, mu = random_instance(seed)
    Ns = [3, 1, 8, 3, 5]
    ests, _ = bon_regret(policy, piT, reward, mu, Ns, 150,
                         SeedTree(seed).rng())
    want = mc_oracle.bon_regret_grid(policy, piT, reward, mu, Ns, 150,
                                     SeedTree(seed).rng())
    assert ests.tolist() == want.tolist()
    # The largest N draws what it would draw alone.
    alone, _ = mc_oracle.bon_regret(policy, piT, reward, mu, 8, 150,
                                    SeedTree(seed).rng())
    assert ests[2] == alone
    # Along the sorted grid the estimates cannot increase, noise or not.
    order = np.argsort(Ns, kind="stable")
    assert (np.diff(ests[order]) <= 0).all()


@pytest.mark.parametrize("Ns", [[], (), np.array([], dtype=int), 4])
def test_an_empty_or_scalar_grid_is_refused_by_name(Ns):
    pol = random_tabular(np.random.default_rng(0), 2, 1)
    rng = SeedTree(1).rng()
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^Ns must be a nonempty list"):
        bon_regret(pol, pol, lambda x, y: 1, FinitePromptDist([0], [1.0]),
                   Ns, 100, rng)
    assert rng.bit_generator.state == state


def test_a_bad_n_anywhere_in_the_grid_is_refused_before_drawing():
    pol = random_tabular(np.random.default_rng(0), 2, 1)
    rng = SeedTree(1).rng()
    state = rng.bit_generator.state
    for Ns in ([1, 0], [2, 2.5], [True], [4, None]):
        with pytest.raises(ValueError, match="^N must be"):
            bon_regret(pol, pol, lambda x, y: 1,
                       FinitePromptDist([0], [1.0]), Ns, 100, rng)
    assert rng.bit_generator.state == state


@pytest.fixture
def two_prompt_files(tmp_path):
    """heterogeneous_kl (prompts 0 and 1, V = 2, H = 3) and a uniform
    tabular pi-hat."""
    task = tmp_path / "task.json"
    task.write_text('{"name": "heterogeneous_kl", '
                    '"params": {"n": 3, "H": 3}}')
    pol = tmp_path / "pol.json"
    pol.write_text('{"type": "tabular", "V": 2, "H": 3, "tables": []}')
    return str(task), str(pol)


def test_bon_command_draws_max_n_per_trial(two_prompt_files, capsys,
                                           monkeypatch):
    task, pol = two_prompt_files
    samples, logprobs, ranks = [], [], []
    sample_many, logprob_distinct, distinct_rows = core.Policy.sample_many, \
        core.Policy._logprob_distinct, core.distinct_rows

    def counted_sample(self, x, n, rng):
        samples.append((self, x, n))
        return sample_many(self, x, n, rng)

    def counted_logprob(self, x, Y, levels):
        logprobs.append((self, x))
        return logprob_distinct(self, x, Y, levels)

    def counted_rows(Y, V):
        ranks.append(len(Y))
        return distinct_rows(Y, V)

    monkeypatch.setattr(core.Policy, "sample_many", counted_sample)
    monkeypatch.setattr(core.Policy, "_logprob_distinct", counted_logprob)
    monkeypatch.setattr(core, "distinct_rows", counted_rows)
    trials = 400
    assert main(["bon", "--task", task, "--pi-hat", pol, "--N-grid",
                 "1,4,16", "--trials", str(trials), "--seed", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    piHat = [s for s in samples if isinstance(s[0], TabularModel)]
    piT = [s for s in samples if not isinstance(s[0], TabularModel)]
    # One sample_many per policy and distinct prompt: 4 calls, where one
    # call per N made 12.
    assert sorted(x for _, x, _ in piT) == [0, 1]
    assert sorted(x for _, x, _ in piHat) == [0, 1]
    assert sum(n for _, _, n in piT) == trials
    assert sum(n for _, _, n in piHat) == 16 * trials
    # Each reward batch asks both policies: 2 prompts x 2 batches x 2,
    # and ranks its responses once, for both.
    assert len(logprobs) == 8
    assert len(ranks) == 4


def test_bon_rows_follow_the_grid_order(two_prompt_files, capsys):
    task, pol = two_prompt_files
    assert main(["bon", "--task", task, "--pi-hat", pol, "--N-grid",
                 "4,1,4", "--trials", "300", "--seed", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["4", "1", "4"]
    assert rows[0] == rows[2] and rows[0] != rows[1]
    assert float(rows[0].split(",")[1]) <= float(rows[1].split(",")[1])


def test_bon_leaves_pcov_ref_empty_over_the_enumeration_budget(tmp_path,
                                                               capsys):
    # The exact coverage of this pair gathers 2^20 prefix entries, over the
    # budget; the command's estimates are Monte Carlo ones and still print.
    params = {"n": 4, "H": 24}
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"name": "heterogeneous_kl",
                                "params": params}))
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps({"type": "tabular", "V": 2, "H": 24, "tables": [
        {"x": x, "prefix": [1], "p": [0.3, 0.7]} for x in (0, 1)]}))
    assert main(["bon", "--task", str(task), "--pi-hat", str(pol),
                 "--N-grid", "1,4", "--trials", "200", "--reward-scale", "2",
                 "--seed", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()
    inst, piHat = build_task("heterogeneous_kl", params), \
        load_policy(str(pol))
    ests, hw = bon_regret(piHat, inst.piD,
                          AdversarialReward(inst.piD, piHat, 2.0), inst.mu,
                          [1, 4], 200, SeedTree(5).child("bon").rng())
    assert rows == ["N,regret,half_width,pcov_ref"] + [
        f"{N},{est:.12g},{hw:.12g}," for N, est in zip((1, 4), ests)]
