"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest -v tests/test_acceptance.py`; each test prints a
"<criterion>: PASS" line (visible with -s or in the -v test listing) and
asserts both the substantive claim and its runtime budget.
"""

import hashlib
import json
import math
import os
import time
import warnings

import numpy as np

from conftest import graph_instance
from covkit.cli import main as cli_main
from covkit.core import FinitePromptDist, Trajectory, sample_dataset
from covkit.decoding import AdversarialReward, TTTPolicy, bon_regret
from covkit.metrics import (PairLaw, StackLaw, coverage_exact,
                            coverage_sup_log, hellinger_sq, kl_to_cov_bound,
                            seq_kl, sigma_star_sq, stepwise_hellinger_tail,
                            stopped_kl)
from covkit.models import CallableFeatureMap, LinearARModel, TabularModel
from covkit.seeding import SeedTree
from covkit.selection import offset_tournament, select_ce, simple_tournament
from covkit.tasks import (bernoulli_mle, bernoulli_model, bernoulli_task,
                          heterogeneous_kl_instance, misspec_instance)
from covkit.training import (TrainConfig, sgd_normalized_steps,
                             sgd_token_steps, sgd_truncated_distill,
                             sgd_vanilla, sgd_vanilla_steps, train_stack)

MU1 = [(0, 1.0)]


def _done(name, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"{name} exceeded {budget}s budget ({elapsed:.1f}s)"
    print(f"{name}: PASS ({elapsed:.1f}s)")


# --------------------------------------------------------------------- A1

def _all_prefixes(V, H):
    out = [()]
    frontier = [()]
    for _ in range(H - 1):
        frontier = [p + (v,) for p in frontier for v in range(V)]
        out.extend(frontier)
    return out


def _rand_model(rng, V, H, allow_zeros):
    tables = {}
    for prefix in _all_prefixes(V, H):
        row = rng.dirichlet(np.full(V, 1.0))
        if allow_zeros and rng.random() < 0.15:
            row[rng.integers(V)] = 0.0
            row = row / row.sum()
        tables[(0, prefix)] = row
    return TabularModel(tables, V=V, H=H)


def _rand_pair(tree, k, allow_zeros=True, triple=False):
    rng = tree.child("inst", k).rng()
    V = int(rng.integers(2, 5))
    H = int(rng.integers(1, 5))
    piD = _rand_model(rng, V, H, allow_zeros=False)
    piHat = _rand_model(rng, V, H, allow_zeros=allow_zeros)
    if not triple:
        return piD, piHat
    piT = _rand_model(rng, V, H, allow_zeros=False)
    return piT, piD, piHat


def _tail(law, t):
    """P[log(piD/piHat) >= log t] under a held PairLaw, for arbitrary t > 0
    (t < 1 allowed)."""
    ratios, probs = law.atoms()
    return float(probs[ratios >= math.log(t) - 1e-12].sum())


def test_A1_conversion_inequalities():
    t0 = time.time()
    n_inst = 1000
    tol = 1e-9

    tree = SeedTree(101).child("kl")
    for k in range(n_inst):
        piD, piHat = _rand_pair(tree, k)
        kl = seq_kl(piD, piHat, MU1)
        curve = coverage_exact(piD, piHat, MU1, [4.0, 16.0, 64.0])
        for N, pc in zip(curve.thresholds, curve.values):
            assert pc <= kl_to_cov_bound(kl, N) + tol

    tree = SeedTree(101).child("hellinger")
    for k in range(n_inst):
        piD, piHat = _rand_pair(tree, k)
        h2 = hellinger_sq(piD, piHat, MU1)
        curve = coverage_exact(piD, piHat, MU1, [2.0, 4.0, 16.0])
        for N, pc in zip(curve.thresholds, curve.values):
            assert pc <= 2.0 * N / (math.sqrt(N) - 1.0) ** 2 * h2 + tol

    tree = SeedTree(101).child("chain")
    for k in range(n_inst):
        piT, piD, piHat = _rand_pair(tree, k, triple=True)
        TH, DH, TD = (PairLaw(a, b, MU1) for a, b in
                      ((piT, piHat), (piD, piHat), (piT, piD)))
        for M1 in (2.0, 4.0, 8.0):
            for M2 in (2.0, 4.0, 8.0):
                lhs = _tail(TH, M1)
                rhs = M2 * _tail(DH, M1 / M2) + _tail(TD, M2)
                assert lhs <= rhs + tol

    tree = SeedTree(101).child("stopped")
    for k in range(n_inst):
        piD, piHat = _rand_pair(tree, k)
        curve = coverage_exact(piD, piHat, MU1, [4.0, 16.0, 64.0])
        for N, pc in zip(curve.thresholds, curve.values):
            skl = stopped_kl(piD, piHat, MU1, N)
            assert pc <= 2.0 / (math.log(N) - 1.0) * skl + tol

    tree = SeedTree(101).child("lower")
    delta = 0.1
    for k in range(n_inst):
        piD, piHat = _rand_pair(tree, k)
        curve = coverage_exact(piD, piHat, MU1, [2.0, 4.0, 16.0])
        for N, pc in zip(curve.thresholds, curve.values):
            lo = stepwise_hellinger_tail(piD, piHat, MU1, N, delta)
            assert pc >= lo - delta - tol

    tree = SeedTree(101).child("cov2kl")
    for k in range(n_inst):
        piD, piHat = _rand_pair(tree, k, allow_zeros=False)
        kl = seq_kl(piD, piHat, MU1)
        C, log_wmax = coverage_sup_log(piD, piHat, MU1)
        if C <= 1e-15:
            assert kl <= tol
        else:
            assert kl <= C * (1.0 + math.log(log_wmax / C)) + tol

    _done("A1 conversion inequalities", t0, 120)


# --------------------------------------------------------------------- A2

def test_A2_markov_tightness():
    t0 = time.time()
    for p in (0.01, 0.05, 0.1, 0.25, 0.5):
        for N in (2.0, 4.0, 8.0, 16.0, 64.0):
            piD = bernoulli_model(p)
            piHat = bernoulli_model(p / N)
            pc = coverage_exact(piD, piHat, MU1, [N]).values[0]
            assert math.isclose(pc, p, abs_tol=1e-12)
            kl = seq_kl(piD, piHat, MU1)
            assert pc * (math.log(N) - 0.5 + 1.0 / (2.0 * N)) >= kl - 1e-12
    _done("A2 tightness grid", t0, 1)


# --------------------------------------------------------------------- A3

def test_A3_bernoulli_case_study():
    t0 = time.time()
    p_star, n, trials = 0.02, 25, 5000
    task = bernoulli_task(p_star)
    rng = SeedTree(103).rng()
    inf_kl = 0
    pcovs = []
    for _ in range(trials):
        ds = sample_dataset(task.piD, task.mu, n, rng)
        phat = bernoulli_mle(ds)
        if phat == 0.0:
            inf_kl += 1
        pc = coverage_exact(task.piD, bernoulli_model(phat), MU1,
                            [2.0]).values[0]
        pcovs.append(pc)
    freq = inf_kl / trials
    assert abs(freq - 0.98 ** 25) <= 0.03
    assert np.mean(pcovs) <= 2.0 * p_star
    assert max(pcovs) <= p_star + 1e-12
    _done("A3 Bernoulli case study", t0, 30)


# --------------------------------------------------------------------- A4

def test_A4_bon_bounds():
    t0 = time.time()
    M, eps, trials = 4.0, 0.05, 100_000
    piT = bernoulli_model(0.1)
    piHat = bernoulli_model(0.1 / 48.0)
    assert math.isclose(coverage_exact(piT, piHat, MU1, [M]).values[0],
                        0.1, abs_tol=1e-12)
    N = math.ceil(2.0 * M * math.log(1.0 / eps))    # 24
    mu = lambda r: 0
    rng = SeedTree(104).rng()

    reward = lambda x, y: int(y[0] == 1)
    est, hw = bon_regret(piHat, piT, reward, mu, N, trials, rng)
    assert est <= 0.15 + 3.0 * hw

    adv = AdversarialReward(piT, piHat, float(N))
    pcov_2n = coverage_exact(piT, piHat, MU1, [2.0 * N]).values[0]
    est, hw = bon_regret(piHat, piT, adv, mu, N, trials, rng)
    assert est >= 0.5 * pcov_2n - 3.0 * hw
    _done("A4 BoN bounds", t0, 120)


# --------------------------------------------------------------------- A5

def _a5_instance(rng, d, V, H, B=1.0):
    tables = {}
    for x in (0, 1):
        raw = rng.normal(size=(V, d))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        tables[x] = np.where(norms > B, raw * (B / norms), raw)
    fm = CallableFeatureMap(lambda x, pre: tables[x][pre[-1]], d=d, B=B,
                            step_tables=lambda x: tables[x])
    theta = rng.normal(size=d)
    theta = theta / max(1.0, np.linalg.norm(theta))
    piD = LinearARModel(theta, fm, V=V, H=H)
    mu = FinitePromptDist([0, 1], [0.5, 0.5])
    return piD, fm, mu


def test_A5_vanilla_sgd_upper_bound():
    t0 = time.time()
    T, n_seeds = 2000, 20
    meta = SeedTree(105).rng()
    for inst in range(3):
        d = int(meta.integers(2, 5))
        V = int(meta.integers(2, 4))
        H = int(meta.integers(1, 5))
        piD, fm, mu = _a5_instance(meta, d, V, H)
        B = fm.B
        eta = 1.0 / (2.0 * H * B * B)
        s2 = sigma_star_sq(piD, fm, mu.items())
        avg_kls = []
        for seed in range(n_seeds):
            rng = SeedTree(1105 + seed).child("inst", inst).rng()
            rec = sgd_vanilla(sample_dataset(piD, mu, T, rng), fm,
                              TrainConfig(eta=eta, T=T, checkpoint_every=1))
            # One stacked law per seed: bit for bit the per-checkpoint
            # seq_kl (tests/test_stack_law.py).
            vals = StackLaw(piD, [th for _, th in rec.checkpoints], fm,
                            mu.items()).seq_kl()
            avg_kls.append(float(np.mean(vals)))
        avg_kls = np.asarray(avg_kls)
        se = avg_kls.std(ddof=1) / math.sqrt(n_seeds)
        bound = 4.0 / (eta * T) + 2.0 * eta * s2 + 3.0 * se
        assert avg_kls.mean() <= bound
    _done("A5 vanilla SGD upper bound", t0, 180)


# --------------------------------------------------------------------- A6

def test_A6_truncation_identity():
    t0 = time.time()
    task = heterogeneous_kl_instance(n=5, H=4)
    rng = SeedTree(106).rng()
    data = sample_dataset(task.piD, task.mu, 10_000, rng)
    # The per-example identity sum_h alpha_h eps_h = min(A, sum_h eps_h) is
    # asserted inside the learner on every processed example.
    rec = sgd_truncated_distill(data, task.piD, task.featmap,
                                TrainConfig(eta=0.01, T=10_000, A=math.log(8.0)))
    assert rec.n_examples == 10_000
    _done("A6 truncation identity (10^4 examples)", t0, 120)


# --------------------------------------------------------------------- A7

_A7_VALS = np.array([-1.0, 0.0, 1.0])


def _hetero_instance(H, b, mu_plus):
    tables = {"+": np.stack([_A7_VALS * b, np.zeros(3)], axis=1),
              "-": np.stack([np.zeros(3), _A7_VALS * b], axis=1)}
    fm = CallableFeatureMap(lambda x, pre: tables[x][pre[-1]], d=2, B=b,
                            step_tables=lambda x: tables[x])
    piD = LinearARModel(np.array([0.5, 0.5]), fm, V=3, H=H)
    mu = FinitePromptDist(["+", "-"], [mu_plus, 1.0 - mu_plus])
    return piD, fm, mu


def _a7_final_pcov8(method, H, eta, seeds, T=512):
    """Final Pcov_8 of each seed's run; the seeds train as one theta stack,
    each row bit for bit the seed's own run."""
    piD, fm, mu = _hetero_instance(H, b=4.0, mu_plus=0.5)
    data = [sample_dataset(piD, mu, T, SeedTree(seed).child("a7", H).rng())
            for seed in seeds]
    if method == "vanilla":
        steps = sgd_vanilla_steps
        cfg = TrainConfig(eta=eta, T=T, checkpoint_every=10 ** 9)
    else:
        steps = sgd_normalized_steps
        s2 = sigma_star_sq(piD, fm, mu.items())
        cfg = TrainConfig(eta=eta, T=T, N=8.0, sigma_star_sq=s2,
                          checkpoint_every=10 ** 9)
    recs = train_stack(steps, data, fm, [cfg] * len(seeds))
    return [coverage_exact(piD, LinearARModel(rec.final_theta, piD.featmap,
                                              piD.V, piD.H),
                           mu.items(), [8.0]).values[0] for rec in recs]


def test_A7_horizon_separation():
    t0 = time.time()
    grid = [0.1, 0.025, 0.00625, 0.0015625, 0.000390625]
    n_seeds = 10
    floor = 0.005

    def median_pcov(method, H, eta):
        return float(np.median(_a7_final_pcov8(method, H, eta,
                                               range(n_seeds))))

    results = {}
    for method in ("vanilla", "normalized"):
        # Constant step size per method: the largest grid eta whose H=8
        # median coverage is minimal (largest stable step size).
        sel = [(eta, median_pcov(method, 8, eta)) for eta in grid]
        min_med = min(m for _, m in sel)
        best_eta = max(eta for eta, m in sel if m <= min_med + 1e-3)
        results[method] = {H: median_pcov(method, H, best_eta)
                           for H in (8, 32, 128)}

    v = results["vanilla"]
    assert v[128] >= max(4.0 * v[8], 10 * floor), f"vanilla medians {v}"
    n = results["normalized"]
    assert max(n.values()) <= 2.0 * min(n.values()) + floor, \
        f"normalized medians {n}"
    _done("A7 horizon separation", t0, 600)


# --------------------------------------------------------------------- A8

def _a8_avg_seq_kl(method, seeds, H=32, T=512, eta=0.00625):
    """Each seed's mean MC seq KL over its checkpoints; the seeds train as
    one theta stack, each row bit for bit the seed's own run."""
    piD, fm, mu = _hetero_instance(H, b=4.0, mu_plus=0.5)
    trees = [SeedTree(seed).child("a8", 0) for seed in seeds]
    data = [sample_dataset(piD, mu, T, tree.rng()) for tree in trees]
    steps = sgd_vanilla_steps if method == "vanilla" else sgd_token_steps
    recs = train_stack(steps, data, fm,
                       [TrainConfig(eta=eta, T=T)] * len(seeds))
    out = []
    for tree, rec in zip(trees, recs):
        vals = []
        for i, (_, th) in enumerate(rec.checkpoints):
            base = LinearARModel(th, piD.featmap, piD.V, piD.H)
            pol = base if method == "vanilla" else TTTPolicy(base, eta)
            mrng = tree.child("metric", i).rng()
            vals.append(seq_kl(piD, pol, None, mode="mc", n=48, rng=mrng,
                               mu_sampler=mu))
        out.append(float(np.mean(vals)))
    return out


def test_A8_ttt_improvement():
    t0 = time.time()
    vanilla = np.median(_a8_avg_seq_kl("vanilla", range(10)))
    ttt = np.median(_a8_avg_seq_kl("ttt", range(10)))
    assert ttt <= vanilla, f"ttt median {ttt} > vanilla median {vanilla}"
    _done("A8 TTT improvement", t0, 300)


# --------------------------------------------------------------------- A9

def test_A9_selection_separation():
    t0 = time.time()
    task, cands = misspec_instance(alpha=1.0, M=math.e ** 3)
    n, trials = 100, 500
    N_simple = 16.0
    N_offset, gamma = 8.0 * math.e ** 2, math.e
    pcov16 = [coverage_exact(task.piD, c, task.mu.items(), [16.0]).values[0]
              for c in cands.candidates]
    rng = SeedTree(109).rng()
    picks = {"ce": [], "simple": [], "offset": []}
    for _ in range(trials):
        ds = sample_dataset(task.piD, task.mu, n, rng)
        picks["ce"].append(select_ce(cands, ds).selected)
        picks["simple"].append(simple_tournament(cands, ds,
                                                 N_simple).selected)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            picks["offset"].append(offset_tournament(
                cands, ds, N_offset, gamma=gamma).selected)
    freq_ce_pi2 = np.mean(np.asarray(picks["ce"]) == 1)
    assert freq_ce_pi2 >= 0.2, f"CE picked pi2 with freq {freq_ce_pi2}"
    for rule in ("simple", "offset"):
        freq_pi1 = np.mean(np.asarray(picks[rule]) == 0)
        assert freq_pi1 >= 0.95, f"{rule} picked pi1 with freq {freq_pi1}"
    med_tourn = np.median([pcov16[i] for i in picks["simple"]])
    med_ce = np.median([pcov16[i] for i in picks["ce"]])
    assert med_tourn <= med_ce
    _done("A9 selection separation", t0, 120)


# -------------------------------------------------------------------- A10

def test_A10_graph_generator():
    from covkit.graphs import GraphConfig, identify_class, parse_prompt
    t0 = time.time()
    n_inst = 1000
    rng = SeedTree(110).rng()
    expected_counts = {"G1": 4, "G2": 4, "G3": 4, "GH1": 1, "GH3": 16}
    for family, classes in (("teaser", ("G1", "G2", "G3")),
                            ("horizon", ("GH1", "GH2", "GH3"))):
        for cid in classes:
            cfg = GraphConfig(L=8)
            for k in range(n_inst):
                dag, prompt, piD = graph_instance(cid, cfg, rng)
                assert parse_prompt(prompt, dag.m) == dag
                # path count = product of passable-set sizes per layer
                want = expected_counts.get(cid)
                if want is None:
                    want = int(np.prod([len(p) for p in dag.passable]))
                assert dag.valid_path_count() == want
                assert identify_class(dag, family) == cid
                y = piD.sample(prompt, rng)
                assert dag.is_valid_path(y)
    _done("A10 graph generator", t0, 60)


def test_A10b_teaser_rules_rederived():
    # Parity-rule re-derivation for G1/G2 on freshly parsed prompts.
    from covkit.graphs import GraphConfig, parse_prompt, parity
    t0 = time.time()
    rng = SeedTree(1101).rng()
    for cid in ("G1", "G2"):
        for _ in range(200):
            dag, prompt, piD = graph_instance(cid, GraphConfig(), rng)
            reparsed = parse_prompt(prompt, dag.m)
            [(path, prob)] = piD.selected_paths(prompt)
            assert prob == 1.0
            for i in range(1, reparsed.L + 1):
                options = reparsed.passable[i]
                if len(options) == 1:
                    assert path[i] == options[0]
                    continue
                want = parity(i + 1) if cid == "G1" else 1 ^ parity(i + 1)
                chosen = [v for v in options if parity(v) == want]
                assert len(chosen) == 1 and path[i] == chosen[0]
    _done("A10b teaser rule re-derivation", t0, 60)


# -------------------------------------------------------------------- A11

def _csv_digest(d):
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(d)):
        for fn in sorted(files):
            if fn.endswith(".csv"):
                h.update(open(os.path.join(root, fn), "rb").read())
    return h.hexdigest()


def test_A11_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    digests = []
    for i, threads in enumerate(("1", "1", "4")):
        out = tmp_path / f"run{i}"
        cfg = {"version": 1,
               "task": {"name": "heterogeneous_kl",
                        "params": {"n": 5, "H": 3}},
               "learner": {"name": "sgd_vanilla",
                           "train": {"eta": 0.1, "T": 32}},
               "metrics": {"n_grid": [2, 8], "mode": "exact"},
               "sweep": {"axes": {"eta": [0.05, 0.2]}, "seeds": [1, 2, 3]},
               "out_dir": str(out),
               "root_seed": 11}
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        monkeypatch.setenv("COVKIT_THREADS", threads)
        assert cli_main(["run", str(cfg_path)]) == 0
        digests.append(_csv_digest(out))
    assert digests[0] == digests[1] == digests[2]
    _done("A11 determinism", t0, 120)
