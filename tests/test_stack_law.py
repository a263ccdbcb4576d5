"""`metrics.StackLaw` against a `PairLaw` per checkpoint, with `==`.

The stack computes piD's step rows and the composition table once and all
checkpoints' step rows as one softmax, but keeps each row's operation
order, so its KL and coverage must equal the per-checkpoint pair law's bit
for bit: on random sgd_lower stacks, on rows with tied step ratios (which
take the pair law's own atoms), on random two-prompt A5-shaped instances
(one with a zero-weight prompt) and ones with up to 8 tokens, on prompts
whose atoms tie, on heterogeneous_kl, on steep features with missing mass,
and on stacks large enough to be taken in chunks.  The harness's one stacked call per job
gives the CSVs of a per-checkpoint loop, and a walked task still runs the
per-checkpoint loop.
"""

import math
import tracemalloc

import numpy as np
import pytest

from covkit import harness, metrics
from covkit.core import ENUM_BUDGET, FinitePromptDist
from covkit.harness import run
from covkit.metrics import MetricReport, PairLaw, StackLaw
from covkit.models import CallableFeatureMap, LinearARModel
from covkit.seeding import SeedTree
from covkit.tasks import heterogeneous_kl_instance, sgd_lower_instance

NS = [1.0, 2.0, 8.0, 64.0, 1e6]


def unit_rows(rng, C, d, scale=1.0):
    """C random theta rows of length up to 1 (up to `scale` before the
    projection)."""
    th = rng.normal(size=(C, d)) * rng.uniform(0, scale, size=(C, 1))
    return th / np.maximum(1.0, np.linalg.norm(th, axis=1, keepdims=True))


def assert_stack_is_the_pair_loop(piD, featmap, mu, thetas, Ns=NS):
    stack = StackLaw(piD, thetas, featmap, mu)
    kls, curves = stack.seq_kl(), stack.coverage(Ns)
    assert len(kls) == len(curves) == len(thetas)
    for theta, kl, curve in zip(thetas, kls, curves):
        law = PairLaw(piD, LinearARModel(theta, featmap, piD.V, piD.H), mu)
        assert kl == law.seq_kl()
        want = law.coverage(Ns)
        assert np.array_equal(curve.values, want.values)
        assert np.array_equal(curve.thresholds, want.thresholds)
        assert np.array_equal(curve.half_widths, want.half_widths)


def count_pair_atoms(monkeypatch):
    """A list that records the rows whose atoms come from `_law_atoms`."""
    calls = []
    law_atoms = metrics._law_atoms

    def counted(items, H):
        calls.append(len(items))
        return law_atoms(items, H)
    monkeypatch.setattr(metrics, "_law_atoms", counted)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_random_sgd_lower_stacks(seed, monkeypatch):
    rng = SeedTree(seed).child("stack-sgd-lower").rng()
    H = int(rng.integers(1, 12))
    task = sgd_lower_instance("large_eta", H=H, B=1.0, eta=8.0 / H)
    calls = count_pair_atoms(monkeypatch)
    thetas = unit_rows(rng, 64, 2, scale=3.0)
    assert_stack_is_the_pair_loop(task.piD, task.featmap, task.mu.items(),
                                  thetas)
    # Every stacked row took the table; the pair laws each built atoms.
    assert len(calls) == len(thetas)


def test_tied_step_ratios_take_the_pair_atoms(monkeypatch):
    # theta = (t, 0) gives tokens -1 and +1 equal logits, as at theta*, so
    # their step ratios tie and each such row has 2 groups, not 3.
    task = sgd_lower_instance("large_eta", H=8, B=1.0, eta=1.0)
    rng = SeedTree(3).child("stack-ties").rng()
    thetas = np.concatenate([np.stack([np.linspace(-1, 1, 21),
                                       np.zeros(21)], axis=1),
                             unit_rows(rng, 10, 2)])
    calls = count_pair_atoms(monkeypatch)
    StackLaw(task.piD, thetas, task.featmap, task.mu.items()).coverage(NS)
    assert len(calls) == 21
    assert_stack_is_the_pair_loop(task.piD, task.featmap, task.mu.items(),
                                  thetas)


def test_weights_summing_above_1_are_refused_before_any_work():
    # The stack, the exact-work preflight and exact sigma*^2 on product
    # prompts all take their items from metrics.positive_weights.
    task = heterogeneous_kl_instance(n=4, H=3)
    mu = [(0, 0.5), (1, 0.75)]
    thetas = unit_rows(SeedTree(5).child("stack-weights").rng(), 3,
                       task.featmap.d)
    for fn in (lambda: StackLaw(task.piD, thetas, task.featmap, mu),
               lambda: metrics.check_exact_work(task.piD, task.featmap, mu),
               lambda: metrics.sigma_star_sq(task.piD, task.featmap, mu)):
        with pytest.raises(ValueError, match="prompt 1 has weight 0.75"):
            fn()


def a5_shaped(rng, zero_weight, high=(6, 5, 6), same_tables=False):
    """Two prompts with random (V, d) step tables of row norm <= 1 and a
    random theta*, as test_acceptance's A5 builds them; d, V and H below
    `high`."""
    d, V, H = (int(v) for v in rng.integers((2, 2, 1), high))
    tables = {}
    for x in (0, 1):
        raw = rng.normal(size=(V, d))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        tables[x] = np.where(norms > 1.0, raw / norms, raw)
    if same_tables:
        tables[1] = tables[0]
    fm = CallableFeatureMap(lambda x, pre: tables[x][pre[-1]], d=d, B=1.0,
                            step_tables=lambda x: tables[x])
    piD = LinearARModel(unit_rows(rng, 1, d)[0], fm, V=V, H=H)
    w = [0.0, 1.0] if zero_weight else rng.dirichlet(np.ones(2)).tolist()
    return piD, fm, list(zip((0, 1), w))


@pytest.mark.parametrize("seed", range(12))
def test_random_a5_shaped_instances(seed):
    rng = SeedTree(seed).child("stack-a5").rng()
    piD, fm, mu = a5_shaped(rng, zero_weight=seed == 0)
    thetas = unit_rows(rng, int(rng.integers(1, 40)), fm.d, scale=2.0)
    assert_stack_is_the_pair_loop(piD, fm, mu, thetas)


@pytest.mark.parametrize("seed", range(6))
def test_random_instances_with_up_to_eight_tokens(seed):
    # Dot products of up to 8 terms, where BLAS kernels split the sum.
    rng = SeedTree(seed).child("stack-wide").rng()
    piD, fm, mu = a5_shaped(rng, zero_weight=False, high=(9, 9, 5))
    thetas = unit_rows(rng, 24, fm.d, scale=2.0)
    assert_stack_is_the_pair_loop(piD, fm, mu, thetas)


@pytest.mark.parametrize("seed", range(3))
def test_atoms_tied_across_prompts_take_the_pair_atoms(seed, monkeypatch):
    # Two prompts with one step table give every atom twice; the pair law
    # merges each pair of equal atoms, so each row takes its atoms.
    rng = SeedTree(seed).child("stack-twins").rng()
    piD, fm, mu = a5_shaped(rng, zero_weight=False, same_tables=True)
    thetas = unit_rows(rng, 16, fm.d)
    calls = count_pair_atoms(monkeypatch)
    StackLaw(piD, thetas, fm, mu).coverage(NS)
    assert len(calls) == len(thetas)
    assert_stack_is_the_pair_loop(piD, fm, mu, thetas)


@pytest.mark.parametrize("H", [1, 3, 9])
def test_heterogeneous_kl(H):
    task = heterogeneous_kl_instance(n=5, H=H)
    thetas = np.linspace(-1.0, 1.0, 17)[:, None]
    assert_stack_is_the_pair_loop(task.piD, task.featmap, task.mu.items(),
                                  thetas)


def test_a_chunked_stack():
    # H = 40 and k = 3 give comb(42, 2) = 861 atoms a row, so 2000 rows
    # pass the 1e6 budget and are taken in two chunks.
    task = sgd_lower_instance("large_eta", H=40, B=1.0, eta=1.0)
    assert 2000 * math.comb(42, 2) > ENUM_BUDGET
    thetas = unit_rows(SeedTree(40).child("stack-chunks").rng(), 2000, 2)
    assert_stack_is_the_pair_loop(task.piD, task.featmap, task.mu.items(),
                                  thetas, Ns=[2.0, 8.0, 64.0])


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_point_at_the_budget_is_not_refused():
    # comb(1414, 2) = 999,091 atoms: the point passes the exact-work
    # preflight, and the stack takes one row per chunk.
    task = sgd_lower_instance("large_eta", H=1412, B=1.0, eta=1.0)
    metrics.check_exact_work(task.piD, task.featmap, task.mu.items())
    thetas = unit_rows(SeedTree(41).child("stack-edge").rng(), 2, 2)
    assert_stack_is_the_pair_loop(task.piD, task.featmap, task.mu.items(),
                                  thetas, Ns=[2.0, 64.0])


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunks_of_one_row_need_no_more_memory_than_a_pair_law(monkeypatch):
    # A budget of one row's atoms (comb(202, 2) = 20,301) makes chunks of
    # one row, so eight rows peak below one pair law's atoms.
    task = sgd_lower_instance("large_eta", H=200, B=1.0, eta=1.0)
    monkeypatch.setattr(metrics, "ENUM_BUDGET", math.comb(202, 2))
    thetas = unit_rows(SeedTree(42).child("stack-memory").rng(), 8, 2)
    mu, Ns = task.mu.items(), [2.0, 64.0]
    stack = StackLaw(task.piD, thetas, task.featmap, mu)
    law = PairLaw(task.piD, LinearARModel(thetas[0], task.featmap, 3, 200),
                  mu)
    assert traced_peak(lambda: stack.coverage(Ns)) <= \
        traced_peak(lambda: law.coverage(Ns))


def test_steep_features_with_missing_mass():
    # Step tables of scale 1000: many rows put no mass (exp underflow) on
    # a token that piD emits, so KL and some step ratios are infinite.
    rng = SeedTree(5).child("stack-steep").rng()
    tables = {x: rng.normal(size=(3, 2)) * 1000.0 for x in (0, 1)}
    fm = CallableFeatureMap(lambda x, pre: tables[x][pre[-1]], d=2,
                            B=5000.0, step_tables=lambda x: tables[x])
    piD = LinearARModel(np.array([0.0005, -0.0003]), fm, V=3, H=3)
    mu = [(0, 0.3), (1, 0.7)]
    thetas = unit_rows(rng, 40, 2)
    kls = StackLaw(piD, thetas, fm, mu).seq_kl()
    assert np.isinf(kls).any() and np.isfinite(kls).any()
    assert_stack_is_the_pair_loop(piD, fm, mu, thetas)


def test_stack_refusals():
    task = sgd_lower_instance("large_eta", H=4, B=1.0, eta=2.0)
    args = task.piD, task.featmap, task.mu.items()
    with pytest.raises(ValueError, match="must be a"):
        StackLaw(args[0], np.zeros(2), *args[1:])
    with pytest.raises(ValueError, match="<= 1"):
        StackLaw(args[0], [[1.0, 1.0]], *args[1:])
    with pytest.raises(ValueError, match="thresholds must be >= 1"):
        StackLaw(args[0], [[0.5, 0.0]], *args[1:]).coverage([0.5, 2.0])
    walked = CallableFeatureMap(lambda x, pre: np.zeros(2), d=2, B=1.0)
    piD = LinearARModel(np.zeros(2), walked, V=2, H=2)
    with pytest.raises(ValueError, match="not a product prompt"):
        StackLaw(piD, [[0.0, 0.0]], walked, FinitePromptDist([0], [1.0])
                 .items())


def pair_loop_metrics(task, rec, metrics_spec, tree, stacked=None):
    """The per-checkpoint exact metrics: one PairLaw per checkpoint, in
    place of the rows of the job's stack law."""
    rec.metrics = []
    for _, theta in rec.checkpoints:
        law = PairLaw(task.piD, LinearARModel(theta, task.featmap, task.V,
                                              task.H), task.mu.items())
        rec.metrics.append(MetricReport(
            seq_kl=law.seq_kl(),
            coverage=law.coverage(np.asarray(metrics_spec["n_grid"], float))))
    return rec.metrics


def sgd_lower_config(out_dir):
    return {"version": 1,
            "task": {"name": "sgd_lower",
                     "params": {"variant": "large_eta", "H": 8, "B": 1.0,
                                "eta": 1.0}},
            "learner": {"name": "sgd_vanilla", "train": {"T": 64}},
            "metrics": {"n_grid": [2.0, 8.0, 64.0], "mode": "exact"},
            "sweep": {"axes": {"eta": [0.02, 0.1, 0.5]},
                      "seeds": list(range(6))},
            "out_dir": str(out_dir), "root_seed": 11}


def csv_files(d):
    return {str(p.relative_to(d)): p.read_bytes()
            for p in sorted(d.rglob("*.csv"))}


def test_harness_csvs_equal_the_pair_loop(tmp_path, monkeypatch):
    run(sgd_lower_config(tmp_path / "stack"))
    monkeypatch.setattr(harness, "checkpoint_metrics", pair_loop_metrics)
    run(sgd_lower_config(tmp_path / "loop"))
    stacked, looped = (csv_files(tmp_path / d) for d in ("stack", "loop"))
    assert len(stacked) == 3 * 6 + 1 and "sweep.csv" in stacked
    assert stacked == looped


def test_walked_task_keeps_the_pair_loop(tmp_path, monkeypatch):
    def no_stack(*args, **kwargs):
        raise AssertionError("a walked task built a StackLaw")
    monkeypatch.setattr(harness, "StackLaw", no_stack)
    cfg = sgd_lower_config(tmp_path)
    cfg["task"] = {"name": "sigma_star",
                   "params": {"H": 6, "B": 5.0, "N": 1.05, "n": 10}}
    cfg["learner"]["train"] = {"T": 8, "eta": 0.1}
    cfg["sweep"] = {"axes": {}, "seeds": [0, 1]}
    run(cfg)
    rows = (tmp_path / "runs" / "p000_s1" / "timeseries.csv").read_text()
    assert len(rows.splitlines()) == 2 + 4      # checkpoints 1, 2, 4, 8
