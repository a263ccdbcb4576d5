"""One Monte Carlo sample per checkpoint: `metrics.mc_report` takes seq_kl
and the coverage curve from one draw, and an MC `covkit run` makes one
such draw per checkpoint, from that checkpoint's seed stream."""

import json

import numpy as np
import pytest

from conftest import random_tabular, tabular_with_missing_mass
from covkit import harness, metrics
from covkit.cli import main
from covkit.core import FinitePromptDist
from covkit.harness import _fmt
from covkit.metrics import coverage_mc, mc_report, seq_kl
from covkit.models import LinearARModel
from covkit.seeding import SeedTree

V, H, PROMPTS = 3, 4, (0, 1, 2)


def pairs():
    rng = SeedTree(23).rng()
    tab = [random_tabular(rng, V, H, prompts=PROMPTS) for _ in range(2)]
    miss = tabular_with_missing_mass(rng, V, H, prompts=PROMPTS)
    return [("prefix", *tab), ("missing", tab[0], miss)]


PAIRS = pairs()


@pytest.mark.parametrize("interval", ["hoeffding", "wilson"])
@pytest.mark.parametrize("name,piD,piHat", PAIRS, ids=[p[0] for p in PAIRS])
def test_report_equals_seq_kl_and_coverage_mc_on_one_draw(name, piD, piHat,
                                                          interval):
    mu = FinitePromptDist(PROMPTS, [0.5, 0.3, 0.2])
    Ns = [1.0, 2.0, 8.0, 1e3]
    for n in (2, 7, 400):
        rng = lambda: SeedTree(50 + n).rng()
        rep = mc_report(piD, piHat, mu, Ns, n, rng(), delta=0.1,
                        interval=interval)
        kl = seq_kl(piD, piHat, None, mode="mc", n=n, rng=rng(),
                    mu_sampler=mu)
        curve = coverage_mc(piD, piHat, mu, Ns, n, rng(), delta=0.1,
                            interval=interval)
        assert rep.seq_kl == kl
        assert type(rep.seq_kl) is float
        for field in ("thresholds", "values", "half_widths"):
            assert np.array_equal(getattr(rep.coverage, field),
                                  getattr(curve, field)), field
        assert rep.coverage.n_samples == curve.n_samples == n
    if name == "missing":
        assert rep.seq_kl == np.inf


def mc_config(tmp_path):
    # sigma_star at H = 6 has coverage well inside (0, 1) at N = 2 and 8,
    # so a second draw would change the pcov columns.
    return {"version": 1,
            "task": {"name": "sigma_star",
                     "params": {"H": 6, "B": 5.0, "N": 1.05, "n": 10}},
            "learner": {"name": "sgd_vanilla",
                        "train": {"eta": 0.1, "T": 8}},
            "metrics": {"n_grid": [2, 8], "mode": "mc", "n_samples": 60,
                        "delta": 0.1},
            "sweep": {"axes": {"eta": [0.1, 0.3]}, "seeds": [4, 9]},
            "out_dir": str(tmp_path / "out"), "root_seed": 11}


def test_mc_run_rows_equal_seq_kl_and_coverage_mc_of_each_checkpoint(
        tmp_path, monkeypatch):
    jobs = []
    real = harness.checkpoint_metrics

    def record(task, rec, spec, tree, stacked):
        assert stacked is None          # mc metrics have no stack law
        jobs.append((task, list(rec.checkpoints), tree))
        return real(task, rec, spec, tree, stacked)
    monkeypatch.setattr(harness, "checkpoint_metrics", record)
    cfg = mc_config(tmp_path)
    harness.run(cfg)
    spec = cfg["metrics"]
    assert len(jobs) == 4
    for task, checkpoints, tree in jobs:
        p_idx, seed = tree.path[0][1], tree.path[1][1]
        path = tmp_path / "out" / "runs" / f"p{p_idx:03d}_s{seed}"
        rows = (path / "timeseries.csv").read_text().splitlines()[2:]
        assert len(rows) == len(checkpoints) == 4
        for i, ((t, theta), row) in enumerate(zip(checkpoints, rows)):
            model = LinearARModel(theta, task.featmap, task.V, task.H)
            rng = lambda: tree.child("metric", i).rng()
            kl = seq_kl(task.piD, model, None, mode="mc",
                        n=spec["n_samples"], rng=rng(), mu_sampler=task.mu)
            curve = coverage_mc(task.piD, model, task.mu, spec["n_grid"],
                                spec["n_samples"], rng(),
                                delta=spec["delta"])
            want = [str(t), str(spec["n_samples"]), _fmt(kl)] + \
                [_fmt(v) for v in curve.values]
            assert row == ",".join(want)


def test_mc_run_draws_from_piD_once_per_checkpoint(tmp_path, monkeypatch):
    draws = []
    real = metrics._mc_values

    def counted(piD, mu_sampler, n, rng, value):
        draws.append(n)
        return real(piD, mu_sampler, n, rng, value)
    monkeypatch.setattr(metrics, "_mc_values", counted)
    cfg = mc_config(tmp_path)
    harness.run(cfg)
    # 2 points x 2 seeds x checkpoints 1, 2, 4, 8.
    assert draws == [cfg["metrics"]["n_samples"]] * 16


def test_kl_samples_is_an_unknown_metrics_key(tmp_path, capsys):
    cfg = mc_config(tmp_path)
    cfg["metrics"]["kl_samples"] = 60
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"
    assert "unknown keys ['kl_samples'] in metrics" in err["error"]
    assert not (tmp_path / "out").exists()
