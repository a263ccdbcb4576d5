"""`covkit run` refuses a config that a job would refuse before it writes
anything: a bad metrics block, a learner without the settings it needs, a
theta0 of the wrong dimension or with a non-finite entry, a non-finite
step size, N or sigma_star_sq, a T, K or checkpoint_every that is no
integer, a negative checkpoint_every, a normalized schedule with N <= 1,
a graph class mix that L cannot hold, or exact metrics over the
enumeration budget.  Each case exits 2 and leaves no out_dir/runs directory."""

import json
import math

import pytest

from covkit import harness
from covkit.cli import main
from covkit.harness import ConfigError, build_task, check_n_grid


def config(tmp_path, metrics=None, learner="sgd_vanilla", train=None,
           task=None, axes=None):
    return {"version": 1,
            "task": task or {"name": "heterogeneous_kl",
                             "params": {"n": 3, "H": 2}},
            "learner": {"name": learner,
                        "train": {"eta": 0.1, "T": 4} if train is None
                        else train},
            "metrics": {"n_grid": [2, 8]} if metrics is None else metrics,
            "sweep": {"axes": axes or {}, "seeds": [1, 2]},
            "out_dir": str(tmp_path / "out"), "root_seed": 3}


def must_not_run(*args, **kwargs):
    raise AssertionError("a job started")


def refused(tmp_path, capsys, cfg, match):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"
    assert match in err["error"], err["error"]
    assert not (tmp_path / "out" / "runs").exists()


BAD_METRICS = {
    "empty n_grid": ({"n_grid": []}, "nonempty list of numbers"),
    "n_grid not a list": ({"n_grid": 2}, "nonempty list of numbers"),
    "string in n_grid": ({"n_grid": [2, "8"]}, "nonempty list of numbers"),
    "bool in n_grid": ({"n_grid": [True, 2]}, "nonempty list of numbers"),
    "NaN in n_grid": ({"n_grid": [2, math.nan]}, ">= 1"),
    "n_grid below 1": ({"n_grid": [0.5]}, ">= 1"),
    "unsorted n_grid": ({"n_grid": [8, 2]}, "sorted"),
    "mc n_samples 1": ({"mode": "mc", "n_samples": 1}, "n_samples"),
    "mc n_samples not integer": ({"mode": "mc", "n_samples": 20.5},
                                 "n_samples"),
    "mc n_samples a string": ({"mode": "mc", "n_samples": "20"},
                              "n_samples"),
    "mc kl_samples 0": ({"mode": "mc", "kl_samples": 0}, "kl_samples"),
    "mc kl_samples not integer": ({"mode": "mc", "kl_samples": 1.5},
                                  "kl_samples"),
    "delta 0": ({"delta": 0}, "delta"),
    "delta 1": ({"delta": 1.0}, "delta"),
    "delta negative": ({"mode": "mc", "delta": -0.1}, "delta"),
    "delta NaN": ({"mode": "mc", "delta": math.nan}, "delta"),
    "delta a string": ({"delta": "0.05"}, "delta"),
}


@pytest.mark.parametrize("case", sorted(BAD_METRICS))
def test_bad_metrics_block_exits_2_before_output(tmp_path, capsys, case):
    metrics, match = BAD_METRICS[case]
    refused(tmp_path, capsys, config(tmp_path, metrics=metrics), match)


def test_good_metrics_blocks_still_run(tmp_path, capsys):
    for i, metrics in enumerate([
            {"n_grid": [1, 2, 2, 8.5], "delta": 0.5},
            {"mode": "mc", "n_samples": 2, "kl_samples": 1, "delta": 0.2,
             "n_grid": [2]}]):
        cfg = config(tmp_path, metrics=metrics)
        cfg["out_dir"] = str(tmp_path / f"ok{i}")
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0
    capsys.readouterr()


def test_cli_and_config_share_the_grid_rule():
    assert check_n_grid("1,2,2,8").tolist() == [1, 2, 2, 8]
    assert check_n_grid([1, 2, 2, 8]).tolist() == [1, 2, 2, 8]
    assert check_n_grid("4,1,2.0", integers=True).tolist() == [4, 1, 2]
    for bad in ("", "2,x", "0.5", "8,2", "nan", [], [0.5], [8, 2]):
        with pytest.raises(ConfigError):
            check_n_grid(bad)
    for bad in ("2.7", "4,inf", [2.5]):
        with pytest.raises(ConfigError):
            check_n_grid(bad, integers=True)


BAD_LEARNERS = {
    "sgd_vanilla without eta": ("sgd_vanilla", {"T": 4}, None,
                                "sgd_vanilla requires an explicit eta"),
    "sgd_token without eta": ("sgd_token", {"T": 4}, None,
                              "sgd_token requires an explicit eta"),
    "sgd_normalized with eta only": ("sgd_normalized", {"eta": 0.1, "T": 4},
                                     None, "(N, sigma_star_sq)"),
    "sgd_normalized with N only": ("sgd_normalized", {"N": 8.0, "T": 4},
                                   None, "(N, sigma_star_sq)"),
    "sgd_truncated without A": ("sgd_truncated", {"eta": 0.1, "T": 4}, None,
                                "requires A"),
    "sgd_truncated without eta or sigma_star_sq": (
        "sgd_truncated", {"A": 1.0, "T": 4}, None, "eta or sigma_star_sq"),
    "theta0 of the wrong dimension": (
        "sgd_vanilla", {"eta": 0.1, "T": 4, "theta0": [0.1, 0.2]}, None,
        "theta0 dimension mismatch"),
    "theta0 axis with one bad value": (
        "sgd_token", {"eta": 0.1, "T": 4}, {"theta0": [[0.1], [0.1, 0.2]]},
        "theta0 dimension mismatch"),
    "theta0 wrong at one task point": (
        "sgd_vanilla", {"eta": 0.1, "T": 4, "theta0": [0.1, 0.2]},
        {"H": [2, 3]}, "theta0 dimension mismatch"),
    "NaN theta0": ("sgd_vanilla", {"eta": 0.1, "T": 4, "theta0": [math.nan]},
                   None, "theta0 must be finite"),
    "infinite theta0 on an axis": (
        "sgd_token", {"eta": 0.1, "T": 4},
        {"theta0": [[0.1], [-math.inf]]}, "theta0 must be finite"),
    "negative checkpoint_every": (
        "sgd_vanilla", {"eta": 0.1, "T": 4, "checkpoint_every": -2}, None,
        "checkpoint_every must be >= 0"),
    "NaN eta": ("sgd_vanilla", {"eta": math.nan, "T": 4}, None,
                "eta must be positive and finite"),
    "infinite eta": ("sgd_token", {"eta": math.inf, "T": 4}, None,
                     "eta must be positive and finite"),
    "NaN lambda": ("sgd_normalized", {"eta": 0.1, "lam": math.nan, "T": 4},
                   None, "lambda must be >= 0 and finite"),
    "NaN A": ("sgd_truncated", {"eta": 0.1, "A": math.nan, "T": 4}, None,
              "A must be positive and finite"),
    "T not an integer": ("sgd_vanilla", {"eta": 0.1, "T": 2.5}, None,
                         "T must be an integer"),
    "K not an integer": ("sgd_normalized",
                         {"eta": 0.1, "lam": 0.5, "T": 4, "K": 1.5}, None,
                         "K must be an integer"),
    "checkpoint_every not an integer": (
        "sgd_token", {"eta": 0.1, "T": 4, "checkpoint_every": 1.5}, None,
        "checkpoint_every must be an integer"),
    "negative sigma_star_sq": (
        "sgd_normalized", {"N": 8.0, "sigma_star_sq": -1.0, "T": 4}, None,
        "sigma_star_sq must be >= 0 and finite"),
    "NaN sigma_star_sq": (
        "sgd_truncated", {"A": 1.0, "sigma_star_sq": math.nan, "T": 4}, None,
        "sigma_star_sq must be >= 0 and finite"),
    "infinite N": ("sgd_normalized",
                   {"N": math.inf, "sigma_star_sq": 0.5, "T": 4}, None,
                   "N must be finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_LEARNERS))
def test_learner_requirements_exit_2_before_output(tmp_path, capsys,
                                                   monkeypatch, case):
    learner, train, axes, match = BAD_LEARNERS[case]
    task = None
    if case == "theta0 wrong at one task point":
        # sigma_star features have dimension H: right at H = 2 only.
        task = {"name": "sigma_star",
                "params": {"H": 2, "B": 1.0, "N": 2.0, "n": 2, "c": 1.0}}
    monkeypatch.setattr(harness, "run_learner", must_not_run)
    refused(tmp_path, capsys, config(tmp_path, learner=learner, train=train,
                                     task=task, axes=axes), match)


def test_nan_theta0_on_sgd_lower_exits_2_before_output(tmp_path, capsys):
    # Python's json reads the NaN literal; this config used to train and
    # write seq_kl = nan rows and a nan sweep median.
    task = {"name": "sgd_lower",
            "params": {"variant": "large_eta", "H": 8, "B": 1.0, "eta": 1.0}}
    cfg = config(tmp_path, task=task,
                 train={"eta": 0.1, "T": 4, "theta0": [math.nan, 0.0]})
    assert "NaN" in json.dumps(cfg)
    refused(tmp_path, capsys, cfg, "theta0 must be finite")


@pytest.mark.parametrize("learner,train", [
    ("sgd_normalized", {"eta": 0.1, "lam": 0.5, "T": 4}),
    ("sgd_normalized", {"N": 8.0, "sigma_star_sq": 0.5, "T": 4}),
    ("sgd_truncated", {"A": 1.0, "sigma_star_sq": 0.5, "T": 4}),
    ("sgd_truncated", {"A": 1.0, "eta": 0.1, "T": 4, "theta0": [0.5]}),
])
def test_learners_with_their_settings_validate(tmp_path, learner, train):
    harness.validate_config(config(tmp_path, learner=learner, train=train))


@pytest.mark.parametrize("params,match", [
    ({"L": 3, "m": 16}, "class GH3 needs 4 double layers, L=3"),
    ({"L": 1, "m": 16, "mix": {"GH1": 0.5, "GH3": 0.5}},
     "class GH3 needs 4 double layers, L=1"),
])
def test_graph_mix_needing_more_double_layers_than_L(params, match):
    with pytest.raises(ConfigError, match=match):
        build_task("graph_horizon", params)


def test_graph_class_of_zero_weight_is_not_checked():
    build_task("graph_horizon",
               {"L": 3, "m": 16, "mix": {"GH1": 0.5, "GH2": 0.5,
                                         "GH3": 0.0}})


def test_graph_mix_exits_2_from_gen_data(tmp_path, capsys):
    rc = main(["gen-data", "--task", "graph_teaser", "--params",
               json.dumps({"L": 1, "m": 16}), "--n", "5",
               "--out", str(tmp_path / "d.jsonl")])
    assert rc == 2
    assert "class G1 needs 2 double layers, L=1" in \
        json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize("N", [0.5, 1])
def test_normalized_schedule_needs_N_above_1(tmp_path, capsys, N):
    refused(tmp_path, capsys,
            config(tmp_path, learner="sgd_normalized",
                   train={"N": N, "sigma_star_sq": 0.5, "T": 4}),
            f"N must be > 1 (log N is the coverage budget), got N = {N}")


GH2_AT_L1 = {"L": 1, "m": 16, "mix": {"GH1": 0.5, "GH2": 0.5}}


def test_gh2_needs_a_double_layer():
    with pytest.raises(ConfigError, match=r"class GH2 needs L // 2 >= 1 "
                                          r"double layers, L=1"):
        build_task("graph_horizon", GH2_AT_L1)
    build_task("graph_horizon", dict(GH2_AT_L1, L=2))


def test_gh2_at_L1_exits_2_from_run_and_gen_data(tmp_path, capsys):
    task = {"name": "graph_horizon", "params": GH2_AT_L1}
    refused(tmp_path, capsys,
            config(tmp_path, task=task, metrics={"mode": "mc"}), "GH2")
    rc = main(["gen-data", "--task", "graph_horizon", "--params",
               json.dumps(GH2_AT_L1), "--n", "40",
               "--out", str(tmp_path / "d.jsonl")])
    assert rc == 2
    assert "class GH2 needs" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "d.jsonl").exists()


def test_over_budget_exact_walk_exits_2_before_output(tmp_path, capsys,
                                                      monkeypatch):
    # sigma_star features depend on the position, so the exact metrics
    # walk a dense V = 2 tree: 2^19 prefixes at level 19 gather 2^20
    # entries, over the 1e6 budget.
    monkeypatch.setattr(harness, "run_learner", must_not_run)
    task = {"name": "sigma_star", "params": {"H": 24, "B": 5.0, "N": 1.2,
                                             "n": 10}}
    refused(tmp_path, capsys, config(tmp_path, task=task,
                                     metrics={"mode": "exact"}),
            "gathered prefix entries = 1048576 > 1e6")


def test_over_budget_product_atoms_exit_2_without_a_walk(tmp_path, capsys,
                                                         monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a product prompt was walked")
    monkeypatch.setattr(harness, "tree_walk", no_walk)
    monkeypatch.setattr(harness, "run_learner", must_not_run)
    # Each prompt's step support has 2 tokens: H + 1 atoms per prompt.
    harness.validate_config(config(tmp_path, task={
        "name": "heterogeneous_kl", "params": {"n": 3, "H": 499_999}}))
    refused(tmp_path, capsys, config(tmp_path, task={
        "name": "heterogeneous_kl", "params": {"n": 3, "H": 500_000}}),
        "leaves + atoms (bound) = 1000002 > 1e6")
