"""`covkit run` refuses a config that a job would refuse before it writes
anything: a bad metrics block, a learner without the settings it needs, a
theta0 of the wrong dimension or with a non-finite entry, a non-finite
step size, N or sigma_star_sq, a T, K or checkpoint_every that is no
integer, a train setting that is a bool, a task's H, n, m, L or
nodes_per_layer that is a bool or no integer, a task's B or N that is a
bool, inf or out of range, a negative checkpoint_every, a
normalized schedule with N <= 1, a graph class mix that L cannot hold,
exact metrics over the enumeration budget, seeds, a root seed, axes or a
version of the wrong type, a negative seed, or a COVKIT_THREADS that is no
integer >= 1.  Each case exits 2 and leaves no out_dir/runs directory."""

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
    "unknown mode": ({"mode": "sampled"}, "metrics.mode must be"),
    "mode None": ({"mode": None}, "metrics.mode must be"),
    "empty n_grid": ({"n_grid": []}, "nonempty list of numbers"),
    "n_grid not a list": ({"n_grid": 2}, "nonempty list of numbers"),
    "string in n_grid": ({"n_grid": [2, "8"]}, "nonempty list of numbers"),
    "bool in n_grid": ({"n_grid": [True, 2]}, "nonempty list of numbers"),
    "NaN in n_grid": ({"n_grid": [2, math.nan]}, ">= 1"),
    "n_grid below 1": ({"n_grid": [0.5]}, ">= 1"),
    "unsorted n_grid": ({"n_grid": [8, 2]}, "sorted"),
    "repeated n_grid value": ({"n_grid": [2, 2]}, "no value repeated"),
    "mc n_samples 1": ({"mode": "mc", "n_samples": 1}, "n_samples"),
    "mc n_samples not integer": ({"mode": "mc", "n_samples": 20.5},
                                 "n_samples"),
    "mc n_samples a string": ({"mode": "mc", "n_samples": "20"},
                              "n_samples"),
    "mc kl_samples 0": ({"mode": "mc", "kl_samples": 0}, "kl_samples"),
    "mc kl_samples not integer": ({"mode": "mc", "kl_samples": 1.5},
                                  "kl_samples"),
    "kl_samples equal to n_samples": (
        {"mode": "mc", "n_samples": 20, "kl_samples": 20},
        "unknown keys ['kl_samples'] in metrics"),
    "exact kl_samples": ({"kl_samples": 2000},
                         "unknown keys ['kl_samples'] in metrics"),
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
            {"n_grid": [1, 2, 8.5], "delta": 0.5},
            {"mode": "mc", "n_samples": 2, "delta": 0.2, "n_grid": [2]}]):
        cfg = config(tmp_path, metrics=metrics)
        cfg["out_dir"] = str(tmp_path / f"ok{i}")
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0
    capsys.readouterr()


def test_cli_and_config_share_the_grid_rule():
    assert check_n_grid("1,2,8").tolist() == [1, 2, 8]
    assert check_n_grid([1, 2, 8]).tolist() == [1, 2, 8]
    # Best-of-N sizes may repeat and come in any order.
    assert check_n_grid("4,1,2.0,4", integers=True).tolist() == [4, 1, 2, 4]
    for bad in ("", "2,x", "0.5", "8,2", "nan", [], [0.5], [8, 2],
                "1,2,2,8", [2, 2], [2.0, 2]):
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
                "eta must be > 0 and finite"),
    "infinite eta": ("sgd_token", {"eta": math.inf, "T": 4}, None,
                     "eta must be > 0 and finite"),
    "NaN lambda": ("sgd_normalized", {"eta": 0.1, "lam": math.nan, "T": 4},
                   None, "lam must be >= 0 and finite"),
    "NaN A": ("sgd_truncated", {"eta": 0.1, "A": math.nan, "T": 4}, None,
              "A must be > 0 and finite"),
    "T not an integer": ("sgd_vanilla", {"eta": 0.1, "T": 2.5}, None,
                         "T must be >= 1 and an integer"),
    "K not an integer": ("sgd_normalized",
                         {"eta": 0.1, "lam": 0.5, "T": 4, "K": 1.5}, None,
                         "K must be >= 1 and an integer"),
    "checkpoint_every not an integer": (
        "sgd_token", {"eta": 0.1, "T": 4, "checkpoint_every": 1.5}, None,
        "checkpoint_every must be >= 0 and an integer"),
    "negative sigma_star_sq": (
        "sgd_normalized", {"N": 8.0, "sigma_star_sq": -1.0, "T": 4}, None,
        "sigma_star_sq must be >= 0 and finite"),
    "NaN sigma_star_sq": (
        "sgd_truncated", {"A": 1.0, "sigma_star_sq": math.nan, "T": 4}, None,
        "sigma_star_sq must be >= 0 and finite"),
    "infinite N": ("sgd_normalized",
                   {"N": math.inf, "sigma_star_sq": 0.5, "T": 4}, None,
                   "N must be > 1 and finite"),
    # JSON true is no number: it trained with T = 1 or eta = 1.
    "T true": ("sgd_vanilla", {"eta": 0.1, "T": True}, None,
               "T must be >= 1 and an integer, got True"),
    "T true on an axis": ("sgd_token", {"eta": 0.1, "T": 4},
                          {"T": [4, True]},
                          "T must be >= 1 and an integer, got True"),
    "K true": ("sgd_normalized", {"eta": 0.1, "lam": 0.5, "T": 4, "K": True},
               None, "K must be >= 1 and an integer, got True"),
    "checkpoint_every false": (
        "sgd_vanilla", {"eta": 0.1, "T": 4, "checkpoint_every": False}, None,
        "checkpoint_every must be >= 0 and an integer, got False"),
    "eta true": ("sgd_vanilla", {"eta": True, "T": 4}, None,
                 "eta must be > 0 and finite, got True"),
    "lam true": ("sgd_normalized", {"eta": 0.1, "lam": True, "T": 4}, None,
                 "lam must be >= 0 and finite, got True"),
    "A true": ("sgd_truncated", {"eta": 0.1, "A": True, "T": 4}, None,
               "A must be > 0 and finite, got True"),
    "sigma_star_sq true": (
        "sgd_truncated", {"A": 1.0, "sigma_star_sq": True, "T": 4}, None,
        "sigma_star_sq must be >= 0 and finite, got True"),
    "N true": ("sgd_normalized", {"N": True, "sigma_star_sq": 0.5, "T": 4},
               None, "N must be > 1 and finite, got True"),
    "theta0 entry true": ("sgd_vanilla",
                          {"eta": 0.1, "T": 4, "theta0": [True]}, None,
                          "theta0 entries must be numbers, not bools"),
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


# A bool or a non-integer number where a task takes an integer: each of
# these used to build (heterogeneous_kl with H: true trained at H = 1).
BAD_TASK_INTEGERS = {
    "heterogeneous_kl H true": ("heterogeneous_kl", {"n": 3, "H": True},
                                "H must be >= 1 and an integer, got True"),
    "heterogeneous_kl H 2.0": ("heterogeneous_kl", {"n": 3, "H": 2.0},
                               "H must be >= 1 and an integer, got 2.0"),
    "heterogeneous_kl n 1.5": ("heterogeneous_kl", {"n": 1.5, "H": 2},
                               "n must be >= 1 and an integer, got 1.5"),
    "heterogeneous_kl n true": ("heterogeneous_kl", {"n": True, "H": 2},
                                "n must be >= 1 and an integer, got True"),
    "sgd_lower H 8.0": ("sgd_lower", {"variant": "large_eta", "H": 8.0,
                                      "B": 1.0, "eta": 1.0},
                        "H must be >= 1 and an integer, got 8.0"),
    "small_eta n 2.5": ("sgd_lower", {"variant": "small_eta", "H": 4,
                                      "B": 2.0, "Bbar": 1.0, "N": 4.0,
                                      "n": 2.5},
                        "n must be >= 1 and an integer, got 2.5"),
    "sigma_star n true": ("sigma_star", {"H": 2, "B": 1.0, "N": 2.0,
                                         "n": True, "c": 1.0},
                          "n must be >= 1 and an integer, got True"),
    "graph_teaser m 128.0": ("graph_teaser", {"m": 128.0},
                             "m must be an integer, got 128.0"),
    "graph_horizon L true": ("graph_horizon", {"L": True, "m": 16},
                             "L must be >= 0 and an integer, got True"),
    "graph_teaser nodes_per_layer 4.0": (
        "graph_teaser", {"nodes_per_layer": 4.0},
        "nodes_per_layer must be >= 1 and an integer, got 4.0"),
}


def task_refused(tmp_path, capsys, name, params, match, mode="exact"):
    """`run` (metrics in `mode`) and `gen-data` on task `name` at `params`
    exit 2 with `match` in the error and write nothing."""
    refused(tmp_path, capsys,
            config(tmp_path, task={"name": name, "params": params},
                   metrics={"n_grid": [2, 8], "mode": mode}), match)
    rc = main(["gen-data", "--task", name, "--params", json.dumps(params),
               "--n", "5", "--out", str(tmp_path / "d.jsonl")])
    assert rc == 2
    assert match in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize("case", sorted(BAD_TASK_INTEGERS))
def test_task_integer_parameters_exit_2_before_output(tmp_path, capsys,
                                                      monkeypatch, case):
    monkeypatch.setattr(harness, "run_learner", must_not_run)
    task_refused(tmp_path, capsys, *BAD_TASK_INTEGERS[case])


LARGE_ETA = {"variant": "large_eta", "H": 8, "B": 1.0, "eta": 1.0}
SMALL_ETA = {"variant": "small_eta", "H": 4, "B": 2.0, "Bbar": 1.0,
             "N": 4.0, "n": 2}
SIGMA_STAR = {"H": 2, "B": 1.0, "N": 2.0, "n": 2, "c": 1.0}
# A bool, an inf or a number out of range where a task takes a real number
# or a count.  Before `core.check_number`, B: true trained at B = 1 and N:
# Infinity trained with a rare prompt of weight 0 (both exited 0); B:
# Infinity failed in the exact metrics (exit 2) or the MC draw (exit 3);
# and the n or N that set a prompt weight exited 2 with a bare "float
# division by zero".
BAD_TASK_NUMBERS = {
    "large_eta B true": ("sgd_lower", dict(LARGE_ETA, B=True),
                         "B must be > 0 and finite, got True"),
    "small_eta N inf": ("sgd_lower", dict(SMALL_ETA, N=math.inf),
                        "N must be > 1 and finite, got inf"),
    "large_eta B inf": ("sgd_lower", dict(LARGE_ETA, B=math.inf),
                        "B must be > 0 and finite, got inf"),
    "small_eta n 0": ("sgd_lower", dict(SMALL_ETA, n=0),
                      "n must be >= 1 and an integer, got 0"),
    "sigma_star N 1": ("sigma_star", dict(SIGMA_STAR, N=1),
                       "N must be > 1 and finite, got 1"),
    "sigma_star n 0": ("sigma_star", dict(SIGMA_STAR, n=0),
                       "n must be >= 1 and an integer, got 0"),
}


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("case", sorted(BAD_TASK_NUMBERS))
def test_task_number_parameters_exit_2_before_output(tmp_path, capsys,
                                                     monkeypatch, case, mode):
    monkeypatch.setattr(harness, "run_learner", must_not_run)
    task_refused(tmp_path, capsys, *BAD_TASK_NUMBERS[case], mode=mode)


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
            f"N must be > 1 and finite, got {N}")


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


SEEDS = "sweep.seeds must be a nonempty list of distinct integers"
ROOT_SEED = "root_seed must be >= 0 and an integer"
WRONG_TYPES = {
    "task a list": ({"task": []}, "'list' object has no attribute"),
    "seeds an int": ({"sweep": {"seeds": 3}}, SEEDS),
    "metrics a list": ({"metrics": []}, "not a mapping"),
    "root_seed a string": ({"root_seed": "x"}, ROOT_SEED),
    # At the parent of these checks: exit 3 after writing out_dir/runs.
    "seed a string": ({"sweep": {"seeds": ["a"]}},
                      r"sweep.seeds\[0\] must be >= 0 and an integer, "
                      r"got 'a'"),
    # Two run dirs, p000_s1 and p000_s1.5, from one seed stream.
    "seed a float": ({"sweep": {"seeds": [1, 1.5]}},
                     r"sweep.seeds\[1\] must be >= 0 and an integer, "
                     r"got 1.5"),
    # Two runs, p000_s-1 and p000_s18446744073709551615, of one stream.
    "seed negative": ({"sweep": {"seeds": [-1, 2 ** 64 - 1]}},
                      r"sweep.seeds\[0\] must be >= 0 and an integer, "
                      r"got -1"),
    "root_seed negative": ({"root_seed": -1}, ROOT_SEED),
    # One run dir written twice and counted twice in sweep.csv.
    "seeds repeated": ({"sweep": {"seeds": [1, 1]}}, SEEDS),
    # Ran seeds "1" and "2".
    "seeds a string": ({"sweep": {"seeds": "12"}}, SEEDS),
    # Wrote p000_sTrue.
    "seed a bool": ({"sweep": {"seeds": [True]}},
                    r"sweep.seeds\[0\] must be >= 0 and an integer, "
                    r"got True"),
    "root_seed a float": ({"root_seed": 1.7}, ROOT_SEED),
    "root_seed a bool": ({"root_seed": False}, ROOT_SEED),
    "axes a list of pairs": (
        {"sweep": {"axes": [["eta", [0.1, 0.2]]], "seeds": [1]}},
        "sweep.axes must be an object"),
    "sweep a list of pairs": ({"sweep": [["seeds", [1]]]},
                              "sweep must be an object"),
    "train a list of pairs": (
        {"learner": {"name": "sgd_vanilla",
                     "train": [["eta", 0.1], ["T", 4]]}},
        "learner.train must be an object"),
    "version true": ({"version": True}, "config version must be 1"),
    "version 1.0": ({"version": 1.0}, "config version must be 1"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_wrongly_typed_config_is_a_config_error(tmp_path, capsys,
                                                monkeypatch, case):
    # validate_config raises only ConfigError, so `run` is refused with
    # exit 2 and nothing on stdout.
    monkeypatch.setattr(harness, "run_learner", must_not_run)
    cfg = dict(config(tmp_path), **WRONG_TYPES[case][0])
    with pytest.raises(ConfigError, match=WRONG_TYPES[case][1]):
        harness.validate_config(cfg)
    with pytest.raises(ConfigError):
        harness.run(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["kind"] == "validation"
    assert not (tmp_path / "out" / "runs").exists()


# At the parent of this check, "two" exited 3 after writing out_dir/runs,
# and 0 and -4 ran on one thread.
@pytest.mark.parametrize("threads, got", [("two", "'two'"), ("0", "0"),
                                          ("-4", "-4")])
def test_bad_thread_count_exits_2_before_output(tmp_path, capsys,
                                                monkeypatch, threads, got):
    monkeypatch.setenv("COVKIT_THREADS", threads)
    monkeypatch.setattr(harness, "run_learner", must_not_run)
    refused(tmp_path, capsys, config(tmp_path),
            f"COVKIT_THREADS must be >= 1 and an integer, got {got}")


@pytest.mark.parametrize("command", ["gen-data", "eval-coverage",
                                     "tournament", "bon"])
def test_negative_cli_seed_exits_2_before_output(tmp_path, capsys, command):
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"name": "bernoulli",
                                "params": {"p_star": 0.3}}))
    pi = tmp_path / "pi.json"
    pi.write_text(json.dumps(
        {"type": "tabular", "V": 2, "H": 1,
         "tables": [{"x": 0, "prefix": [], "p": [0.9, 0.1]}]}))
    data = tmp_path / "d.jsonl"
    data.write_text('{"x": 0, "y": [1]}\n')
    out = tmp_path / "out.jsonl"
    argv = [command] + {
        "gen-data": ["--task", "bernoulli", "--params", '{"p_star": 0.3}',
                     "--n", "5", "--out", str(out)],
        "eval-coverage": ["--task", str(task), "--pi-hat", str(pi),
                          "--N-grid", "2"],
        "tournament": ["--candidates", str(pi), str(pi), "--data",
                       str(data)],
        "bon": ["--task", str(task), "--pi-hat", str(pi), "--N-grid", "2",
                "--trials", "100"]}[command]
    # At the parent, -1 ran on the stream of 2^64 - 1.
    assert main(argv + ["--seed", "-1"]) == 2
    io = capsys.readouterr()
    assert io.out == "" and not out.exists()
    assert json.loads(io.err) == {
        "error": "--seed must be >= 0 and an integer, got -1",
        "kind": "validation"}
    assert main(argv + ["--seed", str(2 ** 64 - 1)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("case", ["list", "string", "task", "learner",
                                  "out_dir", "root_seed"])
def test_config_that_is_no_object_or_lacks_a_key_is_refused(
        tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(harness, "run_learner", must_not_run)
    if case in ("list", "string"):
        cfg = [config(tmp_path)] if case == "list" else "config"
        match = "config must be a JSON object"
    else:
        cfg = config(tmp_path)
        del cfg[case]
        match = f"missing config key {case!r}"
    with pytest.raises(ConfigError, match=match):
        harness.validate_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert match in json.loads(out.err)["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval-coverage", "bon"])
def test_task_file_with_another_key_exits_2_before_output(tmp_path, capsys,
                                                          command):
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"name": "bernoulli",
                                "params": {"p_star": 0.3}, "seed": 1}))
    pi_hat = tmp_path / "pi_hat.json"
    pi_hat.write_text(json.dumps(
        {"type": "tabular", "V": 2, "H": 1,
         "tables": [{"x": 0, "prefix": [], "p": [0.9, 0.1]}]}))
    assert main([command, "--task", str(task), "--pi-hat", str(pi_hat),
                 "--N-grid", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert err == {"error": "task file must have only 'name' and 'params'",
                   "kind": "validation"}


def test_run_sizes_the_exact_work_once_per_task_point(tmp_path, capsys,
                                                      monkeypatch):
    sized = []
    check = harness._check_exact_work
    monkeypatch.setattr(harness, "_check_exact_work",
                        lambda task: sized.append(task.H) or check(task))
    cfg = config(tmp_path, metrics={"n_grid": [2], "mode": "exact"},
                 axes={"H": [2, 3]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    assert sorted(sized) == [2, 3]
