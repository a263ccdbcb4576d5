import hashlib
import json
import os
import re
import time

import numpy as np
import pytest

from covkit import harness, training
from covkit.harness import (CSV_VERSION, ConfigError, build_task, gen_data,
                            run, validate_config)
from covkit.seeding import SeedTree
from covkit.training import TrainConfig


def base_config(out_dir):
    return {
        "version": 1,
        "task": {"name": "heterogeneous_kl", "params": {"n": 5, "H": 3}},
        "learner": {"name": "sgd_vanilla", "train": {"eta": 0.1, "T": 16}},
        "metrics": {"n_grid": [2, 8], "mode": "exact"},
        "sweep": {"axes": {"eta": [0.05, 0.2]}, "seeds": [1, 2, 3]},
        "out_dir": str(out_dir),
        "root_seed": 7,
    }


def csv_digest(d):
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(d)):
        for fn in sorted(files):
            if fn.endswith(".csv"):
                h.update(open(os.path.join(root, fn), "rb").read())
    return h.hexdigest()


def test_validation_rejects_unknown_keys(tmp_path):
    cfg = base_config(tmp_path)
    cfg["typo"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["metrics"]["oops"] = 1
    with pytest.raises(ConfigError, match="metrics"):
        validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["learner"]["train"]["step_size"] = 0.1
    with pytest.raises(ConfigError, match="learner.train"):
        validate_config(cfg)


def test_validation_version_and_names(tmp_path):
    cfg = base_config(tmp_path)
    cfg["version"] = 2
    with pytest.raises(ConfigError, match="version"):
        validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["task"]["name"] = "nope"
    with pytest.raises(ConfigError, match="unknown task"):
        validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["learner"]["name"] = "adam"
    with pytest.raises(ConfigError, match="unknown learner"):
        validate_config(cfg)


@pytest.mark.parametrize("name", [["x"], {"a": 1}, 3, None])
def test_validation_refuses_a_name_that_is_not_a_string(tmp_path, name):
    # An unhashable name once failed the lookup with the bare message
    # "unhashable type: 'list'".
    cfg = base_config(tmp_path)
    cfg["task"]["name"] = name
    with pytest.raises(ConfigError, match=re.escape(f"unknown task {name!r}")):
        validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["learner"]["name"] = name
    with pytest.raises(ConfigError,
                       match=re.escape(f"unknown learner {name!r}")):
        validate_config(cfg)


def test_validation_sweep_axes(tmp_path):
    cfg = base_config(tmp_path)
    cfg["sweep"]["axes"]["eta"] = []
    with pytest.raises(ConfigError, match="nonempty"):
        validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["sweep"]["axes"]["bogus"] = [1, 2]
    with pytest.raises(ConfigError, match="neither"):
        validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["sweep"]["seeds"] = []
    with pytest.raises(ConfigError, match="seeds"):
        validate_config(cfg)


# A valid value for every TrainConfig field.
TRAIN_VALUES = {"eta": 0.1, "T": 8, "K": 2, "lam": 0.5, "A": 1.0, "N": 8.0,
                "sigma_star_sq": 0.5, "checkpoint_every": 2, "theta0": [0.0]}
IGNORED = {
    "mle": ["eta", "K", "lam", "A", "N", "sigma_star_sq", "checkpoint_every",
            "theta0"],
    "sgd_vanilla": ["K", "lam", "A", "N", "sigma_star_sq"],
    "sgd_token": ["K", "lam", "A", "N", "sigma_star_sq"],
    "sgd_normalized": ["A"],
    "sgd_truncated": ["K", "lam", "N"],
}


@pytest.mark.parametrize("learner,field", [(name, f) for name, fields in
                                           IGNORED.items() for f in fields])
def test_validation_rejects_ignored_train_fields(tmp_path, learner, field):
    value = TRAIN_VALUES[field]
    cfg = base_config(tmp_path)
    cfg["learner"] = {"name": learner, "train": {"T": 8, field: value}}
    cfg["sweep"]["axes"] = {}
    with pytest.raises(ConfigError, match="ignores"):
        validate_config(cfg)
    cfg["learner"]["train"] = {"T": 8}
    cfg["sweep"]["axes"] = {field: [value]}
    with pytest.raises(ConfigError, match="ignores"):
        validate_config(cfg)


@pytest.mark.parametrize("learner", sorted(IGNORED))
def test_validation_accepts_fields_the_learner_reads(tmp_path, learner):
    cfg = base_config(tmp_path)
    read = set(TRAIN_VALUES) - set(IGNORED[learner])
    cfg["learner"] = {"name": learner,
                      "train": {f: TRAIN_VALUES[f] for f in read}}
    cfg["sweep"]["axes"] = {f: [TRAIN_VALUES[f]] for f in read}
    validate_config(cfg)


def test_build_task_bad_params():
    with pytest.raises(ConfigError, match="bad parameters"):
        build_task("bernoulli", {"p": 0.2})


def test_run_emits_artifacts_and_quantiles(tmp_path):
    cfg = base_config(tmp_path)
    cfg["sweep"]["seeds"] = list(range(1, 17))
    run(cfg)
    sweep = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep[0] == f"# {CSV_VERSION}"
    header = sweep[1].split(",")
    assert header[0] == "eta"
    assert "seq_kl_median" in header
    assert "seq_kl_q1_16" in header and "seq_kl_q15_16" in header
    assert len(sweep) == 2 + 2          # two sweep points
    # per-run artifacts
    run_dir = tmp_path / "runs" / "p000_s1"
    ts = (run_dir / "timeseries.csv").read_text().splitlines()
    assert ts[0] == f"# {CSV_VERSION}"
    assert ts[1].startswith("t,n_samples,seq_kl,pcov_2,pcov_8")
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["seed"] == 1 and summary["point"] == {"eta": 0.05}
    # quantile sanity: lo <= median <= hi on each metric triple
    for line in sweep[2:]:
        vals = line.split(",")[1:]
        for i in range(0, len(vals), 3):
            med, lo, hi = (float(v) for v in vals[i:i + 3])
            assert lo <= med <= hi


def test_run_deterministic_across_threads(tmp_path, monkeypatch):
    digests = []
    for threads in ("1", "4", "1"):
        out = tmp_path / f"t{len(digests)}"
        cfg = base_config(out)
        monkeypatch.setenv("COVKIT_THREADS", threads)
        run(cfg)
        digests.append(csv_digest(out))
    assert digests[0] == digests[1] == digests[2]


@pytest.mark.parametrize("learner,train", [
    ("sgd_vanilla", {"eta": 0.1, "T": 16}),
    ("sgd_truncated", {"eta": 0.1, "A": 1.0, "T": 4}),
    ("mle", {"T": 8})])
def test_stacks_are_capped_and_only_stacked_learners_stack(
        tmp_path, monkeypatch, learner, train):
    # Five seeds at each of two T values: two groups of five jobs, as jobs
    # of different T never share a stack.  A learner in STACKED trains a
    # group in stacks of at most STACK_ROWS jobs, any other one job at a
    # time; the outputs do not depend on the stack size.
    sizes = []
    real_learn = harness.run_learner

    def learn(name, tasks, trains, rngs):
        sizes.append(len(tasks))
        return real_learn(name, tasks, trains, rngs)
    monkeypatch.setattr(harness, "run_learner", learn)
    digests = []
    for rows in (harness.STACK_ROWS, 3):
        monkeypatch.setattr(harness, "STACK_ROWS", rows)
        out = tmp_path / f"r{rows}"
        cfg = base_config(out)
        cfg["learner"] = {"name": learner, "train": train}
        cfg["sweep"] = {"axes": {"T": [train["T"], 2 * train["T"]]},
                        "seeds": [1, 2, 3, 4, 5]}
        run(cfg)
        digests.append(csv_digest(out))
        if learner in harness.STACKED:
            assert sorted(sizes) == sorted([5, 5] if rows > 5
                                           else [3, 2, 3, 2])
        else:
            assert sizes == [1] * 10
        sizes.clear()
    assert digests[0] == digests[1]


def test_gen_data_round_trip(tmp_path):
    out = tmp_path / "d.jsonl"
    head = tmp_path / "d.head.json"
    ds = gen_data("bernoulli", {"p_star": 0.3}, 50, 9, str(out),
                  header_path=str(head))
    assert len(ds) == 50
    lines = out.read_text().splitlines()
    assert len(lines) == 50
    info = json.loads(head.read_text())
    assert info["seed_info"]["seed"] == 9
    # same seed regenerates identical bytes
    out2 = tmp_path / "d2.jsonl"
    gen_data("bernoulli", {"p_star": 0.3}, 50, 9, str(out2))
    assert out.read_text() == out2.read_text()


def test_mle_learner_path(tmp_path):
    cfg = base_config(tmp_path)
    cfg["learner"] = {"name": "mle", "train": {"T": 200}}
    cfg["sweep"] = {"axes": {}, "seeds": [1]}
    run(cfg)
    assert (tmp_path / "sweep.csv").exists()
    summary = json.loads((tmp_path / "runs" / "p000_s1" /
                          "summary.json").read_text())
    assert summary["flags"] == []
    assert summary["wall_clock"] > 0        # the draw and the fit, timed


TRAIN = {"mle": {"T": 10}, "sgd_vanilla": {"eta": 0.1, "T": 4},
         "sgd_normalized": {"eta": 0.1, "lam": 0.5, "K": 2, "T": 4},
         "sgd_token": {"eta": 0.1, "T": 4},
         "sgd_truncated": {"eta": 0.1, "A": 1.0, "T": 4}}


@pytest.mark.parametrize("learner", sorted(TRAIN))
def test_wall_clock_covers_the_draw_and_the_training(learner, monkeypatch):
    # The draw happens in run_learner, before the learner's own clock; a
    # learner with a stacked step trains through train_stack, any other
    # through its own function.
    fit_name = "train_stack" if learner in harness.STACKED \
        else harness.LEARNERS[learner][0]
    for module, name in ((harness, "sample_dataset"), (training, fit_name)):
        def slow(*args, _fn=getattr(module, name)):
            time.sleep(0.05)
            return _fn(*args)
        monkeypatch.setattr(module, name, slow)
    task = build_task("heterogeneous_kl", {"n": 3, "H": 2})
    (rec,) = harness.run_learner(learner, [task],
                                 [TrainConfig(**TRAIN[learner])],
                                 [SeedTree(0).rng()])
    assert rec.wall_clock >= 0.1
    assert rec.n_examples == TRAIN[learner]["T"] * \
        TRAIN[learner].get("K", 1)


def test_stacked_wall_clock_is_the_draw_plus_a_share(monkeypatch):
    # Two jobs of one stack: each pays its own draw and half the training.
    def slow_draw(*args, _fn=harness.sample_dataset):
        time.sleep(0.05)
        return _fn(*args)

    def slow_fit(*args, _fn=training.train_stack):
        time.sleep(0.2)
        return _fn(*args)
    monkeypatch.setattr(harness, "sample_dataset", slow_draw)
    monkeypatch.setattr(training, "train_stack", slow_fit)
    task = build_task("heterogeneous_kl", {"n": 3, "H": 2})
    recs = harness.run_learner("sgd_vanilla", [task, task],
                               [TrainConfig(eta=0.1, T=4)] * 2,
                               [SeedTree(0).rng(), SeedTree(1).rng()])
    for rec in recs:
        assert 0.05 + 0.1 <= rec.wall_clock < 0.05 + 0.2


def test_mle_out_of_iterations_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(training, "MLE_MAX_ITERS", 1)
    cfg = base_config(tmp_path)
    cfg["learner"] = {"name": "mle", "train": {"T": 200}}
    cfg["sweep"] = {"axes": {}, "seeds": [1, 2]}
    run(cfg)
    for seed in (1, 2):
        summary = json.loads((tmp_path / "runs" / f"p000_s{seed}" /
                              "summary.json").read_text())
        assert summary["flags"] == ["mle-not-converged"]


def test_task_checks_run_before_any_sampling(tmp_path, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("sampled before the task was checked")
    monkeypatch.setattr(harness, "sample_dataset", must_not_run)
    cfg = base_config(tmp_path)
    cfg["task"] = {"name": "bernoulli", "params": {"p_star": 0.3}}
    cfg["learner"] = {"name": "mle", "train": {"T": 20}}
    cfg["sweep"] = {"axes": {}, "seeds": [1]}
    with pytest.raises(ConfigError, match="feature map"):
        run(cfg)
    # A trainable task whose prompt sampler cannot be enumerated.
    task = build_task("heterogeneous_kl", {"n": 5, "H": 3})
    task.mu = lambda rng: 0
    monkeypatch.setattr(harness, "build_task", lambda name, params: task)
    cfg = base_config(tmp_path)
    with pytest.raises(ConfigError, match="enumerable"):
        run(cfg)


def test_exact_metrics_require_enumerable_mu(tmp_path):
    cfg = base_config(tmp_path)
    cfg["task"] = {"name": "graph_teaser", "params": {"L": 2, "m": 16}}
    cfg["sweep"] = {"axes": {}, "seeds": [1]}
    with pytest.raises(ConfigError, match="enumerable|feature map"):
        run(cfg)


def sgd_lower_config(tmp_path, learner, train, axes):
    cfg = base_config(tmp_path)
    cfg["task"] = {"name": "sgd_lower",
                   "params": {"variant": "large_eta", "H": 2, "B": 1.0,
                              "eta": 4.0}}
    cfg["learner"] = {"name": learner, "train": train}
    cfg["sweep"] = {"axes": axes, "seeds": [1]}
    return cfg


def record_routing(monkeypatch):
    """Wrap build_task and run_learner; return the lists they append to."""
    task_etas, train_etas = [], []
    real_build, real_learn = harness.build_task, harness.run_learner

    def build(name, params):
        task_etas.append(params["eta"])
        return real_build(name, params)

    def learn(name, tasks, trains, rngs):
        train_etas.extend(train.eta for train in trains)
        return real_learn(name, tasks, trains, rngs)
    monkeypatch.setattr(harness, "build_task", build)
    monkeypatch.setattr(harness, "run_learner", learn)
    return task_etas, train_etas


def test_axis_reaches_task_parameter_the_learner_ignores(tmp_path,
                                                         monkeypatch):
    # mle reads no eta, so an eta axis sets sgd_lower's own eta.
    cfg = sgd_lower_config(tmp_path, "mle", {"T": 6}, {"eta": [4.0, 8.0]})
    validate_config(cfg)
    task_etas, _ = record_routing(monkeypatch)
    run(cfg)
    assert task_etas == [4.0, 8.0]
    # The task checks eta * H * B >= 8, so the axis value is what it saw.
    cfg["sweep"]["axes"] = {"eta": [1.0]}
    with pytest.raises(ConfigError, match="eta\\*H\\*B >= 8"):
        run(cfg)


def test_axis_reaches_train_field_the_learner_reads(tmp_path, monkeypatch):
    # sgd_vanilla reads eta: the axis sets the step size, and the task keeps
    # the eta of its params.
    cfg = sgd_lower_config(tmp_path, "sgd_vanilla", {"T": 6},
                           {"eta": [0.02, 0.1]})
    task_etas, train_etas = record_routing(monkeypatch)
    run(cfg)
    assert train_etas == [0.02, 0.1]
    assert task_etas == [4.0, 4.0]


def test_ignored_axis_without_task_parameter_is_refused(tmp_path):
    # sgd_lower has no parameter K, and mle ignores that train field.
    cfg = sgd_lower_config(tmp_path, "mle", {"T": 6}, {"K": [1, 2]})
    with pytest.raises(ConfigError, match="ignores"):
        validate_config(cfg)
    # heterogeneous_kl has no eta parameter.
    cfg = base_config(tmp_path)
    cfg["learner"] = {"name": "mle", "train": {"T": 6}}
    with pytest.raises(ConfigError, match="ignores"):
        validate_config(cfg)


def sweep_config(tmp_path, task, learner, train, axes):
    cfg = base_config(tmp_path / "out")
    cfg["task"] = task
    cfg["learner"] = {"name": learner, "train": train}
    cfg["sweep"] = {"axes": axes, "seeds": [1, 2]}
    return cfg


HK = {"name": "heterogeneous_kl", "params": {"n": 5, "H": 3}}
LATE_FAILURES = {
    "graph task": ({"name": "graph_teaser", "params": {"L": 2, "m": 16}},
                   "sgd_vanilla", {"eta": 0.1, "T": 4}, {}, "feature map"),
    "bad task parameter": ({"name": "bernoulli", "params": {"p_star": 7}},
                           "mle", {"T": 4}, {}, "bad parameters"),
    "bad task axis value": (
        {"name": "sgd_lower", "params": {"variant": "large_eta", "H": 2,
                                         "B": 1.0, "eta": 4.0}},
        "mle", {"T": 4}, {"eta": [4.0, 1.0]}, "eta\\*H\\*B >= 8"),
    "invalid train value": (HK, "sgd_vanilla", {"eta": 0.1, "T": 0}, {},
                            "T must be >= 1 and an integer"),
    "invalid train axis value": (HK, "sgd_vanilla", {"T": 4},
                                 {"eta": [0.1, -1.0]},
                                 "eta must be > 0 and finite"),
    "train value of the wrong type": (HK, "sgd_normalized",
                                      {"eta": 0.1, "lam": 1.0, "T": 4},
                                      {"K": [1, "2"]}, "bad train values"),
    "train field the learner ignores": (HK, "sgd_token", {"T": 4, "K": 2},
                                        {}, "ignores"),
}


@pytest.mark.parametrize("case", sorted(LATE_FAILURES))
def test_validation_fails_before_any_output(tmp_path, monkeypatch, case):
    task, learner, train, axes, match = LATE_FAILURES[case]
    cfg = sweep_config(tmp_path, task, learner, train, axes)
    with pytest.raises(ConfigError, match=match):
        validate_config(cfg)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a job started")
    monkeypatch.setattr(harness, "run_learner", must_not_run)
    with pytest.raises(ConfigError, match=match):
        run(cfg)
    assert not os.path.exists(cfg["out_dir"])


def test_validation_builds_each_distinct_task_point_once(tmp_path,
                                                         monkeypatch):
    built = []
    real_build = harness._build_task

    def build(name, params):
        built.append(params["eta"])
        return real_build(name, params)
    monkeypatch.setattr(harness, "_build_task", build)
    # The eta axis reaches the task under mle; the T axis the learner.
    cfg = sweep_config(tmp_path,
                       {"name": "sgd_lower",
                        "params": {"variant": "large_eta", "H": 2, "B": 1.0,
                                   "eta": 4.0}},
                       "mle", {"T": 4}, {"eta": [4.0, 8.0], "T": [2, 3, 4]})
    validate_config(cfg)
    assert built == [4.0, 8.0]
