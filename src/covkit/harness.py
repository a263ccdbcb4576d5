"""Experiment harness: validated configs, seeded sweeps, CSV emission.

A config describes one task x learner pair plus sweep axes (parameter lists
and a seed list).  Every (sweep point, seed) job owns a derived seed subtree
so outputs are byte-identical whatever stack a job trains in.  Under
a learner with a stacked step (`STACKED`), the jobs of one task point that
share T, K and checkpoint_every train as theta stacks of up to
`STACK_ROWS` jobs (`training.train_stack`), each job on its own dataset
draw; mle and sgd_truncated train job by job.  On a product task a
stack's exact metrics come from one `StackLaw`.  In mc mode a
checkpoint's seq KL and coverage share one draw; in exact mode the
preflight (`check_exact_work`) and the product-prompt test
(`product_steps`) are those of `metrics`.  Emitted artifacts: per-run
``timeseries.csv`` and ``summary.json`` plus an aggregate ``sweep.csv``
with medians and 1/16-15/16 quantile bands.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import time

import numpy as np

from . import tasks as _tasks
from . import training
from .core import check_number, sample_dataset, save_jsonl
from .metrics import (MetricReport, PairLaw, StackLaw, check_exact_work,
                      mc_report, product_steps)
from .models import LinearARModel
from .seeding import SeedTree
from .training import RunRecord, TrainConfig

CSV_VERSION = "covkit-csv-v1"
CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@contextlib.contextmanager
def config_errors():
    """Re-raise any error of the block (or, as a decorator, of the
    function) as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except Exception as e:
        raise ConfigError(str(e)) from e


def _graph_task(family, **params):
    from .graphs import (HORIZON_MIX, TEASER_MIX, GraphConfig,
                         GraphPathPolicy, mixture_prompt_sampler)
    check_keys(params, {"m", "L", "nodes_per_layer", "mix"}, "graph params")
    mix = params.pop("mix", None)
    cfg = GraphConfig(**params)
    if mix is None:
        mix = TEASER_MIX if family == "teaser" else HORIZON_MIX
    piD = GraphPathPolicy(m=cfg.m, horizon=cfg.L + 2, family=family)
    mu = mixture_prompt_sampler(mix, cfg, family)
    return _tasks.TaskInstance(mu=mu, piD=piD,
                               metadata={"family": family, "mix": mix})


TASKS = {
    "bernoulli": _tasks.bernoulli_task,
    "heterogeneous_kl": _tasks.heterogeneous_kl_instance,
    "sgd_lower": _tasks.sgd_lower_instance,
    "sigma_star": _tasks.sigma_star_instance,
    "misspec": lambda **kw: _tasks.misspec_instance(**kw)[0],
    "graph_teaser": lambda **kw: _graph_task("teaser", **kw),
    "graph_horizon": lambda **kw: _graph_task("horizon", **kw),
}

_TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}
_SGD_FIELDS = frozenset({"eta", "T", "checkpoint_every", "theta0"})
# The train fields that the jobs of one theta stack share.
_STACK_FIELDS = frozenset({"T", "K", "checkpoint_every"})

# Learner name -> (function in covkit.training, TrainConfig fields it reads).
# A learner without a stacked step trains through its function, looked up
# by name on each call, so a wrapper installed on the module attribute
# (perfbench's traced run) sees every call.
LEARNERS = {
    "mle": ("mle_fit", frozenset({"T"})),
    "sgd_vanilla": ("sgd_vanilla", _SGD_FIELDS),
    "sgd_normalized": ("sgd_normalized",
                       _SGD_FIELDS | {"K", "lam", "N", "sigma_star_sq"}),
    "sgd_token": ("sgd_token", _SGD_FIELDS),
    "sgd_truncated": ("sgd_truncated_distill",
                      _SGD_FIELDS | {"A", "sigma_star_sq"}),
}

# Learner name -> the step builder that `training.train_stack` steps a
# theta stack with, for the learners with a stacked step.  A stack holds
# all its jobs' datasets at once (T * K * H token ints each, and token SGD
# a stacked copy), so STACK_ROWS caps it.  Per job, stacks of 16 trained
# `sweep_exact`'s task (T = 128) 8-9 times as fast as one job alone, and
# stacks of 32 only 1.5-1.7 times as fast again (one core of an Intel
# Xeon).
STACKED = {"sgd_vanilla": training.sgd_vanilla_steps,
           "sgd_normalized": training.sgd_normalized_steps,
           "sgd_token": training.sgd_token_steps}
STACK_ROWS = 16

_TOP_KEYS = {"version", "task", "learner", "metrics", "sweep", "out_dir",
             "root_seed"}
# What `validate_config` fills into a metrics block.
_METRIC_DEFAULTS = {"n_grid": [2.0, 8.0, 64.0], "mode": "exact",
                   "n_samples": 2000, "delta": 0.05}


def json_object(d, where: str, required=()) -> dict:
    """A copy of the JSON object d; a ConfigError naming `where` for any
    other value, or for an object without one of the keys `required`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got "
                          f"{type(d).__name__}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{where} has no {key!r}")
    return dict(d)


def check_keys(d, allowed, where):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def check_n_grid(values, integers: bool = False) -> np.ndarray:
    """The N grid `values` (a config's metrics.n_grid, or the CLI's
    comma-separated --N-grid text) as a float array: a nonempty list of
    numbers >= 1 (no NaN), whole numbers for `integers` (Best-of-N sizes),
    else strictly increasing."""
    if isinstance(values, str):
        try:
            values = [float(v) for v in values.split(",")]
        except ValueError:
            raise ConfigError(f"bad N grid {values!r}")
    if not isinstance(values, list) or not values or \
            not all(type(v) in (int, float) for v in values):
        raise ConfigError(f"N grid must be a nonempty list of numbers: "
                          f"{values!r}")
    grid = np.array(values, dtype=float)
    if not (grid >= 1).all():
        raise ConfigError(f"N grid values must be >= 1: {values!r}")
    if integers and not (np.isfinite(grid) & (grid == np.floor(grid))).all():
        raise ConfigError(f"N grid values must be integers: {values!r}")
    if not integers and (np.diff(grid) <= 0).any():
        raise ConfigError(f"N grid must be sorted with no value repeated: "
                          f"{values!r}")
    return grid


def _check_metrics(metrics: dict) -> dict:
    """Refuse a metrics block that the metric calls of a job would; return
    a copy with `_METRIC_DEFAULTS` filled in."""
    check_keys(metrics, set(_METRIC_DEFAULTS), "metrics")
    metrics = {**_METRIC_DEFAULTS, **metrics}
    if metrics["mode"] not in ("exact", "mc"):
        raise ConfigError("metrics.mode must be 'exact' or 'mc'")
    check_n_grid(metrics["n_grid"])
    metrics["n_grid"] = list(metrics["n_grid"])
    if metrics["mode"] == "mc":
        check_number("metrics.n_samples", metrics["n_samples"], 2,
                     integer=True)
    check_number("metrics.delta", metrics["delta"], 0, 1, lo_open=True,
                 hi_open=True)
    return metrics


@config_errors()
def validate_config(cfg: dict) -> dict:
    """Fail-closed validation; returns a normalized copy.  It also checks
    the metrics block, builds the task at each point of the task axes
    (`_check_task`) and sizes its exact metrics (`check_exact_work`), and
    builds the `TrainConfig` at each point of the train axes and checks
    it against the learner at every task point
    (`training.resolve_config`), so a config that a job would refuse fails
    before `run` writes anything.  Every error it meets is raised as a
    ConfigError."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    check_keys(cfg, _TOP_KEYS, "config")
    version = cfg.get("version")
    if type(version) is not int or version != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    for key in ("task", "learner", "out_dir", "root_seed"):
        if key not in cfg:
            raise ConfigError(f"missing config key {key!r}")
    check_number("root_seed", cfg["root_seed"], 0, integer=True)
    if not isinstance(cfg["out_dir"], str) or not cfg["out_dir"]:
        raise ConfigError(f"out_dir must be a nonempty string, got "
                          f"{cfg['out_dir']!r}")
    task = json_object(cfg["task"], "task")
    check_keys(task, {"name", "params"}, "task")
    # A name is looked up only once it is a string: a list or an object
    # is unhashable and would fail the lookup with a bare TypeError.
    if not isinstance(task.get("name"), str) or task["name"] not in TASKS:
        raise ConfigError(f"unknown task {task.get('name')!r}")
    learner = json_object(cfg["learner"], "learner")
    check_keys(learner, {"name", "train"}, "learner")
    if not isinstance(learner.get("name"), str) or \
            learner["name"] not in LEARNERS:
        raise ConfigError(f"unknown learner {learner.get('name')!r}")
    train = json_object(learner.get("train", {}), "learner.train")
    check_keys(train, _TRAIN_FIELDS, "learner.train")
    ignored = _TRAIN_FIELDS - LEARNERS[learner["name"]][1]
    if ignored & set(train):
        raise ConfigError(f"learner {learner['name']!r} ignores train "
                          f"fields {sorted(ignored & set(train))}")
    metrics = _check_metrics(json_object(cfg.get("metrics", {}), "metrics"))
    sweep = json_object(cfg.get("sweep", {}), "sweep")
    check_keys(sweep, {"axes", "seeds"}, "sweep")
    axes = json_object(sweep.get("axes", {}), "sweep.axes")
    seeds = sweep.get("seeds", [0])
    # A seed names a run directory and a seed subtree: distinct ints >= 0.
    for i, v in enumerate(seeds if isinstance(seeds, list) else ()):
        check_number(f"sweep.seeds[{i}]", v, 0, integer=True)
    if not (isinstance(seeds, list) and seeds and
            len(set(seeds)) == len(seeds)):
        raise ConfigError(f"sweep.seeds must be a nonempty list of distinct "
                          f"integers, got {seeds!r}")
    task_params = json_object(task.get("params", {}), "task.params")
    for name, values in axes.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {name!r} must be a nonempty list")
        if name not in _TRAIN_FIELDS and name not in task_params:
            raise ConfigError(f"sweep axis {name!r} matches neither a "
                              "train field nor a task parameter")
        if name in ignored and name not in task_params:
            raise ConfigError(f"sweep axis {name!r}: learner "
                              f"{learner['name']!r} ignores that train field")
    fn_name, reads = LEARNERS[learner["name"]]
    task_axes = [a for a in axes if a not in reads]
    featmaps = []
    for values in itertools.product(*(axes[a] for a in task_axes)):
        params = dict(task_params, **dict(zip(task_axes, values)))
        point = _build_task(task["name"], params)
        featmaps.append(_check_task(point, metrics))
        if metrics["mode"] == "exact":
            try:
                check_exact_work(point.piD, point.featmap, point.mu.items())
            except ValueError as e:
                raise ConfigError(f"exact metrics: {e}")
    train_axes = [a for a in axes if a in reads]
    for values in itertools.product(*(axes[a] for a in train_axes)):
        try:
            config = TrainConfig(**dict(train, **dict(zip(train_axes,
                                                           values))))
            for featmap in featmaps:
                training.resolve_config(fn_name, config, featmap)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad train values: {e}")
    return {
        "version": CONFIG_VERSION,
        "task": {"name": task["name"], "params": task_params},
        "learner": {"name": learner["name"], "train": train},
        "metrics": metrics,
        "sweep": {"axes": axes, "seeds": list(seeds)},
        "out_dir": cfg["out_dir"],
        "root_seed": cfg["root_seed"],
    }


def build_task(name: str, params: dict):
    """Task `name` at `params`.  A job starts with this call (the traced
    run counts jobs by it), so `validate_config` calls `_build_task`."""
    return _build_task(name, params)


def _build_task(name: str, params: dict):
    if not isinstance(name, str) or name not in TASKS:
        raise ConfigError(f"unknown task {name!r}")
    try:
        return TASKS[name](**params)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad parameters for task {name!r}: {e}")


def _check_task(task, metrics_spec: dict):
    """Refuse a task that training or the metrics could not use; return
    its feature map."""
    if task.featmap is None:
        raise ConfigError("task has no feature map; cannot train")
    if metrics_spec["mode"] == "exact" and not hasattr(task.mu, "items"):
        raise ConfigError("exact metrics need an enumerable prompt "
                          "distribution; use metrics.mode = 'mc'")
    return task.featmap


def run_learner(name: str, tasks, trains, rngs) -> list:
    """Train learner `name` on jobs at one task point: job j draws one
    `sample_dataset` of T * K examples from rngs[j] on tasks[j] (which
    passed `_check_task`) and trains with trains[j].  A learner in
    `STACKED` trains all the jobs as one theta stack (`training.
    train_stack`); any other trains each job through its function.
    Returns one RunRecord per job; its wall_clock is the job's own draw
    plus an equal share of the call's training: its own training when the
    call has one job, as `run` makes it for a learner outside `STACKED`."""
    datasets, draws = [], []
    for task, train, rng in zip(tasks, trains, rngs):
        t0 = time.perf_counter()
        datasets.append(sample_dataset(task.piD, task.mu, train.T * train.K,
                                       rng))
        draws.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    if name in STACKED:
        recs = training.train_stack(STACKED[name], datasets, tasks[0].featmap,
                                    trains)
    else:
        recs = [_fit(name, task, dataset, train)
                for task, dataset, train in zip(tasks, datasets, trains)]
    share = (time.perf_counter() - t0) / len(recs)
    for rec, draw in zip(recs, draws):
        rec.wall_clock = draw + share
    return recs


def _fit(name: str, task, dataset, train: TrainConfig) -> RunRecord:
    """One job of learner `name` (mle or sgd_truncated) on its dataset."""
    fit = getattr(training, LEARNERS[name][0])
    if name == "mle":
        res = fit(dataset, task.featmap)
        rec = RunRecord(checkpoints=[(train.T, res.theta.copy())],
                        final_theta=res.theta, n_examples=len(dataset))
        if not res.converged:
            rec.flags.append("mle-not-converged")
        return rec
    return fit(dataset, task.piD, task.featmap, train)


def _stack_reports(task, recs, metrics_spec: dict):
    """Exact MetricReports of each record of a stack at one task point,
    from one `StackLaw` of all their checkpoints, when the metrics are
    exact and every prompt of positive weight is a product prompt; else
    None.  StackLaw rows are independent, so each record's reports are
    those of a law of its own checkpoints, bit for bit."""
    if metrics_spec["mode"] != "exact" or not all(
            w == 0.0 or product_steps(task.piD, task.featmap, x) is not None
            for x, w in task.mu.items()):
        return None
    law = StackLaw(task.piD, [theta for rec in recs
                              for _, theta in rec.checkpoints],
                   task.featmap, task.mu.items())
    reports = [MetricReport(float(kl), curve) for kl, curve in zip(
        law.seq_kl(), law.coverage(np.asarray(metrics_spec["n_grid"],
                                              float)))]
    out, lo = [], 0
    for rec in recs:
        out.append(reports[lo:lo + len(rec.checkpoints)])
        lo += len(rec.checkpoints)
    return out


def checkpoint_metrics(task, rec: RunRecord, metrics_spec: dict,
                       tree: SeedTree, reports=None):
    """MetricReport (seq KL + coverage curve) at every checkpoint, for the
    metrics block of a validated config.

    `reports` are the job's rows of its stack's `_stack_reports`, which the
    harness passes for exact metrics on a task whose prompts of positive
    weight are all product prompts.  Without them, exact metrics hold a
    `PairLaw` per checkpoint, which gives the same bits, and in mc mode
    checkpoint i makes one `mc_report` call on tree.child("metric", i)'s
    rng."""
    if reports is None:
        n_grid = np.asarray(metrics_spec["n_grid"], float)
        reports = []
        for i, (t, theta) in enumerate(rec.checkpoints):
            model = LinearARModel(theta, task.featmap, task.V, task.H)
            if metrics_spec["mode"] == "exact":
                law = PairLaw(task.piD, model, task.mu.items())
                reports.append(MetricReport(law.seq_kl(),
                                            law.coverage(n_grid)))
            else:
                reports.append(mc_report(
                    task.piD, model, task.mu, n_grid,
                    metrics_spec["n_samples"], tree.child("metric", i).rng(),
                    delta=metrics_spec["delta"]))
    rec.metrics = reports
    return reports


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return f"{v:.12g}"
    return str(v)


def timeseries_csv(rec: RunRecord, n_grid) -> str:
    cols = ["t", "n_samples", "seq_kl"] + [f"pcov_{g:g}" for g in n_grid]
    lines = [f"# {CSV_VERSION}", ",".join(cols)]
    for (t, _), rep in zip(rec.checkpoints, rec.metrics):
        row = [str(t), str(rep.coverage.n_samples), _fmt(rep.seq_kl)]
        row += [_fmt(v) for v in rep.coverage.values]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _quantiles(finals):
    """(m, 3) median, 1/16 and 15/16 quantiles of each column of the
    (seeds, m) array finals, as Python floats, from one np.quantile call."""
    return np.quantile(np.asarray(finals, dtype=float),
                       [0.5, 1.0 / 16.0, 15.0 / 16.0], axis=0).T.tolist()


def run(cfg: dict) -> str:
    """Execute a validated config, one stack after another; return
    out_dir."""
    cfg = validate_config(cfg)
    axes = cfg["sweep"]["axes"]
    seeds = cfg["sweep"]["seeds"]
    axis_names = sorted(axes)
    points = list(itertools.product(*(axes[a] for a in axis_names)))
    metrics_spec = cfg["metrics"]
    n_grid = np.asarray(metrics_spec["n_grid"], float)
    out_dir = cfg["out_dir"]
    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)

    learner = cfg["learner"]["name"]
    reads = LEARNERS[learner][1]

    def inputs(p_idx):
        """(task params, train kwargs) of sweep point p_idx: an axis goes
        to the learner when it reads that train field, else to the task
        parameter of that name."""
        task_params = dict(cfg["task"]["params"])
        train_kwargs = dict(cfg["learner"]["train"])
        for name, value in zip(axis_names, points[p_idx]):
            if name in reads:
                train_kwargs[name] = value
            else:
                task_params[name] = value
        return task_params, train_kwargs

    # Under a learner in STACKED, the jobs of one task point that share T,
    # K and checkpoint_every (the axes those come from, by value index)
    # train as theta stacks of up to STACK_ROWS jobs; any other learner
    # trains job by job.
    rows = STACK_ROWS if learner in STACKED else 1
    shared = [i for i, name in enumerate(axis_names)
              if name not in reads or name in _STACK_FIELDS]
    index = list(itertools.product(*(range(len(axes[a]))
                                     for a in axis_names)))
    groups = {}
    for p_idx in range(len(points)):
        key = tuple(index[p_idx][i] for i in shared)
        groups.setdefault(key, []).extend(
            (p_idx, s_idx) for s_idx in range(len(seeds)))
    stacks = [members[i:i + rows] for members in groups.values()
              for i in range(0, len(members), rows)]
    results = {}
    for members in stacks:
        tasks, trains, trees = [], [], []
        for p_idx, s_idx in members:
            task_params, train_kwargs = inputs(p_idx)
            tasks.append(build_task(cfg["task"]["name"], task_params))
            _check_task(tasks[-1], metrics_spec)
            trains.append(TrainConfig(**train_kwargs))
            trees.append(SeedTree(cfg["root_seed"]).child(
                "sweep", p_idx).child("seed", seeds[s_idx]))
        recs = run_learner(learner, tasks, trains,
                           [tree.child("train").rng() for tree in trees])
        stacked = _stack_reports(tasks[0], recs, metrics_spec)
        for j, (task, rec, tree) in enumerate(zip(tasks, recs, trees)):
            checkpoint_metrics(task, rec, metrics_spec, tree,
                               None if stacked is None else stacked[j])
        results.update(zip(members, recs))

    # Emission in fixed (sweep index, seed) order, after all stacks.
    sweep_rows = []
    for p_idx in range(len(points)):
        finals = []
        for s_idx in range(len(seeds)):
            rec = results[(p_idx, s_idx)]
            run_id = f"p{p_idx:03d}_s{seeds[s_idx]}"
            run_dir = os.path.join(out_dir, "runs", run_id)
            os.makedirs(run_dir, exist_ok=True)
            with open(os.path.join(run_dir, "timeseries.csv"), "w") as f:
                f.write(timeseries_csv(rec, n_grid))
            summary = rec.summary()
            summary["point"] = dict(zip(axis_names, points[p_idx]))
            summary["seed"] = seeds[s_idx]
            with open(os.path.join(run_dir, "summary.json"), "w") as f:
                json.dump(summary, f, indent=1, sort_keys=True)
            rep = rec.metrics[-1]
            finals.append([rep.seq_kl] + list(rep.coverage.values))
        row = [_fmt(v) for v in points[p_idx]]
        for column in _quantiles(finals):
            row += [_fmt(q) for q in column]
        sweep_rows.append(",".join(row))

    metric_names = ["seq_kl"] + [f"pcov_{g:g}" for g in n_grid]
    cols = list(axis_names)
    for name in metric_names:
        cols += [f"{name}_median", f"{name}_q1_16", f"{name}_q15_16"]
    with open(os.path.join(out_dir, "sweep.csv"), "w") as f:
        f.write(f"# {CSV_VERSION}\n" + ",".join(cols) + "\n")
        f.write("\n".join(sweep_rows) + "\n")
    return out_dir


def gen_data(task_name: str, params: dict, n: int, seed: int, out_path: str,
             header_path=None):
    """Sample a task's dataset to JSONL, and its header JSON if asked."""
    task = build_task(task_name, params)
    ds = sample_dataset(task.piD, task.mu, n,
                        SeedTree(seed).child("gen-data").rng())
    save_jsonl(ds, out_path)
    if header_path is not None:
        with open(header_path, "w") as f:
            json.dump({"H": ds.H, "V": ds.V, "n": n, "seed_info": {
                "task": task_name, "params": params, "seed": seed}}, f)
    return ds
