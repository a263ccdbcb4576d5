"""Experiment harness: validated configs, seeded sweeps, CSV emission.

A config describes one task x learner pair plus sweep axes (parameter lists
and a seed list).  Every (sweep point, seed) job owns a derived seed subtree
so outputs are byte-identical regardless of worker-thread count.  In mc
mode a checkpoint's seq KL and coverage share one draw.  Emitted artifacts:
per-run ``timeseries.csv`` and ``summary.json`` plus an aggregate
``sweep.csv`` with medians and 1/16-15/16 quantile bands.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import tasks as _tasks
from . import training
from .core import (check_enum_budget, check_number, sample_dataset,
                   save_jsonl)
from .metrics import (MetricReport, PairLaw, StackLaw, mc_report,
                      positive_weights, tree_walk)
from .models import LinearARModel
from .seeding import SeedTree
from .training import RunRecord, TrainConfig, policy_stream

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
    _check_keys(params, {"m", "L", "nodes_per_layer", "mix"}, "graph params")
    mix = params.pop("mix", None)
    cfg = GraphConfig(**params)
    if mix is None:
        mix = TEASER_MIX if family == "teaser" else HORIZON_MIX
    piD = GraphPathPolicy(m=cfg.m, horizon=cfg.L + 2, family=family)
    mu = mixture_prompt_sampler(mix, cfg)
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

# Learner name -> (function in covkit.training, TrainConfig fields it reads).
# The function is looked up by name on each call, so a wrapper installed on
# the module attribute (perfbench's traced run) sees every call.
LEARNERS = {
    "mle": ("mle_fit", frozenset({"T"})),
    "sgd_vanilla": ("sgd_vanilla", _SGD_FIELDS),
    "sgd_normalized": ("sgd_normalized",
                       _SGD_FIELDS | {"K", "lam", "N", "sigma_star_sq"}),
    "sgd_token": ("sgd_token", _SGD_FIELDS),
    "sgd_truncated": ("sgd_truncated_distill",
                      _SGD_FIELDS | {"A", "sigma_star_sq"}),
}

_TOP_KEYS = {"version", "task", "learner", "metrics", "sweep", "out_dir",
             "root_seed"}
# What `validate_config` fills into a metrics block.
_METRIC_DEFAULTS = {"n_grid": [2.0, 8.0, 64.0], "mode": "exact",
                   "n_samples": 2000, "delta": 0.05}


def _object(d, where) -> dict:
    """A copy of the JSON object d; ConfigError for any other value."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    return dict(d)


def _check_keys(d, allowed, where):
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
    _check_keys(metrics, set(_METRIC_DEFAULTS), "metrics")
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
    (`_check_task`) and sizes its exact metrics (`_check_exact_work`),
    and builds the `TrainConfig` at each point of the train axes and
    checks it against the learner at every task point
    (`training.resolve_config`), so a config that a job would refuse fails
    before `run` writes anything.  Every error it meets is raised as a
    ConfigError."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    version = cfg.get("version")
    if type(version) is not int or version != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    for key in ("task", "learner", "out_dir", "root_seed"):
        if key not in cfg:
            raise ConfigError(f"missing config key {key!r}")
    check_number("root_seed", cfg["root_seed"], 0, integer=True)
    task = cfg["task"]
    _check_keys(task, {"name", "params"}, "task")
    if task.get("name") not in TASKS:
        raise ConfigError(f"unknown task {task.get('name')!r}")
    learner = cfg["learner"]
    _check_keys(learner, {"name", "train"}, "learner")
    if learner.get("name") not in LEARNERS:
        raise ConfigError(f"unknown learner {learner.get('name')!r}")
    train = _object(learner.get("train", {}), "learner.train")
    _check_keys(train, _TRAIN_FIELDS, "learner.train")
    ignored = _TRAIN_FIELDS - LEARNERS[learner["name"]][1]
    if ignored & set(train):
        raise ConfigError(f"learner {learner['name']!r} ignores train "
                          f"fields {sorted(ignored & set(train))}")
    metrics = _check_metrics(cfg.get("metrics", {}))
    sweep = _object(cfg.get("sweep", {}), "sweep")
    _check_keys(sweep, {"axes", "seeds"}, "sweep")
    axes = _object(sweep.get("axes", {}), "sweep.axes")
    seeds = sweep.get("seeds", [0])
    # A seed names a run directory and a seed subtree: distinct ints >= 0.
    for i, v in enumerate(seeds if isinstance(seeds, list) else ()):
        check_number(f"sweep.seeds[{i}]", v, 0, integer=True)
    if not (isinstance(seeds, list) and seeds and
            len(set(seeds)) == len(seeds)):
        raise ConfigError(f"sweep.seeds must be a nonempty list of distinct "
                          f"integers, got {seeds!r}")
    task_params = _object(task.get("params", {}), "task.params")
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
            _check_exact_work(point)
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


def _walked(task, x) -> bool:
    """Whether the exact metrics walk prompt x: piD or the feature map is
    not a product there."""
    return task.piD.step_dist(x) is None or task.featmap.step_table(x) is None


def _check_exact_work(task):
    """Refuse a task point whose exact metrics would pass the enumeration
    budget.  A prompt where piD and the feature map are products counts
    comb(H + k - 1, k - 1) atoms, k the size of piD's step support (a bound
    on its distinct step log-ratios), and is not walked; any other prompt
    is then walked once under piD alone, which gathers the levels the pair
    walk would, on top of those atoms.  A checkpoint's `PairLaw` counts
    its walks first and its atoms after, within this bound, and a
    `StackLaw` counts the atoms of one checkpoint and takes its stack in
    chunks of at most the budget, so neither is refused at a point that
    passes here."""
    work, walked = 0, []
    try:
        for x, _ in positive_weights(task.mu.items()):
            if _walked(task, x):
                walked.append(x)
                continue
            k = int(np.count_nonzero(np.asarray(task.piD.step_dist(x)) > 0))
            work += math.comb(task.H + k - 1, k - 1)
        check_enum_budget("leaves + atoms (bound)", work)
        for x in walked:
            work += len(tree_walk(task.piD, x, spent=work)[0])
    except ValueError as e:
        raise ConfigError(f"exact metrics: {e}")


def run_learner(name: str, task, train: TrainConfig, rng) -> RunRecord:
    """Train learner `name` on a task that passed `_check_task`."""
    fit = getattr(training, LEARNERS[name][0])
    if name == "mle":
        t0 = time.perf_counter()
        dataset = sample_dataset(task.piD, task.mu, train.T, rng)
        res = fit(dataset, task.featmap, task.V, task.H)
        rec = RunRecord(checkpoints=[(train.T, res.theta.copy())],
                        final_theta=res.theta, n_examples=train.T,
                        wall_clock=time.perf_counter() - t0)
        if not res.converged:
            rec.flags.append("mle-not-converged")
        return rec
    teacher = (task.piD,) if name == "sgd_truncated" else ()
    return fit(policy_stream(task.piD, task.mu, rng), *teacher,
               task.featmap, task.V, task.H, train)


def checkpoint_metrics(task, rec: RunRecord, metrics_spec: dict, tree: SeedTree):
    """MetricReport (seq KL + coverage curve) at every checkpoint, for the
    metrics block of a validated config.

    Exact metrics of a task whose prompts of positive weight are all
    product prompts come from one `StackLaw` of the job's checkpoint
    stack, which computes piD's step rows and the composition table once;
    a task with a walked prompt holds a `PairLaw` per checkpoint.  Both
    give the same bits.  In mc mode checkpoint i makes one `mc_report`
    call on tree.child("metric", i)'s rng."""
    n_grid = np.asarray(metrics_spec["n_grid"], float)
    if metrics_spec["mode"] == "exact" and not any(
            _walked(task, x) for x, _ in positive_weights(task.mu.items())):
        law = StackLaw(task.piD, [theta for _, theta in rec.checkpoints],
                       task.featmap, task.mu.items())
        rec.metrics = [MetricReport(float(kl), curve) for kl, curve in
                       zip(law.seq_kl(), law.coverage(n_grid))]
        return rec.metrics
    reports = []
    for i, (t, theta) in enumerate(rec.checkpoints):
        model = LinearARModel(theta, task.featmap, task.V, task.H)
        if metrics_spec["mode"] == "exact":
            law = PairLaw(task.piD, model, task.mu.items())
            reports.append(MetricReport(law.seq_kl(), law.coverage(n_grid)))
        else:
            reports.append(mc_report(
                task.piD, model, task.mu, n_grid, metrics_spec["n_samples"],
                tree.child("metric", i).rng(), delta=metrics_spec["delta"]))
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
    """Execute a validated config on COVKIT_THREADS threads; return out_dir."""
    cfg = validate_config(cfg)
    threads = os.environ.get("COVKIT_THREADS", "1")
    with contextlib.suppress(ValueError):
        threads = int(threads)
    with config_errors():
        check_number("COVKIT_THREADS", threads, 1, integer=True)
    axes = cfg["sweep"]["axes"]
    seeds = cfg["sweep"]["seeds"]
    axis_names = sorted(axes)
    points = list(itertools.product(*(axes[a] for a in axis_names)))
    metrics_spec = cfg["metrics"]
    n_grid = np.asarray(metrics_spec["n_grid"], float)
    out_dir = cfg["out_dir"]
    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)

    reads = LEARNERS[cfg["learner"]["name"]][1]

    def job(p_idx, s_idx):
        point = points[p_idx]
        seed = seeds[s_idx]
        task_params = dict(cfg["task"]["params"])
        train_kwargs = dict(cfg["learner"]["train"])
        # An axis goes to the learner when it reads that train field, else
        # to the task parameter of that name.
        for name, value in zip(axis_names, point):
            if name in reads:
                train_kwargs[name] = value
            else:
                task_params[name] = value
        task = build_task(cfg["task"]["name"], task_params)
        _check_task(task, metrics_spec)
        train = TrainConfig(**train_kwargs)
        tree = SeedTree(cfg["root_seed"]).child("sweep", p_idx).child(
            "seed", seed)
        rec = run_learner(cfg["learner"]["name"], task, train,
                          tree.child("train").rng())
        checkpoint_metrics(task, rec, metrics_spec, tree)
        return rec

    jobs = [(p, s) for p in range(len(points)) for s in range(len(seeds))]
    if threads == 1:
        results = {ps: job(*ps) for ps in jobs}
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futs = {ps: pool.submit(job, *ps) for ps in jobs}
        results = {ps: f.result() for ps, f in futs.items()}

    # Emission in fixed (sweep index, seed) order regardless of scheduling.
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
