"""Span recorder for the traced run, installed from outside covkit.

``instrumented(recorder)`` replaces the public functions and methods listed
in SPANS with wrappers that record one span per call: name, start, end,
parent and an integer amount (responses drawn, trials, examples...).  Each
thread keeps its own buffers and parent stack, so spans from a harness
worker pool nest correctly without a lock.  Functions that other covkit
modules import by value (``from .metrics import seq_kl``) are replaced in
every namespace that holds them, including dict values such as
``harness.TASKS``; everything is restored on exit.

``layer_metrics`` turns the spans of one traced round into the per-layer
metrics listed in README.md.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import sys
import threading
import time

import numpy as np


def _mode_is_exact(pos):
    def amount(args, kwargs, result):
        return int(kwargs.get("mode", args[pos] if len(args) > pos
                              else "exact") == "exact")
    return amount


def _exact(args, kwargs, result):
    return 1


def _examples(args, kwargs, result):
    return result.n_examples


def _drawn(args, kwargs, result):
    return len(result) if hasattr(result, "shape") else 1


def _trials(args, kwargs, result):
    return kwargs["trials"] if "trials" in kwargs else args[5]


def _k_times_n(args, kwargs, result):
    return len(args[0]) * len(args[1])


# (module, attribute or Class.method, span name, amount from the call)
SPANS = [
    ("harness", "run", "harness.run", None),
    ("harness", "build_task", "harness.build_task", None),
    ("harness", "run_learner", "harness.run_learner", None),
    ("harness", "checkpoint_metrics", "harness.checkpoint_metrics", None),
    ("training", "sgd_vanilla", "training.sgd_vanilla", _examples),
    ("training", "sgd_normalized", "training.sgd_normalized", _examples),
    ("training", "sgd_token", "training.sgd_token", _examples),
    ("training", "sgd_truncated_distill", "training.sgd_truncated", _examples),
    ("training", "mle_fit", "training.mle_fit", None),
    ("metrics", "seq_kl", "metrics.seq_kl", _mode_is_exact(3)),
    ("metrics", "seq_ce", "metrics.seq_ce", _mode_is_exact(3)),
    ("metrics", "hellinger_sq", "metrics.hellinger_sq", _exact),
    ("metrics", "stopped_kl", "metrics.stopped_kl", _mode_is_exact(4)),
    ("metrics", "stepwise_hellinger_tail", "metrics.stepwise_hellinger_tail",
     _exact),
    ("metrics", "coverage_exact", "metrics.coverage_exact", _exact),
    ("metrics", "coverage_sup_log", "metrics.coverage_sup_log", _exact),
    ("metrics", "coverage_mc", "metrics.coverage_mc", None),
    ("metrics", "onpolicy_cov_estimate", "metrics.onpolicy_cov_estimate",
     None),
    ("models", "LinearARModel.next_dist", "models.next_dist", None),
    ("models", "TabularModel.next_dist", "models.next_dist", None),
    ("models", "LinearARModel.step_dist", "models.step_dist", None),
    ("models", "TabularModel.step_dist", "models.step_dist", None),
    ("models", "grad_logprob", "models.grad", None),
    ("models", "grad_logprob_token", "models.grad", None),
    ("core", "Policy.logprob", "core.logprob", None),
    ("core", "Policy.sample", "core.sample", _drawn),
    ("core", "Policy.sample_many", "core.sample", _drawn),
    ("decoding", "best_of_n", "decoding.best_of_n", None),
    ("decoding", "bon_regret", "decoding.bon_regret", _trials),
    ("decoding", "AdversarialReward.__call__", "decoding.reward", None),
    ("selection", "select_ce", "selection.select_ce", _k_times_n),
    ("selection", "simple_tournament", "selection.simple_tournament",
     _k_times_n),
    ("selection", "offset_tournament", "selection.offset_tournament",
     _k_times_n),
    ("cli", "main", "cli.main", None),
    ("cli", "load_policy", "cli.load", None),
    ("cli", "load_jsonl", "cli.load", None),
    ("cli", "_load_task_file", "cli.load", None),
    ("tasks", "bernoulli_task", "tasks.build", None),
    ("tasks", "heterogeneous_kl_instance", "tasks.build", None),
    ("tasks", "sgd_lower_instance", "tasks.build", None),
    ("tasks", "sigma_star_instance", "tasks.build", None),
    ("tasks", "misspec_instance", "tasks.build", None),
]

# Counted without a span: (module, Class.method, counter name).
COUNTS = [("core", "Trajectory.__post_init__", "core.trajectories")]

EXACT_METRICS = ["seq_kl", "seq_ce", "hellinger_sq", "stopped_kl",
                 "stepwise_hellinger_tail", "coverage_exact",
                 "coverage_sup_log"]
METRIC_FNS = EXACT_METRICS + ["coverage_mc", "onpolicy_cov_estimate"]
RULES = ["select_ce", "simple_tournament", "offset_tournament"]


class _Buffer:
    """Spans of one thread, in start order; parent is an index or -1."""

    def __init__(self):
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.amount = array.array("q")
        self.stack = []
        self.counts = {}


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self.buffers = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            self.buffers.append(buf)
        return buf

    def span(self, name, fn, amount):
        nid = self.name_id(name)
        clock, buffer = time.perf_counter, self.buffer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b = buffer()
            i = len(b.start)
            b.name.append(nid)
            b.parent.append(b.stack[-1] if b.stack else -1)
            b.amount.append(0)
            b.end.append(0.0)
            b.stack.append(i)
            b.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                b.end[i] = clock()
                b.stack.pop()
            if amount is not None:
                b.amount[i] = amount(args, kwargs, result)
            return result
        return wrapper

    def counter(self, name, fn):
        buffer = self.buffer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = buffer().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def arrays(self):
        """All spans as numpy arrays; parents are global indices."""
        cols = {k: [] for k in ("thread", "name", "parent", "start", "end",
                                "amount")}
        base = 0
        for t, b in enumerate(self.buffers):
            n = len(b.start)
            parent = np.frombuffer(b.parent, dtype=np.int32).astype(np.int64)
            cols["thread"].append(np.full(n, t))
            cols["parent"].append(np.where(parent >= 0, parent + base, -1))
            for k in ("name", "start", "end", "amount"):
                cols[k].append(np.frombuffer(getattr(b, k),
                                             dtype=getattr(b, k).typecode))
            base += n
        return {k: np.concatenate(v) if v else np.zeros(0)
                for k, v in cols.items()}

    def counts(self):
        out = {}
        for b in self.buffers:
            for k, v in b.counts.items():
                out[k] = out.get(k, 0) + v
        return out


def _covkit_namespaces():
    return [m for n, m in list(sys.modules.items())
            if n == "covkit" or n.startswith("covkit.")]


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Install span wrappers on covkit for the duration of the block."""
    restore = []

    def patch_method(mod, attr, make):
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, make(orig))
        restore.append((setattr, cls, meth, orig))

    def patch_function(orig, new):
        for ns in _covkit_namespaces():
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, new)
                    restore.append((setattr, ns, key, orig))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = new
                            restore.append((dict.__setitem__, value, k, orig))

    try:
        for mod_name, attr, name, amount in SPANS:
            mod = importlib.import_module("covkit." + mod_name)
            make = lambda fn: rec.span(name, fn, amount)
            if "." in attr:
                patch_method(mod, attr, make)
            else:
                orig = getattr(mod, attr)
                patch_function(orig, make(orig))
        for mod_name, attr, name in COUNTS:
            mod = importlib.import_module("covkit." + mod_name)
            patch_method(mod, attr, lambda fn: rec.counter(name, fn))
        yield rec
    finally:
        for setter, obj, key, orig in reversed(restore):
            setter(obj, key, orig)


def _has_ancestor(parent, mask):
    """For each span, whether some proper ancestor is in `mask`."""
    out = np.zeros(len(parent), dtype=bool)
    a = parent.copy()
    live = a >= 0
    while live.any():
        out[live] |= mask[a[live]]
        a[live] = parent[a[live]]
        live = a >= 0
    return out


def _union_length(intervals):
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (cur_e - cur_s if cur_e is not None else 0.0)


def layer_metrics(rec: Recorder, cpu_s: float, wall_s: float,
                  workers: int) -> dict:
    """Per-layer metrics of one traced round (see README.md).

    `cpu_s` and `wall_s` are the process CPU time and wall time of the
    round, which the harness's CPU utilisation is computed from.
    """
    s = rec.arrays()
    names = rec.names
    name, parent = s["name"].astype(np.int64), s["parent"]
    dur = s["end"] - s["start"]
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    self_t = dur - child

    def ids(*wanted):
        return [i for i, nm in enumerate(names) if nm in wanted]

    def mask(*wanted):
        return np.isin(name, ids(*wanted))

    def prefixed(prefix):
        return np.isin(name, [i for i, nm in enumerate(names)
                              if nm.startswith(prefix)])

    def outer(m):
        return m & ~_has_ancestor(parent, m)

    out = {}
    calls = lambda m: int(m.sum())
    secs = lambda m, v=self_t: float(v[m].sum())

    # harness: a job runs from build_task to the next checkpoint_metrics
    # with the same parent (the run span, or nothing in a pool thread).
    runs = np.flatnonzero(mask("harness.run"))
    run_id = ids("harness.run")
    starts = mask("harness.build_task") & (
        ~has_parent | np.isin(name[np.maximum(parent, 0)], run_id))
    ends = np.flatnonzero(mask("harness.checkpoint_metrics"))
    jobs = []
    for i in np.flatnonzero(starts):
        later = ends[(ends > i) & (parent[ends] == parent[i])
                     & (s["thread"][ends] == s["thread"][i])]
        if later.size:
            jobs.append((s["start"][i], s["end"][later[0]]))
    run_start = np.sort(s["start"][runs])
    wait = [js - run_start[np.searchsorted(run_start, js, "right") - 1]
            for js, _ in jobs]
    emit = sum(s["end"][r] - s["start"][r] - _union_length(
        [(a, b) for a, b in jobs if s["start"][r] <= a <= s["end"][r]])
        for r in runs)
    out["harness.jobs"] = len(jobs)
    out["harness.job_s"] = float(np.median([b - a for a, b in jobs])) \
        if jobs else 0.0
    out["harness.job_wait_s"] = float(sum(wait))
    out["harness.emit_s"] = float(emit)
    out["harness.cpu_util"] = cpu_s / (wall_s * workers) if runs.size else 0.0

    # training
    learn = prefixed("training.")
    out["training.self_s"] = secs(learn)
    examples = int(s["amount"][learn].sum())
    learn_wall = secs(outer(learn), dur)
    out["training.examples"] = examples
    out["training.examples_per_s"] = examples / learn_wall if learn_wall else 0.0

    # metrics
    for fn in METRIC_FNS:
        m = mask("metrics." + fn)
        out[f"metrics.{fn}.calls"] = calls(m)
        out[f"metrics.{fn}.self_s"] = secs(m)
    exact = mask(*["metrics." + f for f in EXACT_METRICS]) & (s["amount"] == 1)
    n_exact = calls(outer(exact))
    cond = mask("models.next_dist") & _has_ancestor(parent, exact)
    out["metrics.conditionals_per_call"] = calls(cond) / n_exact \
        if n_exact else 0.0

    # models and core
    for key in ("models.next_dist", "models.step_dist", "models.grad",
                "core.logprob", "core.sample"):
        m = mask(key)
        out[key + ".calls"] = calls(m)
        out[key + ".self_s"] = secs(m)
    sample = mask("core.sample")
    drawn = outer(sample)
    out["core.responses_drawn"] = int(s["amount"][drawn].sum())
    out["core.trajectories"] = rec.counts().get("core.trajectories", 0)

    # decoding
    bon = mask("decoding.bon_regret")
    trials = int(s["amount"][bon].sum())
    bon_wall = secs(bon, dur)
    in_bon = _has_ancestor(parent, mask("decoding.best_of_n"))
    reward = mask("decoding.reward")
    drawn_in_bon = int(s["amount"][drawn & in_bon].sum())
    out["decoding.bon_regret.self_s"] = secs(bon)
    out["decoding.trials_per_s"] = trials / bon_wall if bon_wall else 0.0
    out["decoding.reward.calls"] = calls(reward)
    out["decoding.reward_evals_per_draw"] = \
        calls(reward & in_bon) / drawn_in_bon if drawn_in_bon else 0.0

    # selection
    for rule in RULES:
        m = mask("selection." + rule)
        out[f"selection.{rule}.calls"] = calls(m)
        out[f"selection.{rule}.self_s"] = secs(m)
    tour = mask("selection.simple_tournament", "selection.offset_tournament")
    kn = int(s["amount"][outer(tour)].sum())
    lp_in_tour = calls(mask("core.logprob") & _has_ancestor(parent, tour))
    out["selection.logprob_per_example"] = lp_in_tour / kn if kn else 0.0

    # cli and tasks
    out["cli.load_s"] = secs(outer(mask("cli.load")), dur)
    build = mask("tasks.build")
    out["tasks.build.calls"] = calls(build)
    out["tasks.build_s"] = secs(outer(build), dur)
    return out
