"""The benchmark's workloads.

`sweep_stream` is defined here but not listed in BENCHMARK.json; README.md
says why.

Each workload builds its inputs from the workload seed, drives covkit only
through public entry points (``harness.run``, ``cli.main``, ``metrics.*``)
and checks its own outputs against references in ``oracle.py``.  The
checks accept any correct order of random draws: they test exact values
against closed forms or brute force, and Monte Carlo values against the
statistical bounds they must satisfy.

A round is the workload's fixed work, split into ``steps``: callables run
in order, each returning its part of the round's output.  ``execute`` runs
one round; ``check`` takes the list of step outputs and returns one message
per failed operation.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import shutil

import numpy as np

from covkit import cli, harness, metrics
from covkit.models import TabularModel

import oracle

# covkit.core.enumerate_responses refuses larger response spaces.
EXACT_LEAF_BUDGET = 10 ** 6
CSV_VERSION = "# covkit-csv-v1"


class CheckError(Exception):
    """An output of covkit is wrong."""


def expect(cond, msg):
    if not cond:
        raise CheckError(msg)


def _describe(e):
    return f"{type(e).__name__}: {e}"


def _check_op(failures, label, fn, *args):
    """Run one operation's check; any exception counts as a failed op.

    Returns the check's result, or None if it failed."""
    try:
        return fn(*args)
    except Exception as e:  # a malformed output can raise anything
        failures.append(f"{label}: {_describe(e)}")
        return None


def read_timeseries(path, grid):
    """Rows (t, n_samples, seq_kl, [pcov...]) of a harness timeseries.csv."""
    with open(path) as f:
        lines = f.read().splitlines()
    cols = ["t", "n_samples", "seq_kl"] + [f"pcov_{g:g}" for g in grid]
    expect(len(lines) >= 3, f"{path}: no data rows")
    expect(lines[0] == CSV_VERSION, f"{path}: bad version line")
    expect(lines[1].split(",") == cols, f"{path}: bad header {lines[1]!r}")
    rows = []
    for line in lines[2:]:
        f = line.split(",")
        expect(len(f) == len(cols), f"{path}: ragged row {line!r}")
        rows.append((int(f[0]), int(f[1]), float(f[2]),
                     [float(v) for v in f[3:]]))
    return rows


def check_sweep_csv(path, axes, n_points, grid):
    with open(path) as f:
        lines = f.read().splitlines()
    cols = list(axes) + [f"{m}_{q}" for m in ["seq_kl"] +
                         [f"pcov_{g:g}" for g in grid]
                         for q in ("median", "q1_16", "q15_16")]
    expect(lines[0] == CSV_VERSION, "bad version line")
    expect(lines[1].split(",") == cols, f"bad header {lines[1]!r}")
    expect(len(lines) == 2 + n_points, f"expected {n_points} rows")
    for line in lines[2:]:
        f = line.split(",")
        expect(len(f) == len(cols), f"ragged row {line!r}")
        [float(v) for v in f]


def check_curve(kl, pcov, grid, exact):
    """Coverage lies in [0, 1], falls with N, and obeys the KL bound."""
    expect(all(0.0 <= v <= 1.0 for v in pcov), f"coverage {pcov} not in [0,1]")
    expect(all(b <= a + 1e-12 for a, b in zip(pcov, pcov[1:])),
           f"coverage {pcov} increases with N")
    if not exact or math.isinf(kl):
        return
    for N, v in zip(grid, pcov):
        if N > math.e:
            bound = kl / (math.log(N) - 1.0 + 1.0 / N)
            expect(v <= bound + 1e-9, f"Pcov_{N:g} = {v} > KL bound {bound}")


class Workload:
    """One workload: inputs built from the seed, a fixed round of work."""

    name = ""
    workers = 1     # COVKIT_THREADS during the round
    ops = 0         # operations per round

    def sizes(self) -> dict:
        """Input sizes for the preflight; `exact_leaves` is per exact call."""
        raise NotImplementedError

    def prepare(self):
        """Untimed clean-up before a round."""

    def steps(self) -> list:
        """The round's work as zero-argument callables, run in order."""
        raise NotImplementedError

    def execute(self):
        return [step() for step in self.steps()]

    def check(self, out) -> list:
        raise NotImplementedError


class _Sweep(Workload):
    """Common parts of the two `harness.run` workloads."""

    grid = [2.0, 8.0, 64.0]
    seeds = [0, 1, 2, 3]
    # Seeds per `harness.run` call.  Each call is one timed step, and short
    # steps let the host-speed scaling in run.py follow the host's drift.
    seeds_per_run = 4

    def __init__(self, seed, workdir):
        k = self.seeds_per_run
        self.cfgs = [dict(c, root_seed=seed,
                          sweep=dict(c["sweep"], seeds=self.seeds[j:j + k]),
                          out_dir=os.path.join(workdir, f"{self.name}-{i}-{j}"))
                     for i, c in enumerate(self.configs())
                     for j in range(0, len(self.seeds), k)]
        norm = [harness.validate_config(c) for c in self.cfgs]
        self.task = harness.build_task(norm[0]["task"]["name"],
                                       norm[0]["task"]["params"])
        self.jobs = [len(self.points(c)) * len(c["sweep"]["seeds"])
                     for c in self.cfgs]
        self.ops = sum(self.jobs)

    def points(self, cfg):
        axes = cfg["sweep"].get("axes", {})
        return list(itertools.product(*(axes[a] for a in sorted(axes))))

    def configs(self):
        raise NotImplementedError

    def sizes(self):
        t = self.task
        T = [c["learner"]["train"]["T"] for c in self.cfgs]
        exact = self.cfgs[0]["metrics"]["mode"] == "exact"
        return {"exact_leaves": t.V ** t.H * len(t.mu.prompts) if exact else 0,
                "jobs": self.ops,
                "jobs_x_T": sum(j * n for j, n in zip(self.jobs, T))}

    def prepare(self):
        for c in self.cfgs:
            shutil.rmtree(c["out_dir"], ignore_errors=True)

    def steps(self):
        return [functools.partial(self._run, c) for c in self.cfgs]

    def _run(self, cfg):
        """One `harness.run`; returns None or the error that stopped it."""
        old = os.environ.get("COVKIT_THREADS")
        os.environ["COVKIT_THREADS"] = str(self.workers)
        try:
            harness.run(cfg)
            return None
        except Exception as e:  # a failed run fails all its jobs
            return _describe(e)
        finally:
            if old is None:
                del os.environ["COVKIT_THREADS"]
            else:
                os.environ["COVKIT_THREADS"] = old

    def check(self, errors):
        failures = []
        for c, n_jobs, err in zip(self.cfgs, self.jobs, errors):
            if err is not None:
                failures += [f"{c['out_dir']}: {err}"] * n_jobs
                continue
            points = self.points(c)
            try:
                check_sweep_csv(os.path.join(c["out_dir"], "sweep.csv"),
                                sorted(c["sweep"].get("axes", {})),
                                len(points), self.grid)
            except Exception as e:
                failures += [f"{c['out_dir']}/sweep.csv: {e}"] * n_jobs
                continue
            for p_idx in range(len(points)):
                for s in c["sweep"]["seeds"]:
                    run_dir = os.path.join(c["out_dir"], "runs",
                                           f"p{p_idx:03d}_s{s}")
                    _check_op(failures, run_dir, self.check_job, c, run_dir)
        return failures

    def check_job(self, cfg, run_dir):
        raise NotImplementedError


class SweepExact(_Sweep):
    """Exact-metric sweep: the metrics layer dominates, training is light."""

    name = "sweep_exact"
    T = 128
    seeds_per_run = 1

    def configs(self):
        return [{
            "version": 1,
            "task": {"name": "sgd_lower",
                     "params": {"variant": "large_eta", "H": 8, "B": 1.0,
                                "eta": 1.0}},
            "learner": {"name": "sgd_vanilla", "train": {"T": self.T}},
            "metrics": {"n_grid": self.grid, "mode": "exact"},
            "sweep": {"axes": {"eta": [0.02, 0.1]}, "seeds": self.seeds},
        }]

    def check_job(self, cfg, run_dir):
        rows = read_timeseries(os.path.join(run_dir, "timeseries.csv"),
                               self.grid)
        expect([r[0] for r in rows] == [2 ** k for k in range(8)],
               f"checkpoints {[r[0] for r in rows]}")
        for _, n, kl, pcov in rows:
            expect(n == 0, "exact rows must report n_samples = 0")
            expect(kl >= -1e-12, f"negative KL {kl}")
            check_curve(kl, pcov, self.grid, exact=True)
        with open(os.path.join(run_dir, "summary.json")) as f:
            summary = json.load(f)
        expect(summary["n_examples"] == self.T, "n_examples != T")
        t = self.task
        want = oracle.product_kl(t.featmap.step_table(0), t.theta_star,
                                 np.array(summary["final_theta"]), t.H)
        expect(oracle.close(rows[-1][2], want),
               f"final KL {rows[-1][2]!r} != H * KL_step {want!r}")


class SweepStream(_Sweep):
    """Streaming learners at two workers with Monte Carlo metrics."""

    name = "sweep_stream"
    workers = 2
    T = 1500
    seeds_per_run = 2   # two jobs per call keep both workers busy

    def configs(self):
        base = {"version": 1,
                "task": {"name": "heterogeneous_kl",
                         "params": {"n": 4, "H": 8}},
                "metrics": {"n_grid": self.grid, "mode": "mc",
                            "n_samples": 200},
                "sweep": {"seeds": self.seeds}}
        common = {"T": self.T, "checkpoint_every": self.T // 2}
        learners = [
            ("sgd_token", {"eta": 0.05}),
            ("sgd_truncated", {"eta": 0.05, "A": math.log(8.0)}),
            ("sgd_normalized", {"eta": 0.05, "lam": 1.0, "K": 4}),
        ]
        return [dict(base, learner={"name": n, "train": dict(common, **t)})
                for n, t in learners]

    def check_job(self, cfg, run_dir):
        rows = read_timeseries(os.path.join(run_dir, "timeseries.csv"),
                               self.grid)
        expect([r[0] for r in rows] == [self.T // 2, self.T],
               f"checkpoints {[r[0] for r in rows]}")
        for _, n, kl, pcov in rows:
            expect(n == cfg["metrics"]["n_samples"], f"n_samples {n}")
            expect(math.isfinite(kl), f"MC KL {kl} not finite")
            check_curve(kl, pcov, self.grid, exact=False)
        with open(os.path.join(run_dir, "summary.json")) as f:
            summary = json.load(f)
        train = cfg["learner"]["train"]
        want = train["T"] * train.get("K", 1)
        expect(summary["n_examples"] == want,
               f"n_examples {summary['n_examples']} != T*K = {want}")


def _tabular_json(rows, V, H):
    prefixes = oracle.all_prefixes(V, H)
    return {"type": "tabular", "V": V, "H": H,
            "tables": [{"x": int(x), "prefix": list(p), "p": r.tolist()}
                       for x, table in rows.items()
                       for p, r in zip(prefixes, table)]}


class CliMC(Workload):
    """Monte Carlo CLI commands: bon, eval-coverage --mode mc, tournament."""

    name = "cli_mc"
    V, H, n_rare = 2, 8, 4
    bon_grid, reward_scale, trials = [1, 4, 16], 16.0, 1000
    # The trials run as separate `bon` calls on distinct seeds, so that each
    # timed step is short; the check pools their estimates.
    bon_calls = 4
    # Far in the tail of the profile (Pcov <= 0.1), where a Hoeffding band
    # at delta = 0.05 is missed with probability < 1e-4 per seed.
    cov_grid, cov_samples = [2.0 ** 14, 2.0 ** 16, 2.0 ** 18], 10_000
    tour_N, gamma, n_small, n_large = 16.0, 1.0, 60, 20_000
    ops = 7    # bon_calls + 3

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        V, H = self.V, self.H
        n_pre = len(oracle.all_prefixes(V, H))
        # covkit's heterogeneous_kl data policy: uniform on prompt 0, token 1
        # with probability e / (e + 1/e) at every step of prompt 1.
        rare = oracle.softmax(np.array([-1.0, 1.0]))
        self.piD = {0: np.full((n_pre, V), 0.5), 1: np.tile(rare, (n_pre, 1))}
        self.mu = [(0, 1.0 - 1.0 / (2 * self.n_rare)),
                   (1, 1.0 / (2 * self.n_rare))]

        def perturbed(sigma):
            # Prefix-dependent: fresh logit noise on every conditional row.
            return {x: np.array([oracle.softmax(np.log(r) + sigma *
                                                rng.normal(size=V))
                                 for r in rows])
                    for x, rows in self.piD.items()}

        self.pihat = perturbed(1.5)
        self.cands = [perturbed(s) for s in (0.5, 1.0, 1.5)]
        self.small = self._sample(rng, self.n_small)
        self.large = self._sample(rng, self.n_large)
        os.makedirs(workdir, exist_ok=True)
        path = lambda f: os.path.join(workdir, f)
        with open(path("task.json"), "w") as f:
            json.dump({"name": "heterogeneous_kl",
                       "params": {"n": self.n_rare, "H": H}}, f)
        for name, rows in [("pihat", self.pihat)] + [
                (f"cand{k}", c) for k, c in enumerate(self.cands)]:
            with open(path(name + ".json"), "w") as f:
                json.dump(_tabular_json(rows, V, H), f)
        for name, (xs, ys) in (("small", self.small), ("large", self.large)):
            with open(path(name + ".jsonl"), "w") as f:
                for x, y in zip(xs, ys):
                    f.write(json.dumps({"x": int(x), "y": y.tolist()}) + "\n")
        cands = [path(f"cand{k}.json") for k in range(len(self.cands))]
        grid = lambda g: ",".join(f"{v:g}" for v in g)
        self.commands = [
            ["bon", "--task", path("task.json"), "--pi-hat", path("pihat.json"),
             "--N-grid", grid(self.bon_grid),
             "--reward-scale", f"{self.reward_scale:g}",
             "--trials", str(self.trials // self.bon_calls),
             "--seed", str(seed * self.bon_calls + k)]
            for k in range(self.bon_calls)] + [
            ["eval-coverage", "--task", path("task.json"),
             "--pi-hat", path("pihat.json"), "--N-grid", grid(self.cov_grid),
             "--mode", "mc", "--n-samples", str(self.cov_samples),
             "--seed", str(seed)],
            ["tournament", "--candidates", *cands, "--data", path("small.jsonl"),
             "--N", f"{self.tour_N:g}", "--rule", "offset",
             "--gamma", f"{self.gamma:g}", "--seed", str(seed)],
            ["tournament", "--candidates", *cands, "--data", path("large.jsonl"),
             "--N", f"{self.tour_N:g}", "--rule", "simple"],
        ]

    def _sample(self, rng, n):
        xs = (rng.random(n) < self.mu[1][1]).astype(np.int64)
        p1 = np.where(xs == 1, self.piD[1][0, 1], self.piD[0][0, 1])
        ys = (rng.random((self.H, n)) < p1).T.astype(np.int64)
        return xs, ys

    def sizes(self):
        return {"exact_leaves": self.V ** self.H * len(self.mu),
                "trials_x_N": self.trials * sum(self.bon_grid),
                "mc_samples": self.cov_samples,
                "tournament_K_x_n": len(self.cands) * (self.n_small +
                                                       self.n_large)}

    def steps(self):
        return [functools.partial(self._call, argv) for argv in self.commands]

    @staticmethod
    def _call(argv):
        """One in-process `cli.main`; returns (exit code, stdout, stderr)."""
        buf, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as e:
            code, err = None, io.StringIO(_describe(e))
        return code, buf.getvalue(), err.getvalue()

    def check(self, out):
        failures = []
        checks = [self._check_bon] * self.bon_calls + [
            self._check_cov, self._check_offset, self._check_simple]
        regrets = []
        for argv, (code, stdout, stderr), fn in zip(self.commands, out, checks):
            if code != 0:
                failures.append(f"{argv[0]}: exit {code}: {stderr.strip()}")
                continue
            n_failed = len(failures)
            result = _check_op(failures, argv[0], fn, stdout)
            if fn == self._check_bon and len(failures) == n_failed:
                regrets.append(result)
        if len(regrets) == self.bon_calls:
            bon_failures = []
            _check_op(bon_failures, "bon (pooled)", self._check_bon_pooled,
                      np.mean(regrets, axis=0))
            failures += bon_failures * self.bon_calls  # fails every bon call
        return failures

    def _bon_pcov(self):
        return oracle.coverage(self.piD, self.pihat, self.mu, self.V, self.H,
                               [2.0 * self.reward_scale])[0]

    def _half_width(self, trials):
        return 2.0 * math.sqrt(math.log(2.0 / 0.05) / (2 * trials))

    def _check_bon(self, stdout):
        """Checks one `bon` call; returns its regret estimates."""
        lines = stdout.strip().splitlines()
        expect(lines[0] == "N,regret,half_width,pcov_ref", "bad bon header")
        expect(len(lines) == 1 + len(self.bon_grid), "bad bon row count")
        want = self._bon_pcov()
        hw_want = self._half_width(self.trials // self.bon_calls)
        regrets = []
        for N, line in zip(self.bon_grid, lines[1:]):
            n, est, hw, pcov = (float(v) for v in line.split(","))
            expect(n == N, f"bon row N={n}, expected {N}")
            expect(oracle.close(pcov, want), f"pcov_ref {pcov} != {want}")
            expect(oracle.close(hw, hw_want), f"half-width {hw} != {hw_want}")
            regrets.append(est)
        return regrets

    def _check_bon_pooled(self, regrets):
        """A4 on the mean regret of all `bon` calls, i.e. of all trials."""
        s, pcov = self.reward_scale, self._bon_pcov()
        hw = self._half_width(self.trials)
        for N, est in zip(self.bon_grid, regrets):
            # A4: BoN draws the reward-1 set with probability at most
            # N * Pcov_2s / (2s), so regret >= (1 - N / 2s) * Pcov_2s.
            low = (1.0 - N / (2.0 * s)) * pcov
            expect(est >= low - hw, f"N={N}: regret {est} < bound {low} - {hw}")

    def _check_cov(self, stdout):
        lines = stdout.strip().splitlines()
        expect(lines[0] == "N,log2N,pcov,half_width,n_samples",
               "bad eval-coverage header")
        expect(len(lines) == 1 + len(self.cov_grid), "bad row count")
        exact = oracle.coverage(self.piD, self.pihat, self.mu, self.V,
                                self.H, self.cov_grid)
        hw_want = math.sqrt(math.log(2.0 / 0.05) / (2 * self.cov_samples))
        for N, want, line in zip(self.cov_grid, exact, lines[1:]):
            f = line.split(",")
            expect(float(f[0]) == N and int(f[4]) == self.cov_samples,
                   f"bad row {line!r}")
            pcov, hw = float(f[2]), float(f[3])
            expect(oracle.close(hw, hw_want), f"half-width {hw} != {hw_want}")
            expect(abs(pcov - want) <= hw,
                   f"N={N:g}: MC {pcov} outside {want} +- {hw}")

    def _check_report(self, stdout, data, gamma):
        report = json.loads(stdout)
        M, offsets, worst = oracle.tournament(
            self.cands, *data, self.V, self.H, self.tour_N, gamma)
        expect(np.array_equal(np.array(report["pairwise"]), M),
               "pairwise matrix differs from brute force")
        if offsets is not None:
            expect(np.allclose(np.array(report["offsets"]), offsets,
                               rtol=0.0, atol=1e-9),
                   "on-policy offsets differ from brute force")
        sel = report["selected"]
        expect(abs(worst[sel] - worst.min()) <= 1e-9,
               f"selected {sel} is not a minimiser of {worst.tolist()}")

    def _check_offset(self, stdout):
        self._check_report(stdout, self.small, self.gamma)

    def _check_simple(self, stdout):
        self._check_report(stdout, self.large, None)


class ExactTabular(Workload):
    """All seven exact functionals on random prefix-dependent tabular pairs."""

    name = "exact_tabular"
    V, H, n_pairs, chunk = 3, 5, 300, 25
    Ns, stop_N, tail_N, tail_delta = [2.0, 8.0, 64.0], 16.0, 2.0, 0.5

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        n_pre = len(oracle.all_prefixes(self.V, self.H))
        self.pairs = []
        for k in range(self.n_pairs):
            pD = {x: rng.dirichlet(np.ones(self.V), n_pre) for x in (0, 1)}
            pH = {x: rng.dirichlet(np.ones(self.V), n_pre) for x in (0, 1)}
            if k % 2:
                # A1-style missing mass: drop one token from ~15% of rows.
                for rows in pH.values():
                    hit = np.flatnonzero(rng.random(n_pre) < 0.15)
                    rows[hit, rng.integers(self.V, size=len(hit))] = 0.0
                    rows /= rows.sum(axis=1, keepdims=True)
            w = float(rng.uniform(0.2, 0.8))
            mu = [(0, w), (1, 1.0 - w)]
            self.pairs.append((pD, pH, mu, self._model(pD), self._model(pH)))
        self.ops = self.n_pairs

    def _model(self, rows):
        prefixes = oracle.all_prefixes(self.V, self.H)
        return TabularModel({(x, p): r for x, t in rows.items()
                             for p, r in zip(prefixes, t)},
                            V=self.V, H=self.H)

    def sizes(self):
        return {"exact_leaves": self.V ** self.H * 2, "pairs": self.n_pairs}

    def steps(self):
        return [functools.partial(self._evaluate, self.pairs[i:i + self.chunk])
                for i in range(0, self.n_pairs, self.chunk)]

    def _evaluate(self, pairs):
        out = []
        for _, _, mu, D, Hm in pairs:
            try:
                out.append({
                    "seq_kl": metrics.seq_kl(D, Hm, mu),
                    "seq_ce": metrics.seq_ce(D, Hm, mu),
                    "hellinger_sq": metrics.hellinger_sq(D, Hm, mu),
                    "stopped_kl": metrics.stopped_kl(D, Hm, mu, self.stop_N),
                    "stepwise_hellinger_tail": metrics.stepwise_hellinger_tail(
                        D, Hm, mu, self.tail_N, self.tail_delta),
                    "coverage_exact": metrics.coverage_exact(
                        D, Hm, mu, self.Ns).values,
                    "coverage_sup_log": metrics.coverage_sup_log(D, Hm, mu),
                })
            except Exception as e:
                out.append(_describe(e))
        return out

    def check(self, out):
        failures = []
        out = [got for chunk in out for got in chunk]
        for k, ((pD, pH, mu, _, _), got) in enumerate(zip(self.pairs, out)):
            if isinstance(got, str):
                failures.append(f"pair {k}: {got}")
                continue
            _check_op(failures, f"pair {k}", self._check_pair, pD, pH, mu, got)
        return failures

    def _check_pair(self, pD, pH, mu, got):
        want = oracle.exact_functionals(pD, pH, mu, self.V, self.H, self.Ns,
                                        self.stop_N, self.tail_N,
                                        self.tail_delta)
        for key, w in want.items():
            g = got[key]
            pairs = zip(np.ravel(g), np.ravel(w))
            expect(all(oracle.close(a, b) for a, b in pairs),
                   f"{key}: covkit {g} != brute force {w}")


WORKLOADS = {w.name: w for w in (SweepExact, SweepStream, CliMC, ExactTabular)}
