"""Every scalar setting covkit takes is refused the same way: one table of
bad values goes to each site, and each value outside the site's range
raises a ValueError that names the setting (a CLI flag exits 2).  Each
site also takes its valid values, a numpy scalar among them where it
accepts one, and `core.check_number` is checked on its own below.

`refusals(site)` records which bad values a site refuses, by any
exception, so the same table can be run against another commit's covkit
to show that a change refuses everything that commit refused."""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest

from covkit import harness
from covkit.cli import load_policy, main
from covkit.core import FinitePromptDist, check_number, sample_dataset
from covkit.decoding import AdversarialReward, best_of_n, bon_regret
from covkit.graphs import GraphConfig
from covkit.metrics import (PairLaw, hoeffding_half_width, kl_to_cov_bound,
                            mc_report, onpolicy_cov, pairwise_cov_matrix,
                            seq_kl, sigma_star_sq, stopped_kl,
                            stepwise_hellinger_tail)
from covkit.seeding import SeedTree
from covkit.selection import (CandidateClass, offset_tournament,
                              simple_tournament)
from covkit.tasks import (bernoulli_featmap, bernoulli_model, bernoulli_task,
                          heterogeneous_kl_instance, misspec_instance,
                          sgd_lower_instance, sigma_star_instance)
from covkit.training import TrainConfig

BAD = {"True": True, "np.True_": np.bool_(True), "nan": math.nan,
       "inf": math.inf, "-inf": -math.inf, "0": 0, "-1": -1, "1.5": 1.5,
       "'3'": "3", "None": None, "np.nan": np.float64("nan")}

PI_D, PI_HAT = bernoulli_model(0.3), bernoulli_model(0.6)
ONE = [(0, 1.0)]
MU = FinitePromptDist([0], [1.0])
DATA = sample_dataset(PI_D, MU, 20, SeedTree(1).rng())
CANDS = CandidateClass([PI_D, PI_HAT])


def rng():
    return SeedTree(2).rng()


def config(**changes):
    cfg = {"version": 1,
           "task": {"name": "heterogeneous_kl", "params": {"n": 3, "H": 2}},
           "learner": {"name": "sgd_vanilla",
                       "train": {"eta": 0.1, "T": 4}},
           "metrics": {"n_grid": [2, 8]}, "sweep": {"seeds": [1]},
           "out_dir": "unused", "root_seed": 3}
    for key, value in changes.items():
        cfg[key] = dict(cfg[key], **value) if isinstance(value, dict) \
            else value
    return harness.validate_config(cfg)


def cli(command, flag, v):
    """`covkit command` with `flag v` (as text, so "3" is the number 3) on
    small files; a ValueError holding the error line if it exits 2."""
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, obj):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(obj, f)
            return path
        task = write("task.json", {"name": "bernoulli",
                                   "params": {"p_star": 0.3}})
        pol = write("pol.json", {"type": "tabular", "V": 2, "H": 1,
                                 "tables": [{"x": 0, "prefix": [],
                                             "p": [0.4, 0.6]}]})
        data = os.path.join(tmp, "d.jsonl")
        args = {"gen-data": ["--task", "bernoulli", "--params",
                             '{"p_star": 0.3}', "--out", data],
                "eval-coverage": ["--task", task, "--pi-hat", pol,
                                  "--N-grid", "2", "--mode", "mc"],
                "tournament": ["--candidates", pol, pol, "--data", data,
                               "--rule", "offset"],
                "bon": ["--task", task, "--pi-hat", pol, "--N-grid", "2"]}
        defaults = {"--n": 10, "--n-samples": 100, "--N": 100,
                    "--gamma": 0.25, "--reward-scale": 2.0, "--trials": 100}
        flags = {f: defaults[f] for f in {
            "gen-data": ["--n"], "eval-coverage": ["--n-samples"],
            "tournament": ["--N", "--gamma"],
            "bon": ["--reward-scale", "--trials"]}[command]}
        flags[flag] = v
        argv = [command] + args[command] + [
            str(a) for kv in flags.items() for a in kv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            if command == "tournament":
                assert main(["gen-data", "--n", "10"] + args["gen-data"]) == 0
            rc = main(argv)
    if rc == 2:
        raise ValueError(err.getvalue())
    assert rc == 0, err.getvalue()


def policy_file(**changes):
    """`load_policy` of a coin policy file with `changes` to its V, H (a
    numpy scalar is written as its JSON value)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pol.json")
        with open(path, "w") as f:
            json.dump(dict({"type": "tabular", "V": 2, "H": 1, "tables": [
                {"x": 0, "prefix": [], "p": [0.4, 0.6]}]}, **changes), f,
                default=np.generic.item)
        return load_policy(path)


# site -> (the setting its message names, call(v), keys of BAD that are
# in range there, valid values)
SITES = {
    # TrainConfig
    "TrainConfig.eta": ("eta", lambda v: TrainConfig(eta=v),
                        {"1.5", "None"}, [0.1, np.float64(0.1)]),
    "TrainConfig.T": ("T", lambda v: TrainConfig(T=v), set(),
                      [4, np.int64(4)]),
    "TrainConfig.K": ("K", lambda v: TrainConfig(K=v), set(),
                      [2, np.int64(2)]),
    "TrainConfig.lam": ("lam", lambda v: TrainConfig(lam=v),
                        {"0", "1.5", "None"}, [0.5, np.float64(0.5)]),
    "TrainConfig.A": ("A", lambda v: TrainConfig(A=v), {"1.5", "None"},
                      [1.0, np.float64(1.0)]),
    "TrainConfig.N": ("N", lambda v: TrainConfig(N=v), {"1.5", "None"},
                      [8.0, np.float64(8.0)]),
    "TrainConfig.sigma_star_sq": (
        "sigma_star_sq", lambda v: TrainConfig(sigma_star_sq=v),
        {"0", "1.5", "None"}, [0.5, np.float64(0.5)]),
    "TrainConfig.checkpoint_every": (
        "checkpoint_every", lambda v: TrainConfig(checkpoint_every=v), {"0"},
        [2, np.int64(2)]),
    # the config file
    "metrics.n_samples": (
        "n_samples", lambda v: config(metrics={"mode": "mc",
                                               "n_samples": v}),
        set(), [20]),
    "metrics.delta": ("delta", lambda v: config(metrics={"delta": v}), set(),
                      [0.05]),
    "root_seed": ("root_seed", lambda v: config(root_seed=v), {"0"}, [3]),
    "sweep.seeds": ("sweep.seeds", lambda v: config(sweep={"seeds": [v]}),
                    {"0"}, [5]),
    # CLI flags
    "gen-data --n": ("--n", lambda v: cli("gen-data", "--n", v), {"'3'"},
                     [5]),
    "eval-coverage --n-samples": (
        "--n-samples", lambda v: cli("eval-coverage", "--n-samples", v),
        {"'3'"}, [100]),
    "tournament --N": ("--N", lambda v: cli("tournament", "--N", v),
                       {"1.5", "'3'"}, [4]),
    "tournament --gamma": ("--gamma",
                           lambda v: cli("tournament", "--gamma", v),
                           {"0", "1.5", "'3'"}, [0.5]),
    "bon --reward-scale": (
        "--reward-scale", lambda v: cli("bon", "--reward-scale", v),
        {"1.5", "'3'"}, [2.0]),
    "bon --trials": ("--trials", lambda v: cli("bon", "--trials", v), set(),
                     [100]),
    **{f"{c} --seed": ("--seed", lambda v, c=c: cli(c, "--seed", v),
                       {"0", "'3'"}, [2 ** 64 - 1])
       for c in ("gen-data", "eval-coverage", "tournament", "bon")},
    "policy file V": ("V", lambda v: policy_file(V=v), set(), [2]),
    "policy file H": ("H", lambda v: policy_file(H=v), set(), [1]),
    # task builders
    "bernoulli_model p": ("p", bernoulli_model, {"0"},
                          [0.3, np.float64(0.3)]),
    "bernoulli_task p_star": ("p_star", bernoulli_task, set(),
                              [0.3, np.float64(0.3)]),
    "heterogeneous_kl n": ("n", lambda v: heterogeneous_kl_instance(v, 2),
                           set(), [3, np.int64(3)]),
    "heterogeneous_kl H": ("H", lambda v: heterogeneous_kl_instance(3, v),
                           set(), [2, np.int64(2)]),
    "large_eta H": ("H", lambda v: sgd_lower_instance(
        "large_eta", H=v, B=1.0, eta=1.0), set(), [8, np.int64(8)]),
    "large_eta B": ("B", lambda v: sgd_lower_instance(
        "large_eta", H=8, B=v, eta=1.0), {"1.5"}, [1.0, np.float64(1.0)]),
    "large_eta eta": ("eta", lambda v: sgd_lower_instance(
        "large_eta", H=8, B=1.0, eta=v), {"1.5"}, [1.0, np.float64(1.0)]),
    "small_eta Bbar": ("Bbar", lambda v: sgd_lower_instance(
        "small_eta", H=4, B=2.0, Bbar=v, N=4.0, n=2), {"1.5"},
        [1.0, np.float64(1.0)]),
    "small_eta N": ("N", lambda v: sgd_lower_instance(
        "small_eta", H=4, B=2.0, Bbar=1.0, N=v, n=2), {"1.5"},
        [4.0, np.float64(4.0)]),
    "small_eta n": ("n", lambda v: sgd_lower_instance(
        "small_eta", H=4, B=2.0, Bbar=1.0, N=4.0, n=v), set(),
        [2, np.int64(2)]),
    "sigma_star H": ("H", lambda v: sigma_star_instance(
        v, B=1.0, N=2.0, n=2, c=1.0), set(), [3, np.int64(3)]),
    "sigma_star B": ("B", lambda v: sigma_star_instance(
        3, B=v, N=2.0, n=2, c=1.0), {"1.5"}, [1.0, np.float64(1.0)]),
    "sigma_star N": ("N", lambda v: sigma_star_instance(
        3, B=1.0, N=v, n=2, c=1.0), {"1.5"}, [2.0, np.float64(2.0)]),
    "sigma_star n": ("n", lambda v: sigma_star_instance(
        3, B=1.0, N=2.0, n=v, c=1.0), set(), [2, np.int64(2)]),
    "sigma_star c": ("c", lambda v: sigma_star_instance(
        3, B=1.0, N=2.0, n=2, c=v), {"1.5"}, [1.0, np.float64(1.0)]),
    "misspec alpha": ("alpha", lambda v: misspec_instance(v, 10.0), set(),
                      [0.5, np.float64(0.5)]),
    "misspec M": ("M", lambda v: misspec_instance(0.5, v), set(),
                  [10.0, np.float64(10.0)]),
    "GraphConfig m": ("m", lambda v: GraphConfig(m=v), set(),
                      [128, np.int64(128)]),
    "GraphConfig L": ("L", lambda v: GraphConfig(L=v), {"0"},
                      [2, np.int64(2)]),
    "GraphConfig nodes_per_layer": (
        "nodes_per_layer", lambda v: GraphConfig(nodes_per_layer=v), set(),
        [4, np.int64(4)]),
    # metrics
    "mc_report n_samples": ("n_samples", lambda v: mc_report(
        PI_D, PI_HAT, MU, [2.0], v, rng()), set(), [10, np.int64(10)]),
    "mc_report delta": ("delta", lambda v: mc_report(
        PI_D, PI_HAT, MU, [2.0], 10, rng(), delta=v), set(),
        [0.05, np.float64(0.05)]),
    "seq_kl mc n": ("n", lambda v: seq_kl(
        PI_D, PI_HAT, None, mode="mc", n=v, rng=rng(), mu_sampler=MU), set(),
        [5, np.int64(5)]),
    "stopped_kl N": ("N", lambda v: stopped_kl(PI_D, PI_HAT, ONE, v),
                     {"inf", "1.5"}, [2.0, np.float64(2.0)]),
    "stopped_kl mc n": ("n", lambda v: stopped_kl(
        PI_D, PI_HAT, None, 2.0, mode="mc", n=v, rng=rng(), mu_sampler=MU),
        set(), [5, np.int64(5)]),
    "hellinger tail N": ("N", lambda v: stepwise_hellinger_tail(
        PI_D, PI_HAT, ONE, v, 0.5), {"inf", "1.5"}, [2.0, np.float64(2.0)]),
    "hellinger tail delta": ("delta", lambda v: PairLaw(
        PI_D, PI_HAT, ONE).hellinger_tail(2.0, v), set(),
        [0.5, np.float64(0.5)]),
    "hoeffding n": ("n", hoeffding_half_width, set(), [100, np.int64(100)]),
    "hoeffding delta": ("delta", lambda v: hoeffding_half_width(100, v),
                        set(), [0.05, np.float64(0.05)]),
    "pairwise_cov_matrix N": (
        "N", lambda v: pairwise_cov_matrix([PI_D, PI_HAT], DATA, v),
        {"inf", "1.5"}, [2.0, np.float64(2.0)]),
    "onpolicy_cov N": ("N", lambda v: onpolicy_cov([PI_HAT], PI_D, [0], v),
                       {"inf", "1.5"}, [2.0, np.float64(2.0)]),
    "onpolicy_cov m": ("m", lambda v: onpolicy_cov(
        [PI_HAT], PI_D, [0], 2.0, mode="mc", m=v, rng=rng()), set(),
        [5, np.int64(5)]),
    "kl_to_cov_bound N": ("N", lambda v: kl_to_cov_bound(0.1, v), {"inf"},
                          [4.0, np.float64(4.0)]),
    "sample_dataset n": ("n", lambda v: sample_dataset(PI_D, MU, v, rng()),
                         set(), [5, np.int64(5)]),
    "sigma_star_sq mc n": ("n", lambda v: sigma_star_sq(
        PI_D, bernoulli_featmap(), MU, mode="mc", n=v, rng=rng()), set(),
        [10, np.int64(10)]),
    # decoding and selection
    "best_of_n N": ("N", lambda v: best_of_n(PI_D, lambda x, y: y[0], 0, v,
                                             rng()), set(),
                    [2, np.int64(2)]),
    "bon_regret N": ("N", lambda v: bon_regret(
        PI_HAT, PI_D, lambda x, y: y[0], MU, [v], 100, rng()), set(),
        [2, np.int64(2)]),
    "bon_regret trials": ("trials", lambda v: bon_regret(
        PI_HAT, PI_D, lambda x, y: y[0], MU, [2], v, rng()), set(),
        [100, np.int64(100)]),
    "bon_regret delta": ("delta", lambda v: bon_regret(
        PI_HAT, PI_D, lambda x, y: y[0], MU, [2], 100, rng(), delta=v),
        set(),
        [0.05, np.float64(0.05)]),
    "AdversarialReward N": ("N", lambda v: AdversarialReward(PI_D, PI_HAT, v),
                            {"1.5"}, [2.0, np.float64(2.0)]),
    "offset_tournament N": ("N", lambda v: offset_tournament(
        CANDS, DATA, v, gamma=0.25), {"inf", "1.5"}, [2.0, np.float64(2.0)]),
    "offset_tournament gamma": ("gamma", lambda v: offset_tournament(
        CANDS, DATA, 32.0, gamma=v), {"0", "1.5"}, [0.25, np.float64(0.25)]),
    "simple_tournament N": ("N", lambda v: simple_tournament(CANDS, DATA, v),
                            {"inf", "1.5"}, [2.0, np.float64(2.0)]),
}


def refusals(site) -> dict:
    """BAD key -> whether the site refuses that value (raises anything)."""
    call = SITES[site][1]
    out = {}
    for key, v in BAD.items():
        try:
            call(v)
        except Exception:
            out[key] = True
        else:
            out[key] = False
    return out


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_site_refuses_the_same_bad_values(site):
    setting, call, in_range, valid = SITES[site]
    for key, v in BAD.items():
        if key in in_range:
            call(v)
            continue
        with pytest.raises(ValueError, match=re.escape(setting)):
            call(v)
    for v in valid:
        call(v)


@pytest.mark.parametrize("args, kwargs, ok, bad", [
    (("T", 1), {"integer": True}, [1, np.int64(7), 10 ** 30],
     [1.0, 0, True, np.bool_(True), "3", None]),
    (("eta", 0), {"lo_open": True}, [1e-300, 2, np.float32(0.5)],
     [0, 0.0, math.inf, math.nan]),
    (("N", 1, math.inf), {}, [1, math.inf, np.float64(math.inf)],
     [0.5, -math.inf, math.nan]),
    (("delta", 0, 1), {"lo_open": True, "hi_open": True}, [0.5],
     [0, 1, 1.0, math.nan]),
    (("x",), {}, [0, -1e300], [math.inf, -math.inf, math.nan, "1"]),
    (("y", None, 2), {"hi_open": True}, [-5, 1.9], [2, math.nan]),
])
def test_check_number_range(args, kwargs, ok, bad):
    for v in ok:
        check_number(args[0], v, *args[1:], **kwargs)
    for v in bad:
        with pytest.raises(ValueError, match=f"^{args[0]} must "):
            check_number(args[0], v, *args[1:], **kwargs)


@pytest.mark.parametrize("args, kwargs, v, message", [
    (("T", 1), {"integer": True}, 1.5,
     "T must be >= 1 and an integer, got 1.5"),
    (("eta", 0), {"lo_open": True}, 0, "eta must be > 0 and finite, got 0"),
    (("N", 1, math.inf), {}, 0.5, "N must be >= 1, got 0.5"),
    (("d", 0, 1), {"lo_open": True}, 1.5, "d must lie in (0, 1], got 1.5"),
    (("s",), {"integer": True}, 1.5, "s must be an integer, got 1.5"),
    (("x",), {}, math.inf, "x must be a finite number, got inf"),
    (("y", None, 1), {"hi_open": True}, 1.5,
     "y must be < 1 and finite, got 1.5"),
])
def test_check_number_message_names_the_range(args, kwargs, v, message):
    with pytest.raises(ValueError) as e:
        check_number(args[0], v, *args[1:], **kwargs)
    assert str(e.value) == message
