"""SHA-256 pins of seeded outputs: a change in the last bit of a run's
CSVs, a summary's theta or a command's stdout fails the pin it touches.

Each pin is the digest of one output group:

* `run:<name>` - the `timeseries.csv` of every run, each `summary.json`
  without its `wall_clock` field and the `sweep.csv` of one small `covkit
  run` config (each learner, over exact product, exact walked and MC
  metrics, two seeds, two sweep points), and every checkpoint's KL and
  coverage in full precision (the CSVs round them to 12 digits);
* `<command>:<variant>` - the stdout of `eval-coverage`, `tournament` and
  `bon`, each at two seeds;
* `gen-data:<task>:<seed>` - the JSONL and `--header` sidecar bytes that
  `gen-data` writes for `heterogeneous_kl` and for `graph_teaser` (whose
  prompt sampler is a plain callable), each at two seeds;
* `fit:mle_chain` - the bits of `mle_fit`'s theta on a one-feature chain
  whose step table is not integral, where a count-times-table product
  summed in another order changes the last bit.

The pins hold for the numpy this suite runs on (2.4.6).  A change that
alters a pinned output on purpose re-pins in the same change:
`python tests/test_pinned_outputs.py` prints the fresh digests as the
literal to paste over `PINS`, and names on stderr the pins whose
digests differ from it.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest

if __name__ == "__main__":
    # Run as a script: import covkit from this checkout's src/, as pytest
    # does through pyproject.toml.
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

from covkit import harness
from covkit.cli import main
from covkit.core import FinitePromptDist, sample_dataset
from covkit.models import CallableFeatureMap, LinearARModel
from covkit.seeding import SeedTree
from covkit.training import mle_fit

HK = {"name": "heterogeneous_kl", "params": {"n": 5, "H": 3}}
SIGMA = {"name": "sigma_star",
         "params": {"H": 3, "B": 3.0, "N": 2.0, "n": 2, "c": 1.0}}
LARGE_ETA = {"name": "sgd_lower",
             "params": {"variant": "large_eta", "H": 8, "B": 1.0,
                        "eta": 1.0}}
SMALL_ETA = {"name": "sgd_lower",
             "params": {"variant": "small_eta", "H": 4, "B": 2.0,
                        "Bbar": 1.0, "N": 4.0, "n": 2}}
EXACT = {"n_grid": [2, 8], "mode": "exact"}
MC = {"n_grid": [2, 8], "mode": "mc", "n_samples": 200}
# sigma_star's coverage is positive only below N = 2.
WALKED = {"n_grid": [1.2, 2], "mode": "exact"}
WALKED_MC = dict(WALKED, mode="mc", n_samples=200)

# name -> (task, learner, train, metrics, sweep axes)
RUNS = {
    "mle_product": (HK, "mle", {"T": 40}, EXACT, {"H": [2, 3]}),
    "vanilla_walked": (SIGMA, "sgd_vanilla", {"eta": 0.5, "T": 16}, WALKED,
                       {"eta": [0.5, 1.0]}),
    "token_product": (LARGE_ETA, "sgd_token", {"eta": 0.1, "T": 8}, EXACT,
                      {"eta": [0.05, 0.2]}),
    "normalized_mc": (SMALL_ETA, "sgd_normalized",
                      {"N": 8.0, "sigma_star_sq": 0.5, "T": 16, "K": 2}, MC,
                      {"T": [8, 16]}),
    "truncated_mc": (HK, "sgd_truncated", {"A": 1.0, "eta": 0.1, "T": 16},
                     MC, {"A": [0.5, 1.0]}),
    "vanilla_walked_mc": (SIGMA, "sgd_vanilla", {"eta": 0.5, "T": 16},
                          WALKED_MC, {"T": [8, 16]}),
}

PINS = {
    'bon:0':
        'b278952fc6b2ff4fad36092f50570b72bbd9d081bbc1f865dbf604b443e17059',
    'bon:1':
        '413107ad9b65647d757aac778f46c3ce03e021cb72b5830d5ca477017556d337',
    'eval-coverage:exact:0':
        'a3979bffbf4941c853fa88bd8760caa34b146f1378a68df0ae8c92dd33115735',
    'eval-coverage:exact:1':
        'f4edc51bb1fa3c86e82c1270196731d3af89540ad5257068a02b03360487d1ba',
    'eval-coverage:hoeffding:0':
        'fb32e3f83c7c2c1c04f804fad3843d788566a38477ee881544ab189e1f000eb5',
    'eval-coverage:hoeffding:1':
        'beeeb1da0bda63dcccc09d07eede3b6f6489ec52180c00544f2c0d088e6e2f73',
    'eval-coverage:wilson:0':
        '5d322c636a5db851ccb691b2c44cd2a1dd3a06bdc81f6da4f7a6d7a1abfc70e0',
    'eval-coverage:wilson:1':
        'e03e845c2aff88e65bc75b277f26997d75a9dbdf659206d887b558e078d76c73',
    'fit:mle_chain':
        'f590198c549a11bed8f6fbe836cba42d7a12ccb3a3b4360b7a03d451197dedc6',
    'gen-data:graph_teaser:0':
        'f3ea59af5d21df8f2839c5bd6a108a28f182b44f0578f7a426cc19ed5c0fd0cf',
    'gen-data:graph_teaser:1':
        '22346271419149a66f890bcbc18d806bcc857e95f9f6e4286746a69388f588a7',
    'gen-data:heterogeneous_kl:0':
        '4cb69dcc29e3af886c3d3e6dd3ec30a2f800d8c85ff14bd5c3c98d9c72cbb961',
    'gen-data:heterogeneous_kl:1':
        'a74dec5fd42b0866142cd985cf85e2ab3a673ac89d11bed325df8836f521f70b',
    'run:mle_product':
        '090015dae905bd5776239d9f346a370c5edb9fa1f693e1144041901adc5c3f89',
    'run:normalized_mc':
        '80566f4f8c65330bf299ccadbb7abb59504327252e07ca36ec46517420765221',
    'run:token_product':
        '4c84c9da4b5bc8c8a946f5e17fdbbc99ec0c2c95b9706f5cac3116ff25c195a1',
    'run:truncated_mc':
        'b274ca16fdd6a2e1ae36674f03d0694bdbe36b15937a6c519769eb01e7679629',
    'run:vanilla_walked':
        '5b851da8cbbb055f77a7ec75d15ff61897dee5dffaa34b146767c250ea3fb001',
    'run:vanilla_walked_mc':
        '168b20ef085d6f1f8783b265afbf8f5a16d6efbd75b24eade5d4c91057918604',
    'tournament:ce:0':
        'f9f6da527e328bf0979b4aaf824f289c310318735d53bd8745477296efd5fc67',
    'tournament:ce:1':
        '8eda5f25a42d1d927dd88f3f51bae161a202272801854f3c6d6d0a9d8831e27f',
    'tournament:offset:0':
        '3755aff34bae5eb550b4d369eaa0c7cb0cecd3728da6f87510c0a4f7a71fccc5',
    'tournament:offset:1':
        '54968dc03489426bdf0382142d281d86b92161bd06995ca5782e8cbb1c1e530f',
    'tournament:simple:0':
        'af6e325a8a7f9c10be612bc7a7efe67c22dd25523ca6d8caa9a60e6cb0e702d5',
    'tournament:simple:1':
        'c05d467261a48c130fa956debab79ea34bf505dc68c245f30cba6a809f4c891a',
}


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


def _run_digest(tmp, name):
    task, learner, train, metrics, axes = RUNS[name]
    out = os.path.join(tmp, name)
    jobs = []

    def checkpoint_metrics(*args):
        reports = harness_metrics(*args)
        jobs.append(";".join(_hex([r.seq_kl, *r.coverage.values])
                             for r in reports))
        return reports
    harness_metrics = harness.checkpoint_metrics
    with mock.patch.object(harness, "checkpoint_metrics", checkpoint_metrics):
        harness.run({"version": 1, "task": task,
                     "learner": {"name": learner, "train": train},
                     "metrics": metrics,
                     "sweep": {"axes": axes, "seeds": [1, 2]},
                     "out_dir": out, "root_seed": 5})
    h = hashlib.sha256("\n".join(sorted(jobs)).encode())
    for root, dirs, files in os.walk(out):
        dirs.sort()
        for fn in sorted(files):
            with open(os.path.join(root, fn), "rb") as f:
                data = f.read()
            if fn == "summary.json":
                summary = json.loads(data)
                del summary["wall_clock"]
                data = json.dumps(summary, sort_keys=True).encode()
            h.update(fn.encode() + b"\0" + data)
    return h.hexdigest()


def _tabular(path, shift, H=3, prompts=(0, 1)):
    """A prefix-dependent coin policy (V = 2) whose rows come from a fixed
    formula, written as the CLI's policy JSON."""
    rows = []
    prefixes = [()]
    for h in range(H):
        for pre in prefixes:
            for x in prompts:
                a = (1 + (shift + 3 * x + 5 * h + 2 * sum(pre)) % 7) / 9.0
                rows.append({"x": x, "prefix": list(pre), "p": [a, 1.0 - a]})
        prefixes = [pre + (v,) for pre in prefixes for v in (0, 1)]
    with open(path, "w") as f:
        json.dump({"type": "tabular", "V": 2, "H": H, "tables": rows}, f)
    return path


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0, argv
    return buf.getvalue()


def _gen_data(tmp, task, params, n, seed):
    """`gen-data`'s JSONL and --header sidecar bytes, and the data path."""
    data = os.path.join(tmp, f"{task}{seed}.jsonl")
    header = data + ".header.json"
    _stdout(["gen-data", "--task", task, "--params", json.dumps(params),
             "--n", str(n), "--seed", str(seed), "--out", data,
             "--header", header])
    with open(data, "rb") as f, open(header, "rb") as g:
        return f.read() + b"\0" + g.read(), data


def _command_outputs(tmp):
    task = os.path.join(tmp, "task.json")
    with open(task, "w") as f:
        json.dump({"name": "heterogeneous_kl",
                   "params": {"n": 3, "H": 3}}, f)
    cands = [_tabular(os.path.join(tmp, f"pi{k}.json"), k) for k in range(3)]
    outs = {}
    for seed in (0, 1):
        outs[f"gen-data:graph_teaser:{seed}"], _ = _gen_data(
            tmp, "graph_teaser", {"m": 16, "L": 3, "nodes_per_layer": 3}, 8,
            seed)
        outs[f"gen-data:heterogeneous_kl:{seed}"], data = _gen_data(
            tmp, "heterogeneous_kl", {"n": 3, "H": 3}, 60, seed)
        s = ["--seed", str(seed)]
        cov = ["eval-coverage", "--task", task, "--pi-hat", cands[seed],
               "--N-grid", "1.5,2,4,8"] + s
        outs[f"eval-coverage:exact:{seed}"] = _stdout(cov)
        mc = cov + ["--mode", "mc", "--n-samples", "300"]
        outs[f"eval-coverage:hoeffding:{seed}"] = _stdout(mc)
        outs[f"eval-coverage:wilson:{seed}"] = _stdout(
            mc + ["--interval", "wilson"])
        for rule in ("ce", "simple", "offset"):
            outs[f"tournament:{rule}:{seed}"] = _stdout(
                ["tournament", "--candidates", *cands, "--data", data,
                 "--N", "2", "--rule", rule, "--gamma", "0.25"] + s)
        outs[f"bon:{seed}"] = _stdout(
            ["bon", "--task", task, "--pi-hat", cands[2], "--N-grid",
             "1,2,4", "--trials", "200", "--reward-scale", "2"] + s)
    return {k: hashlib.sha256(v if isinstance(v, bytes) else v.encode())
            .hexdigest() for k, v in outs.items()}


def _mle_chain_digest():
    table = np.array([[-0.3], [0.7]])
    featmap = CallableFeatureMap(lambda x, pre: table[pre[-1]], d=1, B=0.7,
                                 step_tables=lambda x: table)
    piD = LinearARModel(np.array([0.5]), featmap, V=2, H=30)
    data = sample_dataset(piD, FinitePromptDist([0, 1], [0.5, 0.5]), 300,
                          SeedTree(3).rng())
    theta = mle_fit(data, featmap).theta
    return hashlib.sha256(_hex(theta).encode()).hexdigest()


@functools.cache
def digests() -> dict:
    """pin name -> SHA-256 of its output, computed once per process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = {f"run:{name}": _run_digest(tmp, name) for name in RUNS}
        out.update(_command_outputs(tmp))
    out["fit:mle_chain"] = _mle_chain_digest()
    return out


def test_every_output_is_pinned():
    assert sorted(PINS) == sorted(digests())


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_output(name):
    assert digests()[name] == PINS[name]


if __name__ == "__main__":
    moved = sorted(k for k, v in digests().items() if PINS.get(k) != v)
    sys.stderr.write(f"moved: {', '.join(moved) or 'none'}\n")
    sys.stdout.write("PINS = {\n" + "".join(
        f"    {k!r}:\n        {v!r},\n" for k, v in sorted(digests().items()))
        + "}\n")
