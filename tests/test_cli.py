import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import covkit
import exact_oracle
from conftest import random_tabular, tabular_with_missing_mass
from covkit import cli
from covkit.cli import main
from covkit.core import FinitePromptDist, load_jsonl, sample_dataset, \
    save_jsonl
from covkit.metrics import hoeffding_half_width
from covkit.seeding import SeedTree
from covkit.selection import CandidateClass, offset_tournament


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def coin_files(tmp_path):
    task = write(tmp_path / "task.json",
                 {"name": "bernoulli", "params": {"p_star": 0.3}})
    pol_d = write(tmp_path / "pol_d.json",
                  {"type": "tabular", "V": 2, "H": 1,
                   "tables": [{"x": 0, "prefix": [], "p": [0.7, 0.3]}]})
    pol_bad = write(tmp_path / "pol_bad.json",
                    {"type": "tabular", "V": 2, "H": 1,
                     "tables": [{"x": 0, "prefix": [], "p": [0.95, 0.05]}]})
    return task, pol_d, pol_bad


def test_eval_coverage_identical_policies_zero(coin_files, capsys):
    task, pol_d, _ = coin_files
    rc = main(["eval-coverage", "--task", task, "--pi-hat", pol_d,
               "--N-grid", "2,4,8"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,log2N,pcov,half_width,n_samples"
    for line in lines[1:]:
        assert float(line.split(",")[2]) == 0.0


def test_eval_coverage_mc_mode(coin_files, capsys):
    task, _, pol_bad = coin_files
    rc = main(["eval-coverage", "--task", task, "--pi-hat", pol_bad,
               "--N-grid", "4", "--mode", "mc", "--n-samples", "4000",
               "--seed", "1"])
    assert rc == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    # exact Pcov_4 = P(y=1) = 0.3 (ratio 6 at y=1)
    assert abs(float(row[2]) - 0.3) <= 2 * hoeffding_half_width(4000)


def test_tournament_single_candidate(coin_files, tmp_path, capsys):
    task, pol_d, _ = coin_files
    rc = main(["gen-data", "--task", "bernoulli", "--params",
               '{"p_star": 0.3}', "--n", "50", "--seed", "0",
               "--out", str(tmp_path / "ds.jsonl")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["tournament", "--candidates", pol_d, "--data",
               str(tmp_path / "ds.jsonl"), "--N", "4"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["selected"] == 0


def test_tournament_rules(coin_files, tmp_path, capsys):
    task, pol_d, pol_bad = coin_files
    main(["gen-data", "--task", "bernoulli", "--params", '{"p_star": 0.3}',
          "--n", "200", "--seed", "3", "--out", str(tmp_path / "ds.jsonl")])
    capsys.readouterr()
    rc = main(["tournament", "--candidates", pol_bad, pol_d, "--data",
               str(tmp_path / "ds.jsonl"), "--N", "4", "--rule", "simple"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["selected"] == 1


def test_bon_regret_monotone(coin_files, capsys):
    task, _, pol_bad = coin_files
    rc = main(["bon", "--task", task, "--pi-hat", pol_bad, "--N-grid",
               "1,2,4,8,16,32,64,128,256", "--reward-scale", "2",
               "--trials", "2000", "--seed", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,regret,half_width,pcov_ref"
    rows = [line.split(",") for line in lines[1:]]
    regrets = [float(r[1]) for r in rows]
    hw = float(rows[0][2])
    # regret non-increasing in N up to MC noise (exact BoN success
    # probability 1-(1-q)^N is increasing in N)
    for a, b in zip(regrets, regrets[1:]):
        assert b <= a + 3 * hw
    # pcov_ref column: exact Pcov_4 of Ber(0.3)||Ber(0.05) = 0.3
    assert math.isclose(float(rows[0][3]), 0.3, abs_tol=1e-12)


def test_exit_code_validation(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "missing.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"
    bad = write(tmp_path / "bad.json", {"version": 1, "task": {"name": "x"},
                                        "learner": {"name": "mle"},
                                        "out_dir": str(tmp_path),
                                        "root_seed": 1})
    rc = main(["run", bad])
    assert rc == 2


def test_exit_code_runtime(tmp_path, capsys):
    # valid config whose job fails at runtime: stream needs a feature map
    # task but sgd on misspec (tabular-only) raises ConfigError -> 2;
    # force a true runtime error via an unpicklable out_dir collision
    cfg = {"version": 1,
           "task": {"name": "bernoulli", "params": {"p_star": 0.3}},
           "learner": {"name": "sgd_vanilla", "train": {"eta": 0.1, "T": 4}},
           "metrics": {"n_grid": [2]},
           "sweep": {"axes": {}, "seeds": [1]},
           "out_dir": str(tmp_path / "out"),
           "root_seed": 1}
    p = write(tmp_path / "cfg.json", cfg)
    rc = main(["run", p])
    # bernoulli task has no feature map -> validation error, not a crash
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "feature map" in err["error"]


def test_policy_file_validation(tmp_path, capsys):
    bad = write(tmp_path / "pol.json", {"type": "linear"})
    task = write(tmp_path / "task.json",
                 {"name": "bernoulli", "params": {"p_star": 0.3}})
    rc = main(["eval-coverage", "--task", task, "--pi-hat", bad,
               "--N-grid", "2"])
    assert rc == 2


def test_usage_error_exit_code(capsys):
    assert main(["eval-coverage"]) == 2


@pytest.fixture
def pi_d_files(tmp_path):
    def tabular(name, V, p):
        return write(tmp_path / name,
                     {"type": "tabular", "V": V, "H": 1,
                      "tables": [{"x": 0, "prefix": [], "p": p}]})
    task = write(tmp_path / "task.json",
                 {"name": "bernoulli", "params": {"p_star": 0.2}})
    return (task, tabular("pi_d.json", 2, [0.8, 0.2]),
            tabular("pi_hat.json", 2, [0.95, 0.05]),
            tabular("pi_d_v3.json", 3, [0.7, 0.2, 0.1]))


@pytest.mark.parametrize("mode", [[], ["--mode", "mc", "--n-samples", "500",
                                       "--seed", "4"]])
def test_eval_coverage_pi_d_of_the_task_law_changes_nothing(pi_d_files,
                                                            capsys, mode):
    # --pi-d holding the task's own piD (p* = 0.2) gives the same curve,
    # byte for byte, as the task's piD.
    task, pi_d, pi_hat, _ = pi_d_files
    argv = ["eval-coverage", "--task", task, "--pi-hat", pi_hat,
            "--N-grid", "2,4,8,16"] + mode
    assert main(argv) == 0
    without = capsys.readouterr().out
    assert main(argv + ["--pi-d", pi_d]) == 0
    assert capsys.readouterr().out == without
    assert len(without.splitlines()) == 5
    # The flag is read: another piD gives another curve.
    assert main(argv + ["--pi-d", pi_hat]) == 0
    assert capsys.readouterr().out != without


def test_eval_coverage_pi_d_of_another_shape_exits_2(pi_d_files, capsys):
    task, _, pi_hat, pi_d_v3 = pi_d_files
    for mode in ("exact", "mc"):
        assert main(["eval-coverage", "--task", task, "--pi-hat", pi_hat,
                     "--pi-d", pi_d_v3, "--N-grid", "2", "--mode",
                     mode]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "(V, H)" in json.loads(out.err)["error"]


def tabular_file(path, pol):
    """`pol`'s stored rows as a tabular policy file (uniform default)."""
    return write(path, {"type": "tabular", "V": pol.V, "H": pol.H,
                        "tables": [{"x": x, "prefix": list(pre),
                                    "p": list(map(float, row))}
                                   for (x, pre), row in pol.tables.items()]})


@pytest.fixture
def tabular_files(tmp_path):
    """Three V = 2, H = 3 candidates on prompts 0 and 1 (one with missing
    mass) and 40 examples from the second, with repeated prompts."""
    rng = SeedTree(820).rng()
    pols = [random_tabular(rng, 2, 3, prompts=(0, 1)),
            tabular_with_missing_mass(rng, 2, 3, prompts=(0, 1)),
            random_tabular(rng, 2, 3, prompts=(0, 1), alpha=0.5)]
    cands = [tabular_file(tmp_path / f"cand{k}.json", p)
             for k, p in enumerate(pols)]
    ds = sample_dataset(pols[1], FinitePromptDist([0, 1], [0.6, 0.4]), 40,
                        SeedTree(821).rng())
    save_jsonl(ds, tmp_path / "ds.jsonl")
    return cands, str(tmp_path / "ds.jsonl")


def test_tournament_offset_rule_end_to_end(tabular_files, capsys):
    cands, data = tabular_files
    N, gamma = 2.0, 0.25
    assert main(["tournament", "--candidates", *cands, "--data", data,
                 "--N", "2", "--rule", "offset", "--gamma", "0.25",
                 "--seed", "6"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert set(got) == {"selected", "pairwise", "offsets"}
    loaded = [cli.load_policy(p) for p in cands]
    ds = load_jsonl(data, H=3, V=2)
    want = offset_tournament(CandidateClass(loaded), ds, N, gamma,
                             rng=SeedTree(6).child("tournament").rng())
    assert got["selected"] == want.selected
    assert np.array_equal(got["pairwise"], want.pairwise)
    assert np.array_equal(got["offsets"], want.offsets)
    # V^H = 8, so the offsets are exact: P_{y~c_j}(c_i / c_j >= N).
    for j, c in enumerate(loaded):
        for i, q in enumerate(loaded):
            ref = 0.0 if i == j else exact_oracle.onpolicy_cov(c, q, c,
                                                               ds.xs, N)
            assert abs(got["offsets"][i][j] - ref) <= 1e-12, (i, j)
    assert max(max(row) for row in got["offsets"]) > 0.0


def test_main_reuses_its_parser_across_calls(coin_files, tabular_files,
                                             capsys):
    # A usage error, then valid commands, through one process's `main`
    # give the exit codes and output of a fresh process per command.
    task, _, pol_bad = coin_files
    cands, data = tabular_files
    argvs = [
        ["eval-coverage", "--task", task],
        ["eval-coverage", "--task", task, "--pi-hat", pol_bad,
         "--N-grid", "2,4", "--mode", "mc", "--n-samples", "300",
         "--seed", "1"],
        ["tournament", "--candidates", *cands, "--data", data, "--N", "2",
         "--rule", "offset", "--gamma", "0.25", "--seed", "2"],
        ["bon", "--task", task, "--pi-hat", pol_bad, "--N-grid", "1,4",
         "--trials", "200", "--seed", "3"],
    ]
    in_process = []
    for argv in argvs:
        code = main(argv)
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    assert cli.build_parser() is cli.build_parser()
    src = os.path.dirname(os.path.dirname(covkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    separate = []
    for argv in argvs:
        run = subprocess.run([sys.executable, "-m", "covkit.cli", *argv],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        separate.append((run.returncode, run.stdout, run.stderr))
    assert [r[0] for r in in_process] == [2, 0, 0, 0]
    assert "required" in in_process[0][2]
    assert in_process == separate
