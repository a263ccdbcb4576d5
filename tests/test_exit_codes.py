"""CLI exit codes follow the phase that failed: 2 while the arguments and
input files are read, 3 once the computation has started."""

import json

import pytest

from covkit import cli, harness
from covkit.cli import main


def write(path, obj):
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    task = write(tmp_path / "task.json",
                 {"name": "bernoulli", "params": {"p_star": 0.3}})
    pol = write(tmp_path / "pol.json",
                {"type": "tabular", "V": 2, "H": 1,
                 "tables": [{"x": 0, "prefix": [], "p": [0.7, 0.3]}]})
    data = write(tmp_path / "d.jsonl", '{"x": 0, "y": [1]}\n')
    return task, pol, data


def error_of(capsys):
    return json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["tournament", "--candidates", "{bad}", "--data", "{data}"],
    ["tournament", "--candidates", "{pol}", "--data", "{missing}"],
    ["tournament", "--candidates", "{pol}", "{pol_h2}", "--data", "{data}"],
    ["eval-coverage", "--task", "{bad}", "--pi-hat", "{pol}", "--N-grid",
     "2"],
    ["eval-coverage", "--task", "{task}", "--pi-hat", "{nokeys}",
     "--N-grid", "2"],
    ["eval-coverage", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid",
     "2,x"],
    ["eval-coverage", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid",
     "0.5"],
    ["eval-coverage", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid",
     "8,2"],
    ["eval-coverage", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid",
     "nan"],
    ["eval-coverage", "--task", "{task}", "--pi-hat", "{pol}", "--mode",
     "mc", "--N-grid", "2,nan"],
    ["bon", "--task", "{notask}", "--pi-hat", "{pol}", "--N-grid", "2"],
    ["bon", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid", "0.5"],
    ["bon", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid", "nan"],
    ["bon", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid", "2.7"],
    ["bon", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid", "4,inf"],
    ["gen-data", "--task", "bernoulli", "--params", "{{", "--n", "5",
     "--out", "{out}"],
    ["gen-data", "--task", "bernoulli", "--params", '{{"p_star": 0.9}}',
     "--n", "5", "--out", "{out}"],
    # An unknown task name once exited 3 with the bare KeyError "'bogus'".
    ["gen-data", "--task", "bogus", "--n", "5", "--out", "{out}"],
    ["run", "{bad}"],
    ["run", "{missing}"],
    ["tournament", "--candidates", "{pol}", "--data", "{data}", "--N", "nan"],
    ["tournament", "--candidates", "{pol}", "--data", "{data}", "--N", "inf"],
    ["tournament", "--candidates", "{pol}", "--data", "{data}", "--N", "0.5"],
    ["tournament", "--candidates", "{pol}", "--data", "{data}", "--rule",
     "offset", "--gamma", "nan"],
    ["tournament", "--candidates", "{pol}", "--data", "{data}", "--rule",
     "offset", "--gamma", "-1"],
    ["bon", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid", "2",
     "--reward-scale", "nan"],
    ["bon", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid", "2",
     "--reward-scale", "0"],
    ["bon", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid", "2",
     "--trials", "50"],
    ["eval-coverage", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid",
     "2", "--mode", "mc", "--n-samples", "1"],
    ["eval-coverage", "--task", "{graph}", "--pi-hat", "{pol}", "--N-grid",
     "2", "--mode", "exact"],
    ["gen-data", "--task", "bernoulli", "--params", '{{"p_star": 0.3}}',
     "--n", "0", "--out", "{out}"],
    ["eval-coverage", "--task", "{task}", "--pi-hat", "{pol_h2}",
     "--N-grid", "2"],
    ["eval-coverage", "--task", "{task}", "--pi-hat", "{pol_v3}",
     "--N-grid", "2", "--mode", "mc"],
    ["bon", "--task", "{task}", "--pi-hat", "{pol_v3}", "--N-grid", "2"],
    # A repeated threshold made two equal columns.
    ["eval-coverage", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid",
     "1,2,2,8"],
    ["eval-coverage", "--task", "{task}", "--pi-hat", "{pol}", "--N-grid",
     "2,2", "--mode", "mc"],
])
def test_input_errors_exit_2(tmp_path, files, capsys, argv):
    task, pol, data = files
    names = {
        "task": task, "pol": pol, "data": data,
        "bad": write(tmp_path / "bad.json", "{not json"),
        "missing": str(tmp_path / "missing.json"),
        "nokeys": write(tmp_path / "nokeys.json", {"type": "tabular"}),
        "notask": write(tmp_path / "notask.json", {"params": {}}),
        "pol_h2": write(tmp_path / "pol_h2.json",
                        {"type": "tabular", "V": 2, "H": 2, "tables": []}),
        "pol_v3": write(tmp_path / "pol_v3.json",
                        {"type": "tabular", "V": 3, "H": 1, "tables": []}),
        "graph": write(tmp_path / "graph.json",
                       {"name": "graph_teaser", "params": {}}),
        "out": str(tmp_path / "out.jsonl"),
    }
    assert main([a.format(**names) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["kind"] == "validation"
    assert not (tmp_path / "out.jsonl").exists()


# Each of these once exited 2 with a bare Python message that named
# neither the file nor the field ("'V'", "'int' object is not iterable").
MALFORMED = {
    "policy without V": ("policy", {"type": "tabular", "H": 1, "tables": []},
                         ["policy file", "has no 'V'"]),
    "policy list": ("policy", [1, 2],
                    ["policy file", "must be an object, got list"]),
    "row prefix 5": ("policy", {"type": "tabular", "V": 2, "H": 1, "tables": [
        {"x": 0, "prefix": 5, "p": [0.5, 0.5]}]},
        ["tables[0].prefix must be a list of tokens, got 5"]),
    "row without x": ("policy", {"type": "tabular", "V": 2, "H": 1,
                                 "tables": [{"prefix": [], "p": [0.5, 0.5]}]},
                      ["tables[0] has no 'x'"]),
    "task list": ("task", ["name"],
                  ["task file", "must be an object, got list"]),
    "task without name": ("task", {"params": {}}, ["task file", "has no 'name'"]),
    "params list": ("params", [1], ["--params must be an object, got list"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_inputs_are_refused_by_name(tmp_path, files, capsys,
                                              case):
    task, pol, _ = files
    kind, spec, wanted = MALFORMED[case]
    path = write(tmp_path / "bad.json", spec)
    out = tmp_path / "out.jsonl"
    if kind == "params":
        argv = ["gen-data", "--task", "bernoulli", "--params",
                json.dumps(spec), "--n", "5", "--out", str(out)]
    else:
        argv = ["eval-coverage", "--task", path if kind == "task" else task,
                "--pi-hat", path if kind == "policy" else pol,
                "--N-grid", "2"]
        wanted = [path, *wanted]
    assert main(argv) == 2
    err = error_of(capsys)
    assert err["kind"] == "validation"
    for text in wanted:
        assert text in err["error"], err
    assert not out.exists()


def boom(*args, **kwargs):
    raise ValueError("boom")


@pytest.mark.parametrize("name,argv", [
    ("simple_tournament", ["tournament", "--candidates", "{pol}", "--data",
                           "{data}", "--rule", "simple"]),
    ("select_ce", ["tournament", "--candidates", "{pol}", "--data", "{data}",
                   "--rule", "ce"]),
    ("coverage_exact", ["eval-coverage", "--task", "{task}", "--pi-hat",
                        "{pol}", "--N-grid", "2"]),
    ("bon_regret", ["bon", "--task", "{task}", "--pi-hat", "{pol}",
                    "--N-grid", "2", "--trials", "100"]),
    ("gen_data", ["gen-data", "--task", "bernoulli", "--params",
                  '{{"p_star": 0.3}}', "--n", "5", "--out", "{data}"]),
])
def test_value_error_after_loading_exits_3(files, capsys, monkeypatch, name,
                                           argv):
    task, pol, data = files
    monkeypatch.setattr(cli, name, boom)
    assert main([a.format(task=task, pol=pol, data=data)
                 for a in argv]) == 3
    assert error_of(capsys) == {"error": "boom", "kind": "runtime"}


def run_config(tmp_path):
    return {"version": 1,
            "task": {"name": "heterogeneous_kl", "params": {"n": 3, "H": 2}},
            "learner": {"name": "sgd_vanilla", "train": {"eta": 0.1, "T": 4}},
            "metrics": {"n_grid": [2]},
            "sweep": {"axes": {}, "seeds": [1]},
            "out_dir": str(tmp_path / "out"), "root_seed": 1}


def test_value_error_inside_a_job_exits_3(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path / "cfg.json", run_config(tmp_path))
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    monkeypatch.setattr(harness, "run_learner", boom)
    assert main(["run", cfg]) == 3
    assert error_of(capsys)["kind"] == "runtime"


def test_config_error_inside_a_job_exits_2(tmp_path, capsys):
    cfg = run_config(tmp_path)
    cfg["task"] = {"name": "bernoulli", "params": {"p_star": 0.3}}
    assert main(["run", write(tmp_path / "cfg.json", cfg)]) == 2
    assert "feature map" in error_of(capsys)["error"]


@pytest.mark.parametrize("argv,labels", [
    (["eval-coverage", "--N-grid", "1,2,8"], ["1", "2", "8"]),
    (["bon", "--N-grid", "4,1,2.0", "--trials", "100"], ["4", "1", "2"]),
    # Best-of-N sizes are not thresholds: they may repeat.
    (["bon", "--N-grid", "2,2", "--trials", "100"], ["2", "2"]),
])
def test_valid_grids_still_run(files, capsys, argv, labels):
    task, pol, _ = files
    assert main(argv + ["--task", task, "--pi-hat", pol]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == labels


def test_library_checks_refuse_nan():
    """The library's own checks refuse NaN, as the CLI's flag checks do."""
    from covkit.core import Dataset, FinitePromptDist, sample_dataset
    from covkit.decoding import AdversarialReward, bon_regret
    from covkit.metrics import CoverageCurve, coverage_mc, stopped_kl
    from covkit.selection import (CandidateClass, offset_tournament,
                                  simple_tournament)
    from covkit.tasks import bernoulli_model
    nan = float("nan")
    pol = bernoulli_model(0.3)
    mu = FinitePromptDist([0], [1.0])
    cands = CandidateClass([pol, bernoulli_model(0.5)])
    ds = Dataset([0, 0], [[1], [0]], H=1, V=2)
    calls = [
        lambda: simple_tournament(cands, ds, nan),
        lambda: offset_tournament(cands, ds, nan, 1.0),
        lambda: offset_tournament(cands, ds, 4.0, nan),
        lambda: offset_tournament(cands, ds, 4.0, -1.0),
        lambda: AdversarialReward(pol, pol, nan),
        lambda: AdversarialReward(pol, pol, 0.0),
        lambda: bon_regret(pol, pol, lambda x, y: 0, mu, 1, nan, None),
        lambda: bon_regret(pol, pol, lambda x, y: 0, mu, nan, 100, None),
        lambda: stopped_kl(pol, pol, [(0, 1.0)], nan),
        lambda: coverage_mc(pol, pol, mu, [2.0], nan, None),
        lambda: sample_dataset(pol, mu, nan, None),
        lambda: CoverageCurve([nan], [0.0], [0.0]),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
