"""Array-backed datasets against the per-example reference in
dataset_oracle.py: loading, writing, sampling, grouping and scoring."""

import json

import numpy as np
import pytest

import dataset_oracle as oracle
from conftest import random_tabular
from covkit import core
from covkit.cli import main
from covkit.core import (Dataset, Trajectory, group_prompts, load_jsonl,
                         logprob_matrix, sample_dataset, save_jsonl)
from covkit.harness import build_task
from covkit.models import TabularModel
from covkit.seeding import SeedTree

PROMPTS = [0, 1, 7, -3, "a", "bc", (1, 2), (0,), ()]


def random_prompt(rng):
    return PROMPTS[int(rng.integers(len(PROMPTS)))]


def write_random_file(path, rng, n, H, V):
    """n lines with int, string and list prompts and varied spacing."""
    with open(path, "w") as f:
        for _ in range(n):
            x = random_prompt(rng)
            rec = {"x": list(x) if isinstance(x, tuple) else x,
                   "y": rng.integers(0, V, H).tolist()}
            if rng.random() < 0.5:
                rec = dict(reversed(list(rec.items())))
            sep = (",", ":") if rng.random() < 0.5 else (", ", ": ")
            f.write(json.dumps(rec, separators=sep) + "\n")


@pytest.mark.parametrize("chunk", [1, 5, core.LOAD_CHUNK])
@pytest.mark.parametrize("seed", range(6))
def test_load_matches_per_line_reference(tmp_path, monkeypatch, chunk, seed):
    monkeypatch.setattr(core, "LOAD_CHUNK", chunk)
    rng = np.random.default_rng([seed, 11])
    n, H, V = int(rng.integers(1, 60)), int(rng.integers(1, 5)), \
        int(rng.integers(2, 6))
    path, head = tmp_path / "d.jsonl", tmp_path / "d.head.json"
    write_random_file(path, rng, n, H, V)
    head.write_text(json.dumps({"seed_info": {"seed": seed, "n": n}}))
    ds = load_jsonl(path, H=H, V=V, header_path=head)
    ref, info = oracle.load_examples(path, header_path=head)
    assert ds.xs == [t.x for t in ref]
    assert [type(x) for x in ds.xs] == [type(t.x) for t in ref]
    assert ds.Y.dtype == np.int64
    assert np.array_equal(ds.Y, np.array([t.y for t in ref]))
    assert ds == Dataset(ref, H=H, V=V, seed_info=info)
    assert ds.seed_info == info == {"seed": seed, "n": n}
    assert len(ds) == n


def test_load_empty_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("")
    ds = load_jsonl(path, H=3, V=2)
    assert len(ds) == 0 and ds.Y.shape == (0, 3) and ds.xs == []


def mixed_prompt_sampler(rng):
    return random_prompt(rng)


@pytest.mark.parametrize("seed", range(4))
def test_save_load_round_trip_and_bytes(tmp_path, seed):
    rng = np.random.default_rng(seed)
    pol = random_tabular(rng, 3, 4, prompts=PROMPTS)
    ds = sample_dataset(pol, mixed_prompt_sampler, 80,
                        SeedTree(seed).rng(), seed_info={"seed": seed})
    ref = oracle.sample_examples(pol, mixed_prompt_sampler, 80,
                                 SeedTree(seed).rng())
    assert ds == Dataset(ref, H=4, V=3, seed_info={"seed": seed})
    path, head = tmp_path / "d.jsonl", tmp_path / "d.head.json"
    save_jsonl(ds, path, header_path=head)
    oracle.save_examples(ref, tmp_path / "ref.jsonl")
    assert path.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    assert load_jsonl(path, H=4, V=3, header_path=head) == ds


@pytest.mark.parametrize("task,params", [
    ("bernoulli", {"p_star": 0.3}),
    ("heterogeneous_kl", {"n": 3, "H": 4}),
    ("sgd_lower", {"variant": "large_eta", "H": 3, "B": 1.0, "eta": 4.0}),
])
def test_gen_data_bytes_match_reference_writer(tmp_path, capsys, task,
                                               params):
    out, head = tmp_path / "d.jsonl", tmp_path / "d.head.json"
    rc = main(["gen-data", "--task", task, "--params", json.dumps(params),
               "--n", "150", "--seed", "9", "--out", str(out),
               "--header", str(head)])
    assert rc == 0
    capsys.readouterr()
    inst = build_task(task, params)
    ref = oracle.sample_examples(inst.piD, inst.mu, 150,
                                 SeedTree(9).child("gen-data").rng())
    oracle.save_examples(ref, tmp_path / "ref.jsonl")
    assert out.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    assert json.loads(head.read_text()) == {
        "H": inst.H, "V": inst.V, "n": 150,
        "seed_info": {"task": task, "params": params, "seed": 9}}


@pytest.mark.parametrize("seed", range(8))
def test_group_prompts_matches_dict_loop(seed):
    rng = np.random.default_rng(seed)
    prompts = [random_prompt(rng) for _ in range(int(rng.integers(0, 200)))]
    got = group_prompts(prompts)
    want = oracle.group_prompts(prompts)
    assert list(got) == list(want)
    for x in want:
        assert np.array_equal(got[x], want[x])
        assert got[x].dtype.kind == "i"


def with_missing_mass(rng, V, H, prompts):
    """Random prefix-dependent tables with about one zero entry in four."""
    tables = dict(random_tabular(rng, V, H, prompts=prompts).tables)
    for key, row in tables.items():
        row = np.where(rng.random(V) < 0.25, 0.0, row)
        if row.sum() == 0.0:
            row[int(rng.integers(V))] = 1.0
        tables[key] = row / row.sum()
    return TabularModel(tables, V=V, H=H)


@pytest.mark.parametrize("seed", range(4))
def test_logprob_matrix_dataset_list_and_rows_agree(seed):
    rng = np.random.default_rng([seed, 5])
    V, H = 3, 3
    prompts = [0, "a", (1, 2)]
    cands = [with_missing_mass(rng, V, H, prompts) for _ in range(3)]
    xs = [prompts[int(i)] for i in rng.integers(0, 3, 120)]
    Y = rng.integers(0, V, (120, H))
    ds = Dataset.from_arrays(xs, Y, H=H, V=V)
    on_ds = logprob_matrix(cands, ds)
    examples = [Trajectory(x, y) for x, y in zip(xs, Y.tolist())]
    on_list = logprob_matrix(cands, Dataset(examples, H=H, V=V))
    rows = np.array([[pi.logprob(t) for t in examples] for pi in cands])
    assert np.isneginf(rows).any() and np.isfinite(rows).any()
    for got in (on_ds, on_list):
        assert np.array_equal(np.isneginf(got), np.isneginf(rows))
        fin = np.isfinite(rows)
        assert np.max(np.abs(got[fin] - rows[fin])) <= 1e-12
    # The cached groups serve a second call unchanged.
    assert ds.groups is ds.groups
    assert np.array_equal(logprob_matrix(cands, ds), on_ds)


def test_dataset_from_examples_equals_from_arrays():
    rng = np.random.default_rng(3)
    xs = [random_prompt(rng) for _ in range(40)]
    Y = rng.integers(0, 4, (40, 5))
    examples = [Trajectory(x, tuple(y)) for x, y in zip(xs, Y.tolist())]
    a = Dataset(examples, H=5, V=4, seed_info={"k": 1})
    b = Dataset.from_arrays(xs, Y, H=5, V=4, seed_info={"k": 1})
    assert a == b
    assert a.xs == b.xs and np.array_equal(a.Y, b.Y)
    assert b != Dataset.from_arrays(xs, Y, H=5, V=5, seed_info={"k": 1})
    assert Dataset([], H=2, V=3) == Dataset.from_arrays([], np.zeros((0, 2)),
                                                        H=2, V=3)


def test_dataset_validation_messages():
    for make in (lambda ys: Dataset([Trajectory(0, y) for y in ys], 2, 3),
                 lambda ys: Dataset.from_arrays([0] * len(ys),
                                                np.array(ys), 2, 3)):
        with pytest.raises(ValueError, match="token id out of range"):
            make([(0, 1), (3, 0)])
        with pytest.raises(ValueError, match="token id out of range"):
            make([(0, -1)])
    with pytest.raises(ValueError, match="inhomogeneous horizon"):
        Dataset([Trajectory(0, (0, 1)), Trajectory(0, (0,))], 2, 3)
    with pytest.raises(ValueError, match="inhomogeneous horizon"):
        Dataset.from_arrays([0], np.zeros((1, 3), dtype=int), 2, 3)
    for Y in (np.array([[0.0, 1.5]]), np.array([[True, False]])):
        with pytest.raises(ValueError, match="must be integers"):
            Dataset.from_arrays([0], Y, 2, 3)


GOOD = '{"x": 0, "y": [0, 1]}'
BAD_LINES = [
    ('{"x": 0, "y": [1.5, 1]}', "not an integer"),
    ('{"x": 0, "y": [1, 1.0]}', "not an integer"),
    ('{"x": 0, "y": [true, 0]}', "not an integer"),
    ('{"x": 0, "y": [1, false]}', "not an integer"),
    ('{"x": 0, "y": ["1", 0]}', "not an integer"),
    ('{"x": 0, "y": [null, 0]}', "not an integer"),
    ('{"x": 0, "y": 5}', "list of integer tokens"),
    ('{"x": 0, "y": "01"}', "list of integer tokens"),
    ('[1, 2]', "object with keys"),
    ('7', "object with keys"),
    ('{"x": 0}', "object with keys"),
    ('{"y": [0, 1]}', "object with keys"),
    ('{"x": 0, "y": [0]}', "inhomogeneous horizon"),
    ('{"x": 0, "y": [0, 1, 1]}', "inhomogeneous horizon"),
    ('{"x": 0, "y": []}', "inhomogeneous horizon"),
    ('{"x": 0, "y": [0, 2]}', "out of range"),
    ('{"x": 0, "y": [-1, 0]}', "out of range"),
    ('{"x": 0, "y": [0, 123456789012345678901234567890]}', "out of range"),
    (GOOD + " " + GOOD, "not one JSON value"),
    (GOOD + ", " + GOOD, "not one JSON value"),
    ('{"x": 0, "y": [0, 1]', "not one JSON value"),
    ("", "not one JSON value"),
]


@pytest.mark.parametrize("line,why", BAD_LINES)
@pytest.mark.parametrize("where", [1, 4, 10])
def test_bad_line_is_named(tmp_path, monkeypatch, line, why, where):
    monkeypatch.setattr(core, "LOAD_CHUNK", 4)
    lines = [GOOD] * 12
    lines[where - 1] = line
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line {where}: .*{why}"):
        load_jsonl(path, H=2, V=2)


def test_tournament_bad_data_line_exits_2(tmp_path, capsys):
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps({"type": "tabular", "V": 2, "H": 1, "tables": [
        {"x": 0, "prefix": [], "p": [0.7, 0.3]}]}))
    for bad in ('[1, 2]', '{"x": 0, "y": [1.5]}', '{"x": 0, "y": [true]}',
                '{"x": 0, "y": ["1"]}', '{"x": 0, "y": [0, 1]}'):
        data = tmp_path / "d.jsonl"
        data.write_text('{"x": 0, "y": [1]}\n' + bad + "\n")
        rc = main(["tournament", "--candidates", str(pol), "--data",
                   str(data), "--N", "4"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "validation"
        assert "line 2" in err["error"]
