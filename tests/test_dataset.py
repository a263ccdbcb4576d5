"""Array-backed datasets against the per-example reference in
dataset_oracle.py: loading, writing, sampling, grouping and scoring."""

import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import dataset_oracle as oracle
from conftest import random_tabular
import covkit
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
    path = tmp_path / "d.jsonl"
    write_random_file(path, rng, n, H, V)
    ds = load_jsonl(path, H=H, V=V)
    ref = oracle.load_examples(path)
    assert ds.xs == [t.x for t in ref]
    assert [type(x) for x in ds.xs] == [type(t.x) for t in ref]
    assert ds.Y.dtype == np.int64
    assert np.array_equal(ds.Y, np.array([t.y for t in ref]))
    assert ds == Dataset([t.x for t in ref], [t.y for t in ref], H=H, V=V)
    assert len(ds) == n


def test_load_empty_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("")
    ds = load_jsonl(path, H=3, V=2)
    assert len(ds) == 0 and ds.Y.shape == (0, 3) and ds.xs == []


def json_only_load(path, H, V):
    """`load_jsonl` with the canonical fast path off: every chunk is read
    by `json`."""
    with mock.patch.object(core, "_parse_canonical", lambda *a: None):
        return load_jsonl(path, H=H, V=V)


def load_or_error(load, path, H, V):
    try:
        return load(path, H=H, V=V)
    except ValueError as e:
        return str(e)


# JSON integer texts near the canonical form: leading zeros, -0, and 18-
# and 19-digit values (int64 holds 18 digits, not every 19).
ODD_INTS = ["01", "-0", "-1", "1.0", "999999999999999999",
            "-999999999999999999", "9223372036854775808",
            "-9223372036854775809"]


CHANGES = [None, "compact", "y first", "dup x", "trailing space", "odd prompt",
           "odd token", "big token", "string", "list", "horizon", "cut",
           "blank"]


@st.composite
def near_canonical_line(draw, H, V, change=None):
    """One data line in `save_jsonl`'s layout for an int prompt, with one
    part changed or one non-digit cut if `change` names it."""
    if change == "blank":
        return ""
    x = str(draw(st.integers(-5, 5)))
    ys = [str(draw(st.integers(0, V - 1))) for _ in range(H)]
    if change == "odd prompt":
        x = draw(st.sampled_from(ODD_INTS))
    elif change == "odd token" and H:
        ys[draw(st.integers(0, H - 1))] = draw(st.sampled_from(ODD_INTS))
    elif change == "big token" and H:
        ys[draw(st.integers(0, H - 1))] = str(V)
    elif change == "string":
        x = json.dumps(draw(st.sampled_from(["a", "+", "é", "7"])))
    elif change == "list":
        x = json.dumps(draw(st.lists(st.integers(-2, 2), max_size=2)))
    elif change == "horizon":
        ys = ys[1:] if H and draw(st.booleans()) else ys + ["0"]
    comma, colon = (",", ":") if change == "compact" else (", ", ": ")
    fields = [f'"x"{colon}{x}', f'"y"{colon}[{comma.join(ys)}]']
    if change == "y first":
        fields.reverse()
    elif change == "dup x":
        fields.insert(0, f'"x"{colon}{draw(st.integers(0, 3))}')
    line = "{" + comma.join(fields) + "}"
    if change == "cut":             # a separator, quote, key or bracket
        at = draw(st.sampled_from([i for i, c in enumerate(line)
                                   if not c.isdigit()]))
        return line[:at] + line[at + 1:]
    return line + " " if change == "trailing space" else line


@st.composite
def near_canonical_file(draw):
    """(H, V, text): up to 12 canonical lines, one or two of them changed
    (so that a change is often the first bad line), and sometimes no final
    newline."""
    H, V = draw(st.integers(0, 3)), draw(st.integers(2, 4))
    n = draw(st.integers(0, 12))
    changes = dict(draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.sampled_from(CHANGES)),
                                 min_size=1, max_size=2))) if n else {}
    lines = [draw(near_canonical_line(H, V, changes.get(i)))
             for i in range(n)]
    end = "\n" if draw(st.booleans()) or not lines else ""
    return H, V, "\n".join(lines) + end


@pytest.mark.parametrize("chunk", [1, 5, core.LOAD_CHUNK])
@seed(27)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=near_canonical_file())
def test_load_equals_json_only_load(tmp_path, monkeypatch, chunk, case):
    monkeypatch.setattr(core, "LOAD_CHUNK", chunk)
    H, V, text = case
    path = tmp_path / "d.jsonl"
    path.write_text(text, encoding="utf-8")
    want = load_or_error(json_only_load, path, H, V)
    got = load_or_error(load_jsonl, path, H, V)
    assert got == want
    if isinstance(want, Dataset):
        assert [type(x) for x in got.xs] == [type(x) for x in want.xs]


def test_canonical_files_never_call_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(core, "LOAD_CHUNK", 64)
    calls = []
    loads = json.loads
    monkeypatch.setattr(core.json, "loads",
                        lambda *a, **k: calls.append(1) or loads(*a, **k))
    rng = np.random.default_rng(5)
    pol = random_tabular(rng, 3, 4, prompts=[0, 1, 7, -3])
    ds = sample_dataset(pol, lambda r: [0, 1, 7, -3][int(r.integers(4))],
                        300, SeedTree(5).rng())
    save_jsonl(ds, tmp_path / "saved.jsonl")
    assert load_jsonl(tmp_path / "saved.jsonl", H=4, V=3) == ds
    assert calls == []
    for task, params, H, V in [
            ("heterogeneous_kl", {"n": 3, "H": 4}, 4, 2),
            ("sigma_star", {"H": 24, "B": 5, "N": 1.2, "n": 2}, 24, 2)]:
        data = tmp_path / f"{task}.jsonl"
        assert main(["gen-data", "--task", task, "--params",
                     json.dumps(params), "--n", "300", "--seed", "3",
                     "--out", str(data)]) == 0
        capsys.readouterr()
        calls.clear()           # gen-data parses --params
        ds = load_jsonl(data, H=H, V=V)
        # heterogeneous_kl has int prompts; sigma_star's "+" and "-" need
        # the JSON path.
        assert bool(calls) == (task == "sigma_star")
        ref = oracle.load_examples(data)
        assert ds == Dataset([t.x for t in ref], [t.y for t in ref], H=H,
                             V=V)


def test_inputs_read_as_utf8_under_an_ascii_locale(tmp_path):
    data, pol = tmp_path / "d.jsonl", tmp_path / "pol.json"
    data.write_text('{"x": "é", "y": [0, 1]}\n', encoding="utf-8")
    pol.write_text(json.dumps({"type": "tabular", "V": 2, "H": 2, "tables": [
        {"x": "é", "prefix": p, "p": [0.5, 0.5]} for p in ([], [0], [1])]},
        ensure_ascii=False), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(covkit.__file__))
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from covkit.core import load_jsonl; "
         "print(ascii(load_jsonl(sys.argv[1], H=2, V=2).xs))", str(data)],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == ascii(["é"]) + "\n"
    run = subprocess.run(
        [sys.executable, "-m", "covkit.cli", "tournament", "--candidates",
         str(pol), "--data", str(data), "--rule", "ce"],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["selected"] == 0


def mixed_prompt_sampler(rng):
    return random_prompt(rng)


@pytest.mark.parametrize("seed", range(4))
def test_save_load_round_trip_and_bytes(tmp_path, seed):
    rng = np.random.default_rng(seed)
    pol = random_tabular(rng, 3, 4, prompts=PROMPTS)
    ds = sample_dataset(pol, mixed_prompt_sampler, 80, SeedTree(seed).rng())
    ref = oracle.sample_examples(pol, mixed_prompt_sampler, 80,
                                 SeedTree(seed).rng())
    assert ds == Dataset([t.x for t in ref], [t.y for t in ref], H=4, V=3)
    path = tmp_path / "d.jsonl"
    save_jsonl(ds, path)
    oracle.save_examples(ref, tmp_path / "ref.jsonl")
    assert path.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    assert load_jsonl(path, H=4, V=3) == ds


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
    ds = Dataset(xs, Y, H=H, V=V)
    on_ds = logprob_matrix(cands, ds)
    examples = [Trajectory(x, y) for x, y in zip(xs, Y.tolist())]
    on_list = logprob_matrix(cands, Dataset(xs, Y.tolist(), H=H, V=V))
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
    # The one constructor reads Y as an array or as a list of row tuples.
    a = Dataset(xs, [tuple(y) for y in Y.tolist()], H=5, V=4)
    b = Dataset(xs, Y, H=5, V=4)
    assert a == b
    assert a.xs == b.xs and np.array_equal(a.Y, b.Y)
    assert a.Y.dtype == b.Y.dtype == np.int64
    assert b != Dataset(xs, Y, H=5, V=5)
    assert Dataset([], [], H=2, V=3) == Dataset([], np.zeros((0, 2)),
                                                H=2, V=3)


def test_dataset_validation_messages():
    for make in (lambda ys: Dataset([0] * len(ys), ys, 2, 3),
                 lambda ys: Dataset([0] * len(ys), np.array(ys), 2, 3)):
        with pytest.raises(ValueError, match="token id out of range"):
            make([(0, 1), (3, 0)])
        with pytest.raises(ValueError, match="token id out of range"):
            make([(0, -1)])
    with pytest.raises(ValueError, match="inhomogeneous horizon"):
        Dataset([0, 0], [(0, 1), (0,)], 2, 3)
    with pytest.raises(ValueError, match="inhomogeneous horizon"):
        Dataset([0], np.zeros((1, 3), dtype=int), 2, 3)
    with pytest.raises(ValueError, match="inhomogeneous horizon"):
        Dataset([0, 0], np.zeros((1, 2), dtype=int), 2, 3)
    for Y in (np.array([[0.0, 1.5]]), np.array([[True, False]])):
        with pytest.raises(ValueError, match="must be integers"):
            Dataset([0], Y, 2, 3)


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
    ('{"x": 0, "y": [0, 1000000000000000000]}', "out of range"),
    ('{"x": 0, "y": [0, 01]}', "not one JSON value"),
    ('{"x": 00, "y": [0, 1]}', "not one JSON value"),
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


# Lines that are not `save_jsonl`'s layout but are valid: each loads as
# `json` reads it.
ACCEPTED_LINES = [
    '{"x": 0, "y": [0, 1]} ',
    '{"x": -0, "y": [1, 0]}',
    '{"x": 0, "y": [-0, 1]}',
    '{"x": 0, "x": 1, "y": [1, 1]}',
    '{"x": 1000000000000000000, "y": [0, 1]}',
    '{"x": -9223372036854775809, "y": [1, 0]}',
    '{"x": 999999999999999999, "y": [1, 1]}',
]


@pytest.mark.parametrize("line", ACCEPTED_LINES)
@pytest.mark.parametrize("where", [1, 4, 10])
def test_near_canonical_line_loads_as_json_reads_it(tmp_path, monkeypatch,
                                                    line, where):
    monkeypatch.setattr(core, "LOAD_CHUNK", 4)
    lines = [GOOD] * 12
    lines[where - 1] = line
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(lines) + "\n")
    recs = [json.loads(s) for s in lines]
    ds = load_jsonl(path, H=2, V=2)
    assert ds == Dataset([r["x"] for r in recs], [r["y"] for r in recs],
                         H=2, V=2)
    assert [type(x) for x in ds.xs] == [int] * 12


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
