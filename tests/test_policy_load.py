"""`cli.load_policy` against the reference loader without the key checks:
the same TabularModel arrays on random files, the same message on each
malformed row, and a refusal naming each key a policy file must not
have."""

import itertools
import json

import numpy as np
import pytest

import policy_oracle
from covkit import cli
from covkit.cli import load_policy, main
from covkit.harness import ConfigError
from covkit.models import TabularModel

# Int prompts (negative and multi-digit among them), strings and lists.
PROMPTS = [0, 1, -7, -4096, 305, 10 ** 12, "a", "é", [1, 2], [-3], []]


def random_spec(rng, V, H):
    """A policy file's object: a random subset of PROMPTS, each prompt's
    rows with about a quarter of its prefixes missing, in shuffled order,
    and sometimes a `default`."""
    prompts = [PROMPTS[i] for i in rng.permutation(len(PROMPTS))[
        :int(rng.integers(1, len(PROMPTS) + 1))]]
    rows = [{"x": x, "prefix": list(pre),
             "p": rng.dirichlet(np.ones(V)).tolist()}
            for x in prompts for h in range(H)
            for pre in itertools.product(range(V), repeat=h)
            if rng.random() < 0.75]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    spec = {"type": "tabular", "V": V, "H": H, "tables": rows}
    if rng.random() < 0.5:
        spec["default"] = rng.dirichlet(np.ones(V)).tolist()
    return spec


def write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def assert_same_model(got, want):
    for name in ("_rows", "_codes", "default"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got._bounds == want._bounds
    assert list(got._prompts.items()) == list(want._prompts.items())
    assert [type(x) for x in got._prompts] == [type(x) for x in want._prompts]
    assert (got.V, got.H) == (want.V, want.H)


@pytest.mark.parametrize("seed", range(30))
def test_load_matches_per_row_reference(tmp_path, seed):
    rng = np.random.default_rng([seed, 31])
    V, H = [(2, 1), (2, 3), (3, 2), (4, 2), (12, 2)][seed % 5]
    path = write(tmp_path / "pol.json", random_spec(rng, V, H))
    assert_same_model(load_policy(path), policy_oracle.load_policy(path))


def test_empty_tables_load_as_the_default(tmp_path):
    path = write(tmp_path / "pol.json", {"type": "tabular", "V": 3, "H": 2,
                                         "tables": [],
                                         "default": [0.2, 0.3, 0.5]})
    pol = load_policy(path)
    assert_same_model(pol, policy_oracle.load_policy(path))
    assert np.array_equal(pol.next_dist(0, (1,)), [0.2, 0.3, 0.5])


# Each malformed row of test_exit_codes, as a function of the file's rows
# and the position it takes: the row to put there.
BAD_ROWS = {
    "not an object": lambda rows, i: [1, 2],
    "prefix 5": lambda rows, i: dict(rows[i], prefix=5),
    "prefix of lists": lambda rows, i: dict(rows[i], prefix=[[0]]),
    "prefix an object": lambda rows, i: dict(rows[i], prefix={"a": 1}),
    "without x": lambda rows, i: {"prefix": [], "p": rows[i]["p"]},
    "without p": lambda rows, i: {"x": 0, "prefix": []},
    "x an object": lambda rows, i: dict(rows[i], x={"a": 1}),
    "x a list of lists": lambda rows, i: dict(rows[i], x=[[0], [1]]),
    "token true": lambda rows, i: dict(rows[i], prefix=[True]),
    "token out of range": lambda rows, i: dict(rows[i], prefix=[7]),
    "p too short": lambda rows, i: dict(rows[i], p=[1.0]),
    # Python equates the prompts 1, 1.0 and true: each repeats a row of
    # prompt 1.
    "x true": lambda rows, i: dict(rows[i], x=True),
    "x 1.0": lambda rows, i: dict(rows[i], x=1.0),
    "repeated row": lambda rows, i: dict(rows[i]),
    "token 1.0": lambda rows, i: dict(rows[i], prefix=[1.0]),
    "prefix of length H": lambda rows, i: dict(rows[i], prefix=[0, 1]),
    "p sums to 0.9": lambda rows, i: dict(rows[i], p=[0.25, 0.65]),
    "p holds a string": lambda rows, i: dict(rows[i], p=[0.25, "a"]),
    "x a list holding an object": lambda rows, i: dict(rows[i],
                                                       x=[0, {"a": 1}]),
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_bad_row_message_matches_reference(tmp_path, kind, where):
    rows = [{"x": x, "prefix": list(pre), "p": [0.25, 0.75]}
            for x in (0, 1, -12) for h in range(2)
            for pre in itertools.product(range(2), repeat=h)]
    i = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1}[where]
    # A row of prompt 1 that the bad row may repeat, at the other end.
    one = {"first": 5, "middle": 3, "last": 5}[where]
    assert rows[one]["x"] == 1
    rows[i] = BAD_ROWS[kind](rows, one)
    path = write(tmp_path / "pol.json",
                 {"type": "tabular", "V": 2, "H": 2, "tables": rows})
    with pytest.raises(ConfigError) as want:
        policy_oracle.load_policy(path)
    with pytest.raises(ConfigError) as got:
        load_policy(path)
    assert str(got.value) == str(want.value)


def complete_spec(rng, V, H):
    """A `cli_mc`-shaped policy file's object: prompts 0 and 1, a row at
    every prefix of each."""
    return {"type": "tabular", "V": V, "H": H,
            "tables": [{"x": x, "prefix": list(pre),
                        "p": rng.dirichlet(np.ones(V)).tolist()}
                       for x in (0, 1) for h in range(H)
                       for pre in itertools.product(range(V), repeat=h)]}


def test_good_files_take_the_column_path_alone(tmp_path, monkeypatch):
    """A file that loads is read column by column: neither the per-row
    loop nor the dict constructor runs."""
    def entered(*args, **kwargs):
        raise AssertionError("per-row path entered")

    monkeypatch.setattr(cli, "_raise_bad_row", entered)
    monkeypatch.setattr(TabularModel, "__init__", entered)
    specs = [random_spec(np.random.default_rng([seed, 31]), V, H)
             for seed, (V, H) in zip(range(30), itertools.cycle(
                 [(2, 1), (2, 3), (3, 2), (4, 2), (12, 2)]))]
    specs.append(complete_spec(np.random.default_rng(8), 2, 8))
    for k, spec in enumerate(specs):
        pol = load_policy(write(tmp_path / f"pol{k}.json", spec))
        assert len(pol._rows) == len(spec["tables"]) + 1


@pytest.mark.parametrize("seed", range(6))
def test_dict_constructor_matches_load(tmp_path, seed):
    """TabularModel of a file's rows as a dict gives the arrays and prompt
    key types that `load_policy` of the file gives."""
    rng = np.random.default_rng([seed, 37])
    V, H = [(2, 3), (3, 2), (2, 8)][seed % 3]
    spec = random_spec(rng, V, H) if seed < 3 else complete_spec(rng, V, H)
    # Float, null and bool prompts as well, each equal to no other.
    swap = {0: 2.5, 1: None, 305: False}
    for row in spec["tables"]:
        if type(row["x"]) is int:
            row["x"] = swap.get(row["x"], row["x"])
    path = write(tmp_path / "pol.json", spec)
    tables = {(tuple(r["x"]) if type(r["x"]) is list else r["x"],
               tuple(r["prefix"])): r["p"] for r in spec["tables"]}
    assert_same_model(TabularModel(tables, V=V, H=H,
                                   default=spec.get("default")),
                      load_policy(path))


GOOD = {"type": "tabular", "V": 2, "H": 1,
        "tables": [{"x": 0, "prefix": [], "p": [0.7, 0.3]}]}


@pytest.mark.parametrize("spec,wanted", [
    # A file with both typos once loaded as a uniform policy with no rows.
    ({"type": "tabular", "V": 2, "H": 1, "table": GOOD["tables"],
      "defualt": [0.5, 0.5]},
     "unknown keys ['defualt', 'table'] in policy file {path}"),
    (dict(GOOD, tabels=[]), "unknown keys ['tabels'] in policy file {path}"),
    ({"type": "tabular", "V": 2, "H": 1}, "{path} has no 'tables'"),
    (dict(GOOD, tables=[{"x": 0, "prefix": [], "p": [0.7, 0.3], "q": 1}]),
     "unknown keys ['q'] in policy file {path}: tables[0]"),
    (dict(GOOD, tables=[{"x": 1, "prefix": [], "p": [0.5, 0.5]},
                        {"x": 0, "prefx": [], "p": [0.7, 0.3]}]),
     "unknown keys ['prefx'] in policy file {path}: tables[1]"),
])
def test_unknown_and_missing_keys_exit_2_by_name(tmp_path, capsys, spec,
                                                 wanted):
    task = write(tmp_path / "task.json",
                 {"name": "bernoulli", "params": {"p_star": 0.3}})
    path = write(tmp_path / "pol.json", spec)
    assert main(["eval-coverage", "--task", task, "--pi-hat", path,
                 "--N-grid", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)
    assert err["kind"] == "validation"
    assert wanted.format(path=path) in err["error"], err
