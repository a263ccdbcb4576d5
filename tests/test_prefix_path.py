"""The integer prefix path: TabularModel's array lookups and the
level-batched tree walk, compared exactly with tuple-prefix references."""

import functools
import itertools
import json
import math
import re

import numpy as np
import pytest

from conftest import all_prefixes
from covkit import core, metrics
from covkit.cli import main
from covkit.core import Dataset, logprob_matrix
from covkit.metrics import _sigma_term, _variance, tree_walk
from covkit.models import CallableFeatureMap, LinearARModel, TabularModel
from prefix_oracle import CountingTabular, DictTabular, tuple_tree_walk

PROMPTS = [0, "a", (1, 2)]
ABSENT = ["b", 7, (2, 1)]


def random_tables(rng, V, H, density, zeros=0.2, prompts=PROMPTS):
    """Random rows for a `density` share of each prompt's prefixes, some
    with zero entries, some whole levels dropped, in shuffled order."""
    tables = {}
    for x in prompts:
        dropped = int(rng.integers(H + 1))      # H: no level dropped
        for prefix in all_prefixes(V, H):
            if len(prefix) == dropped or rng.random() >= density:
                continue
            row = rng.dirichlet(np.ones(V))
            row[rng.random(V) < zeros] = 0.0
            if row.sum() == 0.0:
                row[int(rng.integers(V))] = 1.0
            tables[(x, prefix)] = row / row.sum()
    keys = list(tables)
    return {keys[i]: tables[keys[i]] for i in rng.permutation(len(keys))}


def product_tables(rng, V, H, prompts=PROMPTS):
    tables = {}
    for x in prompts:
        row = rng.dirichlet(np.ones(V))
        for prefix in all_prefixes(V, H):
            tables[(x, prefix)] = row
    return tables


def pair(tables, V, H, default=None):
    return (TabularModel(tables, V=V, H=H, default=default),
            DictTabular(tables, V=V, H=H, default=default))


def cases():
    for seed in range(12):
        rng = np.random.default_rng([seed, 61])
        V, H = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        density = [1.0, 0.6, 0.15][seed % 3]
        default = None if seed % 2 else rng.dirichlet(np.ones(V))
        yield rng, V, H, random_tables(rng, V, H, density), default


def level(V, h):
    """All V**h prefixes of length h as a (V**h, h) array, lexicographic."""
    return np.array(list(itertools.product(range(V), repeat=h)),
                    dtype=np.int64)


# --- lookups ------------------------------------------------------------


def test_prefix_dists_equals_dict_lookup():
    for rng, V, H, tables, default in cases():
        model, ref = pair(tables, V, H, default)
        for x in PROMPTS + ABSENT:
            for h in range(H):
                pre = level(V, h)
                # All prefixes in order, then a shuffled sample with repeats.
                sample = pre[rng.integers(len(pre), size=2 * len(pre) + 1)]
                for q in (pre, sample):
                    want = np.array([ref.next_dist(x, tuple(p))
                                     for p in q.tolist()])
                    assert np.array_equal(model.prefix_dists(x, q), want)


def test_next_dist_equals_dict_lookup():
    for rng, V, H, tables, default in cases():
        model, ref = pair(tables, V, H, default)
        refused = [(V,), (-1,), (0,) * (H - 1) + (V + 3,), (0,) * H,
                   (1,) * (H + 1)]
        for x in PROMPTS + ABSENT:
            for prefix in all_prefixes(V, H):
                assert np.array_equal(model.next_dist(x, prefix),
                                      ref.next_dist(x, prefix)), (x, prefix)
            for prefix in refused:
                with pytest.raises(ValueError):
                    model.next_dist(x, prefix)
        assert np.array_equal(model.next_dist(0, [0] * (H - 1)),
                              ref.next_dist(0, [0] * (H - 1)))


def test_out_of_range_queries_take_default():
    # Only an unseen prompt takes the default row; a prefix of H or more
    # tokens, or with a token a Dataset would refuse, raises.
    model = TabularModel({(0, ()): [0.5, 0.5], (0, (0,)): [1.0, 0.0],
                          (0, (1,)): [0.0, 1.0]}, V=2, H=2,
                         default=[0.25, 0.75])
    assert model.next_dist(5, (1,)).tolist() == [0.25, 0.75]
    for prefix, match in [((2,), r"integers in \[0, 2\)"),
                          ((-1,), r"integers in \[0, 2\)"),
                          ((0, 0), "prefix length"),
                          ((0, 1, 1), "prefix length"),
                          ((0.5,), "integers"), ((1.0,), "integers"),
                          ((True,), "integers")]:
        with pytest.raises(ValueError, match=match):
            model.next_dist(0, prefix)
    assert model.next_dist(0, (np.int64(1),)).tolist() == [0.0, 1.0]


def test_step_dist_equals_dict_reference():
    for rng, V, H, tables, default in cases():
        tables.update(product_tables(rng, V, H, prompts=["p", ("q",)]))
        model, ref = pair(tables, V, H, default)
        for x in PROMPTS + ABSENT + ["p", ("q",)]:
            got, want = model.step_dist(x), ref.step_dist(x)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
        assert model.step_dist("p") is not None


def test_tables_view_is_read_only_and_complete():
    rng = np.random.default_rng(4)
    tables = random_tables(rng, 3, 3, 0.5)
    model = TabularModel(tables, V=3, H=3)
    view = model.tables
    assert set(view) == set(tables)
    for key, row in tables.items():
        assert np.array_equal(view[key], row)
    with pytest.raises(TypeError):
        view[(0, ())] = np.full(3, 1 / 3)
    with pytest.raises(ValueError):
        view[next(iter(view))][0] = 1.0
    assert np.array_equal(TabularModel(dict(view), V=3, H=3).prefix_dists(
        0, level(3, 2)), model.prefix_dists(0, level(3, 2)))


# --- walk ---------------------------------------------------------------


def prefix_featmap(V, d=3):
    """phi depends on the whole prefix, so sigma_star_sq must walk."""
    def phi(x, prefix):
        code = sum((v + 1) * 7 ** i for i, v in enumerate(prefix))
        return 0.5 * np.sin(np.arange(1, d + 1) * (code + len(str(x))))
    return CallableFeatureMap(phi, d=d, B=1.0)


def tuple_sigma_term(V, fm):
    def term(x, prefixes, PD, _):
        return [_variance(p, np.stack([fm.phi(x, pre + (v,))
                                       for v in range(V)]))
                for pre, p in zip(prefixes, PD)]
    return term


def kl_term(x, pre, PD, Ps):
    return metrics._kl_rows(PD, Ps[0])


def hellinger_term(x, pre, PD, Ps):
    return 1.0 - metrics._bc_rows(PD, Ps[0])


def assert_walks_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def test_tree_walk_equals_tuple_walker_with_terms():
    for rng, V, H, tables, default in cases():
        D, refD = pair(tables, V, H, default)
        Hm, refH = pair(random_tables(rng, V, H, 0.7, zeros=0.3), V, H)
        fm = prefix_featmap(V)
        xs = PROMPTS + ABSENT[:1]
        walks = tree_walk(D, xs, [Hm], terms=[
            kl_term, hellinger_term, functools.partial(_sigma_term, fm)])
        old_terms = [kl_term, hellinger_term, tuple_sigma_term(V, fm)]
        assert len(walks) == len(xs)
        for x, got in zip(xs, walks):
            assert_walks_equal(got, tuple_tree_walk(D, x, [Hm], old_terms))
            assert_walks_equal(got, tuple_tree_walk(refD, x, [refH],
                                                    old_terms))


def test_two_policy_walk_equals_tuple_walker():
    for rng, V, H, tables, default in cases():
        bar, ref_bar = pair(tables, V, H, default)
        A, refA = pair(random_tables(rng, V, H, 0.8), V, H)
        B, refB = pair(random_tables(rng, V, H, 0.4, zeros=0.4), V, H)
        for x, got in zip(PROMPTS, tree_walk(bar, PROMPTS, [A, B])):
            assert_walks_equal(got, tuple_tree_walk(ref_bar, x, [refA, refB]))
        # onpolicy_cov_estimate reduces a walk of bar against one policy.
        for N in (1.5, 4.0):
            for q, ref_q in ((A, refA), (B, refB)):
                got = metrics.onpolicy_cov_estimate(q, bar, PROMPTS * 2, N)
                want = metrics.onpolicy_cov_estimate(ref_q, ref_bar,
                                                     PROMPTS * 2, N)
                assert got == want


def test_tree_walk_default_prefix_dists_equals_tuple_walker():
    # A linear model with prefix-dependent features answers a level with
    # one stacked softmax over its candidates; the tuple walker asks
    # next_dist once per prefix.
    fm = prefix_featmap(3, d=4)
    theta = np.array([0.5, -0.3, 0.4, 0.2])
    model = LinearARModel(theta, fm, V=3, H=4)
    other = LinearARModel(-theta, fm, V=3, H=4)
    for x, got in zip((0, "ab"), tree_walk(model, (0, "ab"), [other],
                                           [hellinger_term])):
        assert_walks_equal(
            got, tuple_tree_walk(model, x, [other], [hellinger_term]))


class CountingDict(DictTabular):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.levels, self.calls = [], []

    def prefix_dists(self, x, prefixes):
        self.levels.append(prefixes.shape[1])
        self.calls.append((x, prefixes.shape[1]))
        return super().prefix_dists(x, prefixes)


@pytest.mark.parametrize("cls", [CountingTabular, CountingDict])
def test_tree_walk_makes_one_prefix_dists_call_per_policy_per_level(cls):
    rng = np.random.default_rng(8)
    V, H = 3, 4
    pols = [cls(random_tables(rng, V, H, 1.0, zeros=0.0), V=V, H=H)
            for _ in range(3)]
    tree_walk(pols[0], [0], pols[1:], terms=[kl_term])
    for pol in pols:
        assert pol.calls == [(0, h) for h in range(H)]
    # Several prompts: level-major, each prompt's slice in the order given
    # (a repeated prompt is walked again).
    xs = [0, "a", 0]
    for pol in pols:
        pol.calls.clear()
    tree_walk(pols[0], xs, pols[1:], terms=[kl_term])
    for pol in pols:
        assert pol.calls == [(x, h) for h in range(H) for x in xs]
    for pol in pols:
        pol.calls.clear()
    metrics.stopped_kl(pols[0], pols[1], [(0, 0.5), ("a", 0.5)], 8.0)
    assert pols[0].calls == pols[1].calls == [
        (x, h) for h in range(H) for x in (0, "a")]


# --- sampling and scoring -----------------------------------------------


def test_sample_and_logprob_many_equal_dict_reference():
    for rng, V, H, tables, default in cases():
        model, ref = pair(tables, V, H, default)
        for x in PROMPTS + ABSENT[:1]:
            seed = int(rng.integers(1 << 30))
            Y = model.sample_many(x, 500, np.random.default_rng(seed))
            assert np.array_equal(
                Y, ref.sample_many(x, 500, np.random.default_rng(seed)))
            Z = rng.integers(0, V, (300, H))
            for rows in (Y, Z):
                assert np.array_equal(model.logprob_many(x, rows),
                                      ref.logprob_many(x, rows))


def test_logprob_matrix_shares_levels_and_matches_logprob_many(monkeypatch):
    rng = np.random.default_rng(12)
    V, H = 3, 4
    cands = [TabularModel(random_tables(rng, V, H, 0.7), V=V, H=H)
             for _ in range(3)]
    wide = TabularModel(random_tables(rng, V + 1, H, 0.7), V=V + 1, H=H)
    prod = TabularModel(product_tables(rng, V, H), V=V, H=H)
    pols = cands + [wide, prod]
    xs = [PROMPTS[i] for i in rng.integers(0, 3, 400)]
    ds = Dataset(xs, rng.integers(0, V, (400, H)), H=H, V=V)
    calls = []
    real = core.prefix_levels

    def counting(Y, V):
        calls.append(V)
        return real(Y, V)

    monkeypatch.setattr(core, "prefix_levels", counting)
    lp = logprob_matrix(pols, ds)
    # One level computation per prompt group and vocabulary size.
    assert sorted(calls) == sorted([V, V + 1] * len(ds.groups))
    for k, pi in enumerate(pols):
        for x, idx, Y in ds.groups:
            assert np.array_equal(lp[k, idx], pi.logprob_many(x, Y))


# --- invalid tables -----------------------------------------------------


BAD_TABLES = [
    ("row of length V+1", {(0, ()): [0.5, 0.25, 0.25]}, (0, ())),
    ("NaN row", {(0, ()): [0.5, 0.5], (0, (1,)): [math.nan, 1.0]}, (0, (1,))),
    ("token out of range", {(0, ()): [0.5, 0.5], (0, (2,)): [0.5, 0.5]},
     (0, (2,))),
    ("negative token", {(0, (-1,)): [0.5, 0.5]}, (0, (-1,))),
    ("aliasing token", {(0, (1, 1)): [0.5, 0.5], (0, (0, 3)): [0.5, 0.5]},
     (0, (0, 3))),
    ("prefix too long", {(0, (0, 0, 0)): [0.5, 0.5]}, (0, (0, 0, 0))),
    ("float token", {(0, (1.0,)): [0.5, 0.5]}, (0, (1.0,))),
    ("not a pair", {(0, (), 1): [0.5, 0.5]}, (0, (), 1)),
]


@pytest.mark.parametrize("name,tables,key", BAD_TABLES,
                         ids=[c[0] for c in BAD_TABLES])
def test_invalid_table_entry_names_the_key(name, tables, key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        TabularModel(tables, V=2, H=3)


@pytest.mark.parametrize("default", [[0.5, 0.25, 0.25], [0.7, 0.7],
                                     [math.nan, 1.0], [[0.5, 0.5]]])
def test_invalid_default_is_refused(default):
    with pytest.raises(ValueError, match="default"):
        TabularModel({(0, ()): [0.5, 0.5]}, V=2, H=3, default=default)


def test_prefix_codes_must_fit_int64():
    TabularModel({}, V=2, H=63)
    for V, H in [(2, 64), (40, 13)]:
        with pytest.raises(ValueError, match="int64"):
            TabularModel({}, V=V, H=H)


@pytest.mark.parametrize("name,tables,key", BAD_TABLES[:-2],
                         ids=[c[0] for c in BAD_TABLES[:-2]])
def test_policy_file_with_invalid_row_exits_2(tmp_path, capsys, name,
                                              tables, key):
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"name": "bernoulli",
                                "params": {"p_star": 0.3}}))
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps({"type": "tabular", "V": 2, "H": 3, "tables": [
        {"x": x, "prefix": list(p), "p": row}
        for (x, p), row in tables.items()]}))
    assert main(["eval-coverage", "--task", str(task), "--pi-hat", str(pol),
                 "--N-grid", "2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation" and repr(key) in err["error"]
