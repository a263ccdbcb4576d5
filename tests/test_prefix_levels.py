"""core.prefix_levels ranks a level's prefix codes without sorting where
its table is small, and the token-range checks in front of it.  Compared
with the np.unique reference `prefix_levels_ref`: the same inv and the
same prefixes Y[first, :h] at every level."""

import numpy as np
import pytest

from covkit import core
from covkit.core import Dataset, logprob_matrix, prefix_levels
from covkit.graphs import GraphConfig, GraphPathPolicy, gen_graph_instance
from covkit.models import TabularModel
from covkit.seeding import SeedTree
from prefix_oracle import prefix_levels_ref


def same_levels(Y, V):
    """Assert prefix_levels equals the reference on Y; the levels' counts
    of distinct prefixes."""
    got = list(prefix_levels(Y, V))
    ref = list(prefix_levels_ref(Y, V))
    assert [h for h, _, _ in got] == list(range(Y.shape[1]))
    assert len(got) == len(ref)
    for (h, first, inv), (_, rfirst, rinv) in zip(got, ref):
        assert inv.dtype == np.int64
        assert np.array_equal(inv, rinv)
        assert np.array_equal(Y[first, :h], Y[rfirst, :h])
    return [len(first) for _, first, _ in ref]


def sorted_levels(Y, V, monkeypatch):
    """How many levels of Y prefix_levels ranks with np.unique."""
    calls = []
    real = np.unique

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "unique", counting)
        for _ in prefix_levels(Y, V):
            pass
    return len(calls)


@pytest.mark.parametrize("n", [0, 1, 2, 60, 4000])
@pytest.mark.parametrize("V", [1, 2, 3, 36])
@pytest.mark.parametrize("H", [0, 1, 8])
def test_prefix_levels_match_the_sorting_reference(n, V, H):
    rng = np.random.default_rng([n, V, H])
    same_levels(rng.integers(0, V, (n, H)), V)
    # Few distinct rows, repeated: long runs of equal prefixes.
    base = rng.integers(0, V, (5, H))
    same_levels(base[rng.integers(0, 5, n)], V)


@pytest.mark.parametrize("V", [2, 3, 36])
def test_all_equal_and_all_distinct_rows(V):
    rng = np.random.default_rng(V)
    H = 6
    same_levels(np.full((500, H), V - 1), V)
    # Row i's tokens are the base-V digits of i, lowest first, so the
    # h-token prefixes are distinct once V^h >= n; shuffled so that sorted
    # and row order differ.
    n = min(V ** H, 3000)
    digits = np.arange(n)[:, None] // V ** np.arange(H) % V
    counts = same_levels(digits[rng.permutation(n)], V)
    assert counts == [min(n, V ** h) for h in range(H)]


@pytest.mark.parametrize("n, V, H", [(4000, 36, 8), (60, 36, 4),
                                     (2000, 24, 8)])
def test_levels_on_both_sides_of_the_size_guard(n, V, H, monkeypatch):
    """Random rows saturate a level's prefixes, so its table of k * V slots
    outgrows 16 slots per row past some level; those levels are sorted."""
    Y = np.random.default_rng([n, V]).integers(0, V, (n, H))
    counts = same_levels(Y, V)
    big = sum(k * V > core._SLOTS_PER_ROW * n for k in counts[:-1])
    assert 0 < big < H - 1
    assert sorted_levels(Y, V, monkeypatch) == big


def test_small_vocabularies_never_sort(monkeypatch):
    """Regression guard: V = 2, H = 8 levels have at most 2^8 slots, so
    scoring, the K-policy matrix and sampling rank them all by table."""
    rng = np.random.default_rng(5)
    V, H, n = 2, 8, 2000
    tables = {(0, tuple(p)): rng.dirichlet(np.ones(V))
              for h in range(H) for p in np.ndindex(*(V,) * h)}
    pol = TabularModel(tables, V=V, H=H)
    assert pol.step_dist(0) is None
    Y = rng.integers(0, V, (n, H))
    ds = Dataset([0] * n, Y, H=H, V=V)
    want = (pol.logprob_many(0, Y), logprob_matrix([pol, pol], ds),
            pol.sample_many(0, n, np.random.default_rng(6)))

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    got = (pol.logprob_many(0, Y), logprob_matrix([pol, pol], ds),
           pol.sample_many(0, n, np.random.default_rng(6)))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# --- token range ---------------------------------------------------------


def two_token_policies():
    """A prefix-dependent and a product TabularModel, V = 2, H = 2."""
    dep = TabularModel({(0, ()): [0.4, 0.6], (0, (0,)): [0.3, 0.7],
                        (0, (1,)): [0.6, 0.4]}, V=2, H=2)
    prod = TabularModel({(0, p): [0.4, 0.6] for p in [(), (0,), (1,)]},
                        V=2, H=2)
    assert dep.step_dist(0) is None and prod.step_dist(0) is not None
    return dep, prod


@pytest.mark.parametrize("rows", [[[1, -1]], [[-1, 0]], [[0, 2]],
                                  [[0, 0], [1, -1]], [[0, 0], [2, 0]]])
def test_logprob_many_refuses_tokens_outside_the_vocabulary(rows):
    for pol in two_token_policies():
        with pytest.raises(ValueError, match=r"tokens must lie in \[0, 2\)"):
            pol.logprob_many(0, rows)


def test_logprob_matrix_refuses_tokens_outside_a_policy_vocabulary():
    # The dataset's V = 3 admits token 2; the policies' V = 2 does not.
    ds = Dataset([0, 0, 0], [[0, 1], [1, 0], [1, 2]], H=2, V=3)
    for pol in two_token_policies():
        with pytest.raises(ValueError, match=r"tokens must lie in \[0, 2\)"):
            logprob_matrix([pol], ds)


def test_an_empty_block_needs_no_range_check():
    empty = np.zeros((0, 2), dtype=np.int64)
    for pol in two_token_policies():
        assert pol.logprob_many(0, empty).shape == (0,)


# --- graph horizon -------------------------------------------------------


def teaser_instance():
    rng = SeedTree(4).rng()
    dag, x, pol = gen_graph_instance("G1", GraphConfig(m=32, L=4), rng)
    assert dag.horizon == 6 == pol.H
    return dag, x, pol


@pytest.mark.parametrize("horizon", [4, 8])
def test_graph_policy_refuses_a_horizon_other_than_its_graph(horizon):
    dag, x, _ = teaser_instance()
    pol = GraphPathPolicy(m=32, horizon=horizon, family="teaser")
    msg = rf"L \+ 2 = 6 layers, but the policy's horizon is {horizon}"
    with pytest.raises(ValueError, match=msg):
        pol.sample(x, np.random.default_rng(0))
    with pytest.raises(ValueError, match=msg):
        pol.logprob_many(x, np.zeros((1, horizon), dtype=np.int64))


def test_graph_policy_at_its_graph_horizon_is_unchanged():
    dag, x, pol = teaser_instance()
    fam = GraphPathPolicy(m=32, horizon=dag.horizon, family="teaser")
    Y = fam.sample_many(x, 50, np.random.default_rng(1))
    assert np.array_equal(Y, pol.sample_many(x, 50, np.random.default_rng(1)))
    assert all(dag.is_valid_path(tuple(y)) for y in Y.tolist())
    assert np.array_equal(fam.logprob_many(x, Y), pol.logprob_many(x, Y))
