"""GraphPathPolicy answers a level with one row, computed from the position
alone and broadcast read-only.  Differential tests against the per-prefix
row the policy computed before, the paths it selects, and the seeded
`covkit gen-data` bytes of the graph tasks."""

import hashlib
import math

import numpy as np
import pytest

from conftest import graph_instance
from covkit.cli import main
from covkit.graphs import (HORIZON_CLASSES, TEASER_CLASSES, GraphConfig,
                           _rule_choice, parse_prompt)
from covkit.metrics import tree_walk
from covkit.seeding import SeedTree

CLASSES = TEASER_CLASSES + HORIZON_CLASSES
CONFIGS = [GraphConfig(m=32, L=4), GraphConfig(m=64, L=6),
           GraphConfig(m=128, L=8)]


def per_prefix_row(pol, x, prefix, cid):
    """The conditional at one prefix under the rule of class cid, computed
    as GraphPathPolicy did it prefix by prefix: a fresh length-V row."""
    dag = parse_prompt(x, pol.m)
    pos = len(prefix)
    if pos >= pol.H:
        raise ValueError("prefix length must be < H")
    out = np.zeros(pol.V)
    if pos == 0:
        out[dag.source] = 1.0
    elif pos == dag.L + 1:
        out[dag.target] = 1.0
    else:
        for v, p in _rule_choice(dag, cid, pos):
            out[v] = p
    return out


def instances(seed):
    """(prompt, its class, the family's policy) on random graphs of every
    class at each config."""
    rng = SeedTree(seed).rng()
    for cid in CLASSES:
        for cfg in CONFIGS:
            for _ in range(3):
                _, x, pol = graph_instance(cid, cfg, rng)
                yield x, cid, pol


@pytest.mark.parametrize("seed", range(3))
def test_prefix_dists_is_the_per_prefix_row_bit_for_bit(seed):
    rng = np.random.default_rng([seed, 21])
    for x, cid, pol in instances(seed):
        paths = np.array([y for y, _ in pol.selected_paths(x)])
        for h in range(pol.H):
            pre = np.concatenate(
                (paths[:, :h], rng.integers(0, pol.V, (5, h))))
            want = np.array([per_prefix_row(pol, x, p, cid)
                             for p in pre.tolist()])
            got = pol.prefix_dists(x, pre)
            assert got.shape == (len(pre), pol.V)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable
            for p, row in zip(pre.tolist(), want):
                assert np.array_equal(pol.next_dist(x, tuple(p)), row)


@pytest.mark.parametrize("seed", range(3))
def test_walk_and_logprob_many_agree_with_selected_paths(seed):
    for x, _, pol in instances(seed):
        paths = sorted(pol.selected_paths(x))
        Y = np.array([y for y, _ in paths])
        want = np.log([q for _, q in paths])
        assert math.isclose(sum(q for _, q in paths), 1.0, abs_tol=1e-12)
        (lpD, lps, _, _), = tree_walk(pol, [x], [pol])
        # The walk's leaves are the selected paths in lexicographic order.
        assert np.allclose(lpD, want, rtol=0, atol=1e-12)
        assert np.array_equal(lps[0], lpD)
        assert np.allclose(pol.logprob_many(x, Y), want, rtol=0, atol=1e-12)


def test_next_dist_at_h_at_least_H_raises():
    _, x, pol = graph_instance("G1", GraphConfig(), SeedTree(4).rng())
    for h in (pol.H, pol.H + 1):
        with pytest.raises(ValueError, match="prefix length"):
            pol.next_dist(x, (0,) * h)


@pytest.mark.parametrize("task,seed,digest", [
    ("graph_teaser", 0,
     "90e5b762bbe4528666091229f72b1ed8398cdfe806cc0e5198916005644311f3"),
    ("graph_teaser", 5,
     "ebc3e253722293d8d525732a9a4beda75c568f2cc547a4cc5e2af8418965bd2a"),
    ("graph_horizon", 1,
     "2685121f11baa4742295b10d4dc2a905c1f7f8a53f835d4de4860196e931eccc"),
    ("graph_horizon", 6,
     "04d2603f3f103b2fa14ce7961bc547744567b7e8b0a5368ae76143c766d3abf7"),
])
def test_cli_gen_data_graph_bytes_are_pinned(tmp_path, capsys, task, seed,
                                             digest):
    # Digests of the bytes written when each level was answered by one
    # next_dist call per prefix.
    path = tmp_path / "d.jsonl"
    assert main(["gen-data", "--task", task, "--n", "40", "--seed",
                 str(seed), "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
