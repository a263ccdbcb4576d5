import hashlib
import math

import numpy as np
import pytest

from conftest import graph_instance
from covkit.core import Trajectory
from covkit.graphs import (GraphConfig, GraphPathPolicy, LayeredDag,
                           gen_graph_instance, global_parity_half,
                           identify_class, log_uniform_paths,
                           mixture_prompt_sampler, parity, parse_prompt,
                           passable_parity, serialize_prompt, HORIZON_MIX,
                           TEASER_MIX)
from covkit.harness import gen_data
from covkit.seeding import SeedTree


def test_config_validation():
    with pytest.raises(ValueError, match="universe too small"):
        GraphConfig(m=20, L=8)
    with pytest.raises(ValueError, match="even"):
        GraphConfig(m=129, L=8)


def test_round_trip_and_structure():
    rng = SeedTree(0).rng()
    for cid in ("G1", "G2", "G3"):
        for _ in range(30):
            dag, prompt = gen_graph_instance(cid, GraphConfig(), rng)
            assert parse_prompt(prompt, dag.m) == dag
            nodes = dag.all_nodes()
            assert len(nodes) == len(set(nodes)) == 4 * 8 + 2
            assert dag.valid_path_count() == 4


def test_teaser_parity_invariant_and_identification():
    rng = SeedTree(1).rng()
    for cid, want in (("G1", 1), ("G2", 0)):
        for _ in range(20):
            dag, _ = gen_graph_instance(cid, GraphConfig(), rng)
            assert global_parity_half(dag) == want
            assert identify_class(dag, "teaser") == cid


def test_g1_g2_selection_rules_rederived():
    # The selected node at each two-passable layer must match the parity rule
    # recomputed from scratch on the parsed prompt.
    rng = SeedTree(2).rng()
    for cid in ("G1", "G2"):
        for _ in range(25):
            dag, prompt, piD = graph_instance(cid, GraphConfig(), rng)
            reparsed = parse_prompt(prompt, dag.m)
            [(path, prob)] = piD.selected_paths(prompt)
            assert prob == 1.0
            for i in range(1, reparsed.L + 1):
                options = reparsed.passable[i]
                if len(options) == 1:
                    assert path[i] == options[0]
                    continue
                layer_index = i + 1
                want = parity(layer_index) if cid == "G1" else 1 ^ parity(layer_index)
                chosen = [v for v in options if parity(v) == want]
                assert len(chosen) == 1 and path[i] == chosen[0]


def test_uniform_class_logprob():
    rng = SeedTree(3).rng()
    dag, prompt, piD = graph_instance("G3", GraphConfig(), rng)
    paths = piD.selected_paths(prompt)
    assert len(paths) == 4
    for y, q in paths:
        assert math.isclose(piD.logprob(Trajectory(prompt, y)),
                            log_uniform_paths(2), abs_tol=1e-12)
    dag, prompt, piD = graph_instance("GH3", GraphConfig(L=16), rng)
    paths = piD.selected_paths(prompt)
    assert len(paths) == 16
    assert math.isclose(piD.logprob(Trajectory(prompt, paths[0][0])),
                        log_uniform_paths(4), abs_tol=1e-12)


def test_horizon_classes():
    rng = SeedTree(4).rng()
    for L in (8, 16, 24):
        cfg = GraphConfig(L=L)
        dag, _ = gen_graph_instance("GH1", cfg, rng)
        assert dag.valid_path_count() == 1
        dag, prompt, piD = graph_instance("GH2", cfg, rng)
        doubles = sum(1 for i in range(1, L + 1) if len(dag.passable[i]) == 2)
        assert doubles == L // 2
        assert len(piD.selected_paths(prompt)) == 1
        assert identify_class(dag, "horizon") == "GH2"


def test_gh2_xor_rule_rederived():
    rng = SeedTree(5).rng()
    dag, prompt, piD = graph_instance("GH2", GraphConfig(L=8), rng)
    [(path, _)] = piD.selected_paths(prompt)
    g = passable_parity(dag)
    for i in range(1, dag.L + 1):
        options = dag.passable[i]
        if len(options) == 2:
            want = parity(i + 1) ^ g
            assert parity(path[i]) == want


def test_invalid_path_logprob_neg_inf():
    rng = SeedTree(6).rng()
    dag, prompt, piD = graph_instance("G1", GraphConfig(), rng)
    [(path, _)] = piD.selected_paths(prompt)
    bad = (path[0],) + (path[2],) + path[2:]   # wrong node at layer 2
    assert piD.logprob(Trajectory(prompt, bad)) == -math.inf
    assert piD.logprob(Trajectory(prompt, path)) == 0.0


def test_sampling_produces_valid_paths():
    rng = SeedTree(7).rng()
    for cid in ("G1", "G3", "GH2"):
        cfg = GraphConfig(L=8)
        dag, prompt, piD = graph_instance(cid, cfg, rng)
        for _ in range(20):
            y = piD.sample(prompt, rng)
            assert dag.is_valid_path(y)


def test_parse_rejects_malformed():
    rng = SeedTree(8).rng()
    dag, prompt = gen_graph_instance("G1", GraphConfig(), rng)
    m = dag.m
    with pytest.raises(ValueError, match="position 0"):
        parse_prompt((), m)
    with pytest.raises(ValueError, match="empty edge list"):
        parse_prompt((m + 2, 1, 2, m + 3), m)
    with pytest.raises(ValueError, match="missing '/'"):
        parse_prompt(prompt[: prompt.index(m + 2)], m)
    # corrupt a separator into a node id: expected '|' at that position
    lst = list(prompt)
    sep_pos = lst.index(m + 1)
    lst[sep_pos] = lst[0]
    with pytest.raises(ValueError, match="position"):
        parse_prompt(tuple(lst), m)
    with pytest.raises(ValueError, match="invalid node id"):
        parse_prompt((0, 5, m + 2, 0, 5, m + 3), m)


def test_special_token_ids():
    rng = SeedTree(9).rng()
    dag, prompt = gen_graph_instance("G1", GraphConfig(), rng)
    m = dag.m
    assert prompt[-1] == m + 3           # '='
    assert m + 2 in prompt               # '/'
    assert m + 1 in prompt               # '|'
    slash = prompt.index(m + 2)
    assert prompt[slash + 1] == dag.source
    assert prompt[slash + 2] == dag.target


def test_mixture_sampler_and_policy_identification():
    rng = SeedTree(10).rng()
    cfg = GraphConfig(L=8)
    sampler = mixture_prompt_sampler(TEASER_MIX, cfg)
    pol = GraphPathPolicy(m=cfg.m, horizon=cfg.L + 2, family="teaser")
    for _ in range(10):
        x = sampler(rng)
        y = pol.sample(x, rng)
        assert pol.logprob(Trajectory(x, y)) > -math.inf


def test_policy_constructor_validation():
    # A family is required, and there is no fixed-class mode.
    with pytest.raises(TypeError):
        GraphPathPolicy(m=128, horizon=10)
    with pytest.raises(TypeError):
        GraphPathPolicy(m=128, horizon=10, family="teaser", class_id="G1")


def test_parity_pool_running_dry_is_a_named_error(tmp_path):
    # GraphConfig accepts m = 16 for L = 3 (m >= 4 L + 2), but a parity
    # class can use up the even or the odd ids; seed 2 does so.
    with pytest.raises(ValueError, match=r"class G[12] ran out of node ids "
                       r"of one parity: m=16, L=3, nodes_per_layer=4"):
        gen_data("graph_teaser", {"L": 3, "m": 16}, 50, 2,
                 str(tmp_path / "d.jsonl"))


@pytest.mark.parametrize("task,params,seed,digest", [
    ("graph_teaser", {"L": 4, "m": 32}, 0,
     "2b6b6188aa30f1fc7b03542fcd019826b6bec2e49909a479a932da56c5484a63"),
    ("graph_horizon", {"L": 6, "m": 64}, 1,
     "7d7b3ef57f268af7ad3c9d913ac47eb16e1524c4d4bc4bba8d3bdda705f173ed"),
    ("graph_teaser", {"L": 3, "m": 16}, 0,
     "119186a68505d19172be99053876d00e2a78f68f952427116b14ef47209e095d"),
])
def test_seeded_graph_bytes_are_pinned(tmp_path, task, params, seed, digest):
    path = tmp_path / "d.jsonl"
    gen_data(task, params, 40, seed, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
