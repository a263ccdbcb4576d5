import numpy as np

from covkit.graphs import TEASER_CLASSES, GraphPathPolicy, gen_graph_instance
from covkit.models import TabularModel


def graph_instance(class_id, config, rng):
    """gen_graph_instance's (dag, prompt) and the data policy of the
    class's family, which follows the class's rule on that prompt."""
    dag, prompt = gen_graph_instance(class_id, config, rng)
    family = "teaser" if class_id in TEASER_CLASSES else "horizon"
    return dag, prompt, GraphPathPolicy(config.m, dag.horizon, family)


def all_prefixes(V, H):
    out = [()]
    frontier = [()]
    for _ in range(H - 1):
        frontier = [p + (v,) for p in frontier for v in range(V)]
        out.extend(frontier)
    return out


def random_tabular(rng, V, H, prompts=(0,), alpha=1.0):
    """Fully specified random conditional tables (Dirichlet rows)."""
    tables = {}
    for x in prompts:
        for prefix in all_prefixes(V, H):
            tables[(x, prefix)] = rng.dirichlet(np.full(V, alpha))
    return TabularModel(tables, V=V, H=H)


def random_product(rng, V, H, prompts=(0,), alpha=1.0):
    """Random prefix-independent policy (one row per prompt)."""
    tables = {}
    for x in prompts:
        row = rng.dirichlet(np.full(V, alpha))
        for prefix in all_prefixes(V, H):
            tables[(x, prefix)] = row
    return TabularModel(tables, V=V, H=H)


def tabular_with_missing_mass(rng, V, H, prompts):
    """Prefix-dependent rows with some zero entries; unseen prompts fall
    back to the default row, which also has a zero."""
    tables = {}
    for x in prompts:
        for prefix in all_prefixes(V, H):
            row = rng.dirichlet(np.ones(V))
            row[rng.random(V) < 0.3] = 0.0
            if row.sum() == 0.0:
                row[rng.integers(V)] = 1.0
            tables[(x, prefix)] = row / row.sum()
    default = np.r_[0.0, np.full(V - 1, 1.0 / (V - 1))]
    return TabularModel(tables, V=V, H=H, default=default)
