"""An example is a pair (x, y): no module but `core` names Trajectory, the
learners take a `Dataset` built from plain lists as well as a drawn one,
and every per-token feature comes from `FeatureMap.candidates`."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import exact_oracle
from conftest import random_tabular
from covkit.core import Dataset, sample_dataset
from covkit.metrics import sigma_star_sq
from covkit.models import CallableFeatureMap
from covkit.seeding import SeedTree
from covkit.tasks import heterogeneous_kl_instance, sigma_star_instance
from covkit.training import (TrainConfig, sgd_normalized, sgd_token,
                             sgd_truncated_distill, sgd_vanilla)

SRC = Path(__file__).resolve().parents[1] / "src" / "covkit"


def test_only_core_names_trajectory():
    named = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("core.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "Trajectory":
                named.append(f"{path.name}:{node.lineno}")
    assert named == []


TASKS = {
    "hetero": lambda: heterogeneous_kl_instance(n=2, H=3),
    "sigma_star": lambda: sigma_star_instance(
        H=3, B=1.0, N=2.0, n=2, theta_star=[0.6, -0.4, 0.2], c=1.0),
}
LEARNERS = [
    (sgd_vanilla, TrainConfig(eta=0.4, T=9, checkpoint_every=2)),
    (sgd_normalized, TrainConfig(eta=0.3, lam=0.5, K=2, T=9)),
    (sgd_token, TrainConfig(eta=0.4, T=9)),
    (sgd_truncated_distill, TrainConfig(eta=0.4, A=0.3, T=9)),
]


@pytest.mark.parametrize("task_name", TASKS)
@pytest.mark.parametrize("learner,cfg", LEARNERS)
def test_learners_take_a_plain_pair_stream(learner, cfg, task_name):
    task = TASKS[task_name]()
    teacher = (task.piD,) if learner is sgd_truncated_distill else ()
    n = cfg.T * cfg.K
    drawn = sample_dataset(task.piD, task.mu, n, SeedTree(6).rng())
    assert drawn.Y.shape == (n, task.H)
    # A dataset of plain lists trains as the drawn one does.
    plain = Dataset(list(drawn.xs), drawn.Y.tolist(), task.H, task.V)
    got = learner(plain, *teacher, task.featmap, cfg)
    want = learner(sample_dataset(task.piD, task.mu, n, SeedTree(6).rng()),
                   *teacher, task.featmap, cfg)
    assert [t for t, _ in got.checkpoints] == [t for t, _ in want.checkpoints]
    for (_, a), (_, b) in zip(got.checkpoints, want.checkpoints):
        assert np.array_equal(a, b)
    assert np.array_equal(got.final_theta, want.final_theta)
    assert got.n_examples == want.n_examples


class TableOnly(CallableFeatureMap):
    """Step-table features whose phi must not be called."""

    def phi(self, x, prefix):
        raise AssertionError("phi called where the step table serves")


@pytest.mark.parametrize("seed", range(4))
def test_exact_sigma_with_step_table_and_prefix_dependent_piD(seed):
    rng = np.random.default_rng([seed, 31])
    V, H = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    piD = random_tabular(rng, V, H, prompts=(0, 1))
    tables = {x: rng.normal(size=(V, 3)) for x in (0, 1)}
    fm = TableOnly(None, d=3, B=9.0, step_tables=tables.__getitem__)
    ref = CallableFeatureMap(lambda x, pre: tables[x][pre[-1]], d=3, B=9.0)
    mu = [(0, 0.3), (1, 0.7)]
    assert all(piD.step_dist(x) is None for x, _ in mu)
    got = sigma_star_sq(piD, fm, mu)
    want = exact_oracle.sigma_star_sq(piD, ref, mu)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    assert math.isfinite(got) and got > 0
