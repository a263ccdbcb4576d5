"""One walk over a list of prompts.

`metrics.tree_walk(piD, xs, ...)` walks every prompt of xs at once, level
by level.  Each prompt's slice equals, bit for bit, the tuple-prefix walk
of that prompt alone; `PairLaw`, exact `onpolicy_cov` and exact
`sigma_star_sq` equal their per-prompt references with ==.  The budget
counts a level's rows over all prompts: a sparse two-prompt law that each
prompt's own count would allow is refused before its level is built, and
the preflight `check_exact_work` refuses every config whose pair law
would be refused."""

import collections
import functools
import math

import numpy as np
import pytest

from conftest import all_prefixes
from covkit import core, metrics
from covkit.core import Policy
from covkit.metrics import (PairLaw, _law_atoms, _sigma_term, covers,
                            onpolicy_cov, sigma_star_sq, tree_walk)
from covkit.models import CallableFeatureMap, LinearARModel, TabularModel
from prefix_oracle import tuple_tree_walk

STORED = ["a", 1, (2, 3)]
ABSENT = 9          # no stored rows: every prefix takes the default row
NS = [1.0, 2.0, 8.0]


def random_rows(rng, V, H, one_hot, zeros):
    """A row for about 70% of the prefixes of each stored prompt: one-hot
    with probability `one_hot`, else Dirichlet with about `zeros` of its
    entries zeroed (at least one kept)."""
    tables = {}
    for x in STORED:
        for prefix in all_prefixes(V, H):
            if rng.random() < 0.3:
                continue
            if rng.random() < one_hot:
                row = np.eye(V)[rng.integers(V)]
            else:
                row = rng.dirichlet(np.ones(V))
                row[rng.random(V) < zeros] = 0.0
                if row.sum() == 0.0:
                    row[rng.integers(V)] = 1.0
                row = row / row.sum()
            tables[(x, prefix)] = row
    return tables


def random_case(seed):
    """V, H, a sparse piD, a piHat missing mass, a third policy, and 1-4
    prompts drawn with repeats from the stored ones and ABSENT."""
    rng = np.random.default_rng([seed, 28])
    V, H = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    default = np.eye(V)[0] if seed % 2 else rng.dirichlet(np.ones(V))
    D = TabularModel(random_rows(rng, V, H, 0.4, 0.0), V=V, H=H,
                     default=default)
    Hm = TabularModel(random_rows(rng, V, H, 0.1, 0.3), V=V, H=H)
    G = TabularModel(random_rows(rng, V, H, 0.0, 0.0), V=V, H=H)
    pool = STORED + [ABSENT]
    xs = [pool[i] for i in rng.integers(len(pool),
                                        size=int(rng.integers(1, 5)))]
    return rng, D, Hm, G, xs


FIXED_XS = [[ABSENT], ["a", "a"], ["a", ABSENT, "a", 1], [(2, 3), ABSENT, 1]]


def cases():
    for seed in range(40):
        yield random_case(seed)
    for i, xs in enumerate(FIXED_XS):
        rng, D, Hm, G, _ = random_case(100 + i)
        yield rng, D, Hm, G, xs


def prompt_term(x, pre, PD, Ps):
    """A term that reads the prompt, the prefix count and both row sets."""
    return (len(str(x)) + PD @ np.arange(PD.shape[1])
            - np.asarray(Ps[1])[:, 0] * len(pre))


def kl_term(x, pre, PD, Ps):
    return metrics._kl_rows(PD, Ps[0])


def assert_walk_equal(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def test_walk_of_a_prompt_list_equals_each_prompt_walked_alone():
    for rng, D, Hm, G, xs in cases():
        terms = [kl_term, prompt_term]
        walks = tree_walk(D, xs, [Hm, G], terms)
        assert len(walks) == len(xs)
        for x, got in zip(xs, walks):
            assert_walk_equal(got, tuple_tree_walk(D, x, [Hm, G], terms))
        # The pair terms come from the walk's own gathers: against the
        # walk of one prompt at a time.
        for x, got in zip(xs, tree_walk(D, xs, [Hm], pair_terms=True)):
            (alone,) = tree_walk(D, [x], [Hm], pair_terms=True)
            assert_walk_equal(got, alone)
        # No policy and no term: empty sums and peaks per prompt.
        for x, got in zip(xs, tree_walk(D, xs)):
            assert_walk_equal(got, tuple_tree_walk(D, x))
    assert tree_walk(D, []) == []


def mu_of(rng, xs):
    """Weights for xs that sum to at most 1, one of them 0 on some draws."""
    w = rng.dirichlet(np.ones(len(xs))) * rng.uniform(0.5, 1.0)
    if len(xs) > 1 and rng.random() < 0.3:
        w[rng.integers(len(xs))] = 0.0
    return list(zip(xs, w.tolist()))


def test_pair_law_equals_per_prompt_laws():
    for rng, D, Hm, _, xs in cases():
        mu = mu_of(rng, xs)
        law = PairLaw(D, Hm, mu)
        alone = [PairLaw(D, Hm, [(x, w)]) for x, w in mu if w > 0]
        assert len(law.items) == len(alone)
        for item, one in zip(law.items, alone):
            (w, steps, walked), = one.items
            assert item[0] == w
            for got, want in ((item[1], steps), (item[2], walked)):
                assert (got is None) == (want is None)
                for g, v in zip(got or (), want or ()):
                    assert np.array_equal(g, v)
        for name, args in [("seq_kl", ()), ("seq_ce", ()),
                           ("hellinger_sq", ()), ("stopped_kl", (4.0,)),
                           ("hellinger_tail", (2.0, 0.5))]:
            total = 0.0
            for one in alone:
                total += getattr(one, name)(*args)
            got = getattr(law, name)(*args)
            assert got == total or math.isnan(got) and math.isnan(total)
        ratios, probs = _law_atoms([one.items[0] for one in alone], D.H)
        assert np.array_equal(law.atoms()[0], ratios)
        assert np.array_equal(law.atoms()[1], probs)


def per_prompt_onpolicy(policies, pi, prompts, N):
    """onpolicy_cov's exact entries from one walk per distinct prompt."""
    total = np.zeros(len(policies))
    for x, c in collections.Counter(prompts).items():
        (lp, lps, _, _), = tree_walk(pi, [x], policies)
        p = np.exp(lp)
        for k, hit in enumerate(covers(lps, lp, math.log(N))):
            total[k] += c * float(p[hit].sum())
    return total / len(prompts)


def test_exact_onpolicy_cov_equals_per_prompt_walks():
    for rng, D, Hm, G, xs in cases():
        prompts = xs + xs[:1]                   # a repeated prompt
        for N in NS:
            got = onpolicy_cov([Hm, G, D], D, prompts, N)
            assert np.array_equal(got, per_prompt_onpolicy([Hm, G, D], D,
                                                            prompts, N))


def prefix_featmap(V, rng):
    """phi reads the whole prefix; ABSENT alone has a step table, so it
    is a product prompt wherever piD takes its default row there."""
    table = 0.3 * rng.standard_normal((V, 2))

    def phi(x, prefix):
        code = sum((v + 1) * 5 ** i for i, v in enumerate(prefix))
        return 0.5 * np.sin(np.array([1.0, 2.0]) * (code + len(str(x))))
    return CallableFeatureMap(phi, d=2, B=1.0, step_tables=lambda x:
                              table if x == ABSENT else None)


def test_exact_sigma_star_sq_equals_per_prompt_sum():
    for rng, D, _, _, xs in cases():
        fm = prefix_featmap(D.V, rng)
        mu = mu_of(rng, xs)
        total = 0.0
        for x, w in mu:
            if w > 0:
                total += sigma_star_sq(D, fm, [(x, w)])
        assert sigma_star_sq(D, fm, mu) == total
        # The walk's sigma term against the tuple walk of each prompt.
        term = functools.partial(_sigma_term, fm)

        def tuple_term(x, pre, PD, Ps):
            pre = np.array(pre, dtype=np.int64).reshape(len(pre),
                                                        len(pre[0]))
            return term(x, pre, PD, Ps)
        for x, got in zip(xs, tree_walk(D, xs, terms=[term])):
            assert_walk_equal(got, tuple_tree_walk(D, x, terms=[tuple_term]))


# --- the budget over all prompts ----------------------------------------

class LevelRows(Policy):
    """Every prefix of length h takes rows[h]: dependent on the prefix
    only through its length.  Records (prompt, h) of each level call."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.H, self.V = self.rows.shape
        self.calls = []

    def prefix_dists(self, x, prefixes):
        self.calls.append((x, prefixes.shape[1]))
        return np.broadcast_to(self.rows[prefixes.shape[1]],
                               (len(prefixes), self.V))


def test_sparse_two_prompt_law_is_refused_before_the_level_is_built():
    # V = 2, H = 19: uniform to level 17, so level 18 holds 2^18 prefixes
    # a prompt, and one-hot at level 18, so each prompt has 2^18 leaves.
    V, H, k = 2, 19, 2 ** 18
    D = LevelRows([[0.5, 0.5]] * (H - 1) + [[1.0, 0.0]])
    Hm = LevelRows([[0.25, 0.75]] * H)
    # Counted one prompt at a time on top of the earlier prompts' leaves,
    # the old rule let both pass: its peaks were k V and k + k V.
    assert k * V <= core.ENUM_BUDGET and k + k * V <= core.ENUM_BUDGET
    # One prompt alone is walked in full.
    law = PairLaw(D, Hm, [(0, 1.0)])
    assert len(law.items[0][2][0]) == k
    assert D.calls == [(0, h) for h in range(H)]
    # Both: level 18 gathers 2 k V = 1048576 entries, refused before any
    # prefix_dists call at that level.
    for fn in (lambda: PairLaw(D, Hm, [(0, 0.5), (1, 0.5)]),
               lambda: onpolicy_cov([Hm], D, [0, 1], 2.0)):
        D.calls.clear()
        with pytest.raises(ValueError, match=r"gathered prefix entries = "
                                             r"1048576 > 1e6; use a Monte"):
            fn()
        assert D.calls == [(x, h) for h in range(H - 1) for x in (0, 1)]


def test_preflight_refuses_every_config_whose_pair_law_is_refused(
        monkeypatch):
    # A small budget brings random small trees to its edge on both sides.
    refused = allowed = 0
    for seed in range(150):
        rng, D, _, _, xs = random_case(seed)
        fm = prefix_featmap(D.V, rng)
        theta = rng.standard_normal(2)
        Hm = LinearARModel(theta / (1.5 * np.linalg.norm(theta)), fm,
                           V=D.V, H=D.H)
        mu = mu_of(rng, xs)
        monkeypatch.setattr(core, "ENUM_BUDGET", int(rng.integers(2, 40)))
        try:
            PairLaw(D, Hm, mu).coverage(NS)
        except ValueError as e:
            assert "enumeration budget exceeded" in str(e)
            refused += 1
            with pytest.raises(ValueError, match="enumeration budget"):
                metrics.check_exact_work(D, fm, mu)
        else:
            allowed += 1
    assert refused >= 30 and allowed >= 30, (refused, allowed)
