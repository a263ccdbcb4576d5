"""One walk per pair, over all its walked prompts: a held `PairLaw`
serves every exact functional of its pair, the free functions share a
one-entry cache of the last law, the walk budget counts the entries each
level gathers, and mu or prompts without mass are refused."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import all_prefixes
from covkit import metrics
from covkit.metrics import sigma_star_sq
from covkit.models import CallableFeatureMap, TabularModel
from prefix_oracle import CountingTabular, tuple_tree_walk

NS = [2.0, 8.0, 64.0]
TERM_FREE = ["seq_kl", "seq_ce", "hellinger_sq", "atoms", "coverage_exact",
             "coverage_sup_log", "held_kl_and_coverage"]
WITH_TERMS = ["stopped_kl", "stepwise_hellinger_tail"]
# The seven free functions, and with them the methods of a held PairLaw.
FREE = [name for name in TERM_FREE + WITH_TERMS
        if name not in ("atoms", "held_kl_and_coverage")]
METHODS = FREE + ["atoms"]


def random_rows(rng, V, H, prompts, missing):
    """Dirichlet rows for every prefix of each prompt; with `missing`, one
    token is zeroed in about 30% of the rows."""
    tables = {}
    for x in prompts:
        for prefix in all_prefixes(V, H):
            row = rng.dirichlet(np.ones(V))
            if missing and rng.random() < 0.3:
                row[rng.integers(V)] = 0.0
                row /= row.sum()
            tables[(x, prefix)] = row
    return tables


def make_pair(seed, cls=TabularModel):
    """A prefix-dependent pair and its mu.  piD has rows for its prompts
    and piHat for its own: a prompt absent from piHat meets its default
    row, and one absent from piD still walks piHat's tree."""
    rng = np.random.default_rng([seed, 77])
    V, H = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    prompts = [0, "a", 3, "bc"]
    d_prompts, h_prompts = prompts[:3], [0, "a", "bc"]
    kind = seed % 3      # 0 dense, 1 missing mass in piHat, 2 in both
    D = cls(random_rows(rng, V, H, d_prompts, missing=kind == 2), V=V, H=H)
    Hm = cls(random_rows(rng, V, H, h_prompts, missing=kind > 0), V=V, H=H)
    w = rng.dirichlet(np.ones(len(prompts)))
    return D, Hm, list(zip(prompts, w.tolist()))


def np_kl_rows(PD, PH):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(PD > 0.0, PD * (np.log(PD) - np.log(PH)),
                        0.0).sum(axis=1)


def np_hellinger_rows(PD, PH):
    return 1.0 - np.sqrt(PD * PH).sum(axis=1)


def level_major(H, xs):
    """The (prompt, prefix length) of each prefix_dists call one walk of
    the prompts xs makes per policy: level by level, the prompts in order."""
    return [(x, h) for h in range(H) for x in xs]


def plain(pol):
    """A TabularModel copy of pol (whose next_dist may refuse to work)."""
    return TabularModel(dict(pol.tables), V=pol.V, H=pol.H)


def reference(D, Hm, mu, name, *args):
    """The functional from tuple_tree_walk leaves, one walk per prompt."""
    walks = []
    for x, w in mu:
        lpD, (lpH,), sums, peaks = tuple_tree_walk(
            D, x, [Hm], [lambda x, pre, PD, Ps: np_kl_rows(PD, Ps[0]),
                         lambda x, pre, PD, Ps: np_hellinger_rows(PD, Ps[0])])
        walks.append((w, lpD, lpH, sums, peaks))

    def total(value):
        out = 0.0
        for w, *law in walks:
            out += w * value(*law)
        return out

    def atoms():
        r = np.concatenate([lpD - lpH for _, lpD, lpH, _, _ in walks])
        p = np.concatenate([w * np.exp(lpD) for w, lpD, _, _, _ in walks])
        ratios, inv = np.unique(r, return_inverse=True)
        return ratios, np.bincount(inv, weights=p)

    def curve(Ns):
        ratios, probs = atoms()
        return np.clip([probs[ratios >= math.log(N) - 1e-12].sum()
                        for N in Ns], 0.0, 1.0)

    def kl(lpD, lpH, sums, peaks):
        if np.isneginf(lpH).any():
            return math.inf
        return float(np.exp(lpD) @ (lpD - lpH))

    if name == "seq_kl":
        return total(kl)
    if name == "seq_ce":
        return total(lambda lpD, lpH, s, p: math.inf if np.isneginf(lpH).any()
                     else -float(np.exp(lpD) @ lpH))
    if name == "hellinger_sq":
        return total(lambda lpD, lpH, s, p:
                     1.0 - float(np.exp(0.5 * (lpD + lpH)).sum()))
    if name == "atoms":
        return atoms()
    if name == "coverage_exact":
        return curve(args[0])
    if name == "coverage_sup_log":
        ratios, probs = atoms()
        tails = np.cumsum(probs[::-1])[::-1]
        ok = (ratios > 0) & np.isfinite(ratios)
        return (float(np.max(tails[ok] * ratios[ok], initial=0.0)),
                ratios[-1])
    if name == "held_kl_and_coverage":
        return total(kl), curve(args[0])
    if name == "stopped_kl":
        logN = math.log(args[0])
        return total(lambda lpD, lpH, s, p: float(
            np.exp(lpD) @ np.where(p[0] >= logN, logN, s[0])))
    if name == "stepwise_hellinger_tail":
        thr = math.log(args[0] / args[1])
        return total(lambda lpD, lpH, s, p:
                     float(np.exp(lpD)[p[1] >= thr].sum()))
    raise KeyError(name)


def held_kl_and_coverage(D, Hm, mu, Ns):
    """seq_kl and the coverage curve of one held PairLaw, as the harness
    computes them at a checkpoint."""
    law = metrics.PairLaw(D, Hm, mu)
    return law.seq_kl(), law.coverage(Ns)


def call(D, Hm, mu, name, *args):
    """The functional from covkit, as plain numbers for comparison."""
    if name == "coverage_exact":
        return metrics.coverage_exact(D, Hm, mu, *args).values
    if name == "held_kl_and_coverage":
        kl, curve = held_kl_and_coverage(D, Hm, mu, *args)
        return kl, curve.values
    if name == "atoms":
        return metrics.PairLaw(D, Hm, mu).atoms()
    return getattr(metrics, name)(D, Hm, mu, *args)


def args_for(name, rng):
    if name in ("coverage_exact", "held_kl_and_coverage"):
        return (NS,)
    if name == "stopped_kl":
        return (float(rng.choice([1.5, 4.0, 16.0])),)
    if name == "stepwise_hellinger_tail":
        return (float(rng.choice([1.0, 2.0])), float(rng.choice([0.5, 1.0])))
    return ()


def flat(value):
    if isinstance(value, tuple):
        return np.concatenate([np.ravel(v) for v in value])
    return np.ravel(value)


def test_functionals_in_any_order_equal_per_call_tuple_walks():
    rng = np.random.default_rng(4)
    pairs = [make_pair(seed) for seed in range(20)]
    calls = [(k, name) for k in range(len(pairs))
             for name in TERM_FREE + WITH_TERMS]
    # Shuffled: the functionals of one pair are interleaved with other
    # pairs' calls, so the cached law is replaced many times.
    for i in rng.permutation(len(calls)).tolist():
        k, name = calls[i]
        D, Hm, mu = pairs[k]
        args = args_for(name, rng)
        got, want = flat(call(D, Hm, mu, name, *args)), \
            flat(reference(D, Hm, mu, name, *args))
        assert got.shape == want.shape, (k, name)
        if name in TERM_FREE:
            assert np.array_equal(got, want), (k, name, got, want)
        else:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12), \
                (k, name, got, want)


def test_one_prefix_dists_call_per_level_across_all_seven():
    D, Hm, mu = make_pair(1, cls=CountingTabular)
    rng = np.random.default_rng(5)
    # The free functions only: a held law walks on its own (tested below).
    for name in FREE:
        call(D, Hm, mu, name, *args_for(name, rng))
    # One walk of every prompt of mu: one call per level, prompt and
    # policy, level by level.
    assert D.calls == Hm.calls == level_major(D.H, [x for x, _ in mu])


def test_exact_tabular_round_walks_each_pair_and_prompt_once(monkeypatch):
    # The shape of the benchmark's exact_tabular round: 300 pairs of
    # random V=3, H=5 tables on prompts 0 and 1, seven functionals each.
    walks = []
    real = metrics.tree_walk
    monkeypatch.setattr(metrics, "tree_walk",
                        lambda *a, **k: walks.append(list(a[1])) or
                        real(*a, **k))
    rng = np.random.default_rng(6)
    n_pre = len(all_prefixes(3, 5))

    def model():
        return TabularModel({(x, p): r for x in (0, 1) for p, r in
                             zip(all_prefixes(3, 5),
                                 rng.dirichlet(np.ones(3), n_pre))},
                            V=3, H=5)

    for _ in range(300):
        D, Hm = model(), model()
        w = float(rng.uniform(0.2, 0.8))
        mu = [(0, w), (1, 1.0 - w)]
        metrics.seq_kl(D, Hm, mu)
        metrics.seq_ce(D, Hm, mu)
        metrics.hellinger_sq(D, Hm, mu)
        metrics.stopped_kl(D, Hm, mu, 16.0)
        metrics.stepwise_hellinger_tail(D, Hm, mu, 2.0, 0.5)
        metrics.coverage_exact(D, Hm, mu, NS)
        metrics.coverage_sup_log(D, Hm, mu)
    # One walk per pair, of both prompts.
    assert walks == [[0, 1]] * 300


def test_pair_sharing_one_policy_is_walked_afresh():
    D, H1, mu = make_pair(2, cls=CountingTabular)
    rows = random_rows(np.random.default_rng(9), D.V, D.H, [0, "a", "bc"],
                       missing=True)
    H2 = CountingTabular(rows, V=D.V, H=D.H)
    D2 = CountingTabular(dict(D.tables), V=D.V, H=D.H)   # equal rows
    walk = level_major(D.H, [x for x, _ in mu])
    for a, b in [(D, H1), (D, H2), (D2, H1), (H1, D), (D, H1)]:
        for pol in (D, D2, H1, H2):
            pol.calls.clear()
        want = reference(plain(a), plain(b), mu, "seq_kl")
        assert metrics.seq_kl(a, b, mu) == want
        assert a.calls == b.calls == walk
    # A second call on the same pair walks nothing.
    D.calls.clear()
    H1.calls.clear()
    assert metrics.hellinger_sq(D, H1, mu) == \
        reference(plain(D), plain(H1), mu, "hellinger_sq")
    assert D.calls == H1.calls == []


def test_rebuilt_policies_are_walked_afresh_and_not_kept_alive():
    for seed in range(8):
        D, Hm, mu = make_pair(seed, cls=CountingTabular)
        want = reference(plain(D), plain(Hm), mu, "seq_kl")
        assert metrics.seq_kl(D, Hm, mu) == want
        assert D.calls == level_major(D.H, [x for x, _ in mu])
        refs = weakref.ref(D), weakref.ref(Hm)
        # The deleted objects may leave their addresses to the next pair.
        del D, Hm
        gc.collect()
        assert refs[0]() is None and refs[1]() is None


@pytest.mark.parametrize("collect", ["piD", "piHat"])
def test_memo_releases_its_laws_when_a_policy_is_collected(collect):
    # The one-entry cache behind the free functions drops its law, and
    # with it every walked array, when either policy is collected.
    D, Hm, mu = make_pair(4)
    metrics.seq_kl(D, Hm, mu)
    law = metrics._last[3]
    arrays = [weakref.ref(a) for _, _, walked in law.items
              for a in walked]
    assert len(arrays) == 4 * len(mu)
    law = weakref.ref(law)
    kept = Hm if collect == "piD" else D
    del D, Hm
    gc.collect()
    assert metrics._last is None
    assert law() is None and all(r() is None for r in arrays)
    assert kept.V > 0


def _walk_peak(H):
    """Traced peak bytes of seq_kl on a dense V=10 pair of horizon H, the
    levels piD gathered, and whether the call was refused."""
    rng = np.random.default_rng(5)
    D = CountingTabular({(0, ()): rng.dirichlet(np.ones(10))}, V=10, H=H)
    Hm = TabularModel({(0, ()): rng.dirichlet(np.ones(10))}, V=10, H=H)
    tracemalloc.start()
    try:
        metrics.seq_kl(D, Hm, [(0, 1.0)])
        refused = False
    except ValueError as e:
        refused = "Monte Carlo" in str(e)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, D.levels, refused


def test_over_budget_walk_is_refused_before_the_level_is_built():
    # Dense V=10: H=6 is 1e6 leaves (allowed), H=7 would gather 1e7.
    allowed, levels6, refused6 = _walk_peak(6)
    assert not refused6 and levels6 == list(range(6))
    peak, levels7, refused7 = _walk_peak(7)
    assert refused7 and levels7 == list(range(6))
    # The refusal costs no more memory than the allowed walk.
    assert peak <= 1.1 * allowed


def test_sparse_pid_beyond_v_to_the_h_is_walked_exactly():
    # One-hot rows: V^H = 4^11 = 4.2e6 leaves, one piD-positive path.
    V, H = 4, 11
    path = [(3 * h + 1) % V for h in range(H)]
    eye = np.eye(V)
    D = TabularModel({(0, tuple(path[:h])): eye[path[h]] for h in range(H)},
                     V=V, H=H, default=eye[0])
    rng = np.random.default_rng(7)
    rows = {(0, tuple(path[:h])): rng.dirichlet(np.ones(V))
            for h in range(H)}
    Hm = TabularModel(rows, V=V, H=H)
    assert D.step_dist(0) is None and Hm.step_dist(0) is None
    log_h = [math.log(rows[(0, tuple(path[:h]))][path[h]]) for h in range(H)]
    mu = [(0, 1.0)]
    assert math.isclose(metrics.seq_kl(D, Hm, mu), -sum(log_h),
                        rel_tol=1e-12)
    assert math.isclose(metrics.seq_ce(D, Hm, mu), -sum(log_h),
                        rel_tol=1e-12)
    ratios, probs = metrics.PairLaw(D, Hm, mu).atoms()
    assert len(ratios) == 1 and probs.tolist() == [1.0]
    assert math.isclose(ratios[0], -sum(log_h), rel_tol=1e-12)
    # On piD's own path, a uniform policy has log ratio -H log V < 0, so
    # only piD covers it at N = 1.
    U = TabularModel({(0, ()): np.full(V, 1.0 / V)}, V=V, H=H)
    assert metrics.onpolicy_cov_estimate(D, D, [0, 0], 1.0) == 1.0
    assert metrics.onpolicy_cov_estimate(U, D, [0, 0], 1.0) == 0.0
    fm = CallableFeatureMap(lambda x, pre: np.array([len(pre), pre[-1]]),
                            d=2, B=99.0)
    assert sigma_star_sq(D, fm, mu) == 0.0     # piD is deterministic


def test_walk_budget_is_summed_over_the_walked_prompts():
    # Dense piD with one stored root row: 2^19 = 524,288 leaves a prompt.
    V, H = 2, 19
    row = np.array([0.3, 0.7])
    D = CountingTabular({(0, ()): row, (1, ()): row}, V=V, H=H)
    Hm = TabularModel({(0, ()): row[::-1], (1, ()): row[::-1]}, V=V, H=H)
    # Only the root rows differ: below them both take the uniform default.
    kl = float(row @ np.log(row / row[::-1]))
    assert math.isclose(metrics.seq_kl(D, Hm, [(0, 1.0)]), kl,
                        rel_tol=1e-9)
    # Two prompts exceed 1e6 leaves, with prompt 0's law already cached too.
    for mu in ([(0, 0.5), (1, 0.5)], [(1, 0.5), (0, 0.5)]):
        with pytest.raises(ValueError, match="Monte Carlo"):
            metrics.seq_kl(D, Hm, mu)
    with pytest.raises(ValueError, match="Monte Carlo"):
        metrics.onpolicy_cov_estimate(Hm, D, [0, 1], 4.0)
    # The cache holds one law: caching prompt 1's drops prompt 0's, which
    # is then walked again.
    for x in (1, 0):
        D.levels.clear()
        assert math.isclose(metrics.seq_kl(D, Hm, [(x, 1.0)]), kl,
                            rel_tol=1e-9)
        assert D.levels == list(range(H))


# --- held laws ----------------------------------------------------------

def make_mixed_pair(seed):
    """A pair on prompts 0 and "a", walked (prefix-dependent rows in piD,
    and for 0 in piHat too), and 3 and "bc", where both policies answer
    every prefix with their default row, so the pair is a product there.
    For odd seeds piHat's rows and default miss some piD mass."""
    rng = np.random.default_rng([seed, 78])
    V, H = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    dD, dH = rng.dirichlet(np.ones(V)), rng.dirichlet(np.ones(V))
    if seed % 2:
        dH[rng.integers(V)] = 0.0
        dH /= dH.sum()
    D = TabularModel(random_rows(rng, V, H, [0, "a"], missing=False),
                     V=V, H=H, default=dD)
    Hm = TabularModel(random_rows(rng, V, H, [0], missing=seed % 2 == 1),
                      V=V, H=H, default=dH)
    w = rng.dirichlet(np.ones(4))
    return D, Hm, list(zip([0, "a", 3, "bc"], w.tolist()))


def held_cases():
    """(kind, D, Hm, mu): walked (every kind of make_pair), mixed, and
    product (the mixed pair's product prompts alone)."""
    for seed in range(6):
        yield ("walked",) + make_pair(seed)
    for seed in range(6):
        D, Hm, mu = make_mixed_pair(seed)
        assert D.step_dist(3) is not None and D.step_dist(0) is None
        yield "mixed", D, Hm, mu
        yield "product", D, Hm, mu[2:]


def held(law, name, *args):
    """The functional from a held PairLaw, as `call` returns it."""
    if name == "coverage_exact":
        return law.coverage(*args).values
    method = {"coverage_sup_log": "sup_log",
              "stepwise_hellinger_tail": "hellinger_tail"}.get(name, name)
    return getattr(law, method)(*args)


def merged(ratios, probs, tol=1e-9):
    """Atoms within tol of the one before folded into it: a product
    prompt's closed-form atoms against the walked reference's."""
    new = np.r_[True, np.diff(ratios) > tol]
    return ratios[new], np.bincount(np.cumsum(new) - 1, weights=probs)


def test_held_law_equals_free_functions_and_tuple_walks():
    rng = np.random.default_rng(8)
    for k, (kind, D, Hm, mu) in enumerate(held_cases()):
        law = metrics.PairLaw(D, Hm, mu)
        for name in METHODS:
            args = args_for(name, rng)
            got = held(law, name, *args)
            assert np.array_equal(flat(got), flat(call(D, Hm, mu, name,
                                                        *args))), (k, name)
            want = reference(D, Hm, mu, name, *args)
            if kind == "walked" and name in TERM_FREE:
                assert np.array_equal(flat(got), flat(want)), (k, name)
                continue
            if name == "atoms" and kind != "walked":
                got, want = merged(*got), merged(*want)
            assert flat(got).shape == flat(want).shape, (k, name)
            assert np.allclose(flat(got), flat(want), rtol=1e-12,
                               atol=1e-12), (k, name, got, want)


@pytest.mark.parametrize("make", [lambda: make_pair(1, cls=CountingTabular),
                                  lambda: make_mixed_pair(3)])
def test_held_law_walks_each_prompt_once_for_all_methods(make):
    D, Hm, mu = make()
    if not isinstance(D, CountingTabular):
        D = CountingTabular(dict(D.tables), V=D.V, H=D.H, default=D.default)
        Hm = CountingTabular(dict(Hm.tables), V=Hm.V, H=Hm.H,
                             default=Hm.default)
    walked = [x for x, _ in mu if D.step_dist(x) is None or
              Hm.step_dist(x) is None]
    law = metrics.PairLaw(D, Hm, mu)
    rng = np.random.default_rng(5)
    for name in METHODS:
        held(law, name, *args_for(name, rng))
        held(law, name, *args_for(name, rng))
    assert D.calls == Hm.calls == level_major(D.H, walked)
    assert 0 < len(walked) <= len(mu)


def test_one_entry_cache_hits_on_an_equal_mu_of_the_same_pair():
    D, Hm, mu = make_pair(2, cls=CountingTabular)
    walk = level_major(D.H, [x for x, _ in mu])

    def walked(fn, *args):
        D.calls.clear()
        fn(*args)
        return D.calls
    assert walked(metrics.seq_kl, D, Hm, mu) == walk
    law = metrics._last[3]
    # An equal mu, as a new list or as dict items, hits.
    assert walked(metrics.coverage_exact, D, Hm, list(mu), NS) == []
    assert walked(metrics.seq_ce, D, Hm, dict(mu).items()) == []
    assert metrics._last[3] is law
    # Other weights, fewer prompts or another pair miss, and replace it.
    other = [(x, 0.5 * w) for x, w in mu]
    assert walked(metrics.seq_kl, D, Hm, other) == walk
    assert walked(metrics.seq_kl, D, Hm, mu[:2]) == level_major(
        D.H, [x for x, _ in mu[:2]])
    assert walked(metrics.seq_kl, Hm, D, mu) == walk
    assert walked(metrics.seq_kl, D, Hm, mu) == walk
    assert metrics._last[3] is not law
    # A held law neither reads nor replaces the cache.
    last = metrics._last
    held_law = metrics.PairLaw(D, Hm, mu)
    assert held_law is not last[3] and D.calls == walk * 2
    held_law.seq_kl(), held_law.coverage(NS), held_law.sup_log()
    assert metrics._last is last


def test_atoms_of_a_law_are_built_once_and_read_only():
    D, Hm, mu = make_mixed_pair(1)
    law = metrics.PairLaw(D, Hm, mu)
    ratios, probs = law.atoms()
    assert law.atoms()[0] is ratios and metrics.PairLaw(
        D, Hm, mu).atoms()[0] is not ratios
    with pytest.raises(ValueError, match="read-only"):
        ratios[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        probs[0] = 0.0


# --- mu and prompts without mass ----------------------------------------

EXACT = [
    lambda D, Hm, mu: metrics.coverage_exact(D, Hm, mu, NS),
    lambda D, Hm, mu: metrics.coverage_sup_log(D, Hm, mu),
    lambda D, Hm, mu: metrics.PairLaw(D, Hm, mu).atoms(),
    lambda D, Hm, mu: metrics.seq_kl(D, Hm, mu),
    lambda D, Hm, mu: held_kl_and_coverage(D, Hm, mu, NS),
]


@pytest.mark.parametrize("fn", EXACT)
@pytest.mark.parametrize("mu", [[], [(0, 0.0)], [(0, 0.0), ("a", 0.0)]])
def test_mu_without_positive_weight_is_refused(fn, mu):
    D, Hm, _ = make_pair(0)
    with pytest.raises(ValueError, match="weights must include a positive"):
        fn(D, Hm, mu)


@pytest.mark.parametrize("fn", EXACT)
@pytest.mark.parametrize("bad", [-0.25, math.nan, math.inf, -math.inf, 2.0])
def test_negative_or_non_finite_weight_is_refused(fn, bad):
    # 2.0 brings the weights' sum to 3.0, over the 1 + 1e-9 of mu.
    D, Hm, _ = make_pair(0)
    with pytest.raises(ValueError, match="prompt 'a' has weight"):
        fn(D, Hm, [(0, 1.0), ("a", bad)])


def test_weights_may_sum_to_at_most_1():
    from covkit.tasks import bernoulli_model
    D, Hm = bernoulli_model(0.5), bernoulli_model(0.1)
    # Unchecked, this law gives seq_kl 1.0217 (twice the true 0.5108)
    # and a coverage curve clipped to 1.0 where the truth is 0.5.
    with pytest.raises(ValueError, match=r"sum to at most 1: prompt 0 has "
                                         r"weight 2.0, which brings the sum "
                                         r"to 2.0"):
        metrics.PairLaw(D, Hm, [(0, 2.0)])
    # The first prompt whose prefix sum passes the bound is named.
    with pytest.raises(ValueError, match=r"prompt 3 has weight 0.3, which "
                                         r"brings the sum to 1.2"):
        metrics.positive_weights([(0, 0.6), (1, 0.0), (2, 0.3), (3, 0.3)])
    # A restriction of mu, a sum within 1e-9 of 1 and ten tenths (a plain
    # sum of 0.9999999999999999, math.fsum's 1.0) are all accepted.
    for mu in ([(0, 0.5)], [(0, 1.0 + 1e-9)], [(0, 0.1)] * 10):
        assert metrics.PairLaw(D, Hm, mu).seq_kl() == \
            pytest.approx(math.fsum(w for _, w in mu) * 0.5108256237659907)
    with pytest.raises(ValueError, match="sum to at most 1"):
        metrics.positive_weights([(0, 1.0 + 2e-9)])


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_onpolicy_estimate_refuses_empty_prompts(mode):
    D, Hm, _ = make_pair(0)
    with pytest.raises(ValueError, match="prompts is empty"):
        metrics.onpolicy_cov_estimate(Hm, D, [], 2.0, mode=mode, m=4,
                                      rng=np.random.default_rng(0))
