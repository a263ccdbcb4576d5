"""Divergences and coverage quantities.

All ratio events are evaluated in log domain and use the closed comparison
log piD - log piHat >= log N.  Monte Carlo modes report Hoeffding (or
Wilson) confidence half-widths; they draw all prompts first, then draw
each distinct prompt's responses with one sample_many call and score
each distinct response once per policy (the log-ratio finds the distinct
rows once for both policies; the MC stopped_kl and sigma_star_sq sum
their levels over distinct rows).  `pairwise_cov_matrix` scores each
distinct (prompt, response) pair of its dataset once per policy and
weights its hits by the pair's count.  The MC modes of seq_kl, seq_ce
and stopped_kl, and
mc_report (seq_kl and coverage_mc of one draw), reduce the per-draw values
of one loop, `_mc_values`.  Exact modes reduce a `PairLaw`, the law of one
(piD, piHat) pair under mu.  Per prompt x it keeps either

* the step rows, when both policies return a `step_dist` at x, for the
  product closed forms: seq_kl = H KL_step, seq_ce = H CE_step, 1 -
  hellinger_sq = BC_step^H, stopped_kl = min(log N, H KL_step), a 0/1
  stepwise_hellinger_tail, and log-ratio atoms (coverage_exact,
  coverage_sup_log) from a multinomial over the k <= V groups of distinct
  step log-ratios; or
* the walked law of x: x's slice of the law's one `tree_walk`, which
  walks the piD-positive prefix trees of all the law's walked prompts
  together, gives per leaf log piD, log piHat and the sum and peak of the
  step-KL and step-Hellinger (1 - BC) terms.  The walk carries each
  level's prefixes, every prompt's a contiguous slice, as one (k, h) int
  array; it makes one `prefix_dists` call per policy per prompt per
  level, and the rest of a level's work once for all prompts.

A caller that wants several functionals of a pair holds one PairLaw.  The
free functions share `_law`, a one-entry cache of the last (piD, piHat, mu
list) law that holds its policies by weak reference and is dropped when
either is collected.  onpolicy_cov (one walk of pi over its distinct
prompts), the walked part of sigma_star_sq (the inherent variance
sigma*^2) and `check_exact_work` each make one walk of their own.

A `StackLaw` gives seq_kl and the coverage curve of piD against each row
of a (C, d) stack of linear-softmax theta on one feature map (a job's
checkpoints), when every prompt is a product prompt (`product_steps`, the
one test of the StackLaw, sigma*^2, the preflight and the harness).  piD's
step row and the composition table of the atoms do not depend on theta,
so it builds them once; the C step rows are one `models.candidate_dists`
call, KL is H KL_step per
row, and each row's atom log-probs and ratios are one stacked
vector-matrix product.  Each value is bit for bit the PairLaw's of that
row: a row with an infinite step ratio, or with atoms that the pair law
would merge (equal ratios, which tied step ratios always give), takes the
pair law's own atoms.

Work is bounded at 1e6: a walk counts the k * V entries that a level of
k prefixes, over all its prompts, gathers per policy (a bound on their
piD-positive children), so memory stays bounded by 1e6 entries a level;
the atoms count `_n_atoms` of the product prompts plus the walked leaves.
A ValueError asking for a Monte Carlo mode is raised before a level or
atom table over the budget is built.  A StackLaw counts one row's atoms
and takes its rows in chunks of at most 1e6 atoms in all.
`check_exact_work` is the preflight of a task: it bounds what any of its
laws would count, with one walk of piD whose `spent` is the product
atoms.  mu weights must be finite and >= 0, one positive, and sum to at
most 1 (`positive_weights`).  Coverage thresholds are checked (N >= 1,
sorted) before any law is built or sample drawn.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import statistics
import weakref
from dataclasses import dataclass

import numpy as np

from .core import (ENUM_BUDGET, Policy, check_enum_budget, check_number,
                   distinct_logprobs, distinct_rows, group_prompts,
                   prefix_levels, sample_dataset, sample_prompts)
from .models import FeatureMap, candidate_dists


@dataclass
class CoverageCurve:
    thresholds: np.ndarray
    values: np.ndarray
    half_widths: np.ndarray
    n_samples: int = 0

    def __post_init__(self):
        self.thresholds = _thresholds(self.thresholds)
        self.values = np.asarray(self.values, dtype=float)
        self.half_widths = np.asarray(self.half_widths, dtype=float)

    def to_csv(self) -> str:
        return "N,log2N,pcov,half_width,n_samples\n" + "".join(
            f"{N:g},{math.log2(N):.10g},{v:.12g},{hw:.12g},{self.n_samples}\n"
            for N, v, hw in zip(self.thresholds, self.values,
                                self.half_widths))


def _thresholds(Ns) -> np.ndarray:
    """Coverage thresholds Ns as a 1-d float array; ValueError unless they
    are sorted and each N >= 1 (NaN is refused)."""
    Ns = np.atleast_1d(np.asarray(Ns, dtype=float))
    if not (Ns >= 1).all():
        raise ValueError("thresholds must be >= 1")
    if (Ns[1:] < Ns[:-1]).any():
        raise ValueError("thresholds must be sorted")
    return Ns


def _suffix_sums(ratios, probs, Ns) -> np.ndarray:
    """Coverage at each N from atoms with sorted distinct ratios: the
    .sum() of the contiguous suffix of probs at ratios >= log N - 1e-12."""
    cuts = [math.log(N) - 1e-12 for N in Ns]
    return np.array([probs[i:].sum() for i in np.searchsorted(ratios, cuts)])


@dataclass
class MetricReport:
    """Sequence KL and coverage curve of one checkpoint."""

    seq_kl: float | None = None
    coverage: CoverageCurve | None = None


def tree_walk(piD: Policy, xs, policies=(), terms=(), pair_terms=False,
              spent=0) -> list:
    """Level-order walk of the piD-positive prefix trees of the prompts xs,
    all prompts at once.

    Level h holds every prompt's prefixes as one (k, h) int64 array: each
    prompt's rows are a contiguous slice, the prompts in the order of xs
    (a repeated prompt is walked again) and each one's prefixes in
    lexicographic order.  The slice bounds are carried down with one
    searchsorted of the parent rows per level.  Each of piD and `policies`
    answers each prompt's slice with one `prefix_dists(x, slice)` call;
    the positives, logs, log-prob sums, pair terms and term sums and peaks
    are computed once per level for all prompts.

    Returns one (lpD, lps, sums, peaks) per prompt of xs, over its n
    piD-positive responses y (lexicographic): lpD (n,) = log piD(y|x);
    lps (len(policies), n), -inf where a policy has no mass; and each
    term's sum over the H prefixes of y and peak (largest partial sum,
    the empty one included), each (n_terms, n).  A term maps one prompt's
    slice of a level, (x, prefixes (k, h), PD (k, V), [policy rows]), to a
    value per prefix.  With `pair_terms` (one policy q) the first two
    terms are the step KL(piD || q) and step Hellinger 1 - BC(piD, q),
    summed from the gathered piD-positive entries.

    A level of k prefixes over all prompts gathers k * V entries per
    policy, which bound its piD-positive children.  Before it builds and
    gathers a level the walk checks that `spent` plus k * V stays within
    the 1e6 enumeration budget, so a refused walk has done no more work
    than an allowed one.
    """
    pols = [piD, *policies]
    pre = np.zeros((len(xs), 0), dtype=np.int64)
    bounds = list(range(len(xs) + 1))
    lp = np.zeros((len(pols), len(xs)))     # log piD, then each policy
    n_terms = len(terms) + 2 * bool(pair_terms)
    sums = peaks = np.zeros((n_terms, len(xs)))
    with np.errstate(divide="ignore"):
        for h in range(piD.H):
            k = lp.shape[1]
            check_enum_budget("gathered prefix entries", spent + k * piD.V)
            if h:
                pre = np.concatenate((pre.take(parent, axis=0),
                                      tok[:, None]), axis=1)
            cuts = list(zip(xs, bounds[:-1], bounds[1:]))
            P = np.empty((len(pols), k, piD.V))
            for x, lo, hi in cuts:
                for P_q, q in zip(P, pols):
                    P_q[lo:hi] = q.prefix_dists(x, pre[lo:hi])
            # piD-positive entries in row-major order: parent * V + token.
            pos = (P[0] > 0.0).ravel().nonzero()[0]
            parent, tok = np.divmod(pos, piD.V)
            bounds = parent.searchsorted(bounds).tolist()
            rows = P.reshape(len(P), -1).take(pos, axis=1)
            logs = np.log(rows)
            lp = lp.take(parent, axis=1) + logs
            if n_terms:
                t = np.empty((n_terms, k))
                if pair_terms:
                    t[0] = np.bincount(parent, rows[0] * (logs[0] - logs[1]),
                                       k)
                    t[1] = 1.0 - np.bincount(parent,
                                             np.sqrt(rows[0] * rows[1]), k)
                for i, term in enumerate(terms, n_terms - len(terms)):
                    for x, lo, hi in cuts:
                        t[i, lo:hi] = term(x, pre[lo:hi], P[0, lo:hi],
                                           list(P[1:, lo:hi]))
                sums = sums + t
                peaks = np.maximum(peaks, sums)
                sums = sums.take(parent, axis=1)
                peaks = peaks.take(parent, axis=1)
    if not n_terms:
        sums = peaks = np.zeros((0, lp.shape[1]))
    return [(lp[0, lo:hi], lp[1:, lo:hi], sums[:, lo:hi], peaks[:, lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _kl_rows(PD, PH):
    """KL(PD || PH) along the last axis; +inf where PH misses PD mass."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(PD > 0.0, PD * (np.log(PD) - np.log(PH)),
                        0.0).sum(axis=-1)


def _bc_rows(PD, PH):
    """Bhattacharyya coefficient sum_v sqrt(PD PH) along the last axis."""
    return np.sqrt(PD * PH).sum(axis=-1)


def _ratio_groups(pD, pH):
    """Distinct step log-ratios on piD's support and the piD mass of each."""
    sup = pD > 0.0
    with np.errstate(divide="ignore"):
        r = np.log(pD[sup]) - np.log(pH[sup])   # +inf where pH == 0
    ratios, inv = np.unique(r, return_inverse=True)
    return ratios, np.bincount(inv, weights=pD[sup])


def _compositions(H, k):
    """The part of `_product_atoms` that no step row enters: the (n, k)
    counts of the n = comb(H + k - 1, k - 1) compositions of H into k parts
    and the log multinomial coefficient of each."""
    n = _n_atoms(H, [k])
    # Stars and bars: the k - 1 bar positions among H + k - 1 slots,
    # between a bar before the first slot and one after the last.
    bars = np.empty((n, k + 1), dtype=np.int64)
    bars[:, 0], bars[:, -1] = -1, H + k - 1
    bars[:, 1:-1] = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(H + k - 1), k - 1)),
        dtype=np.int64, count=n * (k - 1)).reshape(n, k - 1)
    counts = bars[:, 1:] - bars[:, :-1] - 1
    lgam = np.array([math.lgamma(c + 1) for c in range(H + 1)])
    return counts, lgam[H] - lgam[counts].sum(axis=1)


def _product_atoms(groups, H):
    """Log-ratio law of H i.i.d. steps: a multinomial over the k groups
    (ratios, mass) of distinct step log-ratios (`_ratio_groups`), one atom
    per composition of H into k parts."""
    ratios, mass = groups
    counts, logc = _compositions(H, len(ratios))
    logp = logc + counts @ np.log(mass)
    fin = np.isfinite(ratios)
    r = np.where(counts[:, ~fin].any(axis=1), math.inf,
                 counts[:, fin] @ ratios[fin])
    return r, np.exp(logp)


def _n_atoms(H, ks) -> int:
    """Atoms of the product prompts whose step laws have k in ks groups:
    comb(H + k - 1, k - 1) each, the compositions of H into k parts."""
    return sum(math.comb(H + k - 1, k - 1) for k in ks)


def _law_atoms(items, H):
    """`PairLaw.atoms` of a law's items (w, steps, walked law): the
    product atoms of each product prompt and the leaves of each walked one,
    merged by distinct ratio in item order, after the budget check."""
    groups = [None if steps is None else _ratio_groups(*steps)
              for _, steps, _ in items]
    check_enum_budget("leaves + atoms", _n_atoms(
        H, [len(g[0]) for g in groups if g is not None]) + sum(
        len(law[0]) for _, _, law in items if law is not None))
    ratios, probs = [], []
    for g, (w, _, law) in zip(groups, items):
        # +inf where lpH == -inf.
        r, p = ((law[0] - law[1], np.exp(law[0])) if g is None
                else _product_atoms(g, H))
        ratios.append(r)
        probs.append(w * p)
    ratios, inv = np.unique(np.concatenate(ratios), return_inverse=True)
    return ratios, np.bincount(inv, weights=np.concatenate(probs))


def positive_weights(mu_items) -> list:
    """The (prompt, weight) items of positive weight.  Raises ValueError
    unless every weight is finite and >= 0, at least one is positive, and
    they sum (math.fsum) to at most 1 + 1e-9: mu or a restriction of it."""
    out = []
    for x, w in mu_items:
        if not (w >= 0.0 and math.isfinite(w)):
            raise ValueError(f"mu weights must be finite and >= 0: "
                             f"prompt {x!r} has weight {w!r}")
        if w != 0.0:
            out.append((x, w))
    if not out:
        raise ValueError("mu weights must include a positive one")
    ws = [w for _, w in out]
    if math.fsum(ws) > 1.0 + 1e-9:
        # Name the first prompt whose prefix sum passes the bound (the
        # prefix sums of positive weights increase).
        i = bisect.bisect(range(len(ws)), 1.0 + 1e-9,
                          key=lambda i: math.fsum(ws[:i + 1]))
        raise ValueError(f"mu weights must sum to at most 1: prompt "
                         f"{out[i][0]!r} has weight {ws[i]!r}, which brings "
                         f"the sum to {math.fsum(ws[:i + 1])!r}")
    return out


def product_steps(piD: Policy, featmap: FeatureMap, x):
    """(piD's step row, the feature map's step table) at a product prompt
    x; None where either is missing, and the exact paths walk x."""
    step = piD.step_dist(x)
    table = None if step is None else featmap.step_table(x)
    return None if table is None else (step, table)


def check_exact_work(piD: Policy, featmap: FeatureMap, mu_items):
    """ValueError if the exact metrics of piD against linear models on
    `featmap` could pass the enumeration budget: the `_n_atoms` of the
    product prompts, k the size of piD's step support, then one walk of
    piD over the other prompts on top of them.  No `PairLaw` or `StackLaw`
    (which chunks its rows) of such a model counts more."""
    mu = positive_weights(mu_items)
    steps = [product_steps(piD, featmap, x) for x, _ in mu]
    work = _n_atoms(piD.H, [np.count_nonzero(np.asarray(s[0]) > 0)
                            for s in steps if s is not None])
    check_enum_budget("leaves + atoms (bound)", work)
    _walk_others(piD, mu, steps, spent=work)


def _walk_others(piD, mu, steps, **walk_args):
    """Iterator over the per-prompt results of one `tree_walk` of the
    prompts of mu whose steps are None, in mu's order; no walk if none."""
    walked = [x for (x, _), s in zip(mu, steps) if s is None]
    return iter(tree_walk(piD, walked, **walk_args) if walked else ())


class PairLaw:
    """The exact law of one (piD, piHat) pair under mu, held by the caller:
    per prompt x of weight w > 0, (w, steps, law) with steps = (pD, pH) on
    a product prompt, else law = (lpD, lpH, sums, peaks), x's slice of one
    `tree_walk` of all such prompts with the pair terms.  It keeps neither
    policy."""

    def __init__(self, piD: Policy, piHat: Policy, mu_items):
        self.H = piD.H
        mu, steps = positive_weights(mu_items), []
        for x, _ in mu:
            pD = piD.step_dist(x)
            pH = None if pD is None else piHat.step_dist(x)
            steps.append(None if pH is None else (
                np.asarray(pD, dtype=float), np.asarray(pH, dtype=float)))
        laws = _walk_others(piD, mu, steps, policies=[piHat],
                            pair_terms=True)
        self.items = []
        for (_, w), s in zip(mu, steps):
            if s is None:
                lpD, (lpH,), sums, peaks = next(laws)
                self.items.append((w, None, (lpD, lpH, sums, peaks)))
            else:
                self.items.append((w, s, None))
        self._atoms = None

    def _reduce(self, closed_form, leaf_value):
        """sum_x w(x) * value(x): closed_form(pD, pH, H) on product prompts,
        leaf_value(lpD, lpH, sums, peaks) on walked ones."""
        total = 0.0
        for w, steps, law in self.items:
            if steps is not None:
                total += w * closed_form(*steps, self.H)
            else:
                total += w * leaf_value(*law)
        return total

    def seq_kl(self) -> float:
        return self._reduce(lambda pD, pH, H: H * step_kl(pD, pH), _kl_leaves)

    def seq_ce(self) -> float:
        return self._reduce(_ce_closed, _ce_leaves)

    def hellinger_sq(self) -> float:
        return self._reduce(
            lambda pD, pH, H: 1.0 - float(_bc_rows(pD, pH)) ** H,
            lambda lpD, lpH, sums, peaks:
                1.0 - float(np.exp(0.5 * (lpD + lpH)).sum()))

    def stopped_kl(self, N: float) -> float:
        logN = _log_cap(N)
        return self._reduce(
            lambda pD, pH, H: min(logN, H * step_kl(pD, pH)),
            lambda lpD, lpH, sums, peaks: float(
                np.exp(lpD) @ np.where(peaks[0] >= logN, logN, sums[0])))

    def hellinger_tail(self, N: float, delta: float) -> float:
        check_number("N", N, 1, math.inf)
        check_number("delta", delta, 0, 1, lo_open=True)
        thr = math.log(N / delta)
        return self._reduce(
            lambda pD, pH, H: float(
                max(0.0, H * (1.0 - float(_bc_rows(pD, pH)))) >= thr),
            lambda lpD, lpH, sums, peaks:
                float(np.exp(lpD)[peaks[1] >= thr].sum()))

    def atoms(self):
        """(ratios, probs): the law of log(piD/piHat) under mu x piD, distinct
        ratios ascending, +inf where piHat misses; built once, read-only."""
        if self._atoms is None:
            ratios, probs = _law_atoms(self.items, self.H)
            ratios.flags.writeable = probs.flags.writeable = False
            self._atoms = ratios, probs
        return self._atoms

    def coverage(self, Ns) -> CoverageCurve:
        Ns = _thresholds(Ns)
        values = _suffix_sums(*self.atoms(), Ns)
        return CoverageCurve(Ns, np.clip(values, 0.0, 1.0), np.zeros_like(Ns))

    def sup_log(self):
        ratios, probs = self.atoms()
        tails = np.cumsum(probs[::-1])[::-1]
        ok = (ratios > 0) & np.isfinite(ratios)
        C = float(np.max(tails[ok] * ratios[ok], initial=0.0))
        return C, ratios[-1]


class StackLaw:
    """The exact laws of piD against a stack of C linear softmax policies
    under mu, held by the caller.  Row c of the (C, d) array `thetas` is
    the policy with logits <theta_c, phi(x, v)> on `featmap` (a
    `LinearARModel` at theta_c), and every prompt of positive weight must
    be a product prompt of piD and the feature map.  Per prompt it keeps
    (w, pD, PH) with the C step rows PH from one stacked softmax.

    Every value equals, bit for bit, the one a `PairLaw` of piD and the
    model at theta_c gives: each row keeps that law's operation order (a
    vector-matrix product per row, not a gemm)."""

    def __init__(self, piD: Policy, thetas, featmap, mu_items):
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != featmap.d:
            raise ValueError(f"thetas must be a (C, {featmap.d}) array, got "
                             f"shape {thetas.shape}")
        if not np.all(np.linalg.norm(thetas, axis=1) <= 1.0 + 1e-9):
            raise ValueError("||theta|| must be <= 1")
        self.H, self.C = piD.H, len(thetas)
        self.items = []
        for x, w in positive_weights(mu_items):
            steps = product_steps(piD, featmap, x)
            if steps is None:
                raise ValueError(f"prompt {x!r} is not a product prompt; "
                                 "hold a PairLaw per policy instead")
            pD, table = steps
            self.items.append((w, np.asarray(pD, dtype=float),
                               candidate_dists(np.asarray(table)[None],
                                               thetas)))

    def seq_kl(self) -> np.ndarray:
        """(C,) sequence KL of each row: H KL_step per prompt."""
        total = 0.0
        for w, pD, PH in self.items:
            total = total + w * (self.H * _kl_rows(pD, PH))
        return total

    def coverage(self, Ns) -> list:
        """The exact CoverageCurve of each row.

        A row with finite step log-ratios takes k = |supp pD| groups on
        each prompt, in its own ratio order, so its atoms come from the
        composition table of (H, k), built once per call: their log-probs
        and ratios are one stacked vector-matrix product per row.  The
        rows are taken in chunks of at most 1e6 atoms in all.  A row with
        an infinite step ratio or two equal atoms, which the pair law
        merges in its own summation order, takes the pair law's
        `_law_atoms` on its own step rows; tied step ratios (fewer groups)
        always give two equal atoms, H r_i = H r_j."""
        Ns = _thresholds(Ns)
        groups, fast = [], np.ones(self.C, dtype=bool)
        with np.errstate(divide="ignore"):
            for _, pD, PH in self.items:
                sup = pD > 0.0
                R = np.log(pD[sup]) - np.log(PH[:, sup])
                order = R.argsort(axis=1)
                R = R[np.arange(self.C)[:, None], order]
                fast &= np.isfinite(R).all(axis=1)
                groups.append((np.log(pD[sup])[order], R))
        values = np.empty((self.C, len(Ns)))
        slow = np.flatnonzero(~fast).tolist()
        if fast.any():
            slow += self._distinct_rows(np.flatnonzero(fast), groups, Ns,
                                        values)
        for c in slow:
            items = [(w, (pD, PH[c]), None) for w, pD, PH in self.items]
            values[c] = _suffix_sums(*_law_atoms(items, self.H), Ns)
        return [CoverageCurve(Ns, v, np.zeros(len(Ns)))
                for v in np.clip(values, 0.0, 1.0)]

    def _distinct_rows(self, rows, groups, Ns, values):
        """Coverage at Ns of the given rows, whose finite step ratios are
        sorted in `groups`, into `values`; returns the rows with two equal
        atoms, which it leaves."""
        k = [R.shape[1] for _, R in groups]
        n_atoms = _n_atoms(self.H, k)
        check_enum_budget("leaves + atoms", n_atoms)
        tables = [_compositions(self.H, j) for j in k]
        chunk, tied = max(1, ENUM_BUDGET // n_atoms), []
        for lo in range(0, len(rows), chunk):
            part = rows[lo:lo + chunk]
            ratios, probs = [], []
            for (w, _, _), (logm, R), (counts, logc) in zip(
                    self.items, groups, tables):
                logp = logc + (counts @ logm[part, :, None])[:, :, 0]
                ratios.append((counts @ R[part, :, None])[:, :, 0])
                probs.append(w * np.exp(logp))
            ratios = np.concatenate(ratios, axis=1)
            at = np.arange(len(part))[:, None], ratios.argsort(axis=1)
            ratios, probs = ratios[at], np.concatenate(probs, axis=1)[at]
            distinct = (ratios[:, 1:] > ratios[:, :-1]).all(axis=1)
            for i, c in enumerate(part.tolist()):
                if distinct[i]:
                    values[c] = _suffix_sums(ratios[i], probs[i], Ns)
                else:
                    tied.append(c)
        return tied


_last = None    # (piD ref, piHat ref, mu list, PairLaw) of the last _law


def _drop(ref):
    """Weakref callback: drop the cached law whose policy was collected."""
    global _last
    if _last is not None and (_last[0] is ref or _last[1] is ref):
        _last = None


def _law(piD, piHat, mu_items) -> PairLaw:
    """The last call's law if it had these two policies (matched with `is`)
    and an equal mu list, else a new law, which replaces it."""
    global _last
    mu = list(mu_items)
    if (_last is not None and _last[0]() is piD and _last[1]() is piHat
            and _last[2] == mu):
        return _last[3]
    law = PairLaw(piD, piHat, mu)
    _last = (weakref.ref(piD, _drop), weakref.ref(piHat, _drop), mu, law)
    return law


def _kl_leaves(lpD, lpH, sums, peaks):
    if np.isneginf(lpH).any():
        return math.inf
    return float(np.exp(lpD) @ (lpD - lpH))


def coverage_exact(piD: Policy, piHat: Policy, mu_items, Ns) -> CoverageCurve:
    """Exact coverage profile over thresholds Ns, checked before the law
    is built."""
    return _law(piD, piHat, mu_items).coverage(_thresholds(Ns))


def coverage_mc(piD: Policy, piHat: Policy, mu_sampler, Ns, n_samples: int,
                rng, delta: float = 0.05, interval: str = "hoeffding"
                ) -> CoverageCurve:
    """The curve of `mc_report`: one shared sample set, so it is monotone.

    The Hoeffding half-width sqrt(log(2/delta) / 2n) equals the
    Dvoretzky-Kiefer-Wolfowitz width with Massart's (1990) constant, so
    with one shared sample the Hoeffding band holds at every N of the
    curve at once with probability >= 1 - delta.  A Wilson band holds at
    one N at a time.
    """
    return mc_report(piD, piHat, mu_sampler, Ns, n_samples, rng, delta,
                     interval).coverage


def mc_report(piD: Policy, piHat: Policy, mu_sampler, Ns, n_samples: int,
              rng, delta: float = 0.05, interval: str = "hoeffding"
              ) -> MetricReport:
    """seq_kl (the mean of log piD - log piHat, as its mc mode takes it)
    and the coverage curve of one draw of n_samples from mu x piD.  Every
    argument is checked before the draw."""
    check_number("n_samples", n_samples, 2, integer=True)
    check_number("delta", delta, 0, 1, lo_open=True, hi_open=True)
    if interval not in ("hoeffding", "wilson"):
        raise ValueError(f"unknown interval {interval!r}")
    Ns = _thresholds(Ns)
    lrs = _mc_values(piD, mu_sampler, n_samples, rng,
                     _log_ratio_values(piD, piHat))
    values = np.array([(lrs >= math.log(N) - 1e-12).mean() for N in Ns])
    if interval == "hoeffding":
        hw = np.full_like(Ns, hoeffding_half_width(n_samples, delta))
    else:
        z = statistics.NormalDist().inv_cdf(1 - delta / 2)
        hw = np.array([_wilson_half_width(v, n_samples, z) for v in values])
    return MetricReport(float(lrs.mean()),
                        CoverageCurve(Ns, values, hw, n_samples=n_samples))


def _mc_values(piD, mu_sampler, n, rng, value):
    """value(x, Y) of n draws from mu x piD, in the order the prompts were
    drawn.  All n prompts are drawn first; then each distinct prompt, in
    order of first appearance, gets its responses Y from one sample_many
    call.  `value` must not draw from rng, whose draws it sits between."""
    check_number("n", n, 1, integer=True)
    out = np.empty(n)
    for x, idx in group_prompts(sample_prompts(mu_sampler, n, rng)).items():
        out[idx] = value(x, piD.sample_many(x, len(idx), rng))
    return out


def _log_ratio_values(piD, piHat):
    """log piD - log piHat of each row of Y; +inf where piHat has no mass.
    Both score Y's distinct rows, found once."""
    def value(x, Y):
        levels = {}
        lpD, inv = piD._logprob_distinct(x, Y, levels)
        return (lpD - piHat._logprob_distinct(x, Y, levels)[0]).take(inv)
    return value


def _wilson_half_width(p, n, z):
    denom = 1 + z * z / n
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return half


def seq_kl(piD: Policy, piHat: Policy, mu_items, mode="exact",
           n=None, rng=None, mu_sampler=None) -> float:
    """E_piD[log piD - log piHat]; +inf if piHat misses piD mass."""
    if mode == "exact":
        return _law(piD, piHat, mu_items).seq_kl()
    if mode == "mc":
        return float(_mc_values(piD, mu_sampler, n, rng,
                                _log_ratio_values(piD, piHat)).mean())
    raise ValueError(f"unknown mode {mode!r}")


def _ce_closed(pD, pH, H):
    # -0 * log 0 is NaN where neither policy has mass; np.where drops it.
    with np.errstate(divide="ignore", invalid="ignore"):
        return H * float(np.where(pD > 0.0, -pD * np.log(pH), 0.0).sum())


def _ce_leaves(lpD, lpH, sums, peaks):
    if np.isneginf(lpH).any():
        return math.inf
    return -float(np.exp(lpD) @ lpH)


def seq_ce(piD: Policy, piHat: Policy, mu_items, mode="exact",
           n=None, rng=None, mu_sampler=None) -> float:
    """E_piD[-log piHat]."""
    if mode == "exact":
        return _law(piD, piHat, mu_items).seq_ce()
    if mode == "mc":
        return float(_mc_values(piD, mu_sampler, n, rng,
                                lambda x, Y: -piHat.logprob_many(x, Y)).mean())
    raise ValueError(f"unknown mode {mode!r}")


def hellinger_sq(piD: Policy, piHat: Policy, mu_items) -> float:
    """Squared Hellinger distance (1/2) E_x sum_y (sqrt piD - sqrt piHat)^2."""
    return _law(piD, piHat, mu_items).hellinger_sq()


def step_kl(pD: np.ndarray, pH: np.ndarray) -> float:
    return float(_kl_rows(np.asarray(pD, dtype=float),
                          np.asarray(pH, dtype=float)))


def _log_cap(N):
    check_number("N", N, 1, math.inf, lo_open=True)
    return math.log(N)


def stopped_kl(piD: Policy, piHat: Policy, mu_items, N: float, mode="exact",
               n=None, rng=None, mu_sampler=None) -> float:
    """E_piD[min(log N, sum_h per-step conditional KL)]."""
    logN = _log_cap(N)
    if mode == "exact":
        return _law(piD, piHat, mu_items).stopped_kl(N)
    if mode == "mc":
        # Step KLs are >= 0, so clipping the full sum equals stopping early.
        def clipped_kl(x, Y):
            first, inv = distinct_rows(Y, piD.V)
            U = Y[first]
            acc = np.zeros(len(U))
            for h, first, at in prefix_levels(U, piD.V):
                pre = U[first, :h]
                acc += _kl_rows(piD.prefix_dists(x, pre),
                                piHat.prefix_dists(x, pre))[at]
            return np.minimum(logN, acc).take(inv)
        return float(_mc_values(piD, mu_sampler, n, rng, clipped_kl).mean())
    raise ValueError(f"unknown mode {mode!r}")


def stepwise_hellinger_tail(piD: Policy, piHat: Policy, mu_items, N: float,
                            delta: float) -> float:
    """P_piD(a partial sum of per-step squared Hellinger >= log(N/delta)),
    for N >= 1 and delta in (0, 1]."""
    return _law(piD, piHat, mu_items).hellinger_tail(N, delta)


def kl_to_cov_bound(kl: float, N: float) -> float:
    """Upper bound on Pcov_N implied by KL: kl / (log N - 1 + 1/N)."""
    check_number("N", N, math.e, math.inf, lo_open=True)
    return kl / (math.log(N) - 1.0 + 1.0 / N)


def coverage_sup_log(piD: Policy, piHat: Policy, mu_items):
    """(C, log W_max) with C = sup_N Pcov_N * log N on the exact curve.

    The exact curve is piecewise constant with breakpoints at the log-ratio
    atoms, so the sup over N >= 1 is attained at an atom; this is exact.
    """
    return _law(piD, piHat, mu_items).sup_log()


def pairwise_cov_matrix(policies, dataset, N: float) -> np.ndarray:
    """M[i, j]: fraction of `dataset` points with log policies[i] -
    log policies[j] >= log N, zero on the diagonal.  Each distinct
    (prompt, response) pair is scored once per policy
    (`distinct_logprobs`); its hits count as many times as it occurs, and
    the counts, divided by n, are the means of the per-example events."""
    check_number("N", N, 1, math.inf)
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    lp, inv = distinct_logprobs(policies, dataset)
    counts = np.bincount(inv, minlength=lp.shape[1])
    M = np.array([covers(row, lp, math.log(N)) @ counts for row in lp])
    M = M / len(dataset)
    np.fill_diagonal(M, 0.0)
    return M


def covers(lp_prime, lp, log_thresh):
    """Elementwise log piPrime - log pi >= log_thresh, with 1e-12 slack.

    Where pi has no mass the event holds iff piPrime has mass: -inf minus
    -inf is NaN, which compares False, since a point where both densities
    are zero is not a coverage event.
    """
    with np.errstate(invalid="ignore"):
        return np.asarray(lp_prime) - lp >= log_thresh - 1e-12


def onpolicy_cov(policies, pi: Policy, prompts, N: float, mode="exact",
                 m=None, rng=None) -> np.ndarray:
    """Entry k: the average over prompts of P_{y~pi}(log policies[k] -
    log pi >= log N).

    Exact mode makes one `tree_walk(pi, distinct prompts, policies)` and
    weights each prompt's slice by its count; pi's log-probs are the
    walk's own.  Mc mode draws count * m responses per distinct
    prompt in one pi.sample_many call and scores pi once and every policy
    on them, sharing the prefix levels; m must be an integer >= 1.
    """
    check_number("N", N, 1, math.inf)
    if len(prompts) == 0:
        raise ValueError("prompts is empty")
    logN = math.log(N)
    total = np.zeros(len(policies))
    if mode == "exact":
        counts = collections.Counter(prompts)
        for c, (lp, lps, _, _) in zip(counts.values(),
                                      tree_walk(pi, list(counts), policies)):
            p = np.exp(lp)
            for k, hit in enumerate(covers(lps, lp, logN)):
                total[k] += c * float(p[hit].sum())
    elif mode == "mc":
        check_number("m", m, 1, integer=True)
        for x, idx in group_prompts(prompts).items():
            Y, levels = pi.sample_many(x, len(idx) * m, rng), {}
            lp = pi._logprob_rows(x, Y, levels)
            for k, q in enumerate(policies):
                hits = covers(q._logprob_rows(x, Y, levels), lp, logN)
                total[k] += int(hits.sum()) / m
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return total / len(prompts)


def onpolicy_cov_estimate(piPrime: Policy, pi: Policy, prompts, N: float,
                          mode="exact", m=None, rng=None) -> float:
    """Average over prompts of P_{y~pi}(log piPrime - log pi >= log N):
    the one entry of `onpolicy_cov`."""
    return float(onpolicy_cov([piPrime], pi, prompts, N, mode, m, rng)[0])


def hoeffding_half_width(n: int, delta: float = 0.05) -> float:
    """sqrt(log(2/delta) / 2n), for n >= 1 and delta in (0, 1)."""
    check_number("n", n, 1, integer=True)
    check_number("delta", delta, 0, 1, lo_open=True, hi_open=True)
    return math.sqrt(math.log(2.0 / delta) / (2 * n))


def sigma_star_sq(piD: Policy, featmap: FeatureMap, mu_items, mode="exact",
                  n=None, rng=None):
    """Inherent variance: E_piD[ sum_h ||phi(x,y_{1:h}) - phibar(x,y_{1:h-1})||^2 ].

    `mu_items` is a list of (prompt, weight) pairs for exact mode, or a
    prompt sampler callable for mc mode.  Exact mode refuses the weights
    that the exact metrics refuse (`positive_weights`) and takes the closed
    form on each `product_steps` prompt.  mc mode draws its n examples with
    one `sample_dataset` call and returns (estimate, se).
    """
    if mode == "exact":
        mu = positive_weights(mu_items)
        steps = [product_steps(piD, featmap, x) for x, _ in mu]
        laws = _walk_others(piD, mu, steps, terms=[
            functools.partial(_sigma_term, featmap)])
        total = 0.0
        for (_, w), s in zip(mu, steps):
            if s is not None:
                total += w * piD.H * _variance(*s)
            else:
                lpD, _, sums, _ = next(laws)
                total += w * float(np.exp(lpD) @ sums[0])
        return total
    if mode == "mc":
        check_number("n", n, 2, integer=True)
        vals = np.empty(n)
        for x, idx, Yx in sample_dataset(piD, mu_items, n, rng).groups:
            first, inv = distinct_rows(Yx, piD.V)
            U = Yx[first]
            acc = np.zeros(len(U))
            for h, first, at in prefix_levels(U, piD.V):
                pre = U[first, :h]
                sq = _sq_deviations(featmap, x, pre, piD.prefix_dists(x, pre))
                acc += sq[at, U[:, h]]
            vals[idx] = acc.take(inv)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))
    raise ValueError(f"unknown mode {mode!r}")


def _variance(p, feats):
    """E_{v ~ p} ||feats[v] - p @ feats||^2."""
    return float(p @ np.sum((feats - p @ feats) ** 2, axis=1))


def _sq_deviations(featmap, x, prefixes, P):
    """(k, V): ||feats[i, v] - P[i] @ feats[i]||^2 over a level's rows P."""
    feats = featmap.candidates(x, prefixes, P.shape[1])
    return np.sum((feats - P[:, None, :] @ feats) ** 2, axis=2)


def _sigma_term(featmap, x, prefixes, PD, _):
    """tree_walk term, bound to a feature map: `_variance` under piD at
    each prefix of a prompt's slice of a level."""
    sq = _sq_deviations(featmap, x, prefixes, PD)
    return (PD[:, None, :] @ sq[:, :, None])[:, 0, 0]
