"""Divergences and coverage quantities.

All ratio events are evaluated in log domain and use the closed comparison
log piD - log piHat >= log N.  Monte Carlo modes report Hoeffding (or
Wilson) confidence half-widths; they draw all prompts first, then score
each distinct prompt's responses with one sample_many and one logprob_many
call per policy.  Exact modes use, per prompt x, either

* product closed forms, when both policies return a `step_dist` at x:
  seq_kl = H KL_step, seq_ce = H CE_step, 1 - hellinger_sq = BC_step^H,
  stopped_kl = min(log N, H KL_step), a 0/1 stepwise_hellinger_tail, and
  log-ratio atoms (coverage_exact, coverage_sup_log) from a multinomial over
  the k <= V groups of distinct step log-ratios; or
* one `tree_walk` of the piD-positive prefix tree, whose per-leaf arrays
  each functional reduces.  onpolicy_cov_estimate and non-product
  models.sigma_star_sq always walk.

Work is estimated first (V^H leaves per walk, comb(H + k - 1, k - 1) atoms
per product prompt); above 1e6 a ValueError asks for a Monte Carlo mode.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Policy, check_enum_budget, group_prompts, logprob_matrix,
                   prefix_levels, sample_prompts)


@dataclass
class CoverageCurve:
    thresholds: np.ndarray
    values: np.ndarray
    half_widths: np.ndarray
    n_samples: int = 0

    def __post_init__(self):
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.half_widths = np.asarray(self.half_widths, dtype=float)
        if np.any(self.thresholds < 1):
            raise ValueError("thresholds must be >= 1")
        if np.any(np.diff(self.thresholds) < 0):
            raise ValueError("thresholds must be sorted")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("N,log2N,pcov,half_width,n_samples\n")
        for N, v, hw in zip(self.thresholds, self.values, self.half_widths):
            buf.write(f"{N:g},{math.log2(N):.10g},{v:.12g},{hw:.12g},"
                      f"{self.n_samples}\n")
        return buf.getvalue()


@dataclass
class MetricReport:
    """Sequence KL and coverage curve of one checkpoint."""

    seq_kl: float | None = None
    coverage: CoverageCurve | None = None


def default_n_grid(max_pow: int = 16) -> np.ndarray:
    return np.array([2.0 ** k for k in range(1, max_pow + 1)])


def tree_walk(piD: Policy, x, policies=(), terms=()):
    """Level-order walk of the piD-positive prefix tree of prompt x.

    Calls next_dist of piD and of each of `policies` once per prefix.  Over
    the n piD-positive responses y (lexicographic) it returns lpD (n,) =
    log piD(y|x); lps (len(policies), n), -inf where a policy has no mass;
    and each term's sum over the H prefixes of y and peak (largest partial
    sum, the empty one included), each (len(terms), n).  A term maps one
    level's (prefixes, PD, [policy rows]) to a value per prefix.  Callers
    check the work budget first.
    """
    prefixes = [()]
    lpD = np.zeros(1)
    lps = np.zeros((len(policies), 1))
    sums = np.zeros((len(terms), 1))
    peaks = np.zeros((len(terms), 1))
    for h in range(piD.H):
        if h:
            prefixes = [prefixes[i] + (v,)
                        for i, v in zip(parent.tolist(), tok.tolist())]
        PD = np.array([piD.next_dist(x, p) for p in prefixes], dtype=float)
        Ps = [np.array([q.next_dist(x, p) for p in prefixes], dtype=float)
              for q in policies]
        if terms:
            sums = sums + np.array([t(prefixes, PD, Ps) for t in terms])
            peaks = np.maximum(peaks, sums)
        parent, tok = np.nonzero(PD > 0.0)
        lpD = lpD[parent] + np.log(PD[parent, tok])
        rows = np.array([P[parent, tok] for P in Ps])
        with np.errstate(divide="ignore"):
            lps = lps[:, parent] + np.log(rows.reshape(len(Ps), len(tok)))
        sums, peaks = sums[:, parent], peaks[:, parent]
    return lpD, lps, sums, peaks


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


def _product_atoms(pD, pH, H):
    """Log-ratio law of H i.i.d. steps: a multinomial over the k groups of
    distinct step log-ratios, one atom per composition of H into k parts."""
    ratios, mass = _ratio_groups(pD, pH)
    k = len(ratios)
    n = math.comb(H + k - 1, k - 1)
    # Stars and bars: the k - 1 bar positions among H + k - 1 slots.
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(H + k - 1), k - 1)),
        dtype=np.int64, count=n * (k - 1)).reshape(n, k - 1)
    counts = np.diff(bars, axis=1, prepend=-1, append=H + k - 1) - 1
    lgam = np.array([math.lgamma(c + 1) for c in range(H + 1)])
    logp = lgam[H] - lgam[counts].sum(axis=1) + counts @ np.log(mass)
    fin = np.isfinite(ratios)
    r = np.where(counts[:, ~fin].any(axis=1), math.inf,
                 counts[:, fin] @ ratios[fin])
    return r, np.exp(logp)


def _pair_laws(piD, piHat, mu_items, terms=(), atoms=False):
    """(w, steps, leaves) per prompt x of weight w != 0: steps = (pD, pH)
    if both policies are products at x, else leaves = tree_walk(piD, x,
    [piHat], terms).  The budget is checked before anything is walked."""
    items, work = [], 0
    for x, w in mu_items:
        if w == 0.0:
            continue
        pD = piD.step_dist(x)
        pH = None if pD is None else piHat.step_dist(x)
        steps = None if pH is None else (np.asarray(pD, dtype=float),
                                         np.asarray(pH, dtype=float))
        if steps is None:
            work += piD.V ** piD.H
        elif atoms:
            k = len(_ratio_groups(*steps)[0])
            work += math.comb(piD.H + k - 1, k - 1)
        items.append((x, w, steps))
    check_enum_budget("leaves + atoms", work)
    return [(w, steps, None if steps is not None else
             tree_walk(piD, x, [piHat], terms)) for x, w, steps in items]


def _reduce(laws, H, closed_form, leaf_value):
    """sum_x w(x) * value(x): closed_form(pD, pH, H) on product prompts,
    leaf_value(lpD, lpH, sums, peaks) on walked ones."""
    total = 0.0
    for w, steps, leaves in laws:
        if steps is not None:
            total += w * closed_form(*steps, H)
        else:
            lpD, (lpH,), sums, peaks = leaves
            total += w * leaf_value(lpD, lpH, sums, peaks)
    return total


def _kl_closed(pD, pH, H):
    return H * step_kl(pD, pH)


def _kl_leaves(lpD, lpH, sums, peaks):
    if np.isneginf(lpH).any():
        return math.inf
    return float(np.exp(lpD) @ (lpD - lpH))


def _atoms(laws, H):
    ratios, probs = [], []
    for w, steps, leaves in laws:
        if steps is not None:
            r, p = _product_atoms(*steps, H)
        else:
            lpD, (lpH,), _, _ = leaves
            r, p = lpD - lpH, np.exp(lpD)     # +inf where lpH == -inf
        ratios.append(r)
        probs.append(w * p)
    ratios, inv = np.unique(np.concatenate(ratios), return_inverse=True)
    return ratios, np.bincount(inv, weights=np.concatenate(probs))


def log_ratio_atoms(piD: Policy, piHat: Policy, mu_items):
    """Exact distribution of log(piD/piHat) under mu x piD.

    Returns (ratios, probs) with distinct ratios in increasing order; +inf
    ratios appear when piHat assigns zero mass to a piD-positive response.
    """
    return _atoms(_pair_laws(piD, piHat, mu_items, atoms=True), piD.H)


def _curve(atoms, Ns) -> CoverageCurve:
    ratios, probs = atoms
    Ns = np.atleast_1d(np.asarray(Ns, dtype=float))
    values = np.array([probs[ratios >= math.log(N) - 1e-12].sum() for N in Ns])
    return CoverageCurve(Ns, np.clip(values, 0.0, 1.0), np.zeros_like(Ns))


def coverage_exact(piD: Policy, piHat: Policy, mu_items, Ns) -> CoverageCurve:
    """Exact coverage profile over thresholds Ns."""
    return _curve(log_ratio_atoms(piD, piHat, mu_items), Ns)


def kl_and_coverage(piD: Policy, piHat: Policy, mu_items, Ns):
    """(seq_kl, coverage_exact) of one pair from one pass over the prompts."""
    laws = _pair_laws(piD, piHat, mu_items, atoms=True)
    return (_reduce(laws, piD.H, _kl_closed, _kl_leaves),
            _curve(_atoms(laws, piD.H), Ns))


def coverage_mc(piD: Policy, piHat: Policy, mu_sampler, Ns, n_samples: int,
                rng, delta: float = 0.05, interval: str = "hoeffding"
                ) -> CoverageCurve:
    """MC coverage from one shared sample set (so the curve is monotone)."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    Ns = np.atleast_1d(np.asarray(Ns, dtype=float))
    lrs = _mc_log_ratios(piD, piHat, mu_sampler, n_samples, rng)
    values = np.array([(lrs >= math.log(N) - 1e-12).mean() for N in Ns])
    if interval == "hoeffding":
        hw = np.full_like(Ns, math.sqrt(math.log(2.0 / delta) / (2 * n_samples)))
    elif interval == "wilson":
        z = _norm_ppf(1 - delta / 2)
        hw = np.array([_wilson_half_width(v, n_samples, z) for v in values])
    else:
        raise ValueError(f"unknown interval {interval!r}")
    return CoverageCurve(Ns, values, hw, n_samples=n_samples)


def _mc_draws(piD, mu_sampler, n, rng):
    """n draws from mu x piD: a list of (x, positions, Y), one per prompt.

    All n prompts are drawn first; then each distinct prompt, in order of
    first appearance, gets its responses Y from one sample_many call.
    """
    if n is None or n < 1:
        raise ValueError("mc mode requires n >= 1")
    groups = group_prompts(sample_prompts(mu_sampler, n, rng))
    return [(x, idx, piD.sample_many(x, len(idx), rng))
            for x, idx in groups.items()]


def _mc_log_ratios(piD, piHat, mu_sampler, n, rng):
    """log piD - log piHat of n draws from mu x piD, +inf where piHat has
    no mass, in the order the prompts were drawn."""
    draws = _mc_draws(piD, mu_sampler, n, rng)
    out = np.empty(n)
    for x, idx, Y in draws:
        out[idx] = piD.logprob_many(x, Y) - piHat.logprob_many(x, Y)
    return out


def _norm_ppf(q):
    # Acklam rational approximation; avoids a scipy dependency for one number.
    a = [-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00]
    plow = 0.02425
    if q < plow:
        u = math.sqrt(-2 * math.log(q))
        return (((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u+c[5]) / \
               ((((d[0]*u+d[1])*u+d[2])*u+d[3])*u+1)
    if q > 1 - plow:
        return -_norm_ppf(1 - q)
    u = q - 0.5
    t = u * u
    return (((((a[0]*t+a[1])*t+a[2])*t+a[3])*t+a[4])*t+a[5])*u / \
           (((((b[0]*t+b[1])*t+b[2])*t+b[3])*t+b[4])*t+1)


def _wilson_half_width(p, n, z):
    denom = 1 + z * z / n
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return half


def seq_kl(piD: Policy, piHat: Policy, mu_items, mode="exact",
           n=None, rng=None, mu_sampler=None) -> float:
    """E_piD[log piD - log piHat]; +inf if piHat misses piD mass."""
    if mode == "exact":
        return _reduce(_pair_laws(piD, piHat, mu_items), piD.H,
                       _kl_closed, _kl_leaves)
    if mode == "mc":
        return float(_mc_log_ratios(piD, piHat, mu_sampler, n, rng).mean())
    raise ValueError(f"unknown mode {mode!r}")


def _ce_closed(pD, pH, H):
    with np.errstate(divide="ignore"):
        return H * float(np.where(pD > 0.0, -pD * np.log(pH), 0.0).sum())


def _ce_leaves(lpD, lpH, sums, peaks):
    if np.isneginf(lpH).any():
        return math.inf
    return -float(np.exp(lpD) @ lpH)


def seq_ce(piD: Policy, piHat: Policy, mu_items, mode="exact",
           n=None, rng=None, mu_sampler=None) -> float:
    """E_piD[-log piHat]."""
    if mode == "exact":
        return _reduce(_pair_laws(piD, piHat, mu_items), piD.H,
                       _ce_closed, _ce_leaves)
    if mode == "mc":
        draws = _mc_draws(piD, mu_sampler, n, rng)
        vals = np.empty(n)
        for x, idx, Y in draws:
            vals[idx] = -piHat.logprob_many(x, Y)
        return float(vals.mean())
    raise ValueError(f"unknown mode {mode!r}")


def hellinger_sq(piD: Policy, piHat: Policy, mu_items) -> float:
    """Squared Hellinger distance (1/2) E_x sum_y (sqrt piD - sqrt piHat)^2."""
    return _reduce(
        _pair_laws(piD, piHat, mu_items), piD.H,
        lambda pD, pH, H: 1.0 - float(_bc_rows(pD, pH)) ** H,
        lambda lpD, lpH, sums, peaks:
            1.0 - float(np.exp(0.5 * (lpD + lpH)).sum()))


def step_kl(pD: np.ndarray, pH: np.ndarray) -> float:
    return float(_kl_rows(np.asarray(pD, dtype=float),
                          np.asarray(pH, dtype=float)))


def stopped_kl(piD: Policy, piHat: Policy, mu_items, N: float, mode="exact",
               n=None, rng=None, mu_sampler=None) -> float:
    """E_piD[min(log N, sum_h per-step conditional KL)]."""
    if N <= 1:
        raise ValueError("N must be > 1")
    logN = math.log(N)
    if mode == "exact":
        return _reduce(
            _pair_laws(piD, piHat, mu_items,
                       terms=[lambda pre, PD, Ps: _kl_rows(PD, Ps[0])]), piD.H,
            lambda pD, pH, H: min(logN, H * step_kl(pD, pH)),
            lambda lpD, lpH, sums, peaks: float(
                np.exp(lpD) @ np.where(peaks[0] >= logN, logN, sums[0])))
    if mode == "mc":
        # Step KLs are >= 0, so clipping the full sum equals stopping early.
        draws = _mc_draws(piD, mu_sampler, n, rng)
        vals = np.empty(n)
        for x, idx, Y in draws:
            acc = np.zeros(len(idx))
            for h, first, inv in prefix_levels(Y, piD.V):
                pre = Y[first, :h]
                acc += _kl_rows(piD.prefix_dists(x, pre),
                                piHat.prefix_dists(x, pre))[inv]
            vals[idx] = np.minimum(logN, acc)
        return float(vals.mean())
    raise ValueError(f"unknown mode {mode!r}")


def stepwise_hellinger_tail(piD: Policy, piHat: Policy, mu_items, N: float,
                            delta: float) -> float:
    """P_piD(a partial sum of per-step squared Hellinger >= log(N/delta))."""
    thr = math.log(N / delta)
    return _reduce(
        _pair_laws(piD, piHat, mu_items,
                   terms=[lambda pre, PD, Ps: 1.0 - _bc_rows(PD, Ps[0])]),
        piD.H,
        lambda pD, pH, H: float(
            max(0.0, H * (1.0 - float(_bc_rows(pD, pH)))) >= thr),
        lambda lpD, lpH, sums, peaks:
            float(np.exp(lpD)[peaks[0] >= thr].sum()))


def kl_to_cov_bound(kl: float, N: float) -> float:
    """Upper bound on Pcov_N implied by KL: kl / (log N - 1 + 1/N)."""
    if N <= math.e:
        raise ValueError("N must exceed e for a positive denominator")
    return kl / (math.log(N) - 1.0 + 1.0 / N)


def coverage_sup_log(piD: Policy, piHat: Policy, mu_items):
    """(C, log W_max) with C = sup_N Pcov_N * log N on the exact curve.

    The exact curve is piecewise constant with breakpoints at the log-ratio
    atoms, so the sup over N >= 1 is attained at an atom; this is exact.
    """
    ratios, probs = log_ratio_atoms(piD, piHat, mu_items)
    tails = np.cumsum(probs[::-1])[::-1]
    ok = (ratios > 0) & np.isfinite(ratios)
    C = float(np.max(tails[ok] * ratios[ok], initial=0.0))
    return C, ratios[-1]


def empirical_pairwise_cov(piPrime: Policy, pi: Policy, dataset, N: float,
                           logp_prime=None, logp=None) -> float:
    """Fraction of dataset points with log piPrime - log pi >= log N.

    Cached per-candidate log-probs may be passed to avoid recomputation in
    tournaments.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    if logp_prime is None:
        logp_prime = logprob_matrix([piPrime], dataset)[0]
    if logp is None:
        logp = logprob_matrix([pi], dataset)[0]
    return float(covers(logp_prime, logp, math.log(N)).mean())


def covers(lp_prime, lp, log_thresh):
    """Elementwise log piPrime - log pi >= log_thresh, with 1e-12 slack.

    Where pi has no mass the event holds iff piPrime has mass: -inf minus
    -inf is NaN, which compares False, since a point where both densities
    are zero is not a coverage event.
    """
    with np.errstate(invalid="ignore"):
        return np.asarray(lp_prime) - lp >= log_thresh - 1e-12


def onpolicy_cov_estimate(piBar: Policy, piPrime: Policy, pi: Policy,
                          prompts, N: float, mode="exact", m=None, rng=None
                          ) -> float:
    """Average over prompts of P_{y~piBar}(log piPrime - log pi >= log N).

    Exact mode walks each distinct prompt once, weighted by its count; mc
    mode draws m responses per listed prompt, those of each distinct prompt
    in one sample_many call.
    """
    logN = math.log(N)
    total = 0.0
    if mode == "exact":
        counts = {}
        for x in prompts:
            counts[x] = counts.get(x, 0) + 1
        check_enum_budget("leaves", piBar.V ** piBar.H * len(counts))
        for x, c in counts.items():
            lpBar, (lpP, lpQ), _, _ = tree_walk(piBar, x, [piPrime, pi])
            hit = covers(lpP, lpQ, logN)
            total += c * float(np.exp(lpBar)[hit].sum())
    elif mode == "mc":
        if m is None or m < 1:
            raise ValueError("mc mode requires m >= 1")
        for x, idx in group_prompts(prompts).items():
            Y = piBar.sample_many(x, len(idx) * m, rng)
            hits = covers(piPrime.logprob_many(x, Y), pi.logprob_many(x, Y),
                          logN)
            total += int(hits.sum()) / m
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return total / len(prompts)


def hoeffding_half_width(n: int, delta: float = 0.05) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2 * n))
