"""Brute-force exact references that enumerate every response, and
per-token references for the linear class.

Nothing here uses covkit.metrics: each exact function lists all V**H
responses with numpy, reads every conditional row through `next_dist`,
and reduces the per-response arrays directly.  Tests compare covkit's
exact functionals with these on small random instances.  The linear
references at the end compute one prefix at a time, as covkit did before
its linear class answered a whole level per call.
"""

import math

import numpy as np

from covkit.core import sample_dataset
from covkit.models import LinearARModel


def responses(V, H):
    """All V**H responses as an (n, H) int array, lexicographic."""
    return np.indices((V,) * H).reshape(H, -1).T


def conditionals(pol, x, Y):
    """(n, H, V) array of pol.next_dist(x, y[:h]) for every response y."""
    return np.array([[pol.next_dist(x, tuple(int(v) for v in y[:h]))
                      for h in range(Y.shape[1])] for y in Y], dtype=float)


def path_logprob(rows, Y):
    """log pi(y|x) of every response; -inf where a token has no mass."""
    picked = np.take_along_axis(rows, Y[:, :, None], axis=2)[:, :, 0]
    lp = np.zeros(len(Y))
    with np.errstate(divide="ignore"):
        for h in range(Y.shape[1]):
            lp = lp + np.log(picked[:, h])
    return lp


def _peak(steps):
    """Largest partial sum along each row, the empty sum 0 included."""
    return np.maximum(0.0, np.cumsum(steps, axis=1).max(axis=1))


def exact_functionals(piD, piHat, mu_items, Ns, stop_N, tail_N, tail_delta):
    """The seven exact functionals of covkit.metrics for one policy pair."""
    Y = responses(piD.V, piD.H)
    logN = math.log(stop_N)
    thr = math.log(tail_N / tail_delta)
    kl = ce = h2 = stopped = tail = 0.0
    ratios, probs = [], []
    for x, w in mu_items:
        RD, RH = conditionals(piD, x, Y), conditionals(piHat, x, Y)
        lpD, lpH = path_logprob(RD, Y), path_logprob(RH, Y)
        pos = lpD > -math.inf
        p = np.exp(lpD[pos])
        miss = bool((lpH[pos] == -math.inf).any())
        kl += w * (math.inf if miss else float(p @ (lpD - lpH)[pos]))
        ce += w * (math.inf if miss else -float(p @ lpH[pos]))
        h2 += w * (1.0 - float(np.sqrt(np.exp(lpD) * np.exp(lpH)).sum()))
        with np.errstate(divide="ignore", invalid="ignore"):
            step_kl = np.where(RD > 0, RD * (np.log(RD) - np.log(RH)),
                               0.0).sum(axis=2)
        step_h = 1.0 - np.sqrt(RD * RH).sum(axis=2)
        final = np.cumsum(step_kl, axis=1)[:, -1]
        val = np.where(_peak(step_kl) >= logN, logN, final)
        stopped += w * float(p @ val[pos])
        tail += w * float(p[(_peak(step_h) >= thr)[pos]].sum())
        ratios.append(np.where(lpH[pos] == -math.inf, math.inf,
                               (lpD - lpH)[pos]))
        probs.append(w * p)
    r, pr = np.concatenate(ratios), np.concatenate(probs)
    cov = np.array([pr[r >= math.log(N) - 1e-12].sum() for N in Ns])
    uniq = np.unique(r)
    C = max([u * pr[r >= u].sum() for u in uniq
             if u > 0 and u != math.inf], default=0.0)
    return {
        "seq_kl": kl, "seq_ce": ce, "hellinger_sq": h2,
        "stopped_kl": stopped, "stepwise_hellinger_tail": tail,
        "coverage_exact": np.clip(cov, 0.0, 1.0),
        "coverage_sup_log": (C, uniq[-1]),
    }


def onpolicy_cov(piBar, piPrime, pi, prompts, N):
    """Mean over prompts of P_{y~piBar}(log piPrime - log pi >= log N)."""
    Y = responses(piBar.V, piBar.H)
    total = 0.0
    for x in prompts:
        lpB, lpP, lpQ = (path_logprob(conditionals(q, x, Y), Y)
                         for q in (piBar, piPrime, pi))
        with np.errstate(invalid="ignore"):
            hit = np.where(lpQ == -math.inf, lpP > -math.inf,
                           lpP - lpQ >= math.log(N) - 1e-12)
        total += float(np.exp(lpB)[hit].sum())
    return total / len(prompts)


def sigma_star_sq(piD, featmap, mu_items):
    """E_piD[sum_h Var_{v ~ piD(.|prefix)} phi(x, prefix + (v,))]."""
    Y = responses(piD.V, piD.H)
    total = 0.0
    for x, w in mu_items:
        RD = conditionals(piD, x, Y)
        p = np.exp(path_logprob(RD, Y))
        var = np.zeros(len(Y))
        for i, y in enumerate(Y):
            for h in range(piD.H):
                pre = tuple(int(v) for v in y[:h])
                feats = np.array([featmap.phi(x, pre + (v,))
                                  for v in range(piD.V)])
                q = RD[i, h]
                var[i] += q @ np.sum((feats - q @ feats) ** 2, axis=1)
        total += w * float(p @ var)
    return total


def candidates(featmap, x, prefix, V):
    """(V, d) features of one prefix's candidate tokens: the step table
    when there is one, else V calls of phi."""
    table = featmap.step_table(x)
    if table is not None:
        return table
    return np.stack([featmap.phi(x, prefix + (v,)) for v in range(V)])


def next_row(pol, x, prefix):
    """pol's conditional at one prefix; a LinearARModel's as one softmax
    of that prefix's candidate features times theta."""
    if not isinstance(pol, LinearARModel):
        return pol.next_dist(x, prefix)
    logits = candidates(pol.featmap, x, prefix, pol.V) @ pol.theta
    e = np.exp(logits - logits.max())
    return e / e.sum()


def linear_tables(model, prompts):
    """{(x, prefix): row} of a linear model, prefixes in depth-first order."""
    tables = {}
    for x in prompts:
        stack = [()]
        while stack:
            prefix = stack.pop()
            tables[(x, prefix)] = next_row(model, x, prefix)
            if len(prefix) + 1 < model.H:
                stack.extend(prefix + (v,) for v in range(model.V))
    return tables


def sigma_star_sq_mc(piD, featmap, mu, n, rng):
    """MC sigma_star_sq as a per-token loop over the examples that
    `sample_dataset` draws: (estimate, se)."""
    ds = sample_dataset(piD, mu, n, rng)
    xs, Y = ds.xs, ds.Y
    vals = np.empty(n)
    for i, (x, y) in enumerate(zip(xs, Y.tolist())):
        acc, prefix = 0.0, ()
        for v in y:
            p = next_row(piD, x, prefix)
            feats = candidates(featmap, x, prefix, piD.V)
            acc += float(np.sum((feats[v] - p @ feats) ** 2))
            prefix = prefix + (v,)
        vals[i] = acc
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))
