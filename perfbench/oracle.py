"""Brute-force numpy references for the benchmark's output checks.

Nothing here calls covkit: policies are plain arrays of conditional rows
and every functional is computed by enumerating all V**H leaves at once.
A tabular policy is a dict prompt -> (n_prefixes, V) array whose rows are
in canonical prefix order: all prefixes of length 0, then of length 1 in
lexicographic order, and so on up to length H - 1.
"""

from __future__ import annotations

import math

import numpy as np


def prefix_offsets(V, H):
    """offsets[h] = index of the first prefix of length h."""
    return [(V ** h - 1) // (V - 1) for h in range(H + 1)]


def all_prefixes(V, H):
    """Prefixes of length < H as tuples, in canonical order."""
    out = [()]
    frontier = [()]
    for _ in range(H - 1):
        frontier = [p + (v,) for p in frontier for v in range(V)]
        out.extend(frontier)
    return out


def prefix_index(Y, V):
    """(n, H) tokens -> (n, H) canonical index of the prefix before each step."""
    n, H = Y.shape
    off = prefix_offsets(V, H)
    idx = np.empty((n, H), dtype=np.int64)
    code = np.zeros(n, dtype=np.int64)
    for h in range(H):
        idx[:, h] = off[h] + code
        code = code * V + Y[:, h]
    return idx


def leaves(V, H):
    """All V**H responses, lexicographic, with their prefix indices."""
    Y = np.indices((V,) * H).reshape(H, -1).T
    return Y, prefix_index(Y, V)


def leaf_logprob(rows, Y, pidx):
    """log pi(y|x) for every row of Y; -inf where a token has zero mass."""
    lp = np.zeros(len(Y))
    with np.errstate(divide="ignore"):
        for h in range(Y.shape[1]):
            lp = lp + np.log(rows[pidx[:, h], Y[:, h]])
    return lp


def _row_kl(d, h):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(d > 0, d * (np.log(d) - np.log(h)), 0.0)
    kl = terms.sum(axis=1)
    return np.where(((d > 0) & (h <= 0)).any(axis=1), math.inf, kl)


def exact_functionals(pD, pH, mu, V, H, Ns, stop_N, tail_N, tail_delta):
    """All seven exact functionals of covkit.metrics for one policy pair.

    `pD`, `pH`: tabular policies as described in the module docstring;
    `mu`: list of (prompt, weight).  Returns a dict keyed by functional.
    """
    Y, pidx = leaves(V, H)
    logN = math.log(stop_N)
    thr = math.log(tail_N / tail_delta)
    kl = ce = h2 = stopped = tail = 0.0
    missing = False
    ratios, probs = [], []
    for x, w in mu:
        if w == 0.0:
            continue
        d, hh = pD[x], pH[x]
        lpD = leaf_logprob(d, Y, pidx)
        lpH = leaf_logprob(hh, Y, pidx)
        pos = lpD > -math.inf
        p = np.exp(lpD[pos])
        miss = lpH[pos] == -math.inf
        missing |= bool(miss.any())
        if not miss.any():
            kl += w * float(p @ (lpD[pos] - lpH[pos]))
            ce += w * float(p @ -lpH[pos])
        h2 += w * (1.0 - float(np.sqrt(np.exp(lpD) * np.exp(lpH)).sum()))
        step_kl = _row_kl(d, hh)[pidx[pos]].sum(axis=1)
        stopped += w * float(p @ np.minimum(logN, step_kl))
        step_h = (1.0 - np.sqrt(d * hh).sum(axis=1))[pidx[pos]].sum(axis=1)
        tail += w * float(p[step_h >= thr].sum())
        ratios.append(np.where(miss, math.inf, lpD[pos] - lpH[pos]))
        probs.append(w * p)
    r = np.concatenate(ratios)
    pr = np.concatenate(probs)
    cov = np.array([pr[r >= math.log(N) - 1e-12].sum() for N in Ns])
    order = np.argsort(r, kind="stable")
    r, pr = r[order], pr[order]
    suffix = np.cumsum(pr[::-1])[::-1]
    uniq, first = np.unique(r, return_index=True)
    tails = suffix[first]
    ok = (uniq > 0) & np.isfinite(uniq)
    C = float((uniq[ok] * tails[ok]).max()) if ok.any() else 0.0
    return {
        "seq_kl": math.inf if missing else kl,
        "seq_ce": math.inf if missing else ce,
        "hellinger_sq": h2,
        "stopped_kl": stopped,
        "stepwise_hellinger_tail": tail,
        "coverage_exact": np.clip(cov, 0.0, 1.0),
        "coverage_sup_log": (C, float(r[-1])),
    }


def close(a, b, tol=1e-9):
    """Equal within tol, relative above magnitude 1; infinities must match."""
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def product_kl(table, theta_star, theta, H):
    """H * KL(softmax(table theta*) || softmax(table theta)) for i.i.d. steps."""
    pD = softmax(table @ theta_star)
    pH = softmax(table @ theta)
    return H * float(pD @ (np.log(pD) - np.log(pH)))


def coverage(pD, pH, mu, V, H, Ns):
    """Exact Pcov_N(piD || piHat) for each N."""
    Y, pidx = leaves(V, H)
    out = np.zeros(len(Ns))
    for x, w in mu:
        lpD = leaf_logprob(pD[x], Y, pidx)
        lpH = leaf_logprob(pH[x], Y, pidx)
        r = np.where(lpH == -math.inf, math.inf, lpD - lpH)
        out += [w * np.exp(lpD)[r >= math.log(N) - 1e-12].sum() for N in Ns]
    return out


def tournament(cands, data_x, data_y, V, H, N, gamma=None):
    """Pairwise coverage matrix (and on-policy offsets when gamma is given).

    M[i, j] is the fraction of examples with log pi_i - log pi_j >= log N;
    offsets[i, j] averages over the dataset's prompts the pi_j-probability
    of the same event.  Returns (M, offsets or None, worst-case objective).
    """
    K = len(cands)
    logN = math.log(N)
    pidx = prefix_index(data_y, V)
    lp = np.zeros((K, len(data_x)))
    for k, c in enumerate(cands):
        for x in np.unique(data_x):
            sel = data_x == x
            lp[k, sel] = leaf_logprob(c[x], data_y[sel], pidx[sel])
    M = np.zeros((K, K))
    for i in range(K):
        for j in range(K):
            if i != j:
                with np.errstate(invalid="ignore"):
                    diff = lp[i] - lp[j]
                diff = np.where(np.isnan(diff), -math.inf, diff)
                M[i, j] = float((diff >= logN - 1e-12).mean())
    if gamma is None:
        return M, None, M.max(axis=0)
    Y, lpidx = leaves(V, H)
    xs, counts = np.unique(data_x, return_counts=True)
    offsets = np.zeros((K, K))
    for x, cnt in zip(xs, counts):
        lps = [leaf_logprob(c[x], Y, lpidx) for c in cands]
        for i in range(K):
            for j in range(K):
                if i == j:
                    continue
                with np.errstate(invalid="ignore"):
                    hit = np.where(lps[j] == -math.inf, lps[i] > -math.inf,
                                   lps[i] - lps[j] >= logN - 1e-12)
                offsets[i, j] += cnt * float(np.exp(lps[j])[hit].sum())
    offsets /= len(data_x)
    return M, offsets, (M - 2.0 * gamma * offsets).max(axis=0)
