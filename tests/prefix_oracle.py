"""Tuple-prefix references for the integer prefix path.

`DictTabular` answers a level, and a single prefix, with one plain-dict
lookup per row, keyed by (x, prefix tuple), and `tuple_tree_walk` walks
one prompt's prefix tree with tuple prefixes and one `next_dist` call per
prefix.
Neither uses integer prefix codes or level gathers, so tests can compare
`TabularModel` and `metrics.tree_walk` with them exactly.
`CountingTabular` records the prefix length, and the prompt, of each
`prefix_dists` call.
`prefix_levels_ref` groups the rows of a level by sorting their prefix
codes with `np.unique`, the reference for `core.prefix_levels`.
"""

import numpy as np

from covkit.core import Policy
from covkit.models import TabularModel


def prefix_levels_ref(Y, V):
    """For h = 0..H-1 yield (h, first, inv) over the prefixes Y[:, :h]:
    np.unique of the codes (parent index * V + token), so first[j] is the
    first row holding the j-th distinct prefix in sorted code order."""
    if len(Y) <= 1:
        idx = np.zeros(len(Y), dtype=np.int64)
        for h in range(Y.shape[1]):
            yield h, idx, idx
        return
    code = np.zeros(len(Y), dtype=np.int64)
    for h in range(Y.shape[1]):
        _, first, inv = np.unique(code, return_index=True,
                                  return_inverse=True)
        yield h, first, inv
        code = inv * V + Y[:, h]


class DictTabular(Policy):
    """Conditional tables in a dict keyed by (x, prefix tuple)."""

    def __init__(self, tables, V, H, default=None):
        self.V, self.H = V, H
        self.tables = {k: np.asarray(r, dtype=float)
                       for k, r in tables.items()}
        self.default = (np.full(V, 1.0 / V) if default is None
                        else np.asarray(default, dtype=float))

    def prefix_dists(self, x, prefixes):
        return np.array([self.next_dist(x, p)
                         for p in np.asarray(prefixes).tolist()],
                        dtype=float).reshape(len(prefixes), self.V)

    def next_dist(self, x, prefix):
        # Any query: default if unseen.
        return self.tables.get((x, tuple(prefix)), self.default)

    def step_dist(self, x):
        by_prompt = {}
        for (p, _), r in self.tables.items():
            by_prompt.setdefault(p, []).append(r)
        if x not in by_prompt:
            return self.default
        rows = by_prompt[x]
        n_prefixes = sum(self.V ** h for h in range(self.H))
        if len(rows) == n_prefixes and all(np.array_equal(r, rows[0])
                                           for r in rows):
            return rows[0]
        return None


def tuple_tree_walk(piD, x, policies=(), terms=()):
    """Level-order walk of prompt x with tuple prefixes and one next_dist
    per prefix; a term gets (x, the level's list of prefix tuples, PD,
    policy rows)."""
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
            sums = sums + np.array([t(x, prefixes, PD, Ps) for t in terms])
            peaks = np.maximum(peaks, sums)
        parent, tok = np.nonzero(PD > 0.0)
        lpD = lpD[parent] + np.log(PD[parent, tok])
        rows = np.array([P[parent, tok] for P in Ps])
        with np.errstate(divide="ignore"):
            lps = lps[:, parent] + np.log(rows.reshape(len(Ps), len(tok)))
        sums, peaks = sums[:, parent], peaks[:, parent]
    return lpD, lps, sums, peaks


class CountingTabular(TabularModel):
    """Counts prefix_dists calls, by prefix length in `levels` and by
    (prompt, prefix length) in `calls`; any next_dist call fails."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.levels, self.calls = [], []

    def prefix_dists(self, x, prefixes):
        self.levels.append(prefixes.shape[1])
        self.calls.append((x, prefixes.shape[1]))
        return super().prefix_dists(x, prefixes)

    def next_dist(self, x, prefix):
        raise AssertionError("the walk must not look up single prefixes")
