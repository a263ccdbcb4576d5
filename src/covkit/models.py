"""Concrete policies: autoregressive linear softmax models and tabular models."""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import types

import numpy as np

from .core import Policy, check_number, prefix_levels

_STEP_CACHE_LIMIT = 4096


class FeatureMap:
    """Deterministic feature map phi(x, y_{1:h}) -> R^d with ||phi|| <= B.

    The prefix argument includes the candidate token in the last position.
    Subclasses with per-step structure (phi depending only on the prompt and
    the last token) should implement `step_table` so models and trainers can
    use O(V d) vectorized paths.
    """

    d: int
    B: float

    def phi(self, x, prefix: tuple) -> np.ndarray:
        raise NotImplementedError

    def step_table(self, x):
        """(V, d) array with row v = phi(x, prefix + (v,)), if prefix-free."""
        return None

    def candidates(self, x, prefixes, V: int) -> np.ndarray:
        """(k, V, d) phi(x, prefixes[i] + (v,)) for k rows of h ints: the
        step table as a zero-stride view (np.broadcast_to's, built at a
        fifth of its cost), else k * V phi calls."""
        table = self.step_table(x)
        if table is not None:
            t = np.ascontiguousarray(table, dtype=float)
            return np.ndarray((len(prefixes),) + t.shape, float, t, 0,
                              (0,) + t.strides)
        rows = np.asarray(prefixes).tolist()
        out = np.empty((len(rows), V, self.d))
        for i, p in enumerate(rows):
            out[i] = [self.phi(x, (*p, v)) for v in range(V)]
        return out


class CallableFeatureMap(FeatureMap):
    def __init__(self, fn, d: int, B: float, step_tables=None):
        self.fn = fn
        self.d = d
        self.B = float(B)
        self._step_tables = step_tables

    def phi(self, x, prefix):
        return np.asarray(self.fn(x, prefix), dtype=float)

    def step_table(self, x):
        if self._step_tables is None:
            return None
        return self._step_tables(x)


def project_unit_ball(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    nrm = math.sqrt(v.dot(v))       # np.linalg.norm's arithmetic, bit for bit
    if nrm <= 1.0:
        return v
    return v / nrm


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def candidate_dists(feats, theta) -> np.ndarray:
    """Row-wise softmax of (k, V, d) features times theta (d,) or (k, d)."""
    logits = (feats @ theta[..., None])[..., 0]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class LinearARModel(Policy):
    """Softmax policy with logits <theta, phi(x, y_{1:h-1} o v)>, ||theta|| <= 1."""

    def __init__(self, theta, featmap: FeatureMap, V: int, H: int):
        self.theta = np.asarray(theta, dtype=float)
        if self.theta.shape != (featmap.d,):
            raise ValueError(
                f"theta has dim {self.theta.shape}, feature map has d={featmap.d}")
        if not np.linalg.norm(self.theta) <= 1.0 + 1e-9:     # NaN too
            raise ValueError("||theta|| must be <= 1")
        self.featmap = featmap
        self.V = int(V)
        self.H = int(H)
        self._steps = {}

    # Kept in the class dict: perfbench/spans.py wraps it by this name.
    next_dist = Policy.next_dist

    def step_dist(self, x):
        # Cached per prompt: theta is never changed in place (a new theta
        # is a new model).
        if x not in self._steps:
            if len(self._steps) >= _STEP_CACHE_LIMIT:
                self._steps.clear()
            table = self.featmap.step_table(x)
            self._steps[x] = None if table is None else _softmax(
                table @ self.theta)
        return self._steps[x]

    def prefix_dists(self, x, prefixes) -> np.ndarray:
        """A product prompt's level is its cached step row, broadcast to
        (k, V) as a read-only view; another's is its candidates' softmax."""
        step = self.step_dist(x)
        if step is None:
            feats = self.featmap.candidates(x, prefixes, self.V)
            return candidate_dists(feats, self.theta)
        return np.broadcast_to(step, (len(prefixes), self.V))


def count_rows(table, V: int, Y) -> np.ndarray:
    """(n, d) sum over h of table[Y[i, h]] for the rows of an (n, H) int
    array Y: the token counts C of all rows from one bincount, times the
    (V, d) step table in one stacked matmul (a vector-matrix product per
    row; a plain C @ table is a gemm, whose blocking changes the bits)."""
    n = len(Y)
    # Row i counts in bins i*V..i*V+V-1; one row (a streaming learner's
    # call) needs no offsets.  A token outside [0, V) is refused by
    # ravel_multi_index, or for one row by bincount (negative) and the
    # reshape (too large).
    codes = Y[0] if n == 1 else np.ravel_multi_index(
        (np.arange(n)[:, None], Y), (n, V)).ravel()
    C = np.bincount(codes, minlength=n * V).astype(float)
    return (C.reshape(n, 1, V) @ table)[:, 0]


def grad_logprob(theta, featmap: FeatureMap, V: int, x, Y,
                 counts=None) -> np.ndarray:
    """(n, d) gradients of log pi_theta(y|x) at the rows y of an (n, H)
    int array Y of prompt x's responses.

    Row i is the sum over h of grad_logprob_token at Y[i]'s prefixes, left
    to right, bit for bit.  With a step table the rows are `count_rows`
    minus H (p @ table); a caller that asks at many theta may pass the
    block's `count_rows` as `counts`, since no theta enters it.
    Otherwise level h is one softmax over the candidates of the distinct
    prefixes Y[:, :h]."""
    Y = np.asarray(Y, dtype=np.int64)
    n, H = Y.shape
    table = featmap.step_table(x)
    if table is not None:
        p = _softmax(table @ theta)
        if counts is None:
            counts = count_rows(table, V, Y)
        return counts - H * (p @ table)
    if Y.size and not 0 <= Y.min() <= Y.max() < V:
        raise ValueError(f"tokens must lie in [0, {V})")
    G = np.zeros((n, featmap.d))
    for h, first, inv in prefix_levels(Y, V):
        feats = featmap.candidates(x, Y[first, :h], V)
        mean = candidate_dists(feats, theta)[:, None, :] @ feats
        G += (feats - mean)[inv, Y[:, h]]
    return G


def grad_logprob_token(theta, featmap: FeatureMap, V: int, x, prefix: tuple,
                       v: int) -> np.ndarray:
    """Gradient of a single token conditional log pi_theta(v | x, prefix)."""
    feats = featmap.candidates(x, [prefix], V)[0]
    p = _softmax(feats @ theta)
    return feats[v] - p @ feats


def token_step(theta, featmap: FeatureMap, V: int, x, prefix: tuple, v: int,
               eta: float) -> np.ndarray:
    """theta after one projected token step:
    Pi(theta + eta * grad log pi_theta(v | x, prefix))."""
    return project_unit_ball(
        theta + eta * grad_logprob_token(theta, featmap, V, x, prefix, v))


def token_steps(theta, feats, tokens, eta: float) -> np.ndarray:
    """token_step of k theta rows (or one shared) toward tokens at feats,
    bit for bit: a matmul per row, the norm as sqrt(theta . theta)."""
    grad = feats[np.arange(len(feats)), tokens] - \
        (candidate_dists(feats, theta)[:, None, :] @ feats)[:, 0]
    theta = theta + eta * grad
    return theta / np.maximum(
        np.sqrt((theta[:, None, :] @ theta[:, :, None])[:, 0]), 1.0)


class TabularModel(Policy):
    """Explicit conditional tables keyed by (x, prefix).

    Unseen prompts, levels and prefixes fall back to `default` (uniform
    unless configured), keeping densities defined for arbitrary (x, y) as
    pairwise coverage requires.  A key is a pair (prompt, prefix tuple) of
    integer tokens in [0, V) with length < H; a row and `default` are
    length-V distributions; anything else raises a ValueError naming it.

    The rows are stored once, in one read-only (n + 1, V) array sorted by
    (prompt, prefix length, base-V code of the prefix) with `default`
    last, so each (prompt, level) is a contiguous block beside a sorted
    code array.  `prefix_dists` answers a level with one gather: by code
    when the level is complete, by searchsorted otherwise.  `tables` is a
    read-only mapping rebuilt from those arrays on request.
    """

    def __init__(self, tables: dict, V: int, H: int, default=None):
        check_number("V", V, 1, integer=True)
        check_number("H", H, 1, integer=True)
        V, H = int(V), int(H)
        self.V, self.H = V, H
        if V ** max(H - 1, 0) > _INT64_MAX:
            raise ValueError(f"V^(H-1) = {V}^{H - 1} exceeds the int64 "
                             f"prefix code limit {_INT64_MAX}")
        if default is None:
            default = np.full(V, 1.0 / V)
        keys, n = list(tables), len(tables)
        rows = _stacked_rows([*tables.values(), default], V)
        parsed = None if rows is None or _bad_rows(rows).any() else \
            _parsed_keys(keys, V, H)
        if parsed is None:
            _raise_bad_entry(tables, default, V, H)
        self._prompts, ids, lens, tok = parsed
        self._pow = V ** np.arange(H - 1, -1, -1, dtype=np.int64)
        # Base-V code of each prefix: token i of an h-token prefix weighs
        # V^(h-1-i), so the codes of one level are its lexicographic ranks.
        owner = np.repeat(np.arange(n), lens)
        pos = np.arange(len(tok)) - np.repeat(np.cumsum(lens) - lens, lens)
        code = np.zeros(n, dtype=np.int64)
        np.add.at(code, owner, tok * self._pow[H - lens[owner] + pos])
        order = np.lexsort((code, lens, ids))
        self._rows = rows[np.append(order, n)]
        self._rows.flags.writeable = False
        self._codes = code[order]
        # Block (p, h) is rows _bounds[p*H + h] to _bounds[p*H + h + 1].
        counts = np.bincount(ids * H + lens, minlength=len(self._prompts) * H)
        self._bounds = [0] + np.cumsum(counts).tolist()
        self.default = self._rows[n]

    @property
    def tables(self):
        """Read-only {(x, prefix): row} view of the stored rows."""
        keys = []
        for x, p in self._prompts.items():
            for h in range(self.H):
                lo, hi = self._block(p, h)
                digits = self._codes[lo:hi, None] // self._pow[self.H - h:]
                keys += [(x, tuple(d)) for d in (digits % self.V).tolist()]
        return types.MappingProxyType(dict(zip(keys, self._rows)))

    def _block(self, p, h):
        i = p * self.H + h
        return self._bounds[i], self._bounds[i + 1]

    # Kept in the class dict: perfbench/spans.py wraps it by this name.
    next_dist = Policy.next_dist

    def prefix_dists(self, x, prefixes) -> np.ndarray:
        pre = np.asarray(prefixes, dtype=np.int64)
        k, h = pre.shape
        p = self._prompts.get(x)
        lo, hi = (0, 0) if p is None or h >= self.H else self._block(p, h)
        miss = len(self._rows) - 1
        if hi == lo:
            return self._rows.take(np.full(k, miss), axis=0)
        code = pre @ self._pow[self.H - h:]
        if hi - lo == self.V ** h:
            return self._rows.take(lo + code, axis=0)
        j = np.minimum(np.searchsorted(self._codes[lo:hi], code), hi - lo - 1)
        hit = self._codes[lo + j] == code
        return self._rows.take(np.where(hit, lo + j, miss), axis=0)

    @functools.cached_property
    def _steps(self):
        # A prompt is prefix-independent only when every prefix has a
        # stored row and all of them are equal.
        n_prefixes = sum(self.V ** h for h in range(self.H))
        out = {}
        for x, p in self._prompts.items():
            lo, hi = self._bounds[p * self.H], self._bounds[(p + 1) * self.H]
            block = self._rows[lo:hi]
            out[x] = block[0] if hi - lo == n_prefixes and \
                (block == block[0]).all() else None
        return out

    def step_dist(self, x):
        return self._steps.get(x, self.default)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _stacked_rows(rows, V):
    """The rows as one (len(rows), V) float array, or None."""
    try:
        out = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        return None
    return out if out.shape == (len(rows), V) else None


def _bad_rows(rows):
    """Which rows of a 2-D array are not distributions."""
    with np.errstate(invalid="ignore"):
        return ~np.isfinite(rows).all(axis=1) | (rows.min(axis=1) < 0) | \
            (np.abs(rows.sum(axis=1) - 1.0) > 1e-9)


def _parsed_keys(keys, V, H):
    """({prompt: id}, the keys' prompt ids, prefix lengths and concatenated
    tokens), prompts numbered in order of first appearance; None if any
    key is bad."""
    if not set(map(type, keys)) <= {tuple} or not set(map(len, keys)) <= {2}:
        return None
    xs = list(map(operator.itemgetter(0), keys))
    prefixes = list(map(operator.itemgetter(1), keys))
    if not set(map(type, prefixes)) <= {tuple}:
        return None
    flat = list(itertools.chain.from_iterable(prefixes))
    if not all(issubclass(t, numbers.Integral) for t in set(map(type, flat))):
        return None
    try:
        tok = np.fromiter(flat, np.int64, len(flat))
    except OverflowError:
        return None
    lens = np.fromiter(map(len, prefixes), np.int64, len(keys))
    if tok.size and (tok.min() < 0 or tok.max() >= V) or \
            lens.size and lens.max() >= H:
        return None
    ids = {x: i for i, x in enumerate(dict.fromkeys(xs))}
    pid = np.fromiter(map(ids.__getitem__, xs), np.int64, len(xs))
    return ids, pid, lens, tok


def _entry_problem(key, row, V, H):
    """Why one (key, row) entry of a TabularModel table is invalid, or None."""
    if type(key) is not tuple or len(key) != 2 or type(key[1]) is not tuple:
        return "is not a pair (prompt, prefix tuple)"
    prefix = key[1]
    if len(prefix) >= H:
        return f"prefix length {len(prefix)} is not < H = {H}"
    for v in prefix:
        if not isinstance(v, numbers.Integral) or not 0 <= v < V:
            return f"token {v!r} is not in [0, {V})"
    problem = _row_problem(row, V)
    return problem and "row " + problem


def _row_problem(row, V):
    row = _stacked_rows([row], V)
    if row is None:
        return f"is not a length-{V} vector"
    if _bad_rows(row)[0]:
        return "is not a distribution"
    return None


def _raise_bad_entry(tables, default, V, H):
    for key, row in tables.items():
        problem = _entry_problem(key, row, V, H)
        if problem:
            raise ValueError(f"table key {key!r}: {problem}")
    problem = _row_problem(default, V)
    if problem:
        raise ValueError(f"default {problem}")
    raise AssertionError("no bad entry in a rejected table")


def linear_to_tabular(model: LinearARModel, prompts) -> TabularModel:
    """Explicit conditional tables of a linear model on enumerable prompts."""
    tables = {}
    for x in prompts:
        for h in range(model.H):
            pre = np.indices((model.V,) * h).reshape(h, model.V ** h).T
            tables.update(zip([(x, tuple(p)) for p in pre.tolist()],
                              model.prefix_dists(x, pre)))
    return TabularModel(tables, V=model.V, H=model.H)

