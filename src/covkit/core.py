"""Sequence primitives and the policy abstraction.

Conventions used throughout the package:

* token ids are 0..V-1; responses have fixed length H,
* probabilities are carried in natural-log domain; -inf means zero mass,
* prompts are opaque JSON-serializable values (ints, strings, tuples).

Batched paths: a policy is its token conditionals, and it implements them
once, as `prefix_dists`: the next-token rows of a whole level of
prefixes.  `Policy.next_dist` is its one-row case.  `Policy.logprob_many`
scores an (n, H) array of responses to one prompt, each distinct row once
(`distinct_rows`, which ranks the rows' base-V codes), and takes the
totals back to the rows.  Both it and the one sampler,
`sample_from_uniforms`, take the product path when `step_dist` is not
None, and otherwise make one `prefix_dists` call per level over its
distinct prefixes (`prefix_levels`, which numbers them in sorted code
order by a table of flags and a cumsum, sorting only levels whose table
would outgrow 16 slots per row).  The sampler maps an (n, H) array
of uniform doubles to responses by Generator.choice's inverse-CDF rule,
and `Policy.sample` (one row) and `Policy.sample_many` feed it exactly the
doubles that their per-token rng.choice draws would take.  A prompt
distribution with `from_uniforms` (`FinitePromptDist`) applies the same
rule to prompts, and `sample_dataset` draws n examples from one
(n, 1 + H) block: each row is a prompt double and then H token doubles,
the per-example order.  `sample_prompts` draws n prompts at once and
`group_prompts` groups them, so Monte Carlo callers make one batched
call per distinct prompt.  `distinct_logprobs` scores the distinct
(prompt, response) pairs of a `Dataset` under K policies, and
`logprob_matrix` takes them back to its examples.

Examples: inside covkit an example is a pair (x, y) of a prompt and a
response row of H token ints, and a `Dataset` is built only from its
arrays, `Dataset(xs, Y, H, V)`: a list of prompts `xs` and an (n, H) int
array `Y`.  `Trajectory` is only an input form that `Policy.logprob`
scores.  `load_jsonl` and `sample_dataset` build a `Dataset` from the
arrays they fill, `save_jsonl` writes from them, and every learner trains
on one (a harness job draws T * K examples with `sample_dataset`).  A
JSONL data line is one object {"x": prompt, "y": [tokens]} with H integer
tokens in [0, V); anything else raises a ValueError that names the line.
Files are read as UTF-8, JSON's encoding, in the lines of a text-mode
read; `load_jsonl` reads them as bytes, and decodes only from the first
block that is not ASCII or holds a "\r".  It reads a chunk of lines in
the layout `save_jsonl` writes for integer prompts, {"x": 3, "y": [0, 1]},
without the JSON decoder: a chunk of equal-length lines with one-digit
tokens as one (k, L) byte view, compared in one pass with the canonical
line of that length, and any other by numpy passes over its runs of
digits.  Every other valid file goes through `json`, with the same
results and errors.
"""

from __future__ import annotations

import codecs
import functools
import io
import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Trajectory:
    """A (prompt, response) pair with a fixed-length token response."""

    x: object
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(int(v) for v in self.y))


class Dataset:
    """n examples of one horizon H over tokens 0..V-1, held as arrays.

    `xs` is the list of the n prompts and `Y` the (n, H) int64 array of
    responses; example i is (xs[i], Y[i]).  `groups` lists each distinct
    prompt with its positions and rows of Y, in order of first
    appearance, computed once.
    """

    def __init__(self, xs, Y, H: int, V: int):
        """Dataset of prompts `xs` and the (n, H) int array `Y` (or a list
        of n rows of H ints)."""
        try:
            Y = np.asarray(Y)
        except ValueError:                  # a ragged list of rows
            raise ValueError("inhomogeneous horizon in dataset") from None
        if Y.size and Y.dtype.kind not in "iu":
            raise ValueError("token ids must be integers")
        Y = Y.astype(np.int64, copy=False)
        if Y.shape == (0,):                 # an empty list of rows
            Y = Y.reshape(0, H)
        xs = list(xs)
        if Y.shape != (len(xs), H):
            raise ValueError("inhomogeneous horizon in dataset")
        if Y.size and (Y.min() < 0 or Y.max() >= V):
            raise ValueError("token id out of range")
        self.xs, self.Y, self.H, self.V = xs, Y, H, V

    @functools.cached_property
    def groups(self) -> list:
        """[(x, positions, rows of Y)] per distinct prompt."""
        return [(x, idx, self.Y[idx])
                for x, idx in group_prompts(self.xs).items()]

    def __len__(self):
        return len(self.xs)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return ((self.H, self.V, self.xs) == (other.H, other.V, other.xs)
                and np.array_equal(self.Y, other.Y))


class Policy:
    """Abstract conditional sequence distribution.

    A policy is its token conditionals: subclasses set `V` and `H` and
    implement `prefix_dists`, which answers a whole level of prefixes in
    one call, and may implement `step_dist`, which must agree with it.
    `next_dist`, scoring and sampling are derived from these and never
    overridden (`sample_dataset` calls `sample_from_uniforms` directly, so
    an overriding `sample` would be bypassed); the sampler law and logprob
    consistency hold by construction.

    A policy's conditionals are fixed for the object's lifetime: a changed
    model is a new object (a new theta, a new `LinearARModel`), and the
    learners and TTT replays step on theta arrays without building any.
    Per-object caches rely on this: `LinearARModel._steps` (the
    step row of each product prompt), `TabularModel._steps` (which
    prompts are prefix-independent), `GraphPathPolicy._parse` (each
    prompt's parsed graph), every `metrics.PairLaw` (which keeps the
    pair's step rows or walked leaves, not the policies) and the exact
    metrics' one-entry cache of the last such law.
    """

    V: int
    H: int

    def prefix_dists(self, x, prefixes) -> np.ndarray:
        """The (k, V) next-token distributions of the k rows of the (k, h)
        int array `prefixes`.  Callers pass tokens in [0, V) and h < H."""
        raise NotImplementedError

    def next_dist(self, x, prefix: tuple) -> np.ndarray:
        """The V next-token probabilities: the one-row case of `prefix_dists`,
        for fewer than H tokens that a `Dataset` takes (ints in [0, V))."""
        if len(prefix) >= self.H:
            raise ValueError("prefix length must be < H")
        row = np.array([prefix])
        if row.size and (row.dtype.kind not in "iu" or min(prefix) < 0
                         or max(prefix) >= self.V):
            raise ValueError(f"tokens must be integers in [0, {self.V})")
        return self.prefix_dists(x, row)[0]

    def step_dist(self, x):
        """Per-step distribution if conditionals are prefix-independent.

        Returns a length-V probability vector valid at every step, or None
        when the policy has genuine prefix dependence.  Fast paths (product
        enumeration, vectorized sampling) key off this.
        """
        return None

    def logprob(self, traj: Trajectory) -> float:
        return float(self.logprob_many(traj.x, [traj.y])[0])

    def logprob_many(self, x, Y) -> np.ndarray:
        """log pi(y|x) of each row y of the (n, H) int array Y, -inf where
        pi has no mass; a ValueError for any other shape.

        Each distinct row is scored once (`distinct_rows`): product
        policies gather log step[U] of the distinct rows U; others make
        one prefix_dists call per level, over the level's distinct
        prefixes.  Either way each row sums its H token log-probs left to
        right, as a per-token loop would.
        """
        return self._logprob_rows(x, np.asarray(Y, dtype=np.int64), {})

    def _logprob_rows(self, x, Y, levels: dict) -> np.ndarray:
        """logprob_many of the int64 array Y: `_logprob_distinct`, taken
        back to Y's rows."""
        total, inv = self._logprob_distinct(x, Y, levels)
        return total.take(inv)

    def _logprob_distinct(self, x, Y, levels: dict):
        """(log pi of each distinct row of Y in lexicographic order, inv):
        row i of Y is distinct row inv[i].  Y must be (n, H) with tokens
        in [0, V).  The distinct rows U and inv come from `_shared_rows`,
        and the prefix levels of U are read from, or added to, levels[V],
        so callers scoring the same Y under several policies compute them
        once.  Every level of U holds exactly Y's distinct prefixes, in
        the same order, so `prefix_dists` sees the arrays it would see
        on Y."""
        if Y.ndim != 2 or Y.shape[1] != self.H:
            raise ValueError(f"responses must be an (n, {self.H}) array, "
                             f"got shape {Y.shape}")
        if Y.size and not 0 <= Y.min() <= Y.max() < self.V:
            raise ValueError(f"tokens must lie in [0, {self.V})")
        U, inv = _shared_rows(Y, self.V, levels)
        total = np.zeros(len(U))
        step = self.step_dist(x)
        with np.errstate(divide="ignore"):
            if step is not None:
                logs = np.log(np.asarray(step, dtype=float))[U]
                for h in range(U.shape[1]):
                    total += logs[:, h]
                return total, inv
            if self.V not in levels:
                levels[self.V] = list(prefix_levels(U, self.V))
            for h, first, at in levels[self.V]:
                P = self.prefix_dists(x, U[first, :h])
                total += np.log(P.ravel().take(at * self.V + U[:, h]))
        return total, inv

    def sample(self, x, rng: np.random.Generator) -> tuple:
        """One response: the one-row case of `sample_from_uniforms`, fed
        rng.random((1, H)), the H doubles of H Generator.choice draws."""
        U = rng.random((1, self.H))
        return tuple(sample_from_uniforms(self, x, U)[0].tolist())

    def sample_many(self, x, n: int, rng: np.random.Generator) -> np.ndarray:
        """n responses as an (n, H) int array from `sample_from_uniforms`.

        Product policies feed it rng.random((n, H)), the doubles of one
        rng.choice(V, size=(n, H)) call; others rng.random((H, n)).T, one
        rng.random(n) per level.
        """
        if self.step_dist(x) is not None:
            return sample_from_uniforms(self, x, rng.random((n, self.H)))
        return sample_from_uniforms(self, x, rng.random((self.H, n)).T)


# Generator.choice's tolerance on the sum of its p: sqrt(float64 eps).
_SUM_ATOL = float(np.sqrt(np.finfo(float).eps))
_EPS = float(np.finfo(float).eps)


def choice_cdf(P) -> np.ndarray:
    """The normalized cumulative rows of the (k, V) array P, as
    Generator.choice builds them from its p: cdf = cumsum(p), cdf /= cdf[-1].

    Raises ValueError for a row that Generator.choice would refuse: a NaN
    or negative entry, or a sum more than sqrt(eps) from 1.  choice adds p
    in Kahan's compensated order.  Any order of adding V non-negative
    terms is within (V + 1) eps * sum of that, so only rows whose sum
    lies that near the tolerance are added again in choice's order.
    """
    P = np.asarray(P, dtype=float)
    cdf = np.add.accumulate(P, axis=1)
    total = cdf[:, -1].copy()
    off = np.abs(total - 1.0)
    # The common case, in two reductions: no NaN or negative entry, and
    # sums (so at most 2) clear of the tolerance by more than that bound.
    if not (np.maximum.reduce(off, initial=0.0) <=
            _SUM_ATOL - 2 * (P.shape[1] + 1) * _EPS
            and np.minimum.reduce(P, axis=None, initial=0.0) >= 0.0):
        _check_rows(P, total, off)
    cdf /= total[:, None]
    return cdf


def _check_rows(P, total, off):
    """choice_cdf's refusals, for rows whose fast check failed."""
    if np.isnan(total).any():
        raise ValueError("probabilities contain NaN")
    if (P < 0).any():
        raise ValueError("probabilities are not non-negative")
    margin = (P.shape[1] + 1) * _EPS * total
    # A row with an inf entry has off = inf and is refused below as is.
    near = (np.abs(off - _SUM_ATOL) <= margin) & (off < 1.0)
    for i in near.nonzero()[0].tolist():
        off[i] = abs(_kahan_sum(P[i].tolist()) - 1.0)
    if (off > _SUM_ATOL).any():
        raise ValueError("probabilities do not sum to 1")


def _kahan_sum(row) -> float:
    """Generator.choice's sum of its p."""
    total, c = row[0], 0.0
    for v in row[1:]:
        y = v - c
        t = total + y
        c = (t - total) - y
        total = t
    return total


def sample_from_uniforms(policy: Policy, x, U) -> np.ndarray:
    """Responses of `policy` at prompt x from the (n, H) uniforms U.

    Token h of row i is the number of entries <= U[i, h] in the
    `choice_cdf` row of its conditional: Generator.choice's rule, so a
    zero-mass token is never drawn, and the draw is choice's on the same
    double.  Product policies map all of U with one searchsorted on the
    step CDF; others visit each distinct prefix once per level
    (`prefix_levels`, one `prefix_dists` call).
    """
    step = policy.step_dist(x)
    if step is not None:
        cdf = choice_cdf(np.asarray(step)[None])[0]
        return np.searchsorted(cdf, U, side="right")
    Y = np.zeros(U.shape, dtype=np.int64)
    for h, first, inv in prefix_levels(Y, policy.V):
        cdf = choice_cdf(policy.prefix_dists(x, Y[first, :h]))
        # Filled before prefix_levels resumes and reads column h.
        Y[:, h] = np.add.reduce(cdf.T.take(inv, axis=1) <= U[:, h], axis=0)
    return Y


def prefix_levels(Y: np.ndarray, V: int):
    """For h = 0..H-1 yield (h, first, inv) over the prefixes Y[:, :h].

    The distinct prefixes of a level are numbered in sorted order of their
    integer codes (parent index * V + token): row i's prefix is the
    inv[i]-th, and row first[j] is some row whose prefix is the j-th.
    Tokens must lie in [0, V); the codes of a level then lie below k * V,
    k the previous level's count of distinct prefixes.  A level is ranked
    by marking its codes in a table of k * V flags and one cumsum, unless
    k * V > 16 * n (n = len(Y)): there the table costs more than a sort,
    and np.unique ranks it.  Either way inv is np.unique's inverse.
    Column h is read only after the yield, so a sampler may fill it in
    place.
    """
    n = len(Y)
    if n <= 1:              # at most one prefix per level: nothing to rank
        idx = np.zeros(n, dtype=np.int64)
        for h in range(Y.shape[1]):
            yield h, idx, idx
        return
    rows = np.arange(n)
    first, inv = np.zeros(1, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for h in range(Y.shape[1]):
        if h:
            first, inv = _rank_codes(inv * V + Y[:, h - 1], len(first) * V,
                                     rows)
        yield h, first, inv


def distinct_rows(Y: np.ndarray, V: int):
    """(first, inv) of the distinct rows of the (n, H) int array Y, whose
    tokens lie in [0, V), in lexicographic order: row i is the inv[i]-th
    distinct row, and Y[first[j]] is the j-th.

    The rows' base-V codes are ranked by `_rank_codes` (inv is
    np.unique's inverse of the rows).  Columns are coded in blocks: each
    block's code, the rank of the rows on the columns before it times
    V^b plus the b columns' own base-V code, stays below 2^63, so the
    loop runs once (one Y @ V^pow) whenever V^H fits in int64.
    """
    n, H = Y.shape
    if n <= 1:              # at most one row: nothing to rank
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    first, inv = np.zeros(1, dtype=np.int64), np.zeros(n, dtype=np.int64)
    lo = 0
    while lo < H:
        # The widest block whose codes, below k * V^b, fit in int64.
        k, b = len(first), 1
        while lo + b < H and k * V ** (b + 1) <= _INT64_MAX:
            b += 1
        code = Y[:, lo:lo + b] @ V ** np.arange(b - 1, -1, -1,
                                                dtype=np.int64)
        if lo:
            code += inv * V ** b
        first, inv = _rank_codes(code, k * V ** b, rows)
        lo += b
    return first, inv


def _shared_rows(Y: np.ndarray, V: int, levels: dict):
    """(U, inv) of `distinct_rows`: Y's distinct rows and the index of
    each row among them, read from levels["rows"] or found and stored
    there, so several scorers of the same Y rank it once."""
    if "rows" not in levels:
        first, inv = distinct_rows(Y, V)
        levels["rows"] = Y[first], inv
    return levels["rows"]


_INT64_MAX = int(np.iinfo(np.int64).max)

# Past this many table slots per row, a level's codes are ranked by sort.
_SLOTS_PER_ROW = 16


def _rank_codes(code, size: int, rows):
    """(first, inv) of the codes in [0, size): inv[i] is the rank of
    code[i] among the distinct codes and first[j] a row holding the j-th."""
    if size > _SLOTS_PER_ROW * len(code):
        _, first, inv = np.unique(code, return_index=True,
                                  return_inverse=True)
        return first, inv
    seen = np.zeros(size, dtype=bool)
    seen[code] = True
    # int32 halves the table that the gather below reads at random.
    rank = np.cumsum(seen, dtype=np.int32)
    rank -= 1
    inv = rank[code].astype(np.int64)
    first = np.empty(rank[-1] + 1, dtype=np.int64)
    first[inv] = rows
    return first, inv


def sample_dataset(policy: Policy, mu, n: int,
                   rng: np.random.Generator) -> Dataset:
    """Draw n i.i.d. examples with x ~ mu and y ~ policy(.|x).

    The examples, and the doubles taken from rng, are those of n
    per-example draws (x = mu(rng), then policy.sample(x, rng)): one
    double per prompt and per token.  When mu has `from_uniforms` (a
    `FinitePromptDist`), row i of U = rng.random((n, 1 + H)) holds example
    i's prompt double and then its token doubles; the prompts are
    mu.from_uniforms(U[:, 0]) and each distinct prompt's rows of U[:, 1:]
    go to one `sample_from_uniforms` call.  A plain callable mu
    (rng -> prompt) is drawn in a per-example loop.
    """
    check_number("n", n, 1, integer=True)
    Y = np.empty((n, policy.H), dtype=np.int64)
    if not hasattr(mu, "from_uniforms"):
        xs = []
        for i in range(n):
            xs.append(mu(rng))
            Y[i] = policy.sample(xs[i], rng)
    else:
        U = rng.random((n, 1 + policy.H))
        xs = mu.from_uniforms(U[:, 0])
        for x, idx in group_prompts(xs).items():
            Y[idx] = sample_from_uniforms(policy, x, U[idx, 1:])
    return Dataset(xs, Y, H=policy.H, V=policy.V)


class FinitePromptDist:
    """Finite prompt distribution usable both as weights and as a sampler.

    A draw maps one uniform double u to the prompt at the number of
    entries <= u of the normalized cumulative weights, the rule of
    Generator.choice, so zero-weight prompts are never drawn.
    """

    def __init__(self, prompts, weights):
        self.prompts = list(prompts)
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(self.prompts),):
            raise ValueError(f"need one weight per prompt: weights of "
                             f"shape {w.shape}, {len(self.prompts)} prompts")
        if not self.prompts:
            raise ValueError("a prompt distribution needs at least one "
                             "prompt")
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        self.weights = w
        self._cdf = choice_cdf(w[None])[0]      # also refuses NaN weights

    def items(self):
        return list(zip(self.prompts, self.weights))

    def from_uniforms(self, u) -> list:
        """The prompts drawn by the uniform doubles u, one each."""
        idx = np.searchsorted(self._cdf, u, side="right")
        return [self.prompts[i] for i in idx.tolist()]

    def __call__(self, rng: np.random.Generator):
        return self.from_uniforms(rng.random(1))[0]


def sample_prompts(mu, n: int, rng: np.random.Generator) -> list:
    """n prompts from mu: mu.from_uniforms(rng.random(n)) if it has
    `from_uniforms`, the same draws as n calls; else n calls."""
    if hasattr(mu, "from_uniforms"):
        return mu.from_uniforms(rng.random(n))
    return [mu(rng) for _ in range(n)]


def group_prompts(prompts) -> dict:
    """prompt -> int array of its positions, in order of first appearance.

    One dict pass numbers the distinct prompts; a stable argsort of those
    numbers lists each prompt's positions in increasing order.
    """
    ids = {x: i for i, x in enumerate(dict.fromkeys(prompts))}
    codes = np.fromiter(map(ids.__getitem__, prompts), np.int64, len(prompts))
    order = np.argsort(codes, kind="stable")
    ends = np.cumsum(np.bincount(codes, minlength=len(ids)))
    return dict(zip(ids, np.split(order, ends[:-1])))


def logprob_matrix(policies, dataset: Dataset) -> np.ndarray:
    """(K, n) log-probs of the n examples of `dataset` under K policies:
    `distinct_logprobs`, taken back to the examples."""
    lp, inv = distinct_logprobs(policies, dataset)
    return lp.take(inv, axis=1)


def distinct_logprobs(policies, dataset: Dataset):
    """(lp, inv): lp (K, m) holds the log-probs under K policies of the m
    distinct (prompt, response) pairs of `dataset`, and example i is pair
    inv[i].  The pairs are listed by prompt group (`Dataset.groups`),
    each group's responses in lexicographic order.  Each policy scores
    each group once, with one `_logprob_distinct` call; the group's
    distinct rows and prefix levels are computed once and shared by the K
    policies."""
    inv, blocks, m = np.empty(len(dataset), dtype=np.int64), [], 0
    for x, idx, Y in dataset.groups:
        levels = {}
        U, at = _shared_rows(Y, dataset.V, levels)
        block = np.empty((len(policies), len(U)))
        for k, pi in enumerate(policies):
            block[k] = pi._logprob_distinct(x, Y, levels)[0]
        blocks.append(block)
        inv[idx] = at + m
        m += len(U)
    if not blocks:
        return np.empty((len(policies), 0)), inv
    return np.concatenate(blocks, axis=1), inv


def check_number(name: str, v, lo=None, hi=None, *, lo_open=False,
                 hi_open=False, integer=False):
    """Raise a ValueError naming `name` and its range unless v is a real
    number (numpy scalars included, bools not: a JSON true would pass as
    1) with lo <= v <= hi, each bound strict if its `*_open` is set and
    absent if None, and an integer if `integer`.  NaN is refused, and so
    is +-inf unless a closed bound of +-inf admits it."""
    if isinstance(v, numbers.Integral):
        ok = not isinstance(v, bool)
    else:
        ok = isinstance(v, numbers.Real) and not integer and (
            math.isfinite(v) or v in (lo, hi))
    if ok and (lo is None or (v > lo if lo_open else v >= lo)) and \
            (hi is None or (v < hi if hi_open else v <= hi)):
        return
    # The message reads a closed bound of +-inf as no bound, inf admitted.
    finite = not integer
    if hi == math.inf and not hi_open:
        hi, finite = None, False
    if lo == -math.inf and not lo_open:
        lo, finite = None, False
    tail = " and an integer" if integer else " and finite" if finite else ""
    if lo is not None and hi is not None:
        where = f"lie in {'(['[not lo_open]}{float(lo):g}, " \
                f"{float(hi):g}{')]'[not hi_open]}" + tail * integer
    elif lo is not None:
        where = f"be {'>' if lo_open else '>='} {float(lo):g}{tail}"
    elif hi is not None:
        where = f"be {'<' if hi_open else '<='} {float(hi):g}{tail}"
    else:
        where = "be an integer" if integer else "be a finite number"
    raise ValueError(f"{name} must {where}, got {v!r}")


ENUM_BUDGET = 10 ** 6


class EnumBudgetError(ValueError):
    """An exact computation refused for enumerating more than 1e6 items."""


def check_enum_budget(what: str, n: int):
    """Raise EnumBudgetError before an exact computation would enumerate
    n > 1e6 items."""
    if n > ENUM_BUDGET:
        raise EnumBudgetError(f"enumeration budget exceeded: {what} = {n} "
                              "> 1e6; use a Monte Carlo mode instead")


def enumerate_responses(V: int, H: int):
    """All V**H responses in lexicographic order."""
    check_enum_budget("V^H", V ** H)
    idx = np.indices((V,) * H).reshape(H, -1).T if H > 0 else np.zeros((1, 0), int)
    return [tuple(int(v) for v in row) for row in idx]


def save_jsonl(dataset: Dataset, path):
    """One example per line: {"x": ..., "y": [...]}."""
    with open(path, "w") as f:
        for x, y in zip(dataset.xs, dataset.Y.tolist()):
            x = list(x) if isinstance(x, tuple) else x
            f.write(json.dumps({"x": x, "y": y}) + "\n")


# Lines read per chunk: one byte check or json.loads call per chunk, not
# per line, but never the whole file's records at once.
LOAD_CHUNK = 4096

# A text-mode read (TextIOWrapper) decodes a file _WINDOW bytes at a time,
# counted from its start.  `_line_chunks` reads whole windows, so that
# where it hands a file over to decoding, the windows are the same, and so
# is any UnicodeDecodeError.
_WINDOW = 8192
_BLOCK = 32 * _WINDOW


def load_jsonl(path, H: int, V: int) -> Dataset:
    """Dataset from a UTF-8 JSONL file of one {"x": ..., "y": [...]} per line.

    Each y must be a list of H integer tokens in [0, V); a list x becomes
    a tuple.  The lines are those of a text-mode read (universal
    newlines), taken LOAD_CHUNK at a time (`_line_chunks`): an ASCII
    file with no "\r" is never decoded, and invalid UTF-8 raises the
    UnicodeDecodeError of a text-mode read, before the same line.  A
    chunk with a non-ASCII character comes as its decoded lines, which
    go to `json` as they are.  An ASCII chunk whose every line is exactly
    the layout `save_jsonl` writes for an integer prompt, {"x": <int>,
    "y": [<int>, ...]} with ", " and ": " separators and integers of at
    most 18 digits, is read by `_parse_canonical` in numpy passes over
    its bytes.  Any other chunk is parsed as one JSON array, and accepted
    only if it holds one record per line.  Otherwise, or if any record
    breaks a rule, the chunk is parsed line by line to raise a ValueError
    naming the first bad line.
    A string cannot span lines (JSON forbids a raw newline in one) but an
    array or object can, so a file that continues one record over two
    lines and also puts two values on one line is read as its records,
    not refused.
    """
    xs, blocks = [], []
    with open(path, "rb") as f:
        for start, run in zip(itertools.count(1, LOAD_CHUNK),
                              _line_chunks(f)):
            chunk = _parse_canonical(run, H, V) if type(run) is bytes \
                else None
            if chunk is None:
                # A bytes run has no "\r", so its splitlines are its "\n"
                # lines.
                lines = run if type(run) is list else \
                    list(map(bytes.decode, run.splitlines(True)))
                chunk = _parse_chunk(lines, H, V)
            if chunk is None:
                _raise_bad_line(path, start, lines, H, V)
            xs += chunk[0]
            blocks.append(chunk[1])
    Y = np.concatenate(blocks, dtype=np.int64) if blocks else \
        np.zeros((0, H), np.int64)
    return Dataset(xs, Y, H=H, V=V)


def _line_chunks(f):
    """The lines of the binary file f as a text-mode read gives them, in
    runs of LOAD_CHUNK lines (the last run shorter), every line ending in
    "\n" but perhaps the last: an ASCII run as its bytes, a run with a
    non-ASCII character as the list of its decoded lines.

    f is read _BLOCK bytes at a time.  A block that is ASCII with no "\r"
    is its own text: it is cut after every LOAD_CHUNK-th "\n", with no
    decode, and the pieces of a run that spans blocks are joined once.
    From the first other block on, the rest of the file is decoded as a
    text-mode read decodes it (`_text_lines`)."""
    k, parts, m = LOAD_CHUNK, [], 0     # m: the lines that parts end
    while block := f.read(_BLOCK):
        if not block.isascii() or b"\r" in block:
            lines = _text_lines(b"".join(parts).decode(), block, f)
            while run := list(itertools.islice(lines, k)):
                # A run with a non-ASCII character is never canonical.
                text = "".join(run)
                yield text.encode() if text.isascii() else run
            return
        nl = np.flatnonzero(np.frombuffer(block, np.uint8) == 10)
        cut = 0
        for end in (nl[k - m - 1::k] + 1).tolist():
            yield b"".join([*parts, block[cut:end]])
            parts, cut = [], end
        if cut < len(block):
            parts.append(block[cut:])
        m = (m + len(nl)) % k
    if parts:
        yield b"".join(parts)


def _text_lines(text, block, f):
    """The lines of the text `text`, then of the bytes `block` (which
    start a window) and the rest of f, decoded as a text-mode read decodes
    them: UTF-8 in windows of _WINDOW bytes, "\r\n" and "\r" read as
    "\n", and a window decoded only when the next line needs it, so that
    a UnicodeDecodeError is raised with the same message, before the same
    line.  A line that spans windows is joined once."""
    dec = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder("utf-8")(), translate=True)
    windows = itertools.chain(
        (block[i:i + _WINDOW] for i in range(0, len(block), _WINDOW)),
        iter(functools.partial(f.read, _WINDOW), b""), [b""])
    pending = []                        # the pieces of an unfinished line
    for piece in itertools.chain([text], (dec.decode(w, final=not w)
                                          for w in windows)):
        *lines, rest = piece.split("\n")
        if lines:
            lines[0] = "".join(pending) + lines[0]
            pending = []
            for line in lines:
                yield line + "\n"
        pending.append(rest)
    if rest := "".join(pending):
        yield rest


@functools.cache
def _canonical_layout(H):
    """(one canonical line's bytes with its H + 1 integers taken out, the
    number of those bytes before each integer since the one before it,
    the offset where the last integer of a line before the first ends)."""
    head, mid = b'{"x": ', b', "y": ['
    line = head + mid + b", " * max(H - 1, 0) + b"]}\n"
    slots = np.array([len(head)] + [len(head + mid) + 2 * i
                                    for i in range(H)])
    before = slots[-1] - len(line)
    return line, np.diff(slots, prepend=before), before


def _parse_canonical(raw, H, V):
    """(int prompts, (k, H) int responses) of the bytes of k lines in
    `save_jsonl`'s layout for integer prompts, {"x": <int>, "y": [<int>,
    ...]} with integers of 1 to 18 digits, or None to leave them to
    `_parse_chunk`: `_parse_view` when every line has one length and one
    digit per token, else `_parse_runs`.  Both check the chunk in whole-
    chunk passes, with no loop per line, and what they accept `json`
    reads the same (-0 is the int 0)."""
    return _parse_view(raw, H, V) or _parse_runs(raw, H, V)


def _parse_view(raw, H, V):
    """`_parse_canonical` of a chunk whose lines all have the length L of
    the first, read as one (k, L) uint8 view, or None.

    The line length fixes the prompt's width w, if every token has one
    digit.  Each row must then be the canonical line of that width
    (`_line_view`): one comparison of the whole view checks every byte,
    its punctuation, a digit at each digit column, no leading zero and
    each token below V.  The values are read off the digit columns; the
    responses stay uint8 until `load_jsonl` joins the chunks, so that no
    int64 copy of a chunk is made on the way."""
    L = raw.find(b"\n") + 1
    w = L - len(_canonical_layout(H)[0]) - H
    if not (1 <= w <= 18 and V >= 1 and len(raw) % L == 0):
        return None
    base, span, cols = _line_view(H, V, w)
    rows = np.frombuffer(raw, np.uint8).reshape(-1, L)
    if not ((rows - base) <= span).all():
        return None
    xs = (rows[:, 6:6 + w] - 48) @ 10 ** np.arange(w - 1, -1, -1,
                                                   dtype=np.int64)
    return xs.tolist(), rows[:, cols] - 48


@functools.cache
def _line_view(H, V, w):
    """(base, span, token columns) of the canonical line with a w-digit
    prompt and H one-digit tokens: a line's bytes b are one such line iff
    b - base <= span everywhere in uint8 arithmetic.  base is the line
    with every digit "0" (the prompt's first "1" when w > 1, as JSON has
    no leading zero), and span is 0 at each other byte and the number of
    further digits allowed at a digit: 9 for the prompt, 8 for its first
    digit when w > 1, and min(V, 10) - 1 for a token."""
    tokens = b", ".join([b"0"] * H)
    base = bytearray(b'{"x": ' + b"0" * w + b', "y": [' + tokens + b"]}\n")
    span = np.zeros(len(base), np.uint8)
    span[6:6 + w] = 9
    if w > 1:
        base[6], span[6] = ord("1"), 8
    cols = slice(14 + w, 14 + w + 3 * H, 3)
    span[cols] = min(V, 10) - 1
    return np.frombuffer(bytes(base), np.uint8), span, cols


def _parse_runs(raw, H, V):
    """`_parse_canonical` of any chunk, by its maximal runs of digits and
    "-", or None.

    Without those runs, the chunk's bytes must be the canonical line with
    its integers taken out, k times over; the runs must be k(H + 1), each
    in its integer slot (after as many other bytes since the run before
    it as the layout puts there); a "-" may only open a prompt; and each
    integer must have 1 to 18 digits (int64 holds them all) and no
    leading zero.  The values are then read one digit position at a time,
    one pass when every integer is one digit."""
    line, gaps, before = _canonical_layout(H)
    stripped = raw.translate(None, b"-0123456789")
    k, w = len(stripped) // len(line), H + 1
    if stripped != line * k:
        return None
    buf = np.frombuffer(raw, np.uint8)
    minus = buf == 45
    num = ((buf - 48) < 10) | minus
    if num[0] or num[-1]:
        return None
    # Every run starts after the first byte and ends before the last, so
    # the edges alternate start, end.
    edges = np.flatnonzero(num[1:] != num[:-1]) + 1
    if edges.size != 2 * k * w:
        return None
    # Punctuation before each run (the first as if a line came before it),
    # then each run's length.
    d = np.diff(edges, prepend=before)
    if (d[0::2].reshape(k, w) != gaps).any():
        return None
    neg = minus[edges[::2 * w]]
    if np.count_nonzero(minus) != np.count_nonzero(neg):
        return None
    ndig = d[1::2].copy()
    ndig[::w] -= neg
    top = int(ndig.max())
    first = edges[1::2] - ndig
    lead = buf[first]
    if ndig.min() < 1 or top > 18 or \
            (top > 1 and ((lead == 48) & (ndig > 1)).any()):
        return None
    vals = lead.astype(np.int64) - 48
    for j in range(1, top):
        more = ndig > j
        digit = buf[np.where(more, first + j, first)].astype(np.int64) - 48
        vals = np.where(more, vals * 10 + digit, vals)
    rows = vals.reshape(k, w)
    Y = rows[:, 1:]
    if Y.size and Y.max() >= V:
        return None
    return np.where(neg, -rows[:, 0], rows[:, 0]).tolist(), Y


def _parse_chunk(lines, H, V):
    """(prompts, (k, H) responses) of k lines, or None if any is bad."""
    try:
        recs = json.loads("[" + ",".join(lines) + "]")
    except json.JSONDecodeError:
        return None
    if len(recs) != len(lines) or set(map(type, recs)) != {dict}:
        return None
    try:
        xs = list(map(operator.itemgetter("x"), recs))
        ys = list(map(operator.itemgetter("y"), recs))
    except KeyError:
        return None
    if set(map(type, ys)) != {list} or set(map(len, ys)) != {H}:
        return None
    flat = list(itertools.chain.from_iterable(ys))
    if not set(map(type, flat)) <= {int}:
        return None
    try:
        Y = np.fromiter(flat, np.int64, len(flat)).reshape(len(ys), H)
    except OverflowError:
        return None
    if Y.size and (Y.min() < 0 or Y.max() >= V):
        return None
    if list in set(map(type, xs)):
        xs = [tuple(x) if type(x) is list else x for x in xs]
    return xs, Y


def _raise_bad_line(path, start, lines, H, V):
    for lineno, line in enumerate(lines, start):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            problem = f"not one JSON value ({e})"
        else:
            problem = _record_problem(rec, H, V)
        if problem:
            raise ValueError(f"{path}, line {lineno}: {problem}")
    raise AssertionError("no bad line in a rejected chunk")


def _record_problem(rec, H, V):
    """Why one parsed record breaks the file format, or None."""
    if type(rec) is not dict or "x" not in rec or "y" not in rec:
        return "expected an object with keys 'x' and 'y'"
    y = rec["y"]
    if type(y) is not list:
        return "y must be a list of integer tokens"
    bad = [v for v in y if type(v) is not int]
    if bad:
        return f"token {bad[0]!r} is not an integer"
    if len(y) != H:
        return f"inhomogeneous horizon: {len(y)} tokens, expected H = {H}"
    if any(v < 0 or v >= V for v in y):
        return f"token id out of range [0, {V})"
    return None
