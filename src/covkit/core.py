"""Sequence primitives and the policy abstraction.

Conventions used throughout the package:

* token ids are 0..V-1; responses have fixed length H,
* probabilities are carried in natural-log domain; -inf means zero mass,
* prompts are opaque JSON-serializable values (ints, strings, tuples).

Batched paths: a policy is its token conditionals, and it implements them
once, as `prefix_dists`: the next-token rows of a whole level of
prefixes.  `Policy.next_dist` is its one-row case.  `Policy.logprob_many`
scores an (n, H) array of responses to one prompt; both it and the one
sampler, `sample_from_uniforms`, take the product path when `step_dist`
is not None, and otherwise make one `prefix_dists` call per level over
its distinct prefixes (`prefix_levels`, which numbers them in sorted code
order by a table of flags and a cumsum, sorting only levels whose table
would outgrow 16 slots per row).  The sampler maps an (n, H) array
of uniform doubles to responses by Generator.choice's inverse-CDF rule,
and `Policy.sample` (one row) and `Policy.sample_many` feed it exactly the
doubles that their per-token rng.choice draws would take.  A prompt
distribution with `from_uniforms` (`FinitePromptDist`) applies the same
rule to prompts, and `sample_dataset` draws n examples from one
(n, 1 + H) block: each row is a prompt double and then H token doubles,
the per-example order.  `sample_prompts` draws n prompts at once and
`group_prompts` groups them, so Monte Carlo callers make one batched call
per distinct prompt; `logprob_matrix` does the same for a `Dataset`.

Examples: inside covkit an example is a pair (x, y) of a prompt and a
response row of H token ints, and a `Dataset` is built only from its
arrays, `Dataset(xs, Y, H, V)`: a list of prompts `xs` and an (n, H) int
array `Y`.  `Trajectory` is only an input form that `Policy.logprob`
scores.  `load_jsonl` and `sample_dataset` build a `Dataset` from the
arrays they fill, `save_jsonl` writes from them, and every learner trains
on one (a harness job draws T * K examples with `sample_dataset`).  A
JSONL data line is one object {"x": prompt, "y": [tokens]} with H integer
tokens in [0, V); anything else raises a ValueError that names the line.
Files are read as UTF-8, JSON's encoding.  `load_jsonl` reads a chunk of
lines in the layout `save_jsonl` writes for integer prompts,
{"x": 3, "y": [0, 1]}, without the JSON decoder (one regex check and one
numpy integer parse); every other valid file goes through `json`, with the
same results and errors.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import operator
import re
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

        Product policies gather log step[Y]; others make one prefix_dists
        call per level, over the level's distinct prefixes.  Either way
        each row sums its H token log-probs left to right, as a per-token
        loop would.
        """
        return self._logprob_rows(x, np.asarray(Y, dtype=np.int64), {})

    def _logprob_rows(self, x, Y, levels: dict) -> np.ndarray:
        """logprob_many of the int64 array Y; the prefix levels of Y are
        read from, or added to, `levels` (keyed by V), so callers scoring
        the same Y under several policies compute them once.  Y must be
        (n, H) with tokens in [0, V)."""
        if Y.ndim != 2 or Y.shape[1] != self.H:
            raise ValueError(f"responses must be an (n, {self.H}) array, "
                             f"got shape {Y.shape}")
        if Y.size and not 0 <= Y.min() <= Y.max() < self.V:
            raise ValueError(f"tokens must lie in [0, {self.V})")
        total = np.zeros(len(Y))
        step = self.step_dist(x)
        with np.errstate(divide="ignore"):
            if step is not None:
                logs = np.log(np.asarray(step, dtype=float))[Y]
                for h in range(Y.shape[1]):
                    total += logs[:, h]
                return total
            if self.V not in levels:
                levels[self.V] = list(prefix_levels(Y, self.V))
            for h, first, inv in levels[self.V]:
                P = self.prefix_dists(x, Y[first, :h])
                total += np.log(P[inv, Y[:, h]])
        return total

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
        Y[:, h] = np.add.reduce(cdf[inv] <= U[:, h, None], axis=1)
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
    one logprob_many per policy and distinct prompt (`Dataset.groups`),
    the prompt's prefix levels computed once and shared by the K
    policies."""
    lp = np.empty((len(policies), len(dataset)))
    for x, idx, Y in dataset.groups:
        levels = {}
        for k, pi in enumerate(policies):
            lp[k, idx] = pi._logprob_rows(x, Y, levels)
    return lp


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


def check_enum_budget(what: str, n: int):
    """Raise before an exact computation would enumerate n > 1e6 items."""
    if n > ENUM_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {what} = {n} > 1e6; "
                         "use a Monte Carlo mode instead")


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


# Lines read per chunk: one regex check or json.loads call per chunk, not
# per line, but never the whole file's records at once.
LOAD_CHUNK = 4096


def load_jsonl(path, H: int, V: int) -> Dataset:
    """Dataset from a UTF-8 JSONL file of one {"x": ..., "y": [...]} per line.

    Each y must be a list of H integer tokens in [0, V); a list x becomes
    a tuple.  Lines are read LOAD_CHUNK at a time.  A chunk whose every
    line is exactly the layout `save_jsonl` writes for an integer prompt,
    {"x": <int>, "y": [<int>, ...]} with ", " and ": " separators and
    integers of at most 18 digits, is parsed by `_parse_canonical`.  Any
    other chunk is parsed as one JSON array, and accepted only if it holds
    one record per line.  Otherwise, or if any record breaks a rule, the
    chunk is parsed line by line to raise a ValueError naming the first bad
    line.  A string cannot span lines (JSON forbids a raw newline in one)
    but an array or object can, so a file that continues one record over
    two lines and also puts two values on one line is read as its records,
    not refused.
    """
    xs, blocks = [], []
    with open(path, encoding="utf-8") as f:
        for start in itertools.count(1, LOAD_CHUNK):
            lines = list(itertools.islice(f, LOAD_CHUNK))
            if not lines:
                break
            chunk = (_parse_canonical(lines, H, V)
                     or _parse_chunk(lines, H, V))
            if chunk is None:
                _raise_bad_line(path, start, lines, H, V)
            xs += chunk[0]
            blocks.append(chunk[1])
    Y = np.concatenate(blocks) if blocks else np.zeros((0, H), np.int64)
    return Dataset(xs, Y, H=H, V=V)


# A JSON integer of at most 18 digits, which int64 holds.
_INT = "(?:0|[1-9][0-9]{0,17})"
# The punctuation and key letters of a canonical line, each made a space.
_CANONICAL_PUNCT = str.maketrans('{}[],:"xy', " " * 9)


@functools.cache
def _canonical_lines(H):
    """Regex of lines {"x": <int>, "y": [<H ints>]}, each ending in a
    newline.  Compiled on first use for each H, not at import."""
    tokens = ", ".join([_INT] * H)
    return re.compile(rf'(?:\{{"x": -?{_INT}, "y": \[{tokens}\]\}}\n)*')


def _parse_canonical(lines, H, V):
    """(int prompts, (k, H) responses) of k lines in `save_jsonl`'s layout
    for integer prompts, or None to leave the lines to `_parse_chunk`.
    What it accepts, `json` reads the same: -0 is the int 0."""
    text = "".join(lines)
    if not _canonical_lines(H).fullmatch(text):
        return None
    ints = np.fromstring(text.translate(_CANONICAL_PUNCT), dtype=np.int64,
                         sep=" ")
    if ints.size != len(lines) * (H + 1):
        return None
    rows = ints.reshape(len(lines), H + 1)
    Y = rows[:, 1:]
    if Y.size and Y.max() >= V:
        return None
    return rows[:, 0].tolist(), Y


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
