"""Layered-DAG graph search tasks.

Graphs have L+2 layers: a source layer {s}, L intermediate layers, and a
target layer {t}.  Passable nodes in a layer are fully connected to every
node of the next layer; non-passable nodes are dead ends.  The data policy
samples valid source-to-target paths selected by class-specific global
rules.  Prompts encode the edge list with a numeral tokenizer: node ids map
to themselves and '|', '/', '=' map to m+1, m+2, m+3.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Policy, check_number

TEASER_CLASSES = ("G1", "G2", "G3")
HORIZON_CLASSES = ("GH1", "GH2", "GH3")

# Mixture weights from the experiment setups.
TEASER_MIX = {"G1": 0.9, "G2": 0.1}
HORIZON_MIX = {"GH1": 0.94, "GH2": 0.05, "GH3": 0.01}


@dataclass(frozen=True)
class GraphConfig:
    m: int = 128                 # node universe [1..m]
    L: int = 8                   # intermediate layer count
    nodes_per_layer: int = 4

    def __post_init__(self):
        check_number("m", self.m, integer=True)
        check_number("L", self.L, 0, integer=True)
        check_number("nodes_per_layer", self.nodes_per_layer, 1,
                     integer=True)
        if self.m < self.L * self.nodes_per_layer + 2:
            raise ValueError("node universe too small for disjoint layers")
        if self.m % 2 != 0:
            raise ValueError("m must be even (parity-balanced universe)")


@dataclass(frozen=True)
class LayeredDag:
    m: int
    layers: tuple      # tuple of tuples of node ids; layers[0]=(s,), [-1]=(t,)
    passable: tuple    # passable[i] subset of layers[i], i = 0..L (not target)

    @property
    def L(self) -> int:
        return len(self.layers) - 2

    @property
    def source(self) -> int:
        return self.layers[0][0]

    @property
    def target(self) -> int:
        return self.layers[-1][0]

    @property
    def horizon(self) -> int:
        return len(self.layers)

    def all_nodes(self):
        return [v for layer in self.layers for v in layer]

    def valid_path_count(self) -> int:
        return math.prod(len(self.passable[i]) for i in range(1, self.L + 1))

    def is_valid_path(self, y) -> bool:
        if len(y) != self.horizon:
            return False
        if y[0] != self.source or y[-1] != self.target:
            return False
        return all(y[i] in self.passable[i] for i in range(1, self.L + 1))


def parity(v: int) -> int:
    return v % 2


def global_parity_half(dag: LayeredDag) -> int:
    """XOR of parities over the smallest half of the sorted node ids."""
    nodes = sorted(dag.all_nodes())
    return sum(map(parity, nodes[: len(nodes) // 2])) % 2


def passable_parity(dag: LayeredDag) -> int:
    """XOR of parities over all intermediate passable nodes."""
    return sum(parity(u) for i in range(1, dag.L + 1)
               for u in dag.passable[i]) % 2


def _double_layer_count(dag: LayeredDag) -> int:
    return sum(1 for i in range(1, dag.L + 1) if len(dag.passable[i]) == 2)


def _has_mixed_parity_pairs(dag: LayeredDag) -> bool:
    return not any(len(pair) == 2 and parity(pair[0]) == parity(pair[1])
                   for pair in dag.passable[1:])


def identify_class(dag: LayeredDag, family: str) -> str:
    """Re-derive the generating class from the graph structure alone.

    Teaser G1/G2 are split by the half-set parity invariant; uniform
    classes (G3, GH3) carry same-parity passable pairs so they never
    collide with the parity-rule classes.
    """
    doubles = _double_layer_count(dag)
    if family == "teaser":
        if doubles == 2 and not _has_mixed_parity_pairs(dag):
            return "G3"
        return "G1" if global_parity_half(dag) == 1 else "G2"
    if family == "horizon":
        if doubles == 0:
            return "GH1"
        if doubles == 4 and not _has_mixed_parity_pairs(dag):
            return "GH3"
        return "GH2"
    raise ValueError(f"unknown family {family!r}")


def _family_of(class_id: str) -> str:
    if class_id in TEASER_CLASSES:
        return "teaser"
    if class_id in HORIZON_CLASSES:
        return "horizon"
    raise ValueError(f"unknown graph class {class_id!r}")


def double_layer_count(class_id: str, L: int) -> int:
    """Layers with two passable nodes in a graph of class `class_id`;
    ValueError if there are more than the L layers, or none for GH2
    (L // 2 = 0 would make its graphs GH1)."""
    k = {"G1": 2, "G2": 2, "G3": 2, "GH1": 0, "GH2": L // 2,
         "GH3": 4}.get(class_id)
    if k is None:
        raise ValueError(f"unknown graph class {class_id!r}")
    if k > L:
        raise ValueError(f"class {class_id} needs {k} double layers, L={L}")
    if class_id == "GH2" and k == 0:
        raise ValueError(f"class GH2 needs L // 2 >= 1 double layers, L={L}")
    return k


def _double_layers(class_id: str, L: int, rng) -> list:
    if class_id == "GH1":
        return []
    k = double_layer_count(class_id, L)
    return sorted(rng.choice(L, size=k, replace=False) + 1)  # layer offsets 1..L


def _gen_once(class_id: str, config: GraphConfig, rng) -> LayeredDag:
    m, L, npl = config.m, config.L, config.nodes_per_layer
    mixed = class_id in ("G1", "G2", "GH2")     # passable pairs one even one odd
    doubles = set(_double_layers(class_id, L, rng))
    evens = list(rng.permutation(np.arange(2, m + 1, 2)))
    odds = list(rng.permutation(np.arange(1, m + 1, 2)))

    def take(pool):
        if not pool:
            raise ValueError(f"class {class_id} ran out of node ids of one "
                             f"parity: m={m}, L={L}, nodes_per_layer={npl}")
        return int(pool.pop())

    def draw_any(k):
        out = []
        for _ in range(k):
            if evens and odds:
                pool = evens if rng.random() < 0.5 else odds
            else:
                pool = evens or odds
            out.append(take(pool))
        return out

    layers = [tuple(draw_any(1))]
    passable = [layers[0]]
    for i in range(1, L + 1):
        if i in doubles:
            if mixed:
                pair = [take(evens), take(odds)]
            else:
                pool = evens if rng.random() < 0.5 else odds
                pair = [take(pool), take(pool)]
            rest = draw_any(npl - 2)
            nodes = pair + rest
            order = rng.permutation(npl)
            layer = tuple(nodes[j] for j in order)
            passable.append(tuple(v for v in layer if v in set(pair)))
        else:
            nodes = draw_any(npl)
            order = rng.permutation(npl)
            layer = tuple(nodes[j] for j in order)
            passable.append((layer[int(rng.integers(npl))],))
        layers.append(layer)
    layers.append(tuple(draw_any(1)))
    return LayeredDag(m=m, layers=tuple(layers), passable=tuple(passable))


def gen_graph_instance(class_id: str, config: GraphConfig, rng):
    """One graph of the given class as (dag, prompt tokens), rejection-
    sampled until `identify_class` names the class, so that a
    `GraphPathPolicy` of the class's family follows the class's rule."""
    family = _family_of(class_id)
    for _ in range(1000):
        dag = _gen_once(class_id, config, rng)
        if identify_class(dag, family) == class_id:
            return dag, serialize_prompt(dag)
    raise RuntimeError(f"could not generate class {class_id} in 1000 tries")


def serialize_prompt(dag: LayeredDag) -> tuple:
    """Token sequence `u1 v1 | u2 v2 | ... / s t =`."""
    m = dag.m
    sep, slash, eq = m + 1, m + 2, m + 3
    tokens = []
    first = True
    for i in range(len(dag.layers) - 1):
        for u in dag.passable[i]:
            for v in dag.layers[i + 1]:
                if not first:
                    tokens.append(sep)
                tokens.extend((u, v))
                first = False
    if first:
        raise ValueError("graph has no edges")
    tokens.extend((slash, dag.source, dag.target, eq))
    return tuple(tokens)


def parse_prompt(tokens, m: int) -> LayeredDag:
    """Inverse of serialize_prompt; raises with the first offending position."""
    sep, slash, eq = m + 1, m + 2, m + 3
    tokens = tuple(int(t) for t in tokens)
    if not tokens:
        raise ValueError("empty prompt at position 0")
    try:
        cut = tokens.index(slash)
    except ValueError:
        raise ValueError(f"missing '/' separator in prompt of length {len(tokens)}")
    if cut == 0:
        raise ValueError("empty edge list at position 0")
    tail = tokens[cut + 1:]
    if len(tail) != 3 or tail[2] != eq:
        raise ValueError(f"malformed source/target section at position {cut + 1}")
    source, target = tail[0], tail[1]
    edges = []
    pos = 0
    while pos < cut:
        if pos + 1 >= cut:
            raise ValueError(f"dangling edge token at position {pos}")
        u, v = tokens[pos], tokens[pos + 1]
        for node, at in ((u, pos), (v, pos + 1)):
            if not (1 <= node <= m):
                raise ValueError(f"invalid node id {node} at position {at}")
        edges.append((u, v))
        pos += 2
        if pos < cut:
            if tokens[pos] != sep:
                raise ValueError(f"expected '|' at position {pos}")
            pos += 1
    # Rebuild layers breadth-first; targets keep first-appearance order.
    succ = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    layers = [(source,)]
    passable = []
    seen = {source}
    frontier = (source,)
    while True:
        layer_passable = tuple(u for u in frontier if u in succ)
        if not layer_passable:
            break
        passable.append(layer_passable)
        nxt = []
        expected = None
        for u in layer_passable:
            if expected is None:
                expected = succ[u]
            elif succ[u] != expected:
                raise ValueError("passable nodes disagree on the next layer")
        for v in expected:
            if v in seen:
                raise ValueError(f"node {v} repeated across layers")
            seen.add(v)
            nxt.append(v)
        frontier = tuple(nxt)
        layers.append(frontier)
    if layers[-1] != (target,):
        raise ValueError("final layer does not equal the target node")
    return LayeredDag(m=m, layers=tuple(layers), passable=tuple(passable))


def _rule_choice(dag: LayeredDag, class_id: str, layer_offset: int):
    """Support of piD at an intermediate layer: list of (node, prob)."""
    options = dag.passable[layer_offset]
    if len(options) == 1:
        return [(options[0], 1.0)]
    if class_id in ("G3", "GH3"):
        p = 1.0 / len(options)
        return [(v, p) for v in options]
    layer_index = layer_offset + 1          # paper numbers layers from 1
    if class_id == "G1":
        want = parity(layer_index)
    elif class_id == "G2":
        want = 1 ^ parity(layer_index)
    elif class_id == "GH2":
        want = parity(layer_index) ^ passable_parity(dag)
    else:
        raise ValueError(f"class {class_id} has no multi-passable rule")
    chosen = [v for v in options if parity(v) == want]
    if len(chosen) != 1:
        raise ValueError("passable pair does not contain exactly one node "
                         "of the required parity")
    return [(chosen[0], 1.0)]


class GraphPathPolicy(Policy):
    """Data policy over paths; density re-derived from the parsed prompt.

    `family` ("teaser" or "horizon") selects the class-identification rule
    that names each prompt's class.
    """

    def __init__(self, m: int, horizon: int, family: str):
        if family not in ("teaser", "horizon"):
            raise ValueError(f"unknown family {family!r}")
        self.m = m
        self.V = m + 4
        self.H = horizon
        self.family = family
        self._parse = lru_cache(maxsize=4096)(self._parse_impl)

    def _parse_impl(self, x):
        dag = parse_prompt(x, self.m)
        if dag.horizon != self.H:
            raise ValueError(f"the prompt's graph has L + 2 = {dag.horizon} "
                             f"layers, but the policy's horizon is {self.H}")
        return dag, identify_class(dag, self.family)

    def prefix_dists(self, x, prefixes) -> np.ndarray:
        """The row of a level depends on its position only: computed once
        per call and repeated to (k, V) as a read-only zero-stride view
        (np.broadcast_to's, built at a third of its cost)."""
        dag, cid = self._parse(x)
        pos = np.shape(prefixes)[1]
        row = np.zeros(self.V)
        if pos == 0:
            row[dag.source] = 1.0
        elif pos == dag.L + 1:
            row[dag.target] = 1.0
        else:
            for v, p in _rule_choice(dag, cid, pos):
                row[v] = p
        row.flags.writeable = False
        return np.ndarray((len(prefixes), self.V), float, row, 0,
                          (0, row.itemsize))

    def selected_paths(self, x):
        """All piD-positive paths with their probabilities."""
        dag, cid = self._parse(x)
        paths = [((dag.source,), 1.0)]
        for i in range(1, dag.L + 1):
            step = _rule_choice(dag, cid, i)
            paths = [(y + (v,), q * p) for y, q in paths for v, p in step]
        return [(y + (dag.target,), q) for y, q in paths]


def mixture_prompt_sampler(mix: dict, config: GraphConfig, family: str):
    """Sampler rng -> prompt tokens for a mixture of `family`'s classes.
    A ValueError refuses first a mix that is not a mapping of classes to
    numbers, then a class of positive weight that is unknown or needs more
    double layers than L, then a class that is unknown or of another
    family, a weight that is not finite and >= 0, and a mix with no
    positive weight."""
    if not isinstance(mix, dict) or not all(
            isinstance(w, numbers.Real) for w in mix.values()):
        raise ValueError(f"mix must be a JSON object of class weights, got "
                         f"{mix!r}")
    classes = sorted(mix)
    for c in classes:
        if mix[c] > 0:
            double_layer_count(c, config.L)
    for c in classes:
        if _family_of(c) != family:
            raise ValueError(f"mix class {c!r} is not a {family} class")
        check_number(f"mix[{c!r}]", mix[c], 0)
    if not any(mix[c] > 0 for c in classes):
        raise ValueError(f"mix must give a class a positive weight: {mix!r}")
    weights = np.array([mix[c] for c in classes])
    weights = weights / weights.sum()

    def sample(rng):
        cid = classes[int(rng.choice(len(classes), p=weights))]
        return gen_graph_instance(cid, config, rng)[1]

    return sample


def log_uniform_paths(k: int) -> float:
    """logprob of each path for a uniform class with k binary choices."""
    return -k * math.log(2.0)
