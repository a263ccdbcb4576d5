"""Finite-class model selection: cross-entropy and coverage tournaments."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import logprob_matrix
from .metrics import onpolicy_cov_estimate, pairwise_cov_matrix


@dataclass
class CandidateClass:
    candidates: list

    def __post_init__(self):
        if len(self.candidates) < 1:
            raise ValueError("need at least one candidate")
        V = self.candidates[0].V
        H = self.candidates[0].H
        for c in self.candidates:
            if c.V != V or c.H != H:
                raise ValueError("candidates must share (V, H)")

    def __len__(self):
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


@dataclass
class SelectionReport:
    selected: int
    pairwise: np.ndarray | None = None
    offsets: np.ndarray | None = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        d = {"selected": self.selected}
        if self.pairwise is not None:
            d["pairwise"] = self.pairwise.tolist()
        if self.offsets is not None:
            d["offsets"] = self.offsets.tolist()
        d.update(self.extra)
        return json.dumps(d)


def select_ce(candidates: CandidateClass, dataset, return_report=False):
    """Argmax of total log-likelihood; ties break to the lowest index."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    lp = logprob_matrix(candidates.candidates, dataset)
    totals = np.where(np.isneginf(lp).any(axis=1), -math.inf, lp.sum(axis=1))
    idx = int(np.argmax(totals))
    if return_report:
        return SelectionReport(idx, extra={"loglik": [
            None if t == -math.inf else t for t in totals.tolist()]})
    return idx


def simple_tournament(candidates: CandidateClass, dataset, N: float,
                      return_report=False):
    """argmin_pi max_pi' empirical coverage of pi' against pi."""
    M = pairwise_cov_matrix(candidates.candidates, dataset, N)
    worst = M.max(axis=0)
    idx = int(np.argmin(worst))
    if return_report:
        return SelectionReport(idx, pairwise=M)
    return idx


def offset_tournament(candidates: CandidateClass, dataset, N: float,
                      gamma: float, mode=None, m: int = 1000, rng=None,
                      return_report=False):
    """Tournament with on-policy offset: max_pi' { Cov - 2 gamma Cov^pi }.

    `mode` is "exact", "mc", or None (exact when V^H <= 1e4, else mc with m
    generations per prompt).
    """
    if not (N >= 1 and gamma >= 0):
        raise ValueError(f"need N >= 1 and gamma >= 0, got {N}, {gamma}")
    K = len(candidates)
    cands = candidates.candidates
    if N < 8.0 * gamma ** 2:
        warnings.warn("offset tournament precondition N >= 8 gamma^2 "
                      "violated; proceeding anyway")
    if mode is None:
        mode = "exact" if cands[0].V ** cands[0].H <= 10 ** 4 else "mc"
    M = pairwise_cov_matrix(cands, dataset, N)
    offsets = np.zeros((K, K))
    for j in range(K):
        for i in range(K):
            if i == j:
                continue
            offsets[i, j] = onpolicy_cov_estimate(
                cands[j], cands[i], cands[j], dataset.xs, N, mode=mode,
                m=m, rng=rng)
    objective = M - 2.0 * gamma * offsets
    worst = objective.max(axis=0)
    idx = int(np.argmin(worst))
    if return_report:
        return SelectionReport(idx, pairwise=M, offsets=offsets)
    return idx


def offset_tournament_power(candidates, dataset, N, a, **kwargs):
    """Convenience wrapper with gamma parameterized as N**a."""
    return offset_tournament(candidates, dataset, N, gamma=N ** a, **kwargs)
