"""Finite-class model selection: cross-entropy and coverage tournaments.

Each rule returns its `SelectionReport`: the selected index and what it
was ranked by (log-likelihoods, the K x K `pairwise_cov_matrix`, and for
the offset tournament the on-policy offsets from `onpolicy_cov`)."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import check_number, logprob_matrix
from .metrics import onpolicy_cov, pairwise_cov_matrix


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


def select_ce(candidates: CandidateClass, dataset) -> SelectionReport:
    """Argmax of total log-likelihood; ties break to the lowest index."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    lp = logprob_matrix(candidates.candidates, dataset)
    totals = np.where(np.isneginf(lp).any(axis=1), -math.inf, lp.sum(axis=1))
    return SelectionReport(int(np.argmax(totals)), extra={"loglik": [
        None if t == -math.inf else t for t in totals.tolist()]})


def simple_tournament(candidates: CandidateClass, dataset,
                      N: float) -> SelectionReport:
    """argmin_pi max_pi' empirical coverage of pi' against pi."""
    M = pairwise_cov_matrix(candidates.candidates, dataset, N)
    return SelectionReport(int(np.argmin(M.max(axis=0))), pairwise=M)


def offset_tournament(candidates: CandidateClass, dataset, N: float,
                      gamma: float, mode=None, m: int = 1000,
                      rng=None) -> SelectionReport:
    """Tournament with on-policy offset: max_pi' { Cov - 2 gamma Cov^pi }.

    Column j of the offsets is `onpolicy_cov` of the other K - 1
    candidates against candidate j on its own responses to the dataset's
    prompts, zero at j: a column walks (or samples) candidate j once per
    distinct prompt and asks each candidate once per level.  `mode` is
    "exact", "mc" (m responses per prompt) or None (mc if V^H > 1e4).
    """
    check_number("N", N, 1, math.inf)
    check_number("gamma", gamma, 0)
    cands = candidates.candidates
    if N < 8.0 * gamma ** 2:
        warnings.warn("offset tournament precondition N >= 8 gamma^2 "
                      "violated; proceeding anyway")
    if mode is None:
        mode = "exact" if cands[0].V ** cands[0].H <= 10 ** 4 else "mc"
    M = pairwise_cov_matrix(cands, dataset, N)
    offsets = np.zeros((len(cands), len(cands)))
    for j, c in enumerate(cands):
        offsets[np.arange(len(cands)) != j, j] = onpolicy_cov(
            cands[:j] + cands[j + 1:], c, dataset.xs, N, mode, m, rng)
    worst = (M - 2.0 * gamma * offsets).max(axis=0)
    return SelectionReport(int(np.argmin(worst)), pairwise=M,
                           offsets=offsets)
