"""Analytic task constructions with known coverage/KL behavior.

Each constructor returns a TaskInstance bundling the prompt distribution,
data policy, feature map (when the instance lives in the linear class), the
generating parameter, and metadata with the analytically known quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FinitePromptDist, Policy, check_number
from .models import CallableFeatureMap, FeatureMap, LinearARModel, TabularModel


@dataclass
class TaskInstance:
    mu: FinitePromptDist
    piD: Policy
    featmap: FeatureMap | None = None
    theta_star: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def V(self):
        return self.piD.V

    @property
    def H(self):
        return self.piD.H


def bernoulli_model(p: float, prompt=0) -> TabularModel:
    """Single-step coin: token 1 with probability p."""
    check_number("p", p, 0, 1)
    return TabularModel({(prompt, ()): np.array([1.0 - p, p])}, V=2, H=1)


def bernoulli_task(p_star: float) -> TaskInstance:
    """Coin-flip data distribution with bias p_star in (0, 1/2)."""
    check_number("p_star", p_star, 0, 0.5, lo_open=True, hi_open=True)
    mu = FinitePromptDist([0], [1.0])
    return TaskInstance(mu=mu, piD=bernoulli_model(p_star),
                        metadata={"p_star": p_star})


def bernoulli_featmap(B: float = 1.0) -> CallableFeatureMap:
    """Scalar feature for the coin as a 1-d linear model: phi = B*(2y-1)."""
    table = np.array([[-B], [B]])
    return CallableFeatureMap(lambda x, pre: table[pre[-1]], d=1, B=B,
                              step_tables=lambda x: table)


def bernoulli_mle(dataset) -> float:
    """Empirical frequency of token 1 (the exact MLE for the coin class)."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    return float(np.mean(dataset.Y[:, 0]))


def heterogeneous_kl_instance(n: int, H: int) -> TaskInstance:
    """Two-prompt instance where one prompt is seen with probability 1/(2n).

    Scalar features: phi(0, .) = 0 and phi(1, y_{1:h}) = 2 y_h - 1, with
    theta* = 1, so the rare prompt emits +1 tokens with probability
    e / (e + 1/e) per step.
    """
    check_number("n", n, 1, integer=True)
    check_number("H", H, 1, integer=True)

    def tables(x):
        if x == 0:
            return np.zeros((2, 1))
        return np.array([[-1.0], [1.0]])

    featmap = CallableFeatureMap(lambda x, pre: tables(x)[pre[-1]],
                                 d=1, B=1.0, step_tables=tables)
    theta_star = np.array([1.0])
    piD = LinearARModel(theta_star, featmap, V=2, H=H)
    mu = FinitePromptDist([0, 1], [1.0 - 1.0 / (2 * n), 1.0 / (2 * n)])
    p_plus = math.e / (math.e + math.exp(-1.0))
    return TaskInstance(mu=mu, piD=piD, featmap=featmap,
                        theta_star=theta_star,
                        metadata={"n": n, "p_plus_given_rare": p_plus})


# Token order for the three-letter alphabet used by the SGD lower bounds.
SGD_TOKEN_VALUES = (-1, 0, 1)


def sgd_lower_instance(variant: str, H: int, B: float, Bbar: float | None = None,
                       N: float | None = None, eta: float | None = None,
                       n: int | None = None) -> TaskInstance:
    """Hard instances for fixed-step-size sequence SGD (d = 2, V = 3).

    variant "large_eta" needs `eta`; the construction places the three
    candidate features on the sphere of radius B so that an eta-step from
    theta* overshoots.  variant "small_eta" needs (Bbar, N, n); it embeds
    two orthogonal scalar problems so that small steps cannot cover the
    rare prompt.
    """
    check_number("H", H, 1, integer=True)
    check_number("B", B, 0, lo_open=True)
    if n is not None:
        check_number("n", n, 1, integer=True)
    if variant == "large_eta":
        if eta is None:
            raise ValueError("variant 'large_eta' requires eta")
        check_number("eta", eta, 0, lo_open=True)
        if not eta * H * B >= 8.0:
            raise ValueError(
                f"constraint violated: eta*H*B >= 8 required, "
                f"got {eta * H * B:.6g}")
        alpha = eta * H * B / (2.0 * (eta * H * B - 1.0))
        root = math.sqrt(1.0 - alpha ** 2)
        # rows in token order (-1, 0, +1)
        table = B * np.array([[alpha, -root],
                              [1.0, 0.0],
                              [alpha, root]])

        def tables(x):
            return table

        featmap = CallableFeatureMap(lambda x, pre: table[pre[-1]],
                                     d=2, B=B, step_tables=tables)
        theta_star = np.array([1.0, 0.0])
        piD = LinearARModel(theta_star, featmap, V=3, H=H)
        mu = FinitePromptDist([0], [1.0])
        meta = {"variant": variant, "eta": eta, "alpha": alpha}
    elif variant == "small_eta":
        if Bbar is None or N is None or n is None:
            raise ValueError("variant 'small_eta' requires (Bbar, N, n)")
        check_number("Bbar", Bbar, 1, B)
        check_number("N", N, 1, lo_open=True)
        vals = np.array(SGD_TOKEN_VALUES, dtype=float)
        plus_table = np.stack([Bbar * vals, np.zeros(3)], axis=1)
        minus_table = np.stack([np.zeros(3), Bbar * vals], axis=1)

        def tables(x):
            return plus_table if x == "+" else minus_table

        # Feature norms are Bbar <= B; keep the class bound B for schedules.
        featmap = CallableFeatureMap(lambda x, pre: tables(x)[pre[-1]],
                                     d=2, B=B, step_tables=tables)
        theta_star = np.array([0.5, 0.5])
        piD = LinearARModel(theta_star, featmap, V=3, H=H)
        p_plus = min(1.0, B * H / (512.0 * math.e * n * Bbar ** 2 * math.log(N)))
        mu = FinitePromptDist(["+", "-"], [p_plus, 1.0 - p_plus])
        meta = {"variant": variant, "mu_plus": p_plus, "Bbar": Bbar, "n": n}
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return TaskInstance(mu=mu, piD=piD, featmap=featmap,
                        theta_star=theta_star, metadata=meta)


def sigma_star_instance(H: int, B: float, N: float, n: int,
                        theta_star=None, c: float = 0.01) -> TaskInstance:
    """Instance with per-coordinate Bernoulli structure and large sigma*^2.

    Features live in R^H: phi("-", .) = 0 and phi("+", y_{1:h}) = B y_h e_h,
    so each step of the "+" prompt is an independent logistic coin.  The
    rare-prompt probability scales like H / (n log N).
    """
    check_number("H", H, 1, integer=True)
    check_number("B", B, 0, lo_open=True)
    check_number("N", N, 1, lo_open=True)
    check_number("n", n, 1, integer=True)
    check_number("c", c, 0, lo_open=True)
    if not math.log(N) <= c * min(H, B * B):
        raise ValueError(
            f"precondition violated: log N <= {c} * min(H, B^2) required, "
            f"got log N = {math.log(N):.6g}")

    def phi(x, prefix):
        out = np.zeros(H)
        if x == "+":
            out[len(prefix) - 1] = B * prefix[-1]
        return out

    featmap = CallableFeatureMap(phi, d=H, B=B)
    if theta_star is None:
        theta_star = np.zeros(H)
    theta_star = np.asarray(theta_star, dtype=float)
    piD = LinearARModel(theta_star, featmap, V=2, H=H)
    p_plus = min(1.0, H / (4.0 * n * math.log(N)))
    mu = FinitePromptDist(["+", "-"], [p_plus, 1.0 - p_plus])
    return TaskInstance(mu=mu, piD=piD, featmap=featmap,
                        theta_star=theta_star,
                        metadata={"mu_plus": p_plus, "n": n, "N": N})


def misspec_instance(alpha: float, M: float):
    """Two-candidate misspecified selection problem.

    Returns (task, candidates).  Candidate 0 stays within sup-log-ratio
    alpha of the data policy (so its coverage at scale M > e^alpha is zero)
    at the price of likelihood on the common prompt; candidate 1 matches
    the data policy on the common prompt but starves the rare prompt, with
    exact Pcov_M(piD || candidate 1) = p/2 where p = alpha / (32 log M).
    Likelihood-based selection therefore favors candidate 1 while
    coverage tournaments favor candidate 0.
    """
    check_number("alpha", alpha, 0, 1, lo_open=True)
    check_number("M", M, math.exp(alpha), lo_open=True)
    p = alpha / (32.0 * math.log(M))
    mu = FinitePromptDist(["+", "-"], [1.0 - p, p])

    def two_prompt(p_plus, p_minus):
        return TabularModel({("+", ()): [1.0 - p_plus, p_plus],
                             ("-", ()): [1.0 - p_minus, p_minus]}, V=2, H=1)

    piD = two_prompt(0.5, 0.5)
    cand1 = two_prompt(1.0 / (2.0 * math.exp(alpha)), 0.5)
    cand2 = two_prompt(0.5, 1.0 / (2.0 * M))

    # Candidate 1 is alpha-close in sup log ratio; verify numerically.
    sup = 0.0
    for x in ("+", "-"):
        for y in (0, 1):
            r = math.log(piD.next_dist(x, ())[y]) - math.log(cand1.next_dist(x, ())[y])
            sup = max(sup, abs(r))
    if sup > alpha + 1e-12:
        raise AssertionError(f"sup log ratio {sup:.6g} exceeds alpha {alpha:.6g}")

    from .selection import CandidateClass
    task = TaskInstance(mu=mu, piD=piD,
                        metadata={"p": p, "M": M, "alpha": alpha,
                                  "sup_log_ratio_cand1": sup,
                                  "pcov_M_cand2": p / 2.0})
    return task, CandidateClass([cand1, cand2])
