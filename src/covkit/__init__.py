"""covkit: coverage-profile metrics, learners, and decoding experiments."""

from .core import (Dataset, FinitePromptDist, Policy, Trajectory,
                   enumerate_responses, load_jsonl, sample_dataset,
                   save_jsonl)
from .metrics import (CoverageCurve, MetricReport, coverage_exact,
                      coverage_mc, hellinger_sq, kl_to_cov_bound, seq_ce,
                      seq_kl, sigma_star_sq, stopped_kl)
from .models import (CallableFeatureMap, FeatureMap, LinearARModel,
                     TabularModel, project_unit_ball)
from .seeding import SeedTree
from .training import (MLEResult, RunRecord, TrainConfig, mle_fit,
                       sgd_normalized, sgd_token, sgd_truncated_distill,
                       sgd_vanilla)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "FinitePromptDist", "Policy", "Trajectory",
    "enumerate_responses", "load_jsonl", "sample_dataset", "save_jsonl",
    "CoverageCurve", "MetricReport", "coverage_exact", "coverage_mc",
    "hellinger_sq", "kl_to_cov_bound", "seq_ce", "seq_kl", "stopped_kl",
    "CallableFeatureMap", "FeatureMap", "LinearARModel", "TabularModel",
    "project_unit_ball", "sigma_star_sq", "SeedTree", "MLEResult",
    "RunRecord", "TrainConfig", "mle_fit", "sgd_normalized", "sgd_token",
    "sgd_truncated_distill", "sgd_vanilla", "__version__",
]
