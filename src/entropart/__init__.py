"""Nonparametric multivariate entropy estimation with equiprobable partitions.

The estimator of interest partitions the sample space with a recursive
binary k-d tree into bins of equal probability mass, reads the entropy off
the bin volumes, and optimises the rotational orientation of the partition
to minimise the variance of those volumes.  Equal-width and
marginal-equiquantised grid estimators and a Gaussian Monte Carlo benchmark
harness are included for comparison.
"""

from .benchmark import (
    CovarianceSpec,
    StudyResult,
    TrialResult,
    bootstrap_ci_lower,
    random_covariance,
    run_study,
    sample_gaussian,
    study_to_csv,
    study_to_json_dict,
    theoretical_entropy,
)
from .errors import DegeneratePartitionError, PreconditionError
from .estimators import (
    EntropyEstimate,
    ensemble_estimate,
    entropy_equiprobable,
    entropy_equiprobable_estimate,
    entropy_histogram,
    entropy_marginal_equiquantised,
    entropy_naive,
    winsorise,
)
from .geometry import (
    Rotation,
    SampleSet,
    mrp_from_angle_2d,
    normalize_angle,
    rotate,
)
from .optimizer import (
    ObjectiveEvaluation,
    OptimizerConfig,
    entropy_rotated,
    optimise_rotation,
    volume_variance,
)
from .partition import (
    Partition,
    bin_volumes,
    build_equiprobable,
    median_split,
    partition_from_dict,
    partition_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "CovarianceSpec",
    "DegeneratePartitionError",
    "EntropyEstimate",
    "ObjectiveEvaluation",
    "OptimizerConfig",
    "Partition",
    "PreconditionError",
    "Rotation",
    "SampleSet",
    "StudyResult",
    "TrialResult",
    "bin_volumes",
    "bootstrap_ci_lower",
    "build_equiprobable",
    "ensemble_estimate",
    "entropy_equiprobable",
    "entropy_equiprobable_estimate",
    "entropy_histogram",
    "entropy_marginal_equiquantised",
    "entropy_naive",
    "entropy_rotated",
    "median_split",
    "mrp_from_angle_2d",
    "normalize_angle",
    "optimise_rotation",
    "partition_from_dict",
    "partition_to_dict",
    "random_covariance",
    "rotate",
    "run_study",
    "sample_gaussian",
    "study_to_csv",
    "study_to_json_dict",
    "theoretical_entropy",
    "volume_variance",
    "winsorise",
]
