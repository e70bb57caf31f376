"""Monte Carlo validation harness against bivariate Gaussians.

Each trial draws a randomised covariance (a random 2x2 factor A with mixed
uniform/normal entries, symmetrised as A @ A.T and redrawn while nearly
singular), samples N points, and scores four estimators against the analytic
Gaussian entropy 0.5 * log2((2*pi*e)**d * det(Sigma)).  The loss per method
is the mean squared absolute percentage error over trials, and a one-sided
percentile-bootstrap lower confidence bound is computed for the improvement
of the rotated partition over the equal-width baseline.

Trials derive independent RNG streams from (seed, trial index), so a study
is reproducible bit-for-bit regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PreconditionError, require_int
from .estimators import (
    METHOD_EQUIPROBABLE,
    METHOD_MARGINAL,
    METHOD_NAIVE,
    METHOD_ROTATED,
    entropy_equiprobable_estimate,
    entropy_marginal_equiquantised,
    entropy_naive,
)
from .geometry import SampleSet
from .optimizer import OptimizerConfig, entropy_rotated

DET_FLOOR = 1e-2
MAX_COVARIANCE_REDRAWS = 1000
STUDY_METHODS = (METHOD_NAIVE, METHOD_MARGINAL, METHOD_EQUIPROBABLE, METHOD_ROTATED)
STUDY_CSV_HEADER = "N,B,mse_naive,mse_marginal,mse_equiprobable,mse_rotated,ci_lower_99"

# stream tag separating the bootstrap RNG from the per-trial streams
_BOOTSTRAP_STREAM = 0xB005


@dataclass(frozen=True)
class CovarianceSpec:
    """A symmetric positive-definite covariance with its determinant cached.

    Determinants at or below ``DET_FLOOR`` are rejected so theoretical
    entropies stay bounded away from zero and percentage errors stay stable.
    """

    sigma: np.ndarray
    det: float = field(init=False)

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise PreconditionError("covariance must be a square matrix")
        if not np.isfinite(sigma).all():
            raise PreconditionError("covariance must be finite")
        if np.max(np.abs(sigma - sigma.T)) > 1e-12:
            raise PreconditionError("covariance must be symmetric within 1e-12")
        if np.min(np.linalg.eigvalsh(sigma)) <= 0.0:
            raise PreconditionError("covariance must be positive definite")
        det = float(np.linalg.det(sigma))
        if det <= DET_FLOOR:
            raise PreconditionError(
                f"covariance determinant {det:g} at or below the floor {DET_FLOOR:g}"
            )
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "det", det)

    @property
    def d(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class TrialResult:
    covariance: CovarianceSpec
    theoretical: float
    estimates: dict
    abs_pct_error: dict


@dataclass(frozen=True)
class StudyResult:
    n: int
    bins: int
    trials: int
    seed: int
    mse: dict
    ci_lower: float
    failures: int = 0
    trial_results: tuple = ()


def theoretical_entropy(cov: CovarianceSpec) -> float:
    """Analytic Gaussian entropy in bits: 0.5 * log2((2*pi*e)**d * det)."""
    return 0.5 * math.log2((2.0 * math.pi * math.e) ** cov.d * cov.det)


def random_covariance(rng: np.random.Generator) -> CovarianceSpec:
    """Draw a random 2x2 covariance covering a wide range of correlations.

    The factor entries are a11 ~ U(-20, 20), a12 ~ U(0, 30),
    a21 ~ Normal(-2, 2), a22 ~ Normal(-1, 1) (mean, standard deviation);
    Sigma = A @ A.T.  Nearly singular draws are rejected and redrawn.
    """
    for _ in range(MAX_COVARIANCE_REDRAWS):
        a = np.array(
            [
                [rng.uniform(-20.0, 20.0), rng.uniform(0.0, 30.0)],
                [rng.normal(-2.0, 2.0), rng.normal(-1.0, 1.0)],
            ]
        )
        sigma = a @ a.T
        if np.linalg.det(sigma) > DET_FLOOR:
            return CovarianceSpec(sigma)
    raise PreconditionError(
        f"no covariance above the determinant floor in {MAX_COVARIANCE_REDRAWS} draws"
    )


def sample_gaussian(cov: CovarianceSpec, n: int, rng: np.random.Generator) -> SampleSet:
    """n i.i.d. zero-mean Gaussian draws via the Cholesky factor of the covariance."""
    require_int(1, n=n)
    factor = np.linalg.cholesky(cov.sigma)
    return SampleSet(rng.standard_normal((n, cov.d)) @ factor.T)


def bootstrap_ci_lower(diffs, level: float = 0.99, resamples: int = 10000, rng=None) -> float:
    """One-sided percentile-bootstrap lower bound on the mean of ``diffs``.

    Resamples with replacement, takes means, and returns the
    ``(1 - level)`` quantile of the bootstrap distribution.
    """
    require_int(1, resamples=resamples)
    diffs = np.asarray(diffs, dtype=float).ravel()
    if diffs.size == 0:
        raise PreconditionError("bootstrap requires at least one observation")
    if not np.isfinite(diffs).all():
        raise PreconditionError("bootstrap diffs must be finite")
    if not 0.0 < level < 1.0:
        raise PreconditionError(f"confidence level must be in (0, 1), got {level!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    means = np.empty(resamples)
    block = 2048
    for lo in range(0, resamples, block):
        hi = min(lo + block, resamples)
        idx = rng.integers(0, diffs.size, size=(hi - lo, diffs.size))
        means[lo:hi] = diffs[idx].mean(axis=1)
    return float(np.percentile(means, 100.0 * (1.0 - level)))


def depth_and_grid_for_bins(bins: int) -> tuple[int, int]:
    """Resolve a shared bivariate bin count B = 4**s into (depth s, grid k = 2**s)."""
    require_int(0, bins=bins)
    if bins >= 4:
        s = round(math.log(bins, 4))
        if 4**s == bins:
            return s, 2**s
    raise PreconditionError(
        f"bin count {bins} is not expressible as B = 2^(s*d) with d=2 and integer depth s >= 1"
    )


def run_study(
    n: int,
    bins: int,
    trials: int,
    seed: int,
    config: Optional[OptimizerConfig] = None,
    bootstrap_resamples: int = 10000,
) -> StudyResult:
    """Run a full Monte Carlo study at one (N, B) design point.

    Per trial: draw a covariance and N samples, compute the theoretical
    entropy and all four estimates, and record absolute percentage errors.
    Trials where an estimator fails are counted and excluded.
    """
    require_int(1, n=n, trials=trials, bootstrap_resamples=bootstrap_resamples)
    require_int(0, seed=seed)
    depth, grid = depth_and_grid_for_bins(bins)
    if n < bins:
        raise PreconditionError(f"N={n} < B={bins}; every bin needs at least one sample")

    results = []
    failures = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        cov = random_covariance(rng)
        samples = sample_gaussian(cov, n, rng)
        theoretical = theoretical_entropy(cov)
        try:
            estimates = {
                METHOD_NAIVE: entropy_naive(samples, grid).value,
                METHOD_MARGINAL: entropy_marginal_equiquantised(samples, grid).value,
                METHOD_EQUIPROBABLE: entropy_equiprobable_estimate(samples, depth).value,
                METHOD_ROTATED: entropy_rotated(samples, depth, config).value,
            }
        except PreconditionError:
            failures += 1
            continue
        errors = {
            m: abs(estimates[m] - theoretical) / abs(theoretical) for m in STUDY_METHODS
        }
        results.append(
            TrialResult(
                covariance=cov,
                theoretical=theoretical,
                estimates=estimates,
                abs_pct_error=errors,
            )
        )

    mse = {
        m: float(np.mean([t.abs_pct_error[m] ** 2 for t in results])) if results else math.nan
        for m in STUDY_METHODS
    }
    if len(results) >= 2:
        diffs = [
            t.abs_pct_error[METHOD_NAIVE] ** 2 - t.abs_pct_error[METHOD_ROTATED] ** 2
            for t in results
        ]
        ci_lower = bootstrap_ci_lower(
            diffs,
            level=0.99,
            resamples=bootstrap_resamples,
            rng=np.random.default_rng([seed, trials, _BOOTSTRAP_STREAM]),
        )
    else:
        ci_lower = math.nan
    return StudyResult(
        n=n,
        bins=bins,
        trials=len(results),
        seed=seed,
        mse=mse,
        ci_lower=ci_lower,
        failures=failures,
        trial_results=tuple(results),
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def study_to_csv(study: StudyResult) -> str:
    """Single-row CSV report matching the published column schema."""
    row = ",".join(
        [str(study.n), str(study.bins)]
        + [_fmt(study.mse[m]) for m in STUDY_METHODS]
        + [_fmt(study.ci_lower)]
    )
    return f"{STUDY_CSV_HEADER}\n{row}\n"


def study_to_json_dict(study: StudyResult, include_trials: bool = True) -> dict:
    """JSON-ready report; optionally includes the per-trial records."""
    doc = {
        "n": study.n,
        "bins": study.bins,
        "trials": study.trials,
        "seed": study.seed,
        "failures": study.failures,
        "mse": {m: study.mse[m] for m in STUDY_METHODS},
        "ci_lower_99": study.ci_lower,
    }
    if include_trials:
        doc["trial_results"] = [
            {
                "covariance": t.covariance.sigma.tolist(),
                "theoretical_bits": t.theoretical,
                "estimates_bits": {m: t.estimates[m] for m in STUDY_METHODS},
                "abs_pct_error": {m: t.abs_pct_error[m] for m in STUDY_METHODS},
            }
            for t in study.trial_results
        ]
    return doc
