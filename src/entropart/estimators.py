"""Histogram entropy estimators, in bits.

All estimators share the plug-in form

    H = -sum_i (n_i / N) * log2( n_i / (N * v_i) )

over occupied bins with count ``n_i`` and volume ``v_i``.  For an
equiprobable partition of ``B = 2**(s*d)`` bins this reduces to a pure
function of the bin volumes,

    H = 2**-(s*d) * sum_i log2(v_i) + s*d,

which is what makes rotational alignment of the partition worthwhile: the
orientation affects only the volumes.  Grid baselines (equal-width and
marginal-equiquantised) and outlier winsorisation are provided for
comparison studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DegeneratePartitionError, PreconditionError, require_int
from .geometry import Rotation, SampleSet
from .partition import Partition, bin_volumes, build_equiprobable, require_finite_volumes

METHOD_NAIVE = "naive"
METHOD_MARGINAL = "marginal_equiquantised"
METHOD_EQUIPROBABLE = "equiprobable"
METHOD_ROTATED = "rotated_equiprobable"
METHOD_ENSEMBLE = "ensemble"

_UNDERFLOW = "bin volumes underflow float64; rescale the samples"


@dataclass(frozen=True)
class EntropyEstimate:
    """An entropy value in bits plus the provenance of the estimate.

    ``depth`` is the tree recursion depth for equiprobable methods and the
    bins-per-dimension for grid methods.  ``bin_count`` is the nominal number
    of bins; ``degenerate_bins`` counts cells that were merged away or
    excluded because they had zero volume.
    """

    value: float
    method: str
    depth: int
    bin_count: int
    rotation: Optional[Rotation] = None
    degenerate_bins: int = 0


def entropy_histogram(counts, volumes, n_total: int) -> float:
    """Plug-in entropy of a histogram from per-bin counts and volumes.

    Empty bins contribute zero (0*log 0 = 0); occupied bins of zero volume
    are excluded from the sum so the estimate stays finite.  A positive volume
    so small that its density ``n_i / (N * v_i)`` overflows raises
    :class:`DegeneratePartitionError`.
    """
    counts = np.asarray(counts, dtype=float).ravel()
    volumes = np.asarray(volumes, dtype=float).ravel()
    if counts.shape != volumes.shape:
        raise PreconditionError(
            f"counts ({counts.size}) and volumes ({volumes.size}) must have equal length"
        )
    for name, values in (("counts", counts), ("volumes", volumes)):
        if not np.isfinite(values).all():
            raise PreconditionError(f"bin {name} must be finite")
        if np.any(values < 0):
            raise PreconditionError(f"bin {name} must be non-negative")
    if counts.sum() != n_total:
        raise PreconditionError(f"bin counts sum to {counts.sum():g}, expected N={n_total}")
    mask = (counts > 0) & (volumes > 0)
    if not mask.any():
        return 0.0
    p = counts[mask] / n_total
    with np.errstate(over="ignore"):  # raised below, by name
        densities = p / volumes[mask]
    if not np.isfinite(densities).all():
        raise DegeneratePartitionError(_UNDERFLOW)
    return float(-np.sum(p * np.log2(densities)))


def entropy_equiprobable(partition: Partition) -> float:
    """Volume-product entropy of an equiprobable partition, in bits.

    Computed as ``2**-(s*d) * sum(log2 v_i) + s*d`` for numerical stability
    instead of taking the log of the full volume product.  Zero-volume bins
    raise, named an underflow where all their widths are positive.
    """
    vols = bin_volumes(partition)
    zero = vols <= 0.0
    if zero.any():
        if (partition.upper > partition.lower)[zero].all():  # every width positive: underflow
            raise DegeneratePartitionError(_UNDERFLOW)
        raise DegeneratePartitionError(
            f"{int(np.count_nonzero(zero))} zero-volume bins; "
            "the volume-product estimator is undefined (consider entropy_histogram)"
        )
    sd = partition.depth * partition.dims
    return float(2.0 ** (-sd) * np.sum(np.log2(vols)) + sd)


def entropy_equiprobable_estimate(
    samples: SampleSet, depth: int, cycle_order=None
) -> EntropyEstimate:
    """Build an equiprobable partition of ``samples`` and estimate its entropy."""
    return partition_estimate(build_equiprobable(samples, depth, cycle_order))


def partition_estimate(
    partition: Partition, method: str = METHOD_EQUIPROBABLE, rotation: Rotation | None = None
) -> EntropyEstimate:
    """The :class:`EntropyEstimate` of an equiprobable partition, built at ``rotation`` if given."""
    value = entropy_equiprobable(partition)
    return EntropyEstimate(value, method, partition.depth, partition.bin_count, rotation)


def entropy_naive(samples: SampleSet, bins_per_dim: int) -> EntropyEstimate:
    """Entropy from an equal-width grid of ``bins_per_dim**d`` cells.

    The grid spans the samples' bounding box, from ``data.min(axis=0)`` to
    ``data.max(axis=0)``, also where that span is past float64; a cell volume
    that overflows or underflows float64 raises :class:`DegeneratePartitionError`.
    """
    require_int(1, bins_per_dim=bins_per_dim)
    k = int(bins_per_dim)

    def grid(lower, upper):
        # the edges np.histogramdd(bins=k, range=...) builds, so counts match it bit for bit;
        # where upper - lower overflows, the edges are lower + j*width to upper, width
        # upper/k - lower/k, at half scale (which rounds alike) so j*width cannot overflow
        widths, edges = (upper - lower) / k, [np.linspace(lo, hi, k + 1) for lo, hi in zip(lower, upper)]
        for i in (~np.isfinite(widths)).nonzero()[0]:
            widths[i] = upper[i] / k - lower[i] / k
            edges[i] = np.append(2.0 * (lower[i] / 2.0 + np.arange(k) * (widths[i] / 2.0)), upper[i])
        return edges, np.full(k**samples.d, float(np.prod(widths)))

    return _grid_estimate(samples, k, METHOD_NAIVE, "equal-width cells", grid)


def entropy_marginal_equiquantised(samples: SampleSet, bins_per_dim: int) -> EntropyEstimate:
    """Entropy from the product grid of per-dimension empirical quantile slabs.

    Cut points sit at the midpoint of the order statistics straddling each
    j/k quantile, matching the median convention of the tree partition.
    Duplicate cut points (heavy ties) produce zero-width slabs which are
    merged; the eliminated cells are reported via ``degenerate_bins``.
    """
    require_int(1, bins_per_dim=bins_per_dim)
    k = int(bins_per_dim)
    n = samples.n
    if n < k:
        raise PreconditionError(f"N={n} < bins_per_dim={k}; too few samples to quantise")
    ranks = -(-n * np.arange(1, k) // k)  # ceil(n*j/k), j = 1..k-1

    def grid(lower, upper):
        srt = np.sort(samples.data, axis=0)
        cuts = 0.5 * (srt[ranks - 1] + srt[ranks])
        edges = [np.unique(np.concatenate(([lo], c, [hi]))) for lo, c, hi in zip(lower, cuts.T, upper)]
        volumes = np.array([1.0])
        for e in edges:
            volumes = np.multiply.outer(volumes, np.diff(e))
        return edges, volumes

    return _grid_estimate(samples, k, METHOD_MARGINAL, "quantile slabs", grid)


def _grid_estimate(samples: SampleSet, k: int, method: str, cells: str, grid) -> EntropyEstimate:
    """Estimate over the product grid of the edges and cell volumes ``grid(lower, upper)`` gives.

    A zero-width dimension, and cells that over- or underflow float64, are
    raised by name before any point is counted; cells that duplicate edges
    merged away are reported as ``degenerate_bins``.
    """
    lower, upper = samples.data.min(axis=0), samples.data.max(axis=0)
    if np.any(upper == lower):
        raise PreconditionError(f"zero-width support dimension; {cells} are degenerate")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, by name
        edges, volumes = grid(lower, upper)
    require_finite_volumes(volumes)
    if np.any(volumes == 0.0):  # every width is positive
        raise DegeneratePartitionError(_UNDERFLOW)
    counts, _ = np.histogramdd(samples.data, bins=edges)
    value = entropy_histogram(counts, volumes, samples.n)
    return EntropyEstimate(value, method, k, k**samples.d, degenerate_bins=k**samples.d - counts.size)


def winsorise(samples: SampleSet, k_sigma: float = 3.0) -> SampleSet:
    """Clip every coordinate to mean +/- k_sigma standard deviations per marginal."""
    if not 0 < k_sigma < np.inf:  # also rejects NaN; inf would clip a constant column to NaN
        raise PreconditionError(f"k_sigma must be positive and finite, got {k_sigma!r}")
    mean = samples.barycentre
    with np.errstate(over="ignore"):  # an infinite spread is raised below; an infinite reach clips nothing
        std = samples.data.std(axis=0)
        low, high = mean - k_sigma * std, mean + k_sigma * std
    if not np.isfinite(std).all():
        raise DegeneratePartitionError("sample standard deviation overflows float64; rescale the samples")
    return SampleSet._adopt(np.clip(samples.data, low, high))


def ensemble_estimate(samples: SampleSet, depth: int) -> EntropyEstimate:
    """Mean equiprobable entropy over the partitions built with every cyclic shift of 0..d-1."""
    d = samples.d
    orders = [[(i + j) % d for j in range(d)] for i in range(d)]
    estimates = [partition_estimate(build_equiprobable(samples, depth, o), METHOD_ENSEMBLE) for o in orders]
    return replace(estimates[0], value=float(np.mean([e.value for e in estimates])))

