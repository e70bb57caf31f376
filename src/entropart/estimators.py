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

from dataclasses import dataclass
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
    ``data.max(axis=0)``; a cell volume that overflows or underflows float64
    raises :class:`DegeneratePartitionError`.
    """
    require_int(1, bins_per_dim=bins_per_dim)
    k = int(bins_per_dim)
    lower, upper = samples.data.min(axis=0), samples.data.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, by name
        widths = upper - lower
        cell_volume = float(np.prod(widths / k))
    if np.any(widths == 0.0):
        raise PreconditionError("zero-width support dimension; equal-width cells are degenerate")
    _require_representable(cell_volume)
    counts, _ = np.histogramdd(samples.data, bins=k, range=list(zip(lower, upper)))
    total = k**samples.d
    value = entropy_histogram(counts.ravel(), np.full(total, cell_volume), samples.n)
    return EntropyEstimate(value=value, method=METHOD_NAIVE, depth=k, bin_count=total)


def entropy_marginal_equiquantised(samples: SampleSet, bins_per_dim: int) -> EntropyEstimate:
    """Entropy from the product grid of per-dimension empirical quantile slabs.

    Cut points sit at the midpoint of the order statistics straddling each
    j/k quantile, matching the median convention of the tree partition.
    Duplicate cut points (heavy ties) produce zero-width slabs which are
    merged; the eliminated cells are reported via ``degenerate_bins``.
    """
    require_int(1, bins_per_dim=bins_per_dim)
    k = int(bins_per_dim)
    n, d = samples.n, samples.d
    if n < k:
        raise PreconditionError(f"N={n} < bins_per_dim={k}; too few samples to quantise")
    lower, upper = samples.data.min(axis=0), samples.data.max(axis=0)
    if np.any(upper - lower == 0.0):
        raise PreconditionError("zero-width support dimension; quantile slabs are degenerate")

    edges_per_dim = []
    volumes = np.array([1.0])
    with np.errstate(over="ignore"):  # an overflow is raised below, by name
        for dim in range(d):
            srt = np.sort(samples.data[:, dim])
            ranks = -(-n * np.arange(1, k) // k)  # ceil(n*j/k), j = 1..k-1
            cuts = 0.5 * (srt[ranks - 1] + srt[ranks])
            edges = np.unique(np.concatenate(([lower[dim]], cuts, [upper[dim]])))
            edges_per_dim.append(edges)
            volumes = np.multiply.outer(volumes, np.diff(edges))
    _require_representable(volumes)

    counts, _ = np.histogramdd(samples.data, bins=edges_per_dim)
    value = entropy_histogram(counts, volumes, n)
    return EntropyEstimate(
        value=value,
        method=METHOD_MARGINAL,
        depth=k,
        bin_count=k**d,
        degenerate_bins=k**d - counts.size,
    )


def _require_representable(volumes) -> None:
    """Raise by name where grid cells, every one of positive width, over- or underflowed float64."""
    require_finite_volumes(volumes)
    if np.any(volumes == 0.0):
        raise DegeneratePartitionError(_UNDERFLOW)


def winsorise(samples: SampleSet, k_sigma: float = 3.0) -> SampleSet:
    """Clip every coordinate to mean +/- k_sigma standard deviations per marginal."""
    if not 0 < k_sigma < np.inf:  # also rejects NaN; inf would clip a constant column to NaN
        raise PreconditionError(f"k_sigma must be positive and finite, got {k_sigma!r}")
    mean = samples.barycentre
    std = samples.data.std(axis=0)
    return SampleSet._adopt(np.clip(samples.data, mean - k_sigma * std, mean + k_sigma * std))


def ensemble_estimate(samples: SampleSet, depth: int) -> EntropyEstimate:
    """Mean equiprobable entropy over the partitions built with every cyclic shift of 0..d-1."""
    d = samples.d
    orders = [[(i + j) % d for j in range(d)] for i in range(d)]
    values = [entropy_equiprobable(build_equiprobable(samples, depth, o)) for o in orders]
    return EntropyEstimate(
        value=float(np.mean(values)),
        method=METHOD_ENSEMBLE,
        depth=depth,
        bin_count=2 ** (depth * samples.d),
    )

