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
from .partition import Partition, bin_volumes, build_equiprobable

METHOD_NAIVE = "naive"
METHOD_MARGINAL = "marginal_equiquantised"
METHOD_EQUIPROBABLE = "equiprobable"
METHOD_ROTATED = "rotated_equiprobable"
METHOD_ENSEMBLE = "ensemble"


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
    are excluded from the sum so the estimate stays finite.
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
    if np.any(volumes < 0):
        raise PreconditionError("bin volumes must be non-negative")
    if counts.sum() != n_total:
        raise PreconditionError(f"bin counts sum to {counts.sum():g}, expected N={n_total}")
    mask = (counts > 0) & (volumes > 0)
    if not mask.any():
        return 0.0
    p = counts[mask] / n_total
    return float(-np.sum(p * np.log2(p / volumes[mask])))


def entropy_equiprobable(partition: Partition) -> float:
    """Volume-product entropy of an equiprobable partition, in bits.

    Computed as ``2**-(s*d) * sum(log2 v_i) + s*d`` for numerical stability
    instead of taking the log of the full volume product.
    """
    vols = bin_volumes(partition)
    if np.any(vols <= 0.0):
        raise DegeneratePartitionError(
            f"{int(np.count_nonzero(vols <= 0.0))} zero-volume bins; "
            "the volume-product estimator is undefined (consider entropy_histogram)"
        )
    sd = partition.depth * partition.dims
    return float(2.0 ** (-sd) * np.sum(np.log2(vols)) + sd)


def entropy_equiprobable_estimate(
    samples: SampleSet, depth: int, cycle_order=None
) -> EntropyEstimate:
    """Build an equiprobable partition of ``samples`` and estimate its entropy."""
    partition = build_equiprobable(samples, depth, cycle_order)
    return EntropyEstimate(
        value=entropy_equiprobable(partition),
        method=METHOD_EQUIPROBABLE,
        depth=depth,
        bin_count=partition.bin_count,
    )


def entropy_naive(samples: SampleSet, bins_per_dim: int) -> EntropyEstimate:
    """Entropy from an equal-width grid of ``bins_per_dim**d`` cells over the bounding box."""
    require_int(1, bins_per_dim=bins_per_dim)
    k = int(bins_per_dim)
    bb = samples.bounding_box
    if np.any(bb.widths == 0.0):
        raise PreconditionError("zero-width support dimension; equal-width cells are degenerate")
    counts, _ = np.histogramdd(
        samples.data, bins=k, range=[(lo, hi) for lo, hi in zip(bb.lower, bb.upper)]
    )
    cell_volume = float(np.prod(bb.widths / k))
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
    bb = samples.bounding_box
    if np.any(bb.widths == 0.0):
        raise PreconditionError("zero-width support dimension; quantile slabs are degenerate")

    edges_per_dim = []
    for dim in range(d):
        srt = np.sort(samples.data[:, dim])
        ranks = -(-n * np.arange(1, k) // k)  # ceil(n*j/k), j = 1..k-1
        cuts = 0.5 * (srt[ranks - 1] + srt[ranks])
        edges = np.unique(np.concatenate(([bb.lower[dim]], cuts, [bb.upper[dim]])))
        edges_per_dim.append(edges)

    counts, _ = np.histogramdd(samples.data, bins=edges_per_dim)
    volumes = np.array([1.0])
    for edges in edges_per_dim:
        volumes = np.multiply.outer(volumes, np.diff(edges))
    volumes = volumes.reshape(counts.shape)

    value = entropy_histogram(counts.ravel(), volumes.ravel(), n)
    actual = int(np.prod([len(e) - 1 for e in edges_per_dim]))
    return EntropyEstimate(
        value=value,
        method=METHOD_MARGINAL,
        depth=k,
        bin_count=k**d,
        degenerate_bins=k**d - actual,
    )


def winsorise(samples: SampleSet, k_sigma: float = 3.0) -> SampleSet:
    """Clip every coordinate to mean +/- k_sigma standard deviations per marginal."""
    if not 0 < k_sigma < np.inf:  # also rejects NaN; inf would clip a constant column to NaN
        raise PreconditionError(f"k_sigma must be positive and finite, got {k_sigma!r}")
    mean = samples.barycentre
    std = samples.data.std(axis=0)
    return SampleSet(np.clip(samples.data, mean - k_sigma * std, mean + k_sigma * std))


def ensemble_estimate(samples: SampleSet, depth: int, orders) -> EntropyEstimate:
    """Mean equiprobable entropy over partitions built with several cycle orders."""
    orders = [tuple(o) for o in orders]
    if not orders:
        raise PreconditionError("ensemble requires at least one cycle order")
    values = [
        entropy_equiprobable(build_equiprobable(samples, depth, order)) for order in orders
    ]
    return EntropyEstimate(
        value=float(np.mean(values)),
        method=METHOD_ENSEMBLE,
        depth=depth,
        bin_count=2 ** (depth * samples.d),
    )

