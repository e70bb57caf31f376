"""Equiprobable partitions built from recursive binary marginal-median splits.

A partition of depth ``s`` over ``d`` dimensions bisects every cell once per
dimension at each of ``s`` recursion levels, producing ``2**(s*d)`` leaf bins
that hold as near to equal sample counts as integer splits allow.  Because the
split planes follow marginal medians, regions of high sample density end up
with small bins and sparse regions with large ones; the bin volumes alone then
carry the information needed for entropy estimation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePartitionError, PreconditionError, require_int
from .geometry import BoundingBox, SampleSet

# beyond this depth bivariate bins hold too few samples to be informative
MAX_RECOMMENDED_BIVARIATE_DEPTH = 4


@dataclass(frozen=True)
class Partition:
    """A complete depth-``s`` binary tree over ``d`` dimensions, kept as its leaves.

    Leaf ``i`` is the box ``lower[i]``..``upper[i]`` holding ``counts[i]``
    samples; every split lists its left child before its right.
    """

    lower: np.ndarray
    upper: np.ndarray
    counts: np.ndarray
    depth: int
    dims: int
    cycle_order: tuple[int, ...]
    support: BoundingBox

    @property
    def bin_count(self) -> int:
        return len(self.counts)


def median_split(points, dim: int):
    """Split points at the marginal median of coordinate ``dim``.

    The left subset receives the ceil(m/2) smallest points along ``dim``
    (ties resolved by stable input order), the right subset the remainder.
    The split coordinate is the midpoint of the two straddling order
    statistics.  Returns ``(left, right, split_coordinate)`` with subsets in
    their original row order.
    """
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    if squeeze:
        pts = pts.reshape(-1, 1)
    m = pts.shape[0]
    if m < 2:
        raise PreconditionError("median split requires at least 2 points")
    if not np.isfinite(pts).all():
        raise PreconditionError("median split points must be finite")
    require_int(0, dim=dim)
    if dim >= pts.shape[1]:
        raise PreconditionError(f"dimension index {dim} out of range for d={pts.shape[1]}")
    left_idx, right_idx, split = _split_rows(pts[:, dim], np.arange(m).reshape(1, m))
    left, right = pts[left_idx[0]], pts[right_idx[0]]
    if squeeze:
        left, right = left.ravel(), right.ravel()
    return left, right, float(split[0])


def _split_rows(values_flat: np.ndarray, idx: np.ndarray, out=None):
    """Median-split each ascending row of the (R, m) index matrix ``idx`` into ``values_flat``.

    Returns left and right index matrices, rows ascending, and the (R,) split
    coordinates.  Each row selects its k-th smallest value once; the minimum of
    the values to its right is the next order statistic.  Where the two tie,
    only a stable sort of the row knows which tied rows go left.  The index
    matrices are views of ``out`` (new if None), a flat C-contiguous array of
    ``idx.size`` that holds all left rows, then all right rows.
    """
    values = values_flat.take(idx)
    a, m = values.shape
    k = (m + 1) // 2
    # a single kth takes numpy's SIMD quickselect; a tuple kth does not
    selected = np.partition(values, k - 1, axis=1)
    below, above = selected[:, k - 1].copy(), selected[:, k:].min(axis=1)
    right = values > below[:, None]
    for row in (below == above).nonzero()[0]:  # the sort also orders -0.0 and 0.0
        order = values[row].argsort(kind="stable")
        below[row], above[row] = values[row, order[k - 1]], values[row, order[k]]
        right[row, order[:k]], right[row, order[k:]] = False, True
    del values, selected  # before the takes allocate: a large build peaks at the selection
    out = np.empty(idx.size, idx.dtype) if out is None else out
    # flat positions of each side come row by row, ascending; take beats 2-D fancy indexing
    idx.take((~right).ravel().nonzero()[0], out=out[: a * k], mode="clip")
    idx.take(right.ravel().nonzero()[0], out=out[a * k :], mode="clip")
    return out[: a * k].reshape(a, k), out[a * k :].reshape(a, m - k), 0.5 * (below + above)


def leaf_boxes(points: np.ndarray, depth: int, order):
    """Leaves of the equiprobable trees of A point sets of shape (A, N, d), such as A rotations.

    After j splits every cell holds ceil(N/2^j) or floor(N/2^j) points, so a
    level is at most two groups of same-size cells, and one ``_split_rows`` call
    splits a group for all A sets.  A group holds its cells' tree positions
    (C,), boxes (C, A, d) and index rows (C*A, m), cell by cell.  A level's
    children fill one index array group by group, left rows before right; those
    of one size lie side by side, larger first, and form the next level's group.
    Returns ``lower`` and ``upper`` (A, B, d) in tree order, left child before
    right, each root box being its set's bounding box, and ``counts`` (B,).
    """
    a, n, d = points.shape
    columns = np.ascontiguousarray(points.transpose(2, 0, 1)).reshape(d, a * n)
    by_set = columns.reshape(d, a, n)  # reducing the contiguous axis is much the fastest
    root = (by_set.min(axis=2).T[None], by_set.max(axis=2).T[None])
    groups = [(np.zeros(1, dtype=np.intp), *root, np.arange(a * n).reshape(a, n))]
    for dim in tuple(order) * depth:
        level, at, kids = np.empty(a * n, dtype=np.intp), 0, {}
        for pos, lo, hi, idx in groups:
            left, right, split = _split_rows(columns[dim], idx, level[at : (at := at + idx.size)])
            left_hi, right_lo = hi.copy(), lo.copy()
            left_hi[..., dim] = right_lo[..., dim] = split.reshape(len(pos), a)
            kids.setdefault(left.shape[1], []).append((2 * pos, lo, left_hi))
            kids.setdefault(right.shape[1], []).append((2 * pos + 1, right_lo, hi))
        groups, at = [], 0
        for m, run in kids.items():
            pos, lo, hi = (np.concatenate(part) for part in zip(*run))
            groups.append((pos, lo, hi, level[at : (at := at + pos.size * a * m)].reshape(-1, m)))
    # C order keeps the row reductions of the volumes in numpy's pairwise order
    lower, upper = np.empty((2, a, 2 ** (len(order) * depth), d))
    counts = np.empty(lower.shape[1], dtype=int)
    for pos, lo, hi, idx in groups:
        lower[:, pos], upper[:, pos] = lo.swapaxes(0, 1), hi.swapaxes(0, 1)
        counts[pos] = idx.shape[1]
    return lower, upper, counts


def split_schedule(samples: SampleSet, depth: int, cycle_order=None) -> tuple[int, tuple]:
    """``(depth, order)`` of :func:`build_equiprobable`, once its preconditions hold."""
    require_int(0, depth=depth)
    depth, d = int(depth), samples.d
    order = tuple(range(d)) if cycle_order is None else _permutation(cycle_order, d)
    if samples.n.bit_length() <= depth * d:  # N < 2^(s*d), without building the power
        raise PreconditionError(
            f"N={samples.n} < 2^(s*d)=2^{depth * d} samples, needed for depth {depth} in {d}-D"
        )
    return depth, order


def _permutation(cycle_order, d: int) -> tuple[int, ...]:
    """``cycle_order`` as a tuple of Python ints, once it is a permutation of 0..d-1."""
    order = tuple(cycle_order)
    require_int(0, **{f"cycle_order[{i}]": entry for i, entry in enumerate(order)})
    order = tuple(map(int, order))  # JSON export needs Python ints
    if sorted(order) != list(range(d)):
        raise PreconditionError(f"cycle_order {order!r} is not a permutation of 0..{d - 1}")
    return order


def build_equiprobable(samples: SampleSet, depth: int, cycle_order=None) -> Partition:
    """Build the equiprobable k-d tree partition of ``samples`` to a fixed depth.

    Each recursion level bisects every cell once per dimension, in
    ``cycle_order`` (defaults to 0, 1, ..., d-1).  The support is the tight
    closed bounding box of the samples; requires N >= 2**(depth*d) so every
    leaf holds at least one sample.
    """
    depth, order = split_schedule(samples, depth, cycle_order)
    if samples.d == 2 and depth > MAX_RECOMMENDED_BIVARIATE_DEPTH:
        warnings.warn(
            f"depth {depth} exceeds the recommended maximum of "
            f"{MAX_RECOMMENDED_BIVARIATE_DEPTH} for bivariate data; bins will be sample-starved",
            UserWarning,
            stacklevel=2,
        )
    lower, upper, counts = leaf_boxes(samples.data[None], depth, order)
    return Partition(lower[0], upper[0], counts, depth, samples.d, order, samples.bounding_box)


def bin_volumes(partition: Partition, normalize: bool = False) -> np.ndarray:
    """Leaf volumes, raw or divided by the total so they sum to one."""
    vols = np.prod(partition.upper - partition.lower, axis=1)
    if not normalize:
        return vols
    total = vols.sum()
    if total <= 0.0:
        raise DegeneratePartitionError("cannot normalize volumes of a zero-volume partition")
    return vols / total


def partition_to_dict(partition: Partition) -> dict:
    """Plain-data representation of a partition for JSON export."""
    return {
        "support": {
            "lower": partition.support.lower.tolist(),
            "upper": partition.support.upper.tolist(),
        },
        "depth": partition.depth,
        "dims": partition.dims,
        "cycle_order": list(partition.cycle_order),
        "bins": [
            {"lower": lo, "upper": hi, "count": count, "volume": volume}
            for lo, hi, count, volume in zip(
                partition.lower.tolist(),
                partition.upper.tolist(),
                partition.counts.tolist(),
                bin_volumes(partition).tolist(),
            )
        ],
    }


def partition_from_dict(doc: dict) -> Partition:
    """Rebuild a partition from :func:`partition_to_dict` output.

    Raises :class:`PreconditionError` for every malformed document: a count,
    ``depth`` or ``dims`` that is not a non-negative integer, a bin count other
    than ``2**(depth*dims)``, a ``cycle_order`` that is not a permutation of
    ``0..dims-1``, bounds that are not ``dims`` wide or are ragged, inverted or
    non-finite, and a stored volume that is not exactly the product of its
    bin's widths.
    """
    try:
        support = BoundingBox(np.array(doc["support"]["lower"]), np.array(doc["support"]["upper"]))
        bins = doc["bins"]
        lower = np.array([b["lower"] for b in bins], dtype=float)
        upper = np.array([b["upper"] for b in bins], dtype=float)
        require_int(0, **{f"bins[{i}].count": b["count"] for i, b in enumerate(bins)})
        counts = np.array([b["count"] for b in bins], dtype=int)
        volumes = np.array([float(b["volume"]) for b in bins])
        require_int(0, depth=doc["depth"], dims=doc["dims"])
        depth, dims = int(doc["depth"]), int(doc["dims"])
        order = _permutation(doc["cycle_order"], dims)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"malformed partition document: {exc}") from exc
    exponent = depth * dims  # 2**exponent itself can be too large to build
    if len(bins).bit_length() != exponent + 1 or len(bins) & (len(bins) - 1):
        raise PreconditionError(
            f"malformed partition document: {len(bins)} bins, not 2^(depth*dims)=2^{exponent}"
        )
    if (
        lower.shape != (len(bins), dims)
        or upper.shape != lower.shape
        or support.lower.shape != (dims,)
        or not np.all(np.isfinite(lower) & np.isfinite(upper) & (lower <= upper))
    ):
        raise PreconditionError("malformed partition document: bad bin bounds")
    partition = Partition(lower, upper, counts, depth, dims, order, support)
    if not np.array_equal(volumes, bin_volumes(partition)):
        raise PreconditionError("malformed partition document: volume is not the product of widths")
    return partition

