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
from .geometry import SampleSet

# beyond this depth bivariate bins hold too few samples to be informative
MAX_RECOMMENDED_BIVARIATE_DEPTH = 4

# the median split sorts rows of at most this many entries and selects in longer
# ones: numpy's SIMD sort took 0.5-0.7x the time of a selection plus a row minimum
# for 4 <= m <= 256, 1.0-1.2x for 320 <= m <= 512 and 1.5-2.3x from 1024 on (README)
SORTED_ROW_MAX = 256


@dataclass(frozen=True)
class Partition:
    """A complete depth-``s`` binary tree over ``d`` dimensions, kept as its leaves.

    Leaf ``i`` is the box ``lower[i]``..``upper[i]`` holding ``counts[i]``
    samples; every split lists its left child before its right.  ``support``
    is the (2, d) array of the root box's lower and upper corners.
    """

    lower: np.ndarray
    upper: np.ndarray
    counts: np.ndarray
    depth: int
    dims: int
    cycle_order: tuple[int, ...]
    support: np.ndarray

    @property
    def bin_count(self) -> int:
        return len(self.counts)


def median_split(points, dim: int):
    """Split (m, d) points at the marginal median of coordinate ``dim``.

    The left subset receives the ceil(m/2) smallest points along ``dim``
    (ties resolved by stable input order), the right subset the remainder.
    The split coordinate is the midpoint of the two straddling order
    statistics.  Returns ``(left, right, split_coordinate)`` with subsets in
    their original row order.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise PreconditionError(f"median split points must be (m, d), got shape {pts.shape}")
    m = pts.shape[0]
    if m < 2:
        raise PreconditionError("median split requires at least 2 points")
    if not np.isfinite(pts).all():
        raise PreconditionError("median split points must be finite")
    require_int(0, dim=dim)
    if dim >= pts.shape[1]:
        raise PreconditionError(f"dimension index {dim} out of range for d={pts.shape[1]}")
    goes_right, split = _split_rows(pts[:, dim][None], np.empty(m))
    return pts[~goes_right[0]], pts[goes_right[0]], float(split[0])


def _split_rows(values: np.ndarray, scratch: np.ndarray):
    """Median-split the rows of (R, m) ``values``: the mask of entries going right, and the splits.

    The split is the midpoint of each row's k-th and (k+1)-th smallest values.  Rows
    of at most ``SORTED_ROW_MAX`` entries are sorted, and the two are read from
    columns k-1 and k; a longer row selects its k-th smallest value once, and the
    minimum of the values to its right is the next one.  Where the two tie, only a
    stable sort of the row knows which tied entries go left.  The sort or selection
    runs on a copy in ``scratch``, a flat float array of at least R*m entries that
    shares no storage with ``values``; the mask is a view of its first R*m bytes.
    """
    m = values.shape[1]
    k = (m + 1) // 2
    selected = np.ndarray(values.shape, float, scratch)  # a view, as is the mask below
    np.copyto(selected, values)
    if m <= SORTED_ROW_MAX:
        selected.sort(axis=1)
        above = selected[:, k].copy()
    else:  # a single kth takes numpy's SIMD quickselect; a tuple kth does not
        selected.partition(k - 1, axis=1)
        above = np.minimum.reduce(selected[:, k:], axis=1)
    below = selected[:, k - 1].copy()
    right = np.greater(values, below[:, None], out=np.ndarray(values.shape, bool, scratch))
    for row in (below == above).nonzero()[0]:  # the sort also orders -0.0 and 0.0
        order = values[row].argsort(kind="stable")
        below[row], above[row] = values[row, order[k - 1]], values[row, order[k]]
        right[row, order[:k]], right[row, order[k:]] = False, True
    return right, 0.5 * (below + above)


class Workspace:
    """Storage that :func:`leaf_boxes` reuses from one call to the next.

    A search calls the kernel hundreds of times on batches of one size.  Arrays that
    size, freed after every call, go back to the operating system and fault in again
    on the next, so a search keeps one workspace: the batch's points and three level
    buffers, each grown to the largest call so far and never shrunk.
    """

    def __init__(self):
        self._points = np.empty(0)
        self._levels = (np.empty(0),) * 3

    def points(self, a: int, d: int, n: int) -> np.ndarray:
        """A float array (A, d, N) to hold the points of the next call."""
        if self._points.size < a * d * n:
            self._points = np.empty(a * d * n)
        return np.ndarray((a, d, n), float, self._points)

    def levels(self, size: int) -> tuple:
        """Three flat float arrays of at least ``size`` entries with no storage in common."""
        if self._levels[0].size < size:
            self._levels = tuple(np.empty(size) for _ in range(3))
        return self._levels


def leaf_boxes(points: np.ndarray, depth: int, order, workspace: Workspace | None = None):
    """Leaves of the equiprobable trees of A finite point sets in column order, shape (A, d, N).

    Point i of set a is flat index a*d*N + i, so ``flat[dim*N:]`` reads coordinate
    ``dim`` without a copy.  After j splits every cell holds m = ceil(N/2^j) points or
    m - 1, so one ``_split_rows`` call splits a level: its (C*A, m) index matrix has a
    row per cell and set, cells in tree order.  A short cell's row ends in a pad valued
    -inf for odd m and +inf for even m: the selection at ceil(m/2) splits it as its own
    size would, and the pad, tying no finite value, ends up last in whichever child is
    short next.  The level arrays live in ``workspace`` (a new one if None).  Returns
    ``lower`` and ``upper`` (A, B, d), C-ordered and in tree order (left child before
    right, each root box its set's bounding box), and ``counts`` (B,).
    """
    a, d, n = points.shape
    flat = points.reshape(-1)
    lower, upper = points.min(axis=2)[:, None], points.max(axis=2)[:, None]  # fastest axis
    schedule = tuple(order) * depth
    cells = 1 << max(len(schedule) - 1, 0)  # the last level's matrix is the largest
    # a level's values overwrite the index rows of the level before, and its index rows
    # the values; the sort or selection, then the mask, take the third buffer
    idx_buf, val_buf, scratch = (workspace or Workspace()).levels(a * cells * -(-n // cells))
    idx, short, m = np.ndarray((a, n), np.intp, idx_buf), np.zeros(1, dtype=bool), n
    # a narrow ramp, cast in place: an intp temporary the size of idx would set the
    # peak of a large build, and of a kernel call on a warm workspace
    idx[:] = np.arange(n, dtype=np.min_scalar_type(-n))
    idx += (d * n * np.arange(a))[:, None]
    for j, dim in enumerate(schedule, 1):
        c, k, odd = len(short), (m + 1) // 2, m % 2 == 1
        values = np.ndarray(idx.shape, float, val_buf)
        flat[dim * n :].take(idx, out=values, mode="clip")  # clip: a fresh pad slot holds no index
        pad = -np.inf if odd else np.inf
        np.copyto(values.reshape(c, a, m)[:, :, -1], pad, where=short[:, None])
        right, split = _split_rows(values, scratch)
        lower, upper = lower.repeat(2, axis=1), upper.repeat(2, axis=1)
        upper[:, 0::2, dim] = lower[:, 1::2, dim] = split.reshape(c, a).T
        if j < len(schedule):  # the leaves need no index rows
            kids = np.ndarray((c, 2, a, k), np.intp, val_buf)  # (cell, side, set, entry)
            for goes, out in ((~right, kids[:, 0]), (right, kids[:, 1, :, : m - k])):
                # take would copy into a strided side through a new array: gather each
                # side in the third buffer, past the mask, and copy it into place
                past = np.ndarray(out.shape, np.intp, scratch, scratch.nbytes // 2)
                idx.take(goes.ravel().nonzero()[0].reshape(out.shape), out=past, mode="clip")
                np.copyto(out, past)
            idx, idx_buf, val_buf = kids.reshape(-1, k), val_buf, idx_buf
        short, m = short.repeat(2), k  # odd: every right child is short; even: no left child is
        short[odd::2] = odd
    return lower, upper, m - short


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
    closed bounding box of the samples, the kernel's root box; requires
    N >= 2**(depth*d) so every leaf holds at least one sample.
    """
    depth, order = split_schedule(samples, depth, cycle_order)
    if samples.d == 2 and depth > MAX_RECOMMENDED_BIVARIATE_DEPTH:
        warnings.warn(
            f"depth {depth} exceeds the recommended maximum of "
            f"{MAX_RECOMMENDED_BIVARIATE_DEPTH} for bivariate data; bins will be sample-starved",
            UserWarning,
            stacklevel=2,
        )
    lower, upper, counts = leaf_boxes(np.ascontiguousarray(samples.data.T)[None], depth, order)
    # no split moves the first leaf's lower corner or the last leaf's upper one
    support = np.array([lower[0, 0], upper[0, -1]])
    return Partition(lower[0], upper[0], counts, depth, samples.d, order, support)


def bin_volumes(partition: Partition, normalize: bool = False) -> np.ndarray:
    """Leaf volumes, raw or divided by the total so they sum to one."""
    return box_volumes(partition.lower, partition.upper, normalize)


def box_volumes(lower, upper, normalize: bool = False) -> np.ndarray:
    """Volumes of boxes (..., B, d), raw or divided by their total over B; raises if not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, by name
        widths = upper - lower
        # column multiplies from 1.0, left to right as prod's reduce, without its per-row
        # cost; a 0-D document's one box has volume 1, the empty product
        vols = np.ones(widths.shape[:-1])
        for dim in range(widths.shape[-1]):
            vols *= widths[..., dim]
        total = vols.sum(axis=-1, keepdims=True) if normalize else vols
    require_finite_volumes(total)
    if not normalize:
        return vols
    if (total <= 0.0).any():
        raise DegeneratePartitionError("cannot normalize volumes of a zero-volume partition")
    return vols / total


def require_finite_volumes(volumes) -> None:
    """Raise by name where bin volumes, or their total, overflowed float64."""
    if not np.isfinite(volumes).all():
        raise DegeneratePartitionError("bin volumes overflow float64; rescale the samples")


def partition_to_dict(partition: Partition) -> dict:
    """Plain-data representation of a partition for JSON export."""
    return {
        "support": {"lower": partition.support[0].tolist(), "upper": partition.support[1].tolist()},
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
    ``0..dims-1``, bin bounds that are not ``dims`` wide or are ragged,
    inverted or non-finite, a support that is not the bins' bounding box, and
    a stored volume that is not exactly the product of its bin's widths.
    """
    try:
        support = np.array([doc["support"]["lower"], doc["support"]["upper"]], dtype=float)
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
        or not np.all(np.isfinite(lower) & np.isfinite(upper) & (lower <= upper))
    ):
        raise PreconditionError("malformed partition document: bad bin bounds")
    if not np.array_equal(support, [lower.min(axis=0), upper.max(axis=0)]):  # -0.0 == 0.0
        raise PreconditionError("malformed partition document: support is not the bins' bounds")
    partition = Partition(lower, upper, counts, depth, dims, order, support)
    if not np.array_equal(volumes, bin_volumes(partition)):
        raise PreconditionError("malformed partition document: volume is not the product of widths")
    return partition

