"""Shared oracles for the test suite.

These helpers deliberately do not reuse library internals: membership
recounts and reference partitions are reimplemented from scratch so they can
serve as independent checks of the production code paths.
"""

import math
import statistics

import numpy as np

# every count argument must refuse each of these by name: a fraction, an
# integral float, NaN, infinity and a negative
BAD_COUNTS = (2.5, 2.0, math.nan, math.inf, -1)


def recount_by_membership(data, bins_lower, bins_upper, support_upper):
    """Brute-force sample counts per bin under the closed-open box convention.

    Boxes are closed below and open above, except on faces coinciding with
    the support's upper boundary, which are closed.
    """
    data = np.asarray(data, dtype=float)
    support_upper = np.asarray(support_upper, dtype=float)
    counts = []
    for lo, up in zip(bins_lower, bins_upper):
        lo = np.asarray(lo, dtype=float)
        up = np.asarray(up, dtype=float)
        upper_ok = np.where(up == support_upper, data <= up, data < up)
        inside = np.all((data >= lo) & upper_ok, axis=1)
        counts.append(int(np.count_nonzero(inside)))
    return counts


def reference_partition_volumes(points, depth, cycle_order):
    """Independent recursive reimplementation of the equiprobable partition.

    Splits lists of points at marginal medians (midpoint of the straddling
    order statistics, stable ties) and returns ``(volumes, counts)`` of the
    leaves, in the production leaf order (left child before right).
    """
    points = [tuple(row) for row in np.asarray(points, dtype=float)]
    d = len(points[0])
    lower = [min(p[i] for p in points) for i in range(d)]
    upper = [max(p[i] for p in points) for i in range(d)]
    cells = [(list(lower), list(upper), points)]
    for _ in range(depth):
        for dim in cycle_order:
            nxt = []
            for lo, hi, pts in cells:
                order = sorted(range(len(pts)), key=lambda i: (pts[i][dim], i))
                k = (len(pts) + 1) // 2
                split = 0.5 * (pts[order[k - 1]][dim] + pts[order[k]][dim])
                left = [pts[i] for i in sorted(order[:k])]
                right = [pts[i] for i in sorted(order[k:])]
                lhi = list(hi)
                lhi[dim] = split
                rlo = list(lo)
                rlo[dim] = split
                nxt.append((lo, lhi, left))
                nxt.append((rlo, hi, right))
            cells = nxt
    vols = [float(np.prod([h - l for l, h in zip(lo, hi)])) for lo, hi, _ in cells]
    return vols, [len(pts) for _, _, pts in cells]


def gaussian_quantile_entropy(points, angle, per_axis):
    """Closed-form entropy of a 2-D standard Gaussian on its quantile grid, in bits.

    The grid cuts each axis at the standard-normal quantiles j/per_axis, so
    every one of the per_axis**2 cells holds probability 1/per_axis**2; its
    outer faces are the extremes of the sample, centred and then rotated by
    ``angle`` with [[cos, -sin], [sin, cos]].  This is the value an
    equiprobable estimate of that depth converges to as its median cuts
    settle on the quantiles, tail bins included.
    """
    cuts = [statistics.NormalDist().inv_cdf(j / per_axis) for j in range(1, per_axis)]
    c, s = math.cos(angle), math.sin(angle)
    pts = np.asarray(points, dtype=float)
    rotated = (pts - pts.mean(axis=0)) @ np.array([[c, -s], [s, c]]).T
    total = 0.0
    for axis in range(2):
        faces = [float(rotated[:, axis].min())] + cuts + [float(rotated[:, axis].max())]
        widths = [hi - lo for lo, hi in zip(faces, faces[1:])]
        total += math.log2(per_axis) + sum(math.log2(w) for w in widths) / per_axis
    return total


def circular_distance(a, b):
    """Shortest angular distance between two angles in radians."""
    diff = abs(a - b) % (2.0 * np.pi)
    return min(diff, 2.0 * np.pi - diff)
