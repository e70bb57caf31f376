"""Rotational alignment of equiprobable partitions.

The orientation of an equiprobable partition is a free parameter of the
entropy estimator.  The objective minimised here is the population variance
of the normalized leaf volumes.  A marginal-aligned box partition of
correlated data stretches across corner regions the sample never visits,
inflating both the volume spread and the support term of the estimate; the
minimum-variance orientation sheds that geometry-injected volume, which is
what moves the estimate toward the true entropy on correlated data.

The objective is continuous but only piecewise smooth, with many local
minima: kinks appear wherever a rotation reorders sample coordinates, and
competitive basins can be a few milliradians wide.  Alignment is therefore
derivative-free and deliberately dense in 2-D: a deterministic uniform angle
scan locates the candidate basins and golden-section polishes the best of
them.  3-D alignment runs multi-start Nelder-Mead over the MRP vector.  Both
searches advance all their local runs in lock-step, so every round of probes
is one batched call of the partition kernel.  Everything is deterministic;
there is no randomness in the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DegeneratePartitionError, PreconditionError
from .estimators import METHOD_ROTATED, EntropyEstimate, entropy_equiprobable
from .geometry import (
    TWO_PI,
    Rotation,
    SampleSet,
    mrp_from_angle_2d,
    normalize_angle,
    rotate,
    rotation_matrix,
)
from .partition import Partition, bin_volumes, build_equiprobable, leaf_boxes

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

# rotated points per kernel call in either search: a batch holds
# max(1, BATCH_SAMPLES // N) angles, which bounds its memory at any N
BATCH_SAMPLES = 2**14


@dataclass(frozen=True)
class OptimizerConfig:
    """Derivative-free search settings.

    In 2-D, ``scan_points`` equispaced angles are evaluated first and the
    ``starts`` best distinct local basins are polished by golden-section;
    the scan density is what guarantees global quality against the many
    narrow minima of the objective.  ``eigenvector_start`` additionally
    seeds from the orientations aligning the leading sample-covariance
    eigenvector with a coordinate axis.  In 3-D, ``starts`` seeds
    Nelder-Mead runs over the MRP vector.  Either way the local runs (polish
    or Nelder-Mead) advance in lock-step, one batched evaluation per round.
    """

    starts: int = 16
    max_iterations: int = 96
    tolerance: float = 1e-10
    eigenvector_start: bool = True
    scan_points: int = 1024

    def __post_init__(self):
        for name in ("starts", "max_iterations", "scan_points"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise PreconditionError(f"{name} must be a positive integer, got {value!r}")
        if not self.tolerance > 0:  # also rejects NaN
            raise PreconditionError(f"tolerance must be positive, got {self.tolerance!r}")


@dataclass(frozen=True)
class ObjectiveEvaluation:
    """Variance of normalized bin volumes at one orientation."""

    rotation: Rotation
    variance: float
    partition: Optional[Partition] = None
    converged: bool = True


def volume_variance(
    samples: SampleSet, rot: Rotation, depth: int, cycle_order=None
) -> ObjectiveEvaluation:
    """Rotate, partition, and return the population variance of normalized volumes."""
    partition = build_equiprobable(rotate(samples, rot), depth, cycle_order)
    variance = float(np.var(bin_volumes(partition, normalize=True)))
    return ObjectiveEvaluation(rotation=rot, variance=variance, partition=partition)


def optimise_rotation(
    samples: SampleSet, depth: int, config: OptimizerConfig | None = None, cycle_order=None
):
    """Find the orientation minimising the bin-volume variance.

    Returns ``(rotation, evaluation)`` where the evaluation carries the
    variance and the partition built at the winning orientation.  The result
    never exceeds the objective at any start point; exact ties are broken
    toward the smallest rotation angle so results are reproducible.
    """
    config = config or OptimizerConfig()
    if samples.d not in (2, 3):
        raise PreconditionError(f"rotation optimization requires d in {{2, 3}}, got d={samples.d}")
    # one full build validates depth, sample count, and cycle order up front
    build_equiprobable(samples, depth, cycle_order)
    order = tuple(range(samples.d)) if cycle_order is None else tuple(int(i) for i in cycle_order)
    centred = samples.data - samples.barycentre
    search = _optimise_2d if samples.d == 2 else _optimise_3d
    rot, converged = search(samples, centred, depth, order, config)
    best = replace(volume_variance(samples, rot, depth, cycle_order), converged=converged)
    return best.rotation, best


def entropy_rotated(
    samples: SampleSet, depth: int, config: OptimizerConfig | None = None, cycle_order=None
) -> EntropyEstimate:
    """Equiprobable entropy of ``samples`` at the optimal rotational alignment."""
    rot, evaluation = optimise_rotation(samples, depth, config, cycle_order)
    return EntropyEstimate(
        value=entropy_equiprobable(evaluation.partition),
        method=METHOD_ROTATED,
        depth=depth,
        bin_count=evaluation.partition.bin_count,
        rotation=rot,
    )


def _optimise_2d(samples, centred, depth, order, config):
    def objective(thetas) -> list[float]:
        return _variances(centred, _planar_matrices(thetas), depth, order)

    scan_angles = [TWO_PI * i / config.scan_points for i in range(config.scan_points)]
    extra = _eigenvector_angles_2d(samples) if config.eigenvector_start and samples.n >= 2 else []
    angles = scan_angles + extra
    values = objective(angles)

    # (variance, canonical angle, converged); smallest-angle wins exact ties
    candidates = [(value, normalize_angle(angle), True) for value, angle in zip(values, angles)]
    seeds = _best_basin_seeds(values[: len(scan_angles)], scan_angles, config.starts) + extra

    step = TWO_PI / config.scan_points  # each polish brackets one scan step either side
    runs = [
        _golden_section(s - step, s + step, config.max_iterations, config.tolerance) for s in seeds
    ]
    candidates += [(value, normalize_angle(x), ok) for x, value, ok in _lockstep(objective, runs)]

    variance, angle, converged = min(candidates, key=lambda c: (c[0], c[1]))
    return mrp_from_angle_2d(angle), converged


def _planar_matrices(thetas) -> np.ndarray:
    """``rotation_matrix(mrp_from_angle_2d(normalize_angle(theta)), 2).T`` per angle, bitwise."""
    tan = np.tan(np.array([normalize_angle(theta) for theta in thetas]) / 4.0)
    angles = 4.0 * np.arctan(np.sqrt(tan * tan))
    cos, sin = np.cos(angles), np.sin(angles)
    return np.stack([cos, -sin, sin, cos], axis=1).reshape(-1, 2, 2).transpose(0, 2, 1)


def _variances(centred, matrices, depth, order) -> list[float]:
    """``volume_variance`` in each frame ``centred @ matrices[i]``, bit for bit, in batches."""
    batch = max(1, BATCH_SAMPLES // len(centred))
    variances = []
    for start in range(0, len(matrices), batch):
        lower, upper, _ = leaf_boxes(centred @ matrices[start : start + batch], depth, order)
        vols = np.prod(upper - lower, axis=2)
        total = vols.sum(axis=1, keepdims=True)
        if np.any(total <= 0.0):
            raise DegeneratePartitionError("rotated samples span a zero-volume support")
        variances.extend(np.var(vols / total, axis=1).tolist())
    return variances


def _best_basin_seeds(values, angles, starts: int) -> list[float]:
    """Angles of the ``starts`` best distinct local minima of a cyclic scan."""
    m = len(values)
    minima = [
        i
        for i in range(m)
        if values[i] < values[(i - 1) % m] and values[i] <= values[(i + 1) % m]
    ]
    if not minima:  # flat scan; any angle does, prefer the smallest
        minima = [int(np.argmin(values))]
    minima.sort(key=lambda i: (values[i], angles[i]))
    return [angles[i] for i in minima[:starts]]


def _eigenvector_angles_2d(samples) -> list[float]:
    """Rotations aligning the leading covariance eigenvector with each axis."""
    cov = np.cov(samples.data.T)
    _, vecs = np.linalg.eigh(cov)
    leading = vecs[:, -1]
    phi = float(np.arctan2(leading[1], leading[0]))
    return [normalize_angle(-phi), normalize_angle(np.pi / 2.0 - phi)]


def _golden_section(a, b, max_iterations, tolerance):
    """Golden-section minimization on [a, b], as a generator.

    It yields each point to probe, is sent the objective there, and returns
    ``(point, value, converged)``: the best probe overall, so the result can
    only improve on the bracket seeds even if the bracket is not unimodal.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = yield c
    fd = yield d
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(max_iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = yield d
        if fc <= best_f:
            best_x, best_f = c, fc
        if fd < best_f:
            best_x, best_f = d, fd
        if (b - a) <= 1e-12 or abs(fc - fd) <= tolerance:
            return best_x, best_f, True
    return best_x, best_f, False


def _nelder_mead(x0, max_iterations, xatol, fatol):
    """Nelder-Mead minimization from ``x0``, as a generator like :func:`_golden_section`.

    Unbounded, non-adaptive steps (reflection 1, expansion 2, contraction and
    shrink 1/2) in the exact arithmetic of the reference the tests compare it
    with, so both probe the same points.  Returns ``(point, value, converged)``
    for the best vertex; converged means both tolerances held before ``max_iterations``.
    """
    n = len(x0)
    sim = np.array([x0] * (n + 1), dtype=float)
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.empty(n + 1)
    for k in range(n + 1):
        fsim[k] = yield sim[k].copy()
    for iteration in range(1, max_iterations + 1):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
        if iteration == max_iterations or (
            np.abs(sim[1:] - sim[0]).max() <= xatol and np.abs(fsim[0] - fsim[1:]).max() <= fatol
        ):
            return sim[0], float(fsim[0]), iteration < max_iterations
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = yield xr
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = yield xe
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # contract outside the simplex if the reflection beat the worst vertex, else inside
            outside = fxr < fsim[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fxc = yield xc
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = yield sim[j].copy()


def _lockstep(objective, runs) -> list[tuple]:
    """Run search generators in rounds of one ``objective`` call; return their results."""
    results = [None] * len(runs)
    pending = {i: run.send(None) for i, run in enumerate(runs)}
    while pending:
        live = list(pending)
        for i, value in zip(live, objective([pending[i] for i in live])):
            try:
                pending[i] = runs[i].send(value)
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


def _optimise_3d(samples, centred, depth, order, config):
    def objective(mrps) -> list[float]:
        matrices = np.stack([rotation_matrix(Rotation(mrp), 3).T for mrp in mrps])
        return _variances(centred, matrices, depth, order)

    starts = [np.zeros(3)]
    n_axes = max(1, (config.starts - 1) // 3)
    for axis in _fibonacci_axes(n_axes):
        for angle in (np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0):
            starts.append(np.tan(angle / 4.0) * axis)
    if config.eigenvector_start and samples.n >= 2:
        eig = _eigenvector_mrp_3d(samples)
        if eig is not None:
            starts.append(eig)

    seed_values = objective(starts)
    runs = [_nelder_mead(x0, config.max_iterations, 1e-8, config.tolerance) for x0 in starts]
    candidates = []  # (variance, rotation angle, MRP, converged): each seed, then its run
    for x0, seed_var, (mrp, value, ok) in zip(starts, seed_values, _lockstep(objective, runs)):
        candidates.append((seed_var, Rotation(x0).angle, x0, True))
        candidates.append((value, Rotation(mrp).angle, mrp, ok))

    variance, _, mrp, converged = min(candidates, key=lambda c: (c[0], c[1]))
    return Rotation(mrp), converged


def _fibonacci_axes(m: int) -> np.ndarray:
    """m roughly uniform unit axes from the golden-angle spiral on the sphere."""
    i = np.arange(m)
    z = 1.0 - 2.0 * (i + 0.5) / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = TWO_PI * i / ((1.0 + np.sqrt(5.0)) / 2.0)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _eigenvector_mrp_3d(samples) -> np.ndarray | None:
    """MRP rotating the leading covariance eigenvector onto the x-axis."""
    cov = np.cov(samples.data.T)
    _, vecs = np.linalg.eigh(cov)
    e = vecs[:, -1]
    target = np.array([1.0, 0.0, 0.0])
    cross = np.cross(e, target)
    norm = np.linalg.norm(cross)
    if norm < 1e-12:
        return None
    angle = float(np.arccos(np.clip(e @ target, -1.0, 1.0)))
    return np.tan(angle / 4.0) * (cross / norm)
