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
them.  In 3-D the scan is the identity and a super-Fibonacci spiral over SO(3)
(Alexa, CVPR 2022), and golden-section sweeps over each coordinate plane's
Givens angle, as in RADICAL (Learned-Miller & Fisher, JMLR 2003), polish its
best points.  Both searches advance all their local runs in lock-step, so every
round of probes is one batched call of the partition kernel, and so can the
searches of sample sets of one size.  Everything is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import PreconditionError, require_int
from .estimators import METHOD_ROTATED, EntropyEstimate, partition_estimate
from .geometry import (
    TWO_PI,
    Rotation,
    SampleSet,
    centre,
    mrp_from_angle_2d,
    mrp_from_matrix,
    normalize_angle,
    rotate,
    rotation_matrices,
)
from .partition import (
    Partition,
    Workspace,
    box_volumes,
    build_equiprobable,
    leaf_boxes,
    split_schedule,
)

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_PSI = 1.5337511687552043  # the root of psi**4 = psi + 4 that spaces the super-Fibonacci spiral

# rotated points per kernel call in either search: a batch holds
# max(1, BATCH_SAMPLES // N) angles, which bounds its memory at any N
BATCH_SAMPLES = 2**14

# a golden-section run stops when its variances agree this far
TOLERANCE = 1e-10
# the 3-D polish: at most this many seeds and golden-section steps per plane, and its sweeps
SEEDS_3D, STEPS_3D, SWEEPS_3D = 4, 10, 2


@dataclass(frozen=True)
class OptimizerConfig:
    """Derivative-free search settings.

    In 2-D, ``scan_points`` equispaced angles are evaluated first and the
    ``starts`` best distinct local basins are polished by golden-section of
    up to ``max_iterations`` steps; the scan density is what guarantees
    global quality against the many narrow minima of the objective.
    ``eigenvector_start`` additionally seeds from the orientations aligning
    the leading sample-covariance eigenvector with a coordinate axis.  In 3-D
    the scan is the identity and ``2 * scan_points - 1`` super-Fibonacci
    rotations; its ``starts`` best, at most ``SEEDS_3D``, seed ``SWEEPS_3D``
    sweeps of up to ``max_iterations`` (at most ``STEPS_3D``) golden-section
    steps on each coordinate plane's Givens angle; ``eigenvector_start`` is
    unused.  Local runs advance in lock-step, one batched evaluation a round.
    """

    starts: int = 16
    max_iterations: int = 96
    eigenvector_start: bool = True
    scan_points: int = 1024

    def __post_init__(self):
        counts = {name: getattr(self, name) for name in ("starts", "max_iterations", "scan_points")}
        require_int(1, **counts)


@dataclass(frozen=True)
class ObjectiveEvaluation:
    """Variance of normalized bin volumes at one orientation, and the partition built there."""

    variance: float
    partition: Partition
    converged: bool = True


def volume_variance(
    samples: SampleSet, rot: Rotation, depth: int, cycle_order=None
) -> ObjectiveEvaluation:
    """Rotate, partition, and return the population variance of normalized volumes."""
    partition = build_equiprobable(rotate(samples, rot), depth, cycle_order)
    variance = float(_row_variances(box_volumes(partition.lower, partition.upper, normalize=True)))
    return ObjectiveEvaluation(variance, partition)


def optimise_rotation(
    samples: SampleSet, depth: int, config: OptimizerConfig | None = None, cycle_order=None
):
    """Find the orientation minimising the bin-volume variance.

    Returns ``(rotation, evaluation)``: :func:`volume_variance` at the winning
    orientation, whose variance is bit for bit the one the search found, and
    whether the winning local run met its tolerance.  The result never exceeds
    the objective at any scan point, the identity among them in 3-D; exact ties
    are broken toward the smallest rotation angle so results are reproducible.
    """
    return optimise_rotations([samples], depth, config, cycle_order)[0]


def optimise_rotations(sample_sets, depth: int, config=None, cycle_order=None) -> list:
    """:func:`optimise_rotation` of each of sample sets sharing N and d, bit for bit.

    Every set's preconditions are checked before any search starts.  A search yields
    requests ``(centred samples, MRPs)`` and is sent their variances; the searches run in
    lock-step, a round one :func:`_variances` call on one workspace, which outlives every batch.
    """
    config, searches, order = config or OptimizerConfig(), [], None
    for samples in sample_sets:
        if samples.d not in (2, 3):
            raise PreconditionError(
                f"rotation optimization requires d in {{2, 3}}, got d={samples.d}"
            )
        if samples.data.shape != sample_sets[0].data.shape:
            raise PreconditionError("sample sets searched together must share N and d")
        depth, order = split_schedule(samples, depth, cycle_order)
        centred = centre(samples)  # leaf_boxes needs finite points
        if samples.d == 3:
            searches.append(_optimise_3d(centred, config))
        else:
            eigen = config.eigenvector_start and samples.n >= 2
            extra = _eigenvector_angles_2d(samples) if eigen else []
            searches.append(_optimise_2d(centred, config, extra))
    workspace = Workspace()
    results = _drive(_lockstep(searches), lambda r: _variances(r, depth, order, workspace))
    return [
        (rot, replace(volume_variance(s, rot, depth, order), converged=ok))
        for s, (rot, ok) in zip(sample_sets, results)
    ]


def entropy_rotated(
    samples: SampleSet, depth: int, cycle_order=None, *, config: OptimizerConfig | None = None
) -> EntropyEstimate:
    """Equiprobable entropy at the optimal rotational alignment; ``config`` sets the search."""
    rot, evaluation = optimise_rotation(samples, depth, config, cycle_order)
    return partition_estimate(evaluation.partition, METHOD_ROTATED, rot)


def _optimise_2d(centred, config, extra):
    def request(thetas):
        mrps = np.zeros((len(thetas), 3))
        mrps[:, 2] = np.tan(normalize_angle(thetas) / 4.0)
        return centred, mrps

    scan_angles = TWO_PI * np.arange(config.scan_points) / config.scan_points
    angles = np.concatenate([scan_angles, extra])  # each already in [0, 2*pi)
    values = np.array((yield request(angles)))

    # (variance, canonical angle, converged); smallest-angle wins exact ties; of the scan only
    # its best is kept, as every search of a group holds its candidates through the polish
    best = np.lexsort((angles, values))[0]
    candidates = [(float(values[best]), float(angles[best]), True)]
    seeds = _best_basin_seeds(values[: len(scan_angles)], scan_angles, config.starts) + extra

    step = TWO_PI / config.scan_points  # each polish brackets one scan step either side
    runs = [_golden_section(s - step, s + step, config.max_iterations) for s in seeds]
    polished = yield from _lockstep(runs, request)
    candidates += [(value, normalize_angle(x), ok) for x, value, ok in polished]

    _, angle, converged = min(candidates, key=lambda c: (c[0], c[1]))
    return mrp_from_angle_2d(angle), converged


def _variances(requests, depth, order, workspace) -> list[list]:
    """Per ``(centred samples, MRPs)`` request sharing N and d, ``volume_variance`` at each MRP."""
    n, d = requests[0][0].shape
    bounds = [0, *accumulate(len(mrps) for _, mrps in requests)]
    batch = max(1, BATCH_SAMPLES // n)
    variances = []
    with np.errstate(over="ignore", invalid="ignore"):  # box_volumes names an overflowing rotation
        matrices = rotation_matrices(np.concatenate([mrps for _, mrps in requests]), d)
        for start in range(0, len(matrices), batch):
            stop = min(start + batch, len(matrices))
            points = workspace.points(stop - start, d, n)
            # (A, d, N) as the kernel reads it; R @ X.T keeps the bits of rotate's X @ R.T
            for (centred, _), first, end in zip(requests, bounds, bounds[1:]):
                i, j = max(start, first), min(stop, end)  # the request's part of the batch
                if i < j:
                    np.matmul(matrices[i:j], centred.T, out=points[i - start : j - start])
            lower, upper, _ = leaf_boxes(points, depth, order, workspace)
            variances.extend(_row_variances(box_volumes(lower, upper, normalize=True)).tolist())
    return [variances[i:j] for i, j in zip(bounds, bounds[1:])]


def _row_variances(volumes: np.ndarray) -> np.ndarray:
    """Population variance over the last axis: numpy's variance ufuncs, without its wrappers."""
    b = volumes.shape[-1]
    dev = volumes - np.add.reduce(volumes, axis=-1, keepdims=True) / b
    return np.add.reduce(dev * dev, axis=-1) / b


def _best_basin_seeds(values, angles, starts: int) -> list[float]:
    """Angles of the ``starts`` best distinct local minima of a cyclic scan of arrays."""
    minima = ((values < np.roll(values, 1)) & (values <= np.roll(values, -1))).nonzero()[0]
    if not len(minima):  # flat scan; any angle does, prefer the smallest
        minima = np.argmin(values)[None]
    minima = minima[np.lexsort((angles[minima], values[minima]))]
    return angles[minima[:starts]].tolist()


def _eigenvector_angles_2d(samples) -> list[float]:
    """Rotations aligning the leading sample-covariance eigenvector with each axis."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised below, by name
        cov = np.cov(samples.data.T)
    if not np.isfinite(cov).all():
        raise PreconditionError("sample covariance overflows float64; rescale the samples")
    leading = np.linalg.eigh(cov)[1][:, -1]
    phi = float(np.arctan2(leading[1], leading[0]))
    return [normalize_angle(-phi), normalize_angle(np.pi / 2.0 - phi)]


def _golden_section(a, b, max_iterations):
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
        if (b - a) <= 1e-12 or abs(fc - fd) <= TOLERANCE:
            return best_x, best_f, True
    return best_x, best_f, False


def _drive(rounds, answer):
    """Send each request ``rounds`` yields its ``answer``; return what ``rounds`` returns."""
    try:
        requests = next(rounds)
        while True:
            requests = rounds.send(answer(requests))
    except StopIteration as done:
        return done.value


def _lockstep(runs, request=list):
    """Search generators run in lock-step, as one: a round yields ``request`` of their probes."""
    results = [None] * len(runs)
    pending = {i: run.send(None) for i, run in enumerate(runs)}
    while pending:
        live = list(pending)
        values = yield request([pending[i] for i in live])
        for i, value in zip(live, values):
            try:
                pending[i] = runs[i].send(value)
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


def _optimise_3d(centred, config):
    n = 2 * config.scan_points  # the identity, then all but the last point of an n-point spiral
    mrps = np.concatenate([np.zeros((1, 3)), _super_fibonacci_mrps(n)[:-1]])
    values = yield centred, mrps
    # seeds and winner ranked by variance, then rotation angle (which grows with the MRP's norm);
    # h is about the scan's spacing, in radians
    seeds = np.lexsort((np.linalg.norm(mrps, axis=1), values))[: min(config.starts, SEEDS_3D)]
    h, steps = (8.0 * np.pi**2 / n) ** (1.0 / 3.0), min(config.max_iterations, STEPS_3D)
    runs = [_plane_sweeps(mrps[i], values[i], h, steps) for i in seeds]
    polished = yield from _lockstep(runs, lambda ms: (centred, mrp_from_matrix(np.array(ms))))
    mrp, _, converged = min(polished, key=lambda r: (r[1], Rotation(r[0]).angle))
    return Rotation(mrp), converged


def _super_fibonacci_mrps(n: int) -> np.ndarray:
    """MRPs of Alexa's super-Fibonacci spiral of n unit quaternions over SO(3), each q0 >= 0."""
    s = np.arange(n) + 0.5
    r, r_c = np.sqrt(s / n), np.sqrt(1.0 - s / n)
    alpha, beta = TWO_PI * s / np.sqrt(2.0), TWO_PI * s / _PSI
    q = np.column_stack([r * np.sin(alpha), r * np.cos(alpha), r_c * np.sin(beta), r_c * np.cos(beta)])
    return q[:, 1:] * np.copysign(1.0, q[:, :1]) / (1.0 + np.abs(q[:, :1]))


def _plane_sweeps(mrp, value, h, steps):
    """Sweeps of golden-section steps on each coordinate plane's Givens angle in [-h, h].

    A generator like :func:`_golden_section` that yields G(theta) times the kept matrix, at
    first ``mrp``'s; a step is kept only if it lowers ``value``, and h halves after each sweep.
    Returns ``(mrp, value, converged)``, converged if the last sweep moved no plane.
    """

    def turn(theta):  # G(theta) times the kept matrix, G turning coordinate plane (i, j)
        c, s, product = math.cos(theta), math.sin(theta), matrix.copy()
        product[i], product[j] = c * matrix[i] - s * matrix[j], s * matrix[i] + c * matrix[j]
        return product

    matrix = rotation_matrices(mrp[None], 3)[0]
    for _ in range(SWEEPS_3D):
        moved = False
        for i, j in ((0, 1), (0, 2), (1, 2)):
            theta, f, _ = yield from _probing(_golden_section(-h, h, steps), turn)
            if f < value:
                matrix, value = turn(theta), f
                mrp = mrp_from_matrix(matrix[None])[0]  # the bits the probe requested
                moved |= abs(theta) > TOLERANCE
        h /= 2.0
    return mrp, value, not moved


def _probing(run, probe):
    """The search generator ``run`` with ``probe`` of each point it yields yielded instead."""
    point = next(run)
    while True:
        try:
            point = run.send((yield probe(point)))
        except StopIteration as done:
            return done.value
