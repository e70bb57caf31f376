"""Sample containers and rigid rotation of sample frames.

Rotations are encoded as Modified Rodrigues Parameters (MRP): a 3-vector
pointing along the rotation axis whose magnitude is tan(theta/4), so the
rotation angle is 4*arctan(norm(mrp)) and lies in [0, 2*pi) for any finite
vector.  Planar (2-D) rotations use an MRP about the z-axis, which
reproduces the usual counterclockwise rotation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePartitionError, PreconditionError

TWO_PI = 2.0 * np.pi


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class SampleSet:
    """An immutable n-by-d matrix of observations and its barycentre.

    The barycentre (per-dimension mean) is computed once at construction;
    bounds are reduced from ``data`` where they are used.  Rows must be
    finite; a 1-D input is treated as a single-feature sample.
    """

    def __init__(self, data):
        self._own(np.array(data, dtype=float))

    @classmethod
    def _adopt(cls, arr: np.ndarray, overflow: str | None = None) -> SampleSet:
        """A sample set over ``arr`` itself, not a copy: for a new array that no one else holds."""
        samples = cls.__new__(cls)
        samples._own(np.asarray(arr, dtype=float), overflow)
        return samples

    def _own(self, arr: np.ndarray, overflow: str | None = None) -> None:
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise PreconditionError("sample data must be a 2-D matrix (rows are observations)")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise PreconditionError("sample data must contain at least one row and one column")
        with np.errstate(over="ignore", invalid="ignore"):  # raised below, by name
            barycentre = arr.mean(axis=0)
        if not np.isfinite(barycentre).all():  # as it is wherever an entry is not finite
            if overflow:  # the caller's name for any non-finite entry or mean
                raise DegeneratePartitionError(overflow)
            if not np.isfinite(arr).all():
                raise PreconditionError("sample data must be finite in every entry")
            raise PreconditionError("sample mean overflows float64; rescale the samples")
        arr.setflags(write=False)
        self._data = arr
        self._barycentre = _readonly(barycentre)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @property
    def d(self) -> int:
        return self._data.shape[1]

    @property
    def barycentre(self) -> np.ndarray:
        return self._barycentre

    def __repr__(self):
        return f"SampleSet(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class Rotation:
    """A rotation encoded as an MRP 3-vector; magnitude is tan(angle/4)."""

    mrp: np.ndarray

    def __post_init__(self):
        mrp = _readonly(self.mrp)
        if mrp.shape != (3,):
            raise PreconditionError("MRP must be a 3-vector")
        if not np.isfinite(mrp).all():
            raise PreconditionError("MRP must be finite")
        object.__setattr__(self, "mrp", mrp)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.zeros(3))

    @property
    def angle(self) -> float:
        """Rotation angle in radians, in [0, 2*pi)."""
        with np.errstate(over="ignore"):  # an infinite norm is a whole turn: angle 0
            return normalize_angle(4.0 * np.arctan(np.linalg.norm(self.mrp)))


def normalize_angle(theta):
    """Reduce a float angle to a float, or an array of them to an array, in [0, 2*pi)."""
    reduced = np.remainder(np.asarray(theta, dtype=float), TWO_PI)  # Python's float % here
    # the remainder can be the modulus itself where it underflows
    reduced = np.where(reduced == TWO_PI, 0.0, reduced)
    return reduced if np.ndim(theta) else float(reduced)


def mrp_from_angle_2d(theta: float) -> Rotation:
    """MRP for a planar rotation by ``theta`` about the z-axis.

    ``theta`` must already lie in [0, 2*pi); callers composing angles should
    reduce them with :func:`normalize_angle` first.
    """
    if not (0.0 <= theta < TWO_PI):
        raise PreconditionError(f"rotation angle {theta!r} outside [0, 2*pi)")
    return Rotation(np.array([0.0, 0.0, np.tan(theta / 4.0)]))


def rotation_matrices(mrps, d: int) -> np.ndarray:
    """Rotation matrices (A, d, d), determinant +1, of the (A, 3) MRPs ``mrps``.

    This is the one map from MRPs to matrices.  For d=2 every MRP must be
    z-axis only, and ``[0, 0, z]`` gives [[cos, -sin], [sin, cos]] of the
    signed angle 4*arctan(z): the upper-left block of its d=3 matrix.
    """
    mrps = np.asarray(mrps, dtype=float)
    if mrps.ndim != 2 or mrps.shape[1] != 3 or not np.isfinite(mrps).all():
        raise PreconditionError("MRPs must be an (A, 3) array of finite values")
    if d == 2:
        if np.any(mrps[:, :2] != 0.0):
            raise PreconditionError("2-D rotation requires a z-axis MRP (zero x/y components)")
        theta = 4.0 * np.arctan(mrps[:, 2])
        c, s = np.cos(theta), np.sin(theta)
        matrices = np.empty((len(theta), 2, 2))  # filled in place: np.stack costs twice as much
        matrices[:, 0, 0], matrices[:, 0, 1], matrices[:, 1, 0], matrices[:, 1, 1] = c, -s, s, c
        return matrices
    if d == 3:
        skew = np.zeros((len(mrps), 3, 3))  # row i is e_i x mrp; np.cross costs twice as much
        skew[:, [2, 0, 1], [1, 2, 0]], skew[:, [1, 2, 0], [2, 0, 1]] = mrps, -mrps
        s2 = mrps[:, None, :] @ mrps[:, :, None]
        # libm pow, as a Python float's ** takes it; an ndarray ** 2 multiplies instead
        denom = np.float_power(1.0 + s2, 2.0)
        return np.eye(3) + (4.0 * (1.0 - s2) / denom) * skew + (8.0 / denom) * (skew @ skew)
    raise PreconditionError(f"rotation matrices are supported for d in {{2, 3}}, got d={d}")


def mrp_from_quaternion(q) -> np.ndarray:
    """MRPs (..., 3), of norm at most 1, of unit quaternions (..., 4), the scalar part q0 first.

    q and -q are one turn, mapped as the one with q0 >= 0: q[1:] / (1 + q0).  The map is
    elementwise, so a quaternion maps to the same bits alone as in a stack.
    """
    q = np.asarray(q, dtype=float)
    return q[..., 1:] * np.copysign(1.0, q[..., :1]) / (1.0 + np.abs(q[..., :1]))


def rotate(samples: SampleSet, rot: Rotation) -> SampleSet:
    """Rotate samples about their barycentre, leaving them centred at the origin.

    The frame is not translated back, as bin volumes and entropy are
    translation-invariant; centring or rotation that overflows float64 raises by name,
    and :func:`rotation_matrices` decides which dimensions rotate.
    """
    centred = centre(samples)
    with np.errstate(over="ignore", invalid="ignore"):  # raised by SampleSet, by name
        rotated = centred @ rotation_matrices(rot.mrp[None], samples.d)[0].T
    # its one finiteness check, the mean's, also covers rows whose column sum overflows
    return SampleSet._adopt(rotated, "rotated samples overflow float64; rescale the samples")


def centre(samples: SampleSet) -> np.ndarray:
    """``samples.data`` less its barycentre; raises by name where that overflows float64."""
    with np.errstate(over="ignore"):  # raised below, by name
        centred = samples.data - samples.barycentre
    if not np.isfinite(centred).all():
        raise DegeneratePartitionError("centred samples overflow float64; rescale the samples")
    return centred
