"""Closed-form truths that do not come from a Gaussian, and the bias's scale law.

A uniform density on a box R·[a, b] has entropy log2 of the box's volume, and
the rotation that aligns it, the inverse of R, is known.  These tests pin the
estimator at that alignment apart from any search, the searches against it,
and a 3-D case where a lower volume variance buys a worse estimate: at depth 1
the minimum-variance orientation is not the aligned one.
"""

import functools
import math

import numpy as np
import pytest

from entropart import (
    Rotation,
    SampleSet,
    entropy_equiprobable,
    entropy_equiprobable_estimate,
    entropy_rotated,
    mrp_from_angle_2d,
    normalize_angle,
    optimise_rotation,
    random_covariance,
    sample_gaussian,
    theoretical_entropy,
    volume_variance,
)
from entropart.geometry import rotation_matrices

SEEDS = (0, 1, 2)
# the 4 x 1 rectangle holds 2 bits; the 4 x 1 x 0.25 box 0 bits
HALF_WIDTHS = {2: (2.0, 0.5), 3: (2.0, 0.5, 0.125)}
SIZES = {2: 1024, 3: 4096}


@functools.lru_cache(maxsize=None)
def rotated_box(d, seed):
    """N uniform draws on R·box, the MRP of R and the truth in bits.

    R turns by a random angle in 2-D and is a random unit quaternion in 3-D.
    """
    rng = np.random.default_rng([seed, d])
    if d == 2:
        mrp = mrp_from_angle_2d(rng.uniform(0.0, 2.0 * np.pi)).mrp
    else:
        q = rng.normal(size=4)
        q *= np.sign(q[0]) / np.linalg.norm(q)
        mrp = q[1:] / (1.0 + q[0])
    half = np.array(HALF_WIDTHS[d])
    box = rng.uniform(-1.0, 1.0, (SIZES[d], d)) * half
    samples = SampleSet(box @ rotation_matrices(Rotation(mrp).mrp[None], d)[0].T)
    return samples, mrp, float(np.sum(np.log2(2.0 * half)))


def known_alignment(d, seed, depth):
    """``volume_variance`` at the inverse of R: the MRP -m, in 2-D the angle -theta."""
    samples, mrp, _ = rotated_box(d, seed)
    if d == 2:  # a 2-D MRP [0, 0, tan(theta/4)] has theta in [0, 2*pi)
        inverse = mrp_from_angle_2d(normalize_angle(-Rotation(mrp).angle))
    else:
        inverse = Rotation(-mrp)
    return volume_variance(samples, inverse, depth)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [2, 3])
def test_estimate_at_known_alignment_is_the_truth(d, seed):
    # measured: -0.004 to -0.015 bits in 2-D, -0.002 to -0.005 in 3-D
    truth = rotated_box(d, seed)[2]
    estimate = entropy_equiprobable(known_alignment(d, seed, 1).partition)
    assert abs(estimate - truth) <= 0.02


@pytest.mark.parametrize("seed", SEEDS)
def test_2d_rotation_sheds_the_corners(seed):
    samples, mrp, truth = rotated_box(2, seed)
    rotated = entropy_rotated(samples, 2)
    # measured: 1.989-1.999 bits rotated, 2.78-3.02 unrotated, angle off by <= 0.006 rad
    assert abs(rotated.value - truth) <= 0.03
    assert abs(entropy_equiprobable_estimate(samples, 2).value - truth) >= 0.5
    residual = (rotated.rotation.angle + Rotation(mrp).angle) % (np.pi / 2.0)
    assert min(residual, np.pi / 2.0 - residual) <= 0.01


@pytest.mark.parametrize("seed", SEEDS)
def test_3d_search_reaches_the_known_variance(seed):
    searched = optimise_rotation(rotated_box(3, seed)[0], 1)[1]
    assert searched.variance <= known_alignment(3, seed, 1).variance


# the orientations 3-D Nelder-Mead found at depth 1 when this counterexample was
# recorded; pinned, so the counterexample holds whatever search runs later
COUNTEREXAMPLE_MRPS = {
    0: [2.4774002235222152, -0.974904235370735, 0.27158148885426436],
    1: [0.563636602079437, -0.42746901312374075, -0.1484781921926993],
    2: [-0.14295905730272368, -0.3300997678377251, 0.17754231975887047],
}


@pytest.mark.parametrize("seed", SEEDS)
def test_3d_minimum_variance_is_not_the_best_estimate(seed):
    # the counterexample to the minimum-variance conjecture at depth 1: an
    # orientation of lower variance than the known alignment estimates worse;
    # measured +0.035 to +0.096 bits above the known alignment's estimate
    samples = rotated_box(3, seed)[0]
    lower = volume_variance(samples, Rotation(np.array(COUNTEREXAMPLE_MRPS[seed])), 1)
    known = known_alignment(3, seed, 1)
    assert lower.variance < known.variance
    assert entropy_equiprobable(lower.partition) - entropy_equiprobable(known.partition) >= 0.03


@pytest.mark.parametrize("c", [2.0**-7, 2.0**9, 3.7, 1e-3])
def test_bias_is_scale_invariant(c):
    # H(cX) = H(X) + d*log2(c); both estimates shift by that amount, so their bias stays
    rng = np.random.default_rng(8)
    cov = random_covariance(rng)
    samples = sample_gaussian(cov, 1024, rng)
    scaled = SampleSet(samples.data * c)
    truth, shifted = theoretical_entropy(cov), theoretical_entropy(cov) + 2.0 * math.log2(c)
    plain = entropy_equiprobable_estimate(samples, 2).value - truth
    plain_scaled = entropy_equiprobable_estimate(scaled, 2).value - shifted
    assert plain_scaled == pytest.approx(plain, abs=1e-12)
    rotated, rotated_scaled = entropy_rotated(samples, 2), entropy_rotated(scaled, 2)
    assert rotated_scaled.value - shifted == pytest.approx(rotated.value - truth, abs=1e-12)
    if math.log2(c).is_integer():  # a power of two scales every value exactly
        assert rotated_scaled.rotation.mrp.tobytes() == rotated.rotation.mrp.tobytes()
