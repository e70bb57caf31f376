import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    BAD_COUNTS,
    circular_distance,
    fig2_sample,
    overflowing_under_rotation,
    variance_at,
)

import entropart.optimizer
from entropart import (
    DegeneratePartitionError,
    OptimizerConfig,
    PreconditionError,
    Rotation,
    SampleSet,
    entropy_equiprobable_estimate,
    entropy_rotated,
    mrp_from_angle_2d,
    normalize_angle,
    optimise_rotation,
    rotate,
    volume_variance,
)
from entropart.geometry import TWO_PI, mrp_from_matrix, rotation_matrices
from entropart.optimizer import (
    BATCH_SAMPLES,
    _best_basin_seeds,
    _drive,
    _golden_section,
    _lockstep,
    _optimise_2d,
    _plane_sweeps,
    _super_fibonacci_mrps,
    _variances,
    optimise_rotations,
)
from entropart.partition import Workspace

FAST = OptimizerConfig(scan_points=256)
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


class TestVolumeVariance:
    def test_equal_volumes_give_zero(self):
        s = SampleSet([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        ev = volume_variance(s, Rotation.identity(), 1)
        assert ev.variance == pytest.approx(0.0, abs=1e-15)
        assert ev.partition is not None

    def test_marginal_frame_worse_than_diagonal_frame(self):
        s = fig2_sample(42)
        assert variance_at(s, 0.0, 1) > variance_at(s, np.pi / 4.0, 1)

    def test_variance_within_theoretical_range(self):
        rng = np.random.default_rng(70)
        s = SampleSet(rng.normal(size=(48, 2)) @ rng.normal(size=(2, 2)))
        b = 4
        for theta in rng.uniform(0.0, 2.0 * np.pi, 50):
            v = variance_at(s, theta, 1)
            assert 0.0 <= v <= (b - 1) / b**2 + 1e-15

    def test_frame_composition(self):
        rng = np.random.default_rng(71)
        s = SampleSet(rng.normal(size=(64, 2)) @ rng.normal(size=(2, 2)))
        for theta, phi in [(1.0, 0.3), (4.2, 2.9), (0.2, 5.8)]:
            direct = variance_at(s, theta, 1)
            pre_rotated = rotate(s, mrp_from_angle_2d(phi))
            composed = variance_at(pre_rotated, theta - phi, 1)
            assert composed == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("d, scale", [(2, 1e160), (3, 1e110)])
    def test_overflowing_volumes_raise_by_name(self, d, scale):
        # the leaf volumes exceed float64 while every coordinate is finite;
        # RuntimeWarnings are errors here, so the overflow must also be silent
        s = SampleSet(np.random.default_rng(72).normal(size=(64, d)) * scale)
        with pytest.raises(DegeneratePartitionError, match="overflow"):
            volume_variance(s, Rotation.identity(), 1)
        config = OptimizerConfig(eigenvector_start=False, scan_points=8, starts=2)
        with pytest.raises(DegeneratePartitionError, match="overflow"):
            entropy_rotated(s, 1, config=config)

    def test_overflowing_centred_samples_raise_by_name(self):
        # centring by the barycentre sends these finite samples past float64
        s = SampleSet([[-1.7e308, 0.0], [1e308, 1.0], [1e308, 2.0], [1e308, 3.0]])
        with pytest.raises(DegeneratePartitionError, match="centred samples overflow"):
            optimise_rotation(s, 1, OptimizerConfig(eigenvector_start=False, scan_points=8))
        # the same check, through rotate; RuntimeWarnings are errors here
        with pytest.raises(DegeneratePartitionError, match="centred samples overflow"):
            volume_variance(s, mrp_from_angle_2d(0.5), 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_overflowing_rotations_raise_by_name(self, d):
        # the centred samples are finite, their rotation by pi/4 about z is not;
        # RuntimeWarnings are errors here, so the overflow must also be silent
        s = SampleSet(overflowing_under_rotation(d))
        with pytest.raises(DegeneratePartitionError, match="^rotated samples overflow float64"):
            volume_variance(s, Rotation([0.0, 0.0, np.tan(np.pi / 16)]), 1)
        # the search's kernel meets the same rotations and names them by their volumes
        with pytest.raises(DegeneratePartitionError, match="^bin volumes overflow float64"):
            optimise_rotation(s, 1, OptimizerConfig(eigenvector_start=False))

    @pytest.mark.parametrize("d", [2, 3])
    def test_overflowing_rotated_column_sums_raise_by_name(self, d):
        # the rotated rows are finite and the user's mean is 0, but the rotated column sum is not
        s = SampleSet(overflowing_under_rotation(d, column_sum=True))
        with pytest.raises(DegeneratePartitionError, match="^rotated samples overflow float64"):
            volume_variance(s, Rotation([0.0, 0.0, np.tan(np.pi / 16)]), 1)


class TestOptimiseRotation:
    def test_objective_never_exceeds_grid_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            s = SampleSet(rng.normal(size=(64, 2)) @ rng.normal(size=(2, 2)))
            grid_min = min(
                variance_at(s, t, 1)
                for t in np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
            )
            _, ev = optimise_rotation(s, 1)
            assert ev.variance <= grid_min + 1e-9

    def test_objective_never_exceeds_start_points(self):
        s = fig2_sample(3)
        _, ev = optimise_rotation(s, 1)
        for i in range(16):
            assert ev.variance <= variance_at(s, 2.0 * np.pi * i / 16.0, 1)

    def test_deterministic(self):
        s = fig2_sample(9)
        first = optimise_rotation(s, 1)
        second = optimise_rotation(s, 1)
        assert first[0].angle == second[0].angle
        assert first[1].variance == second[1].variance

    def test_flat_objective_tie_breaks_to_zero_angle(self):
        grid = np.linspace(0.0, 1.0, 4)
        lattice = SampleSet(np.array([[a, b] for a in grid for b in grid]))
        rot, ev = optimise_rotation(lattice, 1, FAST)
        assert rot.angle == 0.0
        assert ev.variance == pytest.approx(0.0, abs=1e-15)

    def test_fig2_alignment_near_quarter_turn_family(self):
        # the optimum aligns the data diagonal with a partition axis; with
        # finite samples any of pi/4 + j*pi/2 can win, so check the family
        s = fig2_sample(0)
        rot, _ = optimise_rotation(s, 1)
        dist = min(
            circular_distance(rot.angle, np.pi / 4.0 + j * np.pi / 2.0) for j in range(4)
        )
        assert dist <= 0.15

    def test_unsupported_dimension(self):
        with pytest.raises(PreconditionError):
            optimise_rotation(SampleSet([[0.0], [1.0]]), 1)

    @pytest.mark.parametrize("shape", [(40, 2), (32, 3)])
    def test_searches_together_need_one_n_and_d(self, shape):
        rng = np.random.default_rng(4)
        sets = [SampleSet(rng.normal(size=(32, 2))), SampleSet(rng.normal(size=shape))]
        with pytest.raises(PreconditionError, match="share N and d"):
            optimise_rotations(sets, 1, FAST)

    def test_insufficient_samples(self):
        s = SampleSet([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(PreconditionError):
            optimise_rotation(s, 1)

    def test_config_validation(self):
        with pytest.raises(PreconditionError):
            OptimizerConfig(starts=0)
        with pytest.raises(PreconditionError):
            OptimizerConfig(scan_points=0)

    @pytest.mark.parametrize(
        "field, value",
        [("scan_points", 2.5), ("max_iterations", 2.5), ("starts", 2.5)]
        + [
            (field, value)
            for field in ("scan_points", "max_iterations", "starts")
            for value in BAD_COUNTS
            if value != 2.5
        ],
    )
    def test_config_rejects_fractional_count_and_nan_tolerance(self, field, value):
        with pytest.raises(PreconditionError, match=field):
            OptimizerConfig(**{field: value})

    def test_deep_bivariate_warns_once(self):
        s = SampleSet(np.random.default_rng(5).normal(size=(1024, 2)))
        config = OptimizerConfig(starts=1, max_iterations=4, scan_points=8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            optimise_rotation(s, 5, config)
        assert [w.category for w in caught] == [UserWarning]
        assert "recommended maximum" in str(caught[0].message)

    def test_converged_is_whether_the_winning_polish_met_its_tolerance(self):
        # the winner here is a polished basin, not a scan angle (scan angles
        # count as converged); one golden-section step cannot meet 1e-10
        s = fig2_sample(42)
        assert optimise_rotation(s, 1, FAST)[1].converged
        config = OptimizerConfig(scan_points=256, max_iterations=1)
        assert not optimise_rotation(s, 1, config)[1].converged


SMALL_3D = OptimizerConfig(starts=2, max_iterations=4, scan_points=64)
ONE_SEED_3D = OptimizerConfig(starts=1, scan_points=256)

# per seeded input (seed, N, rounded to decimals, depth) and config, a digest of the
# winning MRP's bytes, its variance and converged
SEEDED_3D = [
    ((60, 96, None, 1), None, "cbda633ab491d3c2", 0.0006015137231026308, False),
    ((60, 96, None, 1), SMALL_3D, "a3df6229244ea522", 0.0007538125593145222, False),
    ((60, 96, None, 1), ONE_SEED_3D, "01a64af65c87ab85", 0.0007052661847359601, False),
    ((61, 256, None, 1), None, "bc89ee18b9fe8edd", 1.0349261414642929e-05, False),
    ((61, 256, None, 1), SMALL_3D, "a43b5f7e51e8fd57", 6.290771853923374e-05, False),
    ((61, 256, None, 1), ONE_SEED_3D, "2704d732c4a948c5", 1.1818128530503932e-05, False),
    ((62, 128, 1, 1), None, "8a1339fe3fea4edd", 0.0001560121885099131, False),
    ((62, 128, 1, 1), SMALL_3D, "1e78085785151991", 0.00017365233956834452, False),
    ((62, 128, 1, 1), ONE_SEED_3D, "965e6e712d021fac", 0.0001601176878139459, False),
    ((63, 200, 1, 2), None, "ed8cfcd4b597ce2f", 0.0001783002960803124, False),
    ((63, 200, 1, 2), SMALL_3D, "8470cfcc12005f6a", 0.00018480041208876095, False),
    ((63, 200, 1, 2), ONE_SEED_3D, "66b6e50ec744a445", 0.00018288957881272972, False),
]


def default_scan_mrps():
    """The MRPs of a default 3-D scan: the identity, then the spiral less its last point."""
    n = 2 * OptimizerConfig().scan_points
    return np.concatenate([np.zeros((1, 3)), _super_fibonacci_mrps(n)[:-1]])


def requested_mrps(monkeypatch):
    """Record each round's requested MRPs, one (A, 3) array per round, as the search runs."""
    rounds, variances = [], entropart.optimizer._variances

    def recording(requests, *args):
        rounds.append(np.concatenate([mrps for _, mrps in requests]))
        return variances(requests, *args)

    monkeypatch.setattr(entropart.optimizer, "_variances", recording)
    return rounds


def oracle_draw(seed):
    """The 3-D oracle set's draw ``seed``: N=512 rows of a normal factor, its columns scaled."""
    rng = np.random.default_rng([seed, 3])
    factor = rng.normal(size=(3, 3)) * np.array([3.0, 1.0, 0.3])
    return SampleSet(rng.normal(size=(512, 3)) @ factor.T)


class TestOptimise3d:
    @pytest.mark.parametrize("sample, config, digest, variance, converged", SEEDED_3D)
    def test_seeded_searches_are_pinned(self, sample, config, digest, variance, converged):
        seed, n, decimals, depth = sample
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, 3)) @ rng.normal(size=(3, 3))
        s = SampleSet(data if decimals is None else np.round(data, decimals))
        rot, ev = optimise_rotation(s, depth, config)
        assert hashlib.sha256(rot.mrp.tobytes()).hexdigest()[:16] == digest
        assert (ev.variance, ev.converged) == (variance, converged)

    def test_the_identity_and_every_scan_point_are_requested_once(self, monkeypatch):
        # the first round is the whole scan, the identity first, and no polish
        # probe asks for a scan point again
        rng = np.random.default_rng(82)
        s = SampleSet(rng.normal(size=(128, 3)) @ rng.normal(size=(3, 3)))
        rounds = requested_mrps(monkeypatch)
        optimise_rotation(s, 1)
        scan = default_scan_mrps()
        assert (len(scan), scan[0].tolist()) == (2048, [0.0, 0.0, 0.0])
        assert rounds[0].tobytes() == scan.tobytes()
        requested = [mrp.tobytes() for mrps in rounds for mrp in mrps]
        assert [requested.count(mrp.tobytes()) for mrp in scan] == [1] * len(scan)

    def test_the_eigenvector_start_does_not_change_a_3d_search(self, monkeypatch):
        # the leading covariance eigenvector is exactly the x-axis; with or
        # without the eigenvector start the first round is the scan alone, and
        # every later probe is the same
        axes = np.diag([3.0, 2.0, 1.0])
        s = SampleSet(np.concatenate([axes, -axes, axes / 2.0, -axes / 2.0]))
        searches = []
        for eigenvector_start in (True, False):
            rounds = requested_mrps(monkeypatch)
            rot, _ = optimise_rotation(s, 1, OptimizerConfig(eigenvector_start=eigenvector_start))
            searches.append((rot.mrp.tobytes(), [mrps.tobytes() for mrps in rounds]))
            assert len(rounds[0]) == 2 * OptimizerConfig().scan_points
        assert searches[0] == searches[1]

    def test_every_probe_of_a_default_search_is_pinned(self, monkeypatch):
        # SEEDED_3D pins winners only; this pins, in order, each MRP a default
        # search asks the kernel for and each variance it gets back, on the
        # shape of input the align-3d benchmark uses (N=512, depth 1)
        rng = np.random.default_rng(84)
        s = SampleSet(rng.normal(size=(512, 3)) @ rng.normal(size=(3, 3)))
        stream, probes, variances = hashlib.sha256(), [], entropart.optimizer._variances

        def recording(requests, *args):
            answers = variances(requests, *args)
            for (_, mrps), values in zip(requests, answers):
                stream.update(np.ascontiguousarray(mrps, dtype=float).tobytes())
                stream.update(np.array(values, dtype=float).tobytes())
                probes.append(len(values))
            return answers

        monkeypatch.setattr(entropart.optimizer, "_variances", recording)
        optimise_rotation(s, 1)
        assert (len(probes), sum(probes)) == (73, 2336)  # rounds, probes
        assert stream.hexdigest()[:16] == "5b9acd09f98ad17c"

    def test_finds_no_worse_than_identity(self):
        rng = np.random.default_rng(80)
        data = rng.normal(size=(128, 3)) @ rng.normal(size=(3, 3))
        s = SampleSet(data)
        config = OptimizerConfig(starts=8, max_iterations=60)
        rot, ev = optimise_rotation(s, 1, config)
        identity_var = volume_variance(s, Rotation.identity(), 1).variance
        assert ev.variance <= identity_var
        assert 0.0 <= rot.angle < 2.0 * np.pi

    def test_deterministic(self):
        rng = np.random.default_rng(81)
        s = SampleSet(rng.normal(size=(64, 3)))
        config = OptimizerConfig(starts=4, max_iterations=40)
        a = optimise_rotation(s, 1, config)
        b = optimise_rotation(s, 1, config)
        assert np.array_equal(a[0].mrp, b[0].mrp)
        assert a[1].variance == b[1].variance

    def test_converged_is_whether_the_last_sweep_moved_no_plane(self):
        # at N=512, depth 1 the winning run still moves in its second sweep; on a
        # lattice the identity is the minimum, and no step from it is kept
        rng = np.random.default_rng(0)
        s = SampleSet(rng.normal(size=(512, 3)) @ rng.normal(size=(3, 3)))
        assert not optimise_rotation(s, 1)[1].converged
        grid = np.linspace(0.0, 1.0, 4)
        lattice = SampleSet(np.array([[a, b, c] for a in grid for b in grid for c in grid]))
        rot, ev = optimise_rotation(lattice, 1)
        assert (rot.mrp.tolist(), ev.variance, ev.converged) == ([0.0, 0.0, 0.0], 0.0, True)

    def test_reaches_the_random_rotation_oracle(self):
        # criterion 4 in 3-D: 40 draws at align-3d's shape against the least
        # variance of 4096 uniform random rotations; before this search, multi-start
        # Nelder-Mead ended above that oracle on 15 of the 40 (measured: 1 now)
        rng = np.random.default_rng(12345)
        q = rng.normal(size=(4096, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q *= np.sign(q[:, :1])
        oracle_mrps, workspace, above = q[:, 1:] / (1.0 + q[:, :1]), Workspace(), 0
        for seed in range(40):
            s = oracle_draw(seed)
            centred = s.data - s.barycentre
            oracle = min(_variances([(centred, oracle_mrps)], 1, (0, 1, 2), workspace)[0])
            rot, ev = optimise_rotation(s, 1)
            assert ev.variance <= volume_variance(s, Rotation.identity(), 1).variance
            assert volume_variance(s, rot, 1).variance == ev.variance
            above += ev.variance > oracle
        assert above <= 2


class TestPlaneSweeps:
    TARGET = rotation_matrices(np.array([[0.1, -0.2, 0.3]]), 3)[0]

    def distance(self, matrix):
        """A smooth bowl over rotation matrices, least at TARGET."""
        return float(np.sum((matrix - self.TARGET) ** 2))

    def test_a_sweep_from_the_minimum_keeps_no_step(self):
        start = mrp_from_matrix(self.TARGET[None])[0]
        value = self.distance(rotation_matrices(start[None], 3)[0])
        mrp, got, converged = _drive(_plane_sweeps(start, value, 0.3, 10), self.distance)
        assert (mrp.tobytes(), got, converged) == (start.tobytes(), value, True)

    def test_each_probe_is_a_givens_turn_of_the_kept_matrix(self):
        # 0.4 rad about z from the target: the first sweep's (0, 1) plane cannot
        # close that within h = 0.3, so the halved second sweep still moves
        turn = np.array([[np.cos(0.4), -np.sin(0.4), 0.0], [np.sin(0.4), np.cos(0.4), 0.0], [0, 0, 1]])
        start = mrp_from_matrix((turn @ self.TARGET)[None])[0]
        value = self.distance(rotation_matrices(start[None], 3)[0])
        probes = []

        def answer(matrix):
            probes.append(matrix)
            return self.distance(matrix)

        mrp, got, converged = _drive(_plane_sweeps(start, value, 0.3, 10), answer)
        assert 12 < len(probes) <= 2 * 3 * 12  # sweeps x planes x golden-section probes
        assert not converged and got < 1e-4 < value
        # every probe of the first plane turns the start within its (0, 1) plane, by at most h
        kept = rotation_matrices(start[None], 3)[0]
        for probe in probes[:12]:
            g = probe @ kept.T
            assert np.allclose(g[2], [0.0, 0.0, 1.0], atol=1e-12)
            assert abs(np.arctan2(g[1, 0], g[0, 0])) <= 0.3 + 1e-12
        assert np.allclose(rotation_matrices(mrp[None], 3)[0], self.TARGET, atol=1e-2)

    def test_the_scan_covers_so3_within_the_polish_bracket(self):
        # h = (8 pi^2 / n)^(1/3) brackets each seed: every one of 1000 uniform random
        # rotations is within h of a point of the n-point spiral (measured 0.29 rad at
        # n = 2048, against h = 0.34)
        for n in (256, 2048):
            mrps = _super_fibonacci_mrps(n)
            s2 = np.sum(mrps * mrps, axis=1)
            q = np.column_stack([(1.0 - s2) / (1.0 + s2), 2.0 * mrps / (1.0 + s2)[:, None]])
            assert np.allclose(np.linalg.norm(q, axis=1), 1.0) and (q[:, 0] >= 0.0).all()
            r = np.random.default_rng(7).normal(size=(1000, 4))
            r /= np.linalg.norm(r, axis=1, keepdims=True)
            nearest = 2.0 * np.arccos(np.minimum(np.abs(r @ q.T).max(axis=1), 1.0))
            assert nearest.max() < (8.0 * np.pi**2 / n) ** (1.0 / 3.0)


class TestEntropyRotated:
    def test_uniform_lattice_zero_bits_zero_angle(self):
        grid = np.linspace(0.0, 1.0, 4)
        lattice = SampleSet(np.array([[a, b] for a in grid for b in grid]))
        est = entropy_rotated(lattice, 1, config=FAST)
        assert est.value == pytest.approx(0.0, abs=1e-9)
        assert est.rotation.angle == 0.0
        assert est.method == "rotated_equiprobable"

    def test_alignment_improves_accuracy_on_correlated_data(self):
        # Sigma = [[1, 1], [1, 1.25]] so the analytic entropy is known; the
        # aligned partition sheds the empty-corner support volume that
        # inflates the marginal-frame estimate, landing closer to the truth
        # (and below the unrotated value, whose support box is the larger)
        h_true = 0.5 * np.log2((2.0 * np.pi * np.e) ** 2 * 0.25)
        closer = below = 0
        reps = 40
        for rep in range(reps):
            s = fig2_sample(5000 + rep)
            h_unrot = entropy_equiprobable_estimate(s, 1).value
            h_rot = entropy_rotated(s, 1, config=FAST).value
            closer += abs(h_rot - h_true) <= abs(h_unrot - h_true)
            below += h_rot <= h_unrot
        assert closer >= 0.95 * reps
        assert below >= 0.95 * reps

    def test_rotation_gain_small_for_isotropic_data(self):
        # rotationally symmetric data: alignment can shave only sampling
        # noise, in contrast with the ~1-bit swing on correlated data
        rng = np.random.default_rng(77)
        s = SampleSet(rng.standard_normal((1024, 2)))
        h_unrot = entropy_equiprobable_estimate(s, 1).value
        h_rot = entropy_rotated(s, 1, config=FAST).value
        assert abs(h_rot - h_unrot) <= 0.25

        corr = fig2_sample(5000)
        gain = abs(
            entropy_rotated(corr, 1, config=FAST).value
            - entropy_equiprobable_estimate(corr, 1).value
        )
        assert gain >= 0.5


def sequential_golden_section(f, a, b, max_iterations, tolerance):
    """Golden-section search one probe at a time: the reference for the lock-step polish."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    converged = False
    for _ in range(max_iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        if fc <= best_f:
            best_x, best_f = c, fc
        if fd < best_f:
            best_x, best_f = d, fd
        if (b - a) <= 1e-12 or abs(fc - fd) <= tolerance:
            converged = True
            break
    return best_x, best_f, converged


def correlated_sample(n, decimals=None, seed=90):
    data = np.random.default_rng(seed).normal(size=(n, 2)) @ [[1.0, 0.6], [0.0, 0.8]]
    return SampleSet(data if decimals is None else np.round(data, decimals))


def planar_variances(sample, thetas, depth):
    """The 2-D search objective: volume variance at each angle, in batches."""
    mrps = [mrp_from_angle_2d(normalize_angle(theta)).mrp for theta in thetas]
    return _variances([(sample.data - sample.barycentre, mrps)], depth, (0, 1), Workspace())[0]


class TestBatchedSearch:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("decimals", [None, 1])
    def test_batched_objective_is_volume_variance_bit_for_bit(self, decimals, d):
        # N=1024: 16 rotations per batch, so the probes span many batches,
        # with ties straddling the median when the sample is rounded
        if d == 2:
            s = correlated_sample(1024, decimals)
            scan = OptimizerConfig().scan_points
            angles = [2.0 * np.pi * i / scan for i in range(scan)]
            rotations = [mrp_from_angle_2d(theta) for theta in angles]
            batched = planar_variances(s, angles, 2)
        else:
            rng = np.random.default_rng(91)
            data = rng.normal(size=(1024, 3)) @ rng.normal(size=(3, 3))
            s = SampleSet(data if decimals is None else np.round(data, decimals))
            rotations = [Rotation(m) for m in rng.normal(scale=0.6, size=(200, 3))]
            mrps = [r.mrp for r in rotations]
            batched = _variances([(s.data - s.barycentre, mrps)], 2, (0, 1, 2), Workspace())[0]
        assert len(rotations) > BATCH_SAMPLES // s.n
        for rot, value in zip(rotations, batched):
            assert value == volume_variance(s, rot, 2).variance

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("decimals", [None, 1])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_search_evaluation_is_volume_variance_bit_for_bit(self, reverse, decimals, d):
        # the search returns the public objective at its winner, whose
        # variance must be the one the search found
        rng = np.random.default_rng(93)
        data = rng.normal(size=(300, d)) @ rng.normal(size=(d, d))
        s = SampleSet(data if decimals is None else np.round(data, decimals))
        order = tuple(reversed(range(d))) if reverse else None
        depth, config = (2, FAST) if d == 2 else (1, OptimizerConfig(starts=4, max_iterations=40))
        rot, ev = optimise_rotation(s, depth, config, order)
        reference = volume_variance(s, rot, depth, order)
        assert ev.variance == reference.variance
        got, want = ev.partition, reference.partition
        for name in ("lower", "upper", "counts", "support"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert (got.depth, got.dims, got.cycle_order) == (want.depth, want.dims, want.cycle_order)

    @pytest.mark.parametrize(
        "sample, depth, max_iterations",
        [(fig2_sample(3), 1, 96), (correlated_sample(256, decimals=1), 2, 96), (None, 0, 30)],
    )
    def test_lockstep_polish_matches_sequential(self, sample, depth, max_iterations):
        if sample is None:  # a smooth bowl: only the seed bracketing its floor converges

            def objective(thetas):
                return [(theta - 1.2) ** 2 for theta in thetas]
        else:

            def objective(thetas):
                return planar_variances(sample, thetas, depth)

        step = 2.0 * np.pi / 64
        seeds = [2.0 * np.pi * i / 16 for i in range(16)]
        runs = [_golden_section(x - step, x + step, max_iterations) for x in seeds]
        lockstep = _drive(_lockstep(runs), objective)
        probes = []
        for seed, result in zip(seeds, lockstep):
            calls = []

            def f(theta):
                calls.append(theta)
                return objective([theta])[0]

            assert result == sequential_golden_section(
                f, seed - step, seed + step, max_iterations, 1e-10
            )
            probes.append(len(calls))
        assert len(set(probes)) > 1  # the seeds finish in different rounds
        if sample is None:
            assert [converged for _, _, converged in lockstep].count(True) == 1

    def test_peak_memory_of_a_3d_search_round(self):
        # one align-3d round: 17 rotations of N=512 points at depth 1 in one
        # kernel call, counting the workspace the round fills; a second copy of
        # the rotated points, such as a transposed one for the kernel, would
        # push the peak past this bound
        rng = np.random.default_rng(94)
        centred = rng.normal(size=(512, 3))
        centred -= centred.mean(axis=0)
        mrps = rng.normal(scale=0.6, size=(17, 3))
        _variances([(centred, mrps)], 1, (0, 1, 2), Workspace())  # leave first-call set-up out
        tracemalloc.start()
        try:
            _variances([(centred, mrps)], 1, (0, 1, 2), Workspace())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(mrps) * centred.size * centred.itemsize

    def test_a_warm_round_allocates_less_than_its_points(self):
        # an align-2d batch: 2 rotations of N=8192 points at depth 3; once the
        # search's workspace holds the points and the level arrays, a round
        # allocates only small temporaries, where fresh level arrays would
        # come to more than twice the rotated points
        rng = np.random.default_rng(95)
        centred = rng.normal(size=(8192, 2))
        centred -= centred.mean(axis=0)
        mrps = [mrp_from_angle_2d(theta).mrp for theta in (0.4, 2.9)]
        workspace = Workspace()
        _variances([(centred, mrps)], 3, (0, 1), workspace)
        tracemalloc.start()
        try:
            _variances([(centred, mrps)], 3, (0, 1), workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(mrps) * centred.size * centred.itemsize


def loop_basin_seeds(values, angles, starts):
    """The scan's basin seeds found one index at a time: the reference for the array form."""
    m = len(values)
    minima = [
        i
        for i in range(m)
        if values[i] < values[(i - 1) % m] and values[i] <= values[(i + 1) % m]
    ]
    if not minima:
        minima = [int(np.argmin(values))]
    minima.sort(key=lambda i: (values[i], angles[i]))
    return [angles[i] for i in minima[:starts]]


def loop_optimise_2d(centred, config, extra):
    """The 2-D search with its scan bookkept in Python lists: the reference for the array form."""

    def request(thetas):
        mrps = np.zeros((len(thetas), 3))
        mrps[:, 2] = np.tan(np.array([normalize_angle(theta) for theta in thetas]) / 4.0)
        return centred, mrps

    scan_angles = [TWO_PI * i / config.scan_points for i in range(config.scan_points)]
    angles = scan_angles + extra
    values = yield request(angles)
    candidates = [min((value, normalize_angle(angle), True) for value, angle in zip(values, angles))]
    seeds = loop_basin_seeds(values[: len(scan_angles)], scan_angles, config.starts) + extra
    step = TWO_PI / config.scan_points
    runs = [_golden_section(s - step, s + step, config.max_iterations) for s in seeds]
    polished = yield from _lockstep(runs, request)
    candidates += [(value, normalize_angle(x), ok) for x, value, ok in polished]
    _, angle, converged = min(candidates, key=lambda c: (c[0], c[1]))
    return mrp_from_angle_2d(angle), converged


def landscape(kind, theta):
    """Objective values at angles ``theta``: random, flat, tied, or one minimum either
    side of the wrap of a 64-point scan."""
    if kind == "random":
        return np.random.default_rng(len(theta)).random(len(theta))
    if kind == "flat":
        return np.zeros(len(theta))
    if kind == "tied":  # plateaus and equal basins
        return np.round(np.sin(7.0 * theta), 1)
    if kind == "minimum-first":  # its neighbour across the wrap is the last scan angle
        return 1.0 - np.cos(theta)
    return 1.0 - np.cos(theta + TWO_PI / 64)  # minimum-last


LANDSCAPES = ["random", "flat", "tied", "minimum-first", "minimum-last"]


class TestScanBookkeeping:
    @pytest.mark.parametrize("starts", [1, 3, 40])
    @pytest.mark.parametrize("m", [1, 2, 5, 64])
    @pytest.mark.parametrize("kind", LANDSCAPES)
    def test_basin_seeds_match_the_loop(self, kind, m, starts):
        angles = TWO_PI * np.arange(m) / m
        values = landscape(kind, angles)
        want = loop_basin_seeds(values.tolist(), [TWO_PI * i / m for i in range(m)], starts)
        got = _best_basin_seeds(values, angles, starts)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        if kind == "minimum-first":
            assert got[0] == 0.0
        if kind == "minimum-last" and m == 64:
            assert got[0] == angles[-1]

    def test_canonical_angles_match_normalize_angle(self):
        # -1e-300 % 2pi rounds to 2pi itself, which normalize_angle maps to 0
        thetas = np.concatenate(
            [
                np.random.default_rng(5).uniform(-20.0, 20.0, 200),
                [0.0, -0.0, TWO_PI, -TWO_PI, 3 * TWO_PI, -1e-300, 1e-300, -1e-17, np.pi],
            ]
        )
        got = normalize_angle(thetas.tolist())
        want = [normalize_angle(float(theta)) for theta in thetas]
        assert all(type(angle) is float for angle in want)
        assert got.tobytes() == np.array(want).tobytes()
        # and the scalar form is Python's float %, a remainder of 2pi mapped to 0
        assert want == [0.0 if t % TWO_PI == TWO_PI else t % TWO_PI for t in thetas.tolist()]

    @pytest.mark.parametrize("extra", [[], [0.67, 4.0]])
    @pytest.mark.parametrize("kind", LANDSCAPES)
    def test_search_matches_the_loop(self, kind, extra):
        # every probe, the winner and its tie-break, through the scan and the polish
        config = OptimizerConfig(scan_points=64, starts=4, max_iterations=12)
        centred = np.zeros((4, 2))
        results, probes = [], []
        for search in (_optimise_2d, loop_optimise_2d):
            seen = []

            def answer(requests, seen=seen):
                seen.extend(mrps.tobytes() for _, mrps in requests)
                thetas = [4.0 * np.arctan(mrps[:, 2]) for _, mrps in requests]
                return [landscape(kind, theta).tolist() for theta in thetas]

            results.append(_drive(_lockstep([search(centred, config, list(extra))]), answer)[0])
            probes.append(seen)
        (got_rot, got_ok), (want_rot, want_ok) = results
        assert probes[0] == probes[1]
        assert got_rot.mrp.tobytes() == want_rot.mrp.tobytes()
        assert got_ok == want_ok


def test_import_leaves_scipy_unloaded():
    import entropart

    src = os.path.dirname(os.path.dirname(entropart.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    check = "import sys, entropart; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
