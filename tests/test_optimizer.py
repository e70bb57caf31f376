import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import BAD_COUNTS, circular_distance
from scipy import optimize

from entropart import (
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
from entropart.optimizer import BATCH_SAMPLES, _golden_section, _lockstep, _nelder_mead, _variances

FAST = OptimizerConfig(scan_points=256)
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def fig2_sample(seed, n=64):
    """Correlated synthetic data: y = x + noise, x standard normal."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    y = x + rng.normal(0.0, 0.5, n)
    return SampleSet(np.column_stack([x, y]))


def variance_at(samples, theta, depth):
    return volume_variance(samples, mrp_from_angle_2d(normalize_angle(theta)), depth).variance


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

    def test_insufficient_samples(self):
        s = SampleSet([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(PreconditionError):
            optimise_rotation(s, 1)

    def test_config_validation(self):
        with pytest.raises(PreconditionError):
            OptimizerConfig(starts=0)
        with pytest.raises(PreconditionError):
            OptimizerConfig(tolerance=0.0)
        with pytest.raises(PreconditionError):
            OptimizerConfig(scan_points=0)

    @pytest.mark.parametrize(
        "field, value",
        [("scan_points", 2.5), ("max_iterations", 2.5), ("starts", 2.5), ("tolerance", float("nan"))]
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


class TestOptimise3d:
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


class TestEntropyRotated:
    def test_uniform_lattice_zero_bits_zero_angle(self):
        grid = np.linspace(0.0, 1.0, 4)
        lattice = SampleSet(np.array([[a, b] for a in grid for b in grid]))
        est = entropy_rotated(lattice, 1, FAST)
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
            h_rot = entropy_rotated(s, 1, FAST).value
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
        h_rot = entropy_rotated(s, 1, FAST).value
        assert abs(h_rot - h_unrot) <= 0.25

        corr = fig2_sample(5000)
        gain = abs(
            entropy_rotated(corr, 1, FAST).value
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
    return _variances(sample.data - sample.barycentre, mrps, depth, (0, 1))


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
            batched = _variances(s.data - s.barycentre, [r.mrp for r in rotations], 2, (0, 1, 2))
        assert len(rotations) > BATCH_SAMPLES // s.n
        for rot, value in zip(rotations, batched):
            assert value == volume_variance(s, rot, 2).variance

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("decimals", [None, 1])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_search_evaluation_is_volume_variance_bit_for_bit(self, reverse, decimals, d):
        # the search keeps the variance it found and builds the partition
        # itself; both must be what the public objective gives at the winner
        rng = np.random.default_rng(93)
        data = rng.normal(size=(300, d)) @ rng.normal(size=(d, d))
        s = SampleSet(data if decimals is None else np.round(data, decimals))
        order = tuple(reversed(range(d))) if reverse else None
        depth, config = (2, FAST) if d == 2 else (1, OptimizerConfig(starts=4, max_iterations=40))
        rot, ev = optimise_rotation(s, depth, config, order)
        reference = volume_variance(s, rot, depth, order)
        assert ev.rotation is rot and ev.variance == reference.variance
        got, want = ev.partition, reference.partition
        for name in ("lower", "upper", "counts"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert got.support.lower.tobytes() == want.support.lower.tobytes()
        assert got.support.upper.tobytes() == want.support.upper.tobytes()
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
        runs = [_golden_section(x - step, x + step, max_iterations, 1e-10) for x in seeds]
        lockstep = _lockstep(objective, runs)
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


def recording(run, probes):
    """Pass a search generator through, keeping a copy of each point it probes."""
    point = next(run)
    while True:
        probes.append(np.array(point))
        try:
            point = run.send((yield point))
        except StopIteration as done:
            return done.value


def scipy_nelder_mead(f, x0, max_iterations, tolerance):
    """The reference for ``_nelder_mead``: probes, probes per iteration, and the result."""
    probes, marks = [], [len(x0) + 1]

    def probe(x):
        probes.append(np.array(x))
        return f(x)

    result = optimize.minimize(
        probe,
        x0,
        method="Nelder-Mead",
        options={"maxiter": max_iterations, "xatol": 1e-8, "fatol": tolerance},
        callback=lambda xk: marks.append(len(probes)),
    )
    return probes, np.diff(marks), result


BOWL_CENTRE = np.array([0.3, -0.7, 1.1])


def bowl(x):
    return float(np.sum((x - BOWL_CENTRE) ** 2 * [1.0, 2.0, 3.0]))


def stepped_bowl(x):  # plateaus make contractions fail, so the simplex shrinks
    return float(np.floor(8.0 * np.sum((x - BOWL_CENTRE) ** 2)))


def volume_variance_3d(x):
    rng = np.random.default_rng(92)
    s = SampleSet(rng.normal(size=(256, 3)) @ rng.normal(size=(3, 3)))
    return volume_variance(s, Rotation(x), 1).variance


class TestNelderMead:
    @pytest.mark.parametrize(
        "f, starts, max_iterations, converges",
        [
            (bowl, [[0.5, 0.1, -0.2], [-0.4, 0.3, 0.9]], 400, True),
            (volume_variance_3d, [[0.0, 0.0, 0.2], [0.3, -0.1, 0.2], [-0.2, 0.4, 0.1]], 60, False),
            (bowl, [[0.0, 0.4, 0.0], [0.0, 0.0, 0.0]], 400, True),
            (stepped_bowl, [[0.5, 0.1, -0.2]], 100, True),
        ],
        ids=["bowl", "volume-variance", "zero-components", "shrink"],
    )
    def test_lockstep_matches_scipy(self, f, starts, max_iterations, converges):
        starts = [np.array(x0) for x0 in starts]
        probes = [[] for _ in starts]
        runs = [
            recording(_nelder_mead(x0, max_iterations, 1e-8, 1e-10), seen)
            for x0, seen in zip(starts, probes)
        ]
        results = _lockstep(lambda points: [f(x) for x in points], runs)
        for x0, seen, (x, value, converged) in zip(starts, probes, results):
            expected, per_iteration, reference = scipy_nelder_mead(f, x0, max_iterations, 1e-10)
            assert x.tobytes() == reference.x.tobytes()
            assert value == reference.fun
            assert converged == reference.success == converges
            assert len(seen) == len(expected)
            assert all(p.tobytes() == q.tobytes() for p, q in zip(seen, expected))
            if f is stepped_bowl:  # a shrink re-probes every vertex but the best
                assert len(x0) + 2 in per_iteration


def test_import_leaves_scipy_unloaded():
    import entropart

    src = os.path.dirname(os.path.dirname(entropart.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    check = "import sys, entropart; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
