import numpy as np
import pytest
from conftest import overflowing_under_rotation

from entropart import (
    DegeneratePartitionError,
    PreconditionError,
    Rotation,
    SampleSet,
    mrp_from_angle_2d,
    normalize_angle,
    rotate,
)
from entropart.geometry import mrp_from_quaternion, rotation_matrices


def scalar_rotation_matrix(mrp, d):
    """The MRP map in Python-float arithmetic, one rotation at a time."""
    if d == 2:
        theta = float(4.0 * np.arctan(mrp[2]))
        return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    s2 = float(mrp @ mrp)
    skew = np.array([[0.0, -mrp[2], mrp[1]], [mrp[2], 0.0, -mrp[0]], [-mrp[1], mrp[0], 0.0]])
    denom = (1.0 + s2) ** 2
    return np.eye(3) + (4.0 * (1.0 - s2) / denom) * skew + (8.0 / denom) * (skew @ skew)


class TestSampleSet:
    def test_barycentre_matches_recomputation(self):
        rng = np.random.default_rng(0)
        s = SampleSet(rng.normal(size=(100, 3)))
        assert np.allclose(s.barycentre, s.data.mean(axis=0), atol=1e-12)

    def test_one_dimensional_input_reshaped(self):
        s = SampleSet([1.0, 2.0, 3.0])
        assert (s.n, s.d) == (3, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(PreconditionError):
            SampleSet([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(PreconditionError):
            SampleSet([[0.0, np.inf]])

    @pytest.mark.parametrize(
        "data, message",
        [
            (np.zeros((2, 2, 2)), "sample data must be a 2-D matrix"),
            (np.zeros((0, 2)), "at least one row and one column"),
            (np.zeros((3, 0)), "at least one row and one column"),
        ],
    )
    def test_rejects_a_shape_by_name(self, data, message):
        with pytest.raises(PreconditionError, match=message):
            SampleSet(data)

    def test_rejects_an_overflowing_mean(self):
        # finite samples whose sum passes float64's limit; RuntimeWarnings are
        # errors here, so the overflow is also silent
        with pytest.raises(PreconditionError, match="sample mean overflows"):
            SampleSet([[-1.5e308], [-1e308], [1e308], [1.5e308]])

    def test_data_is_immutable(self):
        s = SampleSet([[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(ValueError):
            s.data[0, 0] = 5.0

    def test_callers_array_is_copied(self):
        # entropart takes its own arrays without a copy; a caller's is copied
        data = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        s = SampleSet(data)
        data[0, 0], data[2, 1] = 100.0, -100.0
        assert s.data.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert data.flags.writeable


class TestMrpFromAngle:
    def test_zero_angle_is_identity(self):
        r = mrp_from_angle_2d(0.0)
        assert np.array_equal(r.mrp, np.zeros(3))
        assert r.angle == 0.0

    def test_pi_gives_unit_z(self):
        r = mrp_from_angle_2d(np.pi)
        assert r.mrp[2] == pytest.approx(1.0, abs=1e-15)

    def test_quarter_turn_value(self):
        # tan(pi/16), evaluated independently
        r = mrp_from_angle_2d(np.pi / 4.0)
        assert r.mrp[2] == pytest.approx(0.198912367379658, abs=1e-12)

    @pytest.mark.parametrize("theta", [-0.1, 2.0 * np.pi, 7.0, np.nan])
    def test_rejects_out_of_range(self, theta):
        with pytest.raises(PreconditionError):
            mrp_from_angle_2d(theta)

    def test_angle_roundtrip_over_grid(self):
        thetas = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
        for theta in thetas:
            assert mrp_from_angle_2d(theta).angle == pytest.approx(theta, abs=1e-12)

    @pytest.mark.parametrize(
        "mrp, message",
        [
            ([1.0, 2.0], "MRP must be a 3-vector"),
            ([0.0, 0.0, np.inf], "MRP must be finite"),
            ([0.0, 0.0, np.nan], "MRP must be finite"),
        ],
    )
    def test_rotation_rejects_a_bad_mrp_by_name(self, mrp, message):
        with pytest.raises(PreconditionError, match=message):
            Rotation(mrp)

    @pytest.mark.parametrize("mrp", [[0.0, 0.0, 1e17], [1e300, 0.0, 0.0]])
    def test_angle_of_a_huge_mrp_is_a_whole_turn(self, mrp):
        # 4*arctan of a norm this large rounds to 2*pi, and the second norm
        # overflows; RuntimeWarnings are errors here, so neither may warn
        angle = Rotation(mrp).angle
        assert angle == 0.0
        assert type(angle) is float

    def test_rotation_needs_its_mrp(self):
        # the identity is spelt Rotation.identity() only
        with pytest.raises(TypeError):
            Rotation()

    def test_normalize_angle(self):
        assert normalize_angle(2.0 * np.pi) == 0.0
        assert normalize_angle(-np.pi / 2.0) == pytest.approx(3.0 * np.pi / 2.0)
        assert normalize_angle(5.0 * np.pi) == pytest.approx(np.pi)


class TestRotationMatrix:
    def test_identity(self):
        m = rotation_matrices(Rotation.identity().mrp[None], 2)[0]
        assert np.allclose(m, np.eye(2), atol=1e-15)

    def test_quarter_turn_2d(self):
        m = rotation_matrices(mrp_from_angle_2d(np.pi / 2.0).mrp[None], 2)[0]
        assert np.allclose(m, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)

    def test_random_mrp_orthogonal_unit_determinant(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rot = Rotation(rng.normal(scale=2.0, size=3))
            m = rotation_matrices(rot.mrp[None], 3)[0]
            assert np.allclose(m @ m.T, np.eye(3), atol=1e-10)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)

    def test_z_only_3d_block_matches_2d(self):
        # a negative z turns clockwise in both, so the 2-D angle keeps the sign of z
        z_only = [Rotation([0.0, 0.0, z]) for z in (-2.0, -0.3, 0.3, 2.0)]
        for rot in [mrp_from_angle_2d(1.234)] + z_only:
            m3 = rotation_matrices(rot.mrp[None], 3)[0]
            m2 = rotation_matrices(rot.mrp[None], 2)[0]
            assert np.allclose(m3[:2, :2], m2, atol=1e-12)
            assert m3[2, 2] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_batched_map_matches_scalar_arithmetic_bit_for_bit(self, d):
        rng = np.random.default_rng(8)
        mrps = rng.normal(scale=2.0, size=(200, 3))
        if d == 2:
            mrps[:, :2] = 0.0
        for mrp, m in zip(mrps, rotation_matrices(mrps, d)):
            assert m.tobytes() == scalar_rotation_matrix(mrp, d).tobytes()

    @pytest.mark.parametrize(
        "mrps", [np.zeros(3), np.zeros((2, 2)), [[0.0, 0.0, np.nan]], [[0.0, 0.0, np.inf]]]
    )
    def test_batched_map_rejects_bad_mrps(self, mrps):
        with pytest.raises(PreconditionError, match="MRPs"):
            rotation_matrices(mrps, 3)

    def test_2d_rejects_tilted_mrp(self):
        with pytest.raises(PreconditionError):
            rotation_matrices(Rotation(np.array([0.1, 0.0, 0.3])).mrp[None], 2)[0]

    @pytest.mark.parametrize("d", [1, 4])
    def test_unsupported_dimension(self, d):
        with pytest.raises(PreconditionError):
            rotation_matrices(Rotation.identity().mrp[None], d)[0]


def turns(axes, angles):
    """Unit quaternions (q0 first) of the turns by ``angles`` about the ``axes``."""
    axes = np.asarray(axes, dtype=float) / np.linalg.norm(axes, axis=1)[:, None]
    half = np.asarray(angles, dtype=float)[:, None] / 2.0
    return np.column_stack([np.cos(half), np.sin(half) * axes])


def quaternion_matrices(q):
    """The rotation matrices of unit quaternions by the textbook formula, with no MRP."""
    w, x, y, z = np.asarray(q).T
    return np.stack(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    ).transpose(2, 0, 1)


class TestMrpFromQuaternion:
    def check(self, q):
        """The MRPs of ``q`` and of ``-q``: one turn, one MRP, of norm at most 1."""
        mrps = mrp_from_quaternion(q)
        assert mrp_from_quaternion(-q).tobytes() == mrps.tobytes()
        assert np.abs(rotation_matrices(mrps, 3) - quaternion_matrices(q)).max() <= 1e-12
        assert (np.linalg.norm(mrps, axis=1) <= 1.0 + 1e-15).all()
        return mrps

    def test_random_quaternions_map_to_their_turns(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=(500, 4))
        self.check(q / np.linalg.norm(q, axis=1)[:, None])
        angles = rng.uniform(0.0, np.pi, 500)  # q0 >= 0: the MRP is the tan(angle/4) along the axis
        axes = rng.normal(size=(500, 3)) * rng.choice([1e-6, 1.0, 10.0], size=(500, 1))
        mrps = self.check(turns(axes, angles))
        want = np.tan(angles / 4.0)[:, None] * axes / np.linalg.norm(axes, axis=1)[:, None]
        assert np.allclose(mrps, want, rtol=1e-9, atol=1e-15)

    def test_near_half_turns_map_to_their_turns(self):
        # q0 near or at 0: the MRP's norm is near 1, and either sign of q is the same turn
        rng = np.random.default_rng(15)
        axes = rng.normal(size=(60, 3))
        angles = np.pi - np.concatenate([np.zeros(20), rng.uniform(0.0, 1e-9, 20), [1e-15] * 20])
        q = turns(axes, angles)
        mrps = self.check(q)
        assert np.allclose(np.linalg.norm(mrps, axis=1), 1.0, atol=1e-8)
        for zero in (0.0, -0.0):  # exact half turns: v and -v are both their MRPs
            q[:, 0] = zero
            assert np.allclose(np.linalg.norm(self.check(q), axis=1), 1.0, atol=1e-15)

    def test_a_quaternion_maps_to_the_same_bits_alone_as_in_a_stack(self):
        q = np.random.default_rng(16).normal(size=(64, 4))
        q /= np.linalg.norm(q, axis=1)[:, None]
        alone = np.array([mrp_from_quaternion(row) for row in q])
        assert alone.tobytes() == mrp_from_quaternion(q).tobytes()
        listed = np.array([mrp_from_quaternion(row.tolist()) for row in q])
        assert alone.tobytes() == listed.tobytes()


class TestRotate:
    def test_axis_point_quarter_turn(self):
        # two symmetric points so the barycentre is the origin
        s = SampleSet([[1.0, 0.0], [-1.0, 0.0]])
        out = rotate(s, mrp_from_angle_2d(np.pi / 2.0))
        assert np.allclose(out.data, [[0.0, 1.0], [0.0, -1.0]], atol=1e-12)

    def test_negative_z_turns_the_same_way_in_2d_and_3d(self):
        rot = Rotation([0.0, 0.0, -np.tan(np.pi / 8.0)])  # a quarter turn clockwise
        planar = rotate(SampleSet([[1.0, 0.0], [-1.0, 0.0]]), rot).data
        spatial = rotate(SampleSet([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), rot).data
        assert np.allclose(planar, [[0.0, -1.0], [0.0, 1.0]], atol=1e-12)
        assert np.allclose(spatial[:, :2], planar, atol=1e-12)

    def test_zero_angle_centres_only(self):
        rng = np.random.default_rng(3)
        s = SampleSet(rng.normal(loc=4.0, size=(20, 2)))
        out = rotate(s, Rotation.identity())
        assert np.allclose(out.data, s.data - s.barycentre, atol=1e-15)

    def test_overflowing_centring_raises_by_name(self):
        # finite samples with a finite mean, 4.25e307, whose centred x overflows;
        # RuntimeWarnings are errors here, so the overflow must also be silent
        s = SampleSet([[1.7e308, 0.0], [-1.7e308, 1.0], [1.7e308, 2.0], [0.0, 3.0]])
        with pytest.raises(DegeneratePartitionError, match="^centred samples overflow float64"):
            rotate(s, Rotation.identity())

    @pytest.mark.parametrize("d", [2, 3])
    def test_overflowing_rotation_raises_by_name(self, d):
        # finite samples with a finite centring whose rotation by pi/4 about z
        # overflows; RuntimeWarnings are errors here, so it must also be silent
        s = SampleSet(overflowing_under_rotation(d))
        with pytest.raises(DegeneratePartitionError, match="^rotated samples overflow float64"):
            rotate(s, Rotation([0.0, 0.0, np.tan(np.pi / 16)]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_overflowing_rotated_column_sum_raises_by_name(self, d):
        # mean 0, and the rotated rows are finite, but their sum is not: the
        # user's mean does not overflow, so the error names the rotation
        s = SampleSet(overflowing_under_rotation(d, column_sum=True))
        with pytest.raises(DegeneratePartitionError, match="^rotated samples overflow float64"):
            rotate(s, Rotation([0.0, 0.0, np.tan(np.pi / 16)]))

    def test_output_is_centred(self):
        rng = np.random.default_rng(4)
        s = SampleSet(rng.normal(size=(200, 2)))
        out = rotate(s, mrp_from_angle_2d(1.0))
        assert np.allclose(out.barycentre, 0.0, atol=1e-10)

    def test_covariance_determinant_preserved(self):
        rng = np.random.default_rng(5)
        s = SampleSet(rng.normal(size=(500, 2)) @ rng.normal(size=(2, 2)))
        before = np.linalg.det(np.cov(s.data.T))
        after = np.linalg.det(np.cov(rotate(s, mrp_from_angle_2d(0.7)).data.T))
        assert after == pytest.approx(before, abs=1e-8)

    def test_pairwise_distances_preserved(self):
        rng = np.random.default_rng(6)
        s = SampleSet(rng.normal(size=(40, 3)))
        out = rotate(s, Rotation(rng.normal(size=3)))
        before = np.linalg.norm(s.data[:, None] - s.data[None], axis=-1)
        after = np.linalg.norm(out.data[:, None] - out.data[None], axis=-1)
        assert np.abs(before - after).max() < 1e-10

    def test_composition_matches_summed_angle(self):
        rng = np.random.default_rng(7)
        s = SampleSet(rng.normal(size=(60, 2)))
        for t1, t2 in [(0.3, 1.1), (2.0, 5.0), (4.0, 3.5)]:
            once = rotate(s, mrp_from_angle_2d(normalize_angle(t1 + t2)))
            twice = rotate(rotate(s, mrp_from_angle_2d(t1)), mrp_from_angle_2d(t2))
            assert np.abs(once.data - twice.data).max() < 1e-9

    def test_dimension_mismatch(self):
        s2 = SampleSet([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(PreconditionError):
            rotate(s2, Rotation(np.array([0.2, 0.0, 0.0])))
        # rotation_matrices alone decides which dimensions rotate: 1-D as 4-D
        for d in (1, 4):
            s = SampleSet(np.zeros((3, d)) + np.arange(3)[:, None])
            with pytest.raises(PreconditionError, match=f"d in {{2, 3}}, got d={d}$"):
                rotate(s, Rotation.identity())
