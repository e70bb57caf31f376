import warnings
from statistics import NormalDist

import numpy as np
import pytest
from conftest import BAD_COUNTS, gaussian_quantile_entropy

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


def average_ranks(x):
    """Ranks 1..n of ``x``, each run of tied values given the mean of the ranks it spans."""
    order = np.argsort(x, kind="stable")
    ordered = np.asarray(x, dtype=float)[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    bounds = np.r_[starts.nonzero()[0], len(ordered)]
    ranks = np.empty(len(ordered))
    ranks[order] = ((bounds[:-1] + 1 + bounds[1:]) / 2.0)[np.cumsum(starts) - 1]
    return ranks


def spearman_rho(x, y):
    """Spearman's rank correlation: Pearson's correlation of the average ranks."""
    return float(np.corrcoef(average_ranks(x), average_ranks(y))[0, 1])


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

    def test_only_zero_volume_occupied_bins_give_zero(self):
        assert entropy_histogram([0, 3], [1.0, 0.0], 3) == 0.0

    def test_overflowing_density_rejected_by_name(self):
        # a subnormal volume whose density n/(N*v) is past float64; RuntimeWarnings
        # are errors here, so the overflow is also silent
        with pytest.raises(DegeneratePartitionError, match="bin volumes underflow float64"):
            entropy_histogram([2, 2], [0.5, 1e-320], 4)

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

    def test_negative_count_rejected_by_name(self):
        with pytest.raises(PreconditionError, match="bin counts must be non-negative"):
            entropy_histogram([-1, 2], [1, 1], 1)


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

    def test_tied_zero_widths_keep_the_zero_volume_message(self):
        # x is 0.0 in the left half, so that half's second x split leaves 4 bins 0 wide
        data = np.random.default_rng(51).normal(size=(64, 2))
        data[:32, 0] = 0.0
        data[32:, 0] = np.abs(data[32:, 0]) + 1.0
        with pytest.raises(DegeneratePartitionError, match="^4 zero-volume bins; .*entropy_histogram"):
            entropy_equiprobable(build_equiprobable(SampleSet(data), 2))

    def test_underflowing_volumes_raise_by_name(self):
        # 12 of the 16 bins have positive widths and a volume that is 0.0
        s = SampleSet(np.random.default_rng(0).normal(size=(1000, 2)) * 1e-162)
        p = build_equiprobable(s, 2)
        assert np.all(p.upper > p.lower) and np.count_nonzero(bin_volumes(p) == 0.0) == 12
        with pytest.raises(DegeneratePartitionError, match="^bin volumes underflow float64"):
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

    @pytest.mark.parametrize(
        "n, band, places", [(1000, (0.23, 0.38), 2), (10000, (0.452, 0.502), 3)]
    )
    def test_error_against_analytic_entropy_is_the_readme_row(self, n, band, places):
        # The README's bias rows: unrotated, depth 3, standard 2-D Gaussians,
        # seeds 0-2, to the decimals printed there.  The errors are 0.375,
        # 0.326 and 0.225 bits at N=1e3 and 0.499, 0.452 and 0.502 at N=1e4;
        # the outer bins reach the sample extremes, so the error grows with N.
        errors = []
        for seed in range(3):
            s = SampleSet(np.random.default_rng(seed).standard_normal((n, 2)))
            errors.append(entropy_equiprobable_estimate(s, 3).value - np.log2(2 * np.pi * np.e))
        assert (round(min(errors), places), round(max(errors), places)) == band

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
        volume = np.prod(s.data.max(axis=0) - s.data.min(axis=0))
        assert est.value == pytest.approx(np.log2(volume), abs=1e-12)

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
        lo, hi = s.data.min(axis=0), s.data.max(axis=0)
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

    @pytest.mark.parametrize("integer_valued", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_counts_match_histogramdd_over_the_range(self, monkeypatch, k, d, integer_valued):
        # the grid is counted on explicit edges; they must be the ones numpy
        # builds from bins=k and a range, points on interior edges included
        rng = np.random.default_rng(100 * k + d)
        if integer_valued:
            data = rng.integers(0, 5 * k + 1, size=(300, d)).astype(float)
            data[:2] = [[0.0] * d, [5.0 * k] * d]  # interior edges at multiples of 5
        else:
            data = rng.normal(size=(300, d)) * rng.uniform(0.1, 10.0, size=d)
        seen = []
        histogramdd = np.histogramdd

        def spy(*args, **kwargs):
            seen.append(histogramdd(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(np, "histogramdd", spy)
        entropy_naive(SampleSet(data), k)
        want, _ = histogramdd(data, bins=k, range=list(zip(data.min(axis=0), data.max(axis=0))))
        [(counts, _)] = seen
        assert counts.shape == want.shape and np.array_equal(counts, want)

    @pytest.mark.parametrize("k, cells", [(2, [2, 2]), (3, [1, 2, 1]), (4, [1, 1, 1, 1])])
    def test_range_past_float64_is_not_an_error(self, k, cells):
        # x spans about 2e308, past float64: each width is upper/k - lower/k, the
        # edges step from lower by it and end at upper, and every cell is finite
        x = [-1e308, -0.5e308, 0.5e308, 1e308]
        s = SampleSet(np.column_stack([x, [0.0, 1.0, 2.0, 3.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = entropy_naive(s, k)
        # the points fill cells with counts ``cells``, each of volume (2e308 / k) * (3 / k)
        p = np.array(cells) / 4.0
        log_volume = np.log2(1e308) + np.log2(6.0 / k**2)
        assert est.value == pytest.approx(-np.sum(p * (np.log2(p) - log_volume)), rel=1e-12)

    def test_a_cell_past_float64_still_raises(self):
        # one 3.4e308-wide cell is past float64 however the width is formed
        s = SampleSet(np.column_stack([[-1.7e308, 0.0, 1.7e308], [0.0, 1.0, 2.0]]))
        with pytest.raises(DegeneratePartitionError, match="bin volumes overflow"):
            entropy_naive(s, 1)


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

    def test_range_past_float64_is_not_an_error(self):
        # x spans about 2e308, past float64, but every slab and cell volume is finite
        x = [-1e308, -0.5e308, 0.5e308, 1e308]
        s = SampleSet(np.column_stack([x, [0.0, 1.0, 2.0, 3.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = entropy_marginal_equiquantised(s, 2)
        # two points in each of two cells of volume 1e308 * 1.5: log2(2 * 1.5e308)
        assert est.value == pytest.approx(1.0 + np.log2(1.5e308), rel=1e-12)


@pytest.mark.parametrize("estimator", [entropy_naive, entropy_marginal_equiquantised])
@pytest.mark.parametrize("bins_per_dim", BAD_COUNTS)
def test_grid_rejects_bad_bins_per_dim_by_name(estimator, bins_per_dim):
    with pytest.raises(PreconditionError, match="^bins_per_dim must be an integer >= 1"):
        estimator(SampleSet(UNIT_SQUARE_CORNERS), bins_per_dim)


@pytest.mark.parametrize("estimator", [entropy_naive, entropy_marginal_equiquantised])
@pytest.mark.parametrize("scale", [1e-160, 1e-170])
def test_grid_rejects_underflowing_volumes_by_name(estimator, scale):
    # cells near 1e-320 are subnormal and their densities overflow (a -inf estimate
    # before); cells near 1e-340 are zero, and dropping them all gave 0.0
    s = SampleSet(np.random.default_rng(0).normal(size=(1000, 2)) * scale)
    with pytest.raises(DegeneratePartitionError, match="bin volumes underflow float64"):
        estimator(s, 4)


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
        assert np.prod(np.ptp(out.data, axis=0)) <= np.prod(np.ptp(s.data, axis=0))

    def test_rejects_nonpositive_k(self):
        with pytest.raises(PreconditionError):
            winsorise(SampleSet([[0.0], [1.0]]), 0.0)

    def test_overflowing_spread_is_raised_by_name(self):
        # from about 1e155 the squared deviations overflow; an infinite std clips nothing
        data = np.random.default_rng(56).normal(size=(100, 2))
        data[:, 0] *= 1e160
        with pytest.raises(DegeneratePartitionError, match="^sample standard deviation overflows float64"):
            winsorise(SampleSet(data), 3.0)

    def test_reach_past_float64_clips_nothing(self):
        data = np.random.default_rng(56).normal(size=(50, 2)) * 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = winsorise(SampleSet(data), 1e200)
        assert np.array_equal(out.data, data)

    def test_rejects_infinite_k_by_name(self):
        # inf * (zero spread) would make the constant column's clip bounds NaN
        with pytest.raises(PreconditionError, match="k_sigma"):
            winsorise(SampleSet([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]), float("inf"))


class TestEnsemble:
    def test_1d_orders_identical(self):
        # one dimension has one cyclic shift, so the ensemble is the plain estimate
        s = SampleSet(np.random.default_rng(57).normal(size=(16, 1)))
        est = ensemble_estimate(s, 2)
        assert est.value == entropy_equiprobable(build_equiprobable(s, 2))

    def test_2d_mean_of_two_orders(self):
        rng = np.random.default_rng(58)
        s = SampleSet(rng.normal(size=(48, 2)) @ rng.normal(size=(2, 2)))
        h01 = entropy_equiprobable(build_equiprobable(s, 1, (0, 1)))
        h10 = entropy_equiprobable(build_equiprobable(s, 1, (1, 0)))
        est = ensemble_estimate(s, 1)
        assert est.value == pytest.approx((h01 + h10) / 2.0, abs=1e-12)
        assert est.method == "ensemble"

    def test_depth_and_bin_count_come_from_the_partition(self):
        s = SampleSet(np.random.default_rng(59).normal(size=(32, 3)))
        est = ensemble_estimate(s, np.int64(1))
        partition = build_equiprobable(s, 1)
        assert type(est.depth) is int and est.depth == partition.depth == 1
        assert type(est.bin_count) is int and est.bin_count == partition.bin_count == 8


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
        rho = spearman_rho(variances, support_free)
        assert rho < -0.5


class TestGridEstimatorConsistency:
    def test_equiprobable_matches_closed_form_on_large_gaussian(self):
        # closed-form value of the estimator itself on the exact quartile
        # partition of an isotropic Gaussian, support at the expected sample
        # extremes; the sampled estimate should sit near it
        n = 20000
        ext = NormalDist().inv_cdf(1.0 - 0.5 / n)
        edges = np.array([-ext] + [NormalDist().inv_cdf(q / 4.0) for q in (1, 2, 3)] + [ext])
        widths = np.diff(edges)
        closed_form = (2.0 * 4.0 * np.log2(widths).sum()) / 16.0 + 4.0
        s = SampleSet(np.random.default_rng(1).standard_normal((n, 2)))
        est = entropy_equiprobable_estimate(s, 2)
        assert est.value == pytest.approx(closed_form, abs=0.25)
