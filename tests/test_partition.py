import json
import math
import re
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from conftest import BAD_COUNTS, recount_by_membership, reference_partition_volumes

from entropart import (
    DegeneratePartitionError,
    PreconditionError,
    SampleSet,
    bin_volumes,
    build_equiprobable,
    median_split,
    partition_from_dict,
    partition_to_dict,
)
from entropart import partition
from entropart.partition import Workspace, _split_rows, box_volumes, leaf_boxes


def assert_split_rows_match_stable_sort(values, idx):
    """Each row of ``idx`` is split as a stable argsort of its values alone
    would split it, down to the sign of a zero split."""
    right, split = _split_rows(values.take(idx), np.empty(idx.size))
    k = (idx.shape[1] + 1) // 2
    for row in range(idx.shape[0]):
        order = np.argsort(values[idx[row]], kind="stable")
        expected = 0.5 * (values[idx[row][order[k - 1]]] + values[idx[row][order[k]]])
        assert idx[row][~right[row]].tolist() == np.sort(idx[row][order[:k]]).tolist()
        assert idx[row][right[row]].tolist() == np.sort(idx[row][order[k:]]).tolist()
        assert split[row].tobytes() == expected.tobytes()
        assert np.signbit(split[row]) == np.signbit(expected)


def per_cell_leaf_boxes(points, depth, order):
    """The kernel as one ``_split_rows`` call per cell, each for all A sets of
    shape (A, d, N): cells listed in tree order, each split into its left then
    its right child, with every level's index matrices gathered by mask."""
    a, d, n = points.shape
    flat = points.ravel()
    rows = np.arange(a)[:, None] * (d * n) + np.arange(n)
    cells = [(points.min(axis=2), points.max(axis=2), rows)]
    for _ in range(depth):
        for dim in order:
            split_cells = []
            for lo, hi, idx in cells:
                right, split = _split_rows(flat[dim * n :].take(idx), np.empty(idx.size))
                left_hi, right_lo = hi.copy(), lo.copy()
                left_hi[:, dim] = right_lo[:, dim] = split
                left, right = idx[~right].reshape(a, -1), idx[right].reshape(a, -1)
                split_cells += [(lo, left_hi, left), (right_lo, hi, right)]
            cells = split_cells
    lower = np.ascontiguousarray(np.array([lo for lo, _, _ in cells]).swapaxes(0, 1))
    upper = np.ascontiguousarray(np.array([hi for _, hi, _ in cells]).swapaxes(0, 1))
    return lower, upper, np.array([idx.shape[1] for _, _, idx in cells])


# oracle outputs by (d, N, kind, A, order, depth): the split paths must agree
# bit for bit, so one per-cell oracle serves the default path and both forced ones
PER_CELL_ORACLES = {}


class TestLeafBoxes:
    @pytest.mark.parametrize("kind", ["continuous", "one-decimal", "signed-zero"])
    @pytest.mark.parametrize("n", [65, 100, 341, 512, 1000, 1023, 1024])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_per_cell_kernel_bit_for_bit(self, d, n, kind):
        # 65, 100, 341, 1000 and 1023 leave cells one point short of their
        # level's row length, so pad entries must split them as their own
        # size would; 341's sizes (341, 171, 86, 43, 22, 11, 6, 3) alternate
        # odd and even, so the -inf and +inf pads take turns; every depth
        # that N >= 2^(s*d) allows, every cycle order
        rng = np.random.default_rng(1000 * d + n)
        for a in (1, 2, 4):
            points = rng.normal(size=(a, n, d))
            if kind == "one-decimal":
                points = np.round(points, 1)
            elif kind == "signed-zero":
                points = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(a, n, d))
            points = np.ascontiguousarray(points.transpose(0, 2, 1))  # (A, d, N)
            for order in permutations(range(d)):
                for depth in range((n.bit_length() - 1) // d + 1):
                    got = leaf_boxes(points, depth, order)
                    key = (d, n, kind, a, order, depth)
                    if key not in PER_CELL_ORACLES:
                        PER_CELL_ORACLES[key] = per_cell_leaf_boxes(points, depth, order)
                    for g, w in zip(got, PER_CELL_ORACLES[key]):
                        assert (g.shape, g.dtype) == (w.shape, w.dtype)
                        assert g.tobytes() == w.tobytes()
                    assert got[0].flags.c_contiguous and got[1].flags.c_contiguous

    def test_peak_memory_of_a_large_build(self):
        # a 200000 x 2 build at depth 4 is the cli-ingest size: the column-order
        # copy build_equiprobable hands the kernel and the three level buffers
        # come to 2.5x the samples, and each level's gather adds an index array
        # of half a level (2.82x in all); an intp ramp beside the buffers at
        # set-up, and take copying into a strided side through a new array,
        # each push the peak past the bound
        samples = SampleSet(np.random.default_rng(7).normal(size=(200_000, 2)))
        tracemalloc.start()
        try:
            build_equiprobable(samples, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.9 * samples.data.nbytes

    def test_warm_kernel_call_allocates_no_index_matrix(self):
        # a search's kernel call on a warm workspace: the level buffers are
        # there, so only small per-level arrays are new; building the first
        # index matrix through a temporary of its own size pushes the peak past it
        a, n = 32, 512
        points = np.random.default_rng(3).normal(size=(a, 2, n))
        workspace = Workspace()
        leaf_boxes(points, 2, (0, 1), workspace)
        tracemalloc.start()
        try:
            leaf_boxes(points, 2, (0, 1), workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a * n * np.dtype(np.intp).itemsize


def column(values):
    """The (m, 1) points of one coordinate."""
    return np.array(values, dtype=float)[:, None]


class TestMedianSplit:
    def test_even_count(self):
        left, right, split = median_split(column([1.0, 2.0, 3.0, 4.0]), 0)
        assert sorted(left[:, 0]) == [1.0, 2.0]
        assert sorted(right[:, 0]) == [3.0, 4.0]
        assert split == 2.5

    def test_odd_count_larger_left(self):
        left, right, split = median_split(column([1.0, 2.0, 3.0]), 0)
        assert sorted(left[:, 0]) == [1.0, 2.0]
        assert sorted(right[:, 0]) == [3.0]
        assert split == 2.5

    def test_degenerate_ties(self):
        left, right, split = median_split(column([5.0, 5.0, 5.0, 5.0]), 0)
        assert len(left) == 2 and len(right) == 2
        assert split == 5.0

    def test_requires_two_points(self):
        with pytest.raises(PreconditionError):
            median_split(column([1.0]), 0)

    @pytest.mark.parametrize("shape", [(4,), (), (2, 2, 2)])
    def test_rejects_points_not_m_by_d_by_name(self, shape):
        with pytest.raises(PreconditionError, match=r"^median split points must be \(m, d\)"):
            median_split(np.zeros(shape), 0)

    def test_bad_dimension(self):
        with pytest.raises(PreconditionError):
            median_split(np.array([[1.0, 2.0], [3.0, 4.0]]), 2)

    @pytest.mark.parametrize("dim", BAD_COUNTS)
    def test_rejects_bad_dim_by_name(self, dim):
        with pytest.raises(PreconditionError, match="^dim must be an integer >= 0"):
            median_split(np.arange(12.0).reshape(4, 3), dim)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points_by_name(self, bad):
        with pytest.raises(PreconditionError, match="points must be finite"):
            median_split(column([1.0, bad, 2.0, 3.0]), 0)

    def test_2d_split_keeps_rows(self):
        pts = np.array([[3.0, 0.0], [1.0, 1.0], [2.0, 2.0], [4.0, 3.0]])
        left, right, split = median_split(pts, 0)
        assert split == 2.5
        assert {tuple(r) for r in left} == {(1.0, 1.0), (2.0, 2.0)}
        assert {tuple(r) for r in right} == {(3.0, 0.0), (4.0, 3.0)}

    def test_large_cell_ties_at_median_go_left_by_input_order(self):
        # 140 values below the tie, 40 tied, 120 above: the median (k=150)
        # falls inside the tied run, so 10 of the tied rows go left; in a
        # 9-point cell with 2 below, 4 tied and 3 above (k=5), 3 of them do
        rng = np.random.default_rng(8)
        for below, ties, above in [(140, 40, 120), (2, 4, 3)]:
            values = rng.permutation(
                np.concatenate(
                    [-rng.uniform(1.0, 2.0, below), np.zeros(ties), rng.uniform(1.0, 2.0, above)]
                )
            )
            pts = np.column_stack([values, np.arange(values.size, dtype=float)])
            left, right, split = median_split(pts, 0)
            tied = np.flatnonzero(values == 0.0)
            going = (values.size + 1) // 2 - below
            expected_left = np.sort(np.concatenate([np.flatnonzero(values < 0.0), tied[:going]]))
            assert split == 0.0
            assert left[:, 1].tolist() == expected_left.tolist()
            assert (
                right[:, 1].tolist() == np.setdiff1d(np.arange(values.size), expected_left).tolist()
            )

    def test_large_cell_tied_split_takes_sign_from_stable_order(self):
        # -0.0 == 0.0, so a selection may return either; the stable order puts
        # tied rows 9 and 10 (both -0.0) at the median, and in the reversed
        # input two 0.0 rows
        rng = np.random.default_rng(9)
        tied = np.zeros(40)
        tied[[9, 10]] = -0.0
        values = np.concatenate([-rng.uniform(1.0, 2.0, 140), tied, rng.uniform(1.0, 2.0, 120)])
        for values in (values, values[::-1].copy()):
            _, _, split = median_split(values[:, None], 0)
            assert split == 0.0
            order = np.argsort(values, kind="stable")
            assert np.signbit(split) == np.signbit(values[order[149]] + values[order[150]])

    @pytest.mark.parametrize("a", [1, 3])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 255, 256, 257, 1000])
    @pytest.mark.parametrize("kind", ["continuous", "small-integer", "signed-zero"])
    def test_split_rows_matches_stable_sort_oracle(self, kind, m, a):
        rng = np.random.default_rng(m * 10 + a)
        for _ in range(4):
            n = a * m + 7
            if kind == "continuous":
                values = rng.normal(size=n)
            elif kind == "small-integer":
                values = rng.integers(-2, 3, size=n).astype(float)
            else:
                values = rng.choice([-1.0, -0.0, 0.0, 1.0], size=n)
            idx = np.sort(rng.permutation(n)[: a * m].reshape(a, m), axis=1)
            assert_split_rows_match_stable_sort(values, idx)

    @pytest.mark.parametrize("m, seed", [(257, 99), (300, 2), (513, 206), (1000, 117)])
    def test_split_rows_upper_value_is_not_read_from_position_k(self, m, seed):
        # a selection at k-1 leaves the values right of it unordered; in these
        # rows numpy 2.4's quickselect leaves a larger value than the k-th
        # order statistic at position k
        values = np.random.default_rng(seed).normal(size=m)
        assert_split_rows_match_stable_sort(values, np.arange(m).reshape(1, m))


@pytest.fixture(params=[0, np.iinfo(np.intp).max], ids=["every-row-selected", "every-row-sorted"])
def split_path(request, monkeypatch):
    monkeypatch.setattr(partition, "SORTED_ROW_MAX", request.param)


@pytest.mark.usefixtures("split_path")
class TestLeafBoxesOnEachSplitPath(TestLeafBoxes):
    """The kernel's oracles, its rows of every length (pads, ties and signed
    zeros included) all selected, then all sorted."""


@pytest.mark.usefixtures("split_path")
class TestMedianSplitOnEachSplitPath(TestMedianSplit):
    """The median split's oracles, m = 255, 256 and 257 included, with every
    row selected, then with every row sorted."""


class TestBuildEquiprobable:
    def test_unit_square_corners(self):
        s = SampleSet([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        p = build_equiprobable(s, 1)
        assert p.bin_count == 4
        assert np.allclose(bin_volumes(p), 0.25)
        assert p.counts.tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_bin_count_law_and_conservation(self, d, depth):
        rng = np.random.default_rng(10 * d + depth)
        s = SampleSet(rng.normal(size=(2 ** (depth * d) * 3 + 5, d)))
        p = build_equiprobable(s, depth)
        assert p.bin_count == 2 ** (depth * d)
        total = bin_volumes(p).sum()
        assert total == pytest.approx(np.prod(p.support[1] - p.support[0]), rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_support_is_the_root_box_bit_for_bit(self, d):
        # zeros of both signs: the first leaf's lower corner and the last leaf's
        # upper one are the kernel's root box, and the support must be that box,
        # each zero's sign included; a second reduction of the rows can disagree
        # on the sign (on an AVX-512 host, for about one sample in eight at N=9)
        for n in (8, 9, 16, 100):
            for depth in range(min(2, (n.bit_length() - 1) // d) + 1):
                for seed in range(40):
                    rng = np.random.default_rng([d, n, depth, seed])
                    data = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(n, d))
                    p = build_equiprobable(SampleSet(data), depth)
                    assert p.support.tobytes() == np.array([p.lower[0], p.upper[-1]]).tobytes()

    def test_exact_multiple_counts_equal(self):
        rng = np.random.default_rng(42)
        s = SampleSet(rng.normal(size=(16 * 7, 2)))
        p = build_equiprobable(s, 2)
        assert set(p.counts.tolist()) == {7}

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_count_balance_bound(self, d, depth):
        rng = np.random.default_rng(100 * d + depth)
        s = SampleSet(rng.normal(size=(2 ** (depth * d) * 2 + 3, d)))
        p = build_equiprobable(s, depth)
        assert p.counts.max() - p.counts.min() <= d * depth

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_membership_recount_exact(self, d, depth):
        rng = np.random.default_rng(13 * d + depth)
        s = SampleSet(rng.normal(size=(2 ** (depth * d) * 3 + 1, d)))
        p = build_equiprobable(s, depth)
        recounted = recount_by_membership(s.data, p.lower, p.upper, p.support[1])
        assert recounted == p.counts.tolist()

    def test_affine_equivariance(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(70, 2))
        a = np.array([2.5, 0.4])
        b = np.array([-3.0, 11.0])
        p = build_equiprobable(SampleSet(data), 2)
        q = build_equiprobable(SampleSet(data * a + b), 2)
        assert q.counts.tolist() == p.counts.tolist()
        assert np.allclose(bin_volumes(q), bin_volumes(p) * np.prod(a), rtol=1e-9)

    def test_cycle_order_changes_volumes_not_counts(self):
        from itertools import permutations

        rng = np.random.default_rng(22)
        s = SampleSet(rng.normal(size=(80, 3)))
        vol_sets = set()
        for order in permutations(range(3)):
            p = build_equiprobable(s, 1, order)
            assert p.bin_count == 8
            assert p.counts.sum() == 80
            assert p.counts.max() - p.counts.min() <= 3
            vol_sets.add(tuple(np.sort(bin_volumes(p)).round(12)))
        assert len(vol_sets) > 1  # the order genuinely matters

    def test_parabola_tail_bins_larger_than_centre(self):
        # noisy parabola: low-density tails get big bins, the dense trough small ones
        rng = np.random.default_rng(20)
        x = rng.normal(0.0, 1.0, 256)
        y = x**2 + rng.normal(0.0, 0.5, 256)
        s = SampleSet(np.column_stack([x, y]))
        p = build_equiprobable(s, 2)
        assert p.bin_count == 16

        def bin_containing(point):
            for i, (lower, upper) in enumerate(zip(p.lower, p.upper)):
                upper_ok = np.where(upper == p.support[1], point <= upper, point < upper)
                if np.all(point >= lower) and np.all(upper_ok):
                    return i
            raise AssertionError("no bin contains the point")

        volumes = bin_volumes(p)
        (x_min, _), (x_max, y_max) = p.support
        top_left = bin_containing(np.array([x_min, y_max]))
        top_right = bin_containing(np.array([x_max, y_max]))
        centre = bin_containing(s.barycentre)
        assert volumes[top_left] > volumes[centre]
        assert volumes[top_right] > volumes[centre]

    def test_volumes_match_independent_reimplementation(self):
        rng = np.random.default_rng(20)
        x = rng.normal(0.0, 1.0, 256)
        y = x**2 + rng.normal(0.0, 0.5, 256)
        # one decimal leaves ~60 distinct values per axis, so ties straddle
        # the median of cells large enough to take the argpartition path
        tied = np.round(rng.normal(size=(1024, 2)) @ [[1.0, 0.6], [0.0, 0.8]], 1)
        for data in (np.column_stack([x, y]), tied):
            p = build_equiprobable(SampleSet(data), 2)
            volumes, counts = reference_partition_volumes(data, 2, (0, 1))
            assert np.allclose(bin_volumes(p), volumes, rtol=1e-12)
            assert p.counts.tolist() == counts

    def test_insufficient_samples(self):
        s = SampleSet(np.random.default_rng(0).normal(size=(15, 2)))
        for depth in (2, 10**4):  # 2^(2*10^4) has more digits than str() will print
            with pytest.raises(PreconditionError, match="2\\^\\(s\\*d\\)"):
                build_equiprobable(s, depth)
        assert build_equiprobable(SampleSet(np.vstack([s.data, [[0.0, 0.0]]])), 2).bin_count == 16

    @pytest.mark.parametrize("depth", [-1, 1.5, np.nan, np.inf, 2.5, 2.0])
    def test_rejects_bad_depth_by_name(self, depth):
        s = SampleSet(np.random.default_rng(0).normal(size=(16, 2)))
        with pytest.raises(PreconditionError, match="depth must be an integer >= 0"):
            build_equiprobable(s, depth)

    def test_invalid_cycle_order(self):
        s = SampleSet(np.random.default_rng(0).normal(size=(8, 2)))
        with pytest.raises(PreconditionError):
            build_equiprobable(s, 1, (0, 0))

    @pytest.mark.parametrize("entry", BAD_COUNTS)
    def test_rejects_bad_cycle_order_entry_by_name(self, entry):
        s = SampleSet(np.random.default_rng(0).normal(size=(8, 2)))
        with pytest.raises(PreconditionError, match=r"^cycle_order\[1\] must be an integer >= 0"):
            build_equiprobable(s, 1, (0, entry))

    def test_numpy_cycle_order_exports_to_json(self):
        s = SampleSet(np.random.default_rng(0).normal(size=(8, 2)))
        p = build_equiprobable(s, 1, np.array([1, 0]))
        assert json.loads(json.dumps(partition_to_dict(p)))["cycle_order"] == [1, 0]

    def test_depth_zero_single_bin(self):
        s = SampleSet([[0.0, 0.0], [2.0, 3.0]])
        p = build_equiprobable(s, 0)
        assert p.bin_count == 1
        assert p.counts[0] == 2

    def test_deep_bivariate_warns(self):
        rng = np.random.default_rng(1)
        s = SampleSet(rng.normal(size=(2048, 2)))
        with pytest.warns(UserWarning, match="depth"):
            build_equiprobable(s, 5)

    def test_zero_width_support_permitted(self):
        s = SampleSet([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0]])
        p = build_equiprobable(s, 1)
        assert all(v == 0.0 for v in bin_volumes(p))
        assert p.counts.sum() == 4


class TestBinVolumes:
    def test_normalized_sums_to_one(self):
        rng = np.random.default_rng(30)
        s = SampleSet(rng.normal(size=(64, 2)) * 17.0)
        p = build_equiprobable(s, 2)
        assert bin_volumes(p, normalize=True).sum() == pytest.approx(1.0, abs=1e-12)

    def test_raw_equals_unnormalized(self):
        s = SampleSet([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        p = build_equiprobable(s, 1)
        assert np.array_equal(bin_volumes(p), bin_volumes(p, normalize=True))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_volumes_are_numpy_products_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        lower = rng.normal(size=(7, 16, d)) * 10.0 ** rng.integers(-5, 6, size=(7, 16, d))
        upper = lower + rng.random(size=lower.shape)
        assert box_volumes(lower, upper).tobytes() == (upper - lower).prod(axis=-1).tobytes()

    def test_zero_dimensional_document_has_the_empty_product_volume(self):
        doc = {"support": {"lower": [], "upper": []}, "depth": 0, "dims": 0, "cycle_order": []}
        doc["bins"] = [{"lower": [], "upper": [], "count": 5, "volume": 1.0}]
        assert bin_volumes(partition_from_dict(doc)).tolist() == [1.0]

    def test_zero_volume_normalization_rejected(self):
        s = SampleSet([[0.0, 1.0], [0.0, 2.0]])
        p = build_equiprobable(s, 0)
        with pytest.raises(DegeneratePartitionError):
            bin_volumes(p, normalize=True)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_overflowing_volume_rejected_by_name(self, normalize):
        # 1e160-wide bins: each volume is past float64, silently (warnings are errors here)
        s = SampleSet(np.random.default_rng(31).normal(size=(64, 2)) * 1e160)
        p = build_equiprobable(s, 1)
        with pytest.raises(DegeneratePartitionError, match="overflow"):
            bin_volumes(p, normalize)

    def test_overflowing_total_rejected_by_name(self):
        # two finite volumes of 1.5e308 whose total is not
        s = SampleSet(np.array([-1.5e308, -1.0, 1.0, 1.5e308])[:, None])
        p = build_equiprobable(s, 1)
        assert bin_volumes(p).tolist() == [1.5e308, 1.5e308]
        with pytest.raises(DegeneratePartitionError, match="overflow"):
            bin_volumes(p, normalize=True)


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        rng = np.random.default_rng(40)
        s = SampleSet(rng.normal(size=(32, 2)))
        p = build_equiprobable(s, 1, (1, 0))
        doc = json.loads(json.dumps(partition_to_dict(p)))
        q = partition_from_dict(doc)
        assert q.depth == p.depth
        assert q.dims == p.dims
        assert q.cycle_order == p.cycle_order
        assert np.array_equal(q.support, p.support)
        assert np.array_equal(q.counts, p.counts)
        assert np.array_equal(bin_volumes(q), bin_volumes(p))
        assert np.array_equal(q.lower, p.lower)
        assert np.array_equal(q.upper, p.upper)

    def test_support_check_is_blind_to_a_zeros_sign(self):
        # a document from elsewhere may reduce its support otherwise than the kernel
        p = build_equiprobable(SampleSet([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), 1)
        doc = json.loads(json.dumps(partition_to_dict(p)))
        doc["support"]["lower"] = [-0.0, -0.0]
        q = partition_from_dict(doc)
        assert np.signbit(q.support[0]).all() and not np.signbit(q.lower[0]).any()

    def test_malformed_document(self):
        with pytest.raises(PreconditionError):
            partition_from_dict({"depth": 1})

    @pytest.mark.parametrize(
        "case",
        [
            "non-numeric count",
            "non-numeric volume",
            "non-numeric depth",
            "inverted bounds",
            "ragged bounds",
            "non-finite bound",
            "volume not the product of widths",
            "dropped bin",
            "depth too large for the bins",
            "dims too large for the bins",
            "fractional count",
            "negative count",
            "fractional depth",
            "negative depth",
            "fractional dims",
            "negative dims",
            "bounds not dims wide",
            "inverted support",
            "inf in support",
            "NaN in support",
            "support not dims wide",
            "support lower and upper of different lengths",
            "ragged support",
            "support not the bins' bounding box",
            "repeated cycle_order entry",
            "depth whose bin count has over 4300 digits",
        ]
        + [
            f"{field} = {bad}"
            for field in ("depth", "dims", "bins[0].count", "cycle_order[1]")
            for bad in ("2.5", "integral float", "nan", "inf", "-1")
        ],
    )
    def test_malformed_bins_rejected(self, case):
        p = build_equiprobable(SampleSet(np.random.default_rng(41).normal(size=(32, 2))), 1)
        doc = json.loads(json.dumps(partition_to_dict(p)))
        b, support = doc["bins"][0], doc["support"]
        match = "malformed partition document"
        if case == "non-numeric count":
            b["count"] = "eight"
        elif case == "non-numeric volume":
            b["volume"] = "large"
        elif case == "non-numeric depth":
            doc["depth"] = "one"
        elif case == "inverted bounds":
            b["lower"], b["upper"] = b["upper"], b["lower"]
            b["volume"] = float(np.prod(np.subtract(b["upper"], b["lower"])))
        elif case == "ragged bounds":
            b["lower"] = b["lower"] + [0.0]
        elif case == "non-finite bound":
            b["upper"][0] = float("inf")
        elif case == "volume not the product of widths":
            b["volume"] = float(np.nextafter(b["volume"], np.inf))
        elif case == "dropped bin":
            doc["bins"].pop()
        elif case == "depth too large for the bins":
            doc["depth"] = 2
        elif case == "dims too large for the bins":
            doc["dims"] = 3
        elif case == "fractional count":
            b["count"] = 16.7
        elif case == "negative count":
            b["count"] = -3
        elif case == "fractional depth":
            doc["depth"] = 1.5
        elif case == "negative depth":
            doc["depth"] = -1
        elif case == "fractional dims":
            doc["dims"] = 2.5
        elif case == "negative dims":
            doc["dims"] = -2
        elif case == "bounds not dims wide":  # 4 bins of depth 2 in one dimension
            doc["depth"], doc["dims"], doc["cycle_order"] = 2, 1, [0]
        elif case == "inverted support":
            support["lower"], support["upper"] = support["upper"], support["lower"]
        elif case == "inf in support":
            support["upper"][1] = math.inf
        elif case == "NaN in support":
            support["lower"][0] = math.nan
        elif case == "support not dims wide":
            support["lower"], support["upper"] = support["lower"] + [0.0], support["upper"] + [1.0]
        elif case == "support lower and upper of different lengths":
            support["upper"] = support["upper"][:1]
        elif case == "ragged support":
            support["lower"] = [support["lower"][0], [support["lower"][1]]]
        elif case == "support not the bins' bounding box":  # finite and ordered, but elsewhere
            support["lower"], support["upper"] = [100.0, 100.0], [101.0, 101.0]
            match += ": support is not the bins' bounds"
        elif case == "repeated cycle_order entry":
            doc["cycle_order"] = [0, 0]
        elif case == "depth whose bin count has over 4300 digits":
            # 2**(depth*dims) is never built, so neither its cost nor str()'s limit applies
            doc["depth"] = 10**6
        else:  # "<field> = <bad value>", and the message names the field
            field, bad = case.split(" = ")
            holder, key = {
                "depth": (doc, "depth"),
                "dims": (doc, "dims"),
                "bins[0].count": (b, "count"),
                "cycle_order[1]": (doc["cycle_order"], 1),
            }[field]
            holder[key] = {
                "2.5": 2.5,
                "integral float": float(holder[key]),
                "nan": math.nan,
                "inf": math.inf,
                "-1": -1,
            }[bad]
            match += f": {re.escape(field)} must be an integer >= 0"
        with pytest.raises(PreconditionError, match=match):
            partition_from_dict(doc)
