import hashlib
import json
import math

import numpy as np
import pytest
from conftest import BAD_COUNTS

import entropart.benchmark
import entropart.optimizer
from entropart import (
    CovarianceSpec,
    OptimizerConfig,
    PreconditionError,
    SampleSet,
    bootstrap_ci_lower,
    entropy_rotated,
    random_covariance,
    run_study,
    sample_gaussian,
    study_to_csv,
    study_to_json_dict,
    theoretical_entropy,
)
from entropart.benchmark import (
    DET_FLOOR,
    STUDY_CSV_HEADER,
    STUDY_METHODS,
    depth_and_grid_for_bins,
)
from entropart.optimizer import BATCH_SAMPLES

LOG2_2PIE = 4.094191170361282


class TestCovarianceSpec:
    def test_identity(self):
        cov = CovarianceSpec(np.eye(2))
        assert cov.det == pytest.approx(1.0, abs=1e-12)
        assert cov.d == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(PreconditionError):
            CovarianceSpec(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(PreconditionError):
            CovarianceSpec(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize(
        "sigma, message",
        [
            (np.ones((2, 3)), "covariance must be a square matrix"),
            ([[1.0, np.nan], [np.nan, 1.0]], "covariance must be finite"),
        ],
    )
    def test_rejects_a_malformed_matrix_by_name(self, sigma, message):
        with pytest.raises(PreconditionError, match=message):
            CovarianceSpec(sigma)

    def test_rejects_near_singular(self):
        with pytest.raises(PreconditionError):
            CovarianceSpec(np.diag([0.05, 0.05]))  # det below the floor


class TestTheoreticalEntropy:
    def test_identity_covariance(self):
        assert theoretical_entropy(CovarianceSpec(np.eye(2))) == pytest.approx(
            LOG2_2PIE, abs=1e-12
        )

    def test_scaled_covariance_adds_log_det(self):
        cov = CovarianceSpec(np.diag([4.0, 4.0]))
        assert theoretical_entropy(cov) == pytest.approx(LOG2_2PIE + 2.0, abs=1e-12)


class TestRandomCovariance:
    def test_draws_are_valid_and_floor_respected(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cov = random_covariance(rng)
            assert np.allclose(cov.sigma, cov.sigma.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(cov.sigma)) > 0.0
            assert cov.det > DET_FLOOR

    def test_covers_high_correlation(self):
        rng = np.random.default_rng(1)
        high = 0
        for _ in range(10000):
            sigma = random_covariance(rng).sigma
            rho = sigma[0, 1] / math.sqrt(sigma[0, 0] * sigma[1, 1])
            high += abs(rho) > 0.9
        assert high > 0

    def test_gives_up_by_name_when_no_draw_clears_the_floor(self, monkeypatch):
        monkeypatch.setattr(entropart.benchmark, "DET_FLOOR", 1e300)
        message = "^no covariance above the determinant floor in 1000 draws$"
        with pytest.raises(PreconditionError, match=message):
            random_covariance(np.random.default_rng(0))

    def test_deterministic_sequence(self):
        first = [random_covariance(np.random.default_rng(7)).sigma for _ in range(1)]
        second = [random_covariance(np.random.default_rng(7)).sigma for _ in range(1)]
        assert np.array_equal(first[0], second[0])


class TestSampleGaussian:
    def test_single_point(self):
        s = sample_gaussian(CovarianceSpec(np.eye(2)), 1, np.random.default_rng(2))
        assert s.n == 1
        assert np.isfinite(s.data).all()

    def test_sample_covariance_converges(self):
        s = sample_gaussian(CovarianceSpec(np.eye(2)), 100000, np.random.default_rng(3))
        assert np.abs(np.cov(s.data.T) - np.eye(2)).max() < 0.05

    def test_bit_identical_with_same_seed(self):
        cov = CovarianceSpec(np.array([[2.0, 0.5], [0.5, 1.0]]))
        a = sample_gaussian(cov, 64, np.random.default_rng(4))
        b = sample_gaussian(cov, 64, np.random.default_rng(4))
        assert np.array_equal(a.data, b.data)

    def test_rejects_zero_samples(self):
        with pytest.raises(PreconditionError):
            sample_gaussian(CovarianceSpec(np.eye(2)), 0, np.random.default_rng(5))


class TestBootstrap:
    def test_constant_diffs_return_that_constant(self):
        assert bootstrap_ci_lower([3.0] * 8, rng=np.random.default_rng(6)) == 3.0

    def test_symmetric_null_gives_negative_bound(self):
        rng = np.random.default_rng(7)
        diffs = rng.normal(0.0, 1.0, 1000)
        diffs = np.concatenate([diffs, -diffs])  # exactly centred
        assert bootstrap_ci_lower(diffs, rng=np.random.default_rng(8)) < 0.0

    def test_deterministic(self):
        diffs = np.random.default_rng(9).normal(size=50)
        a = bootstrap_ci_lower(diffs, rng=np.random.default_rng(10))
        b = bootstrap_ci_lower(diffs, rng=np.random.default_rng(10))
        assert a == b

    def test_default_stream_is_seed_zero(self):
        diffs = np.random.default_rng(11).normal(size=50)
        assert bootstrap_ci_lower(diffs) == bootstrap_ci_lower(diffs, rng=np.random.default_rng(0))

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            bootstrap_ci_lower([])

    def test_level_validated(self):
        with pytest.raises(PreconditionError):
            bootstrap_ci_lower([1.0, 2.0], level=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_diffs_by_name(self, bad):
        # NaN would come back as the bound, and inf as a finite bound for an infinite mean
        with pytest.raises(PreconditionError, match="diffs must be finite"):
            bootstrap_ci_lower([bad, 1.0])


class TestBinPairing:
    def test_valid_pairings(self):
        assert depth_and_grid_for_bins(4) == (1, 2)
        assert depth_and_grid_for_bins(16) == (2, 4)
        assert depth_and_grid_for_bins(64) == (3, 8)

    @pytest.mark.parametrize("bins", [2, 8, 15, 0])
    def test_invalid_pairings(self, bins):
        with pytest.raises(PreconditionError, match="2\\^\\(s\\*d\\)"):
            depth_and_grid_for_bins(bins)


class TestRunStudy:
    def test_single_trial_mse_is_squared_error(self):
        study = run_study(32, 4, 1, seed=5)
        assert study.trials == 1
        assert math.isnan(study.ci_lower)
        trial = study.trial_results[0]
        for method, mse in study.mse.items():
            assert mse == pytest.approx(trial.abs_pct_error[method] ** 2, abs=1e-15)

    def test_small_study_structure(self):
        study = run_study(32, 4, 5, seed=6, bootstrap_resamples=500)
        assert study.trials == 5
        assert study.failures == 0
        assert set(study.mse) == {
            "naive",
            "marginal_equiquantised",
            "equiprobable",
            "rotated_equiprobable",
        }
        for trial in study.trial_results:
            assert trial.theoretical > 0.0
            for err in trial.abs_pct_error.values():
                assert np.isfinite(err) and err >= 0.0

    def test_mse_matches_brute_force_recomputation(self):
        study = run_study(32, 4, 6, seed=7, bootstrap_resamples=200)
        for method, mse in study.mse.items():
            manual = np.mean([t.abs_pct_error[method] ** 2 for t in study.trial_results])
            assert mse == pytest.approx(manual, abs=1e-12)

    def test_deterministic_csv_bytes(self):
        a = study_to_csv(run_study(32, 4, 3, seed=8, bootstrap_resamples=300))
        b = study_to_csv(run_study(32, 4, 3, seed=8, bootstrap_resamples=300))
        assert a.encode() == b.encode()

    def test_rejects_bad_bin_count(self):
        with pytest.raises(PreconditionError):
            run_study(32, 8, 2, seed=9)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"trials": 2.5}, "trials"),
            ({"trials": 0}, "trials"),
            ({"n": 16.5}, "n"),
            ({"n": 0}, "n"),
            ({"bootstrap_resamples": 0}, "bootstrap_resamples"),
            ({"bootstrap_resamples": -1}, "bootstrap_resamples"),
            ({"bootstrap_resamples": 10.0}, "bootstrap_resamples"),
        ]
        + [({name: v}, name) for name in ("n", "trials", "bootstrap_resamples") for v in BAD_COUNTS],
    )
    def test_rejects_bad_counts_by_name(self, kwargs, name):
        args = {"n": 16, "bins": 4, "trials": 2, "seed": 1, **kwargs}
        with pytest.raises(PreconditionError, match=f"^{name} must be an integer >= 1"):
            run_study(**args)

    @pytest.mark.parametrize("name", ["bins", "seed"])
    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_rejects_bad_bins_and_seed_by_name(self, name, value):
        args = {"n": 16, "bins": 4, "trials": 2, "seed": 1, name: value}
        with pytest.raises(PreconditionError, match=f"^{name} must be an integer >= 0"):
            run_study(**args)

    @pytest.mark.parametrize("resamples", [0, -1, 2.5, 2.0, math.nan, math.inf])
    def test_bootstrap_rejects_bad_resamples_by_name(self, resamples):
        with pytest.raises(PreconditionError, match="^resamples must be an integer >= 1"):
            bootstrap_ci_lower([1.0, 2.0], resamples=resamples)

    def test_rejects_too_few_samples(self):
        with pytest.raises(PreconditionError):
            run_study(8, 16, 2, seed=10)


def estimates_table(study):
    return np.array([[t.estimates[m] for m in STUDY_METHODS] for t in study.trial_results])


CUSTOM = OptimizerConfig(starts=3, scan_points=256, eigenvector_start=False)

# recorded from the sequential trial loop, before the searches of a group ran
# in lock-step: a digest of every trial's four estimates, then mse and ci_lower
SEQUENTIAL_STUDIES = [
    (
        (32, 4, 30, 21, None),
        "a819e74c378e8ecc",
        [0.015488301765893041, 0.014769209799429141, 0.027434951329520955, 0.0021621056654752145],
        0.002575421313468851,
    ),
    (
        (100, 16, 11, 22, None),
        "16ed5f0f0dff9bd4",
        [0.0035423504410513128, 0.006417245233297775, 0.013219192689735993, 0.0006919568057668625],
        -0.000207140950420424,
    ),
    (
        (100, 16, 34, 23, CUSTOM),
        "8ac200e40245b951",
        [0.021065657945469312, 0.019358662987855102, 0.04253867438795661, 0.0006724840660257645],
        0.001786102456107287,
    ),
    (
        (1024, 16, 2, 24, None),
        "b3d8f744b96232f3",
        [0.0013603549568390204, 0.0066122436822734, 0.007629673184169777, 0.006222052094665753],
        -0.006720306190036045,
    ),
]


class TestLockstepStudy:
    @pytest.mark.parametrize("args, digest, mse, ci_lower", SEQUENTIAL_STUDIES)
    def test_lockstep_study_is_the_sequential_study_bit_for_bit(self, args, digest, mse, ci_lower):
        n, bins, trials, seed, config = args
        group = BATCH_SAMPLES // n // ((config or OptimizerConfig()).starts + 2)
        assert trials > max(1, group)  # more than one group, the last one short
        study = run_study(n, bins, trials, seed, config, bootstrap_resamples=500)
        assert study.failures == 0 and study.trials == trials
        depth = depth_and_grid_for_bins(bins)[0]
        for trial, result in enumerate(study.trial_results):
            rng = np.random.default_rng([seed, trial])
            samples = sample_gaussian(random_covariance(rng), n, rng)
            expected = entropy_rotated(samples, depth, config=config).value
            assert result.estimates["rotated_equiprobable"] == expected
        table = estimates_table(study)
        assert hashlib.sha256(table.tobytes()).hexdigest()[:16] == digest
        assert [study.mse[m] for m in STUDY_METHODS] == mse
        assert study.ci_lower == ci_lower

    def test_a_group_shares_its_kernel_calls(self, monkeypatch):
        # four N=100 trials are one group: each scan batch and each polish
        # round is one kernel call across them, not one per trial
        calls = []
        kernel = entropart.optimizer.leaf_boxes
        monkeypatch.setattr(
            entropart.optimizer, "leaf_boxes", lambda *a: calls.append(1) or kernel(*a)
        )
        grouped = run_study(100, 16, 4, 5, bootstrap_resamples=50)
        grouped_calls = len(calls)
        monkeypatch.setattr(entropart.benchmark, "BATCH_SAMPLES", 1)  # groups of one trial
        sequential = run_study(100, 16, 4, 5, bootstrap_resamples=50)
        assert grouped_calls < (len(calls) - grouped_calls) / 2
        assert estimates_table(grouped).tobytes() == estimates_table(sequential).tobytes()

    @pytest.mark.parametrize(
        "config, message",
        [(None, "sample covariance overflows"), (CUSTOM, "bin volumes overflow")],
        ids=["fails-at-creation", "fails-in-a-grouped-kernel-call"],
    )
    def test_a_failed_search_fails_only_its_own_trial(self, monkeypatch, config, message):
        # trial 2's sample is stretched 1e200 along x and squeezed 1e-200 along
        # y: its three baselines hold, but its search fails, either at its
        # eigenvector seeds or where a rotated bin's volume overflows
        plain = run_study(32, 4, 6, 12, config, bootstrap_resamples=200)
        draw, stretch, drawn = entropart.benchmark.sample_gaussian, np.array([1e200, 1e-200]), []

        def draw_trial_2_stretched(cov, n, rng):
            drawn.append(draw(cov, n, rng))
            return SampleSet(drawn[-1].data * stretch) if len(drawn) % 6 == 3 else drawn[-1]

        monkeypatch.setattr(entropart.benchmark, "sample_gaussian", draw_trial_2_stretched)
        grouped = run_study(32, 4, 6, 12, config, bootstrap_resamples=200)
        monkeypatch.setattr(entropart.benchmark, "BATCH_SAMPLES", 1)  # groups of one trial
        sequential = run_study(32, 4, 6, 12, config, bootstrap_resamples=200)
        assert BATCH_SAMPLES // 32 // ((config or OptimizerConfig()).starts + 2) >= 6  # one group
        with pytest.raises(PreconditionError, match=message):
            entropy_rotated(SampleSet(drawn[2].data * stretch), 1, config=config)
        assert (grouped.failures, grouped.trials) == (1, 5)
        assert (sequential.failures, sequential.trials) == (1, 5)
        others = estimates_table(plain)[[0, 1, 3, 4, 5]]
        assert estimates_table(grouped).tobytes() == others.tobytes()
        assert estimates_table(sequential).tobytes() == others.tobytes()
        assert [grouped.mse[m] for m in STUDY_METHODS] == [sequential.mse[m] for m in STUDY_METHODS]
        assert grouped.ci_lower == sequential.ci_lower


@pytest.fixture(scope="module")
def study():
    return run_study(32, 4, 3, seed=11, bootstrap_resamples=300)


class TestReports:
    def test_csv_shape(self, study):
        text = study_to_csv(study)
        header, row, trailer = text.split("\n")
        assert header == STUDY_CSV_HEADER
        assert trailer == ""
        fields = row.split(",")
        assert len(fields) == 7
        assert fields[0] == "32" and fields[1] == "4"
        # 17-significant-digit serialization round-trips exactly
        assert float(fields[2]) == study.mse["naive"]
        assert float(fields[6]) == study.ci_lower

    def test_json_document(self, study):
        doc = study_to_json_dict(study)
        assert doc["n"] == 32 and doc["bins"] == 4
        assert len(doc["trial_results"]) == 3

    def test_json_validates_against_schema(self, study):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        schema = json.loads(
            resources.files("entropart").joinpath("schemas/study.schema.json").read_text()
        )
        doc = json.loads(json.dumps(study_to_json_dict(study)))
        jsonschema.validate(doc, schema)
        del doc["trial_results"]  # every report carries them
        with pytest.raises(jsonschema.ValidationError, match="'trial_results' is a required"):
            jsonschema.validate(doc, schema)
