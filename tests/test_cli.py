import hashlib
import importlib
import json
import sys
from importlib import resources

import numpy as np
import pytest
from conftest import recount_by_membership

import entropart
from entropart.cli import METHODS, main, read_samples_csv
from entropart.partition import partition_from_dict, partition_to_dict

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


def write_csv(path, rows, header=None):
    lines = ([header] if header else []) + [",".join(f"{v!r}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def corners_csv(tmp_path):
    return write_csv(tmp_path / "corners.csv", [[0, 0], [0, 1], [1, 0], [1, 1]])


@pytest.fixture
def fig2_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.0, 64)
    y = x + rng.normal(0.0, 0.5, 64)
    return write_csv(tmp_path / "fig2.csv", np.column_stack([x, y]).tolist())


@pytest.fixture
def parabola_csv(tmp_path):
    rng = np.random.default_rng(20)
    x = rng.normal(0.0, 1.0, 256)
    y = x**2 + rng.normal(0.0, 0.5, 256)
    return write_csv(tmp_path / "parabola.csv", np.column_stack([x, y]).tolist())


@pytest.fixture
def huge_csv(tmp_path):
    # finite coordinates whose bin volumes, near 1e320, are past float64
    rows = np.random.default_rng(3).normal(size=(64, 2)) * 1e160
    return write_csv(tmp_path / "huge.csv", rows.tolist())


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def load_schema(name):
    return json.loads(resources.files("entropart").joinpath(f"schemas/{name}").read_text())


class TestReadCsv:
    def test_reads_plain_floats(self, corners_csv):
        s = read_samples_csv(corners_csv)
        assert (s.n, s.d) == (4, 2)

    def test_header_skipped(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", [[1, 2], [3, 4]], header="x,y")
        s = read_samples_csv(path, has_header=True)
        assert s.n == 2

    def test_reports_bad_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\noops,3.0\n", encoding="utf-8")
        from entropart.cli import CsvParseError

        with pytest.raises(CsvParseError, match="line 2"):
            read_samples_csv(str(p))

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        from entropart.cli import CsvParseError

        with pytest.raises(CsvParseError, match="line 2"):
            read_samples_csv(str(p))

    @pytest.mark.parametrize(
        "text, has_header, message",
        [
            ("1,2\n\n3,4\n", False, "line 2: empty line"),
            ("1,2\n \t \n3,4\n", False, "line 2: empty line"),
            ("1,2\nnan,3\n", False, "line 2: non-finite value"),
            ("1,2\n3,-inf\n", False, "line 2: non-finite value"),
            ("1,2\n1e400,3\n", False, "line 2: non-finite value"),
            ("", False, "no data rows"),
            ("x,y\n", True, "no data rows"),
            ("1,2\n3,4\n\n\n", False, "line 3: empty line"),
            ("1,2\n3,4\nnan,5\n6,7\n\n8,9\n", False, "line 3: non-finite value"),
            ("1,2\n3,4,5\n", False, "line 2: expected 2 columns, found 3"),
            ("1,2\n3,x\n", False, "line 2: non-numeric field in '3,x'"),
            # a header line still counts: numbering starts past it, not from it
            ("x,y\n1,2\n3,x\n", True, "line 3: non-numeric field in '3,x'"),
            ("x,y\n1,2\n3,4,5\n", True, "line 3: expected 2 columns, found 3"),
            ("x,y\n1_0,2\n\n3,4\n", True, "line 3: empty line"),
        ],
    )
    def test_rejects_with_first_bad_line(self, tmp_path, text, has_header, message):
        from entropart.cli import CsvParseError

        p = tmp_path / "bad.csv"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(CsvParseError) as info:
            read_samples_csv(str(p), has_header=has_header)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, has_header, expected",
        [
            ("1,2\n3,4\n\n", False, [[1, 2], [3, 4]]),  # one trailing blank line
            ("1,2\n3,4", False, [[1, 2], [3, 4]]),  # no final newline
            ("x,y\r\n 1 , 2\r\n3,\t4 \r\n", True, [[1, 2], [3, 4]]),  # CRLF, padded fields
            ("1,2\r3,4\r", False, [[1, 2], [3, 4]]),  # lone CR ends a line in text mode
            ("1_000,٣\n5,6\n", False, [[1000, 3], [5, 6]]),  # spellings only float() reads
            ("1_0,2\n3,4\n\n", False, [[10, 2], [3, 4]]),  # line by line, one trailing blank
            ("x,y\n1_0,2\n3,4\n", True, [[10, 2], [3, 4]]),  # line by line, past a header
        ],
    )
    def test_accepts(self, tmp_path, text, has_header, expected):
        p = tmp_path / "ok.csv"
        p.write_bytes(text.encode("utf-8"))
        data = read_samples_csv(str(p), has_header=has_header).data
        assert data.tolist() == expected

    @pytest.mark.parametrize("d", [2, 3])
    def test_round_trips_bit_for_bit(self, tmp_path, d):
        rng = np.random.default_rng(d)
        p = tmp_path / "random.csv"
        written = rng.standard_normal((500, d)) * 10.0 ** rng.integers(-300, 300, d)
        np.savetxt(p, written, fmt="%.17g", delimiter=",")
        lines = p.read_text(encoding="utf-8").splitlines()
        oracle = np.array([[float(f) for f in line.split(",")] for line in lines])
        data = read_samples_csv(str(p)).data
        assert data.dtype == oracle.dtype and data.shape == oracle.shape
        assert data.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_line_end_at_the_scan_chunk_boundary(self, tmp_path, end):
        # lines of 17 characters plus the line end; padding the first line puts a
        # CR on the last byte of the first MB, so a CRLF straddles the boundary
        rows = [f"{x:.6f},{y:.6f}" for x, y in np.random.default_rng(9).uniform(1, 2, (70000, 2))]
        length = len(rows[0]) + len(end)
        pad = (2**20 - 1 + len(end)) % length
        text = " " * pad + end.join(rows) + end
        assert text[2**20 - 1] == "\r"
        p = tmp_path / "large.csv"
        p.write_bytes(text.encode("utf-8"))
        oracle = np.array([[float(f) for f in line.split(",")] for line in text.splitlines()])
        data = read_samples_csv(str(p)).data
        assert data.shape == oracle.shape == (70000, 2)
        assert data.tobytes() == oracle.tobytes()


class TestEstimateCommand:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_method_table_holds_the_library_estimator(self, method):
        # no adapter: each method runs an exported function with the flags' values
        estimator = METHODS[method][0]
        assert estimator.__name__ in entropart.__all__
        assert getattr(entropart, estimator.__name__) is estimator

    def test_equiprobable_on_corners(self, capsys, corners_csv):
        doc = run_json(
            capsys, ["estimate", "--input", corners_csv, "--method", "equiprobable", "--depth", "1"]
        )
        assert doc["entropy_bits"] == pytest.approx(0.0, abs=1e-12)
        assert doc["method"] == "equiprobable"
        assert doc["bin_count"] == 4
        assert (doc["n"], doc["d"]) == (4, 2)

    def test_naive_single_bin_on_corners(self, capsys, corners_csv):
        doc = run_json(
            capsys, ["estimate", "--input", corners_csv, "--method", "naive", "--bins-per-dim", "1"]
        )
        assert doc["entropy_bits"] == pytest.approx(0.0, abs=1e-12)

    def test_rotated_reports_rotation(self, capsys, fig2_csv):
        from conftest import circular_distance

        doc = run_json(
            capsys, ["estimate", "--input", fig2_csv, "--method", "rotated", "--depth", "1"]
        )
        assert doc["method"] == "rotated_equiprobable"
        assert 0.0 <= doc["rotation_angle_rad"] < 2.0 * np.pi
        assert len(doc["rotation_mrp"]) == 3
        # diagonal data aligns with a partition axis: pi/4 up to the
        # quarter-turn symmetry family
        dist = min(
            circular_distance(doc["rotation_angle_rad"], np.pi / 4.0 + j * np.pi / 2.0)
            for j in range(4)
        )
        assert dist <= 0.15

    def test_ensemble_and_marginal(self, capsys, fig2_csv):
        doc = run_json(
            capsys, ["estimate", "--input", fig2_csv, "--method", "ensemble", "--depth", "1"]
        )
        assert doc["method"] == "ensemble"
        doc = run_json(
            capsys,
            ["estimate", "--input", fig2_csv, "--method", "marginal", "--bins-per-dim", "2"],
        )
        assert doc["method"] == "marginal_equiquantised"

    def test_winsorise_changes_outlier_result(self, capsys, tmp_path):
        rows = np.random.default_rng(1).normal(size=(63, 2)).tolist() + [[40.0, -40.0]]
        path = write_csv(tmp_path / "outlier.csv", rows)
        plain = run_json(capsys, ["estimate", "--input", path, "--method", "naive", "--bins-per-dim", "2"])
        clipped = run_json(
            capsys,
            ["estimate", "--input", path, "--method", "naive", "--bins-per-dim", "2", "--winsorise", "3"],
        )
        assert clipped["entropy_bits"] < plain["entropy_bits"]

    def test_output_validates_against_schema(self, capsys, fig2_csv):
        if jsonschema is None:
            pytest.skip("jsonschema unavailable")
        schema = load_schema("estimate.schema.json")
        for argv in (
            ["estimate", "--input", fig2_csv, "--method", "rotated", "--depth", "1"],
            ["estimate", "--input", fig2_csv, "--method", "naive", "--bins-per-dim", "2"],
        ):
            jsonschema.validate(run_json(capsys, argv), schema)

    def test_parse_error_exit_code(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n", encoding="utf-8")
        code = main(["estimate", "--input", str(p), "--method", "naive", "--bins-per-dim", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: parse:")
        assert "line 1" in err

    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"1.0,2.0\n\xff3.0,4.0\n5.0,6.0\n")
        code = main(["estimate", "--input", str(p), "--method", "naive", "--bins-per-dim", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: parse: line 2:")
        assert err.count("\n") == 1

    def test_nan_winsorise_names_k_sigma(self, capsys, corners_csv):
        argv = ["estimate", "--input", corners_csv, "--method", "naive", "--bins-per-dim", "1"]
        code = main(argv + ["--winsorise", "nan"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: precondition: k_sigma")

    def test_inf_winsorise_names_k_sigma(self, capsys, tmp_path):
        path = write_csv(tmp_path / "const.csv", [[0, 5], [1, 5], [2, 5], [3, 5]])
        argv = ["estimate", "--input", path, "--method", "naive", "--bins-per-dim", "1"]
        code = main(argv + ["--winsorise", "inf"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: precondition: k_sigma")
        assert err.count("\n") == 1

    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code = main(
            ["estimate", "--input", str(tmp_path / "nope.csv"), "--method", "naive", "--bins-per-dim", "2"]
        )
        assert code == 2

    def test_precondition_exit_code_names_bound(self, capsys, corners_csv):
        code = main(["estimate", "--input", corners_csv, "--method", "equiprobable", "--depth", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: precondition:")
        assert "2^(s*d)" in err

    def test_usage_error_exit_code(self, capsys, corners_csv):
        code = main(["estimate", "--input", corners_csv, "--method", "equiprobable"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: usage:")

    def test_non_integer_cycle_order_is_one_usage_line(self, capsys, corners_csv):
        argv = ["estimate", "--input", corners_csv, "--method", "equiprobable", "--depth", "1"]
        code = main([*argv, "--cycle-order", "a,b"])
        assert code == 2
        expected = "error: usage: --cycle-order must be comma-separated integers, got 'a,b'\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        "method, flag, other",
        [
            ("naive", "--bins-per-dim", "--depth"),
            ("marginal", "--bins-per-dim", "--depth"),
            ("equiprobable", "--depth", "--bins-per-dim"),
            ("rotated", "--depth", "--bins-per-dim"),
            ("ensemble", "--depth", "--bins-per-dim"),
        ],
    )
    @pytest.mark.parametrize("given", ["neither", "other", "both", "cycle-order"])
    def test_each_method_takes_its_own_size_flag(
        self, capsys, tmp_path, corners_csv, method, flag, other, given
    ):
        if given == "cycle-order":
            argv = ["estimate", "--input", corners_csv, "--method", method, flag, "1"]
            if method in ("equiprobable", "rotated"):  # the identity order changes nothing
                assert main(argv) == 0
                plain = capsys.readouterr()
                assert main([*argv, "--cycle-order", "0,1"]) == 0
                assert capsys.readouterr() == plain
                return
            # the grid methods and the ensemble refuse an order before reading the input
            argv[2] = str(tmp_path / "missing.csv")
            code, wrong = main([*argv, "--cycle-order", "0,1"]), "does not accept --cycle-order"
        else:
            # a missing size flag is named before a wrong one
            sizes = {"neither": [], "other": [other, "1"], "both": [flag, "1", other, "1"]}[given]
            code = main(["estimate", "--input", corners_csv, "--method", method, *sizes])
            wrong = f"does not accept {other}" if given == "both" else f"requires {flag}"
        assert code == 2
        assert capsys.readouterr().err == f"error: usage: --method {method} {wrong}\n"


class TestBenchmarkCommand:
    def test_csv_schema_and_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["benchmark", "--n", "32", "--bins", "4", "--trials", "5", "--seed", "7"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 7

    def test_stdout_json_format(self, capsys):
        doc = run_json(
            capsys,
            ["benchmark", "--n", "32", "--bins", "4", "--trials", "2", "--seed", "3", "--format", "json"],
        )
        assert doc["trials"] == 2
        if jsonschema is not None:
            jsonschema.validate(doc, load_schema("study.schema.json"))

    def test_unwritable_output_is_one_usage_line(self, capsys, tmp_path):
        out = tmp_path / "missing" / "out.csv"
        argv = ["benchmark", "--n", "32", "--bins", "4", "--trials", "2", "--seed", "7"]
        code = main(argv + ["--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: usage: cannot write {out}: No such file or directory\n"

    def test_invalid_bin_count_mentions_constraint(self, capsys):
        code = main(["benchmark", "--n", "32", "--bins", "8", "--trials", "2", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "2^(s*d)" in err

    def test_too_few_trials(self, capsys):
        code = main(["benchmark", "--n", "32", "--bins", "4", "--trials", "1", "--seed", "1"])
        assert code == 3

    def test_negative_seed_names_seed(self, capsys):
        code = main(["benchmark", "--n", "16", "--bins", "4", "--trials", "3", "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: precondition: seed")


class TestDumpPartitionCommand:
    def test_parabola_dump_conserves_volume(self, capsys, parabola_csv):
        doc = run_json(capsys, ["dump-partition", "--input", parabola_csv, "--depth", "2"])
        assert len(doc["bins"]) == 16
        support_volume = np.prod(
            np.array(doc["support"]["upper"]) - np.array(doc["support"]["lower"])
        )
        assert sum(b["volume"] for b in doc["bins"]) == pytest.approx(
            support_volume, rel=1e-9
        )
        if jsonschema is not None:
            jsonschema.validate(doc, load_schema("partition.schema.json"))

    def test_round_trip_counts_recomputable(self, capsys, parabola_csv):
        doc = run_json(capsys, ["dump-partition", "--input", parabola_csv, "--depth", "2"])
        data = np.array([row.split(",") for row in open(parabola_csv).read().split()], float)
        recounted = recount_by_membership(
            data,
            [b["lower"] for b in doc["bins"]],
            [b["upper"] for b in doc["bins"]],
            doc["support"]["upper"],
        )
        assert recounted == [b["count"] for b in doc["bins"]]

    def test_support_keeps_a_signed_zero_minimum(self, capsys, tmp_path):
        # column 0's minimum is -0.0 and column 1's is 0.0; neither column holds the other zero
        rows = [[-0.0, 1.0], [1.0, 0.0], [2.0, 3.0], [3.0, 2.0]]
        path = write_csv(tmp_path / "signed_zero.csv", rows)
        doc = run_json(capsys, ["dump-partition", "--input", path, "--depth", "1"])
        assert json.dumps(doc["support"]) == '{"lower": [-0.0, 0.0], "upper": [3.0, 3.0]}'

    def test_support_is_the_outer_bins_faces_as_text(self, capsys, tmp_path):
        # column 0 is all zeros, -0.0 in the third row: the rows' and the
        # columns' reductions can disagree on that zero's sign, so the support
        # must be the outer bins' faces themselves
        rows = [[-0.0 if i == 2 else 0.0, float(i)] for i in range(9)]
        path = write_csv(tmp_path / "zeros.csv", rows)
        doc = run_json(capsys, ["dump-partition", "--input", path, "--depth", "1"])
        support, bins = doc["support"], doc["bins"]
        assert json.dumps(support["lower"]) == json.dumps(bins[0]["lower"])
        assert json.dumps(support["upper"]) == json.dumps(bins[-1]["upper"])

    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("kind", ["2-D", "3-D", "one-decimal", "signed-zero"])
    def test_dump_loads_back_unchanged(self, capsys, tmp_path, kind, rotate):
        rng = np.random.default_rng(21)
        rows = {
            "2-D": rng.normal(size=(64, 2)),
            "3-D": rng.normal(size=(64, 3)),
            "one-decimal": np.round(rng.normal(size=(64, 2)), 1),
            "signed-zero": np.array([[-0.0, 1.0], [1.0, 0.0], [2.0, 3.0], [3.0, 2.0]]),
        }[kind]
        path = write_csv(tmp_path / "sample.csv", rows.tolist())
        argv = ["dump-partition", "--input", path, "--depth", "1"] + ["--rotate"] * rotate
        doc = run_json(capsys, argv)
        geometry = {key: doc[key] for key in ("support", "depth", "dims", "cycle_order", "bins")}
        # as text, so a zero's sign counts
        assert json.dumps(partition_to_dict(partition_from_dict(doc))) == json.dumps(geometry)

    def test_rotated_dump_matches_estimate(self, capsys, fig2_csv):
        dump = run_json(
            capsys, ["dump-partition", "--input", fig2_csv, "--depth", "1", "--rotate"]
        )
        est = run_json(
            capsys, ["estimate", "--input", fig2_csv, "--method", "rotated", "--depth", "1"]
        )
        assert dump["rotation_angle_rad"] == est["rotation_angle_rad"]
        assert dump["rotation_mrp"] == est["rotation_mrp"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--method", "equiprobable", "--depth", "2"], "bin volumes overflow"),
        (["dump-partition", "--depth", "2"], "bin volumes overflow"),
        (["estimate", "--method", "naive", "--bins-per-dim", "4"], "bin volumes overflow"),
        (["estimate", "--method", "marginal", "--bins-per-dim", "4"], "bin volumes overflow"),
        # the eigenvector start fails first, on the covariance, not on an MRP
        (["estimate", "--method", "rotated", "--depth", "2"], "sample covariance overflows"),
        # winsorising runs before any estimator, and its spread overflows first
        (
            ["estimate", "--method", "equiprobable", "--depth", "1", "--winsorise", "3"],
            "sample standard deviation overflows",
        ),
    ],
)
def test_overflowing_volumes_exit_3_with_one_line(capsys, huge_csv, argv, message):
    # not an "Infinity" in the JSON; RuntimeWarnings are errors here, so
    # the overflow is also silent
    code = main(argv + ["--input", huge_csv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"error: precondition: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("scale", [1e-160, 1e-170])
@pytest.mark.parametrize("method", ["naive", "marginal"])
def test_underflowing_volumes_exit_3_with_one_line(capsys, tmp_path, method, scale):
    # not "-Infinity" (subnormal cells, whose densities overflow) and not 0.0
    # (cells of zero volume, every one dropped from the sum)
    rows = np.random.default_rng(0).normal(size=(1000, 2)) * scale
    path = write_csv(tmp_path / "tiny.csv", rows.tolist())
    code = main(["estimate", "--method", method, "--bins-per-dim", "4", "--input", path])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: precondition: bin volumes underflow float64; rescale the samples\n"


def test_underflowing_equiprobable_volumes_exit_3_by_name(capsys, tmp_path):
    # 12 of the 16 bins have positive widths and a volume that is 0.0
    rows = np.random.default_rng(0).normal(size=(1000, 2)) * 1e-162
    path = write_csv(tmp_path / "tiny.csv", rows.tolist())
    code = main(["estimate", "--method", "equiprobable", "--depth", "2", "--input", path])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: precondition: bin volumes underflow float64; rescale the samples\n"


@pytest.mark.parametrize("method", ["marginal", "naive"])
def test_grid_over_a_range_past_float64_is_not_an_error(capsys, tmp_path, method):
    # x spans about 2e308, past float64, but every slab and cell volume is finite;
    # at k=2 both grids cut x at 0, so both read the same cells
    rows = [[-1e308, 0.0], [-0.5e308, 1.0], [0.5e308, 2.0], [1e308, 3.0]]
    path = write_csv(tmp_path / "extreme.csv", rows)
    code = main(["estimate", "--method", method, "--bins-per-dim", "2", "--input", path])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["entropy_bits"] == pytest.approx(1.0 + np.log2(1.5e308), rel=1e-12)


def test_overflowing_mean_exits_3_without_a_second_parse(capsys, tmp_path, monkeypatch):
    # numpy's parser reads this file; the sample set it makes then fails, and
    # that failure is reported as it is, not by parsing the file again
    path = write_csv(tmp_path / "extreme.csv", [[-1.5e308], [-1e308], [1e308], [1.5e308]])
    monkeypatch.setattr("entropart.cli._parse_lines", None)  # a call would raise TypeError
    code = main(["estimate", "--method", "equiprobable", "--depth", "1", "--input", path])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: precondition: sample mean overflows float64; rescale the samples\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["estimate", "--method", "naive", "--bins-per-dim", "4"], 0),
        (["estimate", "--method", "marginal", "--bins-per-dim", "4"], 0),
        (["estimate", "--method", "equiprobable", "--depth", "2"], 0),
        (["estimate", "--method", "rotated", "--depth", "2"], 0),
        (["estimate", "--method", "ensemble", "--depth", "2"], 0),
        (["estimate", "--method", "equiprobable", "--depth", "2", "--cycle-order", "1,0"], 0),
        (["estimate", "--method", "rotated", "--depth", "2", "--cycle-order", "1,0"], 0),
        (["dump-partition", "--depth", "2", "--rotate"], 0),
        (["benchmark", "--n", "32", "--bins", "4", "--trials", "3", "--seed", "1"], 0),
        (["estimate", "--method", "naive", "--bins-per-dim", "4", "--cycle-order", "1,0"], 2),
    ],
)
def test_every_cli_path_runs_without_scipy(capsys, monkeypatch, fig2_csv, argv, want):
    # scipy is a test extra, not a runtime dependency: with it blocked, the
    # package is imported afresh, so an import at module level fails here too
    monkeypatch.setitem(sys.modules, "scipy", None)  # "import scipy..." raises ImportError
    for name in [m for m in sys.modules if m == "entropart" or m.startswith("entropart.")]:
        monkeypatch.delitem(sys.modules, name)
    fresh = importlib.import_module("entropart.cli")
    if argv[0] != "benchmark":
        argv = [*argv, "--input", fig2_csv]
    assert fresh.main(argv) == want, capsys.readouterr().err


def seeded_csv(tmp_path, kind):
    rng = np.random.default_rng(19)
    rows = {
        "2-D": rng.normal(size=(256, 2)) @ np.array([[2.0, 0.0], [1.5, 0.5]]),
        "3-D": rng.normal(size=(128, 3)) * np.array([3.0, 1.0, 0.3]),
        "one-decimal": np.round(rng.normal(size=(256, 2)) @ np.array([[1.0, 0.8], [0.0, 0.6]]), 1),
        "signed-zero": np.array([[-0.0, 1.0], [1.0, 0.0], [2.0, 3.0], [3.0, 2.0]]),
    }[kind]
    return write_csv(tmp_path / f"{kind}.csv", rows.tolist())


def seeded_runs():
    """``(name, input kind or None, argv)`` of every run whose output is pinned."""
    for kind, depth, bins in [("2-D", 2, 4), ("3-D", 1, 2), ("one-decimal", 2, 4), ("signed-zero", 1, 2)]:
        for method in ("naive", "marginal"):
            yield f"{kind}-{method}", kind, ["estimate", "--method", method, "--bins-per-dim", str(bins)]
        for method in ("equiprobable", "rotated", "ensemble"):
            yield f"{kind}-{method}", kind, ["estimate", "--method", method, "--depth", str(depth)]
        yield f"{kind}-dump-rotate", kind, ["dump-partition", "--depth", str(depth), "--rotate"]
    argv = ["estimate", "--method", "rotated", "--depth", "2", "--cycle-order", "1,0"]
    yield "2-D-rotated-cycle-order", "2-D", argv
    argv = ["benchmark", "--n", "32", "--bins", "4", "--trials", "10", "--seed", "7", "--format", "json"]
    yield "benchmark-json", None, argv


# sha256 of each run's exit code, stdout and stderr, recorded at commit 74aff73; the
# 3-D rotated and dump-rotate runs re-recorded when the 3-D search became a scan and polish
SEEDED_RUN_DIGESTS = {
    "2-D-naive": "8f8c38dbfc62a2b4",
    "2-D-marginal": "fbd07c0e0a70a803",
    "2-D-equiprobable": "d2ab8659012c3bca",
    "2-D-rotated": "e7d45575a520905b",
    "2-D-ensemble": "e437d42712a53d96",
    "2-D-dump-rotate": "c70bbbd6fb57381a",
    "3-D-naive": "c11bddd34524014f",
    "3-D-marginal": "a811ee76a6c1244c",
    "3-D-equiprobable": "77cb94526e3bec92",
    "3-D-rotated": "d80063a505c751c9",
    "3-D-ensemble": "b80ba8ef8d099903",
    "3-D-dump-rotate": "286a1da8b560b715",
    "one-decimal-naive": "d3799805e35c1c25",
    "one-decimal-marginal": "ba02272939dac780",
    "one-decimal-equiprobable": "635736f55537a5cc",
    "one-decimal-rotated": "70f725a8b5bc4bf7",
    "one-decimal-ensemble": "63eeacf68ce3291b",
    "one-decimal-dump-rotate": "70a8561f559f74a4",
    "signed-zero-naive": "83f3fff51deb5167",
    "signed-zero-marginal": "f869724f2a741e33",
    "signed-zero-equiprobable": "a9dc2c2e4054e07c",
    "signed-zero-rotated": "dd5e5262ed0fdf2d",
    "signed-zero-ensemble": "2f1a7ee0b19864e6",
    "signed-zero-dump-rotate": "58744a1e44f54850",
    "2-D-rotated-cycle-order": "f2e4d0272e26b2b7",
    "benchmark-json": "25515c2ff6760557",
}


@pytest.mark.parametrize("name, kind, argv", list(seeded_runs()), ids=[r[0] for r in seeded_runs()])
def test_seeded_cli_output_is_pinned(capsys, tmp_path, name, kind, argv):
    # seeded output stays byte-identical unless a change says why; like the
    # SEEDED_3D and SEQUENTIAL_STUDIES digests, these were taken with numpy 2.4
    if kind is not None:
        argv = [*argv, "--input", seeded_csv(tmp_path, kind)]
    code = main(argv)
    captured = capsys.readouterr()
    text = f"{code}\n{captured.out}\0{captured.err}"
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == SEEDED_RUN_DIGESTS[name]
