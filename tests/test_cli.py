import json
from importlib import resources

import numpy as np
import pytest
from conftest import recount_by_membership

from entropart.cli import main, read_samples_csv

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

    def test_rotated_dump_matches_estimate(self, capsys, fig2_csv):
        dump = run_json(
            capsys, ["dump-partition", "--input", fig2_csv, "--depth", "1", "--rotate"]
        )
        est = run_json(
            capsys, ["estimate", "--input", fig2_csv, "--method", "rotated", "--depth", "1"]
        )
        assert dump["rotation_angle_rad"] == est["rotation_angle_rad"]
        assert dump["rotation_mrp"] == est["rotation_mrp"]
