"""Command-line interface.

Three subcommands: ``estimate`` (entropy of a CSV sample), ``benchmark``
(Monte Carlo Gaussian study), and ``dump-partition`` (partition geometry as
JSON for plotting).  Exit codes: 0 success, 2 input parse/usage errors,
3 estimator precondition failures.  Every error path emits one line on
stderr with a machine-parsable ``error: <kind>:`` prefix.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import warnings

import numpy as np

from .benchmark import run_study, study_to_csv, study_to_json_dict
from .errors import PreconditionError
from .estimators import (
    ensemble_estimate,
    entropy_equiprobable_estimate,
    entropy_marginal_equiquantised,
    entropy_naive,
    winsorise,
)
from .geometry import SampleSet
from .optimizer import entropy_rotated, optimise_rotation
from .partition import build_equiprobable, partition_to_dict


# each --method's estimator and the flags it takes, size flag first; the estimator is
# called with the samples and the given flags' values in this order
METHODS = {
    "naive": (entropy_naive, "--bins-per-dim"),
    "marginal": (entropy_marginal_equiquantised, "--bins-per-dim"),
    "equiprobable": (entropy_equiprobable_estimate, "--depth", "--cycle-order"),
    "rotated": (entropy_rotated, "--depth", "--cycle-order"),
    "ensemble": (ensemble_estimate, "--depth"),
}


class CsvParseError(ValueError):
    """The input file is not valid numeric CSV."""


class UsageError(ValueError):
    """Flags are inconsistent with the requested command."""


def read_samples_csv(path: str, has_header: bool = False) -> SampleSet:
    """Read one sample per row of comma-separated floats, reporting bad lines.

    numpy's C parser reads the file by path, in chunks; its result is kept
    only when it has one row per line that ``_parse_lines`` would parse and
    every value is finite.  Anything else (a blank or bad line, bytes that
    are not UTF-8, a spelling that only ``float()`` accepts) is parsed again
    by ``_parse_lines``, which defines the format and names the first bad line.
    """
    try:
        data = None
        try:
            lines, blank_tail, odd = _scan_lines(path)
            expected = lines - has_header - blank_tail
            if expected > 0 and not odd:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # "input contained no data"
                    loaded = np.loadtxt(
                        path, delimiter=",", comments=None, ndmin=2, skiprows=int(has_header),
                        encoding="utf-8",
                    )
                if loaded.shape[0] == expected and np.isfinite(loaded).all():
                    data = loaded
        except ValueError:  # includes UnicodeDecodeError
            pass
        # out of the try: samples that fail SampleSet's own checks are not parsed twice
        return _parse_lines(path, has_header) if data is None else SampleSet._adopt(data)
    except OSError as exc:
        raise CsvParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _scan_lines(path: str):
    """Count the lines text mode reads, 1 MB of text at a time.

    Returns the count, whether the last line is blank (which ``_parse_lines``
    skips), and whether the file holds one of the separators 0x1c-0x1f, which
    numpy strips from a field and ``float()`` rejects.
    """
    lines = chunks = 0
    odd = False
    tail = ""
    with open(path, encoding="utf-8") as fh:  # universal newlines, as both parsers read
        while chunk := fh.read(1 << 20):
            lines += chunk.count("\n")
            odd = odd or any(sep in chunk for sep in "\x1c\x1d\x1e\x1f")
            tail, chunks = tail[-1:] + chunk, chunks + 1
    unterminated = tail[-1:] not in ("", "\n")
    body = tail if unterminated else tail[:-1]
    start = body.rfind("\n")
    # a last line longer than a chunk is never called blank: that only sends
    # the file to _parse_lines
    blank_tail = not body[start + 1 :].strip() and (start >= 0 or chunks <= 1)
    return lines + unterminated, blank_tail, odd


def _parse_lines(path: str, has_header: bool) -> SampleSet:
    """Parse line by line with ``float()``, raising the first error in file order."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        # the decoder reports offsets within its chunk; decode again to place the byte
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = raw[: exc.start].decode("utf-8")
            lineno = len(io.StringIO(head + "x", newline=None).readlines())
            raise CsvParseError(
                f"line {lineno}: not UTF-8 (byte 0x{raw[exc.start]:02x} at offset {exc.start})"
            ) from None
        raise  # the file changed between the two reads
    rows = []
    for lineno, line in enumerate(lines[has_header:], start=1 + has_header):
        stripped = line.strip()
        if not stripped:
            if lineno == len(lines):
                continue  # tolerate one trailing blank line
            raise CsvParseError(f"line {lineno}: empty line")
        try:
            row = [float(f) for f in stripped.split(",")]  # float() strips whitespace itself
        except ValueError:
            raise CsvParseError(f"line {lineno}: non-numeric field in {stripped!r}") from None
        if not all(map(math.isfinite, row)):
            raise CsvParseError(f"line {lineno}: non-finite value")
        if rows and len(row) != len(rows[0]):
            raise CsvParseError(f"line {lineno}: expected {len(rows[0])} columns, found {len(row)}")
        rows.append(row)
    if not rows:
        raise CsvParseError("no data rows")
    return SampleSet._adopt(np.array(rows))


def _parse_cycle_order(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"--cycle-order must be comma-separated integers, got {text!r}") from None


def _load_input(args) -> SampleSet:
    samples = read_samples_csv(args.input, has_header=args.has_header)
    if args.winsorise is not None:
        samples = winsorise(samples, args.winsorise)
    return samples


def _rotation_fields(rot) -> dict:
    return {"rotation_angle_rad": rot.angle, "rotation_mrp": rot.mrp.tolist()}


def _cmd_estimate(args) -> int:
    estimator, *flags = METHODS[args.method]
    given = {"--bins-per-dim": args.bins_per_dim, "--depth": args.depth, "--cycle-order": args.cycle_order}
    if given[flags[0]] is None:
        raise UsageError(f"--method {args.method} requires {flags[0]}")
    for flag, value in given.items():
        if value is not None and flag not in flags:
            raise UsageError(f"--method {args.method} does not accept {flag}")

    samples = _load_input(args)  # an unreadable file is named before a malformed order
    given["--cycle-order"] = _parse_cycle_order(args.cycle_order)
    est = estimator(samples, *(given[flag] for flag in flags))
    doc = {
        "method": est.method,
        "entropy_bits": est.value,
        "depth": est.depth,
        "bin_count": est.bin_count,
        "degenerate_bins": est.degenerate_bins,
        "n": samples.n,
        "d": samples.d,
    }
    if est.rotation is not None:
        doc.update(_rotation_fields(est.rotation))
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_benchmark(args) -> int:
    if args.trials < 2:
        raise PreconditionError(f"benchmark requires trials >= 2, got {args.trials}")
    study = run_study(args.n, args.bins, args.trials, args.seed)
    if args.format == "csv":
        payload = study_to_csv(study)
    else:
        payload = json.dumps(study_to_json_dict(study), indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_dump_partition(args) -> int:
    samples = _load_input(args)
    cycle_order = _parse_cycle_order(args.cycle_order)
    if args.rotate:
        rot, evaluation = optimise_rotation(samples, args.depth, cycle_order=cycle_order)
        doc = {**partition_to_dict(evaluation.partition), "n": samples.n, **_rotation_fields(rot)}
    else:
        doc = {**partition_to_dict(build_equiprobable(samples, args.depth, cycle_order)), "n": samples.n}
    print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropart",
        description="Nonparametric entropy estimation with equiprobable partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the input options of the two commands that read a CSV sample
    sample = argparse.ArgumentParser(add_help=False)
    sample.add_argument("--input", required=True, help="CSV file, one sample per row")
    sample.add_argument("--cycle-order", help="comma-separated dimension order, e.g. 1,0")
    sample.add_argument("--winsorise", type=float, metavar="K_SIGMA", help="clip to mean +/- K*std first")
    sample.add_argument("--has-header", action="store_true", help="skip the first CSV line")

    est = sub.add_parser("estimate", parents=[sample], help="estimate the entropy of a CSV sample")
    est.add_argument("--method", required=True, choices=sorted(METHODS))
    est.add_argument("--depth", type=int, help="tree recursion depth (tree methods)")
    est.add_argument("--bins-per-dim", type=int, help="grid bins per dimension (grid methods)")
    est.set_defaults(func=_cmd_estimate)

    bench = sub.add_parser("benchmark", help="run the Gaussian Monte Carlo study")
    bench.add_argument("--n", type=int, required=True, help="samples per trial")
    bench.add_argument("--bins", type=int, required=True, help="shared bin count B = 4**s")
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--output", help="write the report here instead of stdout")
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    bench.set_defaults(func=_cmd_benchmark)

    dump = sub.add_parser("dump-partition", parents=[sample], help="export partition geometry as JSON")
    dump.add_argument("--depth", type=int, required=True, help="tree recursion depth")
    dump.add_argument("--rotate", action="store_true", help="dump the optimally rotated partition")
    dump.set_defaults(func=_cmd_dump_partition)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CsvParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: precondition: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
