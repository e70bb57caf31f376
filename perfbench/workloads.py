"""The four benchmark workloads, built only on entropart's public API and CLI.

A workload makes all of its inputs from the seed in its constructor; that is
the set-up the benchmark times.  Each one then offers:

* ``ops()``: the calls of one pass, as ``(label, zero-argument function)``;
* ``units``: how many ops one call counts for (a study call is ``TRIALS``
  trials, every other call is one op);
* ``check(label, output)``: correctness failures, plus the squared
  percentage errors and final objectives (bin-volume variance times B^2)
  the call produced;
* ``replay(label, tracer)``: the same work driven step by step through
  public functions, with a span around each call, returning what
  ``fingerprint(output)`` returns for the untraced call, bit for bit;
* ``profile``: the samples, depth and covariance the layer probes use.

``quality_labels`` names the calls whose estimates make ``mse_pct`` and
``objective_mean``: the fixed panel inputs (seed ``PANEL_SEED``, the same in
every run).  Estimation error moves more from one seed to the next than a
regression bound could resolve, so only a fixed panel makes the two quality
metrics comparable between runs.  The seeded inputs of the same pass are
timed and checked like the panel.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

import entropart as ep
from entropart.benchmark import STUDY_METHODS
from tracing import NullTracer

ROOT = Path(__file__).resolve().parent.parent
PANEL_SEED = 20211213
BOOTSTRAP_STREAM = 0xB005  # run_study's stream tag for the bootstrap RNG

COV_2D = ep.CovarianceSpec(np.array([[4.0, 3.0], [3.0, 4.0]]))
COV_3D = ep.CovarianceSpec(np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 1.5], [1.0, 1.5, 2.0]]))


@dataclass(frozen=True)
class Profile:
    """What the layer probes run on: the workload's own N, d, depth and data."""

    samples: ep.SampleSet
    depth: int
    cov: ep.CovarianceSpec
    csv: Path | None = None
    search_config: ep.OptimizerConfig | None = None  # set when the replay runs no search


def sq_pct_error(value: float, truth: float) -> float:
    """Squared absolute percentage error, as run_study scores its trials."""
    return (abs(value - truth) / abs(truth)) ** 2


def partition_failures(partition, n: int, bins: int) -> list[str]:
    counts = np.asarray(partition.counts)
    failures = []
    if counts.size != bins:
        failures.append(f"partition has {counts.size} bins, expected 2^(s*d) = {bins}")
    if int(counts.sum()) != n:
        failures.append(f"partition counts sum to {int(counts.sum())}, expected N = {n}")
    return failures


class AlignWorkload:
    """Rotated equiprobable estimates of correlated Gaussians with a known covariance."""

    units = 1

    def __init__(self, name: str, tag: int, cov, n: int, depth: int, per_kind: int, seed: int):
        self.name = name
        self.depth = depth
        self.bins = 2 ** (depth * cov.d)
        self.entropy = ep.theoretical_entropy(cov)
        self.inputs = {
            f"{kind}-{j}": ep.sample_gaussian(cov, n, np.random.default_rng([s, tag, j]))
            for kind, s in (("panel", PANEL_SEED), ("seeded", seed))
            for j in range(per_kind)
        }
        self.quality_labels = {label for label in self.inputs if label.startswith("panel")}
        self.profile = Profile(self.inputs["seeded-0"], depth, cov)

    def ops(self):
        return [
            (label, functools.partial(ep.entropy_rotated, samples, self.depth))
            for label, samples in self.inputs.items()
        ]

    def fingerprint(self, est):
        return est.value, est.rotation.mrp.tobytes()

    def check(self, label: str, est):
        samples = self.inputs[label]
        failures = [] if math.isfinite(est.value) else [f"estimate {est.value!r} is not finite"]
        final = ep.volume_variance(samples, est.rotation, self.depth)
        failures += partition_failures(final.partition, samples.n, self.bins)
        identity = ep.volume_variance(samples, ep.Rotation.identity(), self.depth).variance
        if not final.variance <= identity:
            failures.append(f"rotated objective {final.variance!r} > identity {identity!r}")
        if ep.entropy_equiprobable(final.partition) != est.value:
            failures.append("estimate differs from the partition at the returned rotation")
        return failures, [sq_pct_error(est.value, self.entropy)], [final.variance * self.bins**2]

    def replay(self, label: str, tracer):
        samples = self.inputs[label]
        with tracer.span("trial", op=label):
            rot, evaluation = tracer.call(
                "optimizer.optimise_rotation", ep.optimise_rotation, samples, self.depth
            )
            value = tracer.call(
                "estimators.entropy_equiprobable", ep.entropy_equiprobable, evaluation.partition
            )
        return value, rot.mrp.tobytes()


class StudySmall:
    """``run_study`` at N=100, B=16: many small builds, all four estimators, the bootstrap."""

    name = "study-small"
    N, BINS, TRIALS, DEPTH, GRID = 100, 16, 4, 2, 4
    units = TRIALS

    def __init__(self, seed: int):
        self.seeds = {"panel": PANEL_SEED, "seeded": seed}
        self.quality_labels = {"panel"}
        rng = np.random.default_rng([seed, 0])  # trial 0 of the seeded study
        cov = ep.random_covariance(rng)
        self.profile = Profile(ep.sample_gaussian(cov, self.N, rng), self.DEPTH, cov)

    def ops(self):
        return [
            (label, functools.partial(ep.run_study, self.N, self.BINS, self.TRIALS, seed))
            for label, seed in self.seeds.items()
        ]

    def fingerprint(self, study):
        return (
            tuple(tuple(t.estimates[m] for m in STUDY_METHODS) for t in study.trial_results),
            tuple(study.mse[m] for m in STUDY_METHODS),
            study.ci_lower,
        )

    def check(self, label: str, study):
        failures = []
        if study.failures or study.trials != self.TRIALS:
            failures.append(f"{study.failures} failed trials, {study.trials} kept of {self.TRIALS}")
        values = [v for t in study.trial_results for v in t.estimates.values()]
        if not all(math.isfinite(v) for v in values + [study.ci_lower]):
            failures.append("non-finite estimate or confidence bound")
        replayed, trials = self._replay(self.seeds[label], NullTracer(), label)
        if replayed != self.fingerprint(study):
            failures.append("step-by-step replay differs from run_study")
        objectives = []
        for samples, final in trials:
            failures += partition_failures(final.partition, samples.n, self.BINS)
            identity = ep.volume_variance(samples, ep.Rotation.identity(), self.DEPTH).variance
            if not final.variance <= identity:
                failures.append(f"rotated objective {final.variance!r} > identity {identity!r}")
            objectives.append(final.variance * self.BINS**2)
        errors = [t.abs_pct_error[ep.estimators.METHOD_ROTATED] ** 2 for t in study.trial_results]
        return failures, errors, objectives

    def replay(self, label: str, tracer):
        return self._replay(self.seeds[label], tracer, label)[0]

    def _replay(self, seed: int, tracer, label: str):
        """run_study's trial loop, one public call at a time; same RNG streams."""
        rows, trials = [], []
        for t in range(self.TRIALS):
            with tracer.span("trial", op=f"{label}-{t}"):
                rng = np.random.default_rng([seed, t])
                with tracer.span("benchmark.draw"):
                    cov = tracer.call("benchmark.random_covariance", ep.random_covariance, rng)
                    samples = tracer.call(
                        "benchmark.sample_gaussian", ep.sample_gaussian, cov, self.N, rng
                    )
                truth = tracer.call("benchmark.theoretical_entropy", ep.theoretical_entropy, cov)
                estimates = (
                    tracer.call("estimators.entropy_naive", ep.entropy_naive, samples, self.GRID),
                    tracer.call(
                        "estimators.entropy_marginal_equiquantised",
                        ep.entropy_marginal_equiquantised,
                        samples,
                        self.GRID,
                    ),
                    tracer.call(
                        "estimators.entropy_equiprobable_estimate",
                        ep.entropy_equiprobable_estimate,
                        samples,
                        self.DEPTH,
                    ),
                )
                _, final = tracer.call(
                    "optimizer.optimise_rotation", ep.optimise_rotation, samples, self.DEPTH
                )
                rotated = tracer.call(
                    "estimators.entropy_equiprobable", ep.entropy_equiprobable, final.partition
                )
            rows.append((truth, tuple(e.value for e in estimates) + (rotated,)))
            trials.append((samples, final))
        errors = [[abs(v - truth) / abs(truth) for v in values] for truth, values in rows]
        mse = tuple(float(np.mean([e[i] ** 2 for e in errors])) for i in range(len(STUDY_METHODS)))
        diffs = [e[0] ** 2 - e[-1] ** 2 for e in errors]  # naive minus rotated
        ci_lower = tracer.call(
            "benchmark.bootstrap_ci_lower",
            ep.bootstrap_ci_lower,
            diffs,
            level=0.99,
            resamples=10000,
            rng=np.random.default_rng([seed, self.TRIALS, BOOTSTRAP_STREAM]),
        )
        return (tuple(values for _, values in rows), mse, ci_lower), trials


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    stderr: str
    peak_rss_mb: float


def run_python(args: list[str], out: Path) -> CliResult:
    """Run ``python args`` from the repository root; stdout goes to ``out``."""
    err = out.with_suffix(".err")
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        proc = subprocess.Popen([sys.executable, *args], stdout=fout, stderr=ferr, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(
        proc.returncode,
        out.read_bytes(),
        err.read_text(encoding="utf-8", errors="replace"),
        usage.ru_maxrss / 1024.0,
    )


class CliIngest:
    """CLI processes on 200k-row CSVs: one large build each, plus a JSON export."""

    name = "cli-ingest"
    N = 200_000
    units = 1
    CALLS = {
        "estimate": (["estimate", "--method", "equiprobable", "--depth", "3"], 3, "estimate"),
        "dump-partition": (["dump-partition", "--depth", "4"], 4, "partition"),
    }

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        self.csvs, samples = {}, {}
        for kind, s in (("panel", PANEL_SEED), ("seeded", seed)):
            samples[kind] = ep.sample_gaussian(COV_2D, self.N, np.random.default_rng([s, 4, 0]))
            self.csvs[kind] = work_dir / f"cli-ingest-{kind}.csv"
            np.savetxt(self.csvs[kind], samples[kind].data, fmt="%.17g", delimiter=",")
        self.labels = {f"{kind}-{call}": (kind, call) for kind in self.csvs for call in self.CALLS}
        self.quality_labels = {label for label in self.labels if label.startswith("panel")}
        self.entropy = ep.theoretical_entropy(COV_2D)
        self.profile = Profile(
            samples["seeded"],
            3,
            COV_2D,
            csv=self.csvs["seeded"],
            # the CLI calls run no search, and a default search at N=200k
            # takes minutes; the probe times a 12-evaluation one instead
            search_config=ep.OptimizerConfig(
                starts=1, max_iterations=4, eigenvector_start=False, scan_points=4
            ),
        )

    def cleanup(self) -> None:
        for csv in self.csvs.values():
            csv.unlink(missing_ok=True)

    def ops(self):
        return [
            (label, functools.partial(self._call, label, ["-m", "entropart.cli"]))
            for label in self.labels
        ]

    def _call(self, label: str, prefix: list[str]) -> CliResult:
        kind, call = self.labels[label]
        args = self.CALLS[call][0]
        argv = [args[0], "--input", str(self.csvs[kind]), *args[1:]]
        return run_python([*prefix, *argv], self.work_dir / f"{label}.out")

    def fingerprint(self, result: CliResult):
        return result.stdout

    def check(self, label: str, result: CliResult):
        import jsonschema

        if result.code != 0:
            return [f"exit code {result.code}: {result.stderr.strip()[-300:]}"], [], []
        call = self.labels[label][1]
        _, depth, schema_name = self.CALLS[call]
        doc = json.loads(result.stdout)
        schema = json.loads(
            resources.files("entropart").joinpath(f"schemas/{schema_name}.schema.json").read_text()
        )
        failures = []
        try:
            jsonschema.validate(doc, schema)
        except jsonschema.ValidationError as exc:
            failures.append(f"output fails {schema_name}.schema.json: {exc.message}")
        if doc.get("n") != self.N:
            failures.append(f"reports n={doc.get('n')!r}, expected {self.N}")
        bins = 2 ** (depth * 2)
        if call == "estimate":
            value = doc["entropy_bits"]
            objectives = []
            if doc["bin_count"] != bins:
                failures.append(f"bin_count {doc['bin_count']}, expected {bins}")
        else:
            partition = ep.partition_from_dict(doc)
            failures += partition_failures(partition, self.N, bins)
            value = ep.entropy_equiprobable(partition)
            objectives = [float(np.var(ep.bin_volumes(partition, normalize=True))) * bins**2]
        if not math.isfinite(value):
            failures.append(f"estimate {value!r} is not finite")
        return failures, [sq_pct_error(value, self.entropy)], objectives

    def replay(self, label: str, tracer):
        spans = self.work_dir / f"{label}.spans.json"
        with tracer.span("trial", op=label), tracer.span("cli.call"):
            result = self._call(label, [str(ROOT / "perfbench" / "cli_traced.py"), str(spans)])
            tracer.adopt(json.loads(spans.read_text()) if result.code == 0 else [])
        return self.fingerprint(result)


WORKLOADS = ("align-2d", "study-small", "align-3d", "cli-ingest")


def make(name: str, seed: int, work_dir: Path):
    if name == "align-2d":
        return AlignWorkload(name, 2, COV_2D, n=8192, depth=3, per_kind=1, seed=seed)
    if name == "align-3d":
        return AlignWorkload(name, 3, COV_3D, n=512, depth=1, per_kind=2, seed=seed)
    if name == "study-small":
        return StudySmall(seed)
    if name == "cli-ingest":
        return CliIngest(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
