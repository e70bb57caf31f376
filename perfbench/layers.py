"""The traced run: a replay with spans, then per-layer timings of public calls.

The replay drives one pass of the workload's inputs through entropart's
public functions in the order the untraced pass called them, with a span
around each call, and must reproduce the untraced outputs bit for bit.  The
probes then time each layer's public functions on the workload's own samples,
depth and covariance, each under its own span.  Every per-layer metric is the
median duration of one span name.
"""

from __future__ import annotations

import itertools
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import entropart as ep
from entropart.cli import read_samples_csv
from tracing import Tracer
from workloads import ROOT

IMPORT_REPEATS = 3
PROBE_MIN_CALLS = 3
PROBE_BUDGET_S = 0.25
PROBE_MAX_CALLS = 100


def replay_pass(wl, fingerprints, tracer):
    """Replay one pass with spans; count replays that raise or differ."""
    attempted, failed, failures = 0, 0, []
    for label, _ in wl.ops():
        attempted += wl.units
        try:
            same = wl.replay(label, tracer) == fingerprints.get(label)
            problem = None if same else "traced replay differs from the untraced output"
        except Exception as exc:  # counted as a failed op; the run goes on
            problem = f"traced replay raised {type(exc).__name__}: {exc}"
        if problem:
            failed += wl.units
            failures.append(f"{label}: {problem}")
    return attempted, failed, failures


def _probe_calls(profile, errors, work_dir: Path):
    """(span name, function, minimum calls) for every layer probe."""
    samples, depth, cov = profile.samples, profile.depth, profile.cov
    grid = 2**depth
    if samples.d == 2:
        rot = ep.mrp_from_angle_2d(0.7)
        orientations = [ep.mrp_from_angle_2d(a) for a in (0.3, 1.1, 1.9, 2.7)]
    else:
        rot = ep.Rotation(np.array([0.1, -0.2, 0.3]))
        orientations = [
            ep.Rotation(np.array(v))
            for v in ((0.1, 0.0, 0.0), (0.0, 0.2, 0.0), (0.0, 0.0, 0.3), (0.1, 0.1, 0.1))
        ]
    partition = ep.build_equiprobable(samples, depth)
    csv = profile.csv
    if csv is None:
        csv = work_dir / "probe.csv"
        np.savetxt(csv, samples.data, fmt="%.17g", delimiter=",")
    rng = np.random.default_rng(0)
    next_orientation = itertools.cycle(orientations).__next__
    diffs = errors or [0.0]

    def draw():
        drawn = ep.random_covariance(rng)
        return ep.sample_gaussian(drawn if samples.d == 2 else cov, samples.n, rng)

    calls = {
        "partition.median_split": lambda: ep.median_split(samples.data, 0),
        "partition.build_equiprobable": lambda: ep.build_equiprobable(samples, depth),
        "partition.bin_volumes": lambda: ep.bin_volumes(partition, normalize=True),
        "partition.partition_to_dict": lambda: ep.partition_to_dict(partition),
        "geometry.rotate": lambda: ep.rotate(samples, rot),
        "geometry.SampleSet": lambda: ep.SampleSet(samples.data),
        "optimizer.volume_variance": lambda: ep.volume_variance(samples, next_orientation(), depth),
        "estimators.entropy_equiprobable_estimate": (
            lambda: ep.entropy_equiprobable_estimate(samples, depth)
        ),
        "estimators.entropy_naive": lambda: ep.entropy_naive(samples, grid),
        "estimators.entropy_marginal_equiquantised": (
            lambda: ep.entropy_marginal_equiquantised(samples, grid)
        ),
        "benchmark.draw": draw,
        "benchmark.bootstrap_ci_lower": (
            lambda: ep.bootstrap_ci_lower(diffs, 0.99, 10000, np.random.default_rng(0))
        ),
        "cli.read_samples_csv": lambda: read_samples_csv(str(csv)),
    }
    min_calls = dict.fromkeys(calls, PROBE_MIN_CALLS)
    min_calls["optimizer.volume_variance"] = len(orientations)  # each orientation once
    if profile.search_config is not None:
        calls["optimizer.optimise_rotation"] = lambda: ep.optimise_rotation(
            samples, depth, profile.search_config
        )
        min_calls["optimizer.optimise_rotation"] = 1
    return [(name, fn, min_calls[name]) for name, fn in calls.items()]


def run_probes(profile, errors, tracer, work_dir: Path) -> tuple[int, list[str]]:
    """Time every probe; returns the probe count and a message per probe that raised."""
    failures = []
    probes = _probe_calls(profile, errors, work_dir)
    for name, fn, min_calls in probes:
        spent, calls = 0.0, 0
        while calls < min_calls or (spent < PROBE_BUDGET_S and calls < PROBE_MAX_CALLS):
            try:
                with tracer.span(name, op="probe") as rec:
                    fn()
            except Exception as exc:  # the metric reads NaN and the probe counts as failed
                failures.append(f"probe {name} raised {type(exc).__name__}: {exc}")
                tracer.spans.pop()  # the failed call's span, the last one recorded
                break
            spent += rec["end"] - rec["start"]
            calls += 1
    return len(probes), failures


def med(tracer, name: str) -> float:
    """Median duration of the spans called ``name``; NaN when there are none."""
    durations = tracer.durations(name)
    return statistics.median(durations) if durations else float("nan")


def import_seconds(tracer) -> float:
    """``import entropart`` in a fresh interpreter, minus a bare interpreter start."""
    for _ in range(IMPORT_REPEATS):
        for name, code in (
            ("interpreter.bare", "pass"),
            ("interpreter.import_entropart", "import entropart"),
        ):
            with tracer.span(name, op="probe"):
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return med(tracer, "interpreter.import_entropart") - med(tracer, "interpreter.bare")


def traced_run(wl, passes, fingerprints, errors, work_dir: Path):
    """Replay, probe, and return (per-layer metrics, counts and notes)."""
    replay = Tracer()
    start = time.perf_counter()
    attempted, failed, failures = replay_pass(wl, fingerprints, replay)
    traced_wall = time.perf_counter() - start

    probes = Tracer()
    probe_count, probe_failures = run_probes(wl.profile, errors, probes, work_dir)
    import_s = import_seconds(probes)
    search_spans = probes if wl.profile.search_config else replay
    untraced_wall = statistics.median(p["seconds"] for p in passes)

    eval_s = med(probes, "optimizer.volume_variance")
    search_s = med(search_spans, "optimizer.optimise_rotation")
    metrics = {
        "partition.median_split_s": med(probes, "partition.median_split"),
        "partition.build_s": med(probes, "partition.build_equiprobable"),
        "partition.volumes_s": med(probes, "partition.bin_volumes"),
        "partition.to_dict_s": med(probes, "partition.partition_to_dict"),
        "geometry.rotate_s": med(probes, "geometry.rotate"),
        "geometry.sampleset_s": med(probes, "geometry.SampleSet"),
        "optimizer.eval_s": eval_s,
        "optimizer.search_s": search_s,
        "optimizer.eval_equiv": search_s / eval_s,
        "estimators.equiprobable_s": med(probes, "estimators.entropy_equiprobable_estimate"),
        "estimators.naive_s": med(probes, "estimators.entropy_naive"),
        "estimators.marginal_s": med(probes, "estimators.entropy_marginal_equiquantised"),
        "benchmark.draw_s": med(probes, "benchmark.draw"),
        "benchmark.bootstrap_s": med(probes, "benchmark.bootstrap_ci_lower"),
        "benchmark.trial_s": med(replay, "trial"),
        "cli.import_s": import_s,
        "cli.read_csv_s": med(probes, "cli.read_samples_csv"),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    self_times = replay.self_times()
    trace = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "replay_self_times": self_times,
        "probe_self_times": probes.self_times(),
        "replay_spans": replay.spans,
        "probe_spans": probes.spans,
    }
    print(f"# replay self time by span (traced wall {traced_wall:.3f} s)")
    for name, row in sorted(self_times.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"#   {name:<44} calls={row['calls']:<6} "
            f"self={row['self_s']:.4f} s total={row['total_s']:.4f} s"
        )
    samples = {
        "optimizer.search_s": len(search_spans.durations("optimizer.optimise_rotation")),
        "benchmark.trial_s": len(replay.durations("trial")),
        "optimizer.eval_s": len(probes.durations("optimizer.volume_variance")),
        "cli.import_s": IMPORT_REPEATS,
        "untraced passes": len(passes),
    }
    return metrics, {
        "attempted": attempted + probe_count,
        "failed": failed + len(probe_failures),
        "failures": failures + probe_failures,
        "samples": samples,
        "trace": trace,
    }
