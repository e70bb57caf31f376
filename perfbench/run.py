"""entropart benchmark: four workloads, end-to-end metrics, and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload align-2d --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

``--trace 0`` times passes over the workload's inputs for ``--seconds`` and
reports the end-to-end metrics; ``--trace 1`` also replays one pass with a
span around every call into a layer, times each layer's public functions on
the workload's own data, and reports the per-layer metrics instead.  The
process pins itself, and so its children, to one CPU, and every end-to-end
timing is corrected for the host's speed at the time (see hostspeed.py);
the raw wall times are printed beside them and kept in the result file.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines above it give every metric by name with
its unit, the sample counts and the environment.  Everything the run writes
goes to ``.perfbench/`` in the repository root, including a result file with
per-op times and, when traced, the spans.

The benchmark imports entropart from ``src/`` of the tree it sits in and
exits with code 2 when that source is missing.  See perfbench/README.md for
why each workload and metric was chosen.
"""

import os

# one BLAS/OpenMP thread in this process and every child it starts, so that
# timings on a small machine measure entropart and not the thread scheduler;
# must be set before numpy is first imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    return args


def use_source() -> bool:
    """Import entropart from src/ here and in every child; False when it is missing."""
    if not (SRC / "entropart" / "__init__.py").is_file():
        print(f"error: no entropart source at {SRC / 'entropart'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    WORK_DIR.mkdir(exist_ok=True)
    return True


def child_seconds(argv: list[str]) -> float:
    """Wall time of the process ``argv``, from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited with {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return elapsed


def environment(seed: int) -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    sha = None  # the benchmark may run from an export that is not a git checkout
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": sha,
        "seed": seed,
        "reference_nominal_s": hostspeed.REFERENCE_NOMINAL_S,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def timed_passes(wl, seconds: float):
    """Run whole passes over the workload's calls for about ``seconds``.

    At least one pass runs; another starts only when the previous pass's
    time says it will end before the deadline.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        calls = []
        for label, fn in wl.ops():
            t0 = time.perf_counter()
            try:
                out, error = fn(), None
            except Exception as exc:  # a failed op is counted, and the run goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - t0
            calls.append({"label": label, "seconds": took, "out": out, "error": error})
        passes.append({"seconds": time.perf_counter() - start, "calls": calls})
        if time.perf_counter() + passes[-1]["seconds"] > deadline:
            return passes


def check_passes(wl, passes):
    """Check the first pass's outputs; later passes must repeat them bit for bit."""
    problems, fingerprints, errors, objectives = {}, {}, [], []
    for call in passes[0]["calls"]:
        label = call["label"]
        if call["error"]:
            problems[label] = [call["error"]]
            continue
        try:
            found, errs, objs = wl.check(label, call["out"])
        except Exception as exc:  # a check that cannot run is a failed check
            found, errs, objs = [f"check raised {type(exc).__name__}: {exc}"], [], []
        problems[label] = found
        fingerprints[label] = wl.fingerprint(call["out"])
        if label in wl.quality_labels:
            errors += errs
            objectives += objs
    attempted, failed, failures = 0, 0, []
    for i, p in enumerate(passes):
        for call in p["calls"]:
            label = call["label"]
            found = list(problems[label])
            if i and (call["error"] or wl.fingerprint(call["out"]) != fingerprints.get(label)):
                found.append(call["error"] or f"pass {i} output differs from the first pass")
            attempted += wl.units
            if found:
                failed += wl.units
                failures += [f"{label}: {m}" for m in found]
    return attempted, failed, failures, errors, objectives, fingerprints


def timings(wl, passes, setup) -> dict:
    """The timing metrics in wall seconds."""
    samples = [c["seconds"] / wl.units for p in passes for c in p["calls"]]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["seconds"] for p in passes),
        "ops_per_s": len(samples) / sum(samples),
        "op_s.p50": float(np.percentile(samples, 50)),
        "op_s.p90": float(np.percentile(samples, 90)),
    }


def end_to_end(wl, passes, setup, errors, objectives, scale: float):
    """End-to-end metrics, timings scaled to the nominal host speed; and the raw timings."""
    raw = timings(wl, passes, setup)
    calls = [c for p in passes for c in p["calls"]]
    # CLI workloads: the largest CLI process; others: this process
    rss = [c["out"].peak_rss_mb for c in calls if hasattr(c["out"], "peak_rss_mb")]
    if not rss:
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return {
        **{k: v / scale if k == "ops_per_s" else v * scale for k, v in raw.items()},
        "peak_rss_mb": max(rss),
        "mse_pct": float(np.mean(errors)) if errors else float("nan"),
        "objective_mean": float(np.mean(objectives)) if objectives else float("nan"),
    }, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_source():
        return 2

    import entropart
    import workloads

    if not Path(entropart.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported entropart from {entropart.__file__}, not {SRC}", file=sys.stderr)
        return 2
    again = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed)]
    if args.workload == "all":  # each workload in turn, in a process of its own
        opts = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        runs = [subprocess.run([*again, "--workload", w, *opts]) for w in workloads.WORKLOADS]
        return max(r.returncode for r in runs)
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; one of {known} or all", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.make(args.workload, args.seed, WORK_DIR)
        return 0

    env = environment(args.seed)
    env["pinned_cpu"] = hostspeed.pin_to_one_cpu()
    spans = raw = wl = None
    run_start = time.perf_counter()
    setup = []
    try:
        # the probe samples the host's speed while end-to-end timings are taken
        with hostspeed.Probe(enabled=not args.trace) as probe:
            if not args.trace:
                setup_argv = [*again, "--workload", args.workload, "--setup-only"]
                setup = [child_seconds(setup_argv) for _ in range(SETUP_REPEATS)]
            wl = workloads.make(args.workload, args.seed, WORK_DIR)
            passes = timed_passes(wl, args.seconds)
        attempted, failed, failures, errors, objectives, fingerprints = check_passes(wl, passes)
        if args.trace:
            import layers

            metrics, extra = layers.traced_run(wl, passes, fingerprints, errors, WORK_DIR)
            attempted += extra["attempted"]
            failed += extra["failed"]
            failures += extra["failures"]
            sample_note = extra["samples"]
            spans = extra["trace"]
        else:
            metrics, raw = end_to_end(wl, passes, setup, errors, objectives, probe.scale())
            sample_note = {
                "op_s": sum(len(p["calls"]) for p in passes),
                "reference_readings": len(probe.readings),
                "setup_s": len(setup),
                "wall_s": len(passes),
                "mse_pct": len(errors),
                "objective_mean": len(objectives),
            }
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()

    section = "per_layer" if args.trace else "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        raise RuntimeError(f"BENCHMARK.json {section} lists {sorted(units)}, not {sorted(metrics)}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "run_s": time.perf_counter() - run_start,
        "metrics": metrics,
        "raw_timings": raw,
        "reference_s": probe.readings,
        "samples": sample_note,
        "failures": failures,
        "spans": spans,
        "passes": [
            {"seconds": p["seconds"], "ops": [[c["label"], c["seconds"]] for c in p["calls"]]}
            for p in passes
        ],
    }
    out = WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} details: {out.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    for name, value in (raw or {}).items():
        print(f"{name + ' (raw)':<28} {value:>14.6g} {units[name]}")
    if raw:
        print(f"{'host speed scale':<28} {probe.scale():>14.6g} 1  (mean of nominal/reading)")
    print(f"{'failed_frac':<28} {failed / attempted:>14.6g} 1  ({failed} of {attempted} ops)")
    print(f"samples: {json.dumps(sample_note)}")
    print(f"env: {json.dumps(env)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
