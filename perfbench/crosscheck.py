"""Time the layer figures of ROADMAP.md's open item 1 at their own sizes.

Usage, from the repository root:

    python3 perfbench/crosscheck.py

Prints each measured median next to the ROADMAP baseline, with their ratio,
and marks every figure that differs from the baseline by more than 2x.  Run
it alone on an idle machine; it takes about 15 s.
"""

import statistics
import subprocess
import sys
import time

import run  # first: it sets one BLAS/OpenMP thread before numpy is imported

import numpy as np  # noqa: E402


def median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def python_seconds(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, check=True)
    return time.perf_counter() - start


def main() -> int:
    if not run.use_source():
        return 2
    import entropart as ep
    from entropart.cli import read_samples_csv

    cov = ep.CovarianceSpec(np.array([[4.0, 3.0], [3.0, 4.0]]))

    def sample(n):
        return ep.sample_gaussian(cov, n, np.random.default_rng(n))

    s1k, s10k, s100k = sample(1024), sample(10_000), sample(100_000)
    csv = run.WORK_DIR / "crosscheck.csv"
    np.savetxt(csv, sample(200_000).data, fmt="%.17g", delimiter=",")
    imports = [python_seconds("import entropart") - python_seconds("pass") for _ in range(5)]
    build = ep.build_equiprobable
    rows = [
        ("build_equiprobable, N=1024, s=2", 0.0009, median_seconds(lambda: build(s1k, 2), 50)),
        ("build_equiprobable, N=1e4, s=3", 0.0083, median_seconds(lambda: build(s10k, 3), 20)),
        ("build_equiprobable, N=1e5, s=3", 0.070, median_seconds(lambda: build(s100k, 3), 5)),
        (
            "optimise_rotation (2-D), N=1024, s=2",
            1.1,
            median_seconds(lambda: ep.optimise_rotation(s1k, 2), 3),
        ),
        ("read_samples_csv, 200k rows", 1.27, median_seconds(lambda: read_samples_csv(csv), 3)),
        ("np.loadtxt, 200k rows", 0.25, median_seconds(lambda: np.loadtxt(csv, delimiter=","), 3)),
        ("import entropart", 0.75, statistics.median(imports)),
    ]
    csv.unlink()
    print(f"{'measured':<40} {'ROADMAP':>9} {'now':>9} {'ratio':>6}")
    for name, baseline, now in rows:
        flag = "  differs by more than 2x" if not 0.5 <= now / baseline <= 2.0 else ""
        print(f"{name:<40} {baseline:>9.4g} {now:>9.4g} {now / baseline:>6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
