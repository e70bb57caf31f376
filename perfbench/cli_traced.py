"""Run the entropart CLI with a span around each of its calls into a layer.

Usage: python3 perfbench/cli_traced.py SPANS_JSON CLI_ARG...

Behaves like ``python -m entropart.cli CLI_ARG...`` (same stdout, stderr and
exit code) and also writes the spans to SPANS_JSON.  The names the CLI module
imported from the other layers are replaced by wrappers that open a span
named ``<layer>.<function>``; the package itself is not changed.
"""

import functools
import json
import sys

from tracing import Tracer

# entropart.cli's module-level names for the calls it makes into each layer;
# names that a later version of the CLI no longer has are skipped
LAYER_CALLS = (
    "read_samples_csv",
    "winsorise",
    "build_equiprobable",
    "partition_to_dict",
    "entropy_naive",
    "entropy_marginal_equiquantised",
    "entropy_equiprobable_estimate",
    "ensemble_estimate",
    "entropy_rotated",
    "optimise_rotation",
    "run_study",
)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from entropart import cli
    for name in LAYER_CALLS:
        fn = getattr(cli, name, None)
        if fn is not None:
            layer = fn.__module__.rsplit(".", 1)[-1]
            setattr(cli, name, functools.partial(tracer.call, f"{layer}.{name}", fn))
    with tracer.span("cli.main"):
        code = cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
