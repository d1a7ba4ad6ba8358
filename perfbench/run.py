"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload curate_cold|recurate_disk|serve_mixed \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Untraced runs print every end-to-end
metric; traced runs install the layer wrappers and print every per-layer
metric plus the tracing overhead.  Every run checks its outputs against
pinned digests.  The last stdout line is the result object; the line
before it (``perfbench-detail``) carries the host fingerprint and the raw
per-operation samples.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import harness


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("curate_cold", "recurate_disk", "serve_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {harness.SRC}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2

    # A terminated run unwinds like an interrupted one, so the finally
    # blocks stop the server and worker and remove the temporary stores.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    harness.isolate_this_process()
    import curate_workloads
    import report
    import serve_workload
    import spans

    workload = {
        "curate_cold": curate_workloads.curate_cold,
        "recurate_disk": curate_workloads.recurate_disk,
        "serve_mixed": serve_workload.serve_mixed,
    }[args.workload]
    tmp = harness.make_tmp_dir()
    try:
        outcome = workload(args.seed, args.seconds, tmp, bool(args.trace))
    finally:
        harness.remove_tmp_dir(tmp)

    if args.trace:
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        units = {name: unit for name, unit, _ in report.END_TO_END}
    print(report.render(args.workload, outcome, units, bool(args.trace)))
    print("perfbench-detail " + json.dumps({
        "fingerprint": harness.fingerprint(
            args.workload, args.seed, args.seconds, bool(args.trace)
        ),
        "notes": outcome.notes,
        "samples": outcome.samples,
    }))
    print(report.result_line(outcome, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
