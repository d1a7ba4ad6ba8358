"""Start ``serve`` or ``worker`` the way ``python -m repro.dataset`` does.

    launch.py serve|worker [--trace-out FILE] -- <subcommand arguments>

Calls ``serve_main`` / ``worker_main`` with the given arguments.  With
``--trace-out`` the layer wrappers are installed first and the recorded
spans are written to FILE when the entry point returns (SIGINT stops
both cleanly).
"""

from __future__ import annotations

import sys

import harness


def main(argv: list[str]) -> int:
    role, rest = argv[0], argv[1:]
    trace_out = None
    if rest[:1] == ["--trace-out"]:
        trace_out, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    harness.isolate_this_process()
    tracer = None
    if trace_out is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        if role == "serve":
            from repro.serve.cli import serve_main

            return serve_main(rest)
        if role == "worker":
            from repro.dataset.worker import worker_main

            return worker_main(rest)
        print(f"launch.py: unknown role {role!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
