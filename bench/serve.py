"""``repro-serve`` for the benchmark, optionally with span wrappers.

Usage: ``python serve.py [--trace TRACE.json] [repro-serve arguments]``.

Runs ``repro.service.cli.serve_main``; the benchmark stops it with
SIGINT, which ``serve_main`` handles by shutting the queue down.  SIGINT
is reset to raise ``KeyboardInterrupt`` first, because a process
started in the background inherits it ignored.

With ``--trace`` the same layer wrappers as the traced sweep child are
installed, plus the HTTP handlers and each job as a pass root; when the
server stops, the spans and the ``mimd_memory`` seconds of the
simulator's ``PHASES`` accumulator are written to ``TRACE.json``.  With
two queue workers sharing that process-wide accumulator the memory
figure is approximate.
"""

from __future__ import annotations

import signal
import sys


def main(argv) -> int:
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from repro.service.cli import serve_main

    if not argv or argv[0] != "--trace":
        return serve_main(argv)

    import layers
    from spans import Recorder, write_json
    from repro.perf.phases import measuring

    trace_path, serve_args = argv[1], argv[2:]
    recorder = Recorder()
    layers.install_service(recorder)
    with measuring() as phases:
        code = serve_main(serve_args)
        memory_s = phases.seconds.get("mimd_memory", 0.0)
    write_json(trace_path, {"spans": recorder.dump(),
                            "mimd_memory_s": memory_s})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
