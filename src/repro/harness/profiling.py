"""``--profile`` support for the harness CLI.

``repro-experiments`` accepts ``--profile``, which wraps the work in
:mod:`cProfile` and prints the top functions by cumulative time —
enough to localize a hot-path regression without leaving the tool.
The report goes to stderr so piped stdout (the rendered tables) stays
clean.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO


@contextmanager
def profiled(
    label: str = "",
    top: int = 25,
    stream: Optional[TextIO] = None,
) -> Iterator[cProfile.Profile]:
    """Profile the enclosed block and print the ``top`` functions.

    Sorted by cumulative time (callers of the hot paths surface next to
    the hot paths themselves).  ``label`` names the block in the report
    header; ``stream`` defaults to stderr.
    """
    out = stream if stream is not None else sys.stderr
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        header = f"--- profile: {label} ---" if label else "--- profile ---"
        out.write(header + "\n")
        out.write(buffer.getvalue())
        out.flush()


def add_profile_arguments(parser) -> None:
    """Install the shared ``--profile`` / ``--profile-top`` options."""
    parser.add_argument(
        "--profile", action="store_true",
        help="profile the run with cProfile and print the hottest "
             "functions (by cumulative time) to stderr",
    )
    parser.add_argument(
        "--profile-top", type=int, default=25, metavar="N",
        help="how many functions the --profile report shows (default 25)",
    )
