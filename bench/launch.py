"""Run one `rrnet` CLI command in this process, as the installed `rrnet`
script would, from the source tree beside this directory.

    python3 bench/launch.py [--spans FILE] <rrnet arguments>

With --spans, the import of rrnet.cli is timed as span `cli.import`, the span
wrappers are installed before the command runs, and every span is written to
FILE when it ends. The exit code is the command's.
"""

import sys
import time
from pathlib import Path

from tracer import Tracer, install

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    start = time.perf_counter()
    import rrnet.cli

    if spans is None:
        return rrnet.cli.main(argv)
    tracer = Tracer()
    tracer.phase = "child"
    tracer.add("cli.import", start, time.perf_counter())
    install(tracer)
    try:
        return rrnet.cli.main(argv)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
