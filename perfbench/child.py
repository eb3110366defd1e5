"""One workload process: import the CLI, run one qlim command, exit.

Usage: python3 child.py STAMP TRACE QLIM_ARG...

Writes STAMP as JSON with the monotonic clock (shared by every process on
Linux) when ``quantile_limits.cli`` was imported and ready, and when
``cli.main`` returned; with TRACE=1 also the layer spans and side-call
timings of spans.py, whose side calls write beside STAMP.  Exits with
cli.main's return code.  The command itself receives only the qlim
arguments.
"""

import json
import os
import sys
import time


def main() -> int:
    stamp, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    from quantile_limits import cli

    out = {"ready": time.monotonic(), "import_s": time.perf_counter() - t0}
    if trace:
        import spans

        rc, out["main_end"], out["trace"] = spans.traced_main(argv, os.path.dirname(stamp))
    else:
        rc = cli.main(argv)
        out["main_end"] = time.monotonic()
    sys.stdout.flush()
    with open(stamp, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
