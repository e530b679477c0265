"""Run one confeyn CLI command under the span tracer.

usage: python3 bench/cli_child.py TRACE_PREFIX SUBCOMMAND [options]

The traced runs of the benchmark start their CLI children through this file;
it writes the child's spans and aggregates to TRACE_PREFIX.{bin,json}.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    prefix = Path(sys.argv[1])
    C = jobs.Confeyn()
    tracer = tracing.Tracer()
    tracer.install(C)
    try:
        return C.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(prefix, {"cache": tracing.gegen_cache_stats(C)})


if __name__ == "__main__":
    sys.exit(main())
