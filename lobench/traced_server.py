"""Run ``repro-server`` with every engine layer traced.

    python lobench/traced_server.py --spans SPANS [repro-server args...]

Installs the span wrappers of ``tracing.py`` and then runs the stock
``repro.server.cli.main`` with the remaining arguments.  On SIGUSR1 it
writes the spans recorded so far to SPANS (atomically), so the driver
can collect them and then kill the server like an untraced one.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    args, server_argv = parser.parse_known_args()
    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGUSR1,
                  lambda _signo, _frame: tracer.dump(args.spans))
    from repro.server import cli
    return cli.main(server_argv)


if __name__ == "__main__":
    raise SystemExit(main())
