"""Run ``edgectx serve`` with spans around the server-side layers.

Usage: python3 serve_traced.py <spans file> serve [serve options]

The spans stay in memory; SIGUSR1 writes them to the spans file. The
benchmark signals before it kills the server.
"""

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import edgectx.cli  # noqa: E402

from layers import install_server_side  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path = argv[0]
    tracer = Tracer()
    install_server_side(tracer)
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.dump(spans_path))
    return edgectx.cli.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
