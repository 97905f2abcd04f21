"""The compilation service with span recorders installed (traced run).

Installs :func:`tracing.install`, then runs the CLI itself,
``python -m repro.frontend --serve --port 0 --workers 2``, in this process:
the recorders are in place before the worker pool forks, so the workers
inherit them.  On SIGINT the CLI stops serving and closes its pool (each
worker writes its spans as it exits); this process then writes its own
spans to the ``--out`` directory.

Usage: ``python perfbench/traced_server.py --out DIR``
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for span files")
    args = parser.parse_args()

    from repro.frontend.compiler import main as cli_main

    import tracing

    recorder = tracing.SpanRecorder()
    tracing.install(recorder, args.out)
    try:
        return cli_main(["--serve", "--port", "0", "--workers", "2"])
    finally:
        recorder.dump(args.out)


if __name__ == "__main__":
    sys.exit(main())
