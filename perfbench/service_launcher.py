"""Start ``repro.net.service`` with the benchmark's span wrappers installed.

Usage::

    python perfbench/service_launcher.py --layers-out FILE -- SERVICE_ARGS...

Runs the service exactly as ``python -m repro.net.service SERVICE_ARGS``
does.  When the service stops (SIGINT or SIGTERM), the layer table of
every span recorded in this process is written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import bootstrap
from tracer import Recorder, install, layer_table


def _interrupt(_signum, _frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers-out", required=True)
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    service_args = args.service_args
    if service_args[:1] == ["--"]:
        service_args = service_args[1:]
    bootstrap()
    from repro.net import service

    recorder = Recorder()
    install(recorder)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        service.main(service_args)
    finally:
        with open(args.layers_out, "w", encoding="utf-8") as fh:
            json.dump(layer_table(recorder.all_spans()), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
