"""Measure what two closed-loop connections sustain on ``service_ingest``.

Usage (from the root of a checkout)::

    python3 perfbench/calibrate.py --seeds 1 2 3 --ops 240

Every op of the workload's schedule is made due at once, so each of the
two connections works through its share back to back.  Prints the
sustained ops/s per seed and their median; ``ServiceIngest.RATE`` is a
third of it (see README.md, "Open-loop rate and schedule").
"""

from __future__ import annotations

import argparse
import statistics
import sys

from common import bootstrap


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--ops", type=int, default=240)
    args = parser.parse_args(argv)
    bootstrap()
    import bench

    rates = []
    for seed in args.seeds:
        phase = bench.run_phase("service_ingest", seed, 1e9, traced=False, setups=1,
                                max_ops=args.ops, schedule="burst")
        if phase.wrong:
            print(f"seed {seed}: wrong answers: {phase.wrong[:3]}")
            return 1
        rates.append(len(phase.done) / phase.elapsed_s)
        print(f"seed {seed}: {rates[-1]:.2f} ops/s over {len(phase.done)} ops")
    print(f"median {statistics.median(rates):.2f} ops/s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
