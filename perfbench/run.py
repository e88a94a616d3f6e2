"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up ``Workload.SETUPS`` times (5; 15 for
``sharded``; ``setup_s`` is the median), drives it untraced for
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` drives it for half the time untraced and half
traced, and prints the per-layer metrics, the tracing overhead among
them.  Every answer is checked against a plaintext oracle.  The last
line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero on a wrong
answer, on a child process left running, or when the source tree is
missing.  Full results, the per-layer tables and the raw spans go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import RESULTS_DIR, WORK_DIR, BenchError, bootstrap


def _metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Seabed repo benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["analytics", "service_ingest", "sharded"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import bench

    name, seed = args.workload, args.seed
    try:
        if args.trace:
            half = args.seconds / 2
            untraced = bench.run_phase(name, seed, half, traced=False, setups=1)
            traced = bench.run_phase(name, seed, half, traced=True, setups=1)
            phases = [untraced, traced]
            values = bench.per_layer(traced, untraced)
            units = bench.LAYER_UNITS
            samples: dict[str, int] = {}
        else:
            phase = bench.run_phase(name, seed, args.seconds, traced=False,
                                    setups=bench.WORKLOADS[name].SETUPS)
            phases = [phase]
            values, samples = bench.end_to_end(phase)
            units = bench.E2E_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    wrong = [w for p in phases for w in p.wrong]
    attempted = sum(len(p.done) for p in phases)
    failed = sum(bench.failures(p) for p in phases)
    print(f"workload {name}  seed {seed}  seconds {args.seconds:g}  trace {args.trace}")
    for metric, unit in units.items():
        extra = f"  (n={samples[metric]})" if metric in samples else ""
        print(f"  {metric:36s} {values[metric]:14.4f} {unit}{extra}")
    if phases[-1].lag_s:
        lag = sorted(phases[-1].lag_s)
        print(f"  open-loop generator lag: p50 {1e3 * lag[len(lag) // 2]:.3f} ms, "
              f"max {1e3 * lag[-1]:.3f} ms")
    for w in wrong[:20]:
        print(f"  WRONG: {w}")

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "metrics": _metric_block(values, units), "samples": samples, "wrong": wrong,
        "layers": phases[-1].layers,
    }
    out = RESULTS_DIR / f"{name}-seed{seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_block(values, units),
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def _terminate(signum, _frame):
    # Unwind through the ``finally`` blocks that stop the worker pool,
    # the service process and the shard fleets.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main(sys.argv[1:]))
