"""Shared plumbing: locating the source tree, child-process accounting,
latency statistics and the per-run record every workload fills in.

Nothing here imports ``repro``; :func:`bootstrap` must run first so the
package resolves to the ``src/`` tree of the checkout this file sits in,
never to some other installed copy.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

#: Op classes; each end-to-end latency metric is one class's percentiles.
CLASSES = ("agg", "group", "append")


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result (wrong answer,
    leaked process, missing source tree)."""


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and check that
    ``repro`` really comes from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"repro resolved to {origin}, not to {SRC}")


def child_env() -> dict[str, str]:
    """Environment for a Python child that must import the same tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def make_work_dir(tag: str) -> Path:
    path = WORK_DIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- child processes -----------------------------------------------------------


def _stat(pid: int) -> tuple[int, str] | None:
    """``(ppid, state)`` of a live process, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            raw = fh.read()
    except OSError:
        return None
    fields = raw[raw.rfind(")") + 2 :].split()
    return int(fields[1]), fields[0]


def live_children(parent: int | None = None) -> set[int]:
    """Pids of the running (non-zombie) children of ``parent``."""
    parent = os.getpid() if parent is None else parent
    found: set[int] = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        info = _stat(int(entry))
        if info is not None and info[0] == parent and info[1] != "Z":
            found.add(int(entry))
    return found


def alive(pid: int) -> bool:
    info = _stat(pid)
    return info is not None and info[1] != "Z"


def leaked(pids: set[int], grace_s: float = 5.0) -> list[int]:
    """The pids in ``pids`` still running after ``grace_s``; each one is
    killed so the benchmark never leaves it behind."""
    deadline = time.monotonic() + grace_s
    remaining = [p for p in pids if alive(p)]
    while remaining and time.monotonic() < deadline:
        time.sleep(0.05)
        remaining = [p for p in remaining if alive(p)]
    for pid in remaining:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return remaining


def peak_rss_mb(who: int) -> float:
    """Peak resident set of this process (``resource.RUSAGE_SELF``) or of
    its largest reaped child (``resource.RUSAGE_CHILDREN``), in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def tree_bytes(path: str | os.PathLike) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


# -- ops and results -------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One generated operation: what to run and with which inputs."""

    index: int
    kind: str
    cls: str
    params: tuple = ()

    def key(self) -> tuple:
        """Comparable identity (batch arrays reduced to a digest)."""
        flat = []
        for p in self.params:
            if isinstance(p, dict):
                flat.append(tuple(
                    (k, np.asarray(v).tobytes()) for k, v in sorted(p.items())
                ))
            else:
                flat.append(p)
        return (self.index, self.kind, self.cls, tuple(flat))


@dataclass
class Done:
    """One completed (or failed) op."""

    op: Op
    latency_s: float
    answer: Any = None
    result_bytes: int = 0
    partitions_total: int = 0
    partitions_skipped: int = 0
    shards_total: int = 0
    shards_skipped: int = 0
    queue_wait_s: float = 0.0
    wire_s: float = 0.0
    failed: str | None = None
    #: Appended batches visible before the op started / after it ended
    #: (bounds which snapshot a read may have seen).
    visible: tuple[int, int] = (0, 0)


@dataclass
class PhaseResult:
    """Everything one measured phase produced."""

    done: list[Done]
    elapsed_s: float
    setup_s: list[float]
    store_bytes_per_row: float
    partitions: int = 0
    peak_rss_mb: float = 0.0
    wrong: list[str] = field(default_factory=list)
    lag_s: list[float] = field(default_factory=list)
    cache: dict[str, int] = field(default_factory=dict)
    layers: dict[str, Any] = field(default_factory=dict)

    def of_class(self, cls: str) -> list[Done]:
        return [d for d in self.done if d.op.cls == cls and d.failed is None]


def fill_metrics(done: Done, result: Any) -> None:
    """Copy the *measured* counters of a ``QueryResult`` into ``done``.
    Modelled fields (server_time, network_time, total_time) are never read."""
    done.result_bytes = int(result.result_bytes)
    for m in result.request_metrics:
        done.partitions_total += m.partitions_total
        done.partitions_skipped += m.partitions_skipped
        done.shards_total += m.shards_total
        done.shards_skipped += m.shards_skipped
        done.queue_wait_s += m.queue_wait
        done.wire_s += m.wire_time


def percentile_ms(values: list[float], q: float) -> float:
    if not values:
        raise BenchError(f"no samples for p{q:g}")
    return float(np.percentile(np.asarray(values) * 1e3, q))


def rows_key(rows: list[dict]) -> list[tuple]:
    return sorted(tuple(sorted(r.items())) for r in rows)
