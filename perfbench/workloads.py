"""The three workloads: set-up, seeded op stream, op execution, checks.

Each workload generates every input from its seed (:meth:`ops` yields
the same sequence for the same seed) and hands the program only those
inputs.  Op streams are built from shuffled blocks with fixed class
counts, so every seed runs the same mix of op kinds.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterator

import numpy as np
from common import (
    BENCH_DIR,
    BenchError,
    Done,
    Op,
    child_env,
    fill_metrics,
    live_children,
    rows_key,
    tree_bytes,
)
from data import (
    BATCH_ROWS,
    MASTER_KEY,
    REGIONS,
    USERS,
    concat,
    sales_answer,
    sales_rows,
    sales_samples,
    sales_schema,
    totals,
    users_answer,
    users_rows,
    users_samples,
    users_schema,
)

BASE_ROWS = 100_000
BASE_PARTITIONS = 50
TOKEN = "perfbench-token"
RANGE_SQL = "SELECT sum(amount), count(*) FROM sales WHERE ts >= :lo AND ts < :hi"
WINDOW_SQL = ("SELECT region, sum(amount), count(*) FROM sales "
              "WHERE ts >= :lo AND ts < :hi GROUP BY region")


def _cluster(config: dict, **extra):
    from repro.engine.cluster import ClusterConfig, SimulatedCluster

    return SimulatedCluster(ClusterConfig(**{**config, **extra}))


def store_partitions(root: str | os.PathLike) -> int:
    """Partitions across every partition store under ``root``."""
    from repro.engine.store import MANIFEST_NAME, store_generations

    total = 0
    for dirpath, _, files in os.walk(root):
        if MANIFEST_NAME in files:
            total += sum(g["num_partitions"] for g in store_generations(dirpath))
    return total


class Workload:
    """Base class; subclasses fill in the workload-specific parts."""

    name = ""
    #: Op kinds of one block, by class; a block is shuffled per seed.
    BLOCK: dict[str, tuple[str, ...]] = {}
    #: Set-ups timed in an end-to-end run; ``setup_s`` is their median.
    SETUPS = 5

    def __init__(self, seed: int, work: Path, config: dict | None = None,
                 traced: bool = False):
        self.seed = seed
        self.work = work
        self.config = dict(config or {})
        self.traced = traced
        self.setups = 0
        self.pids: set[int] = set()
        self.ingested: list[dict] = []

    # Subclasses provide params, setup, run_op, read_ok, final_checks,
    # cache_stats, store_bytes_per_row, partitions and teardown.

    def ops(self) -> Iterator[Op]:
        """The seeded op stream (infinite; the driver decides how many)."""
        rng = np.random.default_rng([self.seed, 1])
        kinds = [(k, cls) for cls, ks in self.BLOCK.items() for k in ks]
        index = 0
        while True:
            for j in rng.permutation(len(kinds)):
                kind, cls = kinds[j]
                yield Op(index, kind, cls, self.params(kind, rng))
                index += 1

    def params(self, kind: str, rng: np.random.Generator) -> tuple:
        raise NotImplementedError

    def next_setup_dir(self) -> Path:
        self.setups += 1
        path = self.work / f"setup-{self.setups}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def check(self, done: list[Done]) -> list[str]:
        """Descriptions of every wrong answer (empty: all correct)."""
        wrong = []
        for d in done:
            if d.failed is not None:
                continue
            if d.op.cls == "append":
                if d.answer != BATCH_ROWS:
                    wrong.append(f"op {d.op.index} appended {d.answer} rows")
                continue
            if not self.read_ok(d):
                wrong.append(f"op {d.op.index} {d.op.kind}{d.op.params}: {d.answer!r}")
        return wrong + self.final_checks(done)

    def remember_children(self) -> None:
        self.pids |= live_children()


class InProcess(Workload):
    """A closed-loop session in this process over a table that does not
    change during the run; appends go to a second table, ``inbox``."""

    MEASURE = ""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.session = None
        self.cluster = None
        self._answers: dict[tuple, list[tuple]] = {}

    def answer(self, kind: str, params: tuple) -> list[dict]:
        raise NotImplementedError

    def read_ok(self, d: Done) -> bool:
        key = (d.op.kind, d.op.params)
        if key not in self._answers:
            self._answers[key] = rows_key(self.answer(*key))
        return rows_key(d.answer) == self._answers[key]

    def ingest(self, batch: dict, **kwargs) -> int:
        rows = self.session.upload("inbox", batch, **kwargs).rows
        self.ingested.append(batch)
        return rows

    def final_checks(self, done: list[Done]) -> list[str]:
        if not self.ingested:
            return []
        m = self.MEASURE
        got = self.session.query(f"SELECT sum({m}), count(*) FROM inbox").rows
        want = totals(concat(self.ingested), m)
        return [] if rows_key(got) == rows_key(want) else [f"inbox totals {got} != {want}"]

    def cache_stats(self) -> dict:
        return self.session.cache_stats()

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None


# -- analytics -----------------------------------------------------------------------


class Analytics(InProcess):
    """In-process session over a persisted 100k-row single store."""

    name = "analytics"
    MEASURE = "amount"
    #: The session's map stages run on the engine's process pool, one
    #: worker per host CPU.  With the serial backend one CPU is busy, and
    #: on the reference host (2 vCPUs) a lone busy CPU switches every few
    #: seconds between two speeds 1.8x apart, so each run's p50s land on
    #: one or the other and spread by 26-42% across runs.  With both CPUs
    #: in use the speed holds (see README.md).  ``inbox`` is not spilled
    #: to a scratch store, so appends write nothing to disk.
    CLUSTER = {"backend": "processes", "workers": 2, "spill_to_store": False}
    BLOCK = {
        "agg": ("sum_all", "sum_all", "sum_region", "sum_region", "range", "range",
                "max", "max", "adhoc", "adhoc"),
        # Two full scans and three windows: the window p50 and the full
        # p90 each sit well inside their own cluster of samples.
        "group": ("group", "group", "window_group", "window_group", "window_group"),
        "append": ("ingest",) * 5,
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rng = np.random.default_rng([self.seed, 0])
        self.base = sales_rows(rng, BASE_ROWS, 0)
        self.ts = self.base["ts"]

    def params(self, kind: str, rng: np.random.Generator) -> tuple:
        n = len(self.ts)
        if kind == "sum_region":
            return (REGIONS[int(rng.integers(len(REGIONS)))],)
        if kind == "range":
            i = int(rng.integers(0, n - 20_000))
            return (int(self.ts[i]), int(self.ts[i + int(rng.integers(1_000, 20_000))]))
        if kind == "adhoc":
            return (int(self.ts[int(rng.integers(1, n))]),)
        if kind == "window_group":
            i = int(rng.integers(0, n - 10_000))
            return (int(self.ts[i]), int(self.ts[i + int(rng.integers(2_000, 10_000))]))
        if kind == "ingest":
            return (sales_rows(rng, BATCH_ROWS, 0),)
        return ()

    def setup(self) -> None:
        from repro.core.session import SeabedSession

        path = self.next_setup_dir()
        writer = SeabedSession(master_key=MASTER_KEY, cluster=_cluster(self.config))
        writer.create_plan(sales_schema("sales"), sales_samples("sales"))
        writer.upload("sales", self.base, num_partitions=BASE_PARTITIONS)
        self.store = writer.save_table("sales", str(path / "sales"))
        writer.close()
        self.cluster = _cluster({**self.CLUSTER, **self.config})
        session = SeabedSession(master_key=MASTER_KEY, cluster=self.cluster)
        session.open_table(self.store)
        session.create_plan(sales_schema("inbox"), sales_samples("inbox"))
        self.p_sum = session.prepare("SELECT sum(amount) FROM sales")
        self.p_region = {
            r: session.prepare(f"SELECT sum(amount) FROM sales WHERE region = '{r}'")
            for r in REGIONS
        }
        self.p_range = session.prepare(RANGE_SQL)
        self.p_max = session.prepare("SELECT max(amount) FROM sales")
        self.p_group = session.prepare(
            "SELECT region, sum(amount), count(*) FROM sales GROUP BY region")
        self.p_window = session.prepare(WINDOW_SQL)
        self.session = session
        self.p_sum.execute()  # starts the worker pool before timing
        self.ingested = []

    def run_op(self, op: Op, done: Done) -> None:
        kind, p = op.kind, op.params
        if kind == "ingest":
            done.answer = self.ingest(p[0], num_partitions=1)
            return
        if kind == "sum_all":
            result = self.p_sum.execute()
        elif kind == "sum_region":
            result = self.p_region[p[0]].execute()
        elif kind == "range":
            result = self.p_range.execute(lo=p[0], hi=p[1])
        elif kind == "max":
            result = self.p_max.execute()
        elif kind == "adhoc":
            # Fresh literals each time: parse, then the translation cache.
            result = self.session.query(
                f"SELECT sum(amount), count(*) FROM sales WHERE ts < {p[0]}")
        elif kind == "window_group":
            result = self.p_window.execute(lo=p[0], hi=p[1])
        else:
            result = self.p_group.execute()
        done.answer = result.rows
        fill_metrics(done, result)

    def answer(self, kind: str, params: tuple) -> list[dict]:
        return sales_answer(self.base, kind, params)

    def store_bytes_per_row(self) -> float:
        return tree_bytes(self.store) / BASE_ROWS

    def partitions(self) -> int:
        return store_partitions(self.store)


# -- sharded -------------------------------------------------------------------------


class Sharded(InProcess):
    """In-process session owning a 2-shard worker fleet."""

    name = "sharded"
    MEASURE = "revenue"
    NUM_SHARDS = 2
    #: A set-up takes ~0.3 s, most of it starting four worker processes,
    #: and its median over 5 spread by 40% across runs.
    SETUPS = 15
    BLOCK = {
        "agg": ("point",) * 4,
        "group": ("group",) * 3,
        "append": ("ingest",) * 3,
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.base = users_rows(np.random.default_rng([self.seed, 0]), BASE_ROWS)

    def params(self, kind: str, rng: np.random.Generator) -> tuple:
        if kind == "point":
            return (int(rng.integers(USERS)),)
        if kind == "ingest":
            return (users_rows(rng, BATCH_ROWS),)
        return ()

    def setup(self) -> None:
        from repro.core.session import SeabedSession

        path = self.next_setup_dir()
        cluster = _cluster(self.config, storage_dir=str(path),
                           append_partition_rows=BASE_ROWS // BASE_PARTITIONS)
        session = SeabedSession(master_key=MASTER_KEY, cluster=cluster)
        self.session = session
        for table in ("users", "inbox"):
            session.create_plan(users_schema(table), users_samples(table))
            session.shard_table(table, "user", num_shards=self.NUM_SHARDS, replicas=1)
        session.upload("users", self.base)
        self.p_point = session.prepare(
            "SELECT sum(revenue), count(*) FROM users WHERE user = :u")
        self.p_group = session.prepare(
            "SELECT user, sum(revenue), count(*) FROM users GROUP BY user")
        for table in ("users", "inbox"):
            store = session.sharded_table(table).store
            for shard in store.shards:
                store.call_shard(shard, "ping")
        self.root = session.sharded_table("users").root
        self.ingested = []

    def run_op(self, op: Op, done: Done) -> None:
        if op.kind == "ingest":
            done.answer = self.ingest(op.params[0])
            return
        if op.kind == "point":
            result = self.p_point.execute(u=op.params[0])
        else:
            result = self.p_group.execute()
        done.answer = result.rows
        fill_metrics(done, result)

    def answer(self, kind: str, params: tuple) -> list[dict]:
        return users_answer(self.base, kind, params)

    def store_bytes_per_row(self) -> float:
        return tree_bytes(self.root) / BASE_ROWS

    def partitions(self) -> int:
        return store_partitions(self.root)


# -- service_ingest ------------------------------------------------------------------


class ServiceIngest(Workload):
    """Two connections to a keyless service process: one appends, one reads."""

    name = "service_ingest"
    #: Ops per second, a third of what two closed-loop connections sustain
    #: on the reference host (see README.md, "Open-loop rate and schedule").
    RATE = 8.0
    PARTITIONS = 10
    #: Read kinds of three consecutive 4-op periods, shuffled per seed.
    #: Range reads (7-13 ms) run faster than SPLASHE sums (10-25 ms).  With
    #: equal counts the agg p50 falls on the seam between the two kinds
    #: and jumps with every shift in host speed; with 4 + 2 it falls
    #: inside the range reads.
    READS = ("range",) * 4 + ("sum_region",) * 2 + ("window_group",) * 3
    CLASS = {"range": "agg", "sum_region": "agg", "window_group": "group",
             "append": "append"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rng = np.random.default_rng([self.seed, 0])
        self.base = sales_rows(rng, BASE_ROWS, 0)
        self.ts = self.base["ts"]
        self.next_ts = int(self.ts[-1])
        self.batches: list[dict] = []
        self._views: dict[int, dict] = {}
        self.proc: subprocess.Popen | None = None
        self.sessions: list = []
        self._lock = threading.Lock()
        self.started = self.committed = 0

    def ops(self) -> Iterator[Op]:
        """Periods of four ops: one append, then three reads."""
        rng = np.random.default_rng([self.seed, 1])
        index = 0
        while True:
            reads = [self.READS[j] for j in rng.permutation(len(self.READS))]
            for b in range(3):
                for kind in ("append", *reads[3 * b : 3 * b + 3]):
                    yield Op(index, kind, self.CLASS[kind], self.params(kind, rng))
                    index += 1

    def due(self, index: int) -> float:
        """Seconds after the start at which op ``index`` is due.

        Each ``4 / RATE``-second period issues its append at the start and
        its three reads at 0.45, 0.65 and 0.85 of the period, so a read
        normally starts after the append has returned.  When the two
        overlap, both run under one interpreter lock in the service and
        their latencies depend on the exact overlap: with evenly spaced
        arrivals, p90s swung 2-3x between runs of one seed.
        """
        period = 4 / self.RATE
        block, pos = divmod(index, 4)
        return period * (block + (0.0, 0.45, 0.65, 0.85)[pos])

    def params(self, kind: str, rng: np.random.Generator) -> tuple:
        n = len(self.ts)
        if kind == "append":
            batch = sales_rows(rng, BATCH_ROWS, self.next_ts)
            self.next_ts = int(batch["ts"][-1])
            self.batches.append(batch)
            return (batch,)
        if kind == "range":
            i = int(rng.integers(0, n - 1))
            # ~1k-20k rows at the mean ts gap of 10; may reach appended rows
            span = int(rng.integers(1_000, 20_000)) * 10
            return (int(self.ts[i]), int(self.ts[i]) + span)
        if kind == "sum_region":
            return (REGIONS[int(rng.integers(len(REGIONS)))],)
        if kind == "window_group":
            # The newest ~1k rows (about four appended batches) by the
            # schedule; the read sees fewer if those appends have not
            # committed yet.
            back = int(rng.integers(768, 1_280))
            recent = np.concatenate([self.ts[-back:], *(
                b["ts"] for b in self.batches[-(back // BATCH_ROWS + 1):])])
            return (int(recent[-back]), 2**31 - 1)
        raise ValueError(kind)

    def setup(self) -> None:
        import repro
        from repro.core.session import SeabedSession

        path = self.next_setup_dir()
        writer = SeabedSession(master_key=MASTER_KEY, cluster=_cluster(self.config))
        writer.create_plan(sales_schema("sales"), sales_samples("sales"))
        writer.upload("sales", self.base, num_partitions=self.PARTITIONS)
        self.store = writer.save_table("sales", str(path / "sales"))
        writer.close()
        info = path / "service.json"
        args = ["--store", self.store, "--grant", f"bench:{TOKEN}", "--info-file", str(info)]
        if self.traced:
            self.layers_file = path / "service-layers.json"
            cmd = [sys.executable, str(BENCH_DIR / "service_launcher.py"),
                   "--layers-out", str(self.layers_file), "--", *args]
        else:
            cmd = [sys.executable, "-m", "repro.net.service", *args]
        self.proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL)
        self.pids.add(self.proc.pid)
        address = self._await_address(info)
        self.sessions = []
        for _ in range(2):
            s = repro.connect(address, TOKEN, master_key=MASTER_KEY,
                              cluster=_cluster(self.config))
            s.open_table(self.store)
            s.transport.ping()
            self.sessions.append(s)
        reader = self.sessions[1]
        self.prepared = {
            "range": reader.prepare(RANGE_SQL),
            "window_group": reader.prepare(WINDOW_SQL),
            **{r: reader.prepare(f"SELECT sum(amount) FROM sales WHERE region = '{r}'")
               for r in REGIONS},
        }
        self.started = self.committed = 0

    def _await_address(self, info: Path) -> tuple[str, int]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"service exited with {self.proc.returncode} at start")
            try:
                data = json.loads(info.read_text())
                return data["host"], int(data["port"])
            except (OSError, ValueError, KeyError):
                time.sleep(0.01)
        raise BenchError("service did not bind within 60 s")

    def connection(self, op: Op) -> int:
        """Appends go over connection 0 (the one writer), reads over 1."""
        return 0 if op.cls == "append" else 1

    def run_op(self, op: Op, done: Done) -> None:
        kind, p = op.kind, op.params
        if kind == "append":
            with self._lock:
                self.started += 1
            done.answer = self.sessions[0].append_rows("sales", p[0]).rows
            with self._lock:
                self.committed += 1
            return
        with self._lock:
            lo = self.committed
        if kind == "sum_region":
            result = self.prepared[p[0]].execute()
        else:
            result = self.prepared[kind].execute(lo=p[0], hi=p[1])
        with self._lock:
            done.visible = (lo, self.started)
        done.answer = result.rows
        fill_metrics(done, result)

    def view(self, k: int) -> dict:
        """Plaintext of the base rows plus the first ``k`` appended batches
        (reads are checked in order, so two cached views suffice)."""
        if k not in self._views:
            if len(self._views) >= 2:
                del self._views[min(self._views)]
            self._views[k] = concat([self.base, *self.batches[:k]])
        return self._views[k]

    def read_ok(self, d: Done) -> bool:
        got = rows_key(d.answer)
        lo, hi = d.visible
        return any(got == rows_key(sales_answer(self.view(k), d.op.kind, d.op.params))
                   for k in range(lo, hi + 1))

    def final_checks(self, done: list[Done]) -> list[str]:
        got = self.prepared["range"].execute(lo=0, hi=2**31 - 1).rows
        want = sales_answer(self.view(self.committed), "range", (0, 2**31 - 1))
        return [] if rows_key(got) == rows_key(want) else [f"final totals {got} != {want}"]

    def cache_stats(self) -> dict:
        stats = [s.cache_stats() for s in self.sessions]
        return {k: sum(s[k] for s in stats) for k in ("hits", "misses")} if stats else {}

    def rows(self) -> int:
        return BASE_ROWS + self.committed * BATCH_ROWS

    def store_bytes_per_row(self) -> float:
        return tree_bytes(self.store) / self.rows()

    def partitions(self) -> int:
        return store_partitions(self.store)

    def teardown(self) -> None:
        for s in self.sessions:
            s.close()
        self.sessions = []
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)

    def service_layers(self) -> dict:
        try:
            return json.loads(self.layers_file.read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"service wrote no layer table: {exc}") from exc


WORKLOADS = {w.name: w for w in (Analytics, ServiceIngest, Sharded)}
