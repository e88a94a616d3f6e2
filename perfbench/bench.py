"""Load drivers, measured phases, and the metric tables they yield."""

from __future__ import annotations

import queue
import resource
import shutil
import statistics
import threading
import time

from common import (
    CLASSES,
    BenchError,
    Done,
    PhaseResult,
    leaked,
    live_children,
    make_work_dir,
    peak_rss_mb,
    percentile_ms,
)
from tracer import Recorder, install, layer_table, merge_tables, span_dump
from workloads import WORKLOADS, ServiceIngest

#: How long an open-loop run may take to finish its queued ops; a remote
#: call gives up after 60 s, so a run still ends well within 180 s.
DRAIN_S = 60


def execute(wl, op, recorder: Recorder | None, due: float | None = None) -> Done:
    """Run one op; latency runs from ``due`` (open loop) or from the call."""
    from repro.errors import Backpressure, TransportError

    done = Done(op, 0.0)
    if recorder is not None:
        recorder.set_op(op.index, op.cls)
    start = time.perf_counter()
    try:
        wl.run_op(op, done)
    except Backpressure:
        done.failed = "rejected"
    except TransportError as exc:
        if "timed out" not in str(exc):
            raise
        done.failed = "timeout"
    finally:
        end = time.perf_counter()
        if recorder is not None:
            recorder.clear_op()
    done.latency_s = end - (start if due is None else due)
    return done


def closed_loop(wl, seconds: float, recorder=None, max_ops=None):
    """One client: each op is issued when the previous one returns."""
    done: list[Done] = []
    start = time.perf_counter()
    deadline = start + seconds
    for op in wl.ops():
        if max_ops is not None and op.index >= max_ops:
            break
        if max_ops is None and time.perf_counter() >= deadline:
            break
        done.append(execute(wl, op, recorder))
    return done, time.perf_counter() - start, []


def open_loop(wl, seconds: float, schedule: str, recorder=None, max_ops=None):
    """Ops are due on the workload's fixed schedule (``wl.due``) whatever
    the system does; each connection serves its ops in order on its own
    thread.  ``schedule="burst"`` makes every op due at once (two
    closed-loop connections, for calibration); ``"serial"`` runs the ops
    one at a time (for the tests, where the order of reads and appends
    must not depend on timing)."""
    ops = wl.ops()
    if schedule == "serial":
        start = time.perf_counter()
        done = [execute(wl, next(ops), recorder) for _ in range(max_ops)]
        return done, time.perf_counter() - start, []
    due = wl.due if schedule == "open" else (lambda _index: 0.0)
    queues: list[queue.Queue] = [queue.Queue(), queue.Queue()]
    results: list[Done] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def serve(q: queue.Queue) -> None:
        while True:
            item = q.get()
            if item is None:
                return
            if errors:
                continue  # drain: a failed run stops doing work
            op, at = item
            try:
                d = execute(wl, op, recorder, at)
            except BaseException as exc:  # re-raised by the generator below
                errors.append(exc)
                continue
            with lock:
                results.append(d)

    threads = [threading.Thread(target=serve, args=(q,), daemon=True) for q in queues]
    for t in threads:
        t.start()
    lag: list[float] = []
    start = time.perf_counter() + 0.05
    try:
        for op in ops:
            offset = due(op.index)
            if offset > seconds or (max_ops is not None and op.index >= max_ops):
                break
            offset += start
            delay = offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lag.append(time.perf_counter() - offset)
            queues[wl.connection(op)].put((op, offset))
    finally:
        for q in queues:
            q.put(None)
        for t in threads:
            t.join(timeout=DRAIN_S)
    if any(t.is_alive() for t in threads):
        raise BenchError(f"ops still running {DRAIN_S} s after the schedule ended")
    if errors:
        raise errors[0]
    results.sort(key=lambda d: d.op.index)
    finished = max((due(d.op.index) + d.latency_s for d in results), default=0.0)
    return results, finished, lag


def run_phase(name: str, seed: int, seconds: float, *, traced: bool, setups: int,
              config: dict | None = None, max_ops: int | None = None,
              schedule: str = "open") -> PhaseResult:
    """Set up ``setups`` times (timing each), drive the last set-up for
    ``seconds`` (or ``max_ops``), check every answer, tear down, and fail
    on any child process left running.  ``schedule`` applies to the
    open-loop workload (see :func:`open_loop`)."""
    cls = WORKLOADS[name]
    work = make_work_dir(f"{name}-{seed}-{'t' if traced else 'u'}")
    before = live_children()
    wl = cls(seed, work, config, traced)
    setup_s: list[float] = []
    recorder = Recorder() if traced else None
    try:
        try:
            for k in range(setups):
                t0 = time.perf_counter()
                wl.setup()
                setup_s.append(time.perf_counter() - t0)
                wl.remember_children()
                if k < setups - 1:
                    wl.teardown()
            cache0 = wl.cache_stats()
            installed = install(recorder) if recorder is not None else None
            try:
                if cls is ServiceIngest:
                    done, elapsed, lag = open_loop(wl, seconds, schedule, recorder, max_ops)
                else:
                    done, elapsed, lag = closed_loop(wl, seconds, recorder, max_ops)
            finally:
                if installed is not None:
                    installed.remove()
            cache1 = wl.cache_stats()
            # Before the oracle runs: its own memory is not the program's.
            rss_mb = peak_rss_mb(resource.RUSAGE_SELF)
            wrong = wl.check(done)
        finally:
            wl.teardown()
        phase = PhaseResult(
            done=done, elapsed_s=elapsed, setup_s=setup_s,
            store_bytes_per_row=wl.store_bytes_per_row(), partitions=wl.partitions(),
            peak_rss_mb=rss_mb + peak_rss_mb(resource.RUSAGE_CHILDREN),
            wrong=wrong, lag_s=lag,
            cache={k: cache1.get(k, 0) - cache0.get(k, 0) for k in ("hits", "misses")},
        )
        if recorder is not None:
            spans = recorder.all_spans()
            phase.layers = {
                "query": layer_table(spans, ("agg", "group")),
                "append": layer_table(spans, ("append",)),
                "all": layer_table(spans),
                "service": wl.service_layers() if cls is ServiceIngest else {},
                "spans": span_dump(spans),
            }
    finally:
        orphans = leaked(wl.pids - before)
        shutil.rmtree(work, ignore_errors=True)
    if orphans:
        raise BenchError(f"{len(orphans)} child process(es) outlived teardown: {orphans}")
    return phase


# -- metrics --------------------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s",
    "agg_p50_ms": "ms", "agg_p90_ms": "ms",
    "group_p50_ms": "ms", "group_p90_ms": "ms",
    "append_p50_ms": "ms", "append_p90_ms": "ms",
    "result_bytes_per_query": "bytes", "store_bytes_per_row": "bytes",
    "ops_ok_frac": "ratio", "peak_rss_mb": "MB",
}


def failures(phase: PhaseResult) -> int:
    return sum(d.failed is not None for d in phase.done) + len(phase.wrong)


def end_to_end(phase: PhaseResult) -> tuple[dict[str, float], dict[str, int]]:
    """The end-to-end metrics, and the sample count behind each percentile."""
    values: dict[str, float] = {"setup_s": statistics.median(phase.setup_s)}
    ok = [d for d in phase.done if d.failed is None]
    values["ops_per_s"] = len(ok) / phase.elapsed_s
    samples: dict[str, int] = {}
    for cls in CLASSES:
        lat = [d.latency_s for d in phase.of_class(cls)]
        for q in (50, 90):
            values[f"{cls}_p{q}_ms"] = percentile_ms(lat, q)
            samples[f"{cls}_p{q}_ms"] = len(lat)
    queries = [d for d in ok if d.op.cls != "append"]
    values["result_bytes_per_query"] = sum(d.result_bytes for d in queries) / len(queries)
    values["store_bytes_per_row"] = phase.store_bytes_per_row
    values["ops_ok_frac"] = 1.0 - failures(phase) / len(phase.done)
    values["peak_rss_mb"] = phase.peak_rss_mb
    return values, samples


LAYER_UNITS = {
    "query.parse_us": "us",
    "core.session.cache_hit_ratio": "ratio",
    "core.translator.translate_us": "us",
    "core.encryptor.encrypt_us_per_row": "us/row",
    "crypto.ashe.prf_evals_per_query": "count",
    "crypto.kernel_ms": "ms",
    "idlist.encode_us": "us",
    "idlist.decode_us": "us",
    "idlist.encode_calls_per_query": "count",
    "idlist.bytes_per_query": "bytes",
    "index.partitions_skipped_ratio": "ratio",
    "core.server.execute_ms": "ms",
    "engine.map_stage_ms": "ms",
    "engine.tasks_per_query": "count",
    "core.decryptor.decrypt_ms": "ms",
    "engine.store.append_ms": "ms",
    "engine.store.open_ms": "ms",
    "engine.store.partitions": "count",
    "core.transport.execute_ms": "ms",
    "net.client.rpc_ms": "ms",
    "net.codec.encode_us": "us",
    "net.codec.decode_us": "us",
    "net.codec.bytes_per_request": "bytes",
    "net.service.queue_wait_ms": "ms",
    "net.wire_ms": "ms",
    "net.retries": "count",
    "net.rejected": "count",
    "shard.call_ms": "ms",
    "shard.calls_per_query": "count",
    "shard.skipped_ratio": "ratio",
    "shard.failovers": "count",
    "shard.append_ms": "ms",
    "loadgen.lag_p90_ms": "ms",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: PhaseResult, untraced: PhaseResult) -> dict[str, float]:
    """Self time and counts per op from the traced phase.  Layers that run
    in the service process come from its own table."""
    lay = traced.layers
    svc = lay["service"]
    query = merge_tables(lay["query"], svc)
    append = merge_tables(lay["append"], svc)
    both = merge_tables(lay["all"], svc)
    ok = [d for d in traced.done if d.failed is None]
    reads = [d for d in ok if d.op.cls != "append"]
    n_q, n_a = len(reads), len(ok) - len(reads)

    def get(table: dict, span: str, key: str = "self_s") -> float:
        return table.get(span, {}).get(key, 0.0)

    def per_call_us(span: str) -> float:
        return 1e6 * _ratio(get(both, span), get(both, span, "calls"))

    remote = [d for d in reads if d.wire_s > 0]
    out = {
        "query.parse_us": per_call_us("query.parse"),
        "core.session.cache_hit_ratio": _ratio(
            traced.cache.get("hits", 0), sum(traced.cache.values())),
        "core.translator.translate_us": per_call_us("core.translator.translate"),
        "core.encryptor.encrypt_us_per_row": 1e6 * _ratio(
            get(both, "core.encryptor.encrypt"), get(both, "core.encryptor.encrypt", "rows")),
        "crypto.ashe.prf_evals_per_query": _ratio(get(query, "crypto.ashe.prf", "evals"), n_q),
        "crypto.kernel_ms": 1e3 * _ratio(get(query, "crypto.kernel"), n_q),
        "idlist.encode_us": per_call_us("idlist.encode"),
        "idlist.decode_us": per_call_us("idlist.decode"),
        "idlist.encode_calls_per_query": _ratio(get(query, "idlist.encode", "calls"), n_q),
        "idlist.bytes_per_query": _ratio(get(query, "idlist.encode", "bytes"), n_q),
        "index.partitions_skipped_ratio": _ratio(
            sum(d.partitions_skipped for d in reads), sum(d.partitions_total for d in reads)),
        "core.server.execute_ms": 1e3 * _ratio(get(query, "core.server.execute"), n_q),
        "engine.map_stage_ms": 1e3 * _ratio(get(query, "engine.map_stage"), n_q),
        "engine.tasks_per_query": _ratio(get(query, "engine.map_stage", "tasks"), n_q),
        "core.decryptor.decrypt_ms": 1e3 * _ratio(get(query, "core.decryptor.decrypt"), n_q),
        "engine.store.append_ms": 1e3 * _ratio(get(append, "engine.store.append"), n_a),
        "engine.store.open_ms": 1e3 * _ratio(get(append, "engine.store.open"), n_a),
        "engine.store.partitions": float(traced.partitions),
        "core.transport.execute_ms": 1e3 * _ratio(get(query, "core.transport.execute"), n_q),
        "net.client.rpc_ms": 1e3 * _ratio(
            get(both, "net.client.rpc"), get(both, "net.client.rpc", "calls")),
        "net.codec.encode_us": per_call_us("net.codec.encode"),
        "net.codec.decode_us": per_call_us("net.codec.decode"),
        "net.codec.bytes_per_request": _ratio(
            get(lay["all"], "net.codec.encode", "bytes"),
            get(lay["all"], "net.client.rpc", "calls")),
        "net.service.queue_wait_ms": 1e3 * _ratio(sum(d.queue_wait_s for d in remote),
                                                  len(remote)),
        "net.wire_ms": 1e3 * _ratio(sum(d.wire_s for d in remote), len(remote)),
        "net.retries": get(lay["all"], "net.client.connect", "calls"),
        "net.rejected": float(sum(d.failed == "rejected" for d in traced.done)),
        "shard.call_ms": 1e3 * _ratio(get(query, "shard.call"), get(query, "shard.call", "calls")),
        "shard.calls_per_query": _ratio(get(query, "shard.call", "calls"), n_q),
        "shard.skipped_ratio": _ratio(
            sum(d.shards_skipped for d in reads), sum(d.shards_total for d in reads)),
        "shard.failovers": get(lay["all"], "shard.mark_dead", "calls"),
        "shard.append_ms": 1e3 * _ratio(get(append, "shard.append"), n_a),
        "loadgen.lag_p90_ms": percentile_ms(traced.lag_s, 90) if traced.lag_s else 0.0,
    }
    # Same seed, same op sequence: compare the ops both phases completed.
    n = min(len(traced.done), len(untraced.done))
    base = sum(d.latency_s for d in untraced.done[:n])
    out["trace.overhead_pct"] = 100.0 * (
        _ratio(sum(d.latency_s for d in traced.done[:n]), base) - 1.0)
    return out
