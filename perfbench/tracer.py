"""Span recording around the public calls of each layer, installed from
the benchmark's side only (nothing is added inside ``src/``).

:func:`install` swaps each target function or method for a wrapper that
records one span -- name, start, end, parent, op id -- into per-thread
lists held in memory.  Module-level functions are replaced in every
loaded ``repro`` module that holds a reference to them, so
``from x import f`` call sites are covered too.  :func:`layer_table`
folds the spans into self time (span minus its child spans) and counts;
``bench.per_layer`` normalizes the table per op.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class Recorder:
    """In-memory span store; one per traced process.

    The current span and op travel in context variables, so threads that
    run a copied context (the shard coordinator's scatter threads) parent
    their spans correctly.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._op: contextvars.ContextVar = contextvars.ContextVar("op", default=(-1, ""))

    def _spans(self) -> list:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            with self._lock:
                self._threads.append(spans)
        return spans

    def set_op(self, index: int, cls: str) -> None:
        """Attribute the spans of the calling context to op ``index``."""
        self._op.set((index, cls))

    def clear_op(self) -> None:
        self._op.set((-1, ""))

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``hook(args, kwargs, result)`` may
        return ``{counter: value}`` to add to the span's counts."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # [name, start, end, parent, op index, op class, counts]
            rec = [name, time.perf_counter(), 0.0, self._current.get(), *self._op.get(), None]
            token = self._current.set(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._current.reset(token)
                self._spans().append(rec)
            if hook is not None:
                rec[6] = hook(args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn: Callable, hook: Callable) -> Callable:
        """``fn`` wrapped to record a zero-length span carrying only
        ``hook``'s counts."""

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            now = time.perf_counter()
            self._spans().append([name, now, now, self._current.get(), *self._op.get(),
                                  hook(args, kwargs, result)])
            return result

        return counted

    def all_spans(self) -> list[list]:
        with self._lock:
            return [rec for spans in self._threads for rec in spans]


# -- targets ---------------------------------------------------------------------


def _nbytes(_a, _k, result) -> dict:
    if isinstance(result, (bytes, bytearray, memoryview)):
        return {"bytes": len(result)}
    return {"bytes": sum(len(c) for c in result)}


def _rows(_a, _k, result) -> dict:
    return {"rows": int(result.num_rows)}


def _tasks(args, kwargs, _r) -> dict:
    calls = kwargs.get("calls", args[3] if len(args) > 3 else ())
    return {"tasks": len(calls)}


def _partitions(_a, _k, result) -> dict:
    return {"partitions": len(result.partitions)}


def _evals(args, _k, _r) -> dict:
    return {"evals": int(args[1])}


def _one(_a, _k, _r) -> dict:
    return {"n": 1}


# (module, attribute path, span name, count hook)
SPAN_TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("repro.query.parser", "parse_query", "query.parse", None),
    ("repro.core.translator", "QueryTranslator.translate", "core.translator.translate", None),
    ("repro.core.encryptor", "EncryptionModule.encrypt_batch", "core.encryptor.encrypt", _rows),
    ("repro.idlist.codec", "IdListCodec.encode", "idlist.encode", _nbytes),
    ("repro.idlist.codec", "encode_multiset", "idlist.encode", _nbytes),
    ("repro.idlist.codec", "encode_groups_vb_diff", "idlist.encode", _nbytes),
    ("repro.idlist.codec", "decode", "idlist.decode", None),
    ("repro.idlist.codec", "decode_multiset", "idlist.decode", None),
    ("repro.idlist.codec", "decode_chunks_batch", "idlist.decode", None),
    ("repro.core.server", "SeabedServer.execute", "core.server.execute", None),
    ("repro.engine.cluster", "SimulatedCluster.map_stage", "engine.map_stage", _tasks),
    ("repro.core.decryptor", "DecryptionModule.decrypt", "core.decryptor.decrypt", None),
    ("repro.engine.store", "append_store", "engine.store.append", None),
    ("repro.engine.store", "open_store", "engine.store.open", _partitions),
    ("repro.core.transport", "LocalTransport.execute", "core.transport.execute", None),
    ("repro.net.client", "RemoteTransport._request", "net.client.rpc", None),
    ("repro.net.codec", "encode_frame", "net.codec.encode", _nbytes),
    ("repro.net.codec", "decode_payload", "net.codec.decode", None),
    ("repro.shard.coordinator", "ShardedStore.call_shard", "shard.call", None),
    ("repro.shard.coordinator", "ShardedStore.append_shard", "shard.append", None),
]
_KERNEL_METHODS = ("encrypt_column", "decrypt_column", "compare_column", "pad_range")
_KERNEL_CLASSES = [
    ("repro.crypto.ashe", "AsheScheme",
     _KERNEL_METHODS + ("decrypt_rows", "pad_for", "pad_array", "pad_for_multiset")),
    ("repro.crypto.det", "DetScheme", _KERNEL_METHODS),
    ("repro.crypto.ore", "OreScheme", _KERNEL_METHODS),
]
# Counter-only wrappers: a zero-length span carrying the hook's counts.
COUNTER_TARGETS: list[tuple[str, str, str, Callable]] = [
    ("repro.crypto.ashe", "AsheScheme._bump", "crypto.ashe.prf", _evals),
    ("repro.net.client", "RemoteTransport._connect", "net.client.connect", _one),
    ("repro.shard.coordinator", "ShardedStore.mark_dead", "shard.mark_dead", _one),
]


def _targets() -> list[tuple[str, str, str, Callable | None, bool]]:
    out = [(m, a, n, h, False) for m, a, n, h in SPAN_TARGETS]
    for module, cls, methods in _KERNEL_CLASSES:
        owner = getattr(importlib.import_module(module), cls)
        for meth in methods:
            if meth in vars(owner):
                out.append((module, f"{cls}.{meth}", "crypto.kernel", None, False))
    out += [(m, a, n, h, True) for m, a, n, h in COUNTER_TARGETS]
    return out


class Installation:
    """The swapped attributes, so :meth:`remove` can put them back."""

    def __init__(self) -> None:
        self.undo: list[tuple[Any, str, Any]] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap every target; imports the target modules first."""
    inst = Installation()
    for module_name, attr, span, hook, counter_only in _targets():
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = vars(owner)[meth]
            wrap = recorder.counter if counter_only else recorder.wrap
            wrapped = wrap(span, original, hook)
            inst.undo.append((owner, meth, original))
            setattr(owner, meth, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(span, original, hook)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    inst.undo.append((mod, key, original))
                    setattr(mod, key, wrapped)
    return inst


# -- folding spans into a table ----------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_table(spans: list[list], op_classes: tuple[str, ...] | None = None) -> dict:
    """``{span name: {"self_s", "calls", counters...}}`` over the spans
    whose op class is in ``op_classes`` (``None``: every span).  Self time
    is the span minus the part of it that its child spans cover; children
    may run on other threads (a scatter), so their union is subtracted."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            children[id(rec[3])].append((rec[1], rec[2]))
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for rec in spans:
        name, start, end, _parent, _idx, cls, counts = rec
        if op_classes is not None and cls not in op_classes:
            continue
        row = table[name]
        row["self_s"] += (end - start) - _covered(children.get(id(rec), []), start, end)
        row["calls"] += 1
        for key, value in (counts or {}).items():
            row[key] += value
    return {name: dict(row) for name, row in table.items()}


def merge_tables(*tables: dict) -> dict:
    merged: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for table in tables:
        for name, row in table.items():
            for key, value in row.items():
                merged[name][key] += value
    return {name: dict(row) for name, row in merged.items()}


def span_dump(spans: list[list]) -> list[list]:
    """Spans as JSON-ready rows ``[id, name, start, end, parent id, op]``."""
    ids = {id(rec): i for i, rec in enumerate(spans)}
    return [
        [i, rec[0], rec[1], rec[2], ids.get(id(rec[3])) if rec[3] else None, rec[4]]
        for i, rec in enumerate(spans)
    ]
