"""Persistent columnar partition store with generational appends.

The paper's deployment model (Sections 5-6) is a long-lived encrypted
dataset living in untrusted cloud storage -- and the whole argument for
ASHE over Paillier (Section 3.1) is that ad-analytics data arrives
*continuously*, so the store must absorb streaming batches without
re-encrypting what is already there.  This module is that durable layer
for the simulated cluster.

Layout of one store directory::

    <store>/
      manifest.json          # format version, generation log, spans
      part-00000/            # generation 1: the initial bulk upload
        revenue__ashe.bin    # raw little-endian numpy buffer
        country__det.bin
        ...
      part-00001/...
      gen-000002/            # one directory per appended generation
        part-00000/...
      gen-000003/...

Every numeric column is written as its raw C-contiguous little-endian
buffer and loaded back as a read-only :class:`numpy.memmap` view, so a
partition larger than RAM streams from the OS page cache.  Paillier
ciphertext columns (``object`` dtype big-ints) reuse the varint framing
of :mod:`repro.engine.storage` and load eagerly.

**Generations.**  The manifest (format version 2) is a log of
*generations*: the initial bulk write is generation 1 and every
:func:`append_store` adds one more, bumping a monotonic generation
counter.  Appends are atomic -- the batch is staged in a temporary
directory, renamed into place, and only then does an ``os.replace`` of
the manifest publish it -- so a writer killed mid-append leaves the
store exactly at its previous generation.  :func:`compact_store` merges
runs of small append generations back into full-size partitions so scan
parallelism stays healthy under a drip of small batches.  Version-1
manifests (the pre-generational format) are still read, normalised as a
single generation, and upgraded in place by the first append.

**Snapshot consistency.**  :class:`PartitionRef` -- the tiny picklable
descriptor stage dispatch ships instead of column payloads -- carries
the generation counter it was created at.  The per-process reader cache
(:func:`resolve_partition` / :func:`reader_at`) is keyed on ``(path,
generation)``, so a worker in any execution backend resolves a ref
against the exact snapshot its query planned over: generations are
append-only, which lets an older snapshot be reconstructed from a newer
manifest, and a query therefore sees the store wholly pre- or wholly
post-append, never torn.  Only compaction retires old snapshots; a ref
from before a compaction fails with a clear :class:`StorageError`
instead of silently reading reshuffled partitions.

**Zone maps.**  Format version 3 attaches per-partition zone-map
statistics to every generation entry (:mod:`repro.index.zonemap`): ORE
min/max ciphertexts, DET token sets or bloom filters, plain min/max,
and row counts -- everything derivable from the ciphertext columns the
server already stores, nothing more.  ``write_store``, ``append_store``
and ``compact_store`` all emit stats for the partitions they write;
older stores open unchanged and are backfilled lazily by their first
mutation (or eagerly by :func:`rebuild_stats`).  The server's pruning
planner consults these through :attr:`Table.zone_maps`.

Everything stored here is public material: ciphertext columns, row IDs,
and dtype bookkeeping.  Client-side state (plaintext schema,
dictionaries, key-check values, and the row-count watermark that acts as
the append *commit record*) is persisted separately by
:mod:`repro.core.persistence`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.engine.storage import (
    atomic_write_json,
    decode_object_column,
    encode_object_column,
    fsync_dir,
)
from repro.engine.table import Partition, Table
from repro.errors import StorageError
from repro.idlist.codec import decode_id_spans, encode_id_spans, encode_span_groups
from repro.index.zonemap import build_partition_stats, stats_summary

FORMAT_NAME = "seabed-store"
FORMAT_VERSION = 3
#: Manifest versions this build can read (v1 = the pre-generational
#: single-shot format, normalised to one generation on load; v2 = the
#: generation log without zone-map statistics, which are backfilled
#: lazily by the store's first mutation or by :func:`rebuild_stats`).
READABLE_VERSIONS = (1, 2, 3)
MANIFEST_NAME = "manifest.json"
FIRST_GENERATION = 1

#: Crash-injection hook for the crash-safety suite: when this variable
#: names one of the labelled points inside append/compact, the process
#: dies there as abruptly as a killed writer would.
CRASH_POINT_ENV = "SEABED_STORE_CRASH_POINT"

#: numpy dtype name -> on-disk little-endian spec (the manifest records
#: the spec, so byte order is explicit regardless of the writing host).
_DTYPE_SPECS: dict[str, str] = {
    "int64": "<i8",
    "uint64": "<u8",
    "float64": "<f8",
    "bool": "|b1",
    "object": "object",
}
_SPEC_DTYPES = {v: k for k, v in _DTYPE_SPECS.items()}


@dataclass(frozen=True)
class PartitionRef:
    """Picklable handle to one stored partition: what stage dispatch ships.

    ``generation`` pins the snapshot the ref belongs to; ``index`` is the
    partition's position in that snapshot's flattened partition list;
    ``store_id`` is the identity of the store that minted the ref, so a
    ref from a store that was wholesale *replaced* at the same path fails
    loudly instead of reading the replacement's rows.  ``None`` values
    (legacy refs) resolve against the store's current state.
    """

    path: str
    index: int
    generation: int | None = None
    store_id: str | None = None


def _partition_dir(index: int) -> str:
    return f"part-{index:05d}"


def _generation_dir(gen_id: int) -> str:
    return f"gen-{gen_id:06d}"


def _column_filename(name: str) -> str:
    if not name or name in (".", "..") or os.sep in name or "\x00" in name:
        raise StorageError(f"column name {name!r} is not storable")
    return f"{name}.bin"


def _maybe_crash(point: str) -> None:
    if os.environ.get(CRASH_POINT_ENV) == point:  # pragma: no cover - dies
        os._exit(70)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _column_spec(name: str, arr: np.ndarray) -> dict:
    dtype_name = "object" if arr.dtype == object else arr.dtype.name
    spec = _DTYPE_SPECS.get(dtype_name)
    if spec is None:
        raise StorageError(
            f"column {name!r} has unsupported dtype {arr.dtype} "
            f"(storable: {sorted(_DTYPE_SPECS)})"
        )
    if arr.ndim not in (1, 2):
        raise StorageError(f"column {name!r} has unsupported ndim {arr.ndim}")
    return {
        "dtype": spec,
        "ndim": int(arr.ndim),
        "width": 1 if arr.ndim == 1 else int(arr.shape[1]),
    }


def _column_specs(table: Table, column_meta: dict[str, str] | None) -> dict[str, dict]:
    if not table.partitions:
        raise StorageError(f"table {table.name!r} has no partitions to store")
    columns: dict[str, dict] = {}
    for name in table.column_names:
        columns[name] = _column_spec(name, table.partitions[0].column(name))
        if column_meta and name in column_meta:
            columns[name]["enc"] = column_meta[name]
    return columns


def _write_partition_files(
    part_dir: str, columns: dict[str, dict], part: Partition
) -> dict[str, int]:
    """Write one partition's column files; returns per-file byte counts.

    Every file is fsynced before it is counted: the manifest (and then
    the sidecar watermark) will claim these bytes durable, so they must
    actually reach the platter before that commit record does.
    """
    os.makedirs(part_dir, exist_ok=True)
    files: dict[str, int] = {}
    for name, spec in columns.items():
        arr = part.column(name)
        actual = _column_spec(name, arr)
        if (actual["dtype"], actual["width"]) != (spec["dtype"], spec["width"]):
            raise StorageError(
                f"column {name!r} changes dtype/shape across partitions"
            )
        target = os.path.join(part_dir, _column_filename(name))
        with open(target, "wb") as fh:
            if spec["dtype"] == "object":
                payload = encode_object_column(arr)
                fh.write(payload)
                files[name] = len(payload)
            else:
                buf = np.ascontiguousarray(arr, dtype=np.dtype(spec["dtype"]))
                buf.tofile(fh)
                files[name] = int(buf.nbytes)
            fh.flush()
            os.fsync(fh.fileno())
    fsync_dir(part_dir)
    return files


def _generation_entry(
    gen_id: int, dir_name: str, table: Table, partitions: list[dict]
) -> dict:
    starts = np.asarray([p.start_id for p in table.partitions], dtype=np.uint64)
    counts = np.asarray([p.nrows for p in table.partitions], dtype=np.uint64)
    return {
        "id": gen_id,
        "dir": dir_name,
        "num_rows": int(counts.sum()),
        "spans_hex": encode_id_spans(starts, counts).hex(),
        "partitions": partitions,
    }


def _write_manifest(path: str, manifest: dict) -> None:
    """Atomically publish ``manifest`` (temp file + fsync + replace +
    directory fsync).  The replace is the visibility point of every store
    mutation -- readers either see the old manifest or the new one, never
    a partial write."""
    atomic_write_json(os.path.join(path, MANIFEST_NAME), manifest)


def write_store(
    table: Table,
    path: str | os.PathLike,
    column_meta: dict[str, str] | None = None,
    overwrite: bool = False,
) -> str:
    """Persist ``table`` under ``path``; returns the absolute store path.

    This is the initial bulk write: the table becomes generation 1 (its
    partitions live at the store root, which is also the layout a
    version-1 manifest describes).  ``column_meta`` attaches one opaque
    string per column to the manifest (the session records each physical
    column's encryption class there).  An existing store is refused
    unless ``overwrite=True``, in which case its partition directories,
    generation directories and manifest are replaced.
    """
    path = os.path.abspath(os.fspath(path))
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        if not overwrite:
            raise StorageError(
                f"store already exists at {path!r}; pass overwrite=True to replace"
            )
        _evict_cached(path)
        for entry in os.listdir(path):
            if (
                entry == MANIFEST_NAME
                or entry.startswith("part-")
                or entry.startswith("gen-")
            ):
                target = os.path.join(path, entry)
                shutil.rmtree(target) if os.path.isdir(target) else os.remove(target)
    os.makedirs(path, exist_ok=True)

    columns = _column_specs(table, column_meta)
    partitions = []
    for index, part in enumerate(table.partitions):
        part_dir = os.path.join(path, _partition_dir(index))
        files = _write_partition_files(part_dir, columns, part)
        partitions.append({
            "dir": _partition_dir(index),
            "files": files,
            "stats": build_partition_stats(part, columns),
        })

    generation = _generation_entry(FIRST_GENERATION, "", table, partitions)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "table": table.name,
        # Random identity: preserved by appends/compaction, fresh on every
        # rewrite, so reader caches can tell "the same store advanced"
        # from "a different store replaced this path".
        "store_id": os.urandom(8).hex(),
        "generation": FIRST_GENERATION,
        "num_rows": generation["num_rows"],
        "columns": columns,
        "generations": [generation],
    }
    _write_manifest(path, manifest)
    return path


# ---------------------------------------------------------------------------
# Manifest reading / normalisation
# ---------------------------------------------------------------------------


def _read_manifest(path: str) -> dict:
    """Parse and validate the manifest, normalising v1 to the v2 shape."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise StorageError(f"no partition store at {path!r}") from None
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt store manifest at {path!r}: {exc}") from None
    if manifest.get("format") != FORMAT_NAME:
        raise StorageError(f"{path!r} is not a {FORMAT_NAME} directory")
    version = manifest.get("version")
    if version not in READABLE_VERSIONS:
        raise StorageError(
            f"store at {path!r} has format version {version!r}; "
            f"this build reads versions {list(READABLE_VERSIONS)}"
        )
    if version == 1:
        # v1: a flat partition list with one top-level span payload --
        # exactly a single generation at the store root.  v1 stores have
        # no identity; the first mutation assigns one.
        manifest = {
            "format": manifest["format"],
            "version": FORMAT_VERSION,
            "table": manifest["table"],
            "store_id": None,
            "generation": FIRST_GENERATION,
            "num_rows": int(manifest["num_rows"]),
            "columns": manifest["columns"],
            "generations": [{
                "id": FIRST_GENERATION,
                "dir": "",
                "num_rows": int(manifest["num_rows"]),
                "spans_hex": manifest["spans_hex"],
                "partitions": manifest["partitions"],
            }],
        }
    else:
        manifest.setdefault("store_id", None)
        # v2 -> v3 is purely additive (per-partition "stats" keys), so
        # normalising the version here means any mutation republishes at
        # the current format -- with the stats backfilled first.
        manifest["version"] = FORMAT_VERSION
    return manifest


def _store_end_id(manifest: dict) -> int:
    """One past the last row ID currently in the store."""
    last = manifest["generations"][-1]
    starts, counts = decode_id_spans(bytes.fromhex(last["spans_hex"]))
    if starts.size == 0:
        raise StorageError("store manifest holds an empty generation")
    return int(starts[-1]) + int(counts[-1])


def store_num_rows(path: str | os.PathLike) -> int:
    """Total rows the store currently holds (across all generations)."""
    return int(_read_manifest(os.path.abspath(os.fspath(path)))["num_rows"])


def store_table_name(path: str | os.PathLike) -> str | None:
    """Name of the table whose store lives at ``path``, or ``None`` when
    no store manifest is there."""
    path = os.path.abspath(os.fspath(path))
    if not os.path.exists(os.path.join(path, MANIFEST_NAME)):
        return None
    return str(_read_manifest(path)["table"])


def _sweep_stale_tmp(path: str) -> None:
    """Remove staging leftovers from writers that died before renaming."""
    for entry in os.listdir(path):
        if entry.endswith(".tmp") and entry.startswith(("gen-", MANIFEST_NAME)):
            target = os.path.join(path, entry)
            shutil.rmtree(target) if os.path.isdir(target) else os.remove(target)


def _sweep_unreferenced(path: str, manifest: dict) -> None:
    """Remove partition/generation directories no generation references.

    A writer that died between publishing a compacted (or truncated)
    manifest and deleting the retired directories leaks them -- the
    manifest no longer names them, so nothing else ever would.  Writers
    call this after every successful publish.  Safe against concurrent
    readers: an unreferenced directory can only belong to a snapshot the
    manifest already retired, which new resolutions refuse anyway.
    """
    referenced = set()
    for gen in manifest["generations"]:
        if gen["dir"]:
            referenced.add(gen["dir"])
        for part in gen["partitions"]:
            referenced.add(part["dir"].split("/", 1)[0])
    for entry in os.listdir(path):
        if entry.endswith(".tmp"):
            continue  # staging: _sweep_stale_tmp's concern
        if entry.startswith(("part-", "gen-")) and entry not in referenced:
            shutil.rmtree(os.path.join(path, entry), ignore_errors=True)


def _remove_generation_dirs(path: str, entries: list[dict]) -> None:
    """Delete the directories of retired generation entries.

    Root-dwelling generations (``dir == ""``, i.e. generation 1) have
    their partition directories removed individually.  In-flight readers
    holding open maps keep working (POSIX keeps unlinked bytes readable);
    *new* resolutions of retired generations fail at the manifest level
    with a clear error instead.
    """
    for gen in entries:
        if gen["dir"]:
            shutil.rmtree(os.path.join(path, gen["dir"]), ignore_errors=True)
        else:
            for part in gen["partitions"]:
                shutil.rmtree(os.path.join(path, part["dir"]), ignore_errors=True)


def _ensure_stats(path: str, manifest: dict) -> bool:
    """Backfill zone-map statistics for partitions that predate format
    version 3 (lazy upgrade: runs on the store's first mutation, and
    eagerly via :func:`rebuild_stats`).

    Mutates ``manifest`` in place; returns True when anything was
    computed.  Existing stats are left untouched -- they are
    deterministic functions of immutable partition files.
    """
    entries = [
        part for gen in manifest["generations"] for part in gen["partitions"]
    ]
    if all("stats" in part for part in entries):
        return False
    snapshot = StoreReader(path)
    if snapshot.num_partitions != len(entries):  # pragma: no cover - defensive
        raise StorageError(
            f"store at {path!r}: manifest lists {len(entries)} partitions "
            f"but the current snapshot resolves {snapshot.num_partitions}"
        )
    for index, part in enumerate(entries):
        if "stats" not in part:
            part["stats"] = build_partition_stats(
                snapshot.partition(index), manifest["columns"]
            )
            snapshot.release(index)
    return True


def _check_append_columns(manifest: dict, columns: dict[str, dict]) -> None:
    stored = manifest["columns"]
    if set(stored) != set(columns):
        raise StorageError(
            f"append batch columns {sorted(columns)} do not match the "
            f"store's {sorted(stored)}"
        )
    for name, spec in columns.items():
        have = stored[name]
        if (spec["dtype"], spec["ndim"], spec["width"]) != (
            have["dtype"], have["ndim"], have["width"]
        ):
            raise StorageError(
                f"append batch column {name!r} has spec {spec}, "
                f"store expects {have}"
            )


# ---------------------------------------------------------------------------
# Appending and truncation
# ---------------------------------------------------------------------------


def append_store(
    table: Table,
    path: str | os.PathLike,
    column_meta: dict[str, str] | None = None,
) -> int:
    """Append ``table`` (one encrypted batch) as a new generation.

    The batch's ``base_id`` must continue the store's row-ID sequence
    exactly (the high-water mark -- what keeps ASHE pads telescoping and
    ID lists range-compressible).  The write is atomic: column files are
    staged under ``gen-NNNNNN.tmp``, renamed into place, and the updated
    manifest is published last via ``os.replace``; a writer killed at any
    point leaves the previous generation fully intact.  Appending to a
    version-1 store upgrades its manifest to version 2.

    Returns the new generation id.
    """
    path = os.path.abspath(os.fspath(path))
    manifest = _read_manifest(path)
    if manifest["table"] != table.name:
        raise StorageError(
            f"store at {path!r} holds table {manifest['table']!r}, "
            f"not {table.name!r}"
        )
    columns = _column_specs(table, column_meta)
    _check_append_columns(manifest, columns)
    end_id = _store_end_id(manifest)
    if table.base_id != end_id:
        raise StorageError(
            f"append batch starts at row ID {table.base_id} but the store "
            f"at {path!r} ends at {end_id}; batches must continue the "
            "row-ID sequence (truncate uncommitted generations first?)"
        )

    if manifest.get("store_id") is None:
        manifest["store_id"] = os.urandom(8).hex()  # v1 upgrade
    # First-mutation upgrade: generations written before format v3 gain
    # their zone-map stats now, in the same manifest publish as the batch.
    _ensure_stats(path, manifest)
    gen_id = int(manifest["generation"]) + 1
    dir_name = _generation_dir(gen_id)
    staging = os.path.join(path, dir_name + ".tmp")
    if os.path.exists(staging):
        shutil.rmtree(staging)
    partitions = []
    for index, part in enumerate(table.partitions):
        part_dir = os.path.join(staging, _partition_dir(index))
        files = _write_partition_files(part_dir, columns, part)
        partitions.append({
            "dir": f"{dir_name}/{_partition_dir(index)}",
            "files": files,
            "stats": build_partition_stats(part, columns),
        })

    _maybe_crash("append:before-rename")
    final = os.path.join(path, dir_name)
    if os.path.exists(final):
        shutil.rmtree(final)  # stray from an earlier crashed writer
    os.rename(staging, final)
    fsync_dir(path)
    _maybe_crash("append:after-rename")

    manifest["generations"].append(_generation_entry(gen_id, dir_name, table, partitions))
    manifest["generation"] = gen_id
    manifest["num_rows"] = int(manifest["num_rows"]) + table.num_rows
    _write_manifest(path, manifest)
    _maybe_crash("append:after-manifest")
    _sweep_stale_tmp(path)
    _sweep_unreferenced(path, manifest)
    return gen_id


def snapshot_generation(path: str | os.PathLike, num_rows: int) -> int | None:
    """The generation counter whose snapshot holds exactly ``num_rows``.

    Walks generation-list prefixes (generations tile the row-ID space in
    list order) and returns the counter value whose ``id <=`` filter
    reproduces that prefix, or ``None`` when no prefix matches -- e.g.
    the rows fall inside a generation, or compaction merged the boundary
    away.
    """
    manifest = _read_manifest(os.path.abspath(os.fspath(path)))
    gens = manifest["generations"]
    total = 0
    for i, gen in enumerate(gens):
        total += int(gen["num_rows"])
        if total == num_rows:
            counter = max(int(e["id"]) for e in gens[: i + 1])
            if all(int(e["id"]) > counter for e in gens[i + 1 :]):
                return counter
            return None
        if total > num_rows:
            return None
    return None


def truncate_store(path: str | os.PathLike, num_rows: int) -> int:
    """Drop whole generations until the store holds ``num_rows`` rows.

    This is the *rollback* half of the append commit protocol: an append
    publishes its generation in the manifest first and commits by
    updating the client-state sidecar's row watermark, so a writer that
    died in between leaves an uncommitted generation the next writer
    rolls back here.  ``num_rows`` must land exactly on a generation
    boundary.  The generation counter is *not* rewound -- retired ids
    are never reused, so stale refs can always be detected.

    Returns the number of generations dropped (0 when already there).
    """
    path = os.path.abspath(os.fspath(path))
    manifest = _read_manifest(path)
    if manifest.get("store_id") is None:
        manifest["store_id"] = os.urandom(8).hex()  # v1 upgrade
    if int(manifest["num_rows"]) == num_rows:
        return 0
    _ensure_stats(path, manifest)  # pre-v3 upgrade rides this mutation
    keep: list[dict] = []
    total = 0
    for gen in manifest["generations"]:
        if total == num_rows:
            break
        total += int(gen["num_rows"])
        keep.append(gen)
    if total != num_rows or not keep:
        raise StorageError(
            f"cannot truncate store at {path!r} to {num_rows} rows: no "
            "generation boundary there"
        )
    dropped = manifest["generations"][len(keep):]
    manifest["generations"] = keep
    manifest["num_rows"] = num_rows
    _write_manifest(path, manifest)
    _remove_generation_dirs(path, dropped)
    _sweep_stale_tmp(path)
    _sweep_unreferenced(path, manifest)
    return len(dropped)


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------


def _gen_mean_partition_rows(gen: dict) -> float:
    return int(gen["num_rows"]) / max(len(gen["partitions"]), 1)


def _source_span_groups(
    source_spans: list[tuple[int, int]], out_spans: list[tuple[int, int]]
) -> list[list[tuple[int, int]]]:
    """Per output partition span, the source spans it absorbed."""
    groups: list[list[tuple[int, int]]] = []
    for lo, count in out_spans:
        hi = lo + count
        group = []
        for start, scount in source_spans:
            s, e = max(start, lo), min(start + scount, hi)
            if s < e:
                group.append((s, e - s))
        groups.append(group)
    return groups


def compact_store(
    path: str | os.PathLike, target_rows: int | None = None
) -> dict | None:
    """Merge runs of small append generations into full-size partitions.

    A store fed by streaming appends accumulates generations whose
    partitions are far smaller than the initial upload's, which inflates
    per-task scheduling cost and starves scan parallelism.  This rewrites
    every maximal run of *consecutive* small generations (mean partition
    rows below ``target_rows``, which defaults to the store's own
    largest mean -- its notion of full-size) into one new generation of
    ``target_rows``-sized partitions.  Consecutiveness matters: row IDs
    are contiguous in generation order, so only neighbouring generations
    can merge.

    The rewrite follows the same atomic protocol as appends (stage,
    rename, manifest replace); the merged entry records which generation
    ids it absorbed (``compacted_from``) and, per output partition, the
    source row-ID spans it covers (``source_spans_hex``, the span-group
    codec).  Retired generation directories are deleted after the
    manifest is published -- snapshots older than the compaction are no
    longer reconstructable, and refs pinned to them fail loudly.

    Returns a stats dict, or ``None`` when nothing needed compacting.
    """
    path = os.path.abspath(os.fspath(path))
    manifest = _read_manifest(path)
    if manifest.get("store_id") is None:
        manifest["store_id"] = os.urandom(8).hex()  # v1 upgrade
    gens = manifest["generations"]
    if target_rows is None:
        target_rows = max(1, math.ceil(max(_gen_mean_partition_rows(g) for g in gens)))

    # Maximal runs of consecutive small generations worth rewriting.
    runs: list[list[int]] = []
    current: list[int] = []
    for i, gen in enumerate(gens):
        if _gen_mean_partition_rows(gen) < target_rows:
            current.append(i)
        else:
            if current:
                runs.append(current)
            current = []
    if current:
        runs.append(current)

    def worth_it(run: list[int]) -> bool:
        rows = sum(int(gens[i]["num_rows"]) for i in run)
        parts = sum(len(gens[i]["partitions"]) for i in run)
        return len(run) > 1 or math.ceil(rows / target_rows) < parts

    runs = [run for run in runs if worth_it(run)]
    # Pre-v3 generations gain their zone-map stats as part of this
    # mutation (published below with the rewrite, or on their own when
    # there is nothing to merge but the upgrade is still due).
    backfilled = _ensure_stats(path, manifest)
    if not runs:
        if backfilled:
            _write_manifest(path, manifest)
        # Nothing to merge -- but a previous writer may have died between
        # its manifest publish and its directory cleanup, so sweep.
        _sweep_stale_tmp(path)
        _sweep_unreferenced(path, manifest)
        return None

    # Source data resolves through the current snapshot's mmaps; the
    # rewrite streams one *output* partition at a time (and releases
    # fully consumed sources as it goes), so compaction memory is
    # bounded by target_rows x columns even when a run spans a table
    # larger than RAM.
    snapshot = StoreReader(path)
    parts_before = snapshot.num_partitions
    names = snapshot.column_names
    counter = int(manifest["generation"])
    new_generations: list[dict] = list(gens)
    staged: list[tuple[str, str]] = []  # (staging dir, final dir)
    replaced: list[dict] = []
    offsets = np.concatenate([[0], np.cumsum([len(g["partitions"]) for g in gens])])

    for run in runs:
        run_gens = [gens[i] for i in run]
        indices = list(range(int(offsets[run[0]]), int(offsets[run[-1] + 1])))
        source_spans: list[tuple[int, int]] = []
        for gen in run_gens:
            starts, counts = decode_id_spans(bytes.fromhex(gen["spans_hex"]))
            source_spans.extend(zip(starts.tolist(), counts.tolist()))
        rows = sum(count for _, count in source_spans)
        base = source_spans[0][0]
        nparts = max(1, math.ceil(rows / target_rows))
        bounds = np.linspace(0, rows, nparts + 1).astype(np.int64)

        counter += 1
        dir_name = _generation_dir(counter)
        staging = os.path.join(path, dir_name + ".tmp")
        if os.path.exists(staging):
            shutil.rmtree(staging)
        partitions = []
        out_spans: list[tuple[int, int]] = []
        for out in range(nparts):
            lo, hi = int(bounds[out]), int(bounds[out + 1])
            pieces: dict[str, list[np.ndarray]] = {name: [] for name in names}
            offset = 0
            for index, (_, scount) in zip(indices, source_spans):
                s, e = max(lo, offset), min(hi, offset + scount)
                if s < e:
                    part = snapshot.partition(index)
                    for name in names:
                        pieces[name].append(
                            part.column(name)[s - offset : e - offset]
                        )
                    if offset + scount <= hi:
                        # Later output partitions start at hi, so this
                        # source is fully consumed: drop its maps now.
                        snapshot.release(index)
                offset += scount
            out_part = Partition(
                columns={n: np.concatenate(p) for n, p in pieces.items()},
                start_id=base + lo,
            )
            files = _write_partition_files(
                os.path.join(staging, _partition_dir(out)),
                manifest["columns"],
                out_part,
            )
            partitions.append({
                "dir": f"{dir_name}/{_partition_dir(out)}",
                "files": files,
                "stats": build_partition_stats(out_part, manifest["columns"]),
            })
            out_spans.append((base + lo, hi - lo))
            del out_part, pieces

        entry = {
            "id": counter,
            "dir": dir_name,
            "num_rows": rows,
            "spans_hex": encode_id_spans(
                np.asarray([s for s, _ in out_spans], dtype=np.uint64),
                np.asarray([c for _, c in out_spans], dtype=np.uint64),
            ).hex(),
            "partitions": partitions,
            "compacted_from": [int(g["id"]) for g in run_gens],
            "source_spans_hex": encode_span_groups(
                _source_span_groups(source_spans, out_spans)
            ).hex(),
        }
        # Replace the run (in ID-space order) with the merged entry.
        pos = new_generations.index(run_gens[0])
        for g in run_gens:
            new_generations.remove(g)
        new_generations.insert(pos, entry)
        replaced.extend(run_gens)
        staged.append((staging, os.path.join(path, dir_name)))

    _maybe_crash("compact:before-rename")
    for staging, final in staged:
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(staging, final)
    fsync_dir(path)
    _maybe_crash("compact:after-rename")
    manifest["generations"] = new_generations
    manifest["generation"] = counter
    _write_manifest(path, manifest)
    _maybe_crash("compact:after-manifest")
    _remove_generation_dirs(path, replaced)
    _sweep_stale_tmp(path)
    _sweep_unreferenced(path, manifest)
    # Compaction retires every older snapshot: evict this process's
    # cached readers for them so a stale ref fails with the manifest's
    # clear "compacted away" error instead of a missing-file one.
    # (Other processes have no cache entry and hit that check directly.)
    _evict_cached_below(path, counter)
    return {
        "merged_runs": len(runs),
        "generations_before": len(gens),
        "generations_after": len(new_generations),
        "partitions_before": parts_before,
        "partitions_after": sum(len(g["partitions"]) for g in new_generations),
        "target_rows": int(target_rows),
        "generation": counter,
    }


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class StoreReader:
    """One opened store snapshot: parsed manifest plus lazily mapped
    partitions.

    ``generation`` selects the snapshot: only generations with ``id <=
    generation`` are visible, which reconstructs any pre-append state
    from the current (append-only) manifest.  ``None`` reads the latest.
    """

    def __init__(self, path: str | os.PathLike, generation: int | None = None):
        self.path = os.path.abspath(os.fspath(path))
        # Stat before parse: if the manifest is replaced in between, the
        # recorded signature is stale and the cache revalidates -- the
        # safe direction.
        self.signature = _manifest_signature(os.path.join(self.path, MANIFEST_NAME))
        manifest = _read_manifest(self.path)
        self.manifest = manifest
        self.table_name: str = manifest["table"]
        self.store_id: str | None = manifest.get("store_id")
        self.current_generation: int = int(manifest["generation"])
        self.generation: int = (
            self.current_generation if generation is None else int(generation)
        )
        if self.generation > self.current_generation:
            raise StorageError(
                f"store at {self.path!r} has no generation "
                f"{self.generation} yet (manifest is at "
                f"{self.current_generation}); the ref is stale or the "
                "store was replaced"
            )
        included = [
            g for g in manifest["generations"] if int(g["id"]) <= self.generation
        ]
        # A generation *above* the requested snapshot that absorbed
        # generations at or below it means the snapshot's own files are
        # gone: compaction retires old snapshots, and silently serving
        # the remaining prefix would be a different (smaller) snapshot.
        for gen in manifest["generations"]:
            if int(gen["id"]) <= self.generation:
                continue
            if any(int(m) <= self.generation for m in gen.get("compacted_from", [])):
                raise StorageError(
                    f"store at {self.path!r}: the snapshot at generation "
                    f"{self.generation} was compacted away; re-open the table"
                )
        if not included:
            raise StorageError(
                f"store at {self.path!r} has no snapshot at generation "
                f"{self.generation} (compacted away?)"
            )
        self.generations = included
        self._entries: list[dict] = []
        starts_all: list[int] = []
        counts_all: list[int] = []
        next_id: int | None = None
        for gen in included:
            starts, counts = decode_id_spans(bytes.fromhex(gen["spans_hex"]))
            if len(starts) != len(gen["partitions"]):
                raise StorageError(
                    f"store at {self.path!r}: generation {gen['id']} span "
                    "count does not match its partitions"
                )
            for part, start, count in zip(gen["partitions"], starts, counts):
                if next_id is not None and int(start) != next_id:
                    raise StorageError(
                        f"store at {self.path!r}: snapshot at generation "
                        f"{self.generation} is not contiguous (expected row "
                        f"ID {next_id}, got {int(start)}); it was compacted "
                        "away or the manifest is corrupt -- re-open the table"
                    )
                next_id = int(start) + int(count)
                self._entries.append(part)
                starts_all.append(int(start))
                counts_all.append(int(count))
        self._starts = np.asarray(starts_all, dtype=np.uint64)
        self._counts = np.asarray(counts_all, dtype=np.uint64)
        self._partitions: dict[int, Partition] = {}
        self._lock = threading.Lock()
        #: Per-partition zone-map statistics (None for pre-v3 entries).
        self.zone_maps: list[dict | None] = [
            entry.get("stats") for entry in self._entries
        ]

    @property
    def num_partitions(self) -> int:
        return len(self._entries)

    @property
    def num_rows(self) -> int:
        return int(self._counts.sum())

    @property
    def column_names(self) -> list[str]:
        return sorted(self.manifest["columns"])

    def partition(self, index: int) -> Partition:
        """The partition at ``index``, memory-mapped and cached."""
        with self._lock:
            part = self._partitions.get(index)
            if part is None:
                part = self._load_partition(index)
                self._partitions[index] = part
            return part

    def release(self, index: int) -> None:
        """Drop the cached partition at ``index`` (its maps close once
        no slice references them); compaction releases fully consumed
        sources so a large run never pins the whole table."""
        with self._lock:
            self._partitions.pop(index, None)

    def table(self) -> Table:
        """Materialise the snapshot (column data stays memory-mapped)."""
        parts = [self.partition(i) for i in range(self.num_partitions)]
        return Table(
            self.table_name,
            parts,
            store_path=self.path,
            store_generation=self.generation,
            zone_maps=list(self.zone_maps),
        )

    # -- internals -----------------------------------------------------------

    def _load_partition(self, index: int) -> Partition:
        if not 0 <= index < self.num_partitions:
            raise StorageError(
                f"store at {self.path!r} has no partition {index} "
                f"(0..{self.num_partitions - 1})"
            )
        entry = self._entries[index]
        rows = int(self._counts[index])
        part_dir = os.path.join(self.path, entry["dir"])
        columns: dict[str, np.ndarray] = {}
        for name, spec in self.manifest["columns"].items():
            target = os.path.join(part_dir, _column_filename(name))
            expected = int(entry["files"][name])
            try:
                actual = os.path.getsize(target)
            except OSError:
                raise StorageError(
                    f"store at {self.path!r}: missing column file "
                    f"{entry['dir']}/{name}.bin"
                ) from None
            if actual != expected:
                raise StorageError(
                    f"store at {self.path!r}: column file {entry['dir']}/{name}.bin "
                    f"is {actual} bytes, manifest says {expected} (truncated or "
                    "overwritten?)"
                )
            columns[name] = self._load_column(target, spec, rows, expected)
        return Partition(
            columns=columns,
            start_id=int(self._starts[index]),
            ref=PartitionRef(self.path, index, self.generation, self.store_id),
        )

    def _load_column(
        self, target: str, spec: dict, rows: int, nbytes: int
    ) -> np.ndarray:
        if spec["dtype"] == "object":
            with open(target, "rb") as fh:
                return decode_object_column(fh.read(), rows)
        dtype = np.dtype(spec["dtype"])
        width = int(spec["width"])
        shape = (rows,) if spec["ndim"] == 1 else (rows, width)
        if rows * width * dtype.itemsize != nbytes:
            raise StorageError(
                f"store at {self.path!r}: {os.path.basename(target)} holds "
                f"{nbytes} bytes but the manifest shape needs "
                f"{rows * width * dtype.itemsize}"
            )
        if rows == 0:
            return np.empty(shape, dtype=dtype)
        # mode="r" maps the ciphertexts read-only: partitions stream from
        # the page cache and no task can mutate stored data in place.
        return np.memmap(target, dtype=dtype, mode="r", shape=shape)


# ---------------------------------------------------------------------------
# The per-process reader cache (worker-side resolution)
# ---------------------------------------------------------------------------

_READERS: dict[tuple[str, str | None, int], StoreReader] = {}
_READERS_LOCK = threading.Lock()
#: path -> (manifest stat signature, generation counter, store id); lets
#: the hot path discover the current state with a stat instead of a parse.
_STATE_CACHE: dict[str, tuple[tuple, int, str | None]] = {}
#: Superseded snapshots to keep mapped per store: enough for in-flight
#: queries over recent generations without pinning every old map forever.
#: Per-process; shard workers apply ``ClusterConfig.reader_keep_generations``
#: through :func:`set_reader_keep_generations` so N co-resident workers
#: don't multiply the mapped-snapshot footprint.
_KEEP_GENERATIONS = 4


def reader_keep_generations() -> int:
    """This process's reader-cache retention bound (snapshots per store)."""
    return _KEEP_GENERATIONS


def set_reader_keep_generations(keep: int) -> None:
    """Set how many superseded snapshots stay cached per store (>= 1)."""
    global _KEEP_GENERATIONS
    keep = int(keep)
    if keep < 1:
        raise StorageError(
            f"reader_keep_generations must be at least 1, got {keep}"
        )
    _KEEP_GENERATIONS = keep


def _manifest_signature(manifest_path: str) -> tuple | None:
    """Identity of the manifest file on disk (rewrites replace the inode)."""
    try:
        st = os.stat(manifest_path)
    except OSError:
        return None
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def _current_state(path: str) -> tuple[int, str | None, tuple | None]:
    """(generation counter, store id, manifest signature), stat-guarded."""
    signature = _manifest_signature(os.path.join(path, MANIFEST_NAME))
    with _READERS_LOCK:
        cached = _STATE_CACHE.get(path)
        if cached is not None and cached[0] == signature:
            return cached[1], cached[2], signature
    manifest = _read_manifest(path)
    state = (int(manifest["generation"]), manifest.get("store_id"))
    with _READERS_LOCK:
        _STATE_CACHE[path] = (signature, state[0], state[1])
    return state[0], state[1], signature


def current_generation(path: str | os.PathLike) -> int:
    """The store's generation counter right now (stat-guarded cache)."""
    return _current_state(os.path.abspath(os.fspath(path)))[0]


def reader(path: str | os.PathLike) -> StoreReader:
    """Open (or reuse) the cached reader for the store's *current* state.

    Pool worker processes call this through :func:`resolve_partition`, so
    each process parses a store's manifest once per generation and keeps
    its maps open across stages.  A cheap manifest stat guards the cache:
    a store advanced by *any* process (every mutation replaces the
    manifest atomically, so its inode changes) is re-opened at its new
    generation -- and a store wholesale *replaced* at the same path gets
    a fresh store id, so its old readers can never be served.
    """
    return reader_at(path, current_generation(path))


def reader_at(path: str | os.PathLike, generation: int) -> StoreReader:
    """Open (or reuse) the cached reader for one pinned snapshot.

    This is what makes concurrent reads append-safe on every backend: a
    :class:`PartitionRef` created at generation G resolves through the
    G-keyed reader even after later appends, because generations are
    append-only and snapshot G is reconstructable from any newer
    manifest.  A cache hit is honoured only while the manifest is
    byte-identical to the one the reader was opened against; any store
    mutation since (an append, or a compaction that may have *retired*
    this snapshot) re-opens the snapshot, which re-runs the
    compacted-away validation in :class:`StoreReader` -- so a worker
    process that cached a snapshot before a compaction elsewhere gets
    the documented :class:`StorageError` instead of reading deleted
    files.  Readers more than :data:`_KEEP_GENERATIONS` behind a newly
    opened snapshot are evicted from this process's cache.
    """
    key = os.path.abspath(os.fspath(path))
    _, store_id, signature = _current_state(key)
    with _READERS_LOCK:
        found = _READERS.get((key, store_id, generation))
        if found is not None and found.signature == signature:
            return found
    built = StoreReader(key, generation=generation)
    with _READERS_LOCK:
        _READERS[(key, store_id, generation)] = built
        for cached_key in [
            k for k in _READERS
            if k[0] == key and k[2] <= generation - _KEEP_GENERATIONS
        ]:
            del _READERS[cached_key]
        return built


def _evict_cached(path: str) -> None:
    key = os.path.abspath(path)
    with _READERS_LOCK:
        _STATE_CACHE.pop(key, None)
        for cached_key in [k for k in _READERS if k[0] == key]:
            del _READERS[cached_key]


def _evict_cached_below(path: str, generation: int) -> None:
    key = os.path.abspath(path)
    with _READERS_LOCK:
        for cached_key in [
            k for k in _READERS if k[0] == key and k[2] < generation
        ]:
            del _READERS[cached_key]


def open_store(path: str | os.PathLike, generation: int | None = None) -> Table:
    """Attach to a stored table: manifest parse + memory maps, no copies.

    ``generation`` pins a snapshot (see :class:`StoreReader`); the
    default is the store's current state.
    """
    if generation is None:
        return reader(path).table()
    return reader_at(path, generation).table()


def resolve_partition(part: Partition | PartitionRef) -> Partition:
    """Turn a dispatched :class:`PartitionRef` back into a partition.

    In-memory partitions pass through untouched; refs resolve through the
    per-process reader cache *at the ref's pinned generation*, so a
    worker's first touch of a snapshot maps its files and every later
    stage is a dictionary lookup -- and a query planned before an append
    keeps reading its own snapshot.
    """
    if isinstance(part, PartitionRef):
        if part.generation is None:
            return reader(part.path).partition(part.index)
        resolved = reader_at(part.path, part.generation)
        if part.store_id is not None and resolved.store_id != part.store_id:
            raise StorageError(
                f"the store at {part.path!r} was replaced since this query "
                "planned (store identity changed); re-open the table"
            )
        return resolved.partition(part.index)
    return part


def dispatch_payload(part: Partition) -> Partition | PartitionRef:
    """What a stage should ship for ``part``: its ref when store-backed."""
    return part.ref if part.ref is not None else part


def disk_bytes(path: str | os.PathLike) -> int:
    """Total bytes the store occupies on disk (column files + manifest)."""
    path = os.fspath(path)
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for filename in filenames:
            total += os.path.getsize(os.path.join(dirpath, filename))
    return total


def rebuild_stats(path: str | os.PathLike) -> dict[str, Any]:
    """Recompute zone-map statistics for *every* partition and publish.

    The eager counterpart of the lazy first-mutation backfill: attaches
    v3 stats to v1/v2 stores without waiting for an append, and refreshes
    stats whose build parameters changed.  Publishing follows the same
    atomic manifest replace as every other mutation (readers see the old
    stats or the new ones, never a mix).  Returns the new index summary
    (:func:`store_stats`).
    """
    path = os.path.abspath(os.fspath(path))
    manifest = _read_manifest(path)
    if manifest.get("store_id") is None:
        manifest["store_id"] = os.urandom(8).hex()  # v1 upgrade
    for gen in manifest["generations"]:
        for part in gen["partitions"]:
            part.pop("stats", None)
    _ensure_stats(path, manifest)
    _write_manifest(path, manifest)
    return store_stats(path)


def store_stats(path: str | os.PathLike) -> dict[str, Any]:
    """Zone-map index summary: coverage and per-column artifact counts."""
    manifest = _read_manifest(os.path.abspath(os.fspath(path)))
    zone_maps = [
        part.get("stats")
        for gen in manifest["generations"]
        for part in gen["partitions"]
    ]
    summary = stats_summary(zone_maps)
    summary["generation"] = int(manifest["generation"])
    return summary


def store_generations(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Introspection: per-generation summary (id, rows, partitions, dirs).

    Used by tests, benchmarks and the quickstart's ingestion demo to show
    the generation log without touching manifest internals.
    """
    manifest = _read_manifest(os.path.abspath(os.fspath(path)))
    return [
        {
            "id": int(g["id"]),
            "dir": g["dir"],
            "num_rows": int(g["num_rows"]),
            "num_partitions": len(g["partitions"]),
            "compacted_from": list(g.get("compacted_from", [])),
        }
        for g in manifest["generations"]
    ]
