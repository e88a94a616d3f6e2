"""The session's pluggable execution boundary.

:class:`~repro.core.session.SeabedSession` never talks to a
:class:`~repro.core.server.SeabedServer` (or its partition stores)
directly -- every server-side effect goes through a :class:`Transport`:

- :class:`LocalTransport` (the default) wraps an in-process server plus
  direct filesystem store access, with zero serialization.  Its public
  methods *are* the op set: each one is also the handler the service
  runs for the RPC op of the same name.
- :class:`~repro.net.client.RemoteTransport` speaks the
  :mod:`repro.net.codec` wire protocol to a :mod:`repro.net.service`
  process, which may live on another host.  Its methods are generated
  from the service's op table (:data:`repro.net.service.RPC_OPS`), which
  names these handlers, so adding an op never means mirroring a method.

The op set is deliberately the *untrusted* half of the paper's split
(Section 3): ciphertext batches in, encrypted responses and key-free
client-state payloads out.  Nothing a transport carries ever contains
key material -- the sidecar payloads it ships are the same
``client_state.json`` documents :mod:`repro.core.persistence` already
proves key-free, and :mod:`repro.net.audit` re-checks the invariant on
the serving side.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Sequence

from repro.core import persistence as ps
from repro.engine.store import (
    append_store,
    compact_store,
    open_store,
    rebuild_stats,
    snapshot_generation,
    store_generations,
    store_num_rows,
    store_stats,
    truncate_store,
    write_store,
)
from repro.errors import ExecutionError, StorageError

if TYPE_CHECKING:  # pragma: no cover -- type-only imports
    from repro.core.server import (
        FilterExpr,
        SeabedServer,
        ServerQuery,
        ServerResponse,
    )
    from repro.engine.cluster import SimulatedCluster
    from repro.engine.table import Table


class Transport:
    """The type a session's server side has, in process or remote.

    A base type only: the op set is the public methods of
    :class:`LocalTransport`, and :class:`~repro.net.client.RemoteTransport`
    generates its methods from the service's op table, so the two cannot
    drift apart.  ``timeout`` on the read paths is a per-call budget in
    seconds; the in-process transport executes synchronously and ignores
    it, remote transports enforce it on the wire and raise
    :class:`~repro.errors.TransportError` on expiry.
    """

    #: True when the server shares this process (no wire, no auth).
    local: bool = False

    def close(self) -> None:
        """Release transport resources (sockets); idempotent."""


class LocalTransport(Transport):
    """In-process transport: a :class:`SeabedServer` handle plus direct
    store filesystem access.  Parameter names are the wire arg keys of
    the matching RPC ops, so renaming one breaks older clients."""

    local = True

    def __init__(self, server: "SeabedServer", cluster: "SimulatedCluster"):
        self.server = server
        self.cluster = cluster

    # -- query path --------------------------------------------------------

    def execute(
        self, request: "ServerQuery", *, timeout: float | None = None
    ) -> "ServerResponse":
        """Run one translated aggregation request."""
        return self.server.execute(request)

    def scan(
        self,
        table: str,
        columns: Sequence[str],
        filter: "FilterExpr | None",
        *,
        timeout: float | None = None,
    ) -> "ServerResponse":
        """Filter and project encrypted rows."""
        return self.server.scan(table, list(columns), filter)

    # -- ingestion ---------------------------------------------------------

    def upload(self, batch: "Table") -> None:
        """Append one ciphertext batch to an in-memory table."""
        self.server.append(batch)

    def append_batch(
        self, table: str, batch: "Table", column_meta: dict[str, str]
    ) -> int:
        """Publish one ciphertext batch as a new store generation.

        Does *not* commit: the session follows up with
        :meth:`commit_state` (the sidecar watermark is the commit
        record) and :meth:`reopen`.
        """
        return append_store(batch, self._store_path(table), column_meta=column_meta)

    # -- table metadata ----------------------------------------------------

    def table_meta(self, table: str) -> dict[str, Any] | None:
        """Registration snapshot for ``table`` (``None`` when nothing is
        registered): ``{"store_backed", "store_path", "num_partitions",
        "num_rows"}``."""
        registered = self.server.get(table)
        if registered is None:
            return None
        return {
            "store_backed": registered.store_path is not None,
            "store_path": registered.store_path,
            "num_partitions": registered.num_partitions,
            "num_rows": registered.num_rows,
        }

    def storage_bytes(self, table: str) -> int:
        """Server-side memory footprint of the registered ciphertexts."""
        return self.server.storage_bytes(table)

    # -- persistence -------------------------------------------------------

    def _store_path(self, table: str) -> str:
        store_path = self.server.table(table).store_path
        if store_path is None:
            raise StorageError(f"table {table!r} is not store-backed")
        return store_path

    def save_store(
        self,
        table: str,
        path: str,
        column_meta: dict[str, str],
        overwrite: bool = False,
    ) -> str:
        """Write the registered ciphertexts to a partition store at
        ``path`` (resolved server-side), register the store-backed view,
        and return the resolved absolute path."""
        resolved = self.cluster.config.resolve_store_path(path)
        write_store(
            self.server.table(table),
            resolved,
            column_meta=column_meta,
            overwrite=overwrite,
        )
        # The server-side table becomes the store-backed view: columns
        # memory-map from the files just written, and incremental
        # ingestion (append / compact) can target the store directly.
        self.server.register(open_store(resolved))
        return os.path.abspath(resolved)

    def commit_state(self, table: str, payload: dict[str, Any]) -> None:
        """Write the key-free client-state sidecar for a store-backed
        table -- the commit point of saves and appends."""
        ps.write_sidecar_payload(self._store_path(table), payload)

    def read_store_state(self, path: str) -> dict[str, Any]:
        """The raw sidecar payload of the store at ``path``."""
        resolved = self.cluster.config.resolve_store_path(path)
        return ps.read_sidecar_payload(resolved)

    def read_sharded_state(self, path: str) -> dict[str, Any]:
        """The raw sharded-sidecar payload of the sharded table at
        ``path``."""
        resolved = self.cluster.config.resolve_store_path(path)
        return ps.read_sharded_payload(resolved)

    def store_rows(self, table: str) -> int:
        """Rows in the newest published generation of the table's store
        (committed or not)."""
        return store_num_rows(self._store_path(table))

    def truncate_store(self, table: str, committed: int) -> None:
        """Roll the table's store back to ``committed`` rows."""
        truncate_store(self._store_path(table), int(committed))

    def reopen(self, table: str) -> None:
        """Re-register the latest committed view of a store-backed table."""
        self.server.register(open_store(self._store_path(table)))

    def compact(self, table: str, target_rows: int | None = None) -> dict | None:
        """Compact the table's store; reopen if anything changed."""
        store_path = self._store_path(table)
        stats = compact_store(store_path, target_rows=target_rows)
        if stats is not None:
            self.server.register(open_store(store_path))
        return stats

    def store_stats(self, table: str) -> dict:
        """Zone-map index summary of the table's store."""
        meta = self.table_meta(table)
        if meta is None:
            raise ExecutionError(f"no table {table!r} registered on the server")
        if not meta["store_backed"]:
            # An in-memory table carries no index and reports zero coverage.
            return {
                "partitions": meta["num_partitions"],
                "partitions_with_stats": 0,
                "rows": 0,
                "columns": {},
                "generation": None,
            }
        return store_stats(meta["store_path"])

    def generations(self, table: str) -> list[dict]:
        """The store's generation log (empty for in-memory tables)."""
        meta = self.table_meta(table)
        if meta is None or not meta["store_backed"]:
            return []
        return store_generations(meta["store_path"])

    def rebuild_index(self, table: str) -> dict:
        """Recompute zone maps and refresh the pinned server view."""
        registered = self.server.table(table)
        if registered.store_path is None:
            raise StorageError(
                f"table {table!r} is not store-backed; zone maps are built "
                "when the table is saved to a partition store"
            )
        summary = rebuild_stats(registered.store_path)
        # The refreshed view stays pinned to the snapshot this session
        # attached at, so an uncommitted generation remains invisible.
        self.server.register(
            open_store(registered.store_path, generation=registered.store_generation)
        )
        return summary

    def attach(self, path: str) -> dict[str, Any]:
        """Open the store at ``path`` at its committed snapshot and
        register it; returns ``{"name", "num_rows"}``."""
        resolved = self.cluster.config.resolve_store_path(path)
        table = open_committed_store(resolved)
        self.server.register(table)
        return {"name": table.name, "num_rows": table.num_rows}


def open_committed_store(resolved: str) -> "Table":
    """Open the store at ``resolved`` pinned to the snapshot its sidecar
    committed, verifying the manifest and sidecar agree.

    Shared by :meth:`LocalTransport.attach` and the service's store
    hosting: a writer may have died between publishing an append
    generation and committing the sidecar watermark, in which case the
    committed snapshot is attached instead (the next append rolls the
    uncommitted tail back).
    """
    payload = ps.read_sidecar_payload(resolved)
    name = payload["schema"]["name"]
    committed = int(payload["num_rows"])
    table = open_store(resolved)
    if table.name != name:
        raise StorageError(
            f"store manifest names table {table.name!r} but the sidecar "
            f"describes {name!r}"
        )
    if table.num_rows != committed:
        snap = snapshot_generation(resolved, committed)
        if snap is None:
            raise StorageError(
                f"store holds {table.num_rows} rows but the client state "
                f"recorded {committed}; the store is stale or corrupt"
            )
        table = open_store(resolved, generation=snap)
    return table
