"""Asyncio Seabed service: the untrusted server as a real process.

Hosts one or more :class:`~repro.core.server.SeabedServer` stores behind
a TCP listener speaking the :mod:`repro.net.codec` frame protocol, so
many concurrent :class:`~repro.core.session.SeabedSession` clients (via
:class:`~repro.net.client.RemoteTransport`) can query, scan, append to
and compact the same ciphertext stores from other processes or hosts.

Three properties define the boundary:

- **Keyless.**  The service's state is ciphertexts, DET/ORE tokens and
  key-free sidecar payloads; it never constructs a
  :class:`~repro.crypto.keys.KeyChain` or any scheme object.  Clients
  can verify this live via the ``audit`` RPC, which runs
  :func:`repro.net.audit.audit_keyless` over the service's own object
  graph inside the serving process.
- **Token-gated.**  Bearer tokens are minted from the existing
  :class:`~repro.core.access.AccessController` machinery: a token maps
  to a user whose grant limits the tables it may touch, and revocation
  is instant without re-encryption (paper Section 4.3).
- **Admission-controlled.**  Each tenant gets a bounded in-flight
  budget plus a bounded wait queue; overload is answered with a typed
  ``Backpressure`` (RETRY_LATER) reply, never a hang, and every request
  carries a server-side timeout.

Run standalone with ``python -m repro.net.service --store PATH ...`` or
in-process via :func:`serve`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import secrets
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

from repro.core import persistence as ps
from repro.core import server as srv
from repro.core.access import AccessController, AccessError
from repro.core.transport import LocalTransport, open_committed_store
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.store import store_table_name
from repro.errors import (
    AuthError,
    Backpressure,
    CodecError,
    SeabedError,
    StorageError,
    TransportError,
)
from repro.net import codec
from repro.net.audit import audit_keyless
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; the bound port is on the handle
    backend: str = "serial"  # execution backend for hosted queries
    workers: int = 0
    storage_dir: str | None = None
    pruning: bool = True
    auth_required: bool = True
    #: Concurrent requests one tenant may have executing.
    max_in_flight: int = 4
    #: Requests one tenant may have *waiting* beyond the in-flight budget
    #: before the service answers Backpressure (RETRY_LATER).
    queue_depth: int = 16
    #: Server-side cap on any single request, seconds (None = unbounded).
    #: A client's per-call ``timeout=`` can only tighten it.
    request_timeout: float | None = 30.0
    #: Threads executing request bodies (the asyncio loop never blocks).
    executor_threads: int = 8
    #: Backoff hint carried in Backpressure replies, seconds.
    retry_after: float = 0.05


class _Tenant:
    """Per-user admission state, touched only on the event loop."""

    __slots__ = ("sem", "waiting")

    def __init__(self, max_in_flight: int):
        self.sem = asyncio.Semaphore(max_in_flight)
        self.waiting = 0


#: An op's access check: the table names one call touches, from its
#: decoded args, before the handler runs.
Acl = Callable[["SeabedService", dict[str, Any]], Iterable[str]]


def no_tables(service: "SeabedService", args: dict[str, Any]) -> tuple[str, ...]:
    """The ACL of ops that touch no table; the authenticated hello is
    their only gate."""
    return ()


def _table_arg(service: "SeabedService", args: dict[str, Any]) -> tuple[str, ...]:
    return (args["table"],)


def _query_tables(service: "SeabedService", args: dict[str, Any]) -> tuple[str, ...]:
    request = args["request"]
    if not isinstance(request, srv.ServerQuery):
        raise CodecError("execute expects a ServerQuery request")
    if request.join is None:
        return (request.table,)
    return (request.table, request.join.build_table)


def _batch_table(service: "SeabedService", args: dict[str, Any]) -> tuple[str, ...]:
    return (args["batch"].name,)


def _save_tables(service: "SeabedService", args: dict[str, Any]) -> tuple[str, ...]:
    # ``overwrite=True`` replaces whatever store sits at the destination,
    # so its owner is touched as much as the saved table is.
    dest = service.cluster.config.resolve_store_path(args["path"])
    owner = store_table_name(dest)
    return (args["table"],) if owner is None else (args["table"], owner)


def _store_state_table(service: "SeabedService", args: dict[str, Any]) -> tuple[str, ...]:
    return (service._local.read_store_state(args["path"])["schema"]["name"],)


def _sharded_state_table(service: "SeabedService", args: dict[str, Any]) -> tuple[str, ...]:
    return (service._local.read_sharded_state(args["path"])["schema"]["name"],)


@dataclass(frozen=True)
class RpcOp:
    """One client<->service RPC op, declared once.

    ``name`` is the wire op and the handler's method name: on
    :class:`~repro.core.transport.LocalTransport`, or on
    :class:`SeabedService` when ``on_service``.  The handler's parameters
    are the wire arg keys (a ``timeout`` parameter rides in the request
    envelope instead), and :class:`~repro.net.client.RemoteTransport`
    gets a method with the handler's signature, named ``client_name``
    when that differs from ``name``.  ``acl`` names the tables a call
    touches (:func:`no_tables` when none); ``idempotent`` ops are replayed
    on a fresh connection after a transport failure; the args named in
    ``batches`` travel as :func:`~repro.net.codec.pack_table` batches.
    """

    name: str
    acl: Acl
    idempotent: bool
    on_service: bool = False
    client_name: str | None = None
    batches: tuple[str, ...] = ()

    @property
    def method(self) -> str:
        """The op's method name on :class:`~repro.net.client.RemoteTransport`."""
        return self.client_name or self.name

    def handler(self) -> Callable[..., Any]:
        """The handler function, as its class holds it now."""
        return getattr(SeabedService if self.on_service else LocalTransport, self.name)


#: The whole client<->service surface: service dispatch, the client's
#: methods and its retry policy all derive from these declarations.
RPC_OPS: dict[str, RpcOp] = {
    op.name: op
    for op in (
        RpcOp("execute", _query_tables, idempotent=True),
        RpcOp("scan", _table_arg, idempotent=True),
        RpcOp("upload", _batch_table, idempotent=False, batches=("batch",)),
        RpcOp("append_batch", _table_arg, idempotent=False, batches=("batch",)),
        RpcOp("table_meta", _table_arg, idempotent=True),
        RpcOp("storage_bytes", _table_arg, idempotent=True),
        RpcOp("save_store", _save_tables, idempotent=False),
        RpcOp("commit_state", _table_arg, idempotent=False),
        RpcOp("read_store_state", _store_state_table, idempotent=True),
        RpcOp("read_sharded_state", _sharded_state_table, idempotent=True),
        RpcOp("store_rows", _table_arg, idempotent=True),
        RpcOp("truncate_store", _table_arg, idempotent=False),
        # Reconcile-style: replaying a reopen or an attach converges.
        RpcOp("reopen", _table_arg, idempotent=True),
        RpcOp("compact", _table_arg, idempotent=False),
        RpcOp("store_stats", _table_arg, idempotent=True),
        RpcOp("generations", _table_arg, idempotent=True),
        RpcOp("rebuild_index", _table_arg, idempotent=False),
        RpcOp("attach", _store_state_table, idempotent=True),
        RpcOp("attach_sharded", _sharded_state_table, idempotent=True, on_service=True),
        RpcOp("ping", no_tables, idempotent=True, on_service=True),
        RpcOp("audit", no_tables, idempotent=True, on_service=True,
              client_name="audit_server"),
        RpcOp("metrics", no_tables, idempotent=True, on_service=True,
              client_name="server_metrics"),
        RpcOp("trace", no_tables, idempotent=True, on_service=True,
              client_name="server_trace"),
    )
}


class SeabedService:
    """One keyless server process: stores, auth, admission, dispatch."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        stores: tuple[str, ...] | list[str] = (),
        sharded: tuple[str, ...] | list[str] = (),
    ):
        self.config = config or ServiceConfig()
        self.cluster = SimulatedCluster(
            ClusterConfig(
                backend=self.config.backend,
                workers=self.config.workers,
                storage_dir=self.config.storage_dir,
            )
        )
        self.server = srv.SeabedServer(self.cluster, pruning=self.config.pruning)
        self._local = LocalTransport(self.server, self.cluster)
        self.access = AccessController()
        self._tokens: dict[str, str] = {}  # token -> user
        self._tenants: dict[str, _Tenant] = {}
        self._sharded_roots: dict[str, str] = {}
        self._sharded_stores: dict[str, Any] = {}  # name -> ShardedStore
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="seabed-svc",
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self.bound: tuple[str, int] | None = None
        if not self.config.auth_required:
            self.access.grant("anonymous")
        for path in stores:
            self.host_store(path)
        for path in sharded:
            self.host_sharded(path)

    # -- hosting -----------------------------------------------------------

    def host_store(self, path: str) -> str:
        """Attach the partition store at ``path`` at its committed
        snapshot; returns the table name now being served."""
        resolved = self.cluster.config.resolve_store_path(path)
        table = open_committed_store(resolved)
        self.server.register(table)
        return table.name

    def host_sharded(self, path: str) -> str:
        """Host the persisted sharded table at ``path``: respawn the
        worker fleet over the existing node directories and roll back any
        shard tails a dead writer never committed.  Entirely key-free --
        the sidecar's schema/cursor metadata is all this needs."""
        from repro.shard.coordinator import (  # lazy: avoids package cycle
            ShardCoordinator,
            ShardedStore,
            ShardTopology,
        )

        root = self.cluster.config.resolve_store_path(path)
        state, _attach, sharding = ps.sharded_from_dict(ps.read_sharded_payload(root))
        name = state.schema.name
        topology = ShardTopology.from_dict(sharding["topology"])
        store = ShardedStore(root, topology, self.cluster.config)
        for shard, cursor in sharding["shards"].items():
            committed = int(cursor["num_rows"])
            on_disk = store.shard_rows(shard)
            if on_disk < committed:
                raise StorageError(
                    f"shard {shard} of {name!r} holds {on_disk} rows but its "
                    f"sidecar committed {committed}; the store is stale or corrupt"
                )
            if on_disk > committed:
                store.truncate_shard(shard, committed)
        self.server.register_sharded(name, ShardCoordinator(store, self.cluster))
        self._sharded_roots[name] = root
        self._sharded_stores[name] = store
        return name

    # -- auth --------------------------------------------------------------

    def mint_token(
        self,
        user: str,
        tables: set[str] | None = None,
        *,
        token: str | None = None,
    ) -> str:
        """Grant ``user`` access to ``tables`` (None = all) and return a
        bearer token for the wire.  Tokens are capability handles over
        the proxy-side access machinery: :meth:`revoke` invalidates them
        instantly, without touching ciphertexts."""
        self.access.grant(user, tables)
        value = token or secrets.token_urlsafe(24)
        self._tokens[value] = user
        return value

    def revoke(self, user: str) -> None:
        self.access.revoke(user)

    def _authenticate(self, body: Any) -> str:
        if not isinstance(body, dict):
            raise AuthError("malformed hello")
        token = body.get("token")
        if not self.config.auth_required:
            user = body.get("user") or (
                self._tokens.get(token, "anonymous") if token else "anonymous"
            )
            if not self.access.is_active(user):
                self.access.grant(user)
            return user
        user = self._tokens.get(token) if isinstance(token, str) else None
        if user is None:
            raise AuthError("unknown bearer token")
        if not self.access.is_active(user):
            raise AuthError(f"token for user {user!r} has been revoked")
        return user

    # -- request execution (executor threads) ------------------------------

    def _run_op(self, user: str, op: str, args: dict[str, Any]) -> Any:
        spec = RPC_OPS.get(op)
        if spec is None:
            raise TransportError(f"unknown service operation {op!r}")
        args = {**args, **{key: codec.unpack_table(args[key]) for key in spec.batches}}
        for table in spec.acl(self, args):
            self.access.check(user, table)
        # Looked up per call, never cached: a wrapper installed on a
        # handler class (a tracer, a profiler) sees every later request.
        owner = self if spec.on_service else self._local
        return getattr(owner, op)(**args)

    # -- service-side op handlers ------------------------------------------

    def ping(self) -> dict[str, Any]:
        """Liveness probe; the service answers it outside admission."""
        return {"server": "seabed"}

    def audit(self) -> dict[str, Any]:
        """Run the keyless audit *inside the serving process* and return
        its summary: ``{"ok", "objects_walked", "flagged"}``."""
        result = audit_keyless(self)
        return {
            "ok": result.ok,
            "objects_walked": result.objects_walked,
            "flagged": list(result.flagged),
        }

    def metrics(self, fmt: str = "prometheus") -> dict[str, Any]:
        """Scrape the serving process's metrics registry.

        ``fmt="prometheus"`` returns ``{"fmt", "text"}`` with the text
        exposition; ``fmt="json"`` returns ``{"fmt", "metrics"}`` with
        the nested snapshot.  Holds only names, labels and numbers.
        """
        reg = obs_metrics.get_registry()
        if fmt == "json":
            return {"fmt": "json", "metrics": reg.snapshot()}
        return {"fmt": "prometheus", "text": reg.prometheus()}

    def trace(self, trace_id: str | None = None, limit: int = 256) -> dict[str, Any]:
        """Recent spans retained by the serving process (local-only
        traces of untraced requests included), optionally filtered by
        ``trace_id``; returns ``{"spans": [span dicts...]}``."""
        spans = obs_trace.get_tracer().spans(
            trace_id=trace_id, limit=int(limit) if limit is not None else 256
        )
        return {"spans": [s.to_dict() for s in spans]}

    def attach_sharded(self, path: str) -> dict[str, Any]:
        """Host the persisted sharded table at ``path`` unless it already
        is; returns ``{"name", "root"}``."""
        name = self._local.read_sharded_state(path)["schema"]["name"]
        if name not in self._sharded_roots:
            self.host_sharded(path)
        return {"name": name, "root": self._sharded_roots[name]}

    def _traced_run(
        self,
        user: str,
        op: str,
        args: dict[str, Any],
        trace_ctx: dict[str, Any] | None,
        queue_wait: float,
    ) -> tuple[Any, list[dict]]:
        """Executor-thread wrapper around :meth:`_run_op`.

        ``run_in_executor`` does not propagate contextvars, so the
        caller's trace context is re-installed here explicitly.  Returns
        ``(result, spans)`` where ``spans`` are the service-side span
        dicts to piggyback on the reply -- empty unless the client sent a
        trace context (local-only spans stay in this process's tracer
        for the ``trace`` RPC instead).
        """
        t_start = time.perf_counter()
        trace_id = None
        try:
            with obs_trace.continue_context(trace_ctx):
                with obs_trace.span(f"service:{op}", tenant=user) as sp:
                    if sp is not None:
                        trace_id = sp.trace_id
                        if queue_wait > 0:
                            obs_trace.record_span(
                                "service:queue_wait",
                                t_start - queue_wait,
                                t_start,
                            )
                    result = self._run_op(user, op, args)
        finally:
            obs_metrics.get_registry().histogram(
                "seabed_service_request_seconds",
                "Service request latency by operation and tenant.",
                labelnames=("op", "tenant"),
            ).observe(time.perf_counter() - t_start, op=op, tenant=user)
        spans: list[dict] = []
        if trace_id is not None and trace_ctx is not None:
            spans = [s.to_dict() for s in obs_trace.get_tracer().take(trace_id)]
        return result, spans

    @staticmethod
    def _trace_of(body: dict[str, Any]) -> dict[str, Any] | None:
        """The optional trace context in a request body.  Absent or
        malformed (a version-skewed or legacy client) yields ``None`` --
        the request simply runs with a local-only trace."""
        ctx = body.get("trace")
        return ctx if isinstance(ctx, dict) else None

    # -- admission + dispatch (event loop) ---------------------------------

    def _tenant(self, user: str) -> _Tenant:
        tenant = self._tenants.get(user)
        if tenant is None:
            tenant = self._tenants[user] = _Tenant(self.config.max_in_flight)
        return tenant

    async def _admit(self, tenant: _Tenant) -> bool:
        """Take one in-flight slot, or report overload.  The wait queue
        is bounded: beyond ``queue_depth`` waiters the caller gets an
        immediate Backpressure reply instead of an unbounded stall."""
        if not tenant.sem.locked():
            await tenant.sem.acquire()
            return True
        if tenant.waiting >= self.config.queue_depth:
            return False
        tenant.waiting += 1
        try:
            await tenant.sem.acquire()
        finally:
            tenant.waiting -= 1
        return True

    async def _dispatch(self, user: str, body: Any) -> dict[str, Any]:
        if not isinstance(body, dict) or not isinstance(body.get("op"), str):
            return _error_reply(CodecError("malformed request body"))
        op = body["op"]
        args = body.get("args") or {}
        trace_ctx = self._trace_of(body)
        if op == "ping":
            # Liveness probe: answered on the loop, outside admission.
            return {"ok": True, "result": self._run_op(user, op, {})}
        tenant = self._tenant(user)
        queued_at = time.monotonic()
        if not await self._admit(tenant):
            obs_metrics.get_registry().counter(
                "seabed_backpressure_total",
                "Requests rejected by per-tenant admission control.",
                labelnames=("tenant",),
            ).inc(1.0, tenant=user)
            return _error_reply(
                Backpressure(
                    f"tenant {user!r} is over its admission budget "
                    f"({self.config.max_in_flight} in flight, "
                    f"{self.config.queue_depth} queued); retry later",
                    retry_after=self.config.retry_after,
                )
            )
        queue_wait = time.monotonic() - queued_at
        timeout = _effective_timeout(body.get("timeout"), self.config.request_timeout)
        assert self._loop is not None
        future = self._loop.run_in_executor(
            self._pool,
            partial(self._traced_run, user, op, args, trace_ctx, queue_wait),
        )
        # The slot is held until the executor thread actually finishes --
        # a timed-out request keeps consuming its budget rather than
        # letting a tenant stack abandoned work.  The callback also
        # retrieves the exception so abandoned futures never warn.
        future.add_done_callback(
            lambda f: (tenant.sem.release(), f.cancelled() or f.exception())
        )
        try:
            result, spans = await asyncio.wait_for(asyncio.shield(future), timeout)
        except (asyncio.TimeoutError, TimeoutError):
            return _error_reply(
                TransportError(f"request {op!r} timed out after {timeout}s server-side")
            )
        except Exception as exc:  # noqa: BLE001 -- typed reply, never a hang
            return _error_reply(exc)
        if isinstance(result, srv.ServerResponse) and result.metrics is not None:
            result.metrics.queue_wait = queue_wait
        reply: dict[str, Any] = {"ok": True, "result": result}
        if spans:
            reply["spans"] = spans
        return reply

    # -- connection handling -----------------------------------------------

    async def _read(self, reader: asyncio.StreamReader) -> tuple[str, Any]:
        header = await reader.readexactly(4)
        (length,) = struct.unpack("<I", header)
        if length > codec.MAX_FRAME_BYTES:
            raise CodecError(
                f"peer announced a {length}-byte frame (cap {codec.MAX_FRAME_BYTES})"
            )
        return codec.decode_payload(await reader.readexactly(length))

    async def _write(
        self, writer: asyncio.StreamWriter, kind: str, body: Any
    ) -> None:
        writer.write(codec.encode_frame(kind, body))
        await writer.drain()

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                kind, hello = await self._read(reader)
                if kind != "hello":
                    raise AuthError(f"expected hello, got {kind!r} frame")
                user = self._authenticate(hello)
            except (CodecError, AuthError) as exc:
                await self._write(writer, "hello", _error_reply(exc))
                return
            await self._write(
                writer,
                "hello",
                {
                    "ok": True,
                    "result": {
                        "server": "seabed",
                        "wire_version": codec.WIRE_VERSION,
                        "user": user,
                    },
                },
            )
            while True:
                try:
                    kind, body = await self._read(reader)
                except asyncio.IncompleteReadError:
                    return  # client went away
                except CodecError as exc:
                    # Unparseable input: answer typed, then drop the
                    # connection (the stream may be out of sync).
                    await self._write(writer, "rep", _error_reply(exc))
                    return
                if kind != "req":
                    await self._write(
                        writer,
                        "rep",
                        _error_reply(CodecError(f"unexpected {kind!r} frame")),
                    )
                    return
                await self._write(writer, "rep", await self._dispatch(user, body))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-write; nothing to answer
        except asyncio.CancelledError:
            pass  # service shutting down mid-connection; drop cleanly
        finally:
            writer.close()
            try:
                # A task cancelled during shutdown re-raises CancelledError
                # from any await; the transport is closed either way.
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- lifecycle ---------------------------------------------------------

    async def _serve_forever(
        self, ready: threading.Event, holder: dict[str, Any]
    ) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        sock = server.sockets[0].getsockname()
        self.bound = (sock[0], sock[1])
        holder["bound"] = self.bound
        ready.set()
        async with server:
            await self._stop.wait()

    def start(self) -> "ServiceHandle":
        """Run the listener on a background thread; returns a handle with
        the bound address once the socket is accepting."""
        if self._thread is not None:
            raise TransportError("service already started")
        ready = threading.Event()
        holder: dict[str, Any] = {}

        def run() -> None:
            try:
                asyncio.run(self._serve_forever(ready, holder))
            except Exception as exc:  # noqa: BLE001 -- surfaced to start()
                holder["error"] = exc
            finally:
                ready.set()

        self._thread = threading.Thread(
            target=run, name="seabed-service", daemon=True
        )
        self._thread.start()
        ready.wait(timeout=30)
        if "error" in holder:
            raise TransportError(f"service failed to start: {holder['error']}")
        if "bound" not in holder:
            raise TransportError("service failed to bind within 30s")
        host, port = holder["bound"]
        return ServiceHandle(self, host, port)

    def stop(self) -> None:
        """Stop accepting, close the listener and join the loop thread.
        Idempotent."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._pool.shutdown(wait=False, cancel_futures=True)
        for store in self._sharded_stores.values():
            store.close()
        self.cluster.close()


@dataclass
class ServiceHandle:
    """A running service: address, token minting, and shutdown."""

    service: SeabedService
    host: str
    port: int

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def mint_token(
        self, user: str, tables: set[str] | None = None, *, token: str | None = None
    ) -> str:
        return self.service.mint_token(user, tables, token=token)

    def revoke(self, user: str) -> None:
        self.service.revoke(user)

    def stop(self) -> None:
        self.service.stop()

    close = stop

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def serve(
    stores: tuple[str, ...] | list[str] = (),
    *,
    sharded: tuple[str, ...] | list[str] = (),
    config: ServiceConfig | None = None,
    **overrides: Any,
) -> ServiceHandle:
    """Host ``stores`` (and ``sharded`` roots) on a background service and
    return its handle::

        handle = repro.serve(stores=["/data/stores/sales"])
        token = handle.mint_token("alice")
        session = repro.connect(handle.address, token, master_key=KEY)
    """
    if config is None:
        config = ServiceConfig(**overrides)
    elif overrides:
        raise TransportError("pass either config= or keyword overrides, not both")
    service = SeabedService(config, stores=tuple(stores), sharded=tuple(sharded))
    return service.start()


def _error_reply(exc: Exception) -> dict[str, Any]:
    reply: dict[str, Any] = {
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, Backpressure):
        reply["retry_after"] = exc.retry_after
    if not isinstance(exc, (SeabedError, AccessError)):
        # Unexpected server-side failure: keep the class name for the
        # log line but clients map it to a generic TransportError.
        reply["error"] = "TransportError"
        reply["message"] = f"{type(exc).__name__}: {exc}"
    return reply


def _effective_timeout(
    requested: Any, ceiling: float | None
) -> float | None:
    limit = float(requested) if isinstance(requested, (int, float)) else None
    if limit is None:
        return ceiling
    if ceiling is None:
        return limit
    return min(limit, ceiling)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.service",
        description="Host Seabed partition stores behind a TCP service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--store", action="append", default=[], help="partition store path (repeat)"
    )
    parser.add_argument(
        "--sharded", action="append", default=[], help="sharded table root (repeat)"
    )
    parser.add_argument(
        "--backend", default="serial", choices=["serial", "threads", "processes"]
    )
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--storage-dir", default=None)
    parser.add_argument("--max-in-flight", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--request-timeout", type=float, default=30.0)
    parser.add_argument("--no-pruning", action="store_true")
    parser.add_argument("--no-auth", action="store_true")
    parser.add_argument(
        "--grant",
        action="append",
        default=[],
        metavar="USER:TOKEN",
        help="pre-mint a bearer token (repeat); USER gets all tables",
    )
    parser.add_argument(
        "--info-file",
        default=None,
        help="write {'host','port'} JSON here once the socket is bound",
    )
    args = parser.parse_args(argv)
    # Standalone serving process: name it in exported traces.
    obs_trace.set_process_label("seabed-service")
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        workers=args.workers,
        storage_dir=args.storage_dir,
        pruning=not args.no_pruning,
        auth_required=not args.no_auth,
        max_in_flight=args.max_in_flight,
        queue_depth=args.queue_depth,
        request_timeout=args.request_timeout,
    )
    service = SeabedService(
        config, stores=tuple(args.store), sharded=tuple(args.sharded)
    )
    for grant in args.grant:
        user, _, token = grant.partition(":")
        if not user or not token:
            parser.error(f"--grant wants USER:TOKEN, got {grant!r}")
        service.mint_token(user, token=token)
    handle = service.start()
    if args.info_file:
        with open(args.info_file, "w", encoding="utf-8") as fh:
            json.dump({"host": handle.host, "port": handle.port}, fh)
    print(f"seabed service listening on {handle.host}:{handle.port}", flush=True)
    try:
        assert service._thread is not None
        service._thread.join()
    except KeyboardInterrupt:
        handle.stop()


if __name__ == "__main__":
    main()
