"""Client half of the service boundary: :class:`RemoteTransport`.

A blocking socket client for the :mod:`repro.net.service` protocol that
plugs into :class:`~repro.core.session.SeabedSession` as its
:class:`~repro.core.transport.Transport`.  Its op methods are generated,
one per declaration in the service's op table
(:data:`repro.net.service.RPC_OPS`): each takes its handler's signature
and sends one ``{"op", "args"}`` request whose arg keys are the
handler's parameter names, so session code reads the same as over the
in-process :class:`~repro.core.transport.LocalTransport`.

Failure surface is typed, never a raw ``OSError``:

- connection loss / refused / mid-frame close ->
  :class:`~repro.errors.TransportError` (ops declared idempotent are
  retried with exponential backoff and a fresh connection first);
- bad token or revocation -> :class:`~repro.errors.AuthError`;
- admission-control rejection -> :class:`~repro.errors.Backpressure`
  with its ``retry_after`` hint;
- malformed frames / version skew -> :class:`~repro.errors.CodecError`.

:func:`connect` is the top-level entry point::

    session = repro.connect(("127.0.0.1", 7733), token, master_key=KEY)
    session.open_table("sales")
"""

from __future__ import annotations

import inspect
import socket
import time
from typing import Any, Callable

from repro.core import server as srv
from repro.core.access import AccessError  # noqa: F401 -- registers for _error_class
from repro.core.transport import Transport
from repro.errors import (
    AuthError,
    Backpressure,
    CodecError,
    SeabedError,
    TransportError,
)
from repro.net import codec
from repro.net.service import RPC_OPS, RpcOp
from repro.obs import trace as obs_trace

#: Ops safe to replay on a fresh connection after a transport failure.
_IDEMPOTENT = frozenset(name for name, op in RPC_OPS.items() if op.idempotent)


def _error_class(name: str) -> type[SeabedError] | None:
    """Resolve a wire error name against the SeabedError hierarchy."""
    stack = [SeabedError]
    while stack:
        cls = stack.pop()
        if cls.__name__ == name:
            return cls
        stack.extend(cls.__subclasses__())
    return None


class RemoteTransport(Transport):
    """Socket client for a :class:`~repro.net.service.SeabedService`.

    One connection, one request at a time (the session API is
    synchronous); concurrency comes from multiple sessions, exactly as
    multiple tenants hit the service.  ``timeout`` per call rides in the
    request envelope so the *server* enforces it too; the socket itself
    waits slightly longer so the typed server-side timeout reply wins
    over a raw socket timeout when both trigger.  The op methods
    (``execute``, ``scan``, ``append_batch``, ...) are attached after
    the class body, one per entry of
    :data:`~repro.net.service.RPC_OPS`.
    """

    local = False

    def __init__(
        self,
        address: tuple[str, int] | str,
        token: str | None = None,
        *,
        user: str | None = None,
        connect_timeout: float = 10.0,
        default_timeout: float | None = 60.0,
        retries: int = 3,
        backoff: float = 0.05,
    ):
        if isinstance(address, str):
            host, _, port = address.rpartition(":")
            if not host or not port.isdigit():
                raise TransportError(
                    f"address {address!r} is not 'host:port' or (host, port)"
                )
            address = (host, int(port))
        self.address = address
        self._token = token
        self._user = user
        self._connect_timeout = connect_timeout
        self._default_timeout = default_timeout
        self._retries = max(1, retries)
        self._backoff = backoff
        self._sock: socket.socket | None = None
        self.server_info: dict[str, Any] | None = None
        self._connect()  # fail fast on bad address / bad token

    # -- connection management ---------------------------------------------

    def _connect(self) -> None:
        try:
            sock = socket.create_connection(
                self.address, timeout=self._connect_timeout
            )
        except OSError as exc:
            raise TransportError(
                f"cannot reach seabed service at {self.address[0]}:"
                f"{self.address[1]}: {exc}"
            ) from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            codec.write_frame(
                sock, "hello", {"token": self._token, "user": self._user}
            )
            kind, body = codec.read_frame(sock)
        except OSError as exc:
            sock.close()
            raise TransportError(f"handshake failed: {exc}") from exc
        except CodecError:
            sock.close()
            raise
        if kind != "hello" or not isinstance(body, dict):
            sock.close()
            raise CodecError(f"expected a hello reply, got {kind!r}")
        if not body.get("ok"):
            sock.close()
            raise self._as_error(body)
        self.server_info = body.get("result") or {}
        self._sock = sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._drop()

    # -- request plumbing ---------------------------------------------------

    def _as_error(self, body: dict[str, Any]) -> SeabedError:
        name = body.get("error", "TransportError")
        message = str(body.get("message", "remote error"))
        if name == "Backpressure":
            retry_after = body.get("retry_after")
            return Backpressure(
                message,
                retry_after=float(retry_after) if retry_after is not None else None,
            )
        cls = _error_class(name) if isinstance(name, str) else None
        if cls is None or cls is SeabedError:
            return TransportError(f"{name}: {message}")
        return cls(message)

    def _trace_context(self) -> dict[str, Any] | None:
        """The trace context attached to outgoing requests (the ambient
        span's ids, or ``None``).  A separate method so version-skew
        tests can stub a legacy client that never sends one."""
        return obs_trace.current_context()

    def _request(
        self, op: str, args: dict[str, Any], *, timeout: float | None = None
    ) -> Any:
        started = time.monotonic()
        if not obs_trace.enabled():
            result = self._request_inner(op, args, None, timeout)
        else:
            # The wire span covers encode + socket + decode + retries; the
            # server parents its own spans under it via the sent context.
            with obs_trace.span(f"wire:{op}"):
                result = self._request_inner(op, args, self._trace_context(), timeout)
        if isinstance(result, srv.ServerResponse) and result.metrics is not None:
            # client-observed round trip: serialization + network + service
            result.metrics.wire_time = time.monotonic() - started
        return result

    def _request_inner(
        self,
        op: str,
        args: dict[str, Any],
        trace_ctx: dict[str, Any] | None,
        timeout: float | None,
    ) -> Any:
        limit = timeout if timeout is not None else self._default_timeout
        attempts = self._retries if op in _IDEMPOTENT else 1
        last: Exception | None = None
        envelope: dict[str, Any] = {"op": op, "args": args, "timeout": limit}
        if trace_ctx is not None:
            envelope["trace"] = trace_ctx
        for attempt in range(attempts):
            if attempt:
                time.sleep(self._backoff * (2 ** (attempt - 1)))
            try:
                if self._sock is None:
                    self._connect()
                sock = self._sock
                assert sock is not None
                # Grace beyond the server-side budget so its typed
                # timeout reply arrives before the socket gives up.
                sock.settimeout(limit + 5.0 if limit is not None else None)
                codec.write_frame(sock, "req", envelope)
                kind, body = codec.read_frame(sock)
            except (AuthError, Backpressure):
                raise
            except socket.timeout as exc:
                self._drop()
                raise TransportError(
                    f"request {op!r} timed out after {limit}s on the wire"
                ) from exc
            except (OSError, CodecError) as exc:
                if isinstance(exc, CodecError) and "version skew" in str(exc):
                    self._drop()
                    raise  # retrying cannot fix a protocol mismatch
                self._drop()
                last = exc
                continue
            if kind != "rep" or not isinstance(body, dict):
                self._drop()
                raise CodecError(f"expected a rep frame, got {kind!r}")
            if body.get("ok"):
                # Server-side spans piggyback on the reply (absent from
                # skewed peers -- then the trace is simply local-only).
                spans = body.get("spans")
                if spans:
                    obs_trace.get_tracer().ingest(spans)
                return body.get("result")
            raise self._as_error(body)
        if isinstance(last, CodecError):
            raise last
        raise TransportError(
            f"request {op!r} failed after {attempts} attempt(s): {last}"
        ) from last


def _client_method(op: RpcOp) -> Callable[..., Any]:
    """The :class:`RemoteTransport` method for ``op``: bind the call to
    the handler's signature and send the bound args as the request."""
    handler = op.handler()
    sig = inspect.signature(handler)
    args_sig = sig.replace(parameters=list(sig.parameters.values())[1:])

    def call(self: RemoteTransport, *args: Any, **kwargs: Any) -> Any:
        bound = args_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        wire = dict(bound.arguments)
        timeout = wire.pop("timeout", None)
        for key in op.batches:
            wire[key] = codec.pack_table(wire[key])
        return self._request(op.name, wire, timeout=timeout)

    call.__name__ = op.method
    call.__qualname__ = f"RemoteTransport.{call.__name__}"
    call.__doc__ = handler.__doc__
    call.__signature__ = sig  # type: ignore[attr-defined]
    return call


for _op in RPC_OPS.values():
    setattr(RemoteTransport, _op.method, _client_method(_op))
del _op


def connect(
    address: tuple[str, int] | str,
    token: str | None = None,
    *,
    user: str | None = None,
    connect_timeout: float = 10.0,
    default_timeout: float | None = 60.0,
    retries: int = 3,
    backoff: float = 0.05,
    **session_kwargs: Any,
):
    """Open a :class:`~repro.core.session.SeabedSession` against a remote
    service.  ``session_kwargs`` (``master_key=``, ``mode=``, ...) are the
    usual session arguments -- keys stay on this side of the wire."""
    from repro.core.session import SeabedSession

    transport = RemoteTransport(
        address,
        token,
        user=user,
        connect_timeout=connect_timeout,
        default_timeout=default_timeout,
        retries=retries,
        backoff=backoff,
    )
    return SeabedSession(transport=transport, **session_kwargs)


__all__ = ["RemoteTransport", "connect"]
