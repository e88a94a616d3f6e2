"""Service-layer behavior: auth, admission control, timeouts, typed
wire errors.  Everything here runs the real asyncio listener on
localhost -- only the client and server share a process."""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.schema import ColumnSpec, TableSchema
from repro.errors import AuthError, Backpressure, CodecError, TransportError
from repro.net import codec
from repro.net.client import RemoteTransport
from repro.net.service import SeabedService, ServiceConfig

KEY = b"t" * 32

SCHEMA = TableSchema("sales", [
    ColumnSpec("region", dtype="str", sensitive=True,
               distinct_values=["us", "eu", "apac"]),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
])
SAMPLES = [
    "SELECT sum(amount) FROM sales WHERE region = 'us'",
    "SELECT count(*) FROM sales WHERE amount > 100",
]


def _data(n=120, seed=9):
    rng = np.random.default_rng(seed)
    return {
        "region": rng.choice(["us", "eu", "apac"], n),
        "amount": rng.integers(-20, 500, n),
    }


def _session(handle, token, **kw):
    session = repro.connect(handle.address, token, master_key=KEY, seed=3, **kw)
    session.create_plan(SCHEMA, SAMPLES)
    return session


@pytest.fixture
def handle():
    h = repro.serve()
    yield h
    h.stop()


class TestAuth:
    def test_bad_token_rejected_typed(self, handle):
        with pytest.raises(AuthError, match="unknown bearer token"):
            repro.connect(handle.address, "not-a-token", master_key=KEY)

    def test_missing_token_rejected(self, handle):
        with pytest.raises(AuthError):
            repro.connect(handle.address, None, master_key=KEY)

    def test_revocation_is_instant(self, handle):
        token = handle.mint_token("alice")
        session = _session(handle, token)
        session.upload("sales", _data())
        assert session.query("SELECT count(*) FROM sales").rows
        handle.revoke("alice")
        from repro.core.access import AccessError

        with pytest.raises(AccessError, match="revoked"):
            session.query("SELECT count(*) FROM sales")
        # and new connections with the stale token fail at the handshake
        with pytest.raises(AuthError, match="revoked"):
            repro.connect(handle.address, token, master_key=KEY)
        session.close()

    def test_tenant_keys_isolated(self, handle):
        """Two tenants, two keychains: each decrypts only its own table."""
        t1 = handle.mint_token("alice")
        t2 = handle.mint_token("carol")
        s1 = repro.connect(handle.address, t1, master_key=b"a" * 32, seed=3)
        s2 = repro.connect(handle.address, t2, master_key=b"c" * 32, seed=3)
        schema2 = TableSchema("orders", [
            ColumnSpec("amount", dtype="int", sensitive=True, nbits=32)])
        s1.create_plan(SCHEMA, SAMPLES)
        s2.create_plan(schema2, ["SELECT sum(amount) FROM orders"])
        s1.upload("sales", _data())
        s2.upload("orders", {"amount": np.arange(50, dtype=np.int64)})
        assert s1.query("SELECT count(*) FROM sales").rows[0]["count(*)"] == 120
        assert s2.query("SELECT sum(amount) FROM orders").rows[0][
            "sum(amount)"] == int(np.arange(50).sum())
        s1.close()
        s2.close()


class TestAdmission:
    @pytest.fixture
    def tight_handle(self):
        h = repro.serve(config=ServiceConfig(max_in_flight=1, queue_depth=0))
        yield h
        h.stop()

    def _slow_service(self, h, delay=0.4, op="table_meta"):
        service = h.service
        orig = service._run_op

        def slow(user, operation, args):
            if operation == op:
                time.sleep(delay)
            return orig(user, operation, args)

        service._run_op = slow

    def test_overload_returns_backpressure_not_hang(self, tight_handle):
        self._slow_service(tight_handle)
        token = tight_handle.mint_token("alice")
        transports = [
            RemoteTransport(tight_handle.address, token) for _ in range(4)
        ]
        outcomes: list[str] = []
        lock = threading.Lock()

        def hit(transport):
            try:
                transport.table_meta("sales")
                with lock:
                    outcomes.append("ok")
            except Backpressure as exc:
                assert exc.retry_after is not None and exc.retry_after > 0
                with lock:
                    outcomes.append("backpressure")

        threads = [
            threading.Thread(target=hit, args=(t,)) for t in transports
        ]
        start = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert time.monotonic() - start < 25  # never a hang
        assert len(outcomes) == 4
        assert "backpressure" in outcomes  # overload surfaced, typed
        assert "ok" in outcomes  # and the admitted request completed
        for t in transports:
            t.close()

    def test_retry_after_admission_drains(self, tight_handle):
        token = tight_handle.mint_token("alice")
        transport = RemoteTransport(tight_handle.address, token)
        # No contention: the same budget admits sequential requests forever.
        for _ in range(5):
            assert transport.table_meta("nope") is None
        transport.close()


class TestTimeouts:
    @pytest.fixture
    def slow_handle(self):
        h = repro.serve(config=ServiceConfig(request_timeout=10.0))
        service = h.service
        orig = service._run_op

        def slow(user, operation, args):
            if operation in ("storage_bytes", "execute"):
                time.sleep(1.0)
            return orig(user, operation, args)

        service._run_op = slow
        yield h
        h.stop()

    def test_per_call_timeout_is_typed(self, slow_handle):
        token = slow_handle.mint_token("alice")
        session = _session(slow_handle, token)
        session.upload("sales", _data())
        with pytest.raises(TransportError, match="timed out"):
            session.query("SELECT count(*) FROM sales", timeout=0.2)
        # the connection survives the timeout; later requests still work
        assert session.query("SELECT count(*) FROM sales").rows
        session.close()

    def test_query_timeout_parameter_threads_through(self, slow_handle):
        token = slow_handle.mint_token("alice")
        session = _session(slow_handle, token)
        session.upload("sales", _data())
        # generous timeout: passes through the whole prepared path
        result = session.query("SELECT count(*) FROM sales", timeout=20.0)
        assert result.rows[0]["count(*)"] == 120
        results = session.query_many(
            ["SELECT count(*) FROM sales"] * 3, timeout=20.0
        )
        assert all(r.rows[0]["count(*)"] == 120 for r in results)
        session.close()

    def test_storage_bytes_timeout_overridden_per_call(self, slow_handle):
        token = slow_handle.mint_token("alice")
        transport = RemoteTransport(slow_handle.address, token)
        with pytest.raises(TransportError, match="timed out"):
            transport._request("storage_bytes", {"table": "x"}, timeout=0.1)
        transport.close()


class TestQueueWait:
    def test_queue_wait_metric_surfaces_under_contention(self):
        handle = repro.serve(config=ServiceConfig(max_in_flight=1, queue_depth=4))
        try:
            service = handle.service
            orig = service._run_op

            def slow(user, operation, args):
                if operation == "execute":
                    time.sleep(0.2)
                return orig(user, operation, args)

            service._run_op = slow
            token = handle.mint_token("alice")
            sessions = [_session(handle, token) for _ in range(2)]
            sessions[0].upload("sales", _data())
            waits = []

            def run(session):
                result = session.query("SELECT count(*) FROM sales")
                waits.append(result.queue_wait)

            threads = [threading.Thread(target=run, args=(s,)) for s in sessions]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(waits) == 2
            # one request queued behind the other's 0.2s execution
            assert max(waits) > 0.05
            for s in sessions:
                s.close()
        finally:
            handle.stop()


class TestWireErrors:
    def test_version_skew_rejected_at_hello(self, handle):
        frame = bytearray(codec.encode_frame("hello", {"token": "x"}))
        frame[8:10] = struct.pack("<H", codec.WIRE_VERSION + 1)
        with socket.create_connection(handle.address, timeout=10) as sock:
            sock.sendall(bytes(frame))
            kind, body = codec.read_frame(sock)
        assert kind == "hello"
        assert body["ok"] is False
        assert body["error"] == "CodecError"
        assert "version skew" in body["message"]

    def test_garbage_frame_answered_typed_then_closed(self, handle):
        token = handle.mint_token("alice")
        with socket.create_connection(handle.address, timeout=10) as sock:
            codec.write_frame(sock, "hello", {"token": token})
            kind, body = codec.read_frame(sock)
            assert body["ok"] is True
            sock.sendall(struct.pack("<I", 8) + b"GARBAGE!")
            kind, body = codec.read_frame(sock)
            assert kind == "rep" and body["error"] == "CodecError"

    def test_oversized_frame_announcement_rejected(self, handle):
        token = handle.mint_token("alice")
        with socket.create_connection(handle.address, timeout=10) as sock:
            codec.write_frame(sock, "hello", {"token": token})
            codec.read_frame(sock)
            sock.sendall(struct.pack("<I", codec.MAX_FRAME_BYTES + 1))
            kind, body = codec.read_frame(sock)
            assert body["error"] == "CodecError"

    def test_connection_refused_is_transport_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(TransportError, match="cannot reach"):
            RemoteTransport(("127.0.0.1", free_port), "tok")

    def test_no_auth_mode_accepts_anonymous(self):
        h = repro.serve(config=ServiceConfig(auth_required=False))
        try:
            session = repro.connect(h.address, master_key=KEY, seed=3)
            session.create_plan(SCHEMA, SAMPLES)
            session.upload("sales", _data())
            assert session.query("SELECT count(*) FROM sales").rows
            session.close()
        finally:
            h.stop()


class TestServiceLifecycle:
    def test_handle_context_manager_and_server_property(self):
        with repro.serve() as h:
            token = h.mint_token("alice")
            session = _session(h, token)
            # remote sessions have no in-process server to poke
            with pytest.raises(TransportError, match="remote"):
                _ = session.server
            with pytest.raises(TransportError):
                session.server = object()
            session.close()

    def test_serve_rejects_config_plus_overrides(self):
        with pytest.raises(TransportError):
            repro.serve(config=ServiceConfig(), max_in_flight=2)

    def test_double_start_rejected(self):
        service = SeabedService(ServiceConfig())
        handle = service.start()
        try:
            with pytest.raises(TransportError, match="already started"):
                service.start()
        finally:
            handle.stop()
