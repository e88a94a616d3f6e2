"""The client<->service op surface, checked against its one declaration.

Every check here is driven by :data:`repro.net.service.RPC_OPS`: the
client's methods, the service's dispatch and the op table must name the
same ops; every op with a table ACL must refuse a tenant without a grant
before it touches anything; only ops declared idempotent are replayed
after a dropped connection; and each op's request envelope matches a
pinned list, so an older client keeps working against a newer service."""

from __future__ import annotations

import hashlib
import os
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core import server as srv
from repro.core.access import AccessError
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.core.transport import LocalTransport
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.table import Table
from repro.errors import TransportError
from repro.net import codec
from repro.net.client import RemoteTransport
from repro.net.service import RPC_OPS, no_tables

ALICE_KEY = b"a" * 32
BOB_KEY = b"b" * 32

#: (client method, wire op, arg keys in order) as clients sent them when
#: the wire protocol was pinned.  Never edit an entry: add new ops only.
GOLDEN = [
    ("execute", "execute", ["request"]),
    ("scan", "scan", ["table", "columns", "filter"]),
    ("upload", "upload", ["batch"]),
    ("append_batch", "append_batch", ["table", "batch", "column_meta"]),
    ("table_meta", "table_meta", ["table"]),
    ("storage_bytes", "storage_bytes", ["table"]),
    ("save_store", "save_store", ["table", "path", "column_meta", "overwrite"]),
    ("commit_state", "commit_state", ["table", "payload"]),
    ("read_store_state", "read_store_state", ["path"]),
    ("read_sharded_state", "read_sharded_state", ["path"]),
    ("store_rows", "store_rows", ["table"]),
    ("truncate_store", "truncate_store", ["table", "committed"]),
    ("reopen", "reopen", ["table"]),
    ("compact", "compact", ["table", "target_rows"]),
    ("store_stats", "store_stats", ["table"]),
    ("generations", "generations", ["table"]),
    ("rebuild_index", "rebuild_index", ["table"]),
    ("attach", "attach", ["path"]),
    ("attach_sharded", "attach_sharded", ["path"]),
    ("ping", "ping", []),
    ("audit_server", "audit", []),
    ("server_metrics", "metrics", ["fmt"]),
    ("server_trace", "trace", ["trace_id", "limit"]),
]

COLUMNS = [
    ColumnSpec("region", dtype="str", sensitive=True),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
]
DATA = {
    "region": np.array(["us", "eu"] * 20),
    "amount": np.arange(40, dtype=np.int64),
}


def _plan(session, name):
    """Plan and upload ``DATA`` as table ``name``."""
    session.create_plan(
        TableSchema(name, COLUMNS), [f"SELECT sum(amount) FROM {name} WHERE region = 'us'"]
    )
    session.upload(name, DATA)
    return session


def _calls(store: str, sharded: str) -> dict[str, tuple[tuple, dict]]:
    """One call per op, aimed at bob's table and paths."""
    batch = Table.from_columns("theirs", {"amount": np.arange(4)}, num_partitions=1)
    return {
        "execute": ((srv.ServerQuery("theirs", ()),), {}),
        "scan": (("theirs", ["amount"], None), {}),
        "upload": ((batch,), {}),
        "append_batch": (("theirs", batch, {}), {}),
        "table_meta": (("theirs",), {}),
        "storage_bytes": (("theirs",), {}),
        # The cross-tenant overwrite: alice saves her own table onto
        # bob's store directory.
        "save_store": (("mine", store, {}), {"overwrite": True}),
        "commit_state": (("theirs", {"format": "seabed-client-state"}), {}),
        "read_store_state": ((store,), {}),
        "read_sharded_state": ((sharded,), {}),
        "store_rows": (("theirs",), {}),
        "truncate_store": (("theirs", 0), {}),
        "reopen": (("theirs",), {}),
        "compact": (("theirs",), {}),
        "store_stats": (("theirs",), {}),
        "generations": (("theirs",), {}),
        "rebuild_index": (("theirs",), {}),
        "attach": ((store,), {}),
        "attach_sharded": ((sharded,), {}),
        "ping": ((), {}),
        "audit": ((), {}),
        "metrics": ((), {}),
        "trace": ((), {}),
    }


def _tree_digest(root: str) -> dict[str, str]:
    digest = {}
    for folder, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digest


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A service hosting bob's store, with bob's sharded root on disk
    beside it; alice is granted only table ``mine``."""
    root = str(tmp_path_factory.mktemp("op-surface"))
    writer = _plan(SeabedSession(master_key=BOB_KEY, seed=1), "theirs")
    store = writer.encrypted_table("theirs").save(os.path.join(root, "theirs"))
    config = ClusterConfig(storage_dir=root)
    sharder = SeabedSession(master_key=BOB_KEY, seed=1, cluster=SimulatedCluster(config))
    sharder.create_plan(TableSchema("ledger", COLUMNS), [
        "SELECT sum(amount) FROM ledger WHERE region = 'us'"])
    sharder.shard_table("ledger", "region", num_shards=2)
    sharder.upload("ledger", DATA)
    sharded = sharder.sharded_table("ledger").root
    sharder.close()
    handle = repro.serve(stores=[store], storage_dir=root)
    alice_token = handle.mint_token("alice", tables={"mine"})
    bob_token = handle.mint_token("bob", tables={"theirs", "ledger"})
    alice = RemoteTransport(handle.address, alice_token)
    yield SimpleNamespace(
        root=root, store=store, sharded=sharded, handle=handle, alice=alice,
        alice_token=alice_token, bob_token=bob_token, calls=_calls(store, sharded),
    )
    alice.close()
    handle.stop()


def _state(world) -> tuple:
    """Everything an op could change: bytes on disk and what is hosted."""
    service = world.handle.service
    return (
        _tree_digest(world.root),
        dict(service.server._tables),
        dict(service._sharded_roots),
    )


def _recorded(method: str, args: tuple, kwargs: dict) -> list[tuple[str, dict]]:
    """The requests one client method call sends, without a connection."""
    sent: list[tuple[str, dict]] = []
    transport = RemoteTransport.__new__(RemoteTransport)
    transport._request = lambda op, wire, *, timeout=None: sent.append((op, wire))
    getattr(transport, method)(*args, **kwargs)
    return sent


TABLE_OPS = [op for op in RPC_OPS.values() if op.acl is not no_tables]


class TestSurface:
    def test_client_service_and_table_name_the_same_ops(self):
        client = {
            name for name in dir(RemoteTransport)
            if not name.startswith("_") and callable(getattr(RemoteTransport, name))
        } - {"close"}
        assert client == {op.method for op in RPC_OPS.values()}
        assert [(m, op) for m, op, _ in GOLDEN] == [
            (op.method, name) for name, op in RPC_OPS.items()
        ]
        # Every in-process transport method is reachable over the wire.
        local = {
            name for name in vars(LocalTransport)
            if not name.startswith("_") and callable(getattr(LocalTransport, name))
        }
        assert local == {op.name for op in RPC_OPS.values() if not op.on_service}

    def test_service_dispatches_exactly_the_table(self, world):
        service = world.handle.service
        for name in RPC_OPS:
            try:
                service._run_op("alice", name, {})
            except Exception as exc:  # noqa: BLE001 -- empty args may fail
                assert "unknown service operation" not in str(exc), name
        for name in ("frobnicate", "audit_server", "close", "_run_op"):
            with pytest.raises(TransportError, match="unknown service operation"):
                world.alice._request(name, {})


class TestAccess:
    @pytest.mark.parametrize("op", TABLE_OPS, ids=lambda op: op.name)
    def test_ungranted_tenant_refused_without_side_effect(self, world, op):
        args, kwargs = world.calls[op.name]
        before = _state(world)
        with pytest.raises(AccessError):
            getattr(world.alice, op.method)(*args, **kwargs)
        after = _state(world)
        assert after[0] == before[0]
        assert after[1].keys() == before[1].keys()
        assert all(after[1][k] is before[1][k] for k in before[1])
        assert after[2] == before[2]

    def test_cross_tenant_save_store_overwrite_refused(self, world):
        before = _tree_digest(world.store)
        alice = repro.connect(world.handle.address, world.alice_token,
                              master_key=ALICE_KEY, seed=1)
        _plan(alice, "mine")
        # alice may save under her own name, but not onto bob's store
        own = alice.encrypted_table("mine").save(os.path.join(world.root, "mine"))
        assert os.path.isdir(own)
        with pytest.raises(AccessError, match="theirs"):
            alice.encrypted_table("mine").save(world.store, overwrite=True)
        alice.close()
        assert _tree_digest(world.store) == before
        bob = repro.connect(world.handle.address, world.bob_token,
                            master_key=BOB_KEY, seed=1)
        bob.open_table(world.store)
        got = bob.query("SELECT sum(amount) FROM theirs WHERE region = 'us'")
        assert got.rows[0]["sum(amount)"] == int(DATA["amount"][::2].sum())
        bob.close()


class TestRetry:
    @pytest.mark.parametrize("op", list(RPC_OPS.values()), ids=lambda op: op.name)
    def test_only_idempotent_ops_replay_after_a_dropped_connection(
        self, world, op, monkeypatch
    ):
        transport = RemoteTransport(
            world.handle.address, world.alice_token, retries=3, backoff=0.0
        )
        sent: list[str] = []
        write_frame = codec.write_frame

        def dropping(sock, kind, body):
            if kind != "req":
                return write_frame(sock, kind, body)
            sent.append(body["op"])
            raise ConnectionResetError("connection dropped mid-request")

        monkeypatch.setattr(codec, "write_frame", dropping)
        args, kwargs = world.calls[op.name]
        with pytest.raises(TransportError, match="failed after"):
            getattr(transport, op.method)(*args, **kwargs)
        transport.close()
        assert sent == [op.name] * (3 if op.idempotent else 1)


class TestEnvelope:
    @pytest.mark.parametrize("method, op, keys", GOLDEN, ids=[g[1] for g in GOLDEN])
    def test_request_envelope_is_pinned(self, method, op, keys):
        args, kwargs = _calls("store", "sharded")[op]
        sent = _recorded(method, args, kwargs)
        assert [(name, list(wire)) for name, wire in sent] == [(op, keys)]
        if "batch" in keys:  # ciphertext batches travel in codec.pack_table form
            assert set(sent[0][1]["batch"]) == {"name", "partitions"}
