"""SeabedSession facade: translation cache, batching, back-compat shim."""

import numpy as np
import pytest

from repro.core.proxy import SeabedClient
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import PreparedQuery, SeabedSession, TranslationCache
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.errors import PlanningError, TranslationError
from repro.ops import OPS
from repro.query.builder import col


def _populate(session, n=3000, seed=11):
    rng = np.random.default_rng(seed)
    data = {
        "value": rng.integers(0, 500, n).astype(np.int64),
        "hour": rng.integers(0, 24, n).astype(np.int64),
    }
    schema = TableSchema("events", [
        ColumnSpec("value", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("hour", dtype="int", sensitive=False),
    ])
    session.create_plan(schema, [
        "SELECT sum(value) FROM events WHERE hour > 1",
        "SELECT hour, sum(value) FROM events GROUP BY hour",
    ])
    session.upload("events", data)
    return data


@pytest.fixture()
def sess():
    session = SeabedSession(mode="seabed", seed=5)
    data = _populate(session)
    return session, data


class TestTranslationCache:
    def test_lru_evicts_oldest(self):
        cache = TranslationCache(maxsize=2)
        a, b, c = object(), object(), object()
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a  # refresh "a"
        cache.put("c", c)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") is a
        assert cache.get("c") is c

    def test_zero_size_disables_caching(self):
        cache = TranslationCache(maxsize=0)
        cache.put("k", object())
        assert cache.get("k") is None

    def test_same_shape_translates_once(self, sess):
        session, data = sess
        before = OPS.snapshot()
        for h in range(8):
            got = session.query(
                f"SELECT sum(value) FROM events WHERE hour = {h}"
            ).rows[0]["sum(value)"]
            assert got == int(data["value"][data["hour"] == h].sum()) or got is None
        delta = OPS.delta(before)
        assert delta.get("translate") == 1
        assert delta.get("cache_hit") == 7
        assert session.cache_stats()["hits"] >= 7

    def test_distinct_shapes_get_distinct_entries(self, sess):
        session, _ = sess
        session.query("SELECT sum(value) FROM events WHERE hour = 1")
        session.query("SELECT sum(value) FROM events WHERE hour > 1")
        session.query("SELECT sum(value), count(*) FROM events WHERE hour = 1")
        assert session.cache_stats()["size"] == 3

    def test_expected_groups_is_part_of_the_key(self, sess):
        session, _ = sess
        sql = "SELECT hour, sum(value) FROM events GROUP BY hour"
        r1 = session.query(sql, expected_groups=4)
        r2 = session.query(sql)
        assert session.cache_stats()["size"] == 2
        assert r1.translation.inflation > 1  # 4 groups inflated toward 16 cores
        assert r2.translation.inflation == 1
        assert r1.rows == r2.rows  # inflation is invisible in the results

    def test_replanning_invalidates_cache(self, sess):
        session, data = sess
        session.query("SELECT sum(value) FROM events WHERE hour = 1")
        assert session.cache_stats()["size"] == 1
        # Re-planning replaces the table's encrypted schema: every cached
        # translation is stale and must be dropped.
        schema = session.table_state("events").schema
        session.create_plan(schema, [
            "SELECT sum(value) FROM events WHERE hour > 1",
            "SELECT hour, sum(value) FROM events GROUP BY hour",
        ])
        assert session.cache_stats()["size"] == 0
        got = session.query("SELECT sum(value) FROM events WHERE hour = 1")
        assert got.rows[0]["sum(value)"] == int(
            data["value"][data["hour"] == 1].sum()
        )

    def test_scan_shares_the_cache(self, sess):
        session, data = sess
        before = OPS.snapshot()
        for h in (1, 2, 3):
            rows = session.scan(
                f"SELECT value FROM events WHERE hour = {h}"
            ).rows
            assert len(rows) == int((data["hour"] == h).sum())
        assert OPS.delta(before).get("prepare") == 1


class TestFluentSurface:
    def test_table_builder_is_session_bound(self, sess):
        session, data = sess
        result = (
            session.table("events")
            .where(col("hour") > 20)
            .group_by("hour")
            .sum("value")
            .execute(expected_groups=24)
        )
        assert {r["hour"] for r in result.rows} == {21, 22, 23}
        for row in result.rows:
            assert row["sum(value)"] == int(
                data["value"][data["hour"] == row["hour"]].sum()
            )

    def test_builder_execute_with_params(self, sess):
        session, data = sess
        from repro.query.ast import Param

        result = (
            session.table("events")
            .where(col("hour") == Param("h"))
            .count()
            .execute(h=5)
        )
        assert result.rows[0]["count(*)"] == int((data["hour"] == 5).sum())

    def test_builder_params_use_the_translation_cache(self, sess):
        session, data = sess
        from repro.query.ast import Param

        builder = (
            session.table("events")
            .where(col("hour") == Param("h"))
            .count()
        )
        before = OPS.snapshot()
        for h in (1, 2, 3, 4):
            got = builder.execute(h=h).rows[0]["count(*)"]
            assert got == int((data["hour"] == h).sum())
        delta = OPS.delta(before)
        assert delta.get("translate", 0) <= 1  # one shape, one translation
        # Positional binding follows declaration order too.
        got = builder.execute(6).rows[0]["count(*)"]
        assert got == int((data["hour"] == 6).sum())

    def test_builder_prepare(self, sess):
        session, data = sess
        from repro.query.ast import Param

        prepared = (
            session.table("events")
            .where(col("hour") <= Param("hi"))
            .sum("value")
            .prepare()
        )
        assert isinstance(prepared, PreparedQuery)
        got = prepared.execute(hi=23).rows[0]["sum(value)"]
        assert got == int(data["value"].sum())


class TestQueryManyOverrides:
    def test_per_query_expected_groups(self, sess):
        session, data = sess
        grouped = "SELECT hour, sum(value) FROM events GROUP BY hour"
        flat = "SELECT sum(value) FROM events"
        results = session.query_many([
            (grouped, 4),
            flat,
            (grouped, None),
        ])
        assert results[0].translation.inflation > 1  # inflated toward 16 cores
        assert results[2].translation.inflation == 1
        assert results[0].rows == results[2].rows
        assert results[1].rows[0]["sum(value)"] == int(data["value"].sum())

    def test_flat_queries_unaffected_by_batch_groups(self, sess):
        session, data = sess
        total = int(data["value"].sum())
        results = session.query_many(
            ["SELECT sum(value) FROM events", ("SELECT count(*) FROM events", None)],
            expected_groups=4,
        )
        assert results[0].rows[0]["sum(value)"] == total
        assert results[1].rows[0]["count(*)"] == len(data["value"])

    def test_prepared_instances_in_batch(self, sess):
        session, data = sess
        p_flat = session.prepare("SELECT count(*) FROM events")
        p_param = session.prepare("SELECT count(*) FROM events WHERE hour = :h")
        before = OPS.snapshot()
        results = session.query_many([
            p_flat,
            (p_param, {"h": 3}),
            (p_param, {"h": 9}),
        ])
        assert OPS.delta(before).get("translate", 0) == 0
        assert results[0].rows[0]["count(*)"] == len(data["hour"])
        assert results[1].rows[0]["count(*)"] == int((data["hour"] == 3).sum())
        assert results[2].rows[0]["count(*)"] == int((data["hour"] == 9).sum())

    def test_malformed_batch_items_rejected(self, sess):
        session, _ = sess
        with pytest.raises(TranslationError, match="batch tuples"):
            session.query_many([("a", "b", "c")])
        with pytest.raises(TranslationError, match="expected_groups must be int"):
            session.query_many([("SELECT count(*) FROM events", "four")])
        p = session.prepare("SELECT count(*) FROM events")
        with pytest.raises(TranslationError, match="parameter mapping"):
            session.query_many([(p, 3)])

    def test_threaded_batch_matches_serial(self):
        threaded = SeabedSession(
            mode="seabed", seed=5,
            cluster=SimulatedCluster(ClusterConfig(backend="threads", workers=4)),
        )
        data = _populate(threaded)
        queries = [
            f"SELECT sum(value), count(*) FROM events WHERE hour = {h}"
            for h in range(10)
        ]
        results = threaded.query_many(queries)
        for h, result in enumerate(results):
            mask = data["hour"] == h
            assert result.rows[0]["count(*)"] == int(mask.sum())
            assert result.rows[0]["sum(value)"] == int(data["value"][mask].sum())


class TestBackCompatShim:
    def test_client_is_a_session(self):
        client = SeabedClient(mode="seabed", seed=5)
        assert isinstance(client, SeabedSession)
        data = _populate(client)
        got = client.query("SELECT sum(value) FROM events").rows[0]["sum(value)"]
        assert got == int(data["value"].sum())

    def test_result_types_importable_from_proxy(self):
        from repro.core.proxy import LinRegResult, QueryResult, UploadStats

        assert QueryResult([]).rows == []
        assert UploadStats("t", 0, 0.0, 0).table == "t"
        assert LinRegResult(1.0, 0.0, 1.0, 1, 2).total_time == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(PlanningError, match="unknown client mode"):
            SeabedSession(mode="bogus")

    def test_cluster_config_rejected_at_construction(self):
        with pytest.raises(PlanningError, match=r"SimulatedCluster\(config\)"):
            SeabedSession(cluster=ClusterConfig())

    def test_unplanned_table_raises(self):
        session = SeabedSession(mode="seabed", seed=5)
        with pytest.raises(PlanningError, match="create_plan"):
            session.query("SELECT sum(v) FROM nope")
