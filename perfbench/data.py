"""Seeded inputs and the plaintext oracle every answer is checked against.

Two tables:

- ``sales(region, ts, amount)``: ``region`` has 8 values and is planned
  as SPLASHE, ``ts`` is strictly increasing (ORE; sorted, so zone maps
  prune ranges), ``amount`` is an ASHE measure.
- ``users(user, revenue)``: ``user`` has 256 values and is DET (the shard
  key), ``revenue`` is an ASHE measure.
"""

from __future__ import annotations

import numpy as np

MASTER_KEY = b"perfbench-seabed-master-key-32by"
REGIONS = [f"r{i}" for i in range(8)]
USERS = 256
BATCH_ROWS = 256
MAX_TS_GAP = 20


def sales_schema(name: str):
    from repro.core.schema import ColumnSpec, TableSchema

    return TableSchema(name, [
        ColumnSpec("region", dtype="str", sensitive=True, distinct_values=REGIONS),
        ColumnSpec("ts", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
    ])


def sales_samples(name: str) -> list[str]:
    return [
        f"SELECT sum(amount) FROM {name}",
        f"SELECT sum(amount) FROM {name} WHERE region = 'r0'",
        f"SELECT sum(amount), count(*) FROM {name} WHERE ts >= 1 AND ts < 2",
        f"SELECT max(amount) FROM {name}",
        f"SELECT region, sum(amount), count(*) FROM {name} GROUP BY region",
        f"SELECT region, sum(amount), count(*) FROM {name} WHERE ts >= 1 AND ts < 2 "
        "GROUP BY region",
    ]


def users_schema(name: str):
    from repro.core.schema import ColumnSpec, TableSchema

    return TableSchema(name, [
        ColumnSpec("user", dtype="int", sensitive=True),
        ColumnSpec("revenue", dtype="int", sensitive=True, nbits=32),
    ])


def users_samples(name: str) -> list[str]:
    return [
        f"SELECT sum(revenue), count(*) FROM {name} WHERE user = 1",
        f"SELECT user, sum(revenue), count(*) FROM {name} GROUP BY user",
    ]


def sales_rows(rng: np.random.Generator, n: int, ts_start: int) -> dict[str, np.ndarray]:
    """``n`` rows whose ``ts`` continues strictly upwards from ``ts_start``."""
    return {
        "region": rng.choice(np.array(REGIONS), n),
        "ts": ts_start + np.cumsum(rng.integers(1, MAX_TS_GAP, n)).astype(np.int64),
        "amount": rng.integers(0, 1000, n).astype(np.int64),
    }


def users_rows(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    return {
        "user": rng.integers(0, USERS, n).astype(np.int64),
        "revenue": rng.integers(0, 10_000, n).astype(np.int64),
    }


def concat(batches: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    return {k: np.concatenate([b[k] for b in batches]) for k in batches[0]}


# -- oracle ------------------------------------------------------------------------


def _sum(values: np.ndarray) -> int | None:
    return int(values.sum()) if len(values) else None


def _sum_count(values: np.ndarray) -> list[dict]:
    return [{"sum(amount)": _sum(values), "count(*)": int(len(values))}]


def _grouped(keys: np.ndarray, values: np.ndarray, key_name: str,
             measure: str) -> list[dict]:
    rows = []
    for key in np.unique(keys):
        sel = values[keys == key]
        key_value = str(key) if key_name == "region" else int(key)
        rows.append({key_name: key_value, f"sum({measure})": int(sel.sum()),
                     "count(*)": int(len(sel))})
    return rows


def sales_answer(cols: dict[str, np.ndarray], kind: str, params: tuple) -> list[dict]:
    """The plaintext answer to one ``sales`` read of ``kind``."""
    amount, ts, region = cols["amount"], cols["ts"], cols["region"]
    if kind == "sum_all":
        return [{"sum(amount)": _sum(amount)}]
    if kind == "sum_region":
        return [{"sum(amount)": _sum(amount[region == params[0]])}]
    if kind == "range":
        lo, hi = params
        return _sum_count(amount[(ts >= lo) & (ts < hi)])
    if kind == "adhoc":
        return _sum_count(amount[ts < params[0]])
    if kind == "max":
        return [{"max(amount)": int(amount.max())}]
    if kind == "group":
        return _grouped(region, amount, "region", "amount")
    if kind == "window_group":
        sel = (ts >= params[0]) & (ts < params[1])
        return _grouped(region[sel], amount[sel], "region", "amount")
    raise ValueError(f"no oracle for {kind!r}")


def users_answer(cols: dict[str, np.ndarray], kind: str, params: tuple) -> list[dict]:
    user, revenue = cols["user"], cols["revenue"]
    if kind == "point":
        sel = revenue[user == params[0]]
        return [{"sum(revenue)": _sum(sel), "count(*)": int(len(sel))}]
    if kind == "group":
        return _grouped(user, revenue, "user", "revenue")
    raise ValueError(f"no oracle for {kind!r}")


def totals(cols: dict[str, np.ndarray], measure: str) -> list[dict]:
    return [{f"sum({measure})": _sum(cols[measure]), "count(*)": int(len(cols[measure]))}]
