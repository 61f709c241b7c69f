"""NULL group keys through the in-bucket group operators, vs DuckDB.

Every operator here sorts a bucket (or a batch) by its group key and
cuts it into key groups.  SQL ``GROUP BY`` / ``PARTITION BY`` put all
NULL keys in ONE group, so each case runs the operator over 300 events
in two blocks whose key is NULL on about a fifth of the rows -- once
with int64 keys, once with string keys -- and compares the rows with
DuckDB's answer.  NaN keys are one group too (the last case).
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from fluent_plugin_geoip_ray.stages.sample import sql_hash_expr


def _events(kind: str):
    rng = np.random.default_rng(17)
    n = 300
    kv = rng.integers(0, 5, n)
    null = rng.random(n) < 0.2
    k = pd.array(np.where(null, None, kv), dtype="Int64")
    if kind == "str":
        k = pd.array(np.where(null, None, [f"u{v}" for v in kv]),
                     dtype=object)
    value = np.round(rng.normal(10, 3, n), 1)               # ties
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "k": k,
        "ts": (np.datetime64("2026-01-01", "us")
               + (rng.integers(0, 7200, n) * 10**6)
               .astype("timedelta64[us]")),
        "event_type": rng.choice(["view", "click", "purchase"], n),
        "value": pd.array(np.where(rng.random(n) < 0.1, None, value),
                          dtype="Float64"),
    })
    t = pa.Table.from_pandas(df, preserve_index=False)
    return t, lambda: rd.from_arrow([t.slice(0, 150), t.slice(150)])


def _sql(t: pa.Table, sql: str) -> pa.Table:
    con = duckdb.connect()
    con.register("t", t)
    out = con.execute(sql).arrow()
    con.close()
    return out


def _rows(tbl, cols) -> list:
    """Rows of ``tbl`` (an Arrow table or a Ray dataset) as tuples,
    sorted with NULLs last."""
    if not isinstance(tbl, pa.Table):
        tbl = pa.concat_tables([b for b in ray.get(tbl.to_arrow_refs())
                                if b.num_rows], promote_options="default")
    rows = list(zip(*(tbl.column(c).to_pylist() for c in cols)))
    return sorted(rows, key=lambda r: [(v is None, v if v is not None
                                        else 0) for v in r])


def _assert_same(got, exp: pa.Table, cols):
    g, e = _rows(got, cols), _rows(exp, cols)
    assert len(g) == len(e)
    assert g == e


def test_string_agg_by_null_key_group():
    from fluent_plugin_geoip_ray.stages.aggregate import string_agg_by

    for kind in ("int", "str"):
        t, ds = _events(kind)
        got = string_agg_by(ds(), "k", "event_type", ["ts", "event_id"],
                            sep="|")
        exp = _sql(t, """SELECT k, string_agg(event_type, '|'
                                              ORDER BY ts, event_id) AS agg,
                                count(*) AS n_parts
                         FROM t GROUP BY k""")
        _assert_same(got, exp, ["k", "agg", "n_parts"])


def test_top_k_by_group_and_compact_latest_null_key_group():
    from fluent_plugin_geoip_ray.stages.aggregate import (
        compact_latest, top_k_by_group)

    for kind in ("int", "str"):
        t, ds = _events(kind)
        got = top_k_by_group(ds(), "k", "value", k=2,
                             tie_breakers=["event_id"])
        exp = _sql(t, """SELECT * FROM t QUALIFY row_number() OVER (
                             PARTITION BY k ORDER BY value DESC NULLS LAST,
                             event_id) <= 2""")
        _assert_same(got, exp, ["k", "event_id"])
        got = compact_latest(ds(), "k", "ts", tie_breakers=["event_id"])
        exp = _sql(t, """SELECT * FROM t QUALIFY row_number() OVER (
                             PARTITION BY k ORDER BY ts DESC, event_id) = 1""")
        _assert_same(got, exp, ["k", "event_id"])


def test_rate_limit_null_key_group():
    from fluent_plugin_geoip_ray.stages.window import rate_limit

    for kind in ("int", "str"):
        t, ds = _events(kind)
        got = rate_limit(ds(), "k", "ts", window_sec=600, k=2,
                         tie_breakers=["event_id"])
        exp = _sql(t, """SELECT * FROM t QUALIFY row_number() OVER (
                             PARTITION BY k, epoch_us(ts) // 600000000
                             ORDER BY ts, event_id) <= 2""")
        _assert_same(got, exp, ["k", "event_id"])


def test_approx_distinct_by_null_key_group():
    from fluent_plugin_geoip_ray.stages.aggregate import approx_distinct_by

    for kind in ("int", "str"):
        t, ds = _events(kind)
        got = _rows(approx_distinct_by(ds(), "k", "event_id"),
                    ["k", "approx_distinct"])
        exp = _rows(_sql(t, """SELECT k, count(DISTINCT event_id) AS n
                               FROM t GROUP BY k"""), ["k", "n"])
        assert [g[0] for g in got] == [e[0] for e in exp]
        for (_k, est), (_k2, n) in zip(got, exp):
            # 3 standard errors of p=11 (1.04 / sqrt(2^11))
            assert abs(est - n) <= 3 * 0.023 * n + 1


def test_quantiles_by_null_key_group_exact_and_sketch():
    from fluent_plugin_geoip_ray.stages.aggregate import quantiles_by

    for kind in ("int", "str"):
        t, ds = _events(kind)
        got = quantiles_by(ds(), "k", "value", qs=(0.5, 0.95), mode="exact")
        exp = _sql(t, """SELECT k, quantile_cont(value, 0.5) AS q50,
                                quantile_cont(value, 0.95) AS q95
                         FROM t GROUP BY k""")
        _assert_same(got, exp, ["k", "q50", "q95"])
        sketch = quantiles_by(ds(), "k", "value", qs=(0.5,), mode="sketch")
        assert [r[0] for r in _rows(sketch, ["k"])] == \
            [r[0] for r in _rows(exp, ["k"])]


def test_winsorize_by_null_key_group():
    from fluent_plugin_geoip_ray.stages.aggregate import winsorize_by

    for kind in ("int", "str"):
        t, ds = _events(kind)
        got = winsorize_by(ds(), "k", "value", lo_q=0.05, hi_q=0.95)
        exp = _sql(t, """SELECT e.event_id,
                                CASE WHEN e.value IS NULL THEN NULL ELSE
                                  least(greatest(e.value, b.lo), b.hi) END
                                  AS value
                         FROM t e JOIN (
                           SELECT k, quantile_cont(value, 0.05) AS lo,
                                  quantile_cont(value, 0.95) AS hi
                           FROM t GROUP BY k) b
                         ON e.k IS NOT DISTINCT FROM b.k""")
        _assert_same(got, exp, ["event_id", "value"])


def test_funnel_null_key_group():
    from fluent_plugin_geoip_ray.stages.window import funnel

    for kind in ("int", "str"):
        t, ds = _events(kind)
        got = funnel(ds(), "k", "ts", "event_type",
                     ["view", "click", "purchase"])
        exp = _sql(t, """
            WITH s1 AS (SELECT k, min(ts) AS t1 FROM t
                        WHERE event_type = 'view' GROUP BY k),
            s2 AS (SELECT s1.k, min(e.ts) AS t2 FROM t e
                   JOIN s1 ON e.k IS NOT DISTINCT FROM s1.k
                   WHERE e.event_type = 'click' AND e.ts > s1.t1
                   GROUP BY s1.k),
            s3 AS (SELECT s2.k, min(e.ts) AS t3 FROM t e
                   JOIN s2 ON e.k IS NOT DISTINCT FROM s2.k
                   WHERE e.event_type = 'purchase' AND e.ts > s2.t2
                   GROUP BY s2.k)
            SELECT s1.k, s1.t1, s2.t2, s3.t3
            FROM s1 LEFT JOIN s2 ON s1.k IS NOT DISTINCT FROM s2.k
                    LEFT JOIN s3 ON s1.k IS NOT DISTINCT FROM s3.k""")
        _assert_same(got, exp, ["k", "t1", "t2", "t3"])


def test_dense_tumbling_null_key_group():
    from fluent_plugin_geoip_ray.stages.window import dense_tumbling

    for kind in ("int", "str"):
        t, ds = _events(kind)
        got = dense_tumbling(ds(), size_sec=600, keys=["k"])
        exp = _sql(t, """
            WITH sparse AS (
              SELECT k, CAST(floor(epoch(ts) / 600) * 600 AS BIGINT)
                          AS window_start, count(*) AS n
              FROM t GROUP BY k, window_start
            ), bounds AS (
              SELECT k, min(window_start) AS lo, max(window_start) AS hi
              FROM sparse GROUP BY k
            ), dense AS (
              SELECT k, CAST(unnest(generate_series(lo, hi, 600)) AS BIGINT)
                          AS window_start
              FROM bounds
            )
            SELECT d.k, d.window_start, COALESCE(s.n, 0) AS n
            FROM dense d LEFT JOIN sparse s
              ON d.k IS NOT DISTINCT FROM s.k
             AND d.window_start = s.window_start""")
        _assert_same(got, exp, ["k", "window_start", "n"])


def test_stratified_sample_null_stratum():
    from fluent_plugin_geoip_ray.stages.sample import stratified_sample

    for kind in ("int", "str"):
        t, ds = _events(kind)
        got = stratified_sample(ds(), "k", "event_id", 0.3)
        exp = _sql(t, f"""
            SELECT * FROM t QUALIFY row_number() OVER (
                PARTITION BY k ORDER BY {sql_hash_expr("event_id")}, event_id)
              <= CAST(ceil(0.3 * count(*) OVER (PARTITION BY k)) AS BIGINT)""")
        _assert_same(got, exp, ["k", "event_id"])


def test_sample_per_group_null_group():
    from fluent_plugin_geoip_ray.stages.sample import sample_per_group

    for kind in ("int", "str"):
        t, ds = _events(kind)
        got = sample_per_group(ds(), "k", "event_id", k=3, seed=11)
        exp = _sql(t, f"""
            SELECT * FROM t QUALIFY row_number() OVER (
                PARTITION BY k ORDER BY {sql_hash_expr("event_id", 11)},
                event_id) <= 3""")
        _assert_same(got, exp, ["k", "event_id"])


def test_sorted_sink_null_keys_every_row_once_nulls_last(tmp_path):
    """Ray's own sort duplicated rows (or raised) when a sampled range
    boundary held a NULL key; the sink sorts through SortedBlocks."""
    from fluent_plugin_geoip_ray.stages.route import write_sorted_sink

    rng = np.random.default_rng(5)
    n = 4000
    conv = np.where(rng.random(n) < 0.3, None, rng.integers(0, 50, n))
    t = pa.table({"conv_id": pa.array(conv, pa.int64()),
                  "turn_idx": pa.array(rng.integers(0, 20, n)),
                  "row": pa.array(np.arange(n))})
    out = str(tmp_path / "sorted")
    write_sorted_sink(rd.from_arrow([t.slice(i, 500)
                                     for i in range(0, n, 500)]), out)
    files = sorted((tmp_path / "sorted").glob("*.parquet"))
    back = pa.concat_tables([pq.read_table(f) for f in files])
    assert sorted(back.column("row").to_pylist()) == list(range(n))
    keys = list(zip(back.column("conv_id").to_pylist(),
                    back.column("turn_idx").to_pylist()))
    assert keys == sorted(keys, key=lambda r: (r[0] is None, r[0] or 0,
                                               r[1]))


def _norm(v):
    """A key value that compares equal to itself: NaN and NULL as tags."""
    if v is None:
        return "NULL"
    return "NaN" if v != v else v


def test_sorted_sink_nan_keys_every_row_once_nan_then_nulls_last(tmp_path):
    """A float sort key with ~30% NaN and ~10% NULL: every row reads back
    once, in DuckDB's ``ORDER BY k NULLS LAST, turn_idx`` (NaN after
    every number, NULL last)."""
    from fluent_plugin_geoip_ray.stages.route import write_sorted_sink

    rng = np.random.default_rng(6)
    n = 4000
    k = np.round(rng.normal(size=n), 1)
    k[rng.random(n) < 0.3] = np.nan
    t = pa.table({"k": pa.array(k, mask=rng.random(n) < 0.1),
                  "turn_idx": pa.array(rng.integers(0, 20, n)),
                  "row": pa.array(np.arange(n))})
    out = str(tmp_path / "sorted")
    write_sorted_sink(rd.from_arrow([t.slice(i, 500)
                                     for i in range(0, n, 500)]), out,
                      keys=("k", "turn_idx"))
    files = sorted((tmp_path / "sorted").glob("*.parquet"))
    back = pa.concat_tables([pq.read_table(f) for f in files])
    assert sorted(back.column("row").to_pylist()) == list(range(n))
    exp = _sql(t, "SELECT k, turn_idx FROM t ORDER BY k NULLS LAST, turn_idx")

    def keys(tbl):
        return [(_norm(a), b) for a, b in zip(tbl.column("k").to_pylist(),
                                              tbl.column("turn_idx")
                                              .to_pylist())]

    assert keys(back) == keys(exp)


def test_session_windows_nan_float_key_over_eight_blocks():
    """Float user keys with ~30% NaN and ~10% NULL over 8 blocks: NaN is
    one partition and NULL another, as in DuckDB's lag + cumulative-sum
    sessions."""
    from fluent_plugin_geoip_ray.stages.window import session_windows

    rng = np.random.default_rng(9)
    n = 400
    key = rng.integers(0, 6, n).astype(float)
    key[rng.random(n) < 0.3] = np.nan
    t = pa.table({
        "user_id": pa.array(key, mask=rng.random(n) < 0.1),
        "event_id": pa.array(np.arange(n)),
        "ts": pa.array(np.datetime64("2026-01-01", "us")
                       + (rng.integers(0, 7200, n) * 10**6)
                       .astype("timedelta64[us]")),
    })
    got = session_windows(rd.from_arrow([t.slice(i, 50)
                                         for i in range(0, n, 50)]),
                          key="user_id", gap_sec=120,
                          order_tiebreak="event_id")
    exp = _sql(t, """
        WITH x AS (
          SELECT user_id, event_id, ts,
                 CASE WHEN lag(ts) OVER w IS NULL
                           OR ts - lag(ts) OVER w > INTERVAL 120 SECOND
                      THEN 1 ELSE 0 END AS brk
          FROM t WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
        s AS (
          SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                   ROWS UNBOUNDED PRECEDING) AS session_idx
          FROM x)
        SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
               count(*) AS n_events, CAST(min(ts) AS TIMESTAMP) AS ts_min,
               CAST(max(ts) AS TIMESTAMP) AS ts_max
        FROM s GROUP BY user_id, session_idx""")
    cols = ["user_id", "session_idx", "n_events", "ts_min", "ts_max"]

    def rows(tbl) -> list:
        if not isinstance(tbl, pa.Table):
            tbl = pa.concat_tables(ray.get(tbl.to_arrow_refs()))
        return sorted(((_norm(r[0]),) + r[1:] for r in zip(
            *(tbl.column(c).to_pylist() for c in cols))), key=repr)

    assert rows(got) == rows(exp)


def test_zscore_flag_null_key_group():
    from fluent_plugin_geoip_ray.stages.aggregate import zscore_flag

    for kind in ("int", "str"):
        t, ds = _events(kind)
        got = zscore_flag(ds(), "k", "value", threshold=1.5)
        exp = _sql(t, """
            SELECT event_id,
                   coalesce(abs(value - avg(value) OVER w)
                            > 1.5 * stddev_pop(value) OVER w, false)
                     AS is_anomaly
            FROM t WINDOW w AS (PARTITION BY k)""")
        _assert_same(got, exp, ["event_id", "is_anomaly"])


def test_session_windows_nan_key_one_partition_across_blocks():
    """NaN equals NaN as a PARTITION BY key: a NaN-key run that spans
    two sorted blocks stays one session."""
    from fluent_plugin_geoip_ray.stages.window import session_windows

    n = 200
    t = pa.table({
        "user_id": pa.array(np.where(np.arange(n) % 2 == 0, np.nan, 1.0)),
        "event_id": pa.array(np.arange(n)),
        "ts": pa.array(np.datetime64("2026-01-01", "us")
                       + (np.arange(n) * 10**6).astype("timedelta64[us]")),
    })
    got = session_windows(rd.from_arrow([t.slice(i, 25)
                                         for i in range(0, n, 25)]),
                          key="user_id", gap_sec=5, order_tiebreak="event_id")
    exp = _sql(t, """
        WITH x AS (
          SELECT user_id, event_id, ts,
                 CASE WHEN lag(ts) OVER w IS NULL
                           OR ts - lag(ts) OVER w > INTERVAL 5 SECOND
                      THEN 1 ELSE 0 END AS brk
          FROM t WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
        SELECT CAST(sum(brk) AS BIGINT) AS n FROM x""")
    assert got.count() == exp.column("n")[0].as_py() == 2
