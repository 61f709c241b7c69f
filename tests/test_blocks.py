"""``exchange.Blocks``, the one handle between a dataset and its block
refs: what its driver gather returns, and how many Ray Data executions
the handle, the sort, the session scan and the iterative fits start.  Also
the gathering operators on a typed 0-row input, checked against DuckDB,
and the fits on an input without rows."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from fluent_plugin_geoip_ray.stages.exchange import Blocks
from fluent_plugin_geoip_ray.stages.scan import SortedBlocks


@pytest.fixture
def executions(monkeypatch):
    """Every Ray Data execution started in this process, as ``(output
    operator, limit)`` pairs (the limit is None unless it is a Limit)."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    seen = []
    real = StreamingExecutor.execute

    def execute(self, dag, *a, **kw):
        seen.append((type(dag).__name__, getattr(dag, "_limit", None)))
        return real(self, dag, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return seen


def _table(n=4000, seed=5) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table({"id": pa.array(np.arange(n)),
                     "s": pa.array(rng.normal(size=n)),
                     "k": pa.array(rng.integers(0, 50, n))})


def _blocks(t: pa.Table, n_blocks=4) -> list:
    step = t.num_rows // n_blocks
    return [t.slice(i * step, step) for i in range(n_blocks)]


def _plus_one(ds):
    """``ds`` with ``id + 1``, lazily (a map the driver pickles by value)."""
    return ds.map_batches(lambda t: t.set_column(
        0, "id", pa.array(t.column("id").to_numpy() + 1)),
        batch_format="pyarrow")


def test_blocks_of_lazy_chain_runs_one_execution_without_schema_rerun(
        executions):
    t = _table()
    ds = _plus_one(rd.from_arrow(_blocks(t)))
    blocks = Blocks.of(ds)
    got = blocks.table()
    assert len(executions) == 1 and executions[0][0] != "LimitOperator", \
        executions
    assert blocks.num_rows == t.num_rows
    assert blocks.counts.tolist() == [1000] * 4
    assert blocks.schema == t.schema
    assert got.column("id").to_pylist() == list(range(1, t.num_rows + 1))


def test_sorted_blocks_over_materialized_input_runs_no_execution(executions):
    ds = rd.from_arrow(_blocks(_table())).materialize()
    executions.clear()
    blocks = SortedBlocks(ds, ["s"])
    assert executions == []
    s = blocks.table().column("s").to_numpy()
    assert len(s) == 4000 and (np.diff(s) >= 0).all()


def test_session_windows_driver_merge_runs_no_execution(executions):
    from fluent_plugin_geoip_ray.stages.window import session_windows

    rng = np.random.default_rng(9)
    n = 3000
    t = pa.table({"user_id": pa.array(rng.integers(0, 40, n)),
                  "ts": pa.array(rng.integers(0, 86_400, n) * 1_000_000,
                                 pa.timestamp("us"))})
    ds = rd.from_arrow(_blocks(t, 6)).materialize()
    executions.clear()
    out = session_windows(ds, "user_id", "ts", gap_sec=600)
    assert executions == []
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute("""
        SELECT user_id, count(*) AS n FROM (
          SELECT user_id, sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                                         ROWS UNBOUNDED PRECEDING) AS sid
          FROM (SELECT user_id, ts,
                  CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                                               ORDER BY ts)
                       <= INTERVAL 600 SECOND THEN 0 ELSE 1 END AS brk
                FROM t))
        GROUP BY user_id, sid ORDER BY user_id, n""").fetchall()
    got = out.to_pandas().sort_values(["user_id", "n_events"])
    assert list(zip(got["user_id"], got["n_events"])) == exp


def _vec_table(n=300, d=8, seed=3) -> pa.Table:
    m = np.random.default_rng(seed).standard_normal((n, d)).astype(np.float32)
    return pa.table({"vec_id": pa.array(np.arange(n)),
                     "embedding": pa.FixedSizeListArray.from_arrays(
                         pa.array(m.ravel()), d).cast(pa.list_(pa.float32()))})


def test_logreg_fit_runs_one_execution(executions):
    from fluent_plugin_geoip_ray.stages.ml import logreg_fit

    t = _table()
    ds = _plus_one(rd.from_arrow(_blocks(t))).map_batches(
        lambda b: b.append_column("y", pa.array(
            (b.column("s").to_numpy() > 0).astype(np.int64))),
        batch_format="pyarrow")
    w = logreg_fit(ds, ["s"], "y", iters=20)
    assert len(executions) == 1, executions
    assert w.shape == (2,) and w[0] > 0


def test_kmeans_fit_maxmin_runs_one_execution(executions):
    from fluent_plugin_geoip_ray.stages.similarity import kmeans_fit

    ds = rd.from_arrow(_blocks(_vec_table(), 3)).map_batches(
        lambda b: b, batch_format="pyarrow")
    cents = kmeans_fit(ds, k=3, iters=3)
    assert len(executions) == 1, executions
    assert cents.shape == (3, 8)


def _logreg(ds):
    from fluent_plugin_geoip_ray.stages.ml import logreg_fit

    return logreg_fit(ds, ["s"], "k")


def _kmeans(init):
    def run(ds):
        from fluent_plugin_geoip_ray.stages.similarity import kmeans_fit

        return kmeans_fit(ds, k=2, iters=2, init=init)
    return run


@pytest.mark.parametrize("fit, t, name", [
    (_logreg, _table().slice(0, 0), "logreg_fit"),
    (_kmeans("maxmin"), _vec_table().slice(0, 0), "kmeans_fit"),
    (_kmeans("sample"), _vec_table().slice(0, 0), "kmeans_fit"),
    (_logreg, _table(), "logreg_fit"),
], ids=["logreg", "kmeans_maxmin", "kmeans_sample", "logreg_filtered_chain"])
def test_fit_on_empty_input_raises(fit, t, name):
    ds = rd.from_arrow(_blocks(t) if t.num_rows else t)
    if t.num_rows:      # a map chain that filters every row out
        ds = ds.map_batches(lambda b: b.slice(0, 0), batch_format="pyarrow")
    with pytest.raises(ValueError, match=f"{name}: empty input"):
        fit(ds)


def test_table_of_pandas_blocks_equals_to_pandas():
    t = _table(600)
    ds = rd.from_pandas([b.to_pandas() for b in _blocks(t, 3)])
    pd.testing.assert_frame_equal(Blocks.of(ds).table().to_pandas(),
                                  ds.to_pandas())


def test_table_of_empty_input_keeps_its_schema():
    empty = _table().slice(0, 0)
    got = Blocks.of(rd.from_arrow(empty)).table()
    assert got.num_rows == 0 and got.schema == empty.schema
    # a Ray map gives a 0-row block no columns: 0 rows, no error
    assert Blocks.of(_plus_one(rd.from_arrow(empty))).table().num_rows == 0
    assert Blocks().dataset().count() == 0


def test_blocks_keep_block_order_and_drop_empty_blocks():
    t = _table(1200)
    parts = _blocks(t, 6)
    parts[2:2] = [t.slice(0, 0)]
    parts.append(t.slice(0, 0))
    blocks = Blocks.of(rd.from_arrow(parts))
    assert blocks.counts.tolist() == [200] * 6
    assert blocks.table().column("id").to_pylist() == list(range(1200))
    assert blocks.sums(lambda b: b.column("id")[0].as_py()) == \
        list(range(0, 1200, 200))
    assert blocks.dataset().take_all() == t.to_pylist()


# ---- the gathering operators on a typed 0-row input ---------------------

DOCS = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                  ("lang", pa.string()), ("n_chars", pa.int64())])
EVENTS = pa.schema([("event_id", pa.int64()), ("event_type", pa.string()),
                    ("value", pa.float64())])


def _profile(ds):
    from fluent_plugin_geoip_ray.stages.aggregate import profile

    return profile(ds.select_columns(["doc_id", "n_chars"]))


def _winsorize(ds):
    from fluent_plugin_geoip_ray.stages.aggregate import winsorize_by

    return winsorize_by(ds, "event_type", "value", lo_q=0.05, hi_q=0.95)


def _stratified(ds):
    from fluent_plugin_geoip_ray.stages.sample import stratified_sample

    return stratified_sample(ds, "lang", "doc_id", 0.3)


def _top_k(ds):
    from fluent_plugin_geoip_ray.stages.aggregate import top_k

    return top_k(ds, "value", 5, tie_breakers=["event_id"])


def _tfidf(ds):
    from fluent_plugin_geoip_ray.stages.text import tfidf

    return tfidf(ds)


def _stratified_sql():
    from fluent_plugin_geoip_ray.stages.sample import sql_hash_expr

    return f"""
        SELECT doc_id, text, lang, n_chars FROM (
          SELECT *, ROW_NUMBER() OVER (PARTITION BY lang
                      ORDER BY {sql_hash_expr("doc_id", 0)}, doc_id) AS rn,
                 count(*) OVER (PARTITION BY lang) AS n
          FROM t)
        WHERE rn <= CAST(ceil(0.3 * n) AS BIGINT)"""


EMPTY_CASES = {
    "profile": (DOCS, _profile, """
        SELECT 'doc_id' AS column, count(*) AS n,
               count(*) - count(doc_id) AS nulls,
               CAST(min(doc_id) AS DOUBLE) AS min,
               CAST(max(doc_id) AS DOUBLE) AS max,
               CAST(sum(doc_id) AS DOUBLE) / count(doc_id) AS mean FROM t
        UNION ALL
        SELECT 'n_chars', count(*), count(*) - count(n_chars),
               CAST(min(n_chars) AS DOUBLE), CAST(max(n_chars) AS DOUBLE),
               CAST(sum(n_chars) AS DOUBLE) / count(n_chars) FROM t"""),
    "winsorize_by": (EVENTS, _winsorize, """
        SELECT e.event_id, e.event_type,
               least(greatest(e.value, b.lo), b.hi) AS value
        FROM t e JOIN (SELECT event_type,
                              quantile_cont(value, 0.05) AS lo,
                              quantile_cont(value, 0.95) AS hi
                       FROM t GROUP BY event_type) b USING (event_type)"""),
    "stratified_sample": (DOCS, _stratified, None),
    "top_k": (EVENTS, _top_k,
              "SELECT * FROM t ORDER BY value DESC, event_id LIMIT 5"),
    "tfidf": (DOCS, _tfidf, r"""
        WITH tok AS (
          SELECT doc_id, unnest(string_split_regex(lower(text), '\s+'))
                 AS token FROM t
        ), tf AS (
          SELECT doc_id, token, count(*) AS tf FROM tok
          WHERE token <> '' GROUP BY doc_id, token
        ), df AS (SELECT token, count(*) AS df FROM tf GROUP BY token)
        SELECT tf.doc_id, tf.token, tf.tf, df.df,
               (SELECT count(*) FROM t) AS n_docs
        FROM tf JOIN df USING (token)"""),
}


@pytest.mark.parametrize("op", sorted(EMPTY_CASES))
def test_gathering_operator_on_empty_input_matches_duckdb(op):
    """A typed 0-row input gives DuckDB's answer over the same empty
    table, with DuckDB's column types: one row per numeric column for
    ``profile``, a typed 0-row result for the other three."""
    schema, run, sql = EMPTY_CASES[op]
    empty = schema.empty_table()
    con = duckdb.connect()
    con.register("t", empty)
    exp = con.execute(sql or _stratified_sql()).arrow()
    con.close()
    got = run(rd.from_arrow(empty))
    got = got if isinstance(got, pa.Table) else Blocks.of(got).table()
    got = got.select(exp.column_names)
    assert got.schema == exp.schema
    if op == "profile":
        got, exp = got.sort_by("column"), exp.sort_by("column")
    assert got.to_pylist() == exp.to_pylist()


def test_top_k_keeps_int_columns_with_nulls_matches_duckdb():
    from fluent_plugin_geoip_ray.stages.aggregate import top_k

    rng = np.random.default_rng(11)
    n = 2000
    t = pa.table({"id": pa.array(np.arange(n)),
                  "v": pa.array(rng.integers(0, 40, n)),
                  "x": pa.array(rng.integers(0, 1000, n),
                                mask=rng.random(n) < 0.3)})
    got = top_k(rd.from_arrow(_blocks(t, 5)), "v", 60, tie_breakers=["id"])
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute("SELECT * FROM t ORDER BY v DESC, id LIMIT 60").arrow()
    con.close()
    assert got.schema == t.schema and not got.schema.metadata
    assert got.to_pylist() == exp.to_pylist()
