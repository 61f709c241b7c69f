"""Property-based differential test: sessionization vs DuckDB.

The sorted-scan sessionizer is the most intricate distributed piece in
the window family (global sort, per-block run breaks, O(blocks)
boundary-carry, reduceat partials, auto driver/bucketed merge) --
hypothesis feeds it random gap widths, duplicate timestamps, skewed
int or string keys (about a fifth of them NULL, one partition in SQL)
and block splits, and compares against DuckDB's lag + cumulative sum
idiom (the SQL of the ``events_sessions`` oracle).
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd
from hypothesis import Phase, given, settings, strategies as st

from fluent_plugin_geoip_ray.stages.window import session_windows


@st.composite
def session_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(min_value=1, max_value=150))
    nkeys = draw(st.integers(min_value=1, max_value=5))
    # coarse grid so duplicate timestamps and exact-gap ties both occur
    grid = draw(st.sampled_from([1, 5, 30]))
    span = draw(st.integers(min_value=1, max_value=120))
    keys = rng.integers(0, nkeys, n)
    null = rng.random(n) < 0.2
    if draw(st.sampled_from(["int", "str"])) == "str":
        keys = pd.array(np.where(null, None, [f"u{v}" for v in keys]),
                        dtype=object)
    else:
        keys = pd.array(np.where(null, None, keys), dtype="Int64")
    df = pd.DataFrame({
        "user_id": keys,
        "event_id": np.arange(n, dtype=np.int64),
        "ts": (np.datetime64("2026-01-01", "us")
               + (rng.integers(0, span, n) * grid * 10**6)
               .astype("timedelta64[us]")),
    })
    gap = draw(st.integers(min_value=1, max_value=90))
    nparts = draw(st.integers(min_value=1, max_value=5))
    driver_limit = draw(st.sampled_from([250_000, 0]))  # driver / bucketed
    return df, gap, nparts, driver_limit


@settings(max_examples=15, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(session_case())
def test_session_windows_matches_duckdb(case):
    df, gap, nparts, driver_limit = case
    t = pa.Table.from_pandas(df, preserve_index=False)
    step = max(t.num_rows // nparts, 1)
    ds = rd.from_arrow([t.slice(s, step)
                        for s in range(0, t.num_rows, step)])

    got = pa.concat_tables(ray.get(session_windows(
        ds, key="user_id", gap_sec=gap, order_tiebreak="event_id",
        driver_limit=driver_limit).to_arrow_refs()))

    con = duckdb.connect()
    con.register("events", df)
    exp = con.execute(f"""
        WITH x AS (
            SELECT user_id, event_id, ts,
                   CASE WHEN lag(ts) OVER w IS NULL
                             OR ts - lag(ts) OVER w > INTERVAL {gap} SECOND
                        THEN 1 ELSE 0 END AS brk
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ),
        s AS (
            SELECT *, sum(brk) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id
                                     ROWS UNBOUNDED PRECEDING)
                      AS session_idx
            FROM x
        )
        SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
               count(*) AS n_events,
               CAST(min(ts) AS TIMESTAMP) AS ts_min,
               CAST(max(ts) AS TIMESTAMP) AS ts_max
        FROM s GROUP BY user_id, session_idx""").arrow()
    con.close()

    cols = ["user_id", "session_idx", "n_events", "ts_min", "ts_max"]

    def rows(t: pa.Table) -> list:
        return sorted(zip(*(t.column(c).to_pylist() for c in cols)),
                      key=lambda r: (r[0] is None, r[0] or 0, r[1]))

    assert rows(got) == rows(exp)
