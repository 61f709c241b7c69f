"""Property-based differential test: the window-frame family vs DuckDB.

Hypothesis generates small tables with duplicate keys (int or string,
about a fifth of them NULL), tied order values, duplicate timestamps
and nulls; every example runs
running_agg / rolling_agg / rolling_time_agg through the real Ray
pipelines and compares row-for-row against DuckDB's window functions.
Aggregate choices are restricted to the documented exact set (int
sums + one IEEE division, selection min/max), so every compare is
bit-exact -- any mismatch is a real semantics bug, not float noise.
"""

import duckdb
import numpy as np
import pandas as pd
import ray.data as rd
from hypothesis import Phase, given, settings, strategies as st

from fluent_plugin_geoip_ray.stages.window import (
    rolling_agg,
    rolling_time_agg,
    running_agg,
)


def _null_keys(rng, keys: np.ndarray, kind: str):
    """``keys`` with about 20% NULLs, as nullable int64 or as strings:
    SQL ``PARTITION BY`` puts every NULL key in one partition."""
    null = rng.random(len(keys)) < 0.2
    if kind == "str":
        return pd.array(np.where(null, None, [f"k{v}" for v in keys]),
                        dtype=object)
    return pd.array(np.where(null, None, keys), dtype="Int64")


@st.composite
def frames(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    nkeys = draw(st.integers(min_value=1, max_value=4))
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": _null_keys(rng, rng.integers(0, nkeys, n),
                        draw(st.sampled_from(["int", "str"]))),
        "o": rng.integers(0, draw(st.integers(1, 5)), n)
             .astype(np.float64),                   # heavy ties
        "iv": rng.integers(-20, 20, n).astype(np.float64),
        "fv": np.round(rng.normal(size=n), 3),
        "tsu": rng.integers(0, 60, n) * 1_000_000,  # dup timestamps, us
    })
    # null ORDER BY values too: SQL sorts them NULLS LAST (numpy lexsort
    # agrees: NaN last) and makes them peers of each other
    for c in ("iv", "fv", "o"):
        df.loc[rng.random(n) < draw(st.floats(0.0, 0.4)), c] = np.nan
    df["ts"] = (np.datetime64("2026-01-01", "us")
                + df["tsu"].to_numpy().astype("timedelta64[us]"))
    w = draw(st.integers(min_value=1, max_value=6))
    delta = draw(st.integers(min_value=0, max_value=30))
    nparts = draw(st.integers(min_value=1, max_value=5))
    return df.drop(columns=["tsu"]), w, delta, nparts


def _duck(df: pd.DataFrame, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("t", df)
    out = con.execute(sql).fetchdf()
    con.close()
    return out.sort_values("id").reset_index(drop=True)


def _ray(res) -> pd.DataFrame:
    return res.to_pandas().sort_values("id").reset_index(drop=True)


def _assert_eq(got: pd.DataFrame, exp: pd.DataFrame, cols: list):
    for c in cols:
        g, e = got[c].to_numpy(), exp[c].to_numpy()
        if g.dtype.kind == "f" or e.dtype.kind == "f":
            ok = np.array_equal(g.astype(np.float64), e.astype(np.float64),
                                equal_nan=True)
        else:
            ok = np.array_equal(g, e)
        assert ok, f"column {c}:\ngot {g[:20]}\nexp {e[:20]}"


# no shrink phase: each example runs 4 Ray pipelines (~1.5 s), so
# shrinking a failure would burn minutes; an unshrunken case reproduces
# fine from the printed blob
@settings(max_examples=12, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(frames())
def test_window_family_matches_duckdb(case):
    df, w, delta, nparts = case

    # iv arrives as float with nulls; an int-typed copy exercises the
    # exact int64 sum lane
    t = df.copy()
    t["iv_i"] = t["iv"].astype("Int64")
    ds = lambda: rd.from_pandas(t).repartition(nparts)  # noqa: E731

    # --- running_agg, deterministic full order (o, id) ---
    got = _ray(running_agg(
        ds(), "k", order_by=["o", "id"],
        aggs=[("iv_i", "sum", "cs"), ("iv_i", "count", "cc"),
              ("fv", "min", "cmin"), ("fv", "max", "cmax"),
              ("", "row_number", "rn"), ("", "ntile:3", "nt"),
              ("fv", "first_value", "fvv")]))
    exp = _duck(t, """
        SELECT id,
               CAST(SUM(iv_i) OVER w AS BIGINT) AS cs,
               CAST(COUNT(iv_i) OVER w AS BIGINT) AS cc,
               MIN(fv) OVER w AS cmin, MAX(fv) OVER w AS cmax,
               ROW_NUMBER() OVER w AS rn, NTILE(3) OVER w AS nt,
               FIRST_VALUE(fv) OVER w AS fvv
        FROM t WINDOW w AS (PARTITION BY k ORDER BY o, id
                            ROWS UNBOUNDED PRECEDING)""")
    _assert_eq(got, exp, ["cs", "cc", "cmin", "cmax", "rn", "nt", "fvv"])

    # --- rank family, tied order (o) -- results depend only on values ---
    got = _ray(running_agg(
        ds(), "k", order_by=["o"],
        aggs=[("", "rank", "r"), ("", "dense_rank", "dr"),
              ("", "percent_rank", "pr"), ("", "cume_dist", "cd")]))
    exp = _duck(t, """
        SELECT id, RANK() OVER w AS r, DENSE_RANK() OVER w AS dr,
               PERCENT_RANK() OVER w AS pr, CUME_DIST() OVER w AS cd
        FROM t WINDOW w AS (PARTITION BY k ORDER BY o)""")
    _assert_eq(got, exp, ["r", "dr", "pr", "cd"])

    # --- rolling_agg, ROWS frame ---
    got = _ray(rolling_agg(
        ds(), "k", order_by=["o", "id"],
        aggs=[("iv_i", "sum", "ms"), ("iv_i", "avg", "ma"),
              ("iv_i", "count", "mc"), ("fv", "min", "mmin"),
              ("fv", "max", "mmax")], window=w))
    exp = _duck(t, f"""
        SELECT id,
               CAST(SUM(iv_i) OVER w AS BIGINT) AS ms,
               AVG(iv_i) OVER w AS ma,
               CAST(COUNT(iv_i) OVER w AS BIGINT) AS mc,
               MIN(fv) OVER w AS mmin, MAX(fv) OVER w AS mmax
        FROM t WINDOW w AS (PARTITION BY k ORDER BY o, id
                            ROWS BETWEEN {w - 1} PRECEDING
                                  AND CURRENT ROW)""")
    _assert_eq(got, exp, ["ms", "ma", "mc", "mmin", "mmax"])

    # --- rolling_time_agg, RANGE frame (peer-inclusive) ---
    got = _ray(rolling_time_agg(
        ds(), "k", "ts",
        aggs=[("iv_i", "count", "tc"), ("iv_i", "sum", "tsum"),
              ("iv_i", "avg", "tavg"), ("fv", "min", "tmin"),
              ("fv", "max", "tmax")], preceding_sec=delta))
    exp = _duck(t, f"""
        SELECT id,
               CAST(COUNT(iv_i) OVER w AS BIGINT) AS tc,
               CAST(SUM(iv_i) OVER w AS BIGINT) AS tsum,
               AVG(iv_i) OVER w AS tavg,
               MIN(fv) OVER w AS tmin, MAX(fv) OVER w AS tmax
        FROM t WINDOW w AS (PARTITION BY k ORDER BY ts
                            RANGE BETWEEN INTERVAL {delta} SECOND PRECEDING
                                  AND CURRENT ROW)""")
    _assert_eq(got, exp, ["tc", "tsum", "tavg", "tmin", "tmax"])
