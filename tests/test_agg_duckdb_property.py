"""Property-based differential test: grouped aggregates vs DuckDB.

Random multi-block tables with null keys and null values drive
groupby_agg, count_distinct_by,
exact quantiles_by, rollup_agg and group_stats against the equivalent
SQL.  Aggregate sources are integer-valued so sums and averages
compare bit-exact (one IEEE division); quantile_cont interpolation is
numpy 'linear' on both sides.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from hypothesis import Phase, given, settings, strategies as st

from fluent_plugin_geoip_ray.stages.aggregate import (
    count_distinct_by,
    group_stats,
    groupby_agg,
    quantiles_by,
    rollup_agg,
)


@st.composite
def agg_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(min_value=1, max_value=200))
    nk = draw(st.integers(min_value=1, max_value=8))
    df = pd.DataFrame({
        "k": rng.integers(0, nk, n).astype(np.int64),
        "k2": rng.integers(0, 3, n).astype(np.int64),
        "v": rng.integers(-40, 40, n).astype(np.float64),
    })
    df.loc[rng.random(n) < draw(st.floats(0.0, 0.35)), "v"] = np.nan
    nparts = draw(st.integers(min_value=1, max_value=5))
    return df, nparts


def _blocks(df, nparts):
    t = pa.Table.from_pandas(df, preserve_index=False)
    step = max(t.num_rows // nparts, 1)
    return rd.from_arrow([t.slice(s, step)
                          for s in range(0, t.num_rows, step)])


def _duck(df, sql):
    con = duckdb.connect()
    con.register("t", df)
    out = con.execute(sql).fetchdf()
    con.close()
    return out


def _cmp(got, exp, sort_cols, cols):
    got = got.sort_values(sort_cols).reset_index(drop=True)
    exp = exp.sort_values(sort_cols).reset_index(drop=True)
    assert len(got) == len(exp), f"rows {len(got)} vs {len(exp)}"
    for c in cols:
        g = got[c].to_numpy(dtype=np.float64, na_value=np.nan)
        e = exp[c].to_numpy(dtype=np.float64, na_value=np.nan)
        assert np.array_equal(g, e, equal_nan=True), \
            f"column {c}:\ngot {g[:15]}\nexp {e[:15]}"


@settings(max_examples=12, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(agg_case())
def test_aggregate_family_matches_duckdb(case):
    df, nparts = case
    t = df.copy()
    t["iv"] = pd.array(np.where(np.isnan(df["v"]), np.nan, df["v"])
                       ).astype("Int64")  # nullable int view, exact sums

    # --- groupby_agg: the full fn set ---
    got = groupby_agg(_blocks(t, nparts), ["k"],
                      [("iv", "sum", "s"), ("iv", "count", "c"),
                       ("iv", "min", "mn"), ("iv", "max", "mx"),
                       ("iv", "mean", "avg"), ("iv", "count_star", "n")]
                      ).to_pandas()
    exp = _duck(t, """
        SELECT k, SUM(iv) AS s, COUNT(iv) AS c, MIN(iv) AS mn,
               MAX(iv) AS mx, AVG(iv) AS avg, COUNT(*) AS n
        FROM t GROUP BY k""")
    _cmp(got, exp, ["k"], ["s", "c", "mn", "mx", "avg", "n"])

    # --- exact COUNT(DISTINCT) ---
    got = count_distinct_by(_blocks(t, nparts), ["k"], "iv",
                            out_col="d").to_pandas()
    exp = _duck(t, "SELECT k, COUNT(DISTINCT iv) AS d FROM t GROUP BY k")
    _cmp(got, exp, ["k"], ["d"])

    # --- exact per-group quantiles (numpy linear == quantile_cont) ---
    got = quantiles_by(_blocks(t, nparts), "k", "v", qs=(0.25, 0.9),
                       mode="exact").to_pandas()
    exp = _duck(t, """
        SELECT k, quantile_cont(v, 0.25) AS q25, quantile_cont(v, 0.9) AS q90
        FROM t GROUP BY k""")
    exp = exp.rename(columns={"q25": got.columns[1], "q90": got.columns[2]})
    _cmp(got, exp, ["k"], list(got.columns[1:]))

    # --- ROLLUP over (k, k2) ---
    got = rollup_agg(_blocks(t, nparts), ["k", "k2"],
                     [("iv", "sum", "s"), ("iv", "count", "c")]).to_pandas()
    exp = _duck(t, """
        SELECT k, k2, SUM(iv) AS s, COUNT(iv) AS c
        FROM t GROUP BY ROLLUP (k, k2)""")
    _cmp(got, exp, ["k", "k2"], ["s", "c"])

    # --- eventstats (whole-partition stats on every row) ---
    got = group_stats(_blocks(t.reset_index(names="rid"), nparts), ["k"],
                      [("iv", "sum", "gs"), ("iv", "mean", "ga")]
                      ).to_pandas()
    exp = _duck(t.reset_index(names="rid"), """
        SELECT rid, k, SUM(iv) OVER w AS gs, AVG(iv) OVER w AS ga
        FROM t WINDOW w AS (PARTITION BY k)""")
    _cmp(got, exp, ["rid"], ["gs", "ga"])
