"""Round-5 review regression family: bucket routing must be TYPE-STABLE
across blocks.

An int64 key column with nulls in SOME blocks used to flip the hash lane
per block (null-free block -> int objects, null-carrying block -> float
objects; pandas hashes 138 and 138.0 differently in the object lane), so
one key value was routed to two different buckets: split partitions in
the window family, silently dropped matches in the bucketed joins,
duplicate group rows in the bucketed aggregate merges, and distinct
overcounts in HLL.  Every exchange producer now routes through
exchange.stable_bucket_ids / stable_hash.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd


def _mixed_blocks(nulls_in_second=True):
    """Two blocks sharing int64 keys; the second optionally carries a
    null key (which used to flip its whole block's hash lane)."""
    a = pa.table({
        "k": pa.array([7, 8, 7, 9], pa.int64()),
        "v": pa.array([1.0, 2.0, 3.0, 4.0]),
    })
    second = [7, 8, None, 9] if nulls_in_second else [7, 8, 9, 9]
    b = pa.table({
        "k": pa.array(second, pa.int64()),
        "v": pa.array([10.0, 20.0, 30.0, 40.0]),
    })
    return rd.from_arrow([a, b])


def test_stable_hash_int_lane_ignores_block_null_presence():
    from fluent_plugin_geoip_ray.stages.exchange import stable_hash

    clean = pa.array([138, 7, 9], pa.int64())
    dirty = pa.array([138, None, 7], pa.int64())
    hc, hd = stable_hash(clean), stable_hash(dirty)
    assert hc[0] == hd[0] and hc[1] == hd[2]


def test_groupby_agg_bucketed_with_mixed_null_blocks():
    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg

    out = groupby_agg(_mixed_blocks(), ["k"], [("v", "sum", "s")]).to_pandas()
    # key 7 must be ONE group (1+3+10), not two rows in two buckets
    assert len(out[out["k"] == 7]) == 1
    assert out.set_index("k").loc[7, "s"] == 14.0
    assert out.set_index("k").loc[8, "s"] == 22.0


def test_bucketed_join_with_mixed_null_blocks():
    from fluent_plugin_geoip_ray.stages.join import bucketed_join

    left = _mixed_blocks()                      # nulls in block 2
    right = rd.from_arrow(pa.table({            # null-free right side
        "k": pa.array([7, 8, 9], pa.int64()),
        "name": pa.array(["seven", "eight", "nine"]),
    }))
    out = bucketed_join(left, right, on=["k"]).to_pandas()
    # every non-null left row matches; lane flips used to drop block-2 rows
    assert len(out) == 7
    assert (out[out["k"] == 7]["name"] == "seven").all()
    assert len(out[out["k"] == 7]) == 3


def test_approx_distinct_stable_across_null_carrying_blocks():
    from fluent_plugin_geoip_ray.stages.aggregate import approx_distinct_by

    # same 200 distinct int values in both blocks; block 2 adds one null.
    # A value-lane flip would hash every value two ways -> ~2x estimate.
    vals = np.arange(200, dtype=np.int64)
    a = pa.table({"k": pa.array(np.zeros(200, np.int64)),
                  "v": pa.array(vals)})
    b = pa.table({"k": pa.array(np.zeros(201, np.int64)),
                  "v": pa.array(list(vals) + [None], pa.int64())})
    est = (approx_distinct_by(rd.from_arrow([a, b]), "k", "v")
           .to_pandas()["approx_distinct"].iloc[0])
    assert 170 <= est <= 240     # ~200 +- HLL error, nowhere near 400


def test_running_agg_three_block_lane_mix_matches_pandas():
    from fluent_plugin_geoip_ray.stages.window import running_agg

    rng = np.random.default_rng(71)
    parts = []
    rows = []
    for i in range(3):
        k = rng.integers(0, 5, 50).astype(np.float64)
        if i == 1:
            k[::17] = np.nan                     # null keys in ONE block
        t = pa.table({
            "k": pa.array(pd.array(k).astype("Int64"), pa.int64(),
                          from_pandas=True),
            "o": pa.array(np.arange(i * 50, (i + 1) * 50, dtype=np.int64)),
            "v": pa.array(rng.normal(size=50)),
        })
        parts.append(t)
        rows.append(t.to_pandas())
    out = running_agg(rd.from_arrow(parts), "k", ["o"],
                      [("v", "sum", "cs")]).to_pandas()
    df = pd.concat(rows).sort_values(["k", "o"])
    exp = df.dropna(subset=["k"]).groupby("k")["v"].cumsum()
    got = out.dropna(subset=["k"]).sort_values(["k", "o"])["cs"]
    assert np.allclose(got.to_numpy(), exp.to_numpy())


def test_asof_join_big_with_mixed_null_blocks():
    from fluent_plugin_geoip_ray.stages.join import asof_join, asof_join_big

    rng = np.random.default_rng(83)
    base = np.datetime64("2026-01-01T00:00:00", "us")

    def ev_block(n, with_null):
        k = rng.integers(0, 6, n)
        karr = pa.array(k, pa.int64())
        if with_null:
            karr = pa.array([None if i == 0 else int(x)
                             for i, x in enumerate(k)], pa.int64())
        return pa.table({
            "k": karr,
            "t": pa.array(base + rng.integers(0, 3600, n)
                          .astype("timedelta64[s]").astype("timedelta64[us]")),
            "v": pa.array(rng.normal(size=n)),
        })

    left = [ev_block(40, False), ev_block(40, True), ev_block(40, False)]
    right = [ev_block(25, True), ev_block(25, False)]
    marks = [t.rename_columns(["k", "t", "m"]) for t in right]

    big = asof_join_big(rd.from_arrow(left), rd.from_arrow(marks),
                        on="t", by="k", right_cols={"m": "m"},
                        num_buckets=8).to_pandas()
    # referee: the broadcast path (no bucketing involved)
    small = asof_join(rd.from_arrow(left),
                      pa.concat_tables(marks).to_pandas(),
                      on="t", by="k", right_cols={"m": "m"}).to_pandas()
    sb = big.sort_values(["k", "t", "v"]).reset_index(drop=True)
    ss = small.sort_values(["k", "t", "v"]).reset_index(drop=True)
    assert len(sb) == len(ss)
    assert np.allclose(sb["m"].to_numpy(), ss["m"].to_numpy(),
                       equal_nan=True)


def test_stable_hash_numeric_lanes_all_types():
    from fluent_plugin_geoip_ray.stages.exchange import stable_hash

    # float lane: with/without nulls, same values -> same hashes
    fc = pa.array([1.5, 2.5, 3.5], pa.float64())
    fd = pa.array([1.5, None, 2.5], pa.float64())
    hc, hd = stable_hash(fc), stable_hash(fd)
    assert hc[0] == hd[0] and hc[1] == hd[2]

    # temporal lane
    import numpy as np
    base = np.datetime64("2026-01-01T00:00:00", "us")
    tc = pa.array([base, base + 5], pa.timestamp("us"))
    td = pa.array([base, None, base + 5], pa.timestamp("us"))
    hc, hd = stable_hash(tc), stable_hash(td)
    assert hc[0] == hd[0] and hc[1] == hd[2]

    # bool lane
    bc = pa.array([True, False], pa.bool_())
    bd = pa.array([True, None, False], pa.bool_())
    hc, hd = stable_hash(bc), stable_hash(bd)
    assert hc[0] == hd[0] and hc[1] == hd[2]


def test_date32_and_uint64_keys_work_everywhere():
    """Round-5 second review: the numeric lanes must handle date32/time32
    (no direct int64 cast kernel -- widen first) and uint64 >= 2^63
    (unsafe cast wraps; injective bit reinterpret)."""
    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg
    from fluent_plugin_geoip_ray.stages.exchange import stable_hash
    from fluent_plugin_geoip_ray.stages.window import running_agg

    d = pa.array([1, 2, None, 1], pa.date32())
    h = stable_hash(d)
    assert h[0] == h[3]
    t32 = pa.array([5, 6, 5], pa.time32("s"))
    h = stable_hash(t32)
    assert h[0] == h[2] and h[0] != h[1]
    ub = pa.array([2**63 + 5, 1, 2**63 + 5], pa.uint64())
    h = stable_hash(ub)
    assert h[0] == h[2] and h[0] != h[1]

    # end-to-end: date32 grouping key and uint64 window key
    tbl = pa.table({
        "d": pa.array([1, 1, 2, None], pa.date32()),
        "v": pa.array([1.0, 2.0, 3.0, 4.0]),
    })
    out = groupby_agg(rd.from_arrow(tbl), ["d"], [("v", "sum", "s")]).to_pandas()
    assert len(out) == 3 and sorted(out["s"]) == [3.0, 3.0, 4.0]

    wt = pa.table({
        "k": pa.array([2**63 + 5, 2**63 + 5, 7], pa.uint64()),
        "o": pa.array([1, 2, 1], pa.int64()),
        "v": pa.array([1.0, 2.0, 3.0]),
    })
    w = running_agg(rd.from_arrow(wt), "k", ["o"], [("v", "sum", "cs")]
                    ).to_pandas().sort_values(["o", "cs"])
    assert sorted(w["cs"].tolist()) == [1.0, 3.0, 3.0]


def test_extrema_nan_values_follow_sql_total_order():
    """Round-5 second review: float NaN VALUES (not nulls) -- SQL total
    order (DuckDB-pinned): MAX is NaN once a NaN is in the frame, MIN
    skips NaN unless the frame holds nothing but NaN."""
    from fluent_plugin_geoip_ray.stages.window import (
        rolling_agg,
        running_agg,
    )

    nan = float("nan")
    tbl = pa.table({
        "k": pa.array([1] * 5, pa.int64()),
        "o": pa.array([1, 2, 3, 4, 5], pa.int64()),
        # NaN as a VALUE (null_count == 0), plus one true null
        "v": pa.array(np.array([3.0, nan, 2.0, nan, 0.0])),
    })
    assert tbl.column("v").null_count == 0

    out = rolling_agg(rd.from_arrow(tbl), "k", ["o"],
                      [("v", "min", "mn"), ("v", "max", "mx")], window=2
                      ).to_pandas().set_index("o").sort_index()
    # frames: [3],[3,N],[N,2],[2,N],[N,0] (DuckDB-pinned expectations)
    assert out["mn"].tolist()[0] == 3.0
    assert out["mn"].tolist()[2] == 2.0
    assert np.isnan(out["mx"].tolist()[1]) and np.isnan(out["mx"].tolist()[3])
    assert out["mx"].tolist()[4] == 0.0 or np.isnan(out["mx"].tolist()[4])

    run = running_agg(rd.from_arrow(tbl), "k", ["o"],
                      [("v", "min", "mn"), ("v", "max", "mx")]
                      ).to_pandas().set_index("o").sort_index()
    assert run["mn"].tolist() == [3.0, 3.0, 2.0, 2.0, 0.0]
    assert run["mx"].tolist()[0] == 3.0
    assert all(np.isnan(x) for x in run["mx"].tolist()[1:])


def test_group_stats_empty_input():
    from fluent_plugin_geoip_ray.stages.aggregate import group_stats

    empty = pa.table({"k": pa.array([], pa.int64()),
                      "v": pa.array([], pa.float64())})
    out = group_stats(rd.from_arrow(empty), ["k"], [("v", "sum", "s")])
    # no crash, zero rows (Ray reports no schema for an empty mapped
    # dataset -- nothing to assert beyond emptiness)
    assert out.count() == 0


def test_float_keys_negative_zero_co_buckets():
    """SQL equality: -0.0 = 0.0 -- they must land in one bucket (the
    numeric hash lane hashes bit patterns, which differ)."""
    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg
    from fluent_plugin_geoip_ray.stages.exchange import stable_hash

    h = stable_hash(pa.array([0.0, -0.0, 1.5], pa.float64()))
    assert h[0] == h[1] and h[0] != h[2]

    a = pa.table({"k": pa.array([0.0, 1.5], pa.float64()),
                  "v": pa.array([1.0, 2.0])})
    b = pa.table({"k": pa.array([-0.0, 1.5], pa.float64()),
                  "v": pa.array([10.0, 20.0])})
    out = groupby_agg(rd.from_arrow([a, b]), ["k"], [("v", "sum", "s")]).to_pandas()
    assert len(out) == 2
    assert sorted(out["s"]) == [11.0, 22.0]


def test_float_keys_negative_zero_joins():
    from fluent_plugin_geoip_ray.stages.join import (
        anti_join_big,
        bucketed_join,
        semi_join_big,
    )

    left = rd.from_arrow(pa.table({
        "k": pa.array([-0.0, 1.5, 2.5], pa.float64()),
        "v": pa.array([1.0, 2.0, 3.0]),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([0.0, 1.5], pa.float64()),
        "name": pa.array(["zero", "one-five"]),
    }))
    out = bucketed_join(left, right, on=["k"]).to_pandas()
    assert len(out) == 2 and set(out["name"]) == {"zero", "one-five"}

    semi = semi_join_big(left, right, on="k").to_pandas()
    assert sorted(semi["v"]) == [1.0, 2.0]        # -0.0 matches 0.0
    anti = anti_join_big(left, right, on="k").to_pandas()
    assert anti["v"].tolist() == [3.0]


def test_negative_zero_broadcast_join_distinct_quantiles_eventstats():
    """Round-5 third review: the -0.0 invariant must hold in the
    BROADCAST join (group_stats' stitch path), semi_join_filter,
    distinct_rows, and quantiles_by -- not just the bucketed kernels."""
    from fluent_plugin_geoip_ray.stages.aggregate import (
        distinct_rows,
        group_stats,
        quantiles_by,
    )
    from fluent_plugin_geoip_ray.stages.join import semi_join_filter

    ds = rd.from_arrow(pa.table({
        "k": pa.array([-0.0, 0.0, 1.5], pa.float64()),
        "v": pa.array([1.0, 2.0, 3.0]),
    }))
    # eventstats through the broadcast join: -0.0 row gets the merged
    # zero-group stats, not NULL
    out = group_stats(ds, ["k"], [("v", "sum", "gs")]).to_pandas()
    assert sorted(out["gs"]) == [3.0, 3.0, 3.0]

    # broadcast semi filter
    semi = semi_join_filter(ds, "k", keys=[0.0]).to_pandas()
    assert sorted(semi["v"]) == [1.0, 2.0]

    # SELECT DISTINCT
    d = distinct_rows(ds, cols=["k"]).to_pandas()
    assert len(d) == 2

    # exact per-group quantiles: one zero group
    q = quantiles_by(ds, "k", "v", qs=(0.5,), mode="exact").to_pandas()
    assert len(q) == 2
    zero_row = q[q["k"] == 0.0]
    assert float(zero_row.iloc[0, 1]) == 1.5   # median of {1, 2}


def test_stable_bucket_ids_equal_key_columns_spread():
    """Two key columns holding EQUAL values must still spread over the
    buckets (an XOR combine maps every such row to bucket 0), while
    single-key ids stay ``stable_hash(col) % B``."""
    from fluent_plugin_geoip_ray.stages.exchange import (
        stable_bucket_ids,
        stable_hash,
    )

    ints = pa.array(range(1000), pa.int64())
    strs = pa.array([f"conv-{i}" for i in range(1000)])
    for col in (ints, strs):
        t = pa.table({"a": col, "b": col})
        multi = stable_bucket_ids(t, ["a", "b"], 32)
        assert len(np.unique(multi)) > 1
        single = stable_bucket_ids(t, ["a"], 32)
        assert single.dtype == np.int32
        assert np.array_equal(single, (stable_hash(col) % 32).astype(np.int32))
