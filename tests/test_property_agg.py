"""Property test: groupby_agg over the bucketed exchange == pandas, for
randomized schemas (null string keys, negative ints, empty groups, many
partitions)."""

import hypothesis.strategies as st
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings

from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg


@st.composite
def agg_frames(draw):
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    key_kind = draw(st.sampled_from(["str", "int"]))
    if key_kind == "str":
        pool = ["a", "b", "c", None, "", "dd"]
        keys = rng.choice(len(pool), n)
        k = pd.array([pool[i] for i in keys], dtype="string")
    else:
        k = pd.array(rng.integers(-5, 5, n), dtype="int64")
    v = rng.integers(-1000, 1000, n).astype("int64")
    null_frac = draw(st.floats(0, 0.3))
    vmask = rng.random(n) < null_frac
    vv = pd.array(v, dtype="Int64")
    vv[vmask] = pd.NA
    parts = draw(st.integers(1, 7))
    return pd.DataFrame({"k": k, "v": vv}), parts


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(agg_frames())
def test_groupby_agg_bucketed_matches_pandas(case):
    df, parts = case
    t = pa.Table.from_pandas(df, preserve_index=False)
    out = groupby_agg(rd.from_arrow(t).repartition(parts), ["k"],
                      [("v", "sum", "s"), ("v", "count", "c"),
                       ("v", "min", "lo"), ("v", "max", "hi"),
                       ("v", "count_star", "n")]).to_pandas()
    # SQL SUM of an all-null group is NULL (pandas defaults to 0)
    ref = df.groupby("k", dropna=False).agg(
        s=("v", lambda x: x.sum(min_count=1)), c=("v", "count"),
        lo=("v", "min"), hi=("v", "max"), n=("v", "size")).reset_index()
    assert len(out) == len(ref)
    key = lambda d: d.assign(
        __k=d["k"].astype("string").fillna("\x00NULL")) \
        .sort_values("__k").reset_index(drop=True)
    a, b = key(out), key(ref)
    assert (a["__k"] == b["__k"]).all()
    for c in ("c", "n"):
        assert (a[c].to_numpy() == b[c].to_numpy()).all(), c
    for c in ("s", "lo", "hi"):
        av = pd.array(a[c], dtype="Float64")
        bv = pd.array(b[c], dtype="Float64")
        eq = (av.isna() & bv.isna()) | (av == bv)
        assert bool(pd.array(eq).fillna(False).all()), c


@st.composite
def funnel_frames(draw):
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    keys = rng.integers(0, 12, n)
    steps = ["s1", "s2", "s3"]
    types = rng.choice(steps + ["noise"], n)
    # coarse timestamps force plenty of ties
    ts = rng.integers(0, 40, n).astype("datetime64[m]").astype("datetime64[us]")
    parts = draw(st.integers(1, 6))
    return pd.DataFrame({"k": keys, "ts": ts, "e": types}), steps, parts


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(funnel_frames())
def test_funnel_matches_bruteforce(case):
    df, steps, parts = case
    from fluent_plugin_geoip_ray.stages.window import funnel

    t = pa.Table.from_pandas(df, preserve_index=False)
    out_df = funnel(rd.from_arrow(t).repartition(parts), "k", "ts", "e",
                    steps).to_pandas()

    # brute force
    expect = {}
    for k, g in df.groupby("k"):
        prev = None
        times = []
        for s in steps:
            cand = g[(g["e"] == s)
                     & ((g["ts"] > prev) if prev is not None else True)]
            if len(cand):
                prev = cand["ts"].min()
                times.append(prev)
            else:
                prev = None
                times.append(None)
                # chain broken: all later steps null
                times += [None] * (len(steps) - len(times))
                break
        if times[0] is not None:
            expect[k] = times
    if not expect:
        assert len(out_df) == 0
        return
    out = out_df.set_index("k").sort_index()
    assert sorted(out.index) == sorted(expect)
    for k, times in expect.items():
        got = [None if pd.isna(x) else x for x in out.loc[k].tolist()]
        assert got == [None if x is None else pd.Timestamp(x) for x in times], k


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**31), st.integers(1, 300), st.integers(1, 6))
def test_pivot_counts_matches_pandas(seed, n, parts):
    from fluent_plugin_geoip_ray.stages.aggregate import pivot_counts

    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "k": rng.integers(0, 10, n),
        "e": rng.choice(["x", "y", "z", "w"], n),
    })
    t = pa.Table.from_pandas(df, preserve_index=False)
    out = (pivot_counts(rd.from_arrow(t).repartition(parts), "k", "e",
                        values=["x", "y"], other="other")
           .to_pandas().set_index("k").sort_index())
    for k, g in df.groupby("k"):
        assert out.loc[k, "x"] == (g["e"] == "x").sum()
        assert out.loc[k, "y"] == (g["e"] == "y").sum()
        assert out.loc[k, "other"] == (~g["e"].isin(["x", "y"])).sum()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**31), st.integers(1, 400), st.integers(1, 6))
def test_distinct_rows_matches_pandas(seed, n, parts):
    from fluent_plugin_geoip_ray.stages.aggregate import distinct_rows

    rng = np.random.default_rng(seed)
    pool = ["a", "b", None]
    df = pd.DataFrame({
        "a": pd.array([pool[i] for i in rng.integers(0, 3, n)],
                      dtype="string"),
        "b": pd.array(rng.integers(0, 4, n), dtype="int64"),
    })
    t = pa.Table.from_pandas(df, preserve_index=False)
    out = distinct_rows(rd.from_arrow(t).repartition(parts)).to_pandas()
    got = {(None if pd.isna(a) else a, b)
           for a, b in zip(out["a"], out["b"])}
    want = {(None if pd.isna(a) else a, b)
            for a, b in zip(df["a"], df["b"])}
    assert got == want
