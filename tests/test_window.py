"""Window operator tests vs pandas ground truth."""

import numpy as np
import pytest
import pyarrow as pa
import pandas as pd
import ray.data as rd

from fluent_plugin_geoip_ray.stages.window import (
    session_windows,
    sliding_window_counts,
    tumbling_window,
)


def events_df(n=2000, seed=5):
    rng = np.random.default_rng(seed)
    base = np.datetime64("2024-01-01T00:00:00", "us")
    ts = base + np.sort(rng.integers(0, 86_400_000_000, size=n)).astype("timedelta64[us]")
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 20, size=n),
            "ts": ts,
            "value": np.round(rng.random(n) * 10, 2),
        }
    )


def session_windows_groups(ds, key, ts_col="ts", gap_sec=1800,
                           order_tiebreak=None):
    """Referee for :func:`session_windows`: one ``map_groups`` Python call
    per key (sort the key's rows, break on gaps > ``gap_sec``)."""
    gap = np.timedelta64(gap_sec, "s")

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        sort_cols = [ts_col] + ([order_tiebreak] if order_tiebreak else [])
        g = g.sort_values(sort_cols, kind="mergesort")
        ts = g[ts_col].to_numpy()
        brk = np.ones(len(g), dtype=np.int64)
        if len(g) > 1:
            brk[1:] = (np.diff(ts) > gap).astype(np.int64)
        g = g.assign(__sess=np.cumsum(brk))
        out = g.groupby("__sess").agg(
            n_events=(ts_col, "size"), ts_min=(ts_col, "min"), ts_max=(ts_col, "max")
        ).reset_index(names="session_idx")
        out.insert(0, key, g[key].iloc[0])
        # the physical types session_windows emits (BIGINT counters,
        # microsecond timestamps)
        out["session_idx"] = out["session_idx"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        out["ts_min"] = out["ts_min"].astype("datetime64[us]")
        out["ts_max"] = out["ts_max"].astype("datetime64[us]")
        return out

    return ds.groupby(key).map_groups(sessions, batch_format="pandas")


def test_tumbling_window_counts():
    df = events_df()
    out = tumbling_window(
        rd.from_pandas(df), size_sec=3600,
        aggs=[("value", "count", "n"), ("value", "sum", "s")],
    ).to_pandas().set_index("window_start").sort_index()
    epoch = df["ts"].astype("int64")
    exp = df.groupby((epoch // 3_600_000_000) * 3600).agg(
        n=("value", "size"), s=("value", "sum")
    )
    assert (out["n"] == exp["n"]).all()
    assert np.allclose(out["s"], exp["s"])


def test_sliding_window_each_event_in_k_windows():
    df = events_df(200)
    out = sliding_window_counts(
        rd.from_pandas(df), size_sec=3600, step_sec=900
    ).to_pandas()
    assert out["n"].sum() == len(df) * 4  # size/step = 4 windows per event
    # spot-check one event: it appears in exactly the windows covering it
    t = df["ts"].astype("int64").iloc[0] // 1_000_000
    covering = out[(out["window_start"] <= t) & (t < out["window_start"] + 3600)]
    assert len(covering) >= 4


def test_session_windows_vs_pandas():
    df = events_df(800)
    out = session_windows(
        rd.from_pandas(df), key="user_id", gap_sec=1800, order_tiebreak="event_id"
    ).to_pandas()

    # pandas ground truth: lag + cumsum per user
    exp_rows = []
    for uid, g in df.sort_values(["ts", "event_id"]).groupby("user_id"):
        gaps = g["ts"].diff() > pd.Timedelta(seconds=1800)
        sess = gaps.cumsum() + 1
        agg = g.groupby(sess).agg(
            n_events=("ts", "size"), ts_min=("ts", "min"), ts_max=("ts", "max")
        )
        for sidx, row in agg.iterrows():
            exp_rows.append((uid, sidx, row["n_events"], row["ts_min"], row["ts_max"]))
    exp = pd.DataFrame(
        exp_rows, columns=["user_id", "session_idx", "n_events", "ts_min", "ts_max"]
    ).sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    got = out.sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    assert len(got) == len(exp)
    assert (got["n_events"].to_numpy() == exp["n_events"].to_numpy()).all()
    assert (got["ts_min"].to_numpy() == exp["ts_min"].to_numpy()).all()
    assert (got["ts_max"].to_numpy() == exp["ts_max"].to_numpy()).all()


def test_session_scan_matches_groups_impl():
    """The sorted-scan sessionization must equal the per-group reference
    implementation row-for-row (including session_idx numbering)."""
    df = events_df(1500)
    a = (
        session_windows(rd.from_pandas(df), key="user_id", gap_sec=1800,
                        order_tiebreak="event_id")
        .to_pandas().sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    )
    b = (
        session_windows_groups(rd.from_pandas(df), key="user_id", gap_sec=1800,
                               order_tiebreak="event_id")
        .to_pandas().sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(a[b.columns], b)


def test_session_scan_duplicate_key_ts_across_blocks():
    """Duplicate (key, ts) rows split across blocks must not collide in the
    scan's block-identity map (tiebreak column disambiguates)."""
    import pandas as pd

    n = 600
    df = pd.DataFrame({
        "user_id": np.repeat([1, 2, 3], n // 3),
        "ts": pd.to_datetime("2026-01-01")  # EVERY row same timestamp
              + pd.to_timedelta(np.zeros(n), unit="s"),
        "event_id": np.arange(n),
    })
    out = (
        session_windows(rd.from_pandas(df).repartition(10), key="user_id",
                        gap_sec=60, order_tiebreak="event_id")
        .to_pandas().sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    )
    # all rows of a user share one session (gap 0 <= 60s)
    assert len(out) == 3
    assert (out["n_events"] == n // 3).all()


def test_session_scan_string_keys():
    """Round-2 VERDICT gap: string user ids must use the fast scan path and
    match the per-group reference implementation exactly."""
    df = events_df(900)
    df["user_id"] = np.array([f"user-{u:03d}" for u in df["user_id"]])
    a = (
        session_windows(rd.from_pandas(df).repartition(9), key="user_id",
                        gap_sec=1800, order_tiebreak="event_id")
        .to_pandas().sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    )
    b = (
        session_windows_groups(rd.from_pandas(df), key="user_id", gap_sec=1800,
                               order_tiebreak="event_id")
        .to_pandas().sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a[b.columns], b)


def test_session_scan_no_tiebreak_duplicates_across_blocks():
    """Round-2 ADVICE (medium): with order_tiebreak=None, duplicate (key, ts)
    runs spanning block boundaries used to collide in the content-addressed
    block map.  Block identity is positional now, so this must be exact."""
    n = 600
    df = pd.DataFrame({
        "user_id": np.repeat([1, 2, 3], n // 3),
        "ts": pd.to_datetime("2026-01-01")
              + pd.to_timedelta(np.zeros(n), unit="s"),
    })
    out = (
        session_windows(rd.from_pandas(df).repartition(10), key="user_id",
                        gap_sec=60, order_tiebreak=None)
        .to_pandas().sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    )
    assert len(out) == 3
    assert (out["n_events"] == n // 3).all()
    assert (out["session_idx"] == 1).all()


def test_session_scan_empty_input():
    df = events_df(10).iloc[:0]
    out = session_windows(rd.from_pandas(df), key="user_id", gap_sec=60)
    assert out.count() == 0
    # Ray's to_pandas drops columns on 0-row datasets; the schema is the API
    assert out.schema().names == ["user_id", "session_idx", "n_events",
                                  "ts_min", "ts_max"]


def test_session_scan_driver_equals_bucketed_merge():
    """The bucketed hash-exchange final (the 100 TB path) must equal the
    driver merge row-for-row, int and string keys."""
    for as_str in (False, True):
        df = events_df(1200, seed=11)
        if as_str:
            df["user_id"] = np.array([f"u{u:03d}" for u in df["user_id"]])
        a = (
            session_windows(rd.from_pandas(df).repartition(8), key="user_id",
                            gap_sec=1800, order_tiebreak="event_id")
            .to_pandas().sort_values(["user_id", "session_idx"])
            .reset_index(drop=True)
        )
        b = (
            session_windows(rd.from_pandas(df).repartition(8), key="user_id",
                            gap_sec=1800, order_tiebreak="event_id",
                            driver_limit=0)
            .to_pandas().sort_values(["user_id", "session_idx"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b[a.columns])


# --------------------------------------------------------------------------
# rate_limit (first-k per key per tumbling window)
# --------------------------------------------------------------------------

def _rl_tbl(n=1500, seed=3, str_keys=False):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, 25, n).astype(np.int64)
    ts = rng.integers(0, 6 * 3600, n).astype("datetime64[s]").astype(
        "datetime64[us]")
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array([f"u{u}" for u in users] if str_keys
                            else users),
        "ts": pa.array(ts),
    })


def _rl_ref(t, window_sec, k):
    df = t.to_pandas()
    win = (df["ts"].astype("int64") // (window_sec * 1_000_000))
    df = df.assign(__w=win).sort_values(["user_id", "__w", "ts", "event_id"])
    df["__rn"] = df.groupby(["user_id", "__w"]).cumcount()
    return set(df[df["__rn"] < k]["event_id"])


@pytest.mark.parametrize("str_keys", [False, True])
def test_rate_limit_matches_reference(str_keys):
    from fluent_plugin_geoip_ray.stages.window import rate_limit

    t = _rl_tbl(str_keys=str_keys)
    kept = rate_limit(rd.from_arrow(t).repartition(7), "user_id", "ts",
                      window_sec=900, k=2,
                      tie_breakers=["event_id"]).to_pandas()
    assert set(kept["event_id"]) == _rl_ref(t, 900, 2)
    assert set(kept.columns) == {"event_id", "user_id", "ts"}


def test_rate_limit_bucketed_merge_parity():
    from fluent_plugin_geoip_ray.stages.window import rate_limit

    t = _rl_tbl(seed=5)
    auto = rate_limit(rd.from_arrow(t), "user_id", "ts", 900, 3,
                      tie_breakers=["event_id"]).to_pandas()
    forced = rate_limit(rd.from_arrow(t).repartition(9), "user_id", "ts",
                        900, 3, tie_breakers=["event_id"],
                        driver_limit=0).to_pandas()
    assert set(auto["event_id"]) == set(forced["event_id"])


def test_rate_limit_rejects_bad_params():
    from fluent_plugin_geoip_ray.stages.window import rate_limit

    ds = rd.from_arrow(_rl_tbl(n=10))
    with pytest.raises(ValueError):
        rate_limit(ds, "user_id", "ts", 0, 1)
    with pytest.raises(ValueError):
        rate_limit(ds, "user_id", "ts", 60, 0)


# --------------------------------------------------------------------------
# lag_lead_by (per-key navigation functions)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("offset", [1, 2])
def test_lag_lead_matches_pandas_shift(offset):
    from fluent_plugin_geoip_ray.stages.window import lag_lead_by

    rng = np.random.default_rng(6)
    n = 1000
    df = pd.DataFrame({
        "u": rng.integers(0, 30, n).astype(np.int64),
        "ts": rng.permutation(n).astype(np.int64),
        "v": rng.integers(0, 500, n).astype(np.int64),
    })
    out = lag_lead_by(rd.from_pandas(df).repartition(6), "u",
                      order_by=["ts"],
                      cols={"v": ("lag", "prev_v"),
                            "ts": ("lead", "next_ts")},
                      offset=offset).to_pandas() \
        .sort_values(["u", "ts"]).reset_index(drop=True)
    ref = df.sort_values(["u", "ts"]).reset_index(drop=True)
    ref["prev_v"] = ref.groupby("u")["v"].shift(offset)
    ref["next_ts"] = ref.groupby("u")["ts"].shift(-offset)
    for c in ("prev_v", "next_ts"):
        a = pd.array(out[c], dtype="Float64")
        b = pd.array(ref[c], dtype="Float64")
        eq = (a.isna() & b.isna()) | (a == b)
        assert bool(pd.array(eq).fillna(False).all()), (c, offset)


def test_lag_lead_validation():
    from fluent_plugin_geoip_ray.stages.window import lag_lead_by

    ds = rd.from_pandas(pd.DataFrame({"u": [1], "ts": [1], "v": [1]}))
    with pytest.raises(ValueError, match="offset"):
        lag_lead_by(ds, "u", ["ts"], {"v": ("lag", "p")}, offset=0)
    with pytest.raises(ValueError, match="direction"):
        lag_lead_by(ds, "u", ["ts"], {"v": ("sideways", "p")})


def test_funnel_ordered_steps_and_broken_chains():
    import datetime

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import funnel

    def ts(m):
        return datetime.datetime(2026, 1, 1, 0, m)

    rows = [
        # u1: clean funnel a(1) -> b(3) -> c(5)
        ("u1", ts(1), "a"), ("u1", ts(3), "b"), ("u1", ts(5), "c"),
        # u2: b BEFORE a -> chain stops after a (b at 2 not > a at 4)
        ("u2", ts(2), "b"), ("u2", ts(4), "a"),
        # u3: a then c (skips b) -> only t1
        ("u3", ts(1), "a"), ("u3", ts(2), "c"),
        # u4: never does a -> excluded entirely
        ("u4", ts(1), "b"), ("u4", ts(2), "c"),
        # u5: same-ts tie -- strict ordering: b at the SAME minute as a
        # does not count, a later b does
        ("u5", ts(2), "a"), ("u5", ts(2), "b"), ("u5", ts(6), "b"),
        # noise event types are ignored
        ("u1", ts(0), "noise"),
    ]
    t = pa.table({
        "k": pa.array([r[0] for r in rows]),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "e": pa.array([r[2] for r in rows]),
    })
    out = (funnel(rd.from_arrow(t).repartition(4), "k", "ts", "e",
                  steps=["a", "b", "c"])
           .to_pandas().set_index("k").sort_index())
    assert list(out.index) == ["u1", "u2", "u3", "u5"]
    assert out.loc["u1"].tolist() == [ts(1), ts(3), ts(5)]
    assert out.loc["u2", "t1"] == ts(4)
    assert out.loc["u2"].isna().tolist() == [False, True, True]
    assert out.loc["u3"].isna().tolist() == [False, True, True]
    assert out.loc["u5", "t2"] == ts(6)
    # partition invariance
    out1 = (funnel(rd.from_arrow(t), "k", "ts", "e", steps=["a", "b", "c"])
            .to_pandas().set_index("k").sort_index())
    assert out1.equals(out)


def test_dense_tumbling_gap_fill():
    import datetime

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import dense_tumbling

    def ts(h):
        return datetime.datetime(2026, 1, 1, h)

    # key a: events in hours 0, 0, 3 -> dense windows 0..3 with 2,0,0,1
    # key b: one event -> a single window, no fill
    t = pa.table({
        "k": ["a", "a", "a", "b"],
        "ts": pa.array([ts(0), ts(0), ts(3), ts(7)], pa.timestamp("us")),
    })
    out = (dense_tumbling(rd.from_arrow(t).repartition(2), keys=["k"])
           .to_pandas().sort_values(["k", "window_start"])
           .reset_index(drop=True))
    a = out[out["k"] == "a"]
    base = int(pa.scalar(ts(0), pa.timestamp("us")).cast(pa.int64())
               .as_py() // 1_000_000)
    assert a["window_start"].tolist() == [base, base + 3600, base + 7200,
                                          base + 10800]
    assert a["n"].tolist() == [2, 0, 0, 1]
    b = out[out["k"] == "b"]
    assert len(b) == 1 and b["n"].iloc[0] == 1
    import pytest

    with pytest.raises(ValueError, match="at least one key"):
        dense_tumbling(rd.from_arrow(t), keys=[])


def test_dense_tumbling_composite_key():
    """Gap-fill per (k1, k2) group: ranges are independent per composite
    key, including two groups sharing a k1 value and a pair of equal-valued
    key columns (the XOR-cancellation hazard for bucket hashing)."""
    import datetime

    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import dense_tumbling

    def ts(h):
        return datetime.datetime(2026, 1, 1, h)

    t = pa.table({
        "k1": ["a", "a", "a", "a", "b", "b"],
        "k2": ["x", "x", "y", "y", "b", "b"],   # ("b","b"): k1 == k2
        "ts": pa.array([ts(0), ts(2), ts(1), ts(1), ts(4), ts(6)],
                       pa.timestamp("us")),
    })
    out = (dense_tumbling(rd.from_arrow(t).repartition(3),
                          keys=["k1", "k2"])
           .to_pandas().sort_values(["k1", "k2", "window_start"])
           .reset_index(drop=True))
    base = int(pa.scalar(ts(0), pa.timestamp("us")).cast(pa.int64())
               .as_py() // 1_000_000)

    ax = out[(out["k1"] == "a") & (out["k2"] == "x")]
    assert ax["window_start"].tolist() == [base, base + 3600, base + 7200]
    assert ax["n"].tolist() == [1, 0, 1]
    ay = out[(out["k1"] == "a") & (out["k2"] == "y")]
    assert ay["window_start"].tolist() == [base + 3600]
    assert ay["n"].tolist() == [2]
    bb = out[(out["k1"] == "b") & (out["k2"] == "b")]
    assert bb["window_start"].tolist() == [base + 4 * 3600, base + 5 * 3600,
                                           base + 6 * 3600]
    assert bb["n"].tolist() == [1, 0, 1]
    assert len(out) == 7


def test_running_agg_matches_pandas_expanding():
    from fluent_plugin_geoip_ray.stages.window import running_agg

    rng = np.random.default_rng(11)
    n = 3000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 25, size=n),
        "ts": rng.integers(0, 5000, size=n),
        "value": np.where(rng.random(n) < 0.15, np.nan,
                          rng.random(n) * 100),
    })
    out = running_agg(
        rd.from_pandas(df).repartition(6), "user_id",
        order_by=["ts", "event_id"],
        aggs=[("value", "count", "cum_n"),
              ("value", "sum", "cum_sum"),
              ("value", "min", "cum_min"),
              ("value", "max", "cum_max"),
              ("event_id", "sum", "cum_eid"),
              ("", "row_number", "rn"),
              ("", "ntile:4", "tile")],
    ).to_pandas().sort_values("event_id").reset_index(drop=True)

    s = df.sort_values(["user_id", "ts", "event_id"])
    g = s.groupby("user_id")["value"]
    exp = s.assign(
        cum_n=g.expanding().count().droplevel(0).astype(np.int64),
        cum_sum=g.expanding().sum().droplevel(0),
        cum_min=g.expanding().min().droplevel(0),
        cum_max=g.expanding().max().droplevel(0),
        cum_eid=s.groupby("user_id")["event_id"].cumsum(),
        rn=s.groupby("user_id").cumcount().astype(np.int64) + 1,
    ).sort_values("event_id").reset_index(drop=True)
    # pandas expanding().sum() yields 0.0 where no value yet; SQL gives NULL
    exp.loc[exp["cum_n"] == 0, "cum_sum"] = np.nan

    for c in ["cum_n", "cum_eid", "rn"]:
        assert (out[c] == exp[c]).all(), c
    for c in ["cum_sum", "cum_min", "cum_max"]:
        assert np.allclose(out[c], exp[c], equal_nan=True, rtol=0,
                           atol=1e-9), c

    # NTILE contract: within each key, tiles partition rows in rank order,
    # first (n % 4) tiles get ceil(n/4) rows, the rest floor(n/4)
    for _uid, grp in out.groupby("user_id"):
        n_g = len(grp)
        q, r = divmod(n_g, 4)
        sizes = grp.groupby("tile").size()
        expected = {t + 1: (q + 1 if t < r else q)
                    for t in range(4) if (q + 1 if t < r else q) > 0}
        assert sizes.to_dict() == expected
        ranked = grp.sort_values("rn")["tile"].to_numpy()
        assert (np.diff(ranked) >= 0).all()  # tiles follow rank order


def test_running_agg_validation():
    from fluent_plugin_geoip_ray.stages.window import running_agg

    ds = rd.from_pandas(events_df(50))
    with pytest.raises(ValueError, match="unknown agg"):
        running_agg(ds, "user_id", ["ts"], [("value", "median", "m")])
    with pytest.raises(ValueError, match="unknown agg"):
        running_agg(ds, "user_id", ["ts"], [("", "ntile:0", "t")])


def test_running_agg_rank_family_ties():
    from fluent_plugin_geoip_ray.stages.window import running_agg

    rng = np.random.default_rng(31)
    n = 2000
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 15, n),
        "o": rng.integers(0, 8, n),        # heavy ties within each key
    })
    out = running_agg(
        rd.from_pandas(df).repartition(4), "k", order_by=["o"],
        aggs=[("", "rank", "r"), ("", "dense_rank", "dr"),
              ("", "percent_rank", "pr")],
    ).to_pandas()

    s = df.sort_values(["k", "o"])
    exp = s.assign(
        r=s.groupby("k")["o"].rank(method="min").astype(np.int64),
        dr=s.groupby("k")["o"].rank(method="dense").astype(np.int64),
    )
    cnt = s.groupby("k")["o"].transform("size")
    exp["pr"] = np.where(cnt > 1, (exp["r"] - 1) / (cnt - 1), 0.0)

    # rank functions depend only on (k, o), so join on id for row identity
    m = out.set_index("id")[["r", "dr", "pr"]].loc[exp["id"]]
    assert (m["r"].to_numpy() == exp["r"].to_numpy()).all()
    assert (m["dr"].to_numpy() == exp["dr"].to_numpy()).all()
    assert np.array_equal(m["pr"].to_numpy(), exp["pr"].to_numpy())


def test_running_agg_cume_dist_first_value():
    from fluent_plugin_geoip_ray.stages.window import running_agg

    rng = np.random.default_rng(47)
    n = 1500
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 12, n),
        "o": rng.integers(0, 6, n),
        "v": rng.normal(size=n),
    })
    df.loc[rng.random(n) < 0.1, "v"] = np.nan   # FIRST_VALUE keeps nulls
    out = running_agg(
        rd.from_pandas(df).repartition(4), "k", order_by=["o", "id"],
        aggs=[("", "cume_dist", "cd"), ("v", "first_value", "fv")],
    ).to_pandas().set_index("id").loc[df["id"]]

    s = df.sort_values(["k", "o", "id"])
    # (o, id) is unique within k, so every peer group is a single row:
    # cume_dist == row_number / n
    grp = s.groupby("k")
    exp_cd = (grp.cumcount() + 1) / grp["o"].transform("size")
    # literal first row's v, may be NaN (pandas "first" would SKIP NaN;
    # SQL FIRST_VALUE does not)
    exp_fv = grp["v"].transform(lambda x: x.iloc[0])
    exp = s.assign(cd=exp_cd, fv=exp_fv).set_index("id").loc[df["id"]]
    assert np.array_equal(out["cd"].to_numpy(), exp["cd"].to_numpy())
    assert np.allclose(out["fv"].to_numpy(), exp["fv"].to_numpy(),
                       equal_nan=True)

    # tie-aware cume_dist: order by o alone -> whole peer runs share cd
    out2 = running_agg(
        rd.from_pandas(df).repartition(4), "k", order_by=["o"],
        aggs=[("", "cume_dist", "cd")],
    ).to_pandas()
    m = df.merge(out2[["id", "cd"]], on="id")
    cnt_le = m.groupby("k").apply(
        lambda g: pd.Series(
            (g["o"].to_numpy()[None, :] <= g["o"].to_numpy()[:, None])
            .sum(axis=1) / len(g), index=g.index),
        include_groups=False).droplevel(0).sort_index()
    assert np.array_equal(m.sort_index()["cd"].to_numpy(),
                          cnt_le.to_numpy())


def test_rolling_agg_matches_pandas_rolling():
    from fluent_plugin_geoip_ray.stages.window import rolling_agg

    rng = np.random.default_rng(53)
    n = 3000
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 20, n),
        "iv": rng.integers(-50, 50, n),
        "fv": rng.normal(size=n),
    })
    df.loc[rng.random(n) < 0.15, "fv"] = np.nan
    w = 5
    out = rolling_agg(
        rd.from_pandas(df).repartition(4), "k", order_by=["id"],
        aggs=[("iv", "sum", "ms"), ("iv", "avg", "ma"),
              ("fv", "count", "mc"), ("fv", "min", "mmin"),
              ("fv", "max", "mmax")],
        window=w,
    ).to_pandas().set_index("id").sort_index()

    s = df.sort_values(["k", "id"])
    g = s.groupby("k")
    exp = s.assign(
        ms=g["iv"].rolling(w, min_periods=1).sum().droplevel(0),
        ma=g["iv"].rolling(w, min_periods=1).mean().droplevel(0),
        mc=g["fv"].rolling(w, min_periods=1).count().droplevel(0),
        mmin=g["fv"].rolling(w, min_periods=1).min().droplevel(0),
        mmax=g["fv"].rolling(w, min_periods=1).max().droplevel(0),
    ).set_index("id").sort_index()

    assert np.array_equal(out["ms"].to_numpy(), exp["ms"].to_numpy())
    assert np.array_equal(out["ma"].to_numpy(), exp["ma"].to_numpy())
    assert np.array_equal(out["mc"].to_numpy(),
                          exp["mc"].to_numpy().astype(np.int64))
    assert np.allclose(out["mmin"].to_numpy(), exp["mmin"].to_numpy(),
                       equal_nan=True)
    assert np.allclose(out["mmax"].to_numpy(), exp["mmax"].to_numpy(),
                       equal_nan=True)
    # int sums stay int64 (exact vs SQL); window-1 rows at partition
    # heads use the clipped frame (pandas min_periods=1 matches)
    assert out["ms"].dtype == np.int64 or str(out["ms"].dtype) == "Int64"


def test_rolling_agg_all_null_frame_and_validation():
    from fluent_plugin_geoip_ray.stages.window import rolling_agg

    df = pd.DataFrame({
        "id": np.arange(6, dtype=np.int64),
        "k": [1, 1, 1, 1, 1, 1],
        "v": [None, None, None, 3.0, None, None],
    })
    out = rolling_agg(rd.from_pandas(df), "k", ["id"],
                      [("v", "sum", "s"), ("v", "avg", "a"),
                       ("v", "count", "c")], window=2
                      ).to_pandas().set_index("id").sort_index()
    # frames fully null -> NULL sum/avg, count 0; frame catching row 3 -> 3.0
    assert out["c"].tolist() == [0, 0, 0, 1, 1, 0]
    assert out["s"].isna().tolist() == [True, True, True, False, False, True]
    assert out.loc[3, "s"] == 3.0 and out.loc[4, "a"] == 3.0

    ds = rd.from_pandas(df)
    with pytest.raises(ValueError, match="unknown agg"):
        rolling_agg(ds, "k", ["id"], [("v", "median", "m")], window=3)
    with pytest.raises(ValueError, match="window"):
        rolling_agg(ds, "k", ["id"], [("v", "sum", "s")], window=0)


def test_rolling_time_agg_matches_bruteforce_with_peers():
    from fluent_plugin_geoip_ray.stages.window import rolling_time_agg

    rng = np.random.default_rng(61)
    n = 1200
    base = np.datetime64("2026-01-01T00:00:00", "us")
    # coarse second grid -> guaranteed duplicate timestamps (peer groups)
    ts = base + rng.integers(0, 300, n).astype("timedelta64[s]")
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 10, n),
        "ts": ts.astype("datetime64[us]"),
        "iv": rng.integers(-9, 9, n),
    })
    df["fv"] = np.round(rng.normal(size=n), 3)
    delta = 30  # seconds
    out = rolling_time_agg(
        rd.from_pandas(df).repartition(4), "k", "ts",
        [("iv", "count", "c"), ("iv", "sum", "s"), ("iv", "avg", "a"),
         ("fv", "min", "mn"), ("fv", "max", "mx"),
         ("iv", "min", "imn")],
        preceding_sec=delta,
    ).to_pandas().set_index("id").sort_index()

    # brute force with SQL RANGE peer semantics: frame = all rows of my
    # key with ts in [my ts - delta, my ts] -- position-independent
    tus = df["ts"].astype("int64").to_numpy()
    kk = df["k"].to_numpy()
    iv = df["iv"].to_numpy()
    fv = df["fv"].to_numpy()
    ec, es = np.empty(n, np.int64), np.empty(n, np.int64)
    emn, emx = np.empty(n), np.empty(n)
    eimn = np.empty(n, np.int64)
    for i in range(n):
        m = (kk == kk[i]) & (tus >= tus[i] - delta * 1_000_000) \
            & (tus <= tus[i])
        ec[i], es[i] = m.sum(), iv[m].sum()
        emn[i], emx[i] = fv[m].min(), fv[m].max()
        eimn[i] = iv[m].min()
    assert np.array_equal(out["c"].to_numpy(), ec)
    assert np.array_equal(out["s"].to_numpy(), es)
    assert np.array_equal(out["a"].to_numpy(), es / ec)
    assert np.array_equal(out["mn"].to_numpy(), emn)
    assert np.array_equal(out["mx"].to_numpy(), emx)
    assert np.array_equal(out["imn"].to_numpy(), eimn)
    assert out["imn"].dtype == np.int64


def test_rolling_time_agg_null_semantics_and_validation():
    from fluent_plugin_geoip_ray.stages.window import rolling_time_agg

    base = np.datetime64("2026-01-01T00:00:00", "us")
    df = pd.DataFrame({
        "id": np.arange(4, dtype=np.int64),
        "k": [1, 1, 1, 1],
        "ts": base + np.array([0, 10, 100, 110]).astype("timedelta64[s]"),
        "v": [None, 2.0, None, None],
    })
    out = rolling_time_agg(rd.from_pandas(df), "k", "ts",
                           [("v", "count", "c"), ("v", "sum", "s")],
                           preceding_sec=15
                           ).to_pandas().set_index("id").sort_index()
    assert out["c"].tolist() == [0, 1, 0, 0]        # all-null frames -> 0
    assert out["s"].isna().tolist() == [True, False, True, True]

    ds = rd.from_pandas(df)
    with pytest.raises(ValueError, match="unknown agg"):
        rolling_time_agg(ds, "k", "ts", [("v", "median", "m")], 10)
    with pytest.raises(ValueError, match="preceding_sec"):
        rolling_time_agg(ds, "k", "ts", [("v", "sum", "s")], -1)


def test_bucket_hash_type_stable_across_blocks_with_nulls():
    """Round-5 review (critical): an int64 key column with nulls in only
    SOME blocks must not flip hash lanes per block -- key 7's rows in a
    null-free block and a null-containing block must land in ONE bucket
    (one partition), or cumulative aggregates silently split."""
    from fluent_plugin_geoip_ray.stages.window import running_agg

    block_a = pa.table({
        "k": pa.array([7, 7], pa.int64()),           # null-free block
        "o": pa.array([1, 2], pa.int64()),
        "v": pa.array([10.0, 20.0]),
    })
    block_b = pa.table({
        "k": pa.array([7, None], pa.int64()),        # null-carrying block
        "o": pa.array([3, 4], pa.int64()),
        "v": pa.array([30.0, 40.0]),
    })
    out = running_agg(rd.from_arrow([block_a, block_b]), "k",
                      order_by=["o"], aggs=[("v", "sum", "cs")]
                      ).to_pandas().sort_values("o")
    # key 7 is ONE partition: running sums 10, 30, 60
    assert out[out["k"] == 7]["cs"].tolist() == [10.0, 30.0, 60.0]


def test_rolling_agg_extrema_exact_beyond_2_53():
    """Round-5 review: int64 min/max must not round-trip through float64
    (2^53 loss / ArrowInvalid crash) -- snowflake-style IDs are normal
    inputs."""
    from fluent_plugin_geoip_ray.stages.window import rolling_agg

    big = 2**53
    df = pd.DataFrame({
        "id": np.arange(6, dtype=np.int64),
        "k": np.ones(6, dtype=np.int64),
        "v": np.array([big + 1, big + 3, -2**62, big + 5, big + 2, big + 4],
                      dtype=np.int64),
    })
    out = rolling_agg(rd.from_pandas(df), "k", ["id"],
                      [("v", "min", "mn"), ("v", "max", "mx")], window=3
                      ).to_pandas().set_index("id").sort_index()
    exp_mn = [big + 1, big + 1, -2**62, -2**62, -2**62, big + 2]
    exp_mx = [big + 1, big + 3, big + 3, big + 5, big + 5, big + 5]
    assert out["mn"].tolist() == exp_mn
    assert out["mx"].tolist() == exp_mx
    assert out["mn"].dtype == np.int64          # dtype never left int64


def test_running_agg_rank_family_null_order_values_are_peers():
    """Round-5 review: SQL makes NULL order values peers of EACH OTHER;
    NaN != NaN must not split them into singleton peer groups."""
    import duckdb
    from fluent_plugin_geoip_ray.stages.window import running_agg

    df = pd.DataFrame({
        "id": np.arange(8, dtype=np.int64),
        "k": [1, 1, 1, 1, 2, 2, 2, 2],
        "o": [5.0, np.nan, np.nan, 7.0, np.nan, np.nan, np.nan, 1.0],
    })
    out = running_agg(rd.from_pandas(df).repartition(3), "k",
                      order_by=["o"],
                      aggs=[("", "rank", "r"), ("", "dense_rank", "dr"),
                            ("", "percent_rank", "pr"),
                            ("", "cume_dist", "cd")]
                      ).to_pandas().sort_values("id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", df)
    exp = con.execute("""
        SELECT id, RANK() OVER w AS r, DENSE_RANK() OVER w AS dr,
               PERCENT_RANK() OVER w AS pr, CUME_DIST() OVER w AS cd
        FROM t WINDOW w AS (PARTITION BY k ORDER BY o)
        ORDER BY id""").fetchdf()
    con.close()
    for c in ("r", "dr", "pr", "cd"):
        assert np.array_equal(out[c].to_numpy().astype(np.float64),
                              exp[c].to_numpy().astype(np.float64)), c


def test_frame_family_null_and_nan_order_values_match_duckdb():
    """A string order column with NULLs sorts them last (it used to raise
    TypeError in the lexsort), and a float order column keeps NaN and
    NULL apart: NaNs are peers of each other, NULLs of each other, and
    NaN sorts before NULL (SQL ``ASC NULLS LAST``)."""
    import duckdb
    import ray
    from fluent_plugin_geoip_ray.stages.window import lag_lead_by, running_agg

    nan = float("nan")
    t = pa.table({
        "id": pa.array(range(10), pa.int64()),
        "k": pa.array([1, 1, 1, 2, 2, 2, 2, 3, 3, 3], pa.int64()),
        "s": pa.array(["x", None, "y", None, "b", "a", None,
                       "x", None, "y"]),
        "f": pa.array([2.0, None, nan, nan, None, nan, None,
                       None, 1.0, nan], pa.float64()),
    })
    con = duckdb.connect()
    con.register("t", t)

    # lag over a partition with two NULL order values is only defined up
    # to their tie order; both sides sort by (s, id) to pin it
    lag = lag_lead_by(rd.from_arrow(t).repartition(3), "k",
                      order_by=["s", "id"], cols={"id": ("lag", "prev_id")},
                      num_buckets=4)
    lag = pa.concat_tables(ray.get(lag.to_arrow_refs())).sort_by("id")
    exp = con.execute("""
        SELECT id, LAG(id) OVER (PARTITION BY k ORDER BY s NULLS LAST, id)
               AS prev_id
        FROM t ORDER BY id""").arrow()
    assert lag.column("prev_id").to_pylist() == exp.column("prev_id").to_pylist()
    # partition 1 is ["x", NULL, "y"]: x < y < NULL
    assert lag.column("prev_id").to_pylist()[:3] == [None, 2, 0]

    ranks = running_agg(rd.from_arrow(t).repartition(3), "k",
                        order_by=["f"],
                        aggs=[("", "rank", "r"), ("", "dense_rank", "dr"),
                              ("", "cume_dist", "cd")],
                        num_buckets=4)
    ranks = pa.concat_tables(ray.get(ranks.to_arrow_refs())).sort_by("id")
    exp = con.execute("""
        SELECT id, RANK() OVER w AS r, DENSE_RANK() OVER w AS dr,
               CUME_DIST() OVER w AS cd
        FROM t WINDOW w AS (PARTITION BY k ORDER BY f NULLS LAST)
        ORDER BY id""").arrow()
    con.close()
    for c in ("r", "dr", "cd"):
        assert ranks.column(c).to_pylist() == exp.column(c).to_pylist(), c
    # partition 2 is [NaN, NULL, NaN, NULL]: ranks 1,3,1,3, dense 1,2,1,2
    assert ranks.column("r").to_pylist()[3:7] == [1, 3, 1, 3]
    assert ranks.column("dr").to_pylist()[3:7] == [1, 2, 1, 2]


def test_rolling_time_agg_fractional_preceding_sec():
    """Round-5 review: preceding_sec=0.5 must mean half a second, not a
    silent truncation to a peers-only frame."""
    from fluent_plugin_geoip_ray.stages.window import rolling_time_agg

    base = np.datetime64("2026-01-01T00:00:00", "us")
    df = pd.DataFrame({
        "id": np.arange(3, dtype=np.int64),
        "k": [1, 1, 1],
        "ts": base + np.array([0, 400_000, 1_000_000])
                        .astype("timedelta64[us]"),
        "v": np.array([1, 2, 4], dtype=np.int64),
    })
    out = rolling_time_agg(rd.from_pandas(df), "k", "ts",
                           [("v", "sum", "s")], preceding_sec=0.5
                           ).to_pandas().set_index("id").sort_index()
    # frames: [0], [0, 0.4s], [1.0s] (0.4s is 0.6s earlier -- outside)
    assert out["s"].tolist() == [1, 3, 4]


def test_running_agg_nth_value():
    from fluent_plugin_geoip_ray.stages.window import running_agg

    rng = np.random.default_rng(101)
    n = 800
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 10, n),
        "v": rng.normal(size=n),
    })
    df.loc[rng.random(n) < 0.15, "v"] = np.nan   # null-keeping semantics
    out = running_agg(
        rd.from_pandas(df).repartition(4), "k", order_by=["id"],
        aggs=[("v", "nth_value:3", "nv")],
    ).to_pandas().set_index("id").loc[df["id"]]

    s = df.sort_values(["k", "id"])
    rn = s.groupby("k").cumcount() + 1
    third = s.groupby("k")["v"].transform(
        lambda x: x.iloc[2] if len(x) >= 3 else np.nan)
    exp = np.where(rn >= 3, third, np.nan)
    exp = pd.Series(exp, index=s["id"]).loc[df["id"]]
    assert np.allclose(out["nv"].to_numpy(), exp.to_numpy(), equal_nan=True)

    with pytest.raises(ValueError, match="unknown agg"):
        running_agg(rd.from_pandas(df), "k", ["id"],
                    [("v", "nth_value:0", "x")])


def test_ewma_by_matches_reference_loop():
    from fluent_plugin_geoip_ray.stages.window import ewma_by

    rng = np.random.default_rng(113)
    n = 1200
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 12, n),
        "v": rng.normal(size=n),
    })
    df.loc[rng.random(n) < 0.15, "v"] = np.nan
    alpha = 0.3
    out = ewma_by(rd.from_pandas(df).repartition(4), "k", ["id"],
                  "v", alpha=alpha).to_pandas().set_index("id").sort_index()

    # hand-rolled adjust=True, ignore_na=True referee
    exp = np.full(n, np.nan)
    state: dict = {}
    for i in range(n):
        k, v = df["k"].iloc[i], df["v"].iloc[i]
        num, den = state.get(k, (0.0, 0.0))
        if not np.isnan(v):
            num = v + (1 - alpha) * num
            den = 1 + (1 - alpha) * den
            state[k] = (num, den)
        if state.get(k, (0, 0))[1] > 0:
            exp[df["id"].iloc[i]] = state[k][0] / state[k][1]
    assert np.allclose(out["ewma"].to_numpy(), exp, equal_nan=True)

    with pytest.raises(ValueError, match="alpha"):
        ewma_by(rd.from_pandas(df), "k", ["id"], "v", alpha=0.0)
