"""The global sort of ``scan.SortedBlocks``: a range exchange on
``exchange.hash_exchange``, checked against DuckDB's ``ORDER BY`` at
several group counts, plus the guard that no operator of the scan family
calls one of Ray's own all-to-all operations."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from fluent_plugin_geoip_ray.stages import exchange
from fluent_plugin_geoip_ray.stages.scan import SortedBlocks

GROUPS = (1, 3, 8)


def _force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(exchange, "cluster_cpus", lambda: cpus)


def _norm(v):
    """A key value that compares equal to itself: NaN and NULL as tags."""
    if v is None:
        return "NULL"
    return "NaN" if v != v else v


def _keys(t: pa.Table, cols) -> list:
    return [tuple(_norm(v) for v in r)
            for r in zip(*(t.column(c).to_pylist() for c in cols))]


def _table(case: str, n: int = 2000) -> pa.Table:
    rng = np.random.default_rng(3)
    s = np.round(rng.normal(size=n), 1)
    if case == "all_equal":
        s[:] = 1.5
    elif case == "skew90":
        s[rng.random(n) < 0.9] = 0.0
    else:                                   # NaN, NULL, -0.0 and 0.0
        s[rng.random(n) < 0.2] = np.nan
        s[rng.random(n) < 0.05] = -0.0
    null = (rng.random(n) < 0.1) if case == "mixed" else None
    t = pa.table({"s": pa.array(s, mask=null),
                  "g": pa.array(rng.integers(0, 4, n)),
                  "id": pa.array(np.arange(n))})
    return t.slice(0, 0) if case == "empty" else t


@pytest.mark.parametrize("case", ["mixed", "empty", "all_equal", "skew90"])
@pytest.mark.parametrize("descending", [False, True])
def test_sorted_blocks_match_duckdb_order_at_every_group_count(
        case, descending, monkeypatch):
    t = _table(case)
    by = [("s", "descending") if descending else "s", "g"]
    con = duckdb.connect()
    con.register("t", t)
    exp = _keys(con.execute(
        f"SELECT s, g FROM t ORDER BY s {'DESC' if descending else 'ASC'} "
        "NULLS LAST, g NULLS LAST").arrow(), ["s", "g"])
    con.close()
    step = max(t.num_rows // 8, 1)
    for groups in GROUPS:
        _force_cpus(monkeypatch, groups)
        blocks = SortedBlocks(rd.from_arrow(
            [t.slice(i, step) for i in range(0, max(t.num_rows, 1), step)]),
            by)
        tables = ray.get(blocks.refs)
        assert len(tables) <= groups
        assert [b.num_rows for b in tables] == blocks.counts.tolist()
        assert blocks.total == t.num_rows
        if not tables:
            continue
        got = pa.concat_tables(tables)
        # every row once, in DuckDB's total order
        assert sorted(got.column("id").to_pylist()) == list(range(t.num_rows))
        assert _keys(got, ["s", "g"]) == exp, groups
        # each key tuple sits in exactly one block
        seen = [set(_keys(b, ["s", "g"])) for b in tables]
        assert sum(map(len, seen)) == len(set().union(*seen)), groups


def test_sorted_blocks_pandas_blocks_and_row_lookup():
    """Pandas blocks sort like Arrow ones; ``row(i)`` is position ``i``."""
    t = _table("mixed", 400)
    blocks = SortedBlocks(rd.from_pandas(
        [t.slice(i, 100).to_pandas() for i in range(0, 400, 100)]), ["s", "g"])
    got = pa.concat_tables(ray.get(blocks.refs))
    assert blocks.total == 400
    for i in (0, 137, 399):
        assert blocks.row(i).column("id")[0] == got.column("id")[i]


def test_scan_family_runs_no_ray_all_to_all(monkeypatch, tmp_path):
    """Every wide step runs on the package's one exchange: with Ray's
    sort, groupby, random_shuffle and repartition raising, the scan
    operators, the sorted sink and the IVF training sample still run."""
    from fluent_plugin_geoip_ray.stages.pack import pack_bins
    from fluent_plugin_geoip_ray.stages.route import write_sorted_sink
    from fluent_plugin_geoip_ray.stages.sample import (
        epoch_shuffle, global_rank, select_top_fraction)
    from fluent_plugin_geoip_ray.stages.similarity import (
        uniform_sample_matrix)
    from fluent_plugin_geoip_ray.stages.window import session_windows

    rng = np.random.default_rng(8)
    n = 400
    score = rng.normal(size=n)
    score[rng.random(n) < 0.2] = np.nan
    t = pa.table({
        "id": pa.array(np.arange(n)),
        "score": pa.array(score),
        "user_id": pa.array(rng.integers(0, 9, n)),
        "ts": pa.array(np.datetime64("2026-01-01", "us")
                       + (rng.integers(0, 3600, n) * 10**6)
                       .astype("timedelta64[us]")),
        "n_tokens": pa.array(rng.integers(1, 50, n)),
        "embedding": pa.array(rng.normal(size=(n, 4)).astype(np.float32)
                              .tolist(), pa.list_(pa.float32())),
    })

    def ds():
        return rd.from_arrow([t.slice(i, 50) for i in range(0, n, 50)])

    def refuse(*_a, **_k):
        raise AssertionError("a Ray all-to-all ran")

    for name in ("sort", "groupby", "random_shuffle", "repartition"):
        monkeypatch.setattr(rd.Dataset, name, refuse)

    assert epoch_shuffle(ds(), "id").count() == n
    assert select_top_fraction(ds(), "score", "id", 0.3).count() == 120
    assert global_rank(ds(), "score", "id", ntile=4).count() == n
    assert pack_bins(ds(), "id", "n_tokens", 100).count() == n
    for limit in (250_000, 0):
        assert session_windows(ds(), key="user_id", gap_sec=60,
                               driver_limit=limit).count() > 0
    write_sorted_sink(ds(), str(tmp_path / "sorted"), keys=("score", "id"))
    assert rd.read_parquet(str(tmp_path / "sorted")).count() == n
    assert uniform_sample_matrix(ds(), "id", "embedding", 16).shape == (16, 4)
