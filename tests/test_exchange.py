"""Direct tests for hash_exchange -- the substrate under every bucketed
join / dedup / aggregate path.

The exchange runs ``min(num_buckets, cluster CPUs)`` reduce tasks, so each
test runs once per forced CPU count in ``CPUS``: one group, three groups,
and at least one CPU per bucket (one bucket per group)."""

import logging
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from fluent_plugin_geoip_ray.stages import exchange
from fluent_plugin_geoip_ray.stages.exchange import hash_exchange

CPUS = (1, 3, 1 << 20)


def _force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(exchange, "cluster_cpus", lambda: cpus)


def _arrow(ds) -> pa.Table:
    """The dataset's blocks concatenated in block order."""
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _bucket_of(keys, num_buckets):
    return (pd.util.hash_array(np.asarray(keys).astype(np.uint64))
            % num_buckets).astype(np.int32)


def _bucketed_table(n=5000, num_buckets=8, seed=0, with_strings=True):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 97, n)
    t = {
        "k": pa.array(keys.astype(np.int64)),
        "v": pa.array(rng.integers(0, 1000, n).astype(np.int64)),
        "__bucket": pa.array(_bucket_of(keys, num_buckets)),
    }
    if with_strings:
        t["s"] = pa.array([f"s{i % 13}" if i % 29 else None
                           for i in range(n)])
    return pa.table(t)


@pytest.mark.parametrize("num_buckets", [1, 8])
def test_exchange_partitions_exactly_once(num_buckets, monkeypatch):
    t = _bucketed_table(num_buckets=num_buckets)

    def tag(g: pa.Table) -> pa.Table:
        # reduce fn sees the COMPLETE bucket: every k must map to one call
        return pa.table({
            "k": g.column("k"),
            "v": g.column("v"),
            "s": g.column("s"),
            "n_in_bucket": pa.array(
                np.full(g.num_rows, g.num_rows, np.int64)),
        })

    src = t.to_pandas().drop(columns="__bucket")
    b = src.sort_values(["k", "v", "s"], na_position="last") \
        .reset_index(drop=True)
    for cpus in CPUS:
        _force_cpus(monkeypatch, cpus)
        out = hash_exchange(rd.from_arrow(t).repartition(7), num_buckets,
                            tag).to_pandas()
        # no row lost or duplicated
        a = out[["k", "v", "s"]].sort_values(["k", "v", "s"],
                                             na_position="last") \
            .reset_index(drop=True)
        assert a.equals(b), cpus
        # co-location: each key appears in exactly one reduce call, so
        # every row of a key shares one n_in_bucket value
        per_key = out.groupby("k")["n_in_bucket"].nunique()
        assert (per_key == 1).all(), cpus


def test_exchange_empty_buckets_emit_no_block(monkeypatch):
    # all rows in bucket 0 of 16 -> reduce fn runs once, and only the
    # group holding bucket 0 emits a block
    t = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                  "__bucket": pa.array([0, 0, 0], pa.int32())})

    def fn(g: pa.Table) -> pa.Table:
        # per-bucket fns never see 0-row input (map_groups semantics)
        assert g.num_rows > 0
        return g

    for cpus in CPUS:
        _force_cpus(monkeypatch, cpus)
        out = hash_exchange(rd.from_arrow(t), 16, fn)
        assert out.count() == 3
        assert out.num_blocks() == 1, cpus


def test_exchange_zero_row_premap_blocks_flow_as_sentinels(monkeypatch):
    # a 0-row block skips upstream map UDFs and arrives WITHOUT __bucket;
    # the exchange must pass it through silently
    t = _bucketed_table(n=100, num_buckets=4)
    empty = pa.table({"other": pa.array([], pa.string())})
    for cpus in CPUS:
        _force_cpus(monkeypatch, cpus)
        ds = rd.from_arrow(t).union(rd.from_arrow(empty))
        out = hash_exchange(ds, 4, lambda g: g)
        assert out.count() == 100, cpus


def test_exchange_nonempty_block_missing_bucket_raises(monkeypatch):
    t = pa.table({"k": pa.array([1], pa.int64())})
    for cpus in CPUS:
        _force_cpus(monkeypatch, cpus)
        with pytest.raises(Exception, match="__bucket"):
            hash_exchange(rd.from_arrow(t), 4, lambda g: g).materialize()


def test_exchange_accepts_pandas_blocks(monkeypatch):
    # upstream pandas-format maps produce pandas internal blocks
    t = _bucketed_table(n=500, num_buckets=4, with_strings=False)
    for cpus in CPUS:
        _force_cpus(monkeypatch, cpus)
        ds = rd.from_arrow(t).map_batches(lambda df: df,
                                          batch_format="pandas")
        out = hash_exchange(ds, 4, lambda g: g)
        assert out.count() == 500, cpus


def test_exchange_output_identical_across_group_counts(monkeypatch):
    """With 8 buckets, the output read in block order is the same table,
    row order included, for one group, three groups and eight: the rows
    of bucket 0, then bucket 1, ..., each bucket in input order.  Every
    reduce fn call receives exactly one whole bucket."""
    nb = 8
    t = _bucketed_table(n=3000, num_buckets=nb)
    sizes = np.bincount(t.column("__bucket").to_numpy(), minlength=nb)

    def whole_bucket(g: pa.Table) -> pa.Table:
        # (inlines _bucket_of: a worker cannot import this test module)
        keys = g.column("k").to_numpy().astype(np.uint64)
        b = np.unique(pd.util.hash_array(keys) % nb)
        assert len(b) == 1 and g.num_rows == sizes[b[0]]
        return g

    order = np.argsort(t.column("__bucket").to_numpy(), kind="stable")
    expected = t.take(pa.array(order)).drop_columns(["__bucket"])
    for cpus in CPUS:
        _force_cpus(monkeypatch, cpus)
        out = hash_exchange(rd.from_arrow(t).repartition(7), nb, whole_bucket)
        assert out.num_blocks() == min(nb, cpus)
        assert _arrow(out).equals(expected), cpus


def _report_line(caplog):
    lines = [r.getMessage() for r in caplog.records
             if r.name == exchange.__name__ and r.levelno == logging.DEBUG]
    assert len(lines) == 1, lines
    m = re.search(r"(\d+) buckets \((\d+) non-empty\), (\d+) reduce tasks.*"
                  r", (\d+) rows, (\d+) bytes; rows per bucket min/median/max "
                  r"(\d+)/([\d.]+)/(\d+)", lines[0])
    assert m, lines[0]
    return [float(x) for x in m.groups()]


def test_exchange_report_counts_and_skew_warning(monkeypatch, caplog):
    """One DEBUG line with the true per-bucket counts; a WARNING when one
    bucket holds 90% of the rows, none on uniform input."""
    nb = 8
    rng = np.random.default_rng(3)
    uniform = np.arange(4000) % nb
    skewed = np.where(rng.random(4000) < 0.9, 5, rng.integers(0, nb, 4000))
    for cpus in CPUS:
        _force_cpus(monkeypatch, cpus)
        for buckets, warns in ((uniform, False), (skewed, True)):
            t = pa.table({"k": pa.array(np.arange(len(buckets)), pa.int64()),
                          "v": pa.array(np.ones(len(buckets)), pa.float64()),
                          "__bucket": pa.array(buckets.astype(np.int32))})
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger=exchange.__name__):
                hash_exchange(rd.from_arrow(t).repartition(5), nb,
                              lambda g: g).materialize()
            rows = np.bincount(buckets, minlength=nb)
            rows = rows[rows > 0]
            # two fixed-width columns without nulls: 16 bytes a row
            assert _report_line(caplog) == [
                nb, len(rows), min(nb, cpus), rows.sum(), 16 * rows.sum(),
                rows.min(), np.median(rows), rows.max()]
            warned = [r for r in caplog.records
                      if r.name == exchange.__name__
                      and r.levelno == logging.WARNING]
            assert len(warned) == int(warns), (cpus, warns)


def test_exchange_retry_after_worker_killed_in_reduce_fn(monkeypatch,
                                                         tmp_path):
    """A worker dies inside the reduce fn on its first call; Ray retries
    the reduce task, which re-runs every bucket of its group, and the
    output equals the fault-free output row for row."""
    t = _bucketed_table(n=2000, num_buckets=8)
    marker = str(tmp_path / "killed")

    def die_once(g: pa.Table) -> pa.Table:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return g
        os._exit(1)

    _force_cpus(monkeypatch, 3)
    clean = _arrow(hash_exchange(rd.from_arrow(t).repartition(7), 8,
                                 lambda g: g))
    faulty = _arrow(hash_exchange(rd.from_arrow(t).repartition(7), 8,
                                  die_once))
    assert os.path.exists(marker)
    assert faulty.equals(clean)


def test_exchange_retry_after_worker_killed_in_split(monkeypatch, tmp_path):
    """A worker dies inside a split task on its first call; Ray retries
    the split task and the output equals the fault-free output row for
    row."""
    t = _bucketed_table(n=2000, num_buckets=8)
    marker = str(tmp_path / "killed")

    @ray.remote
    def split_dies_once(*args):
        from fluent_plugin_geoip_ray.stages import exchange as ex

        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return ex._split._function(*args)
        os._exit(1)

    _force_cpus(monkeypatch, 3)
    clean = _arrow(hash_exchange(rd.from_arrow(t).repartition(7), 8,
                                 lambda g: g))
    monkeypatch.setattr(exchange, "_split", split_dies_once)
    faulty = _arrow(hash_exchange(rd.from_arrow(t).repartition(7), 8,
                                  lambda g: g))
    assert os.path.exists(marker)
    assert faulty.equals(clean)


def test_hash_bucket_equals_stable_bucket_ids():
    """dedup's ``_hash_bucket`` routes integer values exactly as
    ``stable_bucket_ids`` routes the same values as a key column, so the
    one-input ``__xb`` routes and the keyed co-groups agree."""
    from fluent_plugin_geoip_ray.stages.dedup import _hash_bucket

    i64 = np.iinfo(np.int64)
    v = np.r_[np.random.default_rng(11).integers(i64.min, i64.max, 50_000),
              [0, 1, -1, i64.min, i64.max, i64.min + 1]].astype(np.int64)
    for nb in (1, 7, 32, 64):
        for col in (v, v.astype(np.int32)):
            got = exchange.stable_bucket_ids(pa.table({"k": col}), ["k"], nb)
            assert np.array_equal(_hash_bucket(col, nb), got), (nb, col.dtype)


# ---- co-group: several inputs, each bucketed over its own keys ----------

def _cogroup_inputs(n=3000, nb=8, seed=5):
    """Left keyed by ``k`` (int64) in every bucket but 3, right keyed by
    ``rk`` (int32) in buckets 0-3 only: bucket 3 holds right rows only
    and buckets 4-7 left rows only."""
    rng = np.random.default_rng(seed)
    keys = np.arange(400)
    b = exchange.stable_bucket_ids(pa.table({"k": keys}), ["k"], nb)
    left = pa.table({"k": pa.array(rng.choice(keys[b != 3], n), pa.int64()),
                     "v": pa.array(np.arange(n), pa.int64()),
                     "s": pa.array([f"s{i % 7}" for i in range(n)])})
    right = pa.table({"rk": pa.array(rng.choice(keys[b <= 3], n // 2),
                                     pa.int32()),
                      "w": pa.array(rng.random(n // 2), pa.float64())})
    return left, right


def _cogroup_probe(lschema, rschema, nb):
    """A co-group fn that checks each side's schema and that all its rows
    share one bucket, and returns (bucket, left v's, right w's)."""
    def probe(left: pa.Table, right: pa.Table) -> pa.Table:
        from fluent_plugin_geoip_ray.stages.exchange import stable_bucket_ids

        assert left.schema.equals(lschema), left.schema
        assert right.schema.equals(rschema), right.schema
        b = np.unique(np.r_[stable_bucket_ids(left, ["k"], nb),
                            stable_bucket_ids(right, ["rk"], nb)])
        assert len(b) == 1, b
        return pa.table({
            "b": pa.array(b, pa.int32()),
            "v": pa.array([left.column("v").to_pylist()],
                          pa.list_(pa.int64())),
            "w": pa.array([right.column("w").to_pylist()],
                          pa.list_(pa.float64()))})

    return probe


def _cogroup_expected(left, right, nb):
    """One row per bucket where either side has rows, in bucket order:
    the bucket's left v's and right w's in input order."""
    lb = exchange.stable_bucket_ids(left, ["k"], nb)
    rb = exchange.stable_bucket_ids(right, ["rk"], nb)
    rows = []
    for j in range(nb):
        v = left.column("v").filter(pa.array(lb == j)).to_pylist()
        w = right.column("w").filter(pa.array(rb == j)).to_pylist()
        if v or w:
            rows.append({"b": j, "v": v, "w": w})
    return rows


def test_cogroup_hands_each_call_one_bucket_of_every_side(monkeypatch):
    """Every call gets exactly its bucket's rows of both sides in shard
    (input) order; a side without rows in the bucket arrives as a 0-row
    table with that side's schema -- also when the side has no rows at
    all, and with 0-row pre-map blocks mixed into either side.  The
    output is the same for every group count."""
    nb = 8
    left, right = _cogroup_inputs(nb=nb)
    probe = _cogroup_probe(left.schema, right.schema, nb)
    stray = rd.from_arrow(pa.table({"other": pa.array([], pa.string())}))
    for cpus in CPUS:
        _force_cpus(monkeypatch, cpus)
        out = exchange.cogroup_by(
            [(rd.from_arrow(left).repartition(7).union(stray), ["k"]),
             (stray.union(rd.from_arrow(right).repartition(3)), ["rk"])],
            probe, nb)
        got = _arrow(out).to_pylist()
        assert got == _cogroup_expected(left, right, nb), cpus
        assert {r["b"] for r in got} == set(range(nb)), cpus

        no_right = right.slice(0, 0)
        out = exchange.cogroup_by(
            [(rd.from_arrow(left).repartition(7), ["k"]),
             (rd.from_arrow(no_right), ["rk"])], probe, nb)
        assert _arrow(out).to_pylist() == \
            _cogroup_expected(left, no_right, nb), cpus


def test_cogroup_report_counts_both_sides(monkeypatch, caplog):
    """One DEBUG line per co-group whose rows and bytes sum both sides."""
    nb = 8
    left, right = _cogroup_inputs(nb=nb)
    _force_cpus(monkeypatch, 3)
    with caplog.at_level(logging.DEBUG, logger=exchange.__name__):
        exchange.cogroup_by([(rd.from_arrow(left), ["k"]),
                             (rd.from_arrow(right), ["rk"])],
                            lambda lt, rt: lt, nb)
    buckets, nonempty, groups, rows, nbytes = _report_line(caplog)[:5]
    assert (buckets, nonempty, groups) == (nb, nb, 3)
    assert rows == left.num_rows + right.num_rows
    assert nbytes == left.nbytes + right.nbytes


def test_cogroup_retry_after_worker_killed_in_reduce_fn(monkeypatch,
                                                        tmp_path):
    """The kill-in-reduce retry test for a co-group: the retried reduce
    task re-runs every bucket of its group with both sides' shards."""
    nb = 8
    left, right = _cogroup_inputs(nb=nb)
    probe = _cogroup_probe(left.schema, right.schema, nb)
    marker = str(tmp_path / "killed")

    def die_once(lt: pa.Table, rt: pa.Table) -> pa.Table:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return probe(lt, rt)
        os._exit(1)

    _force_cpus(monkeypatch, 3)
    sides = [(rd.from_arrow(left).repartition(5), ["k"]),
             (rd.from_arrow(right).repartition(3), ["rk"])]
    clean = _arrow(exchange.cogroup_by(sides, probe, nb))
    faulty = _arrow(exchange.cogroup_by(sides, die_once, nb))
    assert os.path.exists(marker)
    assert faulty.equals(clean)
