"""Token-budget sequence packing: prefix-sum binning, partition-invariant."""

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from fluent_plugin_geoip_ray.stages.pack import pack_bins


def _docs(n=200, seed=2):
    rng = np.random.default_rng(seed)
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "n_tokens": pa.array(rng.integers(10, 200, n).astype(np.int64)),
    })


def test_pack_matches_sequential_prefix():
    t = _docs()
    out = (
        pack_bins(rd.from_arrow(t), "doc_id", "n_tokens", budget=500)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    toks = t.column("n_tokens").to_numpy()
    excl = np.concatenate([[0], np.cumsum(toks)[:-1]])
    assert (out["pack_id"].to_numpy() == excl // 500).all()
    # bins are contiguous in key order and roughly budget-sized
    assert out["pack_id"].is_monotonic_increasing


def test_pack_partition_invariant():
    t = _docs()
    a = pack_bins(rd.from_arrow(t), "doc_id", "n_tokens", 500).to_pandas()
    b = pack_bins(rd.from_arrow(t).repartition(9), "doc_id", "n_tokens", 500).to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    assert (a["pack_id"] == b["pack_id"]).all()


def test_pack_string_keys():
    """String document ids use the same scan path; bins follow
    lexicographic key order (zero-padded ids keep it numeric) with a null
    id last, as DuckDB's window sum over ``ORDER BY doc_id NULLS LAST``."""
    import duckdb

    t = _docs()
    for null_at in (None, 40):
        ids = [f"doc-{i:05d}" for i in range(t.num_rows)]
        if null_at is not None:
            ids[null_at] = None
        ts = pa.table({"doc_id": pa.array(ids),
                       "n_tokens": t.column("n_tokens")})
        out = (
            pack_bins(rd.from_arrow(ts).repartition(7), "doc_id", "n_tokens",
                      500)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("docs", ts)
        ref = con.execute(
            "SELECT doc_id, (sum(n_tokens) OVER (ORDER BY doc_id NULLS LAST "
            "ROWS UNBOUNDED PRECEDING) - n_tokens) // 500 AS pack_id "
            "FROM docs ORDER BY doc_id NULLS LAST").df()
        assert len(out) == len(ref) == t.num_rows
        assert (out["doc_id"].isna() == ref["doc_id"].isna()).all()
        assert (out["pack_id"].to_numpy() == ref["pack_id"].to_numpy()).all()


def test_pack_all_equal_keys_single_partition_is_exact():
    """All-equal keys land in one sort partition -> exact result (the
    empty sibling blocks take no offset and emit no block)."""
    t = pa.table({
        "doc_id": pa.array(np.zeros(64, np.int64)),
        "n_tokens": pa.array(np.full(64, 10, np.int64)),
    })
    out = pack_bins(rd.from_arrow(t).repartition(8), "doc_id", "n_tokens",
                    100).to_pandas()
    assert len(out) == 64
    assert sorted(out["pack_id"].unique()) == list(range(7))


def test_pack_float_keys_with_nan_match_duckdb():
    """A float key with ~30% NaN and ~5% NULL: NaN documents bin after
    every number and before the null ones, as DuckDB's window sum over
    ``ORDER BY doc_id NULLS LAST``.  Tied NaN (and NULL) documents carry
    one token count, so each key's pack ids compare as a multiset."""
    import duckdb

    rng = np.random.default_rng(4)
    n = 2000
    key = rng.permutation(n).astype(float)
    tie = rng.random(n) < 0.35
    key[tie] = np.nan
    t = pa.table({
        "doc_id": pa.array(key, mask=tie & (rng.random(n) < 1 / 7)),
        "n_tokens": pa.array(np.where(tie, 25, rng.integers(10, 200, n))),
    })
    out = pack_bins(rd.from_arrow([t.slice(i, 250) for i in range(0, n, 250)]),
                    "doc_id", "n_tokens", 500)
    con = duckdb.connect()
    con.register("docs", t)
    ref = con.execute(
        "SELECT doc_id, CAST((sum(n_tokens) OVER (ORDER BY doc_id NULLS "
        "LAST ROWS UNBOUNDED PRECEDING) - n_tokens) // 500 AS BIGINT) "
        "AS pack_id FROM docs").arrow()

    def packs(tbl) -> dict:
        by_key: dict = {}
        for k, p in zip(tbl.column("doc_id").to_pylist(),
                        tbl.column("pack_id").to_pylist()):
            tag = "NULL" if k is None else "NaN" if k != k else k
            by_key.setdefault(tag, []).append(p)
        return {k: sorted(v) for k, v in by_key.items()}

    assert packs(pa.concat_tables(ray.get(out.to_arrow_refs()))) == packs(ref)
