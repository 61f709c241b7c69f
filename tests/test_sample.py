"""Deterministic sampling operators: hash membership, splits, k-per-group."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fluent_plugin_geoip_ray.stages.sample import (
    hash_sample,
    key_hash,
    sample_per_group,
    split,
)


def _tbl(n=1000):
    rng = np.random.default_rng(5)
    return pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "g": pa.array(rng.integers(0, 20, n).astype(np.int64)),
    })


def test_hash_sample_fraction_and_determinism():
    t = _tbl()
    a = hash_sample(rd.from_arrow(t), "id", 0.3, seed=7).to_pandas()
    b = hash_sample(rd.from_arrow(t), "id", 0.3, seed=7).to_pandas()
    assert sorted(a["id"]) == sorted(b["id"])          # deterministic
    assert 0.2 < len(a) / len(t) < 0.4                 # ~fraction
    c = hash_sample(rd.from_arrow(t), "id", 0.3, seed=8).to_pandas()
    assert sorted(a["id"]) != sorted(c["id"])          # seed-sensitive


def test_split_disjoint_and_exhaustive():
    t = _tbl()
    out = split(rd.from_arrow(t), "id",
                {"train": 0.8, "val": 0.1, "test": 0.1}).to_pandas()
    counts = out["split"].value_counts()
    assert set(counts.index) == {"train", "val", "test"}
    assert counts["train"] > counts["val"]
    assert out["split"].notna().all()                  # fractions sum to 1
    # nested subset property: a 0.1 hash_sample is inside the 0.8 train set
    # iff thresholds nest -- check split assignment matches hash ranges
    h = key_hash(out["id"].to_numpy(), 0)
    train_max = np.uint64(int(0.8 * 2**64))
    assert ((h < train_max) == (out["split"] == "train").to_numpy()).all()


def test_sample_per_group_k_and_determinism():
    t = _tbl()
    out = sample_per_group(rd.from_arrow(t), "g", "id", k=3).to_pandas()
    sizes = out.groupby("g").size()
    assert (sizes <= 3).all() and len(sizes) == 20
    out2 = sample_per_group(rd.from_arrow(t), "g", "id", k=3).to_pandas()
    assert sorted(out["id"]) == sorted(out2["id"])
    # partial+final equivalence: splitting the input into blocks must not
    # change the chosen rows (algebraic top-k)
    ds_split = rd.from_arrow(t).repartition(7)
    out3 = sample_per_group(ds_split, "g", "id", k=3).to_pandas()
    assert sorted(out["id"]) == sorted(out3["id"])


def test_weighted_mix_rates_and_nesting():
    import pandas as pd

    from fluent_plugin_geoip_ray.stages.sample import weighted_mix

    n = 3000
    rng = np.random.default_rng(9)
    t = pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "src": pa.array(rng.choice(["a", "b", "c"], n)),
    })
    out = weighted_mix(rd.from_arrow(t), "id", "src",
                       {"a": 1.0, "b": 0.25}, default_rate=0.0).to_pandas()
    full = t.to_pandas()
    per = out["src"].value_counts()
    tot = full["src"].value_counts()
    assert per["a"] == tot["a"]                  # rate 1.0 keeps all
    assert 0.15 < per["b"] / tot["b"] < 0.35     # ~0.25
    assert "c" not in per.index                  # default 0.0 drops
    # nesting: the 0.1 mixture of b is a subset of the 0.25 mixture
    lo = weighted_mix(rd.from_arrow(t), "id", "src", {"b": 0.1}).to_pandas()
    hi = weighted_mix(rd.from_arrow(t), "id", "src", {"b": 0.25}).to_pandas()
    assert set(lo["id"]).issubset(set(hi["id"]))


def test_sample_per_group_bucketed_equals_driver():
    """The bucketed hash-exchange final (scale path) must equal the driver
    merge exactly."""
    import pandas as pd

    t = _tbl(4000)
    a = (sample_per_group(rd.from_arrow(t).repartition(7), "g", "id", k=3)
         .to_pandas().sort_values(["g", "id"]).reset_index(drop=True))
    b = (sample_per_group(rd.from_arrow(t).repartition(7), "g", "id", k=3,
                          driver_limit=0)
         .to_pandas().sort_values(["g", "id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b[a.columns])


# --------------------------------------------------------------------------
# deterministic epoch shuffle (global rank under the seeded key hash)
# --------------------------------------------------------------------------

def _shuffle_df(ds, seed):
    import ray

    from fluent_plugin_geoip_ray.stages.sample import epoch_shuffle

    out = epoch_shuffle(ds, "id", seed=seed)
    return pa.concat_tables(
        ray.get(out.to_arrow_refs())).to_pandas().sort_values("id")


def test_epoch_shuffle_matches_reference_rank():
    n = 3000
    t = pa.table({"id": pa.array(np.arange(n, dtype=np.int64)),
                  "x": pa.array(np.arange(n) * 2)})
    df = _shuffle_df(rd.from_arrow(t).repartition(7), seed=3)
    h = key_hash(np.arange(n, dtype=np.int64), 3)
    ref = np.empty(n, dtype=np.int64)
    ref[np.argsort(h, kind="stable")] = np.arange(n)
    assert (df["shuffle_pos"].to_numpy() == ref).all()
    assert sorted(df["shuffle_pos"]) == list(range(n))   # true permutation


def test_epoch_shuffle_partition_invariant_and_seeded():
    n = 2000
    t = pa.table({"id": pa.array(np.arange(n, dtype=np.int64))})
    a = _shuffle_df(rd.from_arrow(t).repartition(3), seed=1)
    b = _shuffle_df(rd.from_arrow(t).repartition(11), seed=1)
    assert (a["shuffle_pos"].to_numpy() == b["shuffle_pos"].to_numpy()).all()
    c = _shuffle_df(rd.from_arrow(t), seed=2)
    assert (c["shuffle_pos"].to_numpy() != a["shuffle_pos"].to_numpy()).any()


def test_epoch_shuffle_output_is_block_ordered():
    """Blocks come back in rank order: writing the dataset as-is lays the
    epoch out sequentially."""
    import ray

    from fluent_plugin_geoip_ray.stages.sample import epoch_shuffle

    t = pa.table({"id": pa.array(np.arange(1000, dtype=np.int64))})
    out = epoch_shuffle(rd.from_arrow(t).repartition(5), "id", seed=9)
    pos = np.concatenate([
        tb.column("shuffle_pos").to_numpy(zero_copy_only=False)
        for tb in ray.get(out.to_arrow_refs()) if tb.num_rows
    ])
    assert (np.diff(pos) == 1).all() and pos[0] == 0


def _top_frac_ref(df, score, key, frac, descending=True):
    n = len(df)
    k = int(np.floor(n * frac))
    asc = [not descending, True]
    return set(df.sort_values([score, key], ascending=asc).head(k)[key])


def test_select_top_fraction_exact_with_ties():
    from fluent_plugin_geoip_ray.stages.sample import select_top_fraction

    rng = np.random.default_rng(11)
    n = 5000
    t = pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        # heavy ties: scores drawn from just 12 values, so the threshold
        # row is inside a long tie run and key tie-breaking is load-bearing
        "score": pa.array(rng.integers(0, 12, n).astype(np.int64)),
    })
    df = t.to_pandas()
    for frac in (0.25, 0.5, 0.9):
        ds = rd.from_arrow(t).repartition(13)
        out = select_top_fraction(ds, "score", "id", frac).to_pandas()
        assert set(out["id"]) == _top_frac_ref(df, "score", "id", frac)


def test_select_top_fraction_ascending_floats_and_edges():
    from fluent_plugin_geoip_ray.stages.sample import select_top_fraction

    rng = np.random.default_rng(3)
    n = 999
    t = pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "score": pa.array(rng.normal(size=n)),
    })
    ds = rd.from_arrow(t).repartition(7)
    out = select_top_fraction(ds, "score", "id", 0.1,
                              descending=False).to_pandas()
    assert set(out["id"]) == _top_frac_ref(t.to_pandas(), "score", "id",
                                           0.1, descending=False)
    assert select_top_fraction(rd.from_arrow(t), "score", "id", 0.0).count() == 0
    assert select_top_fraction(rd.from_arrow(t), "score", "id", 1.0).count() == n


def test_select_top_fraction_string_keys_partition_invariant():
    from fluent_plugin_geoip_ray.stages.sample import select_top_fraction

    n = 800
    t = pa.table({
        "id": pa.array([f"doc-{i:05d}" for i in range(n)]),
        "score": pa.array((np.arange(n, dtype=np.int64) * 7) % 5),
    })
    expect = _top_frac_ref(t.to_pandas(), "score", "id", 0.33)
    for parts in (1, 4, 17):
        ds = rd.from_arrow(t).repartition(parts)
        got = set(select_top_fraction(ds, "score", "id", 0.33)
                  .to_pandas()["id"])
        assert got == expect


# --------------------------------------------------------------------------
# global_rank (exact ROW_NUMBER / NTILE over a distributed sort)
# --------------------------------------------------------------------------

def _rank_table(n=500, seed=5, str_keys=False):
    rng = np.random.default_rng(seed)
    keys = ([f"k{i:05d}" for i in range(n)] if str_keys
            else np.arange(n, dtype=np.int64))
    return pa.table({
        "id": pa.array(keys),
        "score": pa.array(rng.integers(0, 40, n)),   # heavy score ties
    })


def _rank_ref(t, descending):
    score = t.column("score").to_numpy(zero_copy_only=False)
    ids = t.column("id").to_pylist()
    order = sorted(range(len(ids)),
                   key=lambda i: ((-score[i] if descending else score[i]),
                                  ids[i]))
    rank = {ids[i]: r + 1 for r, i in enumerate(order)}
    return rank


def _ntile_ref(rank, n, q):
    base, rem = divmod(n, q)
    if base == 0:
        return rank
    big = rem * (base + 1)
    if rank <= big:
        return (rank - 1) // (base + 1) + 1
    return rem + (rank - 1 - big) // base + 1


@pytest.mark.parametrize("descending", [False, True])
def test_global_rank_matches_reference(descending):
    from fluent_plugin_geoip_ray.stages.sample import global_rank

    t = _rank_table()
    ref = _rank_ref(t, descending)
    out = global_rank(rd.from_arrow(t).repartition(7), "score", "id",
                      descending=descending, ntile=7).to_pandas()
    assert len(out) == t.num_rows
    for _, row in out.iterrows():
        assert row["rank"] == ref[row["id"]], row["id"]
        assert row["tile"] == _ntile_ref(row["rank"], t.num_rows, 7)


def test_global_rank_string_keys_partition_invariant():
    from fluent_plugin_geoip_ray.stages.sample import global_rank

    t = _rank_table(str_keys=True)
    one = global_rank(rd.from_arrow(t), "score", "id").to_pandas() \
        .sort_values("id").reset_index(drop=True)
    many = global_rank(rd.from_arrow(t).repartition(9), "score", "id") \
        .to_pandas().sort_values("id").reset_index(drop=True)
    assert one.equals(many)
    ref = _rank_ref(t, False)
    assert all(one.loc[i, "rank"] == ref[one.loc[i, "id"]]
               for i in range(len(one)))


def test_global_rank_more_tiles_than_rows():
    from fluent_plugin_geoip_ray.stages.sample import global_rank

    t = pa.table({"id": pa.array([0, 1, 2], pa.int64()),
                  "score": pa.array([5, 3, 9])})
    out = global_rank(rd.from_arrow(t), "score", "id", ntile=10) \
        .to_pandas().set_index("id")
    # SQL NTILE with q > n assigns tile == rank
    assert out.loc[1, "rank"] == 1 and out.loc[1, "tile"] == 1
    assert out.loc[2, "rank"] == 3 and out.loc[2, "tile"] == 3


def test_global_rank_output_is_rank_ordered():
    from fluent_plugin_geoip_ray.stages.sample import global_rank

    t = _rank_table(seed=9)
    out = global_rank(rd.from_arrow(t).repartition(5), "score", "id") \
        .to_pandas()
    assert list(out["rank"]) == list(range(1, len(out) + 1))


def test_global_rank_rejects_bad_ntile():
    from fluent_plugin_geoip_ray.stages.sample import global_rank

    with pytest.raises(ValueError):
        global_rank(rd.from_arrow(_rank_table()), "score", "id", ntile=0)


# --------------------------------------------------------------------------
# stratified_sample (exact proportional per-stratum quotas)
# --------------------------------------------------------------------------

def _strat_tbl(n=1200, seed=10):
    rng = np.random.default_rng(seed)
    return pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "cls": pa.array(rng.choice(["en", "de", "fr", "rare"], n,
                                   p=[0.6, 0.25, 0.13, 0.02])),
    })


def _strat_ref(t, fraction, seed=0):
    from fluent_plugin_geoip_ray.stages.sample import key_hash

    ids = t.column("id").to_numpy(zero_copy_only=False)
    cls = t.column("cls").to_pylist()
    h = key_hash(ids, seed)
    kept = set()
    import collections
    by = collections.defaultdict(list)
    for i, c in enumerate(cls):
        by[c].append(i)
    for c, idxs in by.items():
        k = int(np.ceil(fraction * len(idxs)))
        for i in sorted(idxs, key=lambda i: h[i])[:k]:
            kept.add(int(ids[i]))
    return kept


def test_stratified_sample_exact_membership_and_quota():
    from fluent_plugin_geoip_ray.stages.sample import stratified_sample

    t = _strat_tbl()
    out = stratified_sample(rd.from_arrow(t).repartition(7), "cls", "id",
                            0.3).to_pandas()
    assert set(out["id"]) == _strat_ref(t, 0.3)
    sizes = t.to_pandas().groupby("cls").size()
    got = out.groupby("cls").size()
    for c, n in sizes.items():
        assert got.get(c, 0) == int(np.ceil(0.3 * n)), c


def test_stratified_sample_partition_invariant_and_edges():
    from fluent_plugin_geoip_ray.stages.sample import stratified_sample

    t = _strat_tbl(seed=11)
    one = set(stratified_sample(rd.from_arrow(t), "cls", "id", 0.5)
              .to_pandas()["id"])
    many = set(stratified_sample(rd.from_arrow(t).repartition(11), "cls",
                                 "id", 0.5).to_pandas()["id"])
    assert one == many
    assert stratified_sample(rd.from_arrow(t), "cls", "id", 0.0).count() == 0
    assert stratified_sample(rd.from_arrow(t), "cls", "id",
                             1.0).count() == t.num_rows


def test_sample_k_exact_membership_and_determinism():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.sample import key_hash, sample_k

    ids = np.arange(500, dtype=np.int64)
    t = pa.table({"id": pa.array(ids), "v": pa.array(ids * 3)})
    out = sample_k(rd.from_arrow(t).repartition(7), "id", 20, seed=5)
    got = sorted(out.to_pandas()["id"] if hasattr(out, "to_pandas")
                 else out["id"].to_pylist())
    h = key_hash(ids, 5)
    expect = sorted(ids[np.argsort(h)][:20].tolist())
    assert got == expect
    # k >= n returns everything
    all_out = sample_k(rd.from_arrow(t), "id", 1000, seed=5)
    n = (len(all_out.to_pandas()) if hasattr(all_out, "to_pandas")
         else all_out.num_rows)
    assert n == 500
