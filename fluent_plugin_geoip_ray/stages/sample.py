"""Deterministic sampling operators (training-data extensions).

Random sampling at 100 TB must be DETERMINISTIC (resumable runs, auditable
splits) and shuffle-free: all three operators here decide membership from a
Knuth multiplicative hash of a key column -- pure per-batch vectorized
filters, no RNG state, no coordination, reproducible across runs/cluster
sizes, and exactly replicable in SQL (the driver oracles do).

* :func:`hash_sample` -- keep ~``fraction`` of rows by key hash.
* :func:`split` -- disjoint named splits (train/val/test) by hash range.
* :func:`sample_per_group` -- deterministic k rows per group (the k
  smallest key hashes), partial top-k per batch + tiny final merge --
  no per-group Python, no full-row shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import hash_exchange_by

# 64-bit golden-ratio multiplier (Knuth): hash = (key * M + seed) mod 2^64.
# Chosen because the identical formula is expressible in SQL HUGEINT math,
# so oracles compare exact membership, not statistics.
MULT = 0x9E3779B97F4A7C15
SEED_MULT = 0xC2B2AE3D27D4EB4F  # murmur3 mixer: seed shifts the hash circle


def key_hash(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    with np.errstate(over="ignore"):
        return (keys.astype(np.uint64) * np.uint64(MULT)
                + np.uint64(seed) * np.uint64(SEED_MULT))


def sql_hash_expr(key_col: str, seed: int = 0) -> str:
    """The SAME hash as ``key_hash`` in DuckDB SQL (HUGEINT mod 2^64)."""
    return (
        f"CAST((CAST({key_col} AS HUGEINT) * {MULT} + "
        f"CAST({seed} AS HUGEINT) * {SEED_MULT}) % "
        f"18446744073709551616 AS UBIGINT)"
    )


def hash_sample(ds, key_col: str, fraction: float, seed: int = 0,
                batch_size: int = 65536):
    """Keep rows whose key hash falls below ``fraction`` of the hash space."""
    threshold = np.uint64(int(fraction * float(2**64)))

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(key_hash(keys, seed) < threshold))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def split(ds, key_col: str, fractions: dict[str, float], seed: int = 0,
          out_col: str = "split", batch_size: int = 65536):
    """Disjoint deterministic splits: ``{"train": .9, "val": .05, ...}`` ->
    a ``split`` label column by hash range (fractions should sum to <= 1;
    remainder rows get null)."""
    names = list(fractions)
    acc = 0.0
    uppers = []
    for n in names:
        acc += fractions[n]
        # integer edge math; exact 1.0 clamps to 2^64-1 (the single maximal
        # hash value falls out of the last split -- 1-in-2^64, documented)
        uppers.append(min(int(acc * 2**64), 2**64 - 1))
    bounds = np.array(uppers, dtype=np.uint64)
    labels = pa.array(names, pa.string())

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        h = key_hash(keys, seed)
        idx = np.searchsorted(bounds, h, side="right")
        valid = idx < len(names)
        idx_arr = pc.if_else(pa.array(valid),
                             pa.array(np.where(valid, idx, 0), pa.int64()),
                             pa.scalar(None, pa.int64()))
        return batch.append_column(out_col, labels.take(idx_arr))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def _topk_per_group(gk: np.ndarray, h: np.ndarray, k: int,
                    tiebreak: np.ndarray | None = None):
    """Row indices of the k smallest hashes per group (vectorized);
    hash ties break on ``tiebreak`` (the key), matching the SQL oracle's
    ORDER BY hash, key."""
    order = (np.lexsort((tiebreak, h, gk)) if tiebreak is not None
             else np.lexsort((h, gk)))
    gs, hs = gk[order], h[order]
    starts = np.r_[True, gs[1:] != gs[:-1]]
    group_start_pos = np.maximum.accumulate(np.where(starts, np.arange(len(gs)), 0))
    rank = np.arange(len(gs)) - group_start_pos
    return order[rank < k]


def sample_per_group(ds, group_col: str, key_col: str, k: int, seed: int = 0,
                     batch_size: int = 65536, driver_limit: int = 2_000_000,
                     num_buckets: int = 32):
    """Deterministic k-per-group sample: the k smallest key hashes in each
    group.  Per batch, a vectorized partial top-k (at most k rows per group
    per batch leave the worker); the final merge re-applies the same top-k
    over the tiny partials.  Oracle: ``ROW_NUMBER() OVER (PARTITION BY g
    ORDER BY <hash>, key) <= k``.

    The materialized partial rows are counted and merged on the driver up
    to ``driver_limit``; above it -- unbounded group cardinality,
    where k x groups rows would OOM the driver -- the partials route
    through a hash exchange on ``group_col`` and the partial re-applies per
    bucket (same shape as ``top_k_by_group``'s scale merge).  No driver
    state at any cardinality on that path."""
    import ray
    import ray.data as rd

    def partial(batch: pa.Table) -> pa.Table:
        gk = batch.column(group_col).to_numpy(zero_copy_only=False).astype(np.int64)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        h = key_hash(keys, seed)
        keep = _topk_per_group(gk, h, k, tiebreak=keys)
        return batch.take(pa.array(np.sort(keep)))

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True,
                              batch_size=batch_size).materialize()
    if partials.count() > driver_limit:
        return hash_exchange_by(partials, [group_col], partial, num_buckets)

    tables = [t for t in ray.get(partials.to_arrow_refs()) if t.num_rows]
    if not tables:
        return rd.from_items([])
    allt = pa.concat_tables(tables).combine_chunks()
    return rd.from_arrow(partial(allt))


def weighted_mix(ds, key_col: str, category_col: str,
                 rates: dict[str, float], default_rate: float = 0.0,
                 batch_size: int = 65536, seed: int = 0):
    """Deterministic corpus mixture: keep each row with a per-CATEGORY
    sampling rate (the training-data "mix sources at different weights"
    step), decided by the same key hash as :func:`hash_sample` -- so the
    mixture is reproducible, shuffle-free, and each category's kept subset
    is a superset of any lower rate (nested samples for curriculum ramps)."""
    cats = list(rates)
    cat_arr = pa.array(cats, pa.string())
    thresholds = np.array(
        [min(int(rates[c] * 2**64), 2**64 - 1) for c in cats], dtype=np.uint64
    )
    default_thr = np.uint64(min(int(default_rate * 2**64), 2**64 - 1))

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        h = key_hash(keys, seed)
        idx = pc.index_in(batch.column(category_col), value_set=cat_arr)
        idx_np = pc.fill_null(idx, len(cats)).to_numpy(zero_copy_only=False)
        thr = np.concatenate([thresholds, [default_thr]])[idx_np]
        return batch.filter(pa.array(h < thr))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def epoch_shuffle(ds, key_col: str, seed: int = 0,
                  pos_col: str = "shuffle_pos"):
    """Deterministic global training-order shuffle: append ``pos_col`` =
    the row's rank under the seeded Knuth key hash (ties impossible for
    unique keys: the odd-multiplier hash is a bijection on uint64).

    Epoch shuffling at 100 TB must be deterministic and resumable --
    ``random_shuffle`` gives a different order every run and materializes an
    arbitrary permutation.  Here the permutation is a pure function of
    (key, seed): a new seed per epoch gives a fresh order, a re-run
    reproduces it exactly, and the SQL oracle can verify the EXACT rank of
    every row (``ROW_NUMBER() OVER (ORDER BY <hash>, key)``).

    Shape: one range-partitioned sort on the hash (Ray Data's distributed
    sort -- the unavoidable exchange any global permutation needs), then the
    ``pack_bins`` scan trick: one (min_hash, n_rows) summary row per block
    -> driver cumsum over O(blocks) scalars -> per-block rank offsets; rows
    never move again.  Output is ORDERED by ``pos_col`` block-to-block, so
    a downstream ``write_parquet`` lays files out in epoch order.
    """
    import ray

    # sign-bit flip: Ray sorts int64 SIGNED; (h ^ 2^63) viewed as int64
    # sorts in exactly unsigned-h order, so the SQL oracle is a plain
    # ``ORDER BY <unsigned hash>``
    FLIP = np.uint64(1 << 63)

    def add_hash(t: pa.Table) -> pa.Table:
        h = key_hash(t.column(key_col).to_numpy(zero_copy_only=False), seed)
        return t.append_column("__eh", pa.array((h ^ FLIP).view(np.int64)))

    hashed = ds.map_batches(add_hash, batch_format="pyarrow",
                            zero_copy_batch=True)
    sorted_ds = hashed.sort(["__eh", key_col]).materialize()

    def block_summary(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"min_h": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({
            "min_h": pa.array([batch.column("__eh")[0].as_py()], pa.int64()),
            "n": pa.array([batch.num_rows], pa.int64()),
        })

    tables = [
        t for t in ray.get(
            sorted_ds.map_batches(block_summary, batch_format="pyarrow",
                                  zero_copy_batch=True,
                                  batch_size=None).to_arrow_refs())
        if t.num_rows
    ]
    if not tables:
        return sorted_ds.drop_columns(["__eh"])
    summ = pa.concat_tables(tables).to_pandas().sort_values("min_h")
    min_h = summ["min_h"].to_numpy()
    if len(min_h) != len(np.unique(min_h)):
        raise ValueError(
            "epoch_shuffle requires unique keys: duplicate block min-hashes"
        )
    offsets = np.concatenate([[0], np.cumsum(summ["n"].to_numpy())[:-1]])
    state = ray.put((min_h, offsets))

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.drop_columns(["__eh"]).append_column(
                pos_col, pa.array([], pa.int64()))
        mh, off = ray.get(state)
        # locate this block by its first hash (blocks are the sort output;
        # same physical blocks as the summary pass -- batch_size=None)
        first = batch.column("__eh")[0].as_py()
        block = int(np.searchsorted(mh, first, side="right")) - 1
        pos = off[block] + np.arange(batch.num_rows, dtype=np.int64)
        return batch.drop_columns(["__eh"]).append_column(
            pos_col, pa.array(pos))

    return sorted_ds.map_batches(assign, batch_format="pyarrow",
                                 zero_copy_batch=True, batch_size=None)


def select_top_fraction(ds, score_col: str, key_col: str, fraction: float,
                        descending: bool = True):
    """Exact global top-``fraction`` selection by ``score_col`` -- the
    quality-percentile curation primitive ("keep the best 25% of the corpus
    by score"), with deterministic ``key_col`` tie-breaking so the kept set
    is EXACT and auditable, not approximate.

    100 TB shape: the full rows never shuffle.  Only a (key, score)
    PROJECTION (~16 B/row) goes through the one unavoidable all-to-all (a
    distributed sort); the global K-th threshold row is then located from
    O(blocks) per-block summaries -- the driver holds O(blocks) scalars plus
    ONE projection block -- and selection is a single streaming broadcast-
    threshold filter over the original dataset.  Equivalent SQL:
    ``ROW_NUMBER() OVER (ORDER BY score DESC, key) <= floor(n * fraction)``.

    ``descending=True`` keeps the LARGEST scores.  Keys must be unique
    (same contract as :func:`epoch_shuffle`); scores may tie arbitrarily.
    """
    import ray

    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")

    proj = ds.select_columns([key_col, score_col])

    def add_sort_key(t: pa.Table) -> pa.Table:
        s = t.column(score_col)
        if descending:
            s = pc.negate_checked(s)
        return t.append_column("__s", s)

    sorted_proj = (proj.map_batches(add_sort_key, batch_format="pyarrow",
                                    zero_copy_batch=True)
                   .sort(["__s", key_col]).materialize())
    refs = sorted_proj.to_arrow_refs()

    @ray.remote(num_cpus=0.25)
    def block_summary(t: pa.Table):
        if t.num_rows == 0:
            return None
        return (t.column("__s")[0].as_py(), t.column(key_col)[0].as_py(),
                t.num_rows)

    summaries = ray.get([block_summary.remote(r) for r in refs])
    live = [(s, i) for i, s in enumerate(summaries) if s is not None]
    total = sum(s[2] for s, _ in live)
    k = int(np.floor(total * fraction))
    if k <= 0:
        return ds.map_batches(lambda t: t.slice(0, 0),
                              batch_format="pyarrow", zero_copy_batch=True)
    if k >= total:
        return ds

    # blocks are contiguous ranges of the total order; (first __s, first key)
    # is unique per block (unique keys), so sorting summaries recovers order
    live.sort(key=lambda e: (e[0][0], e[0][1]))
    counts = np.array([s[2] for s, _ in live], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    j = int(np.searchsorted(offsets, k - 1, side="right")) - 1
    thr_block = ray.get(refs[live[j][1]])
    row = (k - 1) - int(offsets[j])
    s_thr = thr_block.column(score_col)[row].as_py()
    key_thr = thr_block.column(key_col)[row].as_py()

    def keep(t: pa.Table) -> pa.Table:
        s = t.column(score_col)
        strictly = pc.greater(s, s_thr) if descending else pc.less(s, s_thr)
        at_thr = pc.and_(pc.equal(s, s_thr),
                         pc.less_equal(t.column(key_col), key_thr))
        return t.filter(pc.fill_null(pc.or_(strictly, at_thr), False))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def global_rank(ds, score_col: str, key_col: str, descending: bool = False,
                rank_col: str = "rank", ntile: int | None = None,
                tile_col: str = "tile"):
    """Exact global 1-based rank of every row by ``score_col`` with
    deterministic ``key_col`` tie-breaking, optionally plus an exact SQL
    ``NTILE(q)`` assignment -- ``ROW_NUMBER() / NTILE(q) OVER (ORDER BY
    score [DESC], key)``.

    100 TB shape (the :func:`epoch_shuffle` scan): ONE range-partitioned
    distributed sort (the unavoidable exchange behind any global order),
    then O(blocks) per-block (first_score, first_key, n_rows) summaries to
    the driver, a cumsum, and a streaming per-block offset + ``arange``
    assignment -- rows move exactly once and the driver holds O(blocks)
    scalars.  Output is ordered by rank block-to-block.  Keys must be
    unique (the same contract as ``epoch_shuffle``); scores may tie.

    NTILE follows the SQL standard: with n rows the first ``n % q`` tiles
    get ``n // q + 1`` rows, the rest ``n // q``.
    """
    import bisect

    import ray

    if ntile is not None and ntile < 1:
        raise ValueError(f"ntile must be >= 1, got {ntile}")

    def add_sort_key(t: pa.Table) -> pa.Table:
        s = t.column(score_col)
        if descending:
            s = pc.negate_checked(s)
        return t.append_column("__s", s)

    sorted_ds = (ds.map_batches(add_sort_key, batch_format="pyarrow",
                                zero_copy_batch=True)
                 .sort(["__s", key_col]).materialize())

    @ray.remote(num_cpus=0.25)
    def block_summary(t: pa.Table):
        if t.num_rows == 0:
            return None
        return (t.column("__s")[0].as_py(), t.column(key_col)[0].as_py(),
                t.num_rows)

    summaries = [s for s in ray.get(
        [block_summary.remote(r) for r in sorted_ds.to_arrow_refs()])
        if s is not None]
    if not summaries:
        out = sorted_ds.drop_columns(["__s"])
        return out
    # blocks are contiguous ranges of the total order and (first __s,
    # first key) is unique per block (unique keys), so sorting the
    # summaries recovers block order
    summaries.sort(key=lambda e: (e[0], e[1]))
    firsts = [(s, k) for s, k, _ in summaries]
    counts = np.array([n for _, _, n in summaries], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    total = int(counts.sum())
    state = ray.put((firsts, offsets))

    def tile_of(rank: np.ndarray) -> np.ndarray:
        base, rem = divmod(total, ntile)
        big = rem * (base + 1)
        early = rank <= big
        t = np.empty(len(rank), dtype=np.int64)
        if base == 0:
            # more tiles than rows: tile == rank for the rows that exist
            return rank.copy()
        t[early] = (rank[early] - 1) // (base + 1) + 1
        t[~early] = rem + (rank[~early] - 1 - big) // base + 1
        return t

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            out = batch.drop_columns(["__s"]).append_column(
                rank_col, pa.array([], pa.int64()))
            if ntile is not None:
                out = out.append_column(tile_col, pa.array([], pa.int64()))
            return out
        fs, off = ray.get(state)
        first = (batch.column("__s")[0].as_py(),
                 batch.column(key_col)[0].as_py())
        block = bisect.bisect_right(fs, first) - 1
        rank = off[block] + 1 + np.arange(batch.num_rows, dtype=np.int64)
        out = batch.drop_columns(["__s"]).append_column(
            rank_col, pa.array(rank))
        if ntile is not None:
            out = out.append_column(tile_col, pa.array(tile_of(rank)))
        return out

    return sorted_ds.map_batches(assign, batch_format="pyarrow",
                                 zero_copy_batch=True, batch_size=None)


def stratified_sample(ds, stratum_col: str, key_col: str, fraction: float,
                      seed: int = 0, num_buckets: int = 32,
                      driver_strata_limit: int = 5_000_000):
    """Exact proportional stratified sampling: per stratum g keep the
    ``ceil(fraction * n_g)`` members with the SMALLEST seeded Knuth key
    hashes (ties impossible for unique keys: the odd-multiplier hash is
    a bijection) -- class-balanced corpus construction with exact
    per-class counts and SQL-verifiable membership
    (``ROW_NUMBER() OVER (PARTITION BY stratum ORDER BY hash, key) <=
    ceil(fraction * count)``).

    Shape: pass 1 is a tiny grouped count through the bucketed exchange;
    the per-stratum quota table broadcasts as sorted arrays (strata are
    few by definition -- ``driver_strata_limit`` guards the assumption).
    Pass 2 keeps at most k_g rows per stratum per BLOCK (vectorized
    partial top-k: each block's local top-k_g is a superset of its
    members of the global top-k_g), then ONE exchange on the stratum
    co-locates candidates and the final applies the identical selection
    exactly.
    """
    import pandas as pd
    import ray

    from .aggregate import groupby_agg

    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if fraction == 0.0:
        return ds.map_batches(lambda t: t.slice(0, 0),
                              batch_format="pyarrow", zero_copy_batch=True)
    if fraction == 1.0:
        return ds

    counts = groupby_agg(ds, [stratum_col],
                         [(key_col, "count", "n")]).materialize()
    n_strata = counts.count()
    if n_strata > driver_strata_limit:
        raise ValueError(
            f"{n_strata} strata exceed driver_strata_limit="
            f"{driver_strata_limit}; stratified_sample assumes few strata")
    ct = pa.concat_tables(
        [t for t in ray.get(counts.to_arrow_refs()) if t.num_rows])
    sv = ct.column(stratum_col).to_pandas().to_numpy(dtype=object)
    nv = ct.column("n").to_numpy(zero_copy_only=False)
    order = np.argsort(sv)
    quotas = np.ceil(fraction * nv[order]).astype(np.int64)
    state = ray.put((sv[order], quotas))

    def select(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        strata_sorted, ks = ray.get(state)
        g = t.column(stratum_col).to_pandas().to_numpy(dtype=object)
        h = key_hash(t.column(key_col).to_numpy(zero_copy_only=False))
        o = np.lexsort((h, g))
        gs = g[o]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        lens = np.diff(np.append(starts, len(gs)))
        rank = np.arange(len(gs), dtype=np.int64) - np.repeat(starts, lens)
        kg = ks[np.searchsorted(strata_sorted, gs[starts])]
        keep_sorted = rank < np.repeat(kg, lens)
        keep = np.empty(len(gs), dtype=bool)
        keep[o] = keep_sorted
        return t.filter(pa.array(keep))

    partial = ds.map_batches(select, batch_format="pyarrow",
                             zero_copy_batch=True)
    return hash_exchange_by(partial, [stratum_col], select, num_buckets)


def sample_k(ds, key_col: str, k: int, seed: int = 0,
             batch_size: int = 65536):
    """Exact global uniform k-sample: the k rows with the smallest Knuth
    key hashes (a set property -- deterministic across runs, block
    layouts, and cluster sizes; the fixed-SIZE counterpart of
    :func:`hash_sample`'s fixed-fraction).  Per batch only the local
    top-k leave the worker (:func:`aggregate.top_k` partials); no
    shuffle, no RNG state.  Oracle: ``ORDER BY <hash>, key LIMIT k``."""
    from .aggregate import top_k

    def add_hash(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        return batch.append_column("__h", pa.array(key_hash(keys, seed)))

    hashed = ds.map_batches(add_hash, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size)
    out = top_k(hashed, "__h", k, descending=False, tie_breakers=[key_col])
    return out.drop_columns(["__h"]) if hasattr(out, "drop_columns") else out
