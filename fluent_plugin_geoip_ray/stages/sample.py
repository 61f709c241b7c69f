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

from .exchange import (Blocks, canon_float, empty_table, hash_exchange_by,
                       segments)
from .scan import SortedBlocks

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


def _hash_ranks(t: pa.Table, group_col: str, key_col: str, seed: int):
    """``(order, rank)``: the permutation sorting ``t`` by (group, key
    hash, key) -- NULL groups one group, last -- and each sorted row's
    0-based rank within its group."""
    h = key_hash(t.column(key_col).to_numpy(zero_copy_only=False), seed)
    order, starts = segments(t.append_column("__h", pa.array(h)),
                             [group_col], ["__h", key_col])
    heads = np.flatnonzero(starts)
    return order, np.arange(len(order)) - heads[np.cumsum(starts) - 1]


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
    bucket (``top_k_by_group``'s merge, ``aggregate._merge_partials``).
    No driver state at any cardinality on that path."""
    from .aggregate import _merge_partials

    def partial(batch: pa.Table) -> pa.Table:
        order, rank = _hash_ranks(batch, group_col, key_col, seed)
        return batch.take(pa.array(np.sort(order[rank < k])))

    return _merge_partials(ds, [group_col], partial, batch_size,
                           driver_limit, num_buckets)


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


def _append_pos(t: pa.Table, off, pos_col: str) -> pa.Table:
    pos = off + np.arange(t.num_rows, dtype=np.int64)
    return t.drop_columns(["__eh"]).append_column(pos_col, pa.array(pos))


def epoch_shuffle(ds, key_col: str, seed: int = 0,
                  pos_col: str = "shuffle_pos"):
    """Deterministic global training-order shuffle: append ``pos_col`` =
    the row's rank under the seeded Knuth key hash (ties impossible for
    unique keys: the odd-multiplier hash is a bijection on uint64; rows
    with equal keys take consecutive positions in an unspecified order,
    as under SQL ``ROW_NUMBER``).

    Epoch shuffling at 100 TB must be deterministic and resumable --
    ``random_shuffle`` gives a different order every run and materializes an
    arbitrary permutation.  Here the permutation is a pure function of
    (key, seed): a new seed per epoch gives a fresh order, a re-run
    reproduces it exactly, and the SQL oracle can verify the EXACT rank of
    every row (``ROW_NUMBER() OVER (ORDER BY <hash>, key)``).

    Shape: one range exchange on the hash (:class:`scan.SortedBlocks` --
    the unavoidable all-to-all any global permutation needs), then its
    positional scan: each block's offset is the row count of the blocks
    before it; rows never move again.  Output is ORDERED by
    ``pos_col`` block-to-block, so a downstream ``write_parquet`` lays
    files out in epoch order.
    """
    def add_hash(t: pa.Table) -> pa.Table:
        h = key_hash(t.column(key_col).to_numpy(zero_copy_only=False), seed)
        return t.append_column("__eh", pa.array(h))

    hashed = ds.map_batches(add_hash, batch_format="pyarrow",
                            zero_copy_batch=True)
    return SortedBlocks(hashed, ["__eh", key_col]).scan(_append_pos,
                                                        pos_col=pos_col)


def _score_order(score_col: str, key_col: str, descending: bool) -> list:
    return [(score_col, "descending") if descending else score_col, key_col]


def select_top_fraction(ds, score_col: str, key_col: str, fraction: float,
                        descending: bool = True):
    """Exact global top-``fraction`` selection by ``score_col`` -- the
    quality-percentile curation primitive ("keep the best 25% of the corpus
    by score"), with deterministic ``key_col`` tie-breaking so the kept set
    is EXACT and auditable, not approximate.

    100 TB shape: the full rows never shuffle.  Only a (key, score)
    PROJECTION (~16 B/row) goes through the one unavoidable all-to-all (the
    range exchange of :class:`scan.SortedBlocks`); the global K-th row is
    then located from the sorted blocks' row counts -- the driver
    holds O(blocks) scalars plus ONE projection block -- and selection is a
    single streaming broadcast-threshold filter over the original dataset.
    Equivalent SQL: ``ROW_NUMBER() OVER (ORDER BY score DESC NULLS LAST,
    key) <= floor(n * fraction)``.

    ``descending=True`` keeps the LARGEST scores, in the order of
    :func:`exchange.segments`: a null score comes after every non-null one
    in either direction, so null-scored rows are kept only when the K-th
    row is one of them.  Scores may tie arbitrarily; rows that tie with the
    K-th row on (score, key) are all kept.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")

    order = _score_order(score_col, key_col, descending)
    blocks = SortedBlocks(ds.select_columns([key_col, score_col]), order)
    k = int(np.floor(blocks.total * fraction))
    if k <= 0:
        return ds.map_batches(lambda t: t.slice(0, 0),
                              batch_format="pyarrow", zero_copy_batch=True)
    if k >= blocks.total:
        return ds

    thr = blocks.row(k - 1)

    def keep(t: pa.Table) -> pa.Table:
        # the rows that sort at or before the K-th row: in the stable order
        # of the batch then that row, its equals come before it
        pos = segments(pa.concat_tables(
            [t.select([key_col, score_col]), thr],
            promote_options="permissive"), [], order_by=order)[0]
        sel = np.zeros(t.num_rows, dtype=bool)
        sel[pos[:int(np.flatnonzero(pos == t.num_rows)[0])]] = True
        return t.filter(pa.array(sel))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def _tile_of(rank: np.ndarray, total: int, ntile: int) -> np.ndarray:
    base, rem = divmod(total, ntile)
    if base == 0:
        # more tiles than rows: tile == rank for the rows that exist
        return rank.copy()
    big = rem * (base + 1)
    early = rank <= big
    t = np.empty(len(rank), dtype=np.int64)
    t[early] = (rank[early] - 1) // (base + 1) + 1
    t[~early] = rem + (rank[~early] - 1 - big) // base + 1
    return t


def _append_rank(t: pa.Table, off, rank_col: str, ntile: int | None,
                 tile_col: str, total: int) -> pa.Table:
    rank = off + 1 + np.arange(t.num_rows, dtype=np.int64)
    out = t.append_column(rank_col, pa.array(rank))
    if ntile is not None:
        out = out.append_column(tile_col, pa.array(_tile_of(rank, total, ntile)))
    return out


def global_rank(ds, score_col: str, key_col: str, descending: bool = False,
                rank_col: str = "rank", ntile: int | None = None,
                tile_col: str = "tile"):
    """Exact global 1-based rank of every row by ``score_col`` with
    deterministic ``key_col`` tie-breaking, optionally plus an exact SQL
    ``NTILE(q)`` assignment -- ``ROW_NUMBER() / NTILE(q) OVER (ORDER BY
    score [DESC] NULLS LAST, key)``.

    100 TB shape (the :func:`epoch_shuffle` scan): ONE range exchange (the
    unavoidable all-to-all behind any global order), then each block's
    rank offset from the row counts of the blocks before it and a
    streaming per-block offset + ``arange`` assignment -- rows move exactly
    once and the driver holds O(blocks) scalars.  Output is ordered by rank
    block-to-block.  Scores may tie; rows with equal (score, key) take
    consecutive ranks in an unspecified order, as under SQL
    ``ROW_NUMBER``.  Scores rank in the order of :func:`exchange.segments`,
    nulls after every non-null one.

    NTILE follows the SQL standard: with n rows the first ``n % q`` tiles
    get ``n // q + 1`` rows, the rest ``n // q``.
    """
    if ntile is not None and ntile < 1:
        raise ValueError(f"ntile must be >= 1, got {ntile}")

    blocks = SortedBlocks(ds, _score_order(score_col, key_col, descending))
    return blocks.scan(_append_rank, rank_col=rank_col, ntile=ntile,
                       tile_col=tile_col, total=blocks.total)


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
    the per-stratum quota table broadcasts as a lookup (strata are few
    by definition -- ``driver_strata_limit`` guards the assumption; a
    NULL stratum is one stratum).
    Pass 2 keeps at most k_g rows per stratum per BLOCK (vectorized
    partial top-k: each block's local top-k_g is a superset of its
    members of the global top-k_g), then ONE exchange on the stratum
    co-locates candidates and the final applies the identical selection
    exactly.
    """
    import ray
    import ray.data as rd

    from .aggregate import groupby_agg

    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if fraction == 0.0:
        return ds.map_batches(lambda t: t.slice(0, 0),
                              batch_format="pyarrow", zero_copy_batch=True)
    if fraction == 1.0:
        return ds

    counts = Blocks.of(groupby_agg(ds, [stratum_col],
                                   [(key_col, "count", "n")]).materialize())
    if counts.num_rows > driver_strata_limit:
        raise ValueError(
            f"{counts.num_rows} strata exceed driver_strata_limit="
            f"{driver_strata_limit}; stratified_sample assumes few strata")
    if not counts.num_rows:     # no input rows
        return rd.from_arrow(empty_table(ds))
    ct = counts.table()
    quotas = np.ceil(fraction * ct.column("n").to_numpy()).astype(np.int64)
    state = ray.put((canon_float(ct.column(stratum_col)), quotas))

    def select(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        strata, quotas = ray.get(state)
        # NULL matches NULL: the NULL stratum has its own quota
        quota = quotas[pc.index_in(canon_float(t.column(stratum_col)),
                                   value_set=strata,
                                   skip_nulls=False).to_numpy()]
        order, rank = _hash_ranks(t, stratum_col, key_col, seed)
        keep = np.empty(t.num_rows, dtype=bool)
        keep[order] = rank < quota[order]
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
