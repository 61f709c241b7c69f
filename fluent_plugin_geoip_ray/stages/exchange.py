"""Hash exchange: all-to-all co-location WITHOUT Ray's sort-based shuffle.

``Dataset.groupby("__bucket").map_groups(...)`` routes every row through
Ray Data's sort-based shuffle; on FULL-row payloads (joins, anti-filters,
rebuilds) that sort dominates end-to-end time and scales with block count
(measured: ~27 s for 1.6M rows / 200 blocks; 3-8x superlinear jumps in the
K=10 -> K=20 sweep).  The bucket ids here are already the partition -- no
ordering is needed -- so this module implements the classic two-stage hash
exchange with raw Ray tasks (the documented escape hatch for semantics the
Dataset API can't express):

* map side: one task per input block splits it into ``num_buckets``
  sub-tables (one vectorized ``take`` per bucket via a counting-sort
  permutation -- NOT ``num_buckets`` filter scans);
* reduce side: one task per bucket concats its shards and applies the
  per-bucket function.

Total object-store traffic equals the sort shuffle's (every row moves
once), but there is no sort, no sample pass, and Python overhead is
O(blocks + buckets).  The reduce output is a ``MaterializedDataset`` of
``num_buckets`` blocks, so downstream stages stream as usual.

Scale notes (100 TB): the map side creates blocks x buckets small objects;
keep ``num_buckets`` at O(cluster cores), not O(keys).  One bucket's rows
must fit the reduce worker's heap -- identical to the map_groups contract
this replaces.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray


def stable_hash(col) -> np.ndarray:
    """Type-stable per-row uint64 hash for BUCKET ROUTING of a key or
    value column.  The lane choice must never depend on a per-block
    property: ``to_pandas().to_numpy(dtype=object)`` yields int objects
    for a null-free int64 block but float objects for a null-carrying
    one, and pandas hashes ``138`` and ``138.0`` differently in the
    object lane -- one key value would silently split across buckets
    (round-5 review finding).  So integer Arrow columns ALWAYS hash
    through the int64 numeric lane with nulls filled (the fill value
    only picks the null rows' bucket; null keys never equal anything
    downstream), and every other type through the object lane, whose
    pandas conversion is per-type deterministic (strings stay str,
    floats stay float with or without nulls, timestamps stay
    Timestamp).  Accepts an Arrow Array/ChunkedArray or a numpy array
    (passed straight to ``pd.util.hash_array``).
    """
    import pandas as pd

    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        return pd.util.hash_array(key_lanes(col)[0])
    return pd.util.hash_array(col)


def canon_float(col):
    """Canonicalize IEEE -0.0 to +0.0 on float columns used as KEYS
    (``x + 0.0`` -- the identity everywhere else): SQL equality treats
    the two zeros as one key while Arrow's group_by / join / is_in and
    pandas hash_array all compare BIT PATTERNS.  The ONE helper every
    key consumer shares (hash lanes, aggregate key encoding, join
    kernels) so the invariant cannot drift.  halffloat passes through
    untouched (Arrow has no float16 add kernel; those keys keep the
    pre-existing bit-pattern behavior)."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.Array) and pa.types.is_floating(col.type) \
            and col.type != pa.float16():
        return pc.add(col, pa.scalar(0.0, col.type))
    return col


def _int64_view(col: pa.Array):
    """int64 view of an integer/bool/temporal column, total and
    deterministic: uint64 >= 2^63 WRAPS via the unsafe cast (a bit
    reinterpret -- injective, which is all hashing and equality need);
    date32/time32 widen to their 64-bit kin first (Arrow has no direct
    int64 kernel for them)."""
    import pyarrow.compute as pc

    t = col.type
    if pa.types.is_date32(t):
        col = pc.cast(col, pa.date64())
    elif pa.types.is_time32(t):
        col = pc.cast(col, pa.time64("us"))
    return pc.cast(col, pa.int64(), safe=False)


def key_lanes(col):
    """Key column -> ``(filled_values, is_null)`` numpy pair -- THE
    per-type-deterministic representation shared by bucket hashing
    (:func:`stable_hash`), the window family's segment sort, and the
    as-of matchers.  The lane never depends on a per-block property
    (null count, inferred pandas dtype): integer/bool/temporal columns
    always take the int64 lane (exact; uint64 wraps, date32/time32
    widen), floats the float64 lane, strings ""-filled objects.  Nulls
    are FILLED in the values lane (fill only decides null rows' bucket;
    callers use the null lane to sort them last / match them nowhere /
    segment them apart).  Object-lane NaN never appears, so np.lexsort
    comparators stay consistent."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    kn = np.asarray(pc.is_null(col)) if col.null_count \
        else np.zeros(len(col), dtype=bool)
    t = col.type
    if pa.types.is_integer(t) or pa.types.is_boolean(t) or \
            pa.types.is_temporal(t):
        kf = np.asarray(pc.fill_null(_int64_view(col), 0))
    elif pa.types.is_floating(t):
        # + 0.0 canonicalizes -0.0 (see canon_float): hash_array hashes
        # BIT PATTERNS and would split the two zeros across buckets
        kf = np.asarray(pc.fill_null(pc.cast(col, pa.float64()), 0.0)) + 0.0
    elif pa.types.is_string(t) or pa.types.is_large_string(t):
        kf = pc.fill_null(col, "").to_pandas().to_numpy(dtype=object)
    else:
        kf = col.to_pandas().to_numpy(dtype=object)
    return kf, kn


def stable_bucket_ids(table: pa.Table, keys: list[str],
                      num_buckets: int) -> np.ndarray:
    """int32 bucket ids from the :func:`stable_hash` of each key column,
    combined with a distinct odd multiplier per column (``2j + 1``):
    plain XOR cancels when two key columns hold equal values.  Column 0's
    multiplier is 1, so single-key ids are ``stable_hash(col) % B``.  The
    one routing function every exchange producer shares."""
    h = stable_hash(table.column(keys[0]))
    for j, k in enumerate(keys[1:], 1):
        h = h ^ stable_hash(table.column(k)) * np.uint64(2 * j + 1)
    return (h % num_buckets).astype(np.int32)


@ray.remote
def _split(block, num_buckets: int, bucket_col: str):
    """Block -> ``num_buckets`` tables (the caller sets ``num_returns``)."""
    if not isinstance(block, pa.Table):  # internal blocks may be pandas
        block = pa.Table.from_pandas(block, preserve_index=False)
    if bucket_col not in block.column_names:
        # a 0-row input block skips the upstream map UDF entirely and
        # arrives with the PRE-map schema; emit 0-column sentinels the
        # reduce side drops (a non-empty block without __bucket is a
        # caller bug)
        if block.num_rows:
            raise ValueError(
                f"hash_exchange: block missing {bucket_col}")
        parts = [pa.table({})] * num_buckets
        return parts[0] if num_buckets == 1 else tuple(parts)
    b = block.column(bucket_col).to_numpy(zero_copy_only=False)
    body = block.drop_columns([bucket_col])
    if block.num_rows == 0:
        parts = [body] * num_buckets
    else:
        order = np.argsort(b, kind="stable")          # counting-sort perm
        sorted_b = b[order]
        bounds = np.searchsorted(sorted_b, np.arange(num_buckets + 1))
        idx = pa.array(order)
        taken = body.take(idx)
        parts = [taken.slice(bounds[i], bounds[i + 1] - bounds[i])
                 for i in range(num_buckets)]
    if num_buckets == 1:
        return parts[0]
    return tuple(parts)


@ray.remote(num_returns=2)
def _reduce(fn, *shards):
    real = [s for s in shards if s.num_columns]      # drop sentinels
    if not real or not any(s.num_rows for s in real):
        # match map_groups semantics: an empty bucket emits NO block
        # (per-bucket fns never see 0-row input)
        return False, pa.table({})
    t = pa.concat_tables([s for s in real if s.num_rows],
                         promote_options="default")
    return True, fn(t.combine_chunks())


def _append_bucket(t: pa.Table, keys: list[str], num_buckets: int) -> pa.Table:
    # module level: pickled by reference, so a worker looks up
    # stable_bucket_ids at call time (perfbench/tracing.py wraps it there)
    return t.append_column(
        "__bucket", pa.array(stable_bucket_ids(t, keys, num_buckets)))


def hash_exchange_by(ds, keys: list[str], reduce_fn, num_buckets: int = 32):
    """Co-locate the rows of ``ds`` that share ``keys`` and apply
    ``reduce_fn`` to each bucket's table: the map side appends
    ``__bucket = stable_bucket_ids(t, keys, num_buckets)``, then
    :func:`hash_exchange` runs.  The one keyed route for exchanges whose
    bucket is a pure function of key columns."""
    bucketed = ds.map_batches(
        _append_bucket, fn_kwargs={"keys": keys, "num_buckets": num_buckets},
        batch_format="pyarrow", zero_copy_batch=True)
    return hash_exchange(bucketed, num_buckets, reduce_fn)


def hash_exchange(ds, num_buckets: int, reduce_fn, bucket_col: str = "__bucket"):
    """Co-locate rows of ``ds`` (which must already carry an int32
    ``bucket_col`` column in [0, num_buckets)) and apply ``reduce_fn`` to
    each bucket's full pyarrow Table.  Returns a MaterializedDataset with
    one block per bucket.  See module docstring for the why and the
    partitioning contract.  Exchanges keyed by columns go through
    :func:`hash_exchange_by`; call this directly only when the bucket
    column is computed some other way (join sides, dedup routes)."""
    import ray.data as rd

    split = _split.options(num_returns=num_buckets)
    # Launch a split task per block AS the upstream produces it
    # (iter_internal_ref_bundles streams refs with backpressure) -- the
    # map side of the exchange then overlaps the upstream's straggler tail
    # instead of waiting behind a full-execution barrier (to_arrow_refs).
    # Measured at sf0.1: count_by final 1.10 s -> ~0.75 s; identical refs.
    shard_refs = []
    for bundle in ds.iter_internal_ref_bundles():
        shard_refs.extend(split.remote(r, num_buckets, bucket_col)
                          for r in bundle.block_refs)
    if not shard_refs:
        return ds
    if num_buckets == 1:
        per_bucket = [tuple(shard_refs)]
    else:
        per_bucket = list(zip(*shard_refs))
    flag_refs, out_refs = [], []
    for parts in per_bucket:
        f, o = _reduce.remote(reduce_fn, *parts)
        flag_refs.append(f)
        out_refs.append(o)
    flags = ray.get(flag_refs)           # tiny bools; reduces already ran
    kept = [o for f, o in zip(flags, out_refs) if f]
    if not kept:
        # fully-empty input: one empty block (matches the sort-groupby
        # path, where map_groups never ran either)
        return rd.from_arrow_refs([out_refs[0]])
    return rd.from_arrow_refs(kept)
