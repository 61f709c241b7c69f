"""Hash exchange: all-to-all co-location WITHOUT Ray's sort-based shuffle.

``Dataset.groupby("__bucket").map_groups(...)`` routes every row through
Ray Data's sort-based shuffle; on FULL-row payloads (joins, anti-filters,
rebuilds) that sort dominates end-to-end time and scales with block count
(measured: ~27 s for 1.6M rows / 200 blocks; 3-8x superlinear jumps in the
K=10 -> K=20 sweep).  The bucket ids here are already the partition -- no
ordering is needed -- so this module implements the classic two-stage hash
exchange with raw Ray tasks (the documented escape hatch for semantics the
Dataset API can't express):

* map side: one task per input block sorts it by bucket (one vectorized
  ``take`` via a counting-sort permutation -- NOT ``num_buckets`` filter
  scans) and cuts it into one shard per reduce task;
* reduce side: one task per GROUP of contiguous buckets; for each
  non-empty bucket of its group, in bucket order, it concats that
  bucket's slices of the shards and applies the per-bucket function.

``num_buckets`` is the unit of co-location and of the per-bucket
function; the cluster's CPU count sizes the exchange.  It runs
``G = min(num_buckets, cluster CPUs)`` reduce tasks (bucket ``b`` belongs
to group ``b * G // num_buckets``), so the map side creates blocks x G
objects and Ray's fixed per-task and per-object cost does not grow with
the bucket count.  Total object-store traffic equals the sort shuffle's
(every row moves once), but there is no sort, no sample pass, and Python
overhead is O(blocks x G + buckets).  The reduce output is a
``MaterializedDataset`` of one block per non-empty group, so downstream
stages stream as usual; read in order, its blocks hold the buckets in
bucket order.

Two-input operators (joins, anti-filters, dedup's attach and rebuild
hops) use the same split and reduce tasks through :func:`cogroup_by`:
each input is bucketed over its own keys and split on its own, keeping
its own schema, and one reduce task per group receives every input's
shards of that group.  For each bucket where any input has rows, the
per-bucket function gets one table per input -- a 0-row table with that
input's schema where the input has no rows there.  No union schema, no
null padding, no side column: every row moves with its own columns only.

Scale notes (100 TB): reduce tasks = min(num_buckets, CPUs) and a group's
output is one block, so one group's rows must fit the reduce worker's
heap (more CPUs shrink a group; more buckets do not).  Keep
``num_buckets`` at O(cluster cores), not O(keys).  One bucket's rows must
fit the per-bucket function -- identical to the map_groups contract this
replaces.  Every exchange logs its per-bucket row and byte counts (DEBUG)
and WARNs when the largest bucket holds more than 4x the median one.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray

logger = logging.getLogger(__name__)

# max/median rows of the non-empty buckets above which an exchange WARNs
_SKEW_WARN = 4.0


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
    routing function of every keyed exchange (:func:`hash_exchange_by`,
    :func:`cogroup_by`).  On an integer column it equals dedup's
    ``_hash_bucket`` of the same values bit for bit; that helper stays
    for dedup's one-input routes whose bucket is not a key column (pair
    keys, re-star buckets, gram prefixes) and for the file names of
    ``build_gram_df_index``."""
    h = stable_hash(table.column(keys[0]))
    for j, k in enumerate(keys[1:], 1):
        h = h ^ stable_hash(table.column(k)) * np.uint64(2 * j + 1)
    return (h % num_buckets).astype(np.int32)


def cluster_cpus() -> int:
    """CPUs of the Ray cluster: the most reduce tasks one exchange runs
    (and the ``2 * C`` floor of Ray's read parallelism that
    ``sources.transcripts.read_input`` follows)."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _first_bucket(g: int, num_buckets: int, groups: int) -> int:
    """First bucket of group ``g``: the least ``b`` with ``b * groups //
    num_buckets == g`` (``num_buckets`` for ``g == groups``)."""
    return -(-g * num_buckets // groups)


@ray.remote
def _split(block, num_buckets: int, groups: int, bucket_col: str):
    """Block -> ``groups`` shards (the caller sets ``num_returns``): the
    block's rows sorted by bucket (stable), cut at group boundaries, with
    the bucket column kept for the reduce side's per-bucket slicing."""
    if not isinstance(block, pa.Table):  # internal blocks may be pandas
        block = pa.Table.from_pandas(block, preserve_index=False)
    if block.num_rows == 0:
        # nothing to route; a 0-row input block skips the upstream map
        # UDF entirely and may arrive with the PRE-map schema (no bucket
        # column) -- the reduce side drops 0-row shards
        parts = [block] * groups
    elif bucket_col not in block.column_names:
        raise ValueError(f"hash_exchange: block missing {bucket_col}")
    else:
        b = block.column(bucket_col).to_numpy(zero_copy_only=False)
        order = np.argsort(b, kind="stable")          # counting-sort perm
        bounds = np.searchsorted(b[order], [
            _first_bucket(g, num_buckets, groups) for g in range(groups + 1)])
        taken = block.take(pa.array(order))
        parts = [taken.slice(bounds[g], bounds[g + 1] - bounds[g])
                 for g in range(groups)]
    return parts[0] if groups == 1 else tuple(parts)


@ray.remote(num_returns=2)
def _reduce(fn, lo: int, hi: int, bucket_col: str, counts, *shards):
    """Buckets ``[lo, hi)`` of one group -> ``(report, block)``.  The
    shards are ``len(counts)`` inputs' shards in a row, ``counts[i]`` of
    input ``i``.  ``fn`` runs once per bucket where any input has rows,
    in bucket order, with one table per input: that bucket's rows of the
    input in shard order, or a 0-row table with the input's schema (taken
    from any of its shards that carries ``bucket_col``).  The block
    concatenates its outputs.  ``report`` is an int64 ``(k, 2)`` array of
    the ``(rows, bytes)`` of each ``fn`` call's inputs (k == 0: the group
    emits no block)."""
    sides, at = [], 0
    for n in counts:
        typed = [s for s in shards[at:at + n] if bucket_col in s.column_names]
        at += n
        full = [s for s in typed if s.num_rows]
        cuts = [np.searchsorted(s.column(bucket_col).to_numpy(),
                                np.arange(lo, hi + 1)) for s in full]
        empty = typed[0].slice(0, 0).drop_columns([bucket_col]) if typed \
            else pa.table({})
        sides.append((full, cuts, empty))
    report, outs = [], []
    for j in range(hi - lo):
        tables = []
        for full, cuts, empty in sides:
            pieces = [s.slice(c[j], c[j + 1] - c[j])
                      for s, c in zip(full, cuts) if c[j + 1] > c[j]]
            tables.append(pa.concat_tables(pieces, promote_options="default")
                          .drop_columns([bucket_col]).combine_chunks()
                          if pieces else empty)
        rows = sum(t.num_rows for t in tables)
        if not rows:        # per-bucket fns never see an all-empty bucket
            continue
        report.append((rows, sum(t.nbytes for t in tables)))
        outs.append(fn(*tables))
    report = np.array(report, dtype=np.int64).reshape(-1, 2)
    if not outs:
        return report, pa.table({})
    return report, pa.concat_tables(outs, promote_options="permissive")


def _log_report(report: np.ndarray, num_buckets: int, groups: int,
                blocks: int) -> None:
    """The exchange report: one DEBUG line of per-bucket counts, and a
    WARNING when the non-empty buckets' max/median rows exceeds
    ``_SKEW_WARN``."""
    if not len(report):
        logger.debug("hash_exchange: %d buckets, %d reduce tasks, %d input "
                     "blocks, no rows", num_buckets, groups, blocks)
        return
    rows, nbytes = report[:, 0], report[:, 1]
    med = float(np.median(rows))
    logger.debug(
        "hash_exchange: %d buckets (%d non-empty), %d reduce tasks, %d input "
        "blocks, %d rows, %d bytes; rows per bucket min/median/max "
        "%d/%g/%d; bytes per bucket min/median/max %d/%g/%d",
        num_buckets, len(rows), groups, blocks, rows.sum(), nbytes.sum(),
        rows.min(), med, rows.max(),
        nbytes.min(), float(np.median(nbytes)), nbytes.max())
    if rows.max() > _SKEW_WARN * med:
        logger.warning(
            "hash_exchange: bucket skew %.2f (max %d / median %g rows over "
            "%d non-empty buckets) -- one bucket dominates its reduce task",
            rows.max() / med, rows.max(), med, len(rows))


def _append_bucket(t: pa.Table, keys: list[str], num_buckets: int) -> pa.Table:
    # module level: pickled by reference, so a worker looks up
    # stable_bucket_ids at call time (perfbench/tracing.py wraps it there)
    return t.append_column(
        "__bucket", pa.array(stable_bucket_ids(t, keys, num_buckets)))


def _bucketed(ds, keys: list[str], num_buckets: int):
    return ds.map_batches(
        _append_bucket, fn_kwargs={"keys": keys, "num_buckets": num_buckets},
        batch_format="pyarrow", zero_copy_batch=True)


def hash_exchange_by(ds, keys: list[str], reduce_fn, num_buckets: int = 32):
    """Co-locate the rows of ``ds`` that share ``keys`` and apply
    ``reduce_fn`` to each bucket's table: the map side appends
    ``__bucket = stable_bucket_ids(t, keys, num_buckets)``, then
    :func:`hash_exchange` runs.  The one keyed route for one-input
    exchanges whose bucket is a pure function of key columns."""
    return hash_exchange(_bucketed(ds, keys, num_buckets), num_buckets,
                         reduce_fn)


def cogroup_by(sides, reduce_fn, num_buckets: int = 32):
    """Keyed co-group of several inputs: ``sides`` is a list of ``(ds,
    keys)``, and ``reduce_fn(*tables)`` runs once per bucket where any
    side has rows, with that bucket's rows of each side (the rows whose
    ``keys`` values route there, in shard order).  Each side is bucketed
    by :func:`stable_bucket_ids` over its own keys and keeps its own
    schema; a side with no rows in a bucket arrives as a 0-row table with
    that side's schema.  For a side with no rows at all, that schema is
    ``ds.schema()`` (0 columns when Ray cannot tell it: a 0-row block
    skips every map UDF upstream).  Equal key values route alike on every
    side when the sides' key columns are all integers (any width), all
    floats or all strings (the lanes of :func:`key_lanes`).  Same
    exchange, report and retry contract as :func:`hash_exchange`; returns
    a MaterializedDataset."""
    from concurrent.futures import ThreadPoolExecutor

    groups = min(num_buckets, cluster_cpus())
    # one thread per side, so the sides' upstreams execute concurrently
    # (one after the other, bucketed_join and the big as-of join at sf0.1
    # took 0.4-0.9 s longer each on 4 Ray CPUs)
    with ThreadPoolExecutor(len(sides)) as pool:
        splits = list(pool.map(lambda side: _split_all(
            _bucketed(side[0], side[1], num_buckets), num_buckets, groups,
            "__bucket"), sides))
    per_side, blocks = [], 0
    for (ds, _), (shards, n_blocks, rows) in zip(sides, splits):
        if rows == 0:     # no shard carries this side's schema: send one
            schema = ds.schema()
            empty = pa.schema(zip(schema.names, schema.types)).empty_table() \
                if schema is not None else pa.table({})
            empty_ref = ray.put(empty.append_column(
                "__bucket", pa.array([], pa.int32())))
            shards = [g + [empty_ref] for g in shards]
        per_side.append(shards)
        blocks += n_blocks
    return _reduce_all(per_side, num_buckets, groups, reduce_fn, "__bucket",
                       blocks)


def _split_all(ds, num_buckets: int, groups: int, bucket_col: str):
    """Launch a split task per block of ``ds`` AS the upstream produces it
    (``iter_internal_ref_bundles`` streams refs with backpressure) -- the
    map side of the exchange then overlaps the upstream's straggler tail
    instead of waiting behind a full-execution barrier (measured at
    sf0.1: count_by final 1.10 s -> ~0.75 s).  Returns ``(shards, blocks,
    rows)``: the shard refs of each group, the input block count, and
    its row count (None when a block's count is unknown)."""
    split = _split.options(num_returns=groups)
    refs, rows = [], 0
    for bundle in ds.iter_internal_ref_bundles():
        for r in bundle.block_refs:
            s = split.remote(r, num_buckets, groups, bucket_col)
            refs.append(s if groups > 1 else [s])
        n = bundle.num_rows()
        rows = None if rows is None or n is None else rows + n
    return [[s[g] for s in refs] for g in range(groups)], len(refs), rows


def _reduce_all(per_side, num_buckets: int, groups: int, reduce_fn,
                bucket_col: str, blocks: int):
    """One reduce task per group over every side's shards of that group,
    the exchange report, and the output dataset."""
    import ray.data as rd

    counts = [len(shards[0]) for shards in per_side]
    report_refs, out_refs = [], []
    for g in range(groups):
        r, o = _reduce.remote(reduce_fn, _first_bucket(g, num_buckets, groups),
                              _first_bucket(g + 1, num_buckets, groups),
                              bucket_col, counts,
                              *[ref for shards in per_side for ref in shards[g]])
        report_refs.append(r)
        out_refs.append(o)
    reports = ray.get(report_refs)       # tiny arrays; reduces already ran
    _log_report(np.concatenate(reports), num_buckets, groups, blocks)
    kept = [o for r, o in zip(reports, out_refs) if len(r)]
    if not kept:
        # fully-empty input: one empty block (matches the sort-groupby
        # path, where map_groups never ran either)
        return rd.from_arrow_refs([out_refs[0]])
    return rd.from_arrow_refs(kept)


def hash_exchange(ds, num_buckets: int, reduce_fn, bucket_col: str = "__bucket"):
    """Co-locate rows of ``ds`` (which must already carry an int32
    ``bucket_col`` column in [0, num_buckets)) and apply ``reduce_fn``
    once to each non-empty bucket's full pyarrow Table (the bucket column
    dropped).  Returns a MaterializedDataset with one block per non-empty
    group of contiguous buckets -- ``min(num_buckets, cluster CPUs)``
    groups -- holding its buckets' outputs in bucket order.  A failed
    split or reduce task is retried by Ray (a reduce re-runs every bucket
    of its group), so ``reduce_fn`` must be a pure function of its table.
    See module docstring for the why and the partitioning contract.
    One-input exchanges keyed by columns go through
    :func:`hash_exchange_by`, several inputs through :func:`cogroup_by`;
    call this directly only when the bucket column is computed some other
    way (dedup's ``_hash_bucket`` routes: pair keys, re-star buckets,
    gram prefixes)."""
    groups = min(num_buckets, cluster_cpus())
    shards, blocks, _ = _split_all(ds, num_buckets, groups, bucket_col)
    if not blocks:
        return ds
    return _reduce_all([shards], num_buckets, groups, reduce_fn, bucket_col,
                       blocks)
