"""Streaming-shaped operators: tumbling / sliding / session windows.

Ray Data has no event-time windowing; per the category sweep (SURVEY §2.3)
the reference has none either, but a log/telemetry engine needs them.  The
input is treated as an ordered partitioned log (the ``events`` table):

* tumbling: window id = ``ts // size`` computed vectorized per batch, then
  the partial+final grouped aggregate -- no sort needed at all.
* sliding: each event belongs to ``size/step`` windows; the assignment is an
  exploded vectorized repeat per batch, counts via partial+final groupby.
* session: gap-based sessionization needs per-key time order -> sorted-scan
  implementation (sessions are contiguous runs after a (key, ts) sort; one
  vectorized pass per block + O(blocks) boundary-carry scan); the
  per-group ``map_groups`` reference lives in the tests as a referee.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .aggregate import groupby_agg
from .exchange import hash_exchange_by


def _key_lanes(col: pa.Array | pa.ChunkedArray):
    """Partition-key or order column -> ``(filled_values, is_null)``
    numpy pair for WITHIN-BUCKET lexsort and neighbor compares --
    delegates to :func:`exchange.key_lanes` (one lane dispatch for
    hashing, sorting and matching; see its docstring for the per-type
    contract).  The null lane sorts nulls last, keeps each null key
    row its own segment (the documented null-key caveat) and makes null
    order values peers of each other."""
    from .exchange import key_lanes

    return key_lanes(col)


def _numeric_src(t: pa.Table, src: str) -> pa.Array:
    """Fetch an aggregate source column, tolerating the NULL-TYPED
    columns Ray Data block rebuilds (repartition/split) infer for
    blocks whose column is entirely null: a null-typed source becomes
    an all-null float64 lane here (every aggregate of it is NULL
    anyway), instead of crashing an impossible cast later; downstream
    union promotes null/float64 blocks against the real-typed buckets.
    """
    col = t.column(src)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_null(col.type):
        return pa.nulls(t.num_rows, pa.float64())
    return col


def _sorted_segments(t: pa.Table, key: str, order_by: list[str],
                     need_order_cols: bool = False):
    """Shared reduce-side preamble of the frame family: lexsort the
    bucket by (key, *order_by) -- every column through the nulls-last
    null-safe lanes of :func:`_key_lanes` (NaN sorts after every number,
    before NULL: the SQL ``ASC NULLS LAST`` order) -- then locate key
    segments.  Returns ``(t_sorted, sorted_order_lanes, g, starts,
    start_idx, seg, seg_base)`` where ``g`` is the sorted filled key lane
    (length bookkeeping + equality together with ``starts``), ``starts``
    flags segment heads (null keys each start one), ``seg`` is the
    per-row segment id and ``seg_base`` each row's segment-head index.
    ``sorted_order_lanes`` (one ``(values, is_null)`` pair per order
    column, re-gathered into sorted row order) is only materialized when
    ``need_order_cols`` -- just the rank family reads it; everyone else
    skips the O(n) gathers."""
    kf, kn = _key_lanes(t.column(key))
    order_lanes = [_key_lanes(t.column(c)) for c in order_by]
    sort_cols = [lane for vf, vn in reversed(order_lanes)
                 for lane in (vf, vn)] + [kf, kn]
    order = np.lexsort(tuple(sort_cols))
    t = t.take(pa.array(order))
    g, gn = kf[order], kn[order]
    n = len(g)
    starts = np.ones(n, dtype=bool)
    if n > 1:
        starts[1:] = (g[1:] != g[:-1]) | gn[1:] | gn[:-1]
    start_idx = np.flatnonzero(starts)
    seg = np.cumsum(starts) - 1
    seg_base = start_idx[seg]
    ordered_lanes = [(vf[order], vn[order]) for vf, vn in order_lanes] \
        if need_order_cols else []
    return t, ordered_lanes, g, starts, start_idx, seg, seg_base


def _ts_us(batch: pa.Table, ts_col: str) -> np.ndarray:
    col = batch.column(ts_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def tumbling_window(ds, ts_col: str = "ts", size_sec: int = 3600,
                    keys: list[str] | None = None,
                    aggs: list[tuple] | None = None):
    """Tumbling event-time windows: emits one row per (key..., window_start)
    with the requested aggregates (default: n = count)."""
    size_us = size_sec * 1_000_000
    keys = keys or []
    aggs = aggs or [(ts_col, "count", "n")]

    def assign(batch: pa.Table) -> pa.Table:
        w = (_ts_us(batch, ts_col) // size_us) * size_sec
        return batch.append_column("window_start", pa.array(w, type=pa.int64()))

    assigned = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    return groupby_agg(assigned, keys + ["window_start"], aggs)


def sliding_window_counts(ds, ts_col: str = "ts", size_sec: int = 3600,
                          step_sec: int = 900, keys: list[str] | None = None):
    """Sliding-window counts: each event replicated into the ``size/step``
    windows covering it (vectorized explode), then partial+final counts."""
    assert size_sec % step_sec == 0
    k = size_sec // step_sec
    step_us = step_sec * 1_000_000
    keys = keys or []

    def explode(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch, ts_col)
        base = ts // step_us  # last step boundary at/before the event
        # windows starting at (base - j) * step for j in 0..k-1 contain ts
        starts = ((base[:, None] - np.arange(k)[None, :]) * step_sec).ravel()
        idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), k)
        cols = {"window_start": pa.array(starts, type=pa.int64())}
        for key in keys:
            col = batch.column(key)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            cols[key] = col.take(pa.array(idx))
        t = pa.table(cols)
        g = t.group_by(keys + ["window_start"]).aggregate([([], "count_all")])
        return g.rename_columns(list(g.column_names[:-1]) + ["n"])

    partials = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    return groupby_agg(partials, keys + ["window_start"], [("n", "sum", "n")])


def session_windows(ds, key: str = "user_id", ts_col: str = "ts",
                    gap_sec: int = 1800, order_tiebreak: str | None = None,
                    driver_limit: int = 250_000):
    """Gap-based sessionization per key -> (key, session_idx, n_events,
    ts_min, ts_max), session_idx numbered 1.. per key in time order --
    equivalent to the SQL lag()+cumulative-sum idiom (the oracle).

    Global sort by (key, ts[, tiebreak]), then sessions are CONTIGUOUS
    runs -- one vectorized pass per block computes run breaks, with an
    O(blocks) boundary-carry scan (last row of each block -> next block's
    first-break flag + run-id offset) exactly like the pack_bins scan.
    Run stats are per-block ``reduceat`` partials merged by run id; only
    O(blocks + sessions) rows ever leave the workers.  The final merge
    runs on the driver up to ``driver_limit`` sessions and through a hash
    exchange on ``key`` above it (see :func:`_session_windows_scan`).
    """
    return _session_windows_scan(ds, key, ts_col, gap_sec, order_tiebreak,
                                 driver_limit=driver_limit)


def _key_arrow(batch: pa.Table, key: str) -> pa.Array:
    col = batch.column(key)
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _session_windows_scan(ds, key: str, ts_col: str, gap_sec: int,
                          order_tiebreak: str | None,
                          num_buckets: int = 32, driver_limit: int = 250_000):
    """Sorted-scan sessionization (see :func:`session_windows`).

    After the (key, ts) sort + materialize, blocks are addressed
    POSITIONALLY via ``to_arrow_refs`` -- one Ray task per block, so block
    identity never depends on row content (round-2 ADVICE: the old
    first-row-tuple block map silently collided when a run of duplicate
    (key, ts) rows spanned a block, and only worked for int64 keys).  Keys
    stay Arrow-typed end to end: int64, string, anything comparable.

    Driver state is O(blocks) scalars (boundary-carry + run-id offsets).
    The final merge auto-switches on the global session count (free on the
    driver: the run-id counter): below ``driver_limit`` one C++ pass over
    the collected O(runs) partial rows; above it the partials become a
    Dataset (``from_arrow_refs``, zero-copy) hash-exchanged on ``key`` --
    run ids are assigned in global (key, ts) sort order, so each key's runs
    form a contiguous id range: one argsort per bucket groups keys AND
    orders sessions, and ``session_idx`` is a per-key arange.  No driver
    state at any cardinality on that path.
    """
    import ray
    import ray.data as rd

    gap_us = np.int64(gap_sec) * 1_000_000
    sort_cols = [key, ts_col] + ([order_tiebreak] if order_tiebreak else [])
    sorted_ds = ds.sort(sort_cols).materialize()
    refs = sorted_ds.to_arrow_refs()  # dataset (= sort) order

    @ray.remote
    def block_summary(t: pa.Table):
        # (first_key, first_ts, last_key, last_ts, internal_runs); None when
        # the block is empty (excluded from the boundary chain)
        if t.num_rows == 0:
            return None
        kn = _key_arrow(t, key).to_numpy(zero_copy_only=False)
        ts = _ts_us(t, ts_col)
        n_internal = 0
        if len(kn) > 1:
            n_internal = int(((kn[1:] != kn[:-1]) | (np.diff(ts) > gap_us)).sum())
        return (kn[0], int(ts[0]), kn[-1], int(ts[-1]), n_internal)

    summaries = ray.get([block_summary.remote(r) for r in refs])
    live = [(r, s) for r, s in zip(refs, summaries) if s is not None]
    if not live:
        key_type = pa.int64()
        if refs:
            sch = ray.get(refs[0]).schema
            if key in sch.names:
                key_type = sch.field(key).type
        return rd.from_arrow(pa.schema([
            (key, key_type), ("session_idx", pa.int64()),
            ("n_events", pa.int64()),
            ("ts_min", pa.timestamp("us")), ("ts_max", pa.timestamp("us")),
        ]).empty_table())
    fk = np.array([s[0] for _, s in live], dtype=object)
    ft = np.array([s[1] for _, s in live], dtype=np.int64)
    lk = np.array([s[2] for _, s in live], dtype=object)
    lt = np.array([s[3] for _, s in live], dtype=np.int64)
    runs = np.array([s[4] for _, s in live], dtype=np.int64)
    n_blocks = len(live)
    brk0 = np.zeros(n_blocks, dtype=bool)
    brk0[0] = True  # very first row starts run 1
    if n_blocks > 1:
        brk0[1:] = (fk[1:] != lk[:-1]) | (ft[1:] - lt[:-1] > gap_us)
    offsets = np.zeros(n_blocks, dtype=np.int64)
    acc = np.cumsum(brk0.astype(np.int64) + runs)
    offsets[1:] = acc[:-1]

    @ray.remote
    def run_partials(t: pa.Table, off: int, first_brk: bool) -> pa.Table:
        k = _key_arrow(t, key)
        kn = k.to_numpy(zero_copy_only=False)
        ts = _ts_us(t, ts_col)
        brk = np.empty(len(kn), dtype=bool)
        brk[0] = first_brk
        if len(kn) > 1:
            brk[1:] = (kn[1:] != kn[:-1]) | (np.diff(ts) > gap_us)
        run_id = off + np.cumsum(brk.astype(np.int64))  # global, contiguous
        # per-run stats via reduceat over contiguous runs; row 0 always
        # starts a partial segment (its run may continue from prev block)
        seg = brk.copy()
        seg[0] = True
        starts = np.flatnonzero(seg)
        n_ev = np.diff(np.append(starts, len(kn)))
        return pa.table({
            key: k.take(pa.array(starts)),
            "run_id": pa.array(run_id[starts]),
            "n_events": pa.array(n_ev.astype(np.int64)),
            "ts_min": pa.array(ts[starts]),
            "ts_max": pa.array(ts[np.append(starts[1:], len(kn)) - 1]),
        })

    part_refs = [
        run_partials.remote(r, int(o), bool(c))
        for (r, _), o, c in zip(live, offsets, brk0)
    ]

    def _finalize(t: pa.Table) -> pa.Table:
        kcol = _key_arrow(t, key)
        rid = t.column("run_id").to_numpy(zero_copy_only=False)
        nev = t.column("n_events").to_numpy(zero_copy_only=False)
        tmin = t.column("ts_min").to_numpy(zero_copy_only=False)
        tmax = t.column("ts_max").to_numpy(zero_copy_only=False)
        # run ids are globally ordered by (key, ts): one argsort both merges
        # duplicate run segments AND leaves each key's runs contiguous in
        # time order -- no object-dtype key sort needed
        order = np.argsort(rid, kind="stable")
        rs = rid[order]
        starts = np.flatnonzero(np.r_[True, rs[1:] != rs[:-1]])
        nev_m = np.add.reduceat(nev[order], starts)
        tmin_m = np.minimum.reduceat(tmin[order], starts)
        tmax_m = np.maximum.reduceat(tmax[order], starts)
        kidx = order[starts]
        kn = kcol.to_numpy(zero_copy_only=False)[kidx]
        firsts = np.r_[True, kn[1:] != kn[:-1]]
        group_start = np.maximum.accumulate(
            np.where(firsts, np.arange(len(kn)), 0)
        )
        session_idx = np.arange(len(kn)) - group_start + 1
        return pa.table({
            key: kcol.take(pa.array(kidx)),
            "session_idx": pa.array(session_idx.astype(np.int64)),
            "n_events": pa.array(nev_m.astype(np.int64)),
            "ts_min": pa.array(tmin_m).cast(pa.timestamp("us")),
            "ts_max": pa.array(tmax_m).cast(pa.timestamp("us")),
        })

    # final merge: total session count is already known on the driver for
    # free (acc[-1] = global run counter), so the choice costs nothing to
    # make -- driver merge below driver_limit (one C++ pass over O(runs)
    # rows), bucketed hash exchange on key above it (no driver state at any
    # cardinality; all segments of a run share its key, so boundary-spanning
    # runs reunite in their bucket).
    if int(acc[-1]) <= driver_limit:
        tables = [t for t in ray.get(part_refs) if t.num_rows]
        return rd.from_arrow(_finalize(pa.concat_tables(tables).combine_chunks()))
    return hash_exchange_by(rd.from_arrow_refs(part_refs), [key], _finalize,
                            num_buckets)


def rate_limit(ds, key: str, ts_col: str, window_sec: int, k: int,
               tie_breakers: list[str] | None = None,
               driver_limit: int = 2_000_000, num_buckets: int = 32):
    """Per-key rate limiting / quota enforcement: keep only the FIRST
    ``k`` rows (by ``ts_col`` ascending, then ``tie_breakers``) inside
    each (key, tumbling ``window_sec`` window) -- the log-pipeline
    throttle (``ROW_NUMBER() OVER (PARTITION BY key, window ORDER BY ts,
    ties) <= k``).

    Composition: a composite (key, window) group column feeds
    :func:`..aggregate.top_k_by_group` with ``descending=False`` -- so
    the partial/final shape is the algebraic grouped top-k (at most k
    rows per group per block leave a worker; bucketed final above the
    driver limit).  Works for string or integer keys.
    """
    import pyarrow.compute as pc

    from .aggregate import top_k_by_group

    if window_sec <= 0:
        raise ValueError(f"window_sec must be > 0, got {window_sec}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    width_us = int(window_sec) * 1_000_000

    def add_grp(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col)
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        win = pc.divide(ts.cast(pa.int64()), width_us)
        grp = pc.binary_join_element_wise(
            t.column(key).cast(pa.string()), win.cast(pa.string()), "|")
        return t.append_column("__rl_grp", grp)

    limited = top_k_by_group(
        ds.map_batches(add_grp, batch_format="pyarrow",
                       zero_copy_batch=True),
        "__rl_grp", ts_col, k, descending=False,
        tie_breakers=tie_breakers, driver_limit=driver_limit,
        num_buckets=num_buckets)
    return limited.drop_columns(["__rl_grp"])


def lag_lead_by(ds, key: str, order_by: list[str], cols: dict,
                offset: int = 1, num_buckets: int = 32):
    """Per-key navigation functions -- SQL ``LAG/LEAD(col, offset) OVER
    (PARTITION BY key ORDER BY ...)``: each row gets columns from its
    neighbor ``offset`` rows earlier/later within its own key's order
    (NULL at partition edges).

    ``cols`` maps source column -> (direction, output name) with
    direction in {"lag", "lead"}.  Rows of a key must co-locate (the
    neighbor can live in another block), so the needed projection moves
    through ONE hash exchange on the key; each bucket lexsorts once and
    every shift is an Arrow ``take`` with edge nulls -- no per-row
    Python.  Output preserves all projected columns; project upstream so
    only needed columns shuffle.
    """
    import numpy as np
    import pandas as pd

    if offset < 1:
        raise ValueError(f"offset must be >= 1, got {offset}")
    for src, (direction, _out) in cols.items():
        if direction not in ("lag", "lead"):
            raise ValueError(f"direction must be lag|lead, got "
                             f"{direction!r} for {src!r}")

    def shift_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t, _oc, g, starts, _si, _seg, _sb = _sorted_segments(t, key, order_by)
        n = len(g)
        same_prev = ~starts
        # lag valid at i iff rows i-offset..i all share the key (the
        # offset consecutive same_prev flags ending at i are all True)
        ok_lag = np.zeros(n, dtype=bool)
        if n > offset:
            ok_lag[offset:] = np.all(
                [same_prev[offset - d:n - d] for d in range(offset)],
                axis=0)
        idx_lag = np.arange(n, dtype=np.int64) - offset
        idx_lead_ok = np.zeros(n, dtype=bool)
        if n > offset:
            idx_lead_ok[:n - offset] = np.all(
                [same_prev[d + 1:n - offset + d + 1]
                 for d in range(offset)], axis=0)
        idx_lead = np.arange(n, dtype=np.int64) + offset
        out = t
        for src, (direction, out_name) in cols.items():
            col = t.column(src)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if direction == "lag":
                take = np.where(ok_lag, idx_lag, -1)
                valid = ok_lag
            else:
                take = np.where(idx_lead_ok, idx_lead, -1)
                valid = idx_lead_ok
            idx = pa.array(np.where(valid, take, 0), pa.int64())
            shifted = col.take(idx)
            shifted = pc.if_else(pa.array(valid), shifted,
                                 pa.scalar(None, col.type))
            out = out.append_column(out_name, shifted)
        return out

    return hash_exchange_by(ds, [key], shift_bucket, num_buckets)


def funnel(ds, key: str, ts_col: str, type_col: str, steps: list[str],
           num_buckets: int = 32, batch_size: int = 65536):
    """Ordered funnel analysis: per key, the earliest timestamp at which
    each step completes IN ORDER (step i+1 strictly after step i's
    completion).  Output: one row per key that completed step 1, with a
    timestamp column ``t<i>`` per step, null from the first broken link
    onward -- the SQL chained-CTE funnel (min ts > previous step's min).

    Scale shape: only rows whose type is a funnel step move, projected to
    (key, ts, step_idx) -- ONE hash exchange on the key, then each bucket
    is fully vectorized (lexsort + per-step masked segment minima; no
    per-key Python).  Skewed keys cost one segment scan per step.
    """
    import pyarrow.compute as pc

    steps_arr = pa.array(steps, pa.string())
    n_steps = len(steps)
    sentinel = np.iinfo(np.int64).max

    # resolve the timestamp type once from the dataset schema
    sch = ds.schema()
    ts_type = sch.types[sch.names.index(ts_col)]
    key_type = sch.types[sch.names.index(key)]

    def project(t: pa.Table) -> pa.Table:
        types = t.column(type_col)
        if isinstance(types, pa.ChunkedArray):
            types = types.combine_chunks()
        idx = pc.index_in(types, value_set=steps_arr)
        keep = pc.is_valid(idx)
        return pa.table({
            key: t.column(key).filter(keep),
            "__ts": t.column(ts_col).filter(keep).cast(pa.int64()),
            "__step": idx.filter(keep).cast(pa.int8()),
        })

    projected = ds.map_batches(project, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=batch_size)

    def per_bucket(t: pa.Table) -> pa.Table:
        kv = t.column(key).to_pandas().to_numpy()
        ts = t.column("__ts").to_numpy(zero_copy_only=False)
        st = t.column("__step").to_numpy(zero_copy_only=False)
        codes, uniques = pd.factorize(kv, sort=True)
        order = np.lexsort((ts, codes))
        cs, ts_s, st_s = codes[order], ts[order], st[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        seg_id = np.cumsum(np.r_[False, cs[1:] != cs[:-1]])
        n_seg = len(starts)
        prev_seg = np.full(n_seg, np.iinfo(np.int64).min)
        mins = []
        for si in range(n_steps):
            mask = (st_s == si) & (ts_s > prev_seg[seg_id])
            vals = np.where(mask, ts_s, sentinel)
            m = np.minimum.reduceat(vals, starts) if len(vals) else \
                np.empty(0, np.int64)
            mins.append(m)
            prev_seg = m  # sentinel propagates: later steps can't qualify
        reached1 = mins[0] != sentinel
        out = {key: pa.array(uniques[cs[starts][reached1]], type=key_type)}
        for si in range(n_steps):
            m = pa.array(mins[si][reached1], pa.int64())
            m = pc.if_else(pc.equal(m, pa.scalar(sentinel, pa.int64())),
                           pa.scalar(None, pa.int64()), m)
            out[f"t{si + 1}"] = m.cast(ts_type)
        return pa.table(out)

    out = hash_exchange_by(projected, [key], per_bucket, num_buckets)
    # a funnel can collapse to EMPTY from non-empty input (no key reaches
    # step 1); the empty exchange loses its schema, so rebuild a typed
    # empty result instead of returning a zero-column dataset
    try:
        names = out.schema().names
    except Exception:  # noqa: BLE001 - schema of empty dataset
        names = []
    if key not in (names or []):
        import ray.data as rd

        empty = {key: pa.array([], sch.types[sch.names.index(key)])}
        for si in range(n_steps):
            empty[f"t{si + 1}"] = pa.array([], ts_type)
        return rd.from_arrow(pa.table(empty))
    return out


def dense_tumbling(ds, ts_col: str = "ts", size_sec: int = 3600,
                   keys: list[str] | None = None,
                   count_col: str = "n", num_buckets: int = 32):
    """Gap-filled tumbling counts: one row per (key..., window) for EVERY
    window between each key's first and last event -- empty windows emit
    ``n = 0`` (what dashboards and rate alerting need; plain tumbling
    counts silently skip quiet windows).

    Scale shape: the sparse counts come from :func:`tumbling_window`
    (partial+final, O(keys x windows-with-data) rows); the per-key
    [min, max] window ranges are a tiny aggregate; dense rows generate
    inside ONE hash exchange on the (composite) key where each bucket
    zero-fills its own keys' ranges vectorized (repeat + arange) and
    stitches the sparse counts in with a vectorized scatter.  Only count
    rows move -- never events.  Skew note: one key's windows live in one
    bucket; a key spanning W windows costs O(W) rows there (bounded by
    time range / size, not data volume)."""
    keys = keys or []
    if not keys:
        raise ValueError("dense_tumbling requires at least one key column")

    def densify(t: pa.Table) -> pa.Table:
        key_types = {k: t.schema.field(k).type for k in keys}
        if t.num_rows == 0:
            cols = {k: pa.array([], key_types[k]) for k in keys}
            cols["window_start"] = pa.array([], pa.int64())
            cols[count_col] = pa.array([], pa.int64())
            return pa.table(cols)
        w = t.column("window_start").to_numpy(
            zero_copy_only=False).astype(np.int64)
        n = t.column(count_col).to_numpy(zero_copy_only=False)
        kvs = [t.column(k).to_pandas().to_numpy() for k in keys]
        codes = [pd.factorize(kv, sort=False)[0] for kv in kvs]
        order = np.lexsort(tuple([w] + codes[::-1]))
        ws, ns = w[order], n[order]
        cs = [c[order] for c in codes]
        changed = np.zeros(len(ws) - 1, dtype=bool)
        for c in cs:
            changed |= c[1:] != c[:-1]
        starts = np.flatnonzero(np.r_[True, changed])
        ends = np.append(starts[1:], len(ws))
        lo, hi = ws[starts], ws[ends - 1]
        n_win = ((hi - lo) // size_sec + 1).astype(np.int64)
        total = int(n_win.sum())
        seg = np.repeat(np.arange(len(starts)), n_win)
        base = np.concatenate([[0], np.cumsum(n_win)[:-1]])
        ordinal = np.arange(total) - base[seg]
        dense_w = lo[seg] + ordinal * size_sec
        # stitch sparse counts with one vectorized scatter: sparse row r in
        # segment s lands at dense position base[s] + (w - lo[s]) / size
        seg_id = np.cumsum(np.r_[False, changed])
        dense_n = np.zeros(total, dtype=np.int64)
        posd = base[seg_id] + (ws - lo[seg_id]) // size_sec
        dense_n[posd] = ns
        rep = starts[seg]
        out = {k: pa.array(kvs[j][order][rep]).cast(key_types[k])
               for j, k in enumerate(keys)}
        out["window_start"] = pa.array(dense_w)
        out[count_col] = pa.array(dense_n)
        return pa.table(out)

    sparse = tumbling_window(ds, ts_col=ts_col, size_sec=size_sec,
                             keys=keys)
    return hash_exchange_by(sparse, keys, densify, num_buckets)


def running_agg(ds, key: str, order_by: list[str], aggs: list,
                num_buckets: int = 32):
    """Per-key CUMULATIVE window aggregates -- SQL ``agg(col) OVER
    (PARTITION BY key ORDER BY ... ROWS UNBOUNDED PRECEDING)`` plus the
    frame-less rank family.  Completes the window family next to
    :func:`lag_lead_by` (navigation) and :func:`rate_limit` (bounded
    frames): running totals, running extrema, row numbers, NTILE.

    ``aggs`` is a list of ``(src, agg, out)`` with ``agg`` in ``{"sum",
    "count", "min", "max", "row_number", "rank", "dense_rank",
    "percent_rank", "cume_dist", "first_value", "nth_value:<n>",
    "ntile:<k>"}`` (``src`` is ignored for the rank family and
    ``ntile``; ``nth_value:<n>`` is the frame's n-th row's value once
    the running frame reaches n rows, NULL before -- null-keeping like
    ``first_value``).  SQL null semantics:
    ``sum``/``count``/``min``/``max`` skip NULL inputs and are NULL
    until the first non-null value of the key's frame; ``first_value``
    does NOT skip nulls (the SQL default); ``ntile:<k>`` assigns the
    first ``n % k`` tiles one extra row (the SQL NTILE contract);
    ``rank``/``dense_rank``/``percent_rank``/``cume_dist`` are
    tie-aware over the FULL ``order_by`` tuple, with NULL order values
    peers of each other and NaNs peers of each other, NaN sorting before
    NULL as its own peer group (the SQL contract) (``percent_rank`` =
    ``(rank-1)/(n-1)``, 0.0 for single-row partitions; ``cume_dist`` =
    peers-through-me over partition rows -- int-to-double conversion
    and one IEEE division each, so the compare vs SQL is exact).

    Null-KEY caveat (shared with :func:`lag_lead_by`): NULL partition
    keys compare unequal to each other here (each null row is its own
    segment), while SQL ``PARTITION BY`` groups all nulls together --
    filter or fill null keys upstream if that distinction matters.

    Scale shape mirrors :func:`lag_lead_by`: a key's rows must co-locate
    and carry an order, so the projection moves through ONE hash exchange
    on the key; each bucket lexsorts once, segments are key-change flags,
    and every aggregate is one numpy ``cumsum``/segment-base subtraction
    or a pandas Cython ``groupby.cummin/cummax`` -- no per-row Python.
    Project upstream so only needed columns shuffle; one key's rows live
    in one bucket (salt upstream if a single key dominates).
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    valid = {"sum", "count", "min", "max", "row_number", "rank",
             "dense_rank", "percent_rank", "cume_dist", "first_value"}
    for src, agg, _out in aggs:
        if agg in valid:
            continue
        if agg.startswith("ntile:") and agg[6:].isdigit() and int(agg[6:]) >= 1:
            continue
        if agg.startswith("nth_value:") and agg[10:].isdigit() \
                and int(agg[10:]) >= 1:
            continue
        raise ValueError(f"running_agg: unknown agg {agg!r} for {src!r}")
    need_ties = any(a in ("rank", "dense_rank", "percent_rank", "cume_dist")
                    for _s, a, _o in aggs)

    def scan_bucket(t: pa.Table) -> pa.Table:
        t, order_lanes, g, starts, start_idx, seg, seg_base = \
            _sorted_segments(t, key, order_by, need_order_cols=need_ties)
        n = len(g)
        rn = np.arange(n, dtype=np.int64) - seg_base + 1
        seg_len = np.diff(np.r_[start_idx, n])[seg]     # my segment's length

        if need_ties:
            # tie runs: a row starts a new ORDER BY peer group when the
            # key changes or ANY order column differs from its neighbor;
            # SQL makes NULLs peers of each other and NaNs peers of each
            # other, but a NaN never a peer of a NULL -- the null lane
            # splits them (nulls share one fill value), and a both-NaN
            # pair is masked back out (NaN != NaN elementwise)
            run_start = starts.copy()
            if n > 1:
                for vf, vn in order_lanes:              # sorted row order
                    nan = pd.isna(vf)
                    run_start[1:] |= (vn[1:] != vn[:-1]) | (
                        (vf[1:] != vf[:-1]) & ~(nan[1:] & nan[:-1]))
            last_start = np.maximum.accumulate(
                np.where(run_start, np.arange(n, dtype=np.int64), -1))
            rank = last_start - seg_base + 1            # rn of my run's head
            dr = np.cumsum(run_start)
            dense = dr - dr[seg_base] + 1
            run_first = np.flatnonzero(run_start)       # per-run head index
            run_end = np.r_[run_first[1:], n][dr - 1] - 1  # my run's last row

        out = t
        for src, agg, out_name in aggs:
            if agg == "row_number":
                col = pa.array(rn)
            elif agg == "rank":
                col = pa.array(rank)
            elif agg == "dense_rank":
                col = pa.array(dense)
            elif agg == "percent_rank":
                col = pa.array(np.where(
                    seg_len > 1,
                    (rank - 1).astype(np.float64)
                    / np.maximum(seg_len - 1, 1).astype(np.float64),
                    0.0))
            elif agg == "cume_dist":
                # rows <= my peer group, over partition size: int/int in
                # double, one IEEE division -- exact vs SQL
                col = pa.array((run_end - seg_base + 1).astype(np.float64)
                               / seg_len.astype(np.float64))
            elif agg == "first_value":
                # value at the frame's first row; SQL FIRST_VALUE does
                # NOT skip nulls -- arrow take keeps the source type
                src_col = t.column(src)
                if isinstance(src_col, pa.ChunkedArray):
                    src_col = src_col.combine_chunks()
                col = src_col.take(pa.array(seg_base))
            elif agg.startswith("nth_value:"):
                # SQL NTH_VALUE(col, n) over the running frame: the
                # frame's n-th row's value once the frame reaches n
                # rows, NULL before that; null-keeping like FIRST_VALUE
                nth = int(agg[10:])
                src_col = t.column(src)
                if isinstance(src_col, pa.ChunkedArray):
                    src_col = src_col.combine_chunks()
                have = rn >= nth
                pos = np.where(have, seg_base + nth - 1, 0)
                col = src_col.take(pa.array(pos))
                col = pc.if_else(pa.array(have), col,
                                 pa.scalar(None, col.type))
            elif agg.startswith("ntile:"):
                k = int(agg[6:])
                q, r = seg_len // k, seg_len % k
                big = r * (q + 1)                       # rows in fat tiles
                in_big = rn <= big
                fat = (rn - 1) // np.maximum(q + 1, 1)
                thin = r + (rn - 1 - big) // np.maximum(q, 1)
                col = pa.array(np.where(in_big, fat, thin) + 1)
            else:
                src_col = _numeric_src(t, src)
                notnull = ~np.asarray(pc.is_null(src_col))
                cnt = np.cumsum(notnull.astype(np.int64))
                run_cnt = cnt - (cnt[seg_base] - notnull[seg_base])
                if agg == "count":
                    col = pa.array(run_cnt)
                elif agg == "sum":
                    is_int = pa.types.is_integer(src_col.type)
                    v = np.asarray(pc.fill_null(src_col, 0)) \
                        .astype(np.int64 if is_int else np.float64)
                    c = np.cumsum(v)
                    run = c - (c[seg_base] - v[seg_base])
                    col = pa.array(np.where(run_cnt > 0, run, 0),
                                   pa.int64() if is_int else pa.float64())
                    col = pc.if_else(pa.array(run_cnt > 0), col,
                                     pa.scalar(None, col.type))
                else:                                   # min / max
                    # SQL MIN/MAX skip NULLs (a null row still sees the
                    # running extremum so far), so nulls become +/-inf
                    # sentinels before the Cython cummin/cummax; rows with
                    # no value yet (run_cnt == 0) null out below.  int64
                    # round-trips through float64 exactly up to 2^53.
                    fill = np.inf if agg == "min" else -np.inf
                    v = np.asarray(pc.cast(src_col, pa.float64()),
                                   dtype=np.float64)
                    # float NaN VALUES follow the SQL total order (NaN
                    # greatest): they become sentinels for the scan,
                    # then running-NaN counts restore NaN where SQL
                    # yields it (MAX once seen; MIN only if nothing but
                    # NaN so far)
                    isnan = notnull & np.isnan(v)
                    s = pd.Series(np.where(notnull & ~isnan, v, fill))
                    grp = s.groupby(seg)
                    run = (grp.cummin() if agg == "min"
                           else grp.cummax()).to_numpy()
                    if isnan.any():
                        ncnt = np.cumsum(isnan.astype(np.int64))
                        run_nan = ncnt - (ncnt[seg_base]
                                          - isnan[seg_base])
                        if agg == "min":
                            run = np.where(run_cnt - run_nan == 0,
                                           np.nan, run)
                        else:
                            run = np.where(run_nan > 0, np.nan, run)
                    col = pa.array(run, pa.float64())
                    col = pc.if_else(pa.array(run_cnt > 0), col,
                                     pa.scalar(None, pa.float64()))
                    if not pa.types.is_floating(src_col.type):
                        col = pc.cast(col, src_col.type)
            out = out.append_column(out_name, col)
        return out

    return hash_exchange_by(ds, [key], scan_bucket, num_buckets)


def _range_extrema(v: np.ndarray, lb: np.ndarray, idx: np.ndarray,
                   is_min: bool, sentinel) -> np.ndarray:
    """Extrema over per-row inclusive ranges ``[lb[i], idx[i]]`` with
    ``lb <= idx`` -- a vectorized sparse-table RMQ (min/max is
    idempotent, so two overlapping power-of-two lookups cover any
    range).  Works on any numpy comparable dtype WITHOUT a float cast,
    so int64 extrema are exact over the full range (no 2^53 loss);
    ``sentinel`` fills the unused tail of each level.  O(n log w) build
    for max frame length w, O(n) query."""
    n = len(v)
    if n == 0:
        return v.copy()
    lens = idx - lb + 1
    maxlen = int(lens.max())
    op = np.minimum if is_min else np.maximum
    levels = [v]
    half = 1
    while half * 2 <= maxlen:
        prev = levels[-1]
        cur = np.full(n, sentinel, dtype=v.dtype)
        cur[:n - half] = op(prev[:n - half], prev[half:])
        levels.append(cur)
        half *= 2
    stack = np.stack(levels)                            # (L, n)
    j = np.frexp(lens.astype(np.float64))[1] - 1        # floor(log2(len))
    return op(stack[j, lb], stack[j, idx - (1 << j) + 1])


def rolling_agg(ds, key: str, order_by: list[str], aggs: list,
                window: int, num_buckets: int = 32):
    """Per-key SLIDING-frame window aggregates -- SQL ``agg(col) OVER
    (PARTITION BY key ORDER BY ... ROWS BETWEEN window-1 PRECEDING AND
    CURRENT ROW)``: the log pipeline's moving averages / moving extrema
    ("mean latency over the last N requests per host").  Completes the
    frame family next to :func:`running_agg` (unbounded frames) and
    :func:`rate_limit` (time-based frames).

    ``aggs`` is ``[(src, agg, out), ...]`` with ``agg`` in ``{"sum",
    "count", "avg", "min", "max"}``; ``window >= 1`` is the frame size
    in ROWS (clipped at the partition head, the SQL contract).  SQL
    null semantics: NULL inputs don't contribute; a frame with zero
    non-null inputs yields NULL (``count`` yields 0).  Exactness vs a
    SQL oracle: ``count``/``min``/``max`` always (extrema never leave
    the source dtype -- int64 stays exact over its FULL range, no 2^53
    float round-trip); ``sum``/``avg`` for INTEGER sources (int64
    prefix sums, one IEEE division for avg); float ``sum``/``avg`` use
    prefix-sum subtraction whose rounding order differs from a direct
    per-frame sum in the last ulp.

    Null-KEY caveat shared with :func:`running_agg`: each NULL key row
    is its own partition here, while SQL groups all nulls together.

    Scale shape: identical to :func:`running_agg` -- ONE hash exchange
    on the key, per-bucket lexsort, then O(n) numpy per aggregate:
    sliding sums/counts are two prefix-sum gathers (frame head =
    ``max(segment head, i - window + 1)``), sliding extrema one
    sparse-table RMQ (:func:`_range_extrema`, O(n log window) build +
    two gathers).  No per-row Python anywhere; project upstream so only
    needed columns shuffle; salt upstream if one key dominates a
    bucket.
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    valid = {"sum", "count", "avg", "min", "max"}
    for src, agg, _out in aggs:
        if agg not in valid:
            raise ValueError(f"rolling_agg: unknown agg {agg!r} for {src!r}")
    if not isinstance(window, int) or window < 1:
        raise ValueError(f"rolling_agg: window must be an int >= 1, "
                         f"got {window!r}")

    def scan_bucket(t: pa.Table) -> pa.Table:
        t, _oc, g, _starts, start_idx, _seg, seg_base = \
            _sorted_segments(t, key, order_by)
        n = len(g)
        idx = np.arange(n, dtype=np.int64)
        lb = np.maximum(seg_base, idx - (window - 1))   # frame head (incl.)

        # per-source prefix machinery, computed once per distinct src
        cache: dict = {}

        def prep(src):
            if src in cache:
                return cache[src]
            src_col = _numeric_src(t, src)
            notnull = ~np.asarray(pc.is_null(src_col))
            cnt_pre = np.r_[0, np.cumsum(notnull.astype(np.int64))]
            mcnt = cnt_pre[idx + 1] - cnt_pre[lb]
            cache[src] = (src_col, notnull, mcnt)
            return cache[src]

        def msum_of(src):
            if (src, "sum") in cache:
                return cache[(src, "sum")]
            src_col, _notnull, mcnt = prep(src)
            is_int = pa.types.is_integer(src_col.type)
            v = np.asarray(pc.fill_null(src_col, 0)) \
                .astype(np.int64 if is_int else np.float64)
            pre = np.r_[0, np.cumsum(v)]
            cache[(src, "sum")] = (pre[idx + 1] - pre[lb], mcnt, is_int)
            return cache[(src, "sum")]

        out = t
        for src, agg, out_name in aggs:
            if agg == "count":
                _c, _nn, mcnt = prep(src)
                col = pa.array(mcnt)
            elif agg == "sum":
                ms, mcnt, is_int = msum_of(src)
                col = pa.array(ms, pa.int64() if is_int else pa.float64())
                col = pc.if_else(pa.array(mcnt > 0), col,
                                 pa.scalar(None, col.type))
            elif agg == "avg":
                ms, mcnt, _is_int = msum_of(src)
                col = pa.array(
                    ms.astype(np.float64)
                    / np.maximum(mcnt, 1).astype(np.float64))
                col = pc.if_else(pa.array(mcnt > 0), col,
                                 pa.scalar(None, pa.float64()))
            else:                                       # min / max
                # SQL MIN/MAX skip NULLs -> null slots become never-win
                # sentinels of the SOURCE dtype (no float cast: int64
                # extrema stay exact over the full range); all-null
                # frames (mcnt == 0) null out below.  Float NaN VALUES
                # (not nulls) follow the SQL total order (DuckDB,
                # Postgres): NaN sorts GREATEST, so MAX is NaN when any
                # NaN is in the frame and MIN is NaN only when the frame
                # holds nothing but NaN.
                src_col, notnull, mcnt = prep(src)
                if pa.types.is_integer(src_col.type):
                    info = np.iinfo(src_col.type.to_pandas_dtype())
                    sentinel = info.max if agg == "min" else info.min
                    v = np.asarray(pc.fill_null(src_col, int(sentinel)))
                    run = _range_extrema(v, lb, idx, agg == "min", sentinel)
                else:
                    sentinel = np.inf if agg == "min" else -np.inf
                    vful = np.asarray(pc.cast(src_col, pa.float64()),
                                      dtype=np.float64)
                    isnan = notnull & np.isnan(vful)
                    v = np.where(notnull & ~isnan, vful, sentinel)
                    run = _range_extrema(v, lb, idx, agg == "min", sentinel)
                    if isnan.any():
                        nan_pre = np.r_[0, np.cumsum(
                            isnan.astype(np.int64))]
                        m_nan = nan_pre[idx + 1] - nan_pre[lb]
                        if agg == "min":        # only-NaN frame -> NaN
                            run = np.where(mcnt - m_nan == 0, np.nan, run)
                        else:                   # any NaN -> NaN (greatest)
                            run = np.where(m_nan > 0, np.nan, run)
                col = pa.array(run)
                col = pc.if_else(pa.array(mcnt > 0), col,
                                 pa.scalar(None, col.type))
                if col.type != src_col.type:
                    col = pc.cast(col, src_col.type)
            out = out.append_column(out_name, col)
        return out

    return hash_exchange_by(ds, [key], scan_bucket, num_buckets)


def rolling_time_agg(ds, key: str, ts_col: str, aggs: list,
                     preceding_sec: float, num_buckets: int = 32):
    """Per-key TIME-RANGE sliding-frame aggregates -- SQL ``agg(col)
    OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN INTERVAL
    'preceding_sec seconds' PRECEDING AND CURRENT ROW)``: "events and
    mean value in the last N minutes per host".  Completes the frame
    family: :func:`running_agg` (unbounded), :func:`rolling_agg` (ROWS
    frames), this (RANGE frames).

    ``aggs`` is ``[(src, agg, out), ...]`` with ``agg`` in ``{"sum",
    "count", "avg", "min", "max"}``.  SQL RANGE semantics are honored
    exactly, INCLUDING peers: rows sharing a timestamp share one frame
    that contains all of them, regardless of physical order.  NULL
    inputs don't contribute; an all-null frame yields NULL (``count``
    0).  sum/avg on INTEGER sources are exact vs SQL (int64 prefix
    sums, one IEEE division); float sums carry the prefix-sum last-ulp
    caveat; min/max are exact selections in the SOURCE dtype (the
    sparse-table RMQ answers the two-sided variable frames), float NaN
    VALUES per the SQL total order (NaN greatest).

    Null-KEY caveat shared with :func:`running_agg`; NULL timestamps
    are rejected (SQL RANGE frames require a non-null sort key).

    Scale shape: ONE hash exchange on the key, per-bucket lexsort by
    (key, ts), then O(n log n) numpy: per-segment timestamps are
    rebased to their segment head and given disjoint per-segment
    offsets (gap > the frame width), so BOTH frame edges come from two
    GLOBAL ``np.searchsorted`` calls; every aggregate is two
    prefix-sum gathers.  No per-row or per-key Python.
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    valid = {"sum", "count", "avg", "min", "max"}
    for src, agg, _out in aggs:
        if agg not in valid:
            raise ValueError(
                f"rolling_time_agg: unknown agg {agg!r} for {src!r}")
    if preceding_sec < 0:
        raise ValueError("rolling_time_agg: preceding_sec must be >= 0")
    # multiply BEFORE truncating so fractional seconds are honored at
    # microsecond resolution (int() first would silently narrow 0.5s -> 0)
    delta_us = int(round(preceding_sec * 1_000_000))

    def scan_bucket(t: pa.Table) -> pa.Table:
        ts_raw = t.column(ts_col)
        if isinstance(ts_raw, pa.ChunkedArray):
            ts_raw = ts_raw.combine_chunks()
        if ts_raw.null_count:
            raise ValueError("rolling_time_agg: null timestamps in "
                             f"{ts_col!r} (RANGE needs a non-null sort key)")
        t, _oc, g, _starts, start_idx, seg, seg_base = \
            _sorted_segments(t, key, [ts_col])
        n = len(g)
        ts = _ts_us(t, ts_col)

        # disjoint per-segment time axes: rebase each segment to its
        # head, then shift segment k by k * (max_rel + delta + 2) so a
        # query can never cross a segment boundary; one global
        # searchsorted then answers every per-segment range probe
        rel = ts - ts[seg_base]                         # >= 0, sorted per seg
        span = (int(rel.max()) if n else 0) + delta_us + 2
        nseg = len(start_idx)
        if nseg * span < 2**62:                         # shifted fits int64
            shifted = rel + seg * span
            lb = np.searchsorted(shifted, shifted - delta_us, side="left")
            ub = np.searchsorted(shifted, shifted, side="right")  # + peers
        else:                                           # pathological spread:
            lb = np.empty(n, dtype=np.int64)            # per-segment probes,
            ub = np.empty(n, dtype=np.int64)            # O(segments) Python
            ends = np.r_[start_idx[1:], n]
            for s0, s1 in zip(start_idx, ends):
                seg_ts = ts[s0:s1]
                lb[s0:s1] = s0 + np.searchsorted(
                    seg_ts, seg_ts - delta_us, side="left")
                ub[s0:s1] = s0 + np.searchsorted(seg_ts, seg_ts,
                                                 side="right")

        cache: dict = {}

        def prep(src):
            if src in cache:
                return cache[src]
            src_col = _numeric_src(t, src)
            notnull = ~np.asarray(pc.is_null(src_col))
            cnt_pre = np.r_[0, np.cumsum(notnull.astype(np.int64))]
            mcnt = cnt_pre[ub] - cnt_pre[lb]
            cache[src] = (src_col, notnull, mcnt)
            return cache[src]

        def msum_of(src):
            if (src, "sum") in cache:
                return cache[(src, "sum")]
            src_col, _notnull, mcnt = prep(src)
            is_int = pa.types.is_integer(src_col.type)
            v = np.asarray(pc.fill_null(src_col, 0)) \
                .astype(np.int64 if is_int else np.float64)
            pre = np.r_[0, np.cumsum(v)]
            cache[(src, "sum")] = (pre[ub] - pre[lb], mcnt, is_int)
            return cache[(src, "sum")]

        out = t
        for src, agg, out_name in aggs:
            if agg == "count":
                _c, _nn, mcnt = prep(src)
                col = pa.array(mcnt)
            elif agg == "sum":
                msum, mcnt, is_int = msum_of(src)
                col = pa.array(msum, pa.int64() if is_int else pa.float64())
                col = pc.if_else(pa.array(mcnt > 0), col,
                                 pa.scalar(None, col.type))
            elif agg == "avg":
                msum, mcnt, _is_int = msum_of(src)
                col = pa.array(
                    msum.astype(np.float64)
                    / np.maximum(mcnt, 1).astype(np.float64))
                col = pc.if_else(pa.array(mcnt > 0), col,
                                 pa.scalar(None, pa.float64()))
            else:                                       # min / max
                # same dtype-preserving RMQ + SQL-total-order NaN
                # handling as rolling_agg; the RMQ takes arbitrary
                # [lb, ub-1] ranges so peer-inclusive RANGE frames need
                # no deque (ub >= idx+1 > lb, so lb <= ub-1 always)
                src_col, notnull, mcnt = prep(src)
                rb = ub - 1
                if pa.types.is_integer(src_col.type):
                    info = np.iinfo(src_col.type.to_pandas_dtype())
                    sentinel = info.max if agg == "min" else info.min
                    v = np.asarray(pc.fill_null(src_col, int(sentinel)))
                    run = _range_extrema(v, lb, rb, agg == "min", sentinel)
                else:
                    sentinel = np.inf if agg == "min" else -np.inf
                    vful = np.asarray(pc.cast(src_col, pa.float64()),
                                      dtype=np.float64)
                    isnan = notnull & np.isnan(vful)
                    v = np.where(notnull & ~isnan, vful, sentinel)
                    run = _range_extrema(v, lb, rb, agg == "min", sentinel)
                    if isnan.any():
                        nan_pre = np.r_[0, np.cumsum(
                            isnan.astype(np.int64))]
                        m_nan = nan_pre[ub] - nan_pre[lb]
                        if agg == "min":
                            run = np.where(mcnt - m_nan == 0, np.nan, run)
                        else:
                            run = np.where(m_nan > 0, np.nan, run)
                col = pa.array(run)
                col = pc.if_else(pa.array(mcnt > 0), col,
                                 pa.scalar(None, col.type))
                if col.type != src_col.type:
                    col = pc.cast(col, src_col.type)
            out = out.append_column(out_name, col)
        return out

    return hash_exchange_by(ds, [key], scan_bucket, num_buckets)


def ewma_by(ds, key: str, order_by: list[str], src: str,
            alpha: float, out: str = "ewma", adjust: bool = True,
            num_buckets: int = 32):
    """Per-key exponentially weighted moving average over the ordered
    stream -- the log pipeline's smoothed-latency / trend signal
    (pandas ``groupby.ewm(alpha).mean()`` semantics, which SQL cannot
    express without a numerically explosive recursive form -- hence a
    pytest referee instead of a SQL oracle).

    ``adjust=True`` (default): ewma_t = sum_i a(1-a)^(t-i) x_i
    normalized by the same weights (the pandas default); NULL inputs
    are ignored entirely (``ignore_na=True``: they neither contribute
    nor decay the weights) and yield NULL until the first value.

    Scale shape: the standard frame-family shape -- ONE hash exchange
    on the key, per-bucket lexsort, one Cython ``groupby.ewm`` pass.
    """
    import pyarrow.compute as pc

    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"ewma_by: alpha must be in (0, 1], got {alpha}")

    def scan_bucket(t: pa.Table) -> pa.Table:
        t, _oc, g, _st, _si, seg, _sb = _sorted_segments(t, key, order_by)
        src_col = _numeric_src(t, src)
        notnull = ~np.asarray(pc.is_null(src_col))
        v = np.where(notnull,
                     np.asarray(pc.cast(src_col, pa.float64()),
                                dtype=np.float64),
                     np.nan)
        s = pd.Series(v)
        run = (s.groupby(seg)
               .ewm(alpha=alpha, adjust=adjust, ignore_na=True)
               .mean().to_numpy())
        col = pc.if_else(pa.array(~np.isnan(run)), pa.array(run),
                         pa.scalar(None, pa.float64()))
        return t.append_column(out, col)

    return hash_exchange_by(ds, [key], scan_bucket, num_buckets)
