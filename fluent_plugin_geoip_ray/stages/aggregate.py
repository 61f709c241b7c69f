"""Aggregation helpers: partial-then-final counts (shuffle-light).

The reference has no aggregations (SURVEY §2.3); ``north_star`` mandates
per-sink groupby counts by ``country_code`` and ``conv_id``.  A bare
``ds.groupby(key).count()`` shuffles every row; at 100 TB that is the
bottleneck.  These helpers pre-aggregate inside ``map_batches`` (one row per
key per batch -- the combiner) and run the all-to-all only over the tiny
partials, so shuffle volume is O(distinct keys x blocks), not O(rows).
Hot-key skew (the conv_id hotspot) is irrelevant after partials: every block
contributes at most one row per key.

Every final merge is the keyed hash exchange
(:func:`exchange.hash_exchange_by`); the grouped top-k family also has a
driver merge, picked from the observed partial row count.  Null keys pass
through as nulls: Arrow ``group_by`` keeps NULL as one group (the SQL
``GROUP BY`` semantics) and :func:`exchange.stable_bucket_ids` sends every
null key to one bucket.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .exchange import canon_float, hash_exchange_by


def _canon_keys(batch: pa.Table, keys: list[str]) -> pa.Table:
    """Canonicalize float key columns (-0.0 -> +0.0): SQL ``GROUP BY``
    treats the zeros as one key, but Arrow's group_by hashes bit patterns
    (see :func:`exchange.canon_float`)."""
    for k in keys:
        batch = batch.set_column(
            batch.column_names.index(k), k, canon_float(batch.column(k)))
    return batch


def _group_by(t: pa.Table, keys: list[str], aggs: list) -> pa.Table:
    """``t.group_by(keys).aggregate(aggs)`` with NULL keys grouped right.
    pyarrow 16.1's fast grouper splits one multi-column key into several
    groups when a key column holds nulls (e.g. a null string key followed
    by an int key); a large_binary key column makes Arrow use its
    row-encoding grouper, which groups them correctly."""
    if len(keys) > 1 and any(t.column(k).null_count for k in keys):
        t = t.append_column(
            "__gk", pa.repeat(pa.scalar(b"", pa.large_binary()), t.num_rows))
        return t.group_by(keys + ["__gk"]).aggregate(aggs).drop_columns(["__gk"])
    return t.group_by(keys).aggregate(aggs)


def count_by(ds, key: str, batch_size: int = 65536):
    """``SELECT key, count(*) AS n GROUP BY key`` -- partial + final
    through :func:`groupby_agg` (null keys form one group)."""
    return groupby_agg(ds, [key], [(key, "count_star", "n")],
                       batch_size=batch_size)


def groupby_agg(ds, keys: list[str], aggs: list[tuple], batch_size: int = 65536):
    """General partial+final grouped aggregate.

    ``aggs`` entries are ``(col, fn, out_name)`` with fn in
    {sum, count, count_star, min, max, mean}; partials run vectorized per
    batch (pyarrow ``Table.group_by``), the final pass re-aggregates
    sums-of-sums / mins-of-mins and computes mean = sum/count at the end.
    Null keys stay null and form one group, as in SQL.

    The merge hash-buckets the partials by key (ONE exchange over partial
    rows, skew-free by construction, :func:`exchange.hash_exchange_by`) and
    re-aggregates each bucket with a C++ group_by: no driver state, no sort
    shuffle, B Python calls total.
    """
    # which pyarrow partial aggregations are needed (deduped by output name).
    # SQL semantics: count/mean are per-COLUMN valid-only (COUNT(col) /
    # AVG(col) ignore nulls); "count_star" is COUNT(*).
    need: dict[str, tuple] = {}
    for col, fn, _out in aggs:
        if fn == "count_star":
            need["count_all"] = ([], "count_all")
        if fn in ("count", "mean"):
            need[f"{col}_count"] = (col, "count")
        if fn == "mean":
            need[f"{col}_sum"] = (col, "sum")
        if fn in ("sum", "min", "max"):
            need[f"{col}_{fn}"] = (col, fn)
    pa_aggs = list(need.values())
    partial_rename = {pa_name: f"__p_{pa_name}" for pa_name in need}

    def partial(batch: pa.Table) -> pa.Table:
        g = _group_by(_canon_keys(batch, keys), keys, pa_aggs)
        return g.rename_columns(
            [partial_rename.get(nm, nm) for nm in g.column_names]
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )

    def finalize(batch: pa.Table) -> pa.Table:
        for col, fn, out in aggs:
            if fn == "count_star":
                arr = batch.column("__f_count_all")
            elif fn == "count":
                arr = batch.column(f"__f_{col}_count")
            elif fn == "mean":
                # AVG(col): nulls excluded from both numerator and denominator;
                # all-null group -> 0/0 -> SQL NULL
                cnt = pc.cast(batch.column(f"__f_{col}_count"), pa.float64())
                arr = pc.divide(
                    pc.cast(batch.column(f"__f_{col}_sum"), pa.float64()),
                    pc.if_else(pc.equal(cnt, 0.0),
                               pa.scalar(None, pa.float64()), cnt),
                )
            else:
                arr = batch.column(f"__f_{col}_{fn}")
            batch = batch.append_column(out, arr)
        return batch.drop_columns([f"__f_{nm}" for nm in need])

    refit_fn = {"sum": "sum", "count": "sum", "count_all": "sum", "min": "min", "max": "max"}

    def merge_bucket(t: pa.Table) -> pa.Table:
        g = _group_by(t, keys,
                      [(f"__p_{nm}", refit_fn[need[nm][1]]) for nm in need])
        rename = {
            f"__p_{nm}_{refit_fn[need[nm][1]]}": f"__f_{nm}" for nm in need
        }
        return finalize(g.rename_columns([rename.get(c, c) for c in g.column_names]))

    return hash_exchange_by(partials, keys, merge_bucket)


def salted_groupby_agg(ds, key: str, aggs: list[tuple], salt_buckets: int = 16,
                       batch_size: int = 65536):
    """Two-phase salted grouped aggregate for skew-hostile paths.

    ``groupby_agg`` above is already skew-immune for algebraic aggregates
    (per-batch partials collapse a hot key to one row per block before any
    exchange).  This variant is for when you must run RAY's groupby over raw
    rows (non-algebraic per-group logic): phase 1 groups by (key, salt) so a
    hot key (the conv_id hotspot, north_rule) spreads over ``salt_buckets``
    reducers; phase 2 re-aggregates the per-salt results by key.  Supported
    fns here: sum / count / min / max (mean via sum+count) -- exactly the
    set that re-aggregates correctly across salts.
    """
    import numpy as np

    def add_salt(batch: pa.Table) -> pa.Table:
        salt = np.arange(batch.num_rows, dtype=np.int32) % salt_buckets
        return batch.append_column("__salt", pa.array(salt))

    salted = ds.map_batches(add_salt, batch_format="pyarrow", zero_copy_batch=True)
    phase1 = groupby_agg(salted, [key, "__salt"], aggs, batch_size=batch_size)
    # re-aggregate phase-1 outputs: sum/count -> sum, min -> min, max -> max
    refit = []
    for col, fn, out in aggs:
        if fn in ("sum", "count"):
            refit.append((out, "sum", out))
        elif fn in ("min", "max"):
            refit.append((out, fn, out))
        elif fn == "mean":
            raise ValueError("use groupby_agg for mean (algebraic partials)")
        else:
            raise ValueError(f"unsupported fn for salted path: {fn}")
    phase2 = groupby_agg(phase1, [key], refit, batch_size=batch_size)
    return phase2


def top_k(ds, col: str, k: int, keep_cols: list[str] | None = None,
          descending: bool = True, tie_breakers: list[str] | None = None,
          batch_size: int = 65536):
    """Global top-k without a full sort: per-batch top-k partials, merged on
    the driver (k x blocks rows, tiny).  ``tie_breakers`` (ascending) make
    the result deterministic when ``col`` has duplicates at the boundary."""
    ties = tie_breakers or []

    def partial(batch: pa.Table) -> pa.Table:
        if keep_cols:
            batch = batch.select(keep_cols)
        order = "descending" if descending else "ascending"
        sort_keys = [(col, order)] + [(t, "ascending") for t in ties]
        idx = pc.select_k_unstable(
            batch, k=min(k, batch.num_rows), sort_keys=sort_keys
        )
        return batch.take(idx)

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    ).to_pandas()
    out = partials.sort_values(
        [col] + ties, ascending=[not descending] + [True] * len(ties)
    ).head(k)
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


def sum_count_by(ds, key: str, value: str, batch_size: int = 65536):
    """Grouped sum+count (``s``, ``n``) through :func:`groupby_agg`."""
    return groupby_agg(ds, [key], [(value, "sum", "s"), (value, "count_star", "n")],
                       batch_size=batch_size)


def quantiles_by(ds, key: str, value: str, qs: tuple = (0.5, 0.95, 0.99),
                 mode: str = "auto", bins: int = 4096,
                 batch_size: int = 65536, driver_limit: int = 2_000_000):
    """Per-group quantiles (the log-pipeline p50/p95/p99 metric).

    ``mode="auto"`` (default): runs the exact list partials ONCE and counts
    the total value volume off the materialized partials (an O(partial
    rows) scalar pass, same convention as :func:`dedup_exact` /
    ``top_k_by_group``); at or below ``driver_limit`` values the driver
    merge interpolates exactly, above it the already-materialized partials
    are exploded back to (key, value) rows and finish through the sketch
    merge -- an unbounded-cardinality call can never concatenate value
    lists on the driver.

    ``mode="exact"``: per-batch the VALUES of each group are collected as
    list partials; the final merge concatenates per group and interpolates
    (numpy 'linear' == SQL ``quantile_cont``).  Opt-in: right ONLY when
    per-group value volume is known to fit one process -- the
    dashboard/alerting case (few groups).

    ``mode="sketch"``: mergeable fixed-bin log-histogram partials (one
    (key, bins) count row per batch per group; shuffle O(groups x blocks x
    bins)), final merge sums histograms and reads quantiles off the CDF --
    bounded relative error ~ bin width, any cardinality, no value data
    movement, no partial materialization.  The 100 TB path.
    """
    import numpy as np

    import ray
    import ray.data as rd

    if mode not in ("auto", "exact", "sketch"):
        raise ValueError(f"quantiles_by mode must be auto|exact|sketch, got {mode!r}")

    sketch_src = ds
    if mode in ("auto", "exact"):
        def partial(batch: pa.Table) -> pa.Table:
            import numpy as np

            from .exchange import canon_float

            t = batch.select([key, value])
            # SQL equality: one zero key (Arrow group_by hashes bit
            # patterns); string-null handling stays the raw null group
            t = t.set_column(0, key, canon_float(t.column(key)))
            g = t.group_by(key).aggregate([(value, "list")])
            return g.rename_columns([key, "__vals"])

        pmat = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True,
                              batch_size=batch_size).materialize()
        use_exact = True
        if mode == "auto":
            def vol(t: pa.Table) -> pa.Table:
                col = t.column("__vals")
                n = pc.sum(pc.list_value_length(col)).as_py() or 0
                return pa.table({"n": pa.array([n], pa.int64())})

            total = pmat.map_batches(vol, batch_format="pyarrow").sum("n") or 0
            use_exact = total <= driver_limit

        if not use_exact:
            if mode == "auto":
                # exactness-sensitive consumers need a signal at the
                # switch point: above driver_limit the result carries
                # ~bin-width relative error instead of quantile_cont
                import logging

                logging.getLogger(__name__).warning(
                    "quantiles_by(auto): value volume %s > driver_limit %s;"
                    " falling back to the log-histogram sketch merge"
                    " (~bin-width relative error). Pass mode='exact' to"
                    " force exact quantiles.", total, driver_limit)
            # explode the materialized partials back to (key, value) rows
            # and fall through to the sketch merge: no input re-scan, no
            # driver value lists at any cardinality
            def explode(t: pa.Table) -> pa.Table:
                col = t.column("__vals")
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
                keys_rep = t.column(key).take(
                    pa.array(np.repeat(np.arange(t.num_rows), lens)))
                return pa.table({key: keys_rep, value: col.flatten()})

            sketch_src = pmat.map_batches(explode, batch_format="pyarrow",
                                          zero_copy_batch=True)
        else:
            tables = [
                t for t in ray.get(pmat.to_arrow_refs()) if t.num_rows
            ]
            if not tables:
                return rd.from_items([])
            # merge partial value-lists per key (O(groups x blocks) rows)
            buckets: dict = {}
            for t in tables:
                tp = t.to_pandas()
                for k, v in zip(tp[key], tp["__vals"]):
                    buckets.setdefault(k, []).append(np.asarray(v, np.float64))

            def _qcont(vs: "np.ndarray", q: float) -> float:
                # SQL quantile_cont's exact arithmetic: lo*(1-frac) + hi*frac
                # (bit-identical to DuckDB; other lerp orders differ in ulps)
                n = len(vs)
                pos = q * (n - 1)
                lo = int(np.floor(pos))
                frac = pos - lo
                if frac == 0.0 or lo + 1 >= n:
                    return float(vs[min(lo, n - 1)])
                return float(vs[lo] * (1.0 - frac) + vs[lo + 1] * frac)

            keys_out, cols = [], {f"q{int(q * 100)}": [] for q in qs}
            for k in sorted(buckets):
                keys_out.append(k)
                vals = np.concatenate(buckets[k])
                vals = np.sort(vals[~np.isnan(vals)])
                for q in qs:
                    cols[f"q{int(q * 100)}"].append(
                        _qcont(vals, q) if len(vals) else None
                    )
            out = {key: pa.array(keys_out)}
            out.update({name: pa.array(v, pa.float64())
                        for name, v in cols.items()})
            return rd.from_arrow(pa.table(out))

    # sketch mode: log-spaced histogram partials, mergeable by addition
    def sketch_partial(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pandas as pd

        keys_np = batch.column(key).to_pandas().to_numpy()
        v = batch.column(value).to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(v)
        keys_np, v = keys_np[ok], v[ok]
        # log bins over [1e-6, 1e9); values clamp into the edge bins
        logs = np.clip(np.log10(np.maximum(v, 1e-6)), -6.0, 9.0 - 1e-12)
        b = ((logs + 6.0) / 15.0 * bins).astype(np.int64)
        df = pd.DataFrame({"k": keys_np, "b": b})
        counts = df.groupby(["k", "b"]).size().reset_index(name="n")
        return pa.table({
            key: pa.array(counts["k"]),
            "bin": pa.array(counts["b"].astype(np.int64)),
            "n": pa.array(counts["n"].astype(np.int64)),
        })

    partials = sketch_src.map_batches(sketch_partial, batch_format="pyarrow",
                                      zero_copy_batch=True,
                                      batch_size=batch_size)

    # merge: hash-exchange the (key, bin, n) partial rows on KEY (every bin
    # of a key lands in one bucket), then the whole per-bucket finalize is
    # vectorized: lexsort by (key, bin) -> segment-sum duplicate bins ->
    # per-key CDF as global-cumsum minus segment base -> one searchsorted
    # per quantile against base + q*total (the global cumsum is strictly
    # increasing across segments, so the probe cannot leave its key's
    # segment).  O(groups x bins) rows move once; the driver holds nothing.
    def finalize_bucket(t: pa.Table) -> pa.Table:
        keys_np = t.column(key).to_pandas().to_numpy(dtype=object)
        b = t.column("bin").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((b, keys_np))
        ks, bs, ns = keys_np[order], b[order], n[order]
        # collapse duplicate (key, bin) rows (partials from many blocks)
        newseg = np.r_[True, (ks[1:] != ks[:-1]) | (bs[1:] != bs[:-1])]
        starts = np.flatnonzero(newseg)
        ns = np.add.reduceat(ns, starts)
        ks, bs = ks[starts], bs[starts]
        # per-key segments over the collapsed rows
        kstart = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        kend = np.append(kstart[1:], len(ks))
        cdf = np.cumsum(ns)
        base = np.concatenate([[0], cdf[kend - 1]])[:len(kstart)]
        total = cdf[kend - 1] - base
        out = {key: pa.array(ks[kstart])}
        for q in qs:
            pos = np.searchsorted(cdf, base + q * total, side="left")
            pos = np.minimum(pos, kend - 1)
            vals = 10.0 ** (-6.0 + (bs[pos].astype(np.float64) + 0.5) / bins * 15.0)
            out[f"q{int(q * 100)}"] = pa.array(vals, pa.float64())
        return pa.table(out)

    return hash_exchange_by(partials, [key], finalize_bucket)


def top_k_by_group(ds, group_col: str, order_col: str, k: int,
                   descending: bool = True, tie_breakers: list[str] | None = None,
                   batch_size: int = 65536, driver_limit: int = 2_000_000,
                   num_buckets: int = 32):
    """Top-k rows per group by ``order_col`` (grouped top-k): vectorized
    per-batch partial top-k (at most k rows per group per batch leave the
    worker -- algebraic, so partial-of-partials is exact).  Ties break on
    ``tie_breakers`` ascending (deterministic; the oracle's ROW_NUMBER
    ORDER BY).

    Final merge: the partial rows are counted (an O(1) scalar off the
    materialized partials) and merged on the driver when they fit
    ``driver_limit``; past that -- unbounded group cardinality, where k x
    groups rows would OOM the driver -- the partials route through a hash
    exchange on ``group_col`` (same shape as ``groupby_agg``'s merge) and
    the partial re-applies per bucket, so no driver state at any
    cardinality."""
    import numpy as np
    import ray
    import ray.data as rd

    ties = tie_breakers or []

    def partial(batch: pa.Table) -> pa.Table:
        gk = batch.column(group_col).to_pandas().to_numpy()
        v = batch.column(order_col).to_numpy(zero_copy_only=False)
        sort_cols = [batch.column(t).to_pandas().to_numpy() for t in ties[::-1]]
        if v.dtype.kind == "M":  # datetime64 -> int64 for negation
            v = v.view("i8")
        key = -v if descending else v
        order = np.lexsort(tuple(sort_cols) + (key, gk))
        gs = gk[order]
        starts = np.r_[True, gs[1:] != gs[:-1]]
        group_start = np.maximum.accumulate(np.where(starts, np.arange(len(gs)), 0))
        rank = np.arange(len(gs)) - group_start
        keep = order[rank < k]
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


def compact_latest(ds, key: str, ts_col: str, tie_breakers: list[str] | None = None,
                   batch_size: int = 65536, driver_limit: int = 2_000_000):
    """Log compaction: keep each key's LATEST row by ``ts_col`` (the CDC /
    state-table compaction step).  Grouped top-1 by timestamp descending --
    algebraic per-batch partials, so at most one row per key per batch ever
    leaves a worker.  Ties break on ``tie_breakers`` ascending.  The final
    merge switches to the bucketed hash exchange above ``driver_limit``
    partial rows (groups = distinct keys at CDC scale; see
    :func:`top_k_by_group`)."""
    return top_k_by_group(ds, key, ts_col, k=1, descending=True,
                          tie_breakers=tie_breakers, batch_size=batch_size,
                          driver_limit=driver_limit)


def approx_distinct_by(ds, key: str, value: str, p: int = 11,
                       batch_size: int = 65536, num_buckets: int = 32):
    """Approximate COUNT(DISTINCT value) per key -- HyperLogLog sketch.

    Registers are built fully vectorized per batch (hash -> bucket index =
    top ``p`` bits, rho = leading-zero run of the rest; per-(key, bucket)
    max via lexsort + ``maximum.reduceat``) and emitted as one
    FixedSizeList<uint8>[2^p] row per key per batch.  The merge is an
    elementwise register max per key routed through the bucketed
    hash-exchange (same shape as ``groupby_agg``'s merge): each hash
    bucket sees all partial rows of its keys, takes the register max with
    one ``maximum.reduceat`` over key-sorted rows, and reads the estimate
    vectorized -- no driver state at any key cardinality.
    Standard error ~= 1.04/sqrt(2^p) (~2.3% at p=11); exact small counts
    via linear counting.
    """
    import numpy as np

    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        from .exchange import stable_hash

        keys = batch.column(key).to_pandas().to_numpy(dtype=object)
        # stable_hash, not the object lane: an int value column with
        # nulls in SOME blocks would hash one value two ways (int vs
        # float object) and overcount it as two distincts
        h = stable_hash(batch.column(value))
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        rest = h << np.uint64(p)
        # rho = position of first 1-bit in `rest` (from MSB), in 1..64-p+1
        nz = rest != 0
        lz = np.full(len(h), 64 - p, dtype=np.int64)
        r = rest[nz]
        # count leading zeros via float trick is lossy; use bit loop over 6
        # doublings (vectorized, 6 passes)
        cnt = np.zeros(r.shape, dtype=np.int64)
        cur = r.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            mask = cur < (np.uint64(1) << np.uint64(64 - shift))
            cnt[mask] += shift
            cur[mask] = cur[mask] << np.uint64(shift)
        lz[nz] = cnt
        rho = (lz + 1).clip(max=64 - p + 1).astype(np.uint8)
        ku, kinv = np.unique(keys, return_inverse=True)
        comb = kinv.astype(np.int64) * m + idx
        order = np.argsort(comb)
        cs, rs = comb[order], rho[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        regmax = np.maximum.reduceat(rs, starts)
        regs = np.zeros((len(ku), m), dtype=np.uint8)
        cu = cs[starts]
        regs[cu // m, cu % m] = regmax
        return pa.table({
            key: pa.array(ku),
            "__regs": pa.FixedSizeListArray.from_arrays(
                pa.array(regs.ravel(), pa.uint8()), m
            ),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size)

    def merge_table(t: pa.Table) -> pa.Table:
        # register max per key + vectorized estimate: sort partial rows by
        # key, one ``maximum.reduceat`` over key segments (axis=0), then the
        # HLL estimator evaluated for ALL keys at once (linear counting
        # applied rowwise where est <= 2.5m and zero registers remain)
        keys_np = t.column(key).to_pandas().to_numpy(dtype=object)
        regs = _fixed_uint8_matrix(t.column("__regs"), m)
        order = np.argsort(keys_np, kind="stable")
        ks, rg = keys_np[order], regs[order]
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        merged = np.maximum.reduceat(rg, starts, axis=0)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / (2.0 ** (-merged.astype(np.float64))).sum(axis=1)
        zeros = (merged == 0).sum(axis=1)
        lc = zeros > 0
        small = (est <= 2.5 * m) & lc
        est = np.where(
            small, m * np.log(m / np.where(lc, zeros, 1).astype(np.float64)), est
        )
        return pa.table({
            key: pa.array(ks[starts]),
            "approx_distinct": pa.array(np.round(est).astype(np.int64)),
        })

    return hash_exchange_by(partials, [key], merge_table, num_buckets)


def _fixed_uint8_matrix(col, m: int) -> "np.ndarray":
    import numpy as np

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.uint8)
    return flat.reshape(-1, m)


def profile(ds, columns: list[str] | None = None, batch_size: int = 65536):
    """One-pass data profiling ("describe"): per NUMERIC column --
    row count, null count, min, max, mean (of non-nulls).

    Partial+final: each batch emits ONE tiny row per column (pyarrow
    min/max/sum kernels; 40 B/column/block), finals merge on the driver --
    the result is O(columns), so driver merge is always right here.
    Non-numeric columns are skipped (profiling strings = count/distinct,
    which :func:`count_by` / :func:`approx_distinct_by` already cover).
    Returns a pyarrow Table sorted by column name.
    """
    import ray

    schema = ds.schema().base_schema
    num_cols = [
        n for n, t in zip(schema.names, schema.types)
        if (pa.types.is_integer(t) or pa.types.is_floating(t))
        and (columns is None or n in columns)
    ]
    if columns is not None:
        missing = [c for c in columns if c not in num_cols]
        if missing:
            raise ValueError(
                f"profile: non-numeric or unknown columns {missing}")
    if not num_cols:
        raise ValueError("profile: no numeric columns to profile")

    def partial(t: pa.Table) -> pa.Table:
        rows = {"column": [], "n": [], "nulls": [], "mn": [], "mx": [],
                "s": []}
        for c in num_cols:
            col = t.column(c)
            n = t.num_rows
            nulls = col.null_count
            rows["column"].append(c)
            rows["n"].append(n)
            rows["nulls"].append(nulls)
            if n - nulls:
                mm = pc.min_max(col).as_py()
                rows["mn"].append(float(mm["min"]))
                rows["mx"].append(float(mm["max"]))
                rows["s"].append(float(pc.sum(col).as_py()))
            else:
                rows["mn"].append(None)
                rows["mx"].append(None)
                rows["s"].append(None)
        return pa.table({
            "column": pa.array(rows["column"]),
            "n": pa.array(rows["n"], pa.int64()),
            "nulls": pa.array(rows["nulls"], pa.int64()),
            "mn": pa.array(rows["mn"], pa.float64()),
            "mx": pa.array(rows["mx"], pa.float64()),
            "s": pa.array(rows["s"], pa.float64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size)
    tables = [t for t in ray.get(partials.to_arrow_refs()) if t.num_rows]
    merged = pa.concat_tables(tables)
    g = merged.group_by("column").aggregate(
        [("n", "sum"), ("nulls", "sum"), ("mn", "min"), ("mx", "max"),
         ("s", "sum")])
    g = g.rename_columns(["column", "n", "nulls", "min", "max", "s"])
    valid = pc.subtract(g.column("n"), g.column("nulls"))
    mean = pc.if_else(
        pc.greater(valid, 0),
        pc.divide(g.column("s"), pc.cast(valid, pa.float64())),
        pa.nulls(g.num_rows, pa.float64()))
    out = g.drop_columns(["s"]).append_column("mean", mean)
    return out.sort_by("column")


def rollup_agg(ds, keys: list[str], aggs: list[tuple]):
    """``GROUP BY ROLLUP(keys)``: one result set holding aggregates at
    EVERY prefix level of ``keys`` -- finest first, then each roll-up,
    down to the grand total -- with rolled-up key columns NULL (the SQL
    ROLLUP convention).

    100 TB shape: the input is scanned ONCE (the finest
    :func:`groupby_agg`); every coarser level re-aggregates the PREVIOUS
    level's result -- already reduced to O(groups) rows -- through the
    same bucketed exchange, so the cascade costs the finest aggregate
    plus geometrically small change, never a rescan.

    ``aggs`` entries are ``(col, fn, out)`` with fn restricted to the
    re-aggregable set {sum, count, count_star, min, max} (count re-rolls
    as a sum of counts; mean is not decomposable across levels -- derive
    it downstream from sum + count).  Float sums change summation order
    across levels (usual non-associativity ulp); integer-valued columns
    stay exact.
    """
    allowed = {"sum", "count", "count_star", "min", "max"}
    bad = sorted({fn for _, fn, _ in aggs} - allowed)
    if bad:
        raise ValueError(
            f"rollup_agg needs re-aggregable fns {sorted(allowed)}, "
            f"got {bad} (derive mean from sum+count downstream)")
    if not keys:
        raise ValueError("rollup_agg needs at least one key")
    out_names = [out for _, _, out in aggs]
    if len(set(out_names)) != len(out_names):
        raise ValueError("duplicate output names in aggs")

    finest = groupby_agg(ds, keys, aggs).materialize()
    schema = finest.schema().base_schema
    key_types = {k: schema.field(k).type for k in keys}
    out_cols = keys + out_names
    re_specs = [(out, "sum" if fn in ("count", "count_star") else fn, out)
                for _, fn, out in aggs]

    def pad_level(level_keys):
        missing = [k for k in keys if k not in level_keys]

        def fn(t: pa.Table) -> pa.Table:
            for k in missing:
                t = t.append_column(k, pa.nulls(t.num_rows, key_types[k]))
            return t.select(out_cols)

        return fn

    levels = [finest.map_batches(pad_level(keys), batch_format="pyarrow",
                                 zero_copy_batch=True)]
    prev = finest
    for depth in range(len(keys) - 1, -1, -1):
        lvl_keys = keys[:depth]
        if lvl_keys:
            nxt = groupby_agg(prev, lvl_keys, re_specs)
        else:
            const = prev.map_batches(
                lambda t: t.append_column(
                    "__rollup_all",
                    pa.repeat(pa.scalar(0, pa.int8()), t.num_rows)),
                batch_format="pyarrow", zero_copy_batch=True)
            nxt = groupby_agg(const, ["__rollup_all"],
                              re_specs).drop_columns(["__rollup_all"])
        nxt = nxt.materialize()
        levels.append(nxt.map_batches(pad_level(lvl_keys),
                                      batch_format="pyarrow",
                                      zero_copy_batch=True))
        prev = nxt

    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def count_distinct_by(ds, keys: list[str], value_col: str,
                      out_col: str = "n_distinct"):
    """EXACT ``COUNT(DISTINCT value_col)`` per key group -- the exact
    sibling of :func:`approx_distinct_by`, as the classic two-level
    aggregate: level 1 dedupes (keys, value) pairs (per-batch partial
    dedupe means a hot pair leaves each block ONCE; the bucketed exchange
    then holds one row per distinct pair), level 2 counts surviving
    non-null values per key.  NULL values are excluded, matching SQL
    ``COUNT(DISTINCT ...)``.

    Use this when the distinct cardinality per group is needed exactly
    (audits, contracts); at 100 TB with billions of distincts per group
    prefer ``approx_distinct_by`` -- this op's exchange volume is
    O(distinct pairs), which is exact but not compressible.
    """
    pairs = groupby_agg(ds, keys + [value_col],
                        [(value_col, "count", "__cd_c")])
    return groupby_agg(pairs, keys, [(value_col, "count", out_col)])


def string_agg_by(ds, key: str, value_col: str, order_by: list[str],
                  sep: str = "\n", out_col: str = "agg",
                  count_col: str = "n_parts", num_buckets: int = 32):
    """SQL ``string_agg(value, sep ORDER BY ...)`` per key -- the
    assembly primitive that builds one training example per conversation
    from its ordered turns (or one user journey from ordered events).

    Unlike the other aggregates, the VALUES must co-locate (assembly is
    not decomposable), so the (key, order_by, value) projection moves
    through ONE hash exchange on the key; each bucket then lexsorts once
    and joins runs with Arrow kernels (ListArray + binary_join) -- no
    per-group Python.  Project upstream so only needed columns shuffle.
    """
    def assemble(t: pa.Table) -> pa.Table:
        import numpy as np

        # np.lexsort: LAST key is primary -> (order_by..., key) sorts by
        # key first, then order_by within each key run
        sort_cols = [t.column(c).to_pandas().to_numpy() for c in
                     (*reversed(order_by), key)]
        order = np.lexsort(tuple(sort_cols))
        g = t.column(key).to_pandas().to_numpy(dtype=object)[order]
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        counts = np.diff(np.append(starts, len(g)))
        vals = t.column(value_col)
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        vals = vals.take(pa.array(order))
        off = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        lst = pa.ListArray.from_arrays(pa.array(off, pa.int32()), vals)
        keys_arr = t.column(key)
        if isinstance(keys_arr, pa.ChunkedArray):
            keys_arr = keys_arr.combine_chunks()
        return pa.table({
            key: keys_arr.take(pa.array(order[starts])),
            out_col: pc.binary_join(lst, sep),
            count_col: pa.array(counts.astype(np.int64)),
        })

    return hash_exchange_by(ds.select_columns([key, *order_by, value_col]),
                            [key], assemble, num_buckets)


def grouping_sets_agg(ds, keys: list[str], sets: list[list[str]],
                      aggs: list[tuple]):
    """``GROUP BY GROUPING SETS``: one result set with aggregates at each
    requested subset of ``keys`` (absent key columns NULL -- the SQL
    convention).  The input is scanned ONCE at the all-keys level; every
    requested set re-aggregates that already-reduced result through the
    bucketed exchange (sets must be subsets of ``keys``; fns restricted
    to the re-aggregable family, as :func:`rollup_agg`).
    """
    allowed = {"sum", "count", "count_star", "min", "max"}
    bad = sorted({fn for _, fn, _ in aggs} - allowed)
    if bad:
        raise ValueError(
            f"grouping_sets_agg needs re-aggregable fns {sorted(allowed)}, "
            f"got {bad}")
    if not keys:
        raise ValueError("grouping_sets_agg needs at least one key")
    for st in sets:
        extra = set(st) - set(keys)
        if extra:
            raise ValueError(f"set {st} not a subset of keys: {extra}")
    if len({tuple(sorted(st)) for st in sets}) != len(sets):
        raise ValueError("duplicate grouping sets")
    out_names = [out for _, _, out in aggs]
    finest = groupby_agg(ds, keys, aggs).materialize()
    schema = finest.schema().base_schema
    key_types = {k: schema.field(k).type for k in keys}
    out_cols = keys + out_names
    re_specs = [(out, "sum" if fn in ("count", "count_star") else fn, out)
                for _, fn, out in aggs]

    def pad_level(level_keys):
        missing = [k for k in keys if k not in level_keys]

        def fn(t: pa.Table) -> pa.Table:
            for k in missing:
                t = t.append_column(k, pa.nulls(t.num_rows, key_types[k]))
            return t.select(out_cols)

        return fn

    levels = []
    for st in sets:
        lvl_keys = [k for k in keys if k in st]   # canonical order
        if lvl_keys == keys:
            lvl = finest
        elif lvl_keys:
            lvl = groupby_agg(finest, lvl_keys, re_specs)
        else:
            const = finest.map_batches(
                lambda t: t.append_column(
                    "__gs_all", pa.repeat(pa.scalar(0, pa.int8()),
                                          t.num_rows)),
                batch_format="pyarrow", zero_copy_batch=True)
            lvl = groupby_agg(const, ["__gs_all"],
                              re_specs).drop_columns(["__gs_all"])
        levels.append(lvl.map_batches(pad_level(lvl_keys),
                                      batch_format="pyarrow",
                                      zero_copy_batch=True))
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def cube_agg(ds, keys: list[str], aggs: list[tuple]):
    """``GROUP BY CUBE(keys)``: aggregates at EVERY subset of ``keys``
    (2^len(keys) levels) via :func:`grouping_sets_agg` -- one input scan,
    everything else re-aggregates the finest result."""
    from itertools import combinations

    sets = [list(c) for r in range(len(keys), -1, -1)
            for c in combinations(keys, r)]
    return grouping_sets_agg(ds, keys, sets, aggs)


def approx_top_k(ds, col: str, k: int, summary_size: int | None = None,
                 out_col: str = "est_count"):
    """Misra-Gries heavy hitters: approximate top-``k`` values of ``col``
    with bounded-underestimate counts -- the streaming frequency sketch
    that works at UNBOUNDED value cardinality (where the exact
    ``count_by`` + ``top_k`` path's aggregate table itself becomes the
    problem).

    Shape (the mergeable-summaries construction, Agarwal et al.): each
    block reduces to an exact per-value count then truncates to an
    m-entry MG summary (keep the top m counts minus the (m+1)-th --
    error <= n_block/(m+1)); summaries merge by coordinate-wise SUM
    through the bucketed exchange (<= m values leave each block), and one
    final truncation at the driver over the algebraic ``top_k`` of the
    merged counters (m+1 rows) yields the result.  Total underestimate
    <= n/(m+1); any value with true count > n/(m+1) is guaranteed
    present.  ``summary_size`` defaults to ``8*k``.

    Exactness escape hatch: when the true distinct count <= m, nothing
    is ever truncated and the estimates ARE the exact counts (the oracle
    strategy)."""
    import numpy as np

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = summary_size or 8 * k
    if m < k:
        raise ValueError(f"summary_size {m} < k {k}")

    def mg_truncate(vals: np.ndarray, counts: np.ndarray):
        if len(vals) <= m:
            return vals, counts
        order = np.argsort(counts)[::-1]
        thr = counts[order[m]]
        keep = order[:m]
        c = counts[keep] - thr
        pos = c > 0
        return vals[keep][pos], c[pos]

    def partial(t: pa.Table) -> pa.Table:
        arr = t.column(col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        v = arr.to_pandas().to_numpy()
        v = v[~pa.compute.is_null(arr).to_numpy(zero_copy_only=False)] \
            if arr.null_count else v
        if not len(v):
            return pa.table({col: pa.array([], arr.type),
                             "__mg": pa.array([], pa.int64())})
        uniq, counts = np.unique(v, return_counts=True)
        uniq, counts = mg_truncate(uniq, counts.astype(np.int64))
        return pa.table({col: pa.array(uniq, arr.type),
                         "__mg": pa.array(counts)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    merged = groupby_agg(partials, [col], [("__mg", "sum", "__mg")])
    head = top_k(merged, "__mg", m + 1, tie_breakers=[col]).to_pandas()
    if len(head) > m:
        thr = int(head["__mg"].iloc[m])
        head = head.iloc[:m].copy()
        head["__mg"] = head["__mg"] - thr
        head = head[head["__mg"] > 0]
    head = head.iloc[:k].rename(columns={"__mg": out_col})
    return pa.Table.from_pandas(head.reset_index(drop=True),
                                preserve_index=False)


def histogram(ds, col: str, lo: float, hi: float, bins: int,
              count_col: str = "n", clip: bool = True):
    """Fixed-width histogram of ``col`` over ``[lo, hi)``: bin index =
    ``floor((x - lo) / width)`` -- one vectorized pass + the partial+final
    count machinery, so shuffle volume is O(bins x blocks).  ``clip=True``
    folds out-of-range values into the edge bins (SQL ``least/greatest``);
    nulls are dropped.  Returns (bin int64, lo_edge float64, n)."""
    import numpy as np

    if bins < 1 or not hi > lo:
        raise ValueError("need bins >= 1 and hi > lo")
    width = (hi - lo) / bins

    def binize(t: pa.Table) -> pa.Table:
        arr = t.column(col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        x = arr.cast(pa.float64()).to_numpy(zero_copy_only=False)
        x = x[~np.isnan(x)]
        b = np.floor((x - lo) / width).astype(np.int64)
        if clip:
            b = np.clip(b, 0, bins - 1)
        else:
            m = (b >= 0) & (b < bins)
            b = b[m]
        return pa.table({"bin": pa.array(b)})

    out = count_by(ds.map_batches(binize, batch_format="pyarrow",
                                  zero_copy_batch=True), "bin")

    def edges(t: pa.Table) -> pa.Table:
        b = t.column("bin").to_numpy(zero_copy_only=False)
        tt = pa.table({
            "bin": t.column("bin"),
            "lo_edge": pa.array(lo + b * width),
            count_col: t.column("n"),
        })
        return tt

    return out.map_batches(edges, batch_format="pyarrow",
                           zero_copy_batch=True)


def winsorize_by(ds, key: str, value: str, lo_q: float = 0.01,
                 hi_q: float = 0.99, out_col: str | None = None,
                 mode: str = "exact"):
    """Per-group quantile clipping (winsorization) -- the outlier-taming
    cleanup pass: clip ``value`` into [q_lo, q_hi] of ITS OWN group.

    Two passes: per-group bounds via :func:`quantiles_by` (``mode="exact"``
    is bit-identical to SQL ``quantile_cont``; ``mode="sketch"`` is the
    unbounded-cardinality path), broadcast the small (group, lo, hi)
    table once, then one vectorized clamp over the stream -- rows never
    shuffle.  Null values pass through unchanged."""
    import numpy as np
    import ray

    if not 0.0 <= lo_q <= hi_q <= 1.0:
        raise ValueError("need 0 <= lo_q <= hi_q <= 1")
    q = quantiles_by(ds, key, value, qs=(lo_q, hi_q), mode=mode)
    qt = pa.concat_tables(
        [t for t in ray.get(q.to_arrow_refs()) if t.num_rows])
    cols = qt.column_names
    lo_name, hi_name = cols[1], cols[2]
    keys_np = qt.column(key).to_pandas().to_numpy(dtype=object)
    order = np.argsort(keys_np)
    state = ray.put((
        keys_np[order],
        qt.column(lo_name).to_numpy(zero_copy_only=False)[order],
        qt.column(hi_name).to_numpy(zero_copy_only=False)[order],
    ))
    name = out_col or value

    def clamp(t: pa.Table) -> pa.Table:
        ks, lo, hi = ray.get(state)
        g = t.column(key).to_pandas().to_numpy(dtype=object)
        pos = np.searchsorted(ks, g)
        pos = np.clip(pos, 0, len(ks) - 1)
        v = t.column(value).cast(pa.float64()).to_numpy(
            zero_copy_only=False)
        clipped = np.minimum(np.maximum(v, lo[pos]), hi[pos])
        arr = pa.array(clipped, pa.float64())
        if t.column(value).null_count:
            arr = pc.if_else(pc.is_valid(t.column(value)), arr,
                             pa.scalar(None, pa.float64()))
        if name in t.column_names:
            return t.set_column(t.column_names.index(name), name, arr)
        return t.append_column(name, arr)

    return ds.map_batches(clamp, batch_format="pyarrow",
                          zero_copy_batch=True)


def pivot_counts(ds, key, pivot_col: str, values: list[str],
                 other: str | None = None, batch_size: int = 65536):
    """Pivot categorical counts into one column per category (the classic
    log-dashboard reshape: one row per key, ``count(*) FILTER (WHERE
    pivot_col = v)`` per value).

    Partial+final: per batch ONE Arrow group_by over the key sums boolean
    indicator columns (each value's matches), so at most one row per key
    per batch leaves the worker; partials merge through ``groupby_agg``'s
    bucketed hash exchange.  ``other`` names an optional catch-all column
    counting rows matching none of ``values``.  Algebraic (sums of sums),
    so partial-of-partials is exact at any nesting.
    """
    keys = [key] if isinstance(key, str) else list(key)
    if not values and not other:
        raise ValueError("pivot_counts needs at least one value or `other`")
    cols = list(values) + ([other] if other else [])

    def partial(t: pa.Table) -> pa.Table:
        import numpy as np

        pv = t.column(pivot_col)
        if isinstance(pv, pa.ChunkedArray):
            pv = pv.combine_chunks()
        out = t.select(keys)
        rest = None
        for v in values:
            m = pc.equal(pv, v)
            m = pc.fill_null(m, False)
            out = out.append_column(v, pc.cast(m, pa.int64()))
            rest = m if rest is None else pc.or_(rest, m)
        if other:
            inv = pc.invert(pc.fill_null(rest, False)) if rest is not None \
                else pa.array(np.ones(t.num_rows, bool))
            out = out.append_column(other, pc.cast(inv, pa.int64()))
        g = out.group_by(keys).aggregate([(c, "sum") for c in cols])
        return g.rename_columns(keys + cols)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size)
    return groupby_agg(partials, keys, [(c, "sum", c) for c in cols])


def zscore_flag(ds, key: str, value: str, threshold: float = 3.0,
                keep_cols: list[str] | None = None,
                stats_broadcast_limit: int = 20_000_000,
                batch_size: int = 65536):
    """Per-group z-score anomaly flag: mark rows whose ``value`` deviates
    more than ``threshold`` population standard deviations from their
    group mean (the telemetry outlier gate).

    Two streaming passes: (1) per-batch (n, sum, sum of squares) moment
    partials per key merge through the bucketed exchange -- O(keys) rows
    total; (2) the tiny (key, mean, std) table broadcasts (under
    ``stats_broadcast_limit`` keys) and the flag is one vectorized
    searchsorted probe + compare per batch.  Rows never shuffle.  The
    flag formula is ``abs(v - mean) > threshold * stddev_pop`` with
    ``mean = sum/n`` and ``stddev_pop = sqrt(sumsq/n - mean^2)`` --
    replicable in SQL as AVG/STDDEV_POP (agreement to float rounding;
    a boundary flip needs |z - threshold| at 1e-12, measure-zero for
    continuous values).
    """
    import ray
    import numpy as np

    def moments(t: pa.Table) -> pa.Table:
        v = t.column(value).to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(v)
        sub = pa.table({key: t.column(key).filter(pa.array(ok)),
                        "v": pa.array(v[ok]), "v2": pa.array(v[ok] ** 2)})
        g = sub.group_by(key).aggregate(
            [([], "count_all"), ("v", "sum"), ("v2", "sum")])
        return g.rename_columns([key, "n", "s", "s2"])

    parts = ds.map_batches(moments, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=batch_size)
    stats = groupby_agg(parts, [key],
                        [("n", "sum", "n"), ("s", "sum", "s"),
                         ("s2", "sum", "s2")]).materialize()
    if stats.count() > stats_broadcast_limit:
        raise ValueError(
            f"zscore_flag: {stats.count()} distinct keys exceed "
            f"stats_broadcast_limit={stats_broadcast_limit}; aggregate to "
            "a coarser key or raise the limit")
    stat_tabs = [t for t in ray.get(stats.to_arrow_refs()) if t.num_rows]
    if stat_tabs:
        sp = pa.concat_tables(stat_tabs).combine_chunks().to_pandas()
        k = sp[key].to_numpy()
        order = np.argsort(k)
        n = sp["n"].to_numpy()[order].astype(np.float64)
        mean = sp["s"].to_numpy()[order] / n
        var = np.maximum(sp["s2"].to_numpy()[order] / n - mean ** 2, 0.0)
        ref = ray.put((k[order], mean, np.sqrt(var)))
    else:  # every value null: no stats, nothing can be an anomaly
        ref = ray.put((np.empty(0, object), np.empty(0), np.empty(0)))

    def flag(t: pa.Table) -> pa.Table:
        ks, means, stds = ray.get(ref)
        kv = t.column(key).to_numpy(zero_copy_only=False)
        v = t.column(value).to_numpy(zero_copy_only=False).astype(np.float64)
        if len(ks):
            pos = np.minimum(np.searchsorted(ks, kv), len(ks) - 1)
            # keys with no non-null values never entered the stats table:
            # such rows (and null-value rows) are not anomalies
            found = ks[pos] == kv
            z = found & (np.abs(v - means[pos]) > threshold * stds[pos])
        else:
            z = np.zeros(len(kv), dtype=bool)
        out = t.select(keep_cols) if keep_cols else t
        return out.append_column("is_anomaly", pa.array(z))

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def distinct_rows(ds, cols: list[str] | None = None, num_buckets: int = 32,
                  batch_size: int = 65536):
    """SELECT DISTINCT over ``cols`` (default: all columns).

    Partial+final: per batch ONE Arrow group_by collapses to at most one
    row per distinct tuple per batch; partials co-locate through a hash
    exchange on the composite row hash and collapse once more per bucket.
    Null-safe (Arrow group_by keys nulls as their own group; the exchange
    hashes, never sorts)."""
    keys = cols or list(ds.schema().names)

    def local(t: pa.Table) -> pa.Table:
        return _group_by(_canon_keys(t.select(keys), keys), keys, [])

    partials = ds.map_batches(local, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size)
    return hash_exchange_by(partials, keys, local, num_buckets)


def group_stats(ds, keys: list[str], aggs: list[tuple],
                broadcast_limit: int = 5_000_000, batch_size: int = 65536):
    """Whole-partition aggregates attached to EVERY row -- SQL ``agg(col)
    OVER (PARTITION BY keys)`` with no ORDER BY (Splunk's ``eventstats``):
    "each event plus its user's total/min/max/avg".

    Composition, not a new shuffle: the stats table is one partial+final
    :func:`groupby_agg` (shuffle volume O(keys x blocks)), broadcast ONCE
    via ``ray.put``, and stitched onto the stream with the
    ``index_in``+``take`` broadcast join -- the big side never moves.
    ``aggs`` as in :func:`groupby_agg` ((col, fn, out) with fn in
    {sum, count, count_star, min, max, mean}; mean = exact sum/count, one
    IEEE division, so int sources compare bit-exact vs SQL).

    Null-KEY caveat: SQL ``PARTITION BY`` groups null keys together and
    gives them stats too; the broadcast join's ``index_in`` cannot match
    null keys, so their stat columns come back NULL.  Filter or fill null
    keys upstream if that distinction matters.

    Guard: the stats table must fit a broadcast (``broadcast_limit``
    rows); past that, use ``bucketed_join`` of :func:`groupby_agg` output
    explicitly.
    """
    import ray

    from .join import broadcast_join

    stats = groupby_agg(ds, keys, aggs, batch_size=batch_size)
    tables = [t for t in ray.get(stats.to_arrow_refs()) if t.num_rows]
    n_groups = sum(t.num_rows for t in tables)
    if n_groups > broadcast_limit:
        raise ValueError(
            f"group_stats: {n_groups} groups exceed broadcast_limit="
            f"{broadcast_limit}; join groupby_agg output via bucketed_join "
            "instead")
    out_names = [out for _c, _f, out in aggs]
    if tables:
        stats_t = pa.concat_tables(tables).select(keys + out_names)
    else:
        # empty input: stat columns still appear (all null via the left
        # join against an empty right side); an empty Dataset reports no
        # schema, so key types come from the INPUT and stat columns fall
        # back to float64 (they are all-null regardless)
        in_types = dict(zip(ds.schema().names, ds.schema().types))
        cols = {k: pa.nulls(0, in_types[k]) for k in keys}
        cols.update({o: pa.nulls(0, pa.float64()) for o in out_names})
        stats_t = pa.table(cols)
    return broadcast_join(ds, stats_t, on=keys if len(keys) > 1 else keys[0],
                          how="left")
