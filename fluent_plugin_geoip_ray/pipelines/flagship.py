"""Flagship pipeline: parse -> enrich -> route fan-out -> aggregate.

End-to-end Ray-Data re-expression of the reference deployment
(``<source>`` -> ``<filter geoip>`` -> ``<match>`` sinks, README.md:248-266)
over transcript Parquet (SURVEY §3.4):

* ONE streaming pass over the input: the fan-out stage writes every route's
  sink files as it goes (the Fluentd ``emit``-to-many-outputs analog) and
  emits tiny partial-count rows downstream, so sinks + aggregates cost a
  single scan and the only all-to-all is over per-batch partials
  (O(distinct keys), not O(rows)).
* sink files are named deterministically from batch content, written via
  tmp+rename -- a retried Ray task overwrites its own file instead of
  duplicating rows (idempotent under task retry).
* resumable partitioned mode in :func:`run_partitioned` -- partition =
  input-file chunk, per-partition manifest + partial aggregates, resume skips
  committed partitions (lineage.py).
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import fsio
from ..config import RecordSpec, compile_record_spec
from ..lineage import (
    clean_partition_outputs,
    completed_pids,
    plan_partitions,
    write_manifest,
)
from ..stages.enrich import enrich_dataset
from ..stages.parse import parse_dataset
from ..stages.route import RouteSpec


def canonical_record_spec(**overrides) -> RecordSpec:
    """The canonical enrich spec (FIXTURES.md §3; mirrors the reference's
    record-directive matrix, test_filter_geoip.rb:258-277)."""
    kwargs = dict(
        lookup_keys=["ip"],
        record={
            "city": "${city.names.en['ip']}",
            "latitude": "${location.latitude['ip']}",
            "longitude": "${location.longitude['ip']}",
            "country_code": "${country.iso_code['ip']}",
            "country_name": "${country.names.en['ip']}",
            "region": "${subdivisions.0.iso_code['ip']}",
            "float_concat": "${location.latitude['ip']},${location.longitude['ip']}",
            "geopoint": "[${location.longitude['ip']}, ${location.latitude['ip']}]",
            "location_properties": '{ "lat": ${location.latitude["ip"]}, "lon": ${location.longitude["ip"]} }',
        },
        skip_adding_null_record=False,  # routes own the gate per-sink
    )
    kwargs.update(overrides)
    return RecordSpec(**kwargs)


def heavy_record_spec() -> RecordSpec:
    """Compute-heavy spec: all three lookup keys (3 regex extractions from
    text) and ~21 template fields.  Used by the compute-bound scaling probe
    (BASELINE.md): per-row CPU dominates memory traffic, so throughput
    scales with cores instead of hitting the single-box DRAM ceiling."""
    base = canonical_record_spec()
    rec = dict(base.record)
    for key in ("ip2", "host"):
        rec[f"city_{key}"] = "${city.names.en['%s']}" % key
        rec[f"cc_{key}"] = "${country.iso_code['%s']}" % key
        rec[f"name_{key}"] = "${country.names.en['%s']}" % key
        rec[f"concat_{key}"] = (
            "${location.latitude['%s']},${location.longitude['%s']}" % (key, key)
        )
        rec[f"point_{key}"] = (
            "[${location.longitude['%s']}, ${location.latitude['%s']}]" % (key, key)
        )
        rec[f"props_{key}"] = (
            '{ "lat": ${location.latitude["%s"]}, "cc": ${country.iso_code["%s"]} }'
            % (key, key)
        )
    return RecordSpec(lookup_keys=["ip", "ip2", "host"], record=rec)


def canonical_routes(out_dir: str | None) -> list[RouteSpec]:
    """FIXTURES.md §4: an enriched sink (gated) and a raw passthrough sink."""

    def sink(name):
        return fsio.join(out_dir, name) if out_dir else None

    return [
        RouteSpec(
            name="enriched",
            match="transcripts.**",
            remove_tag_prefix="transcripts.",
            add_tag_prefix="enriched.",
            skip_adding_null_record=True,
            sink=sink("enriched"),
        ),
        RouteSpec(
            name="raw",
            match="transcripts.**",
            add_tag_suffix=".raw",
            sink=sink("raw"),
        ),
    ]


def build_enriched(
    ds,
    record_spec: RecordSpec | None = None,
    backend_spec: dict | None = None,
    enrich_batch_size: int | None = None,
    enrich_concurrency=None,
):
    """parse + enrich stages attached to a Dataset (lazy).

    ``enrich_batch_size=None`` = whole blocks, zero-copy, no rebatch buffers
    (block size is set by the input layout / target_max_block_size)."""
    spec = compile_record_spec(record_spec or canonical_record_spec())
    # extract only the parse fields this spec's lookup keys consume (each is
    # an RE2 pass over text); other lookup keys are pre-existing columns
    fields = tuple(f for f in ("ip", "ip2", "host") if f in spec.lookup_keys)
    ds = parse_dataset(ds, fields=fields or ("ip",))
    return enrich_dataset(
        ds,
        spec,
        backend_spec=backend_spec,
        batch_size=enrich_batch_size,
        concurrency=enrich_concurrency,
    )


def _hash_column(h, column: pa.ChunkedArray) -> None:
    """Feed ``column``'s logical content to ``h``, chunk by chunk, without a
    copy: validity (if any nulls), then for strings the offsets rebased to 0
    across chunks and the data bytes they cover, else the int64 values."""
    chunks = [c for c in column.chunks if len(c)]
    if column.null_count:
        for c in chunks:
            h.update(c.is_valid().to_numpy(zero_copy_only=False).tobytes())
    if not (pa.types.is_string(column.type) or pa.types.is_large_string(column.type)):
        for c in chunks:
            h.update(pc.fill_null(c.cast(pa.int64()), 0).to_numpy().tobytes())
        return
    width = np.int32 if pa.types.is_string(column.type) else np.int64
    base = 0
    spans = []
    for c in chunks:
        _, offsets_buf, data = c.buffers()
        offsets = np.frombuffer(
            offsets_buf, dtype=width, count=c.offset + len(c) + 1
        )[c.offset:].astype(np.int64)
        h.update((offsets[:-1] - offsets[0] + base).tobytes())
        base += int(offsets[-1] - offsets[0])
        spans.append((data, int(offsets[0]), int(offsets[-1])))
    h.update(np.int64(base).tobytes())
    for data, start, end in spans:
        if data is not None:
            h.update(memoryview(data)[start:end])


class FanoutWrite:
    """Single-pass route fan-out: write sink files, emit partial counts.

    ``map_batches`` actor-pool callable: per batch, apply every route
    (vectorized mask + tag rewrite), write the routed sub-table as one
    deterministically-named parquet file under ``<sink>/part=<pid>/``, and
    return partial groupby-count rows (route x {country_code, conv_id}) --
    the combiner side of the per-sink aggregates.
    """

    STATS_SCHEMA = pa.schema(
        [("route", pa.string()), ("kind", pa.string()), ("key", pa.string()), ("n", pa.int64())]
    )

    def __init__(self, routes: list[RouteSpec], pid: int = 0,
                 agg_keys: tuple = ("country_code", "conv_id"),
                 agg_dir: str | None = None,
                 driver_kinds: tuple = ("rows", "country_code")):
        """``agg_dir``: when set, the FULL per-batch partial counts (including
        the high-cardinality conv_id kind) are written as parquet side-outputs
        under ``agg_dir/part=<pid>/`` -- they never cross the cluster -- and
        only the ``driver_kinds`` partials (constant-size) flow downstream to
        the driver merge.  At 10^12-turn scale a per-conv_id count is itself a
        large table; producing it as mergeable partitioned parquet (merged
        distributed on consumption, exactly like run_partitioned's final
        merge) is the scale-true semantic.  With ``agg_dir=None`` every
        partial flows downstream (correctness paths, small inputs)."""
        self.routes = routes
        self.pid = pid
        self.agg_keys = agg_keys
        self.agg_dir = agg_dir
        self.driver_kinds = driver_kinds
        self._group_tables: list = []
        # resolve each sink's filesystem ONCE (pyarrow filesystems pickle,
        # so resolved handles ride into the actor pool) and memoize created
        # part dirs -- no per-batch resolve/create_dir RPCs in the hot loop
        self._sink_fs = {
            r.sink: fsio.resolve(r.sink) for r in routes if r.sink
        }
        if agg_dir is not None:
            self._sink_fs[agg_dir] = fsio.resolve(agg_dir)
        self._made_dirs: set = set()

    def _part_dir(self, root: str) -> tuple:
        """(fs, part_dir) for a sink root, creating the dir once."""
        fs, base = self._sink_fs[root]
        part_dir = fsio.join(base, f"part={self.pid:06d}")
        if part_dir not in self._made_dirs:
            fsio.makedirs(fs, part_dir)
            self._made_dirs.add(part_dir)
        return fs, part_dir

    def _file_name(self, routed: pa.Table, ext: str = "parquet") -> str:
        """Deterministic name from the FULL key-column content (not just the
        first/last row): two distinct batches can never share a name, so a
        retried task overwrites only its own identical file (idempotent),
        while hot-conv batches with equal boundary rows stay distinct.

        The sha1 covers the logical Arrow content (``_hash_column``), so a
        slice or a differently chunked table with the same rows gets the
        same name."""
        h = hashlib.sha1()
        h.update(str(routed.num_rows).encode())
        if routed.num_rows:
            for col in ("conv_id", "turn_idx", "ts"):
                if col in routed.column_names:
                    h.update(col.encode())
                    _hash_column(h, routed.column(col))
        return f"batch-{h.hexdigest()[:16]}.{ext}"

    def __call__(self, batch: pa.Table) -> pa.Table:
        stats = {"route": [], "kind": [], "key": [], "n": []}
        for route in self.routes:
            routed = route.apply(batch)
            if route.sink and routed.num_rows:
                # sink may be a URI (s3://...); all IO goes through fsio --
                # local keeps tmp+rename, object stores use single-PUT
                fs, part_dir = self._part_dir(route.sink)
                if getattr(route, "sink_format", "parquet") == "json":
                    # ndjson lines (Elasticsearch-bulk-shaped consumers):
                    # vectorized Arrow->ndjson via polars (no pandas
                    # round-trip, no per-row Python); timestamps rendered
                    # ISO-8601 first so the line format is stable
                    path = fsio.join(part_dir, self._file_name(routed, "jsonl"))
                    enc = routed
                    for i, f in enumerate(enc.schema):
                        if pa.types.is_timestamp(f.type):
                            enc = enc.set_column(
                                i, f.name,
                                pc.strftime(enc.column(f.name),
                                            format="%Y-%m-%dT%H:%M:%SZ"))
                    import polars as pl

                    payload = pl.from_arrow(enc).write_ndjson()
                    fsio.write_bytes_atomic(fs, payload.encode(), path)
                else:
                    path = fsio.join(part_dir, self._file_name(routed))
                    fsio.write_parquet_atomic(fs, routed, path)
            stats["route"].append(route.name)
            stats["kind"].append("rows")
            stats["key"].append("")
            stats["n"].append(routed.num_rows)
            for col in self.agg_keys:
                if col not in routed.column_names:
                    continue
                g = routed.group_by(col).aggregate([([], "count_all")])
                keys = g.column(col)
                if isinstance(keys, pa.ChunkedArray):
                    keys = keys.combine_chunks()
                if not pa.types.is_string(keys.type):
                    keys = keys.cast(pa.string())
                self._group_tables.append(
                    pa.table(
                        {
                            "route": pa.array(
                                np.repeat(np.asarray([route.name]), g.num_rows)
                            ),
                            "kind": pa.array(np.repeat(np.asarray([col]), g.num_rows)),
                            "key": keys,
                            "n": g.column("count_all").cast(pa.int64()),
                        },
                        schema=self.STATS_SCHEMA,
                    )
                )
        parts = [pa.table(stats, schema=self.STATS_SCHEMA)] + self._group_tables
        self._group_tables = []
        full = pa.concat_tables(parts).combine_chunks()
        if self.agg_dir is None:
            return full
        # side-output the full partials (incl. high-cardinality kinds) ...
        fs, part_dir = self._part_dir(self.agg_dir)
        path = fsio.join(part_dir, self._file_name(batch).replace("batch-", "agg-"))
        fsio.write_parquet_atomic(fs, full, path)
        # ... and only the constant-size kinds travel to the driver merge
        mask = pc.is_in(full.column("kind"), value_set=pa.array(list(self.driver_kinds)))
        return full.filter(mask)


def run_fanout(
    enriched,
    routes: list[RouteSpec],
    pid: int = 0,
    batch_size: int | None = None,
    agg_dir: str | None = None,
):
    """Consume the enriched Dataset: write sinks, return final stats table.

    The returned table is the merged (route, kind, key, n) aggregate; a
    null key (e.g. a null ``conv_id``) is its own row with a null ``key``.

    The per-batch combiner outputs stream to the driver and merge with one
    C++ ``pyarrow.Table.group_by`` -- no all-to-all.  With ``agg_dir`` set,
    high-cardinality kinds (conv_id) are written as parquet side-outputs
    by the workers and never reach the driver (see FanoutWrite) -- the
    returned table then carries rows + country_code only.
    """
    stats_ds = enriched.map_batches(
        FanoutWrite(routes, pid=pid, agg_dir=agg_dir),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    ).materialize()
    # materialize() is load-bearing, not an optimization: the fan-out UDF has
    # SIDE EFFECTS (sink files).  On a lazy dataset, Ray Data's deferred
    # schema probe can re-execute the chain with limit=1 AFTER this function
    # returns, writing a stray 1-row sink file and racing the next run's
    # partition cleanup.  A materialized dataset caches schema + blocks, so
    # no later probe ever re-runs the UDF.
    import ray

    refs = stats_ds.to_arrow_refs()  # executes; blocks fetched in parallel
    batches = [t for t in ray.get(refs) if t.num_rows]
    if not batches:
        allt = FanoutWrite.STATS_SCHEMA.empty_table()
    else:
        allt = pa.concat_tables(batches)
    merged = (
        allt.group_by(["route", "kind", "key"])
        .aggregate([("n", "sum")])
        .rename_columns(["route", "kind", "key", "n"])
    )
    return pa.table(
        {
            "route": merged.column("route").combine_chunks().cast(pa.string()),
            "kind": merged.column("kind").combine_chunks().cast(pa.string()),
            "key": merged.column("key").combine_chunks().cast(pa.string()),
            "n": merged.column("n").combine_chunks().cast(pa.int64()),
        },
        schema=FanoutWrite.STATS_SCHEMA,
    )


def run_flagship(
    input_path: str,
    out_dir: str | None = None,
    record_spec: RecordSpec | None = None,
    routes: list[RouteSpec] | None = None,
    backend_spec: dict | None = None,
    stages: list[dict] | None = None,
    enrich_batch_size: int | None = None,
    enrich_concurrency=None,
    scale_agg: bool = True,
):
    """One-shot (non-partitioned) flagship run. Returns the stats table.

    ``scale_agg=True`` (default, requires ``out_dir``): conv_id count
    partials are written distributed under ``<out_dir>/agg_partials/`` and
    the returned table carries the constant-size kinds (rows, country_code);
    ``scale_agg=False`` merges everything onto the driver (small inputs)."""
    import ray.data as rd

    ds = rd.read_parquet(input_path)
    routes = routes if routes is not None else canonical_routes(out_dir)
    enriched = build_enriched(
        ds,
        record_spec=record_spec,
        backend_spec=backend_spec,
        enrich_batch_size=enrich_batch_size,
        enrich_concurrency=enrich_concurrency,
    )
    if stages:
        from ..stages.registry import apply_stages

        enriched = apply_stages(enriched, stages)
    agg_dir = fsio.join(out_dir, "agg_partials") if (out_dir and scale_agg) else None
    return run_fanout(enriched, routes, agg_dir=agg_dir)


def read_aggregates(agg_dir: str, kinds: tuple | None = None) -> pa.Table:
    """Merge-on-read for the distributed aggregate partials.

    ``FanoutWrite(agg_dir=...)`` leaves per-batch partial counts as parquet
    under ``agg_dir/part=*/agg-*.parquet``; this is the consumer-side merge
    (one C++ group_by over the partial files -- at 10^12 scale point the
    same glob at ``ray.data.read_parquet`` and reuse count_by's partial+final
    path instead)."""
    fs, base = fsio.resolve(agg_dir)
    files = [
        fsio.join(base, part, name)
        for part in fsio.listdir(fs, base) if part.startswith("part=")
        for name in fsio.listdir(fs, fsio.join(base, part))
        if name.startswith("agg-") and name.endswith(".parquet")
    ]
    if not files:
        return FanoutWrite.STATS_SCHEMA.empty_table()
    allt = pa.concat_tables([fsio.read_parquet(fs, f) for f in sorted(files)])
    if kinds:
        allt = allt.filter(pc.is_in(allt.column("kind"), value_set=pa.array(list(kinds))))
    return (
        allt.group_by(["route", "kind", "key"])
        .aggregate([("n", "sum")])
        .rename_columns(["route", "kind", "key", "n"])
    )


def run_partitioned(
    input_files: list[str],
    out_dir: str,
    record_spec: RecordSpec | None = None,
    routes: list[RouteSpec] | None = None,
    backend_spec: dict | None = None,
    stages: list[dict] | None = None,
    files_per_partition: int = 1,
    resume: bool = True,
    enrich_concurrency=None,
) -> dict:
    """Resumable partitioned run (lineage.py): skip committed partitions,
    re-run (after cleanup) incomplete ones, then merge partial aggregates.

    Partitioning caveat for GROUPWISE conf stages (``running_agg``,
    ``rolling_agg``, ``group_stats``, ``funnel``, ...): each partition is
    processed independently, so their windows/stats cover one partition's
    files only.  That is exact when inputs are key-aligned (one
    conversation never spans partitions -- the transcript layout); for
    arbitrary layouts either co-partition inputs by key upstream or run
    the unpartitioned path."""
    import ray.data as rd

    routes = routes if routes is not None else canonical_routes(out_dir)
    sinks = {r.name: r.sink for r in routes if r.sink}
    partitions = plan_partitions(input_files, files_per_partition)
    done = completed_pids(out_dir) if resume else set()
    ran, skipped = [], []
    for part in partitions:
        if part.pid in done:
            skipped.append(part.pid)
            continue
        clean_partition_outputs(out_dir, sinks, part.pid)
        t0 = time.perf_counter()
        ds = rd.read_parquet(list(part.files))
        enriched = build_enriched(
            ds, record_spec=record_spec, backend_spec=backend_spec,
            enrich_concurrency=enrich_concurrency,
        )
        if stages:
            from ..stages.registry import apply_stages

            enriched = apply_stages(enriched, stages)
        stats = run_fanout(enriched, routes, pid=part.pid)
        ofs, obase = fsio.resolve(out_dir)
        partial_dir = fsio.join(obase, "_partials", f"{part.pid:06d}")
        fsio.makedirs(ofs, partial_dir)
        fsio.write_parquet_atomic(ofs, stats, fsio.join(partial_dir, "stats.parquet"))
        rows = {
            r.name: int(
                pc.sum(
                    stats.filter(
                        pc.and_(
                            pc.equal(stats.column("route"), r.name),
                            pc.equal(stats.column("kind"), "rows"),
                        )
                    ).column("n")
                ).as_py()
                or 0
            )
            for r in routes
        }
        # lineage metrics (north_rule: per-partition lineage + metrics):
        # input rows from parquet footers (metadata-only), per-sink file
        # counts + bytes from the just-written partition dirs
        rows_in = sum(pq.read_metadata(f).num_rows for f in part.files)
        sink_metrics = {}
        for r in routes:
            if not r.sink:
                continue
            sfs, sbase = fsio.resolve(r.sink)
            pdir = fsio.join(sbase, f"part={part.pid:06d}")
            files = fsio.listdir(sfs, pdir)
            sink_metrics[r.name] = {
                "files": len(files),
                "bytes": sum(
                    fsio.file_size(sfs, fsio.join(pdir, f)) for f in files
                ),
            }
        elapsed = round(time.perf_counter() - t0, 3)
        write_manifest(
            out_dir,
            part.pid,
            {
                "input_files": list(part.files),
                "rows_in": rows_in,
                "rows_out": rows,
                "sinks": sink_metrics,
                "elapsed_sec": elapsed,
                "rows_per_sec": round(rows_in / elapsed, 1) if elapsed else None,
            },
        )
        ran.append(part.pid)

    # final aggregate merge over committed partials (small)
    ofs, obase = fsio.resolve(out_dir)
    partials_base = fsio.join(obase, "_partials")
    partial_files = sorted(
        fsio.join(partials_base, d, "stats.parquet")
        for d in fsio.listdir(ofs, partials_base)
        if fsio.exists(ofs, fsio.join(partials_base, d, "stats.parquet"))
    )
    merged = None
    if partial_files:
        tables = [fsio.read_parquet(ofs, f) for f in partial_files]
        allt = pa.concat_tables(tables)
        merged = allt.group_by(["route", "kind", "key"]).aggregate([("n", "sum")])
        merged = merged.rename_columns(["route", "kind", "key", "n"])
        fsio.write_parquet_atomic(ofs, merged, fsio.join(obase, "aggregates.parquet"))
    return {"ran": ran, "skipped": skipped, "aggregates": merged}


_COMPACT_MANIFEST = "_compaction.json"


def partition_live_files(part: str):
    """The committed view of one fan-out sink partition directory.

    The compaction manifest (``_compaction.json``, atomically replaced) is
    the single commit point: readers trust ONLY (a) compact files listed in
    the manifest and (b) ``batch-*`` files NOT recorded as absorbed by it.
    Uncommitted ``compact-g*`` files from a crashed compaction and
    already-absorbed-but-not-yet-deleted batch files are both invisible, so
    a crash at ANY point between writing new compact files and removing old
    inputs never double-counts a row.  Directories with no manifest (never
    compacted, or written by older versions) fall back to all files.

    Returns ``(live_compact, live_batch, manifest_dict_or_None)``.
    """
    import glob
    import json
    import os
    import re

    batch = sorted(glob.glob(os.path.join(part, "batch-*.parquet")))
    compact = sorted(glob.glob(os.path.join(part, "compact-*.parquet")))
    mpath = os.path.join(part, _COMPACT_MANIFEST)
    if not os.path.exists(mpath):
        # generation-named compact files are ONLY visible through a
        # manifest: with none present they are leftovers of a compaction
        # that crashed before its commit point (legacy un-generationed
        # compact files from older layouts remain visible)
        legacy = [f for f in compact
                  if not re.match(r"compact-g\d+-", os.path.basename(f))]
        return legacy, batch, None
    with open(mpath) as fh:
        man = json.load(fh)
    committed = set(man["files"])
    absorbed = set(man["absorbed"])
    live_compact = [f for f in compact if os.path.basename(f) in committed]
    live_batch = [f for f in batch if os.path.basename(f) not in absorbed]
    return live_compact, live_batch, man


def read_sink_partition(part: str):
    """Read one sink partition through the committed manifest view (safe
    against a crashed compaction mid-swap)."""
    import ray.data as rd

    live_compact, live_batch, _ = partition_live_files(part)
    return rd.read_parquet(live_compact + live_batch)


def _fsync_dir(path: str) -> None:
    import os

    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _compact_one_partition(part: str, target_rows_per_file: int) -> dict:
    """Compact one partition: stream-merge its live files into
    ``ceil(rows/target)`` generation-named ``compact-g{G:04d}-{i:05d}``
    files, then COMMIT by atomically replacing the manifest (fsync'd), then
    clean up absorbed inputs.  Bounded memory: one row group at a time
    through a rotating ParquetWriter -- never materializes a partition."""
    import glob
    import json
    import os
    import re

    import pyarrow.parquet as pqmod

    live_compact, live_batch, man = partition_live_files(part)
    base = os.path.basename(part)
    if not live_batch:
        # nothing to merge, but still GC: a crash between a prior commit
        # and its cleanup leaves absorbed batch-* files and superseded
        # compact generations on disk -- invisible to readers, yet
        # unbounded growth if the skip path never collects them.
        gc_removed = 0
        if man is not None:
            committed = set(man["files"])
            absorbed = set(man["absorbed"])
            for f in glob.glob(os.path.join(part, "batch-*.parquet")):
                if os.path.basename(f) in absorbed:
                    os.remove(f)
                    gc_removed += 1
            for f in glob.glob(os.path.join(part, "compact-*.parquet")):
                if os.path.basename(f) not in committed:
                    os.remove(f)
                    gc_removed += 1
            for f in glob.glob(os.path.join(part, "_compact-g*.tmp")):
                os.remove(f)
                gc_removed += 1
        n = sum(pqmod.ParquetFile(f).metadata.num_rows for f in live_compact)
        return {base: {"files_before": len(live_compact),
                       "files_after": len(live_compact), "rows": n,
                       "skipped": True, "gc_removed": gc_removed}}

    gen = (int(man["generation"]) + 1) if man else 0
    for f in glob.glob(os.path.join(part, "compact-g*.parquet")):
        m = re.match(r"compact-g(\d+)-", os.path.basename(f))
        if m:
            gen = max(gen, int(m.group(1)) + 1)

    inputs = live_compact + live_batch
    schema = pqmod.ParquetFile(inputs[0]).schema_arrow
    writer = None
    out_files: list[str] = []
    tmp_path = ""
    rows_in_file = 0
    rows_total = 0

    def rotate():
        nonlocal writer, tmp_path, rows_in_file
        if writer is not None:
            writer.close()
            final = os.path.join(
                part, f"compact-g{gen:04d}-{len(out_files):05d}.parquet")
            os.replace(tmp_path, final)
            out_files.append(final)
        writer = None
        rows_in_file = 0

    try:
        for f in inputs:
            pf = pqmod.ParquetFile(f)
            for rg in range(pf.num_row_groups):
                t = pf.read_row_group(rg)
                if t.schema != schema:
                    t = t.select(schema.names).cast(schema)
                if writer is None:
                    tmp_path = os.path.join(
                        part,
                        f"_compact-g{gen:04d}-{len(out_files):05d}.tmp")
                    writer = pqmod.ParquetWriter(tmp_path, schema)
                writer.write_table(t)
                rows_in_file += t.num_rows
                rows_total += t.num_rows
                if rows_in_file >= target_rows_per_file:
                    rotate()
        rotate()
    except BaseException:
        if writer is not None:
            writer.close()
        if tmp_path and os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise

    # COMMIT: the manifest swap is the transaction boundary.  absorbed
    # carries forward prior entries so batch files deleted by an earlier
    # generation (or pending deletion after a crash) stay excluded.
    absorbed = set(man["absorbed"]) if man else set()
    absorbed.update(os.path.basename(f) for f in live_batch)
    new_man = {"generation": gen,
               "files": [os.path.basename(f) for f in out_files],
               "absorbed": sorted(absorbed),
               "rows": rows_total}
    mtmp = os.path.join(part, _COMPACT_MANIFEST + ".tmp")
    with open(mtmp, "w") as fh:
        json.dump(new_man, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(mtmp, os.path.join(part, _COMPACT_MANIFEST))
    _fsync_dir(part)

    # cleanup (post-commit; safe to crash anywhere in here): absorbed batch
    # files, superseded compact generations, stray uncommitted compact files
    committed = set(new_man["files"])
    for f in glob.glob(os.path.join(part, "batch-*.parquet")):
        if os.path.basename(f) in absorbed:
            os.remove(f)
    for f in glob.glob(os.path.join(part, "compact-*.parquet")):
        if os.path.basename(f) not in committed:
            os.remove(f)
    for f in glob.glob(os.path.join(part, "_compact-g*.tmp")):
        os.remove(f)

    return {base: {"files_before": len(inputs),
                   "files_after": len(out_files), "rows": rows_total}}


def compact_sink(sink_dir: str, target_rows_per_file: int = 1_000_000,
                 pattern: str = "part=*", parallel: bool = True):
    """Small-file compaction for a fan-out sink directory (the operational
    follow-up to resumable partitioned writes: many small ``batch-*``
    files per partition merge into few large ones, preserving rows
    exactly and the ``part=`` layout).

    Crash-safe via a per-partition manifest commit
    (:func:`partition_live_files`): new generation-named compact files are
    invisible to readers until ``_compaction.json`` is atomically replaced,
    and absorbed batch files stay excluded even if the post-commit cleanup
    never ran -- re-running always converges to exactly-once row counts.
    Partitions compact CONCURRENTLY (one Ray task each, streaming one row
    group at a time), so wall-time is the largest partition, not the sum.
    """
    import glob
    import os

    import ray

    parts = sorted(glob.glob(os.path.join(sink_dir, pattern)))
    report: dict = {}
    if parallel and len(parts) > 1:
        worker = ray.remote(num_cpus=1)(_compact_one_partition)
        for r in ray.get([worker.remote(p, target_rows_per_file)
                          for p in parts]):
            report.update(r)
    else:
        for p in parts:
            report.update(_compact_one_partition(p, target_rows_per_file))
    return report
