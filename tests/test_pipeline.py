"""End-to-end pipeline tests over the deterministic transcript fixture:
routed-row counts, aggregate equality, sort stability, text byte-identity,
and resume idempotence (north_rule correctness gates)."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fluent_plugin_geoip_ray.pipelines.flagship import (
    canonical_routes,
    run_flagship,
    run_partitioned,
)
from fluent_plugin_geoip_ray.sources.transcripts import (
    ensure_transcripts,
    transcript_files,
)


@pytest.fixture(scope="module")
def sf_path():
    return ensure_transcripts(0.001)  # a DIRECTORY of part files


def total_rows(path):
    return pq.read_table(path).num_rows


def read_sink(out_dir, name):
    files = sorted(glob.glob(os.path.join(out_dir, name, "part=*", "*.parquet")))
    assert files, f"no sink files for {name}"
    return pa.concat_tables([pq.read_table(f) for f in files])


def test_flagship_end_to_end(sf_path, tmp_path):
    out_dir = str(tmp_path / "out")
    stats = run_flagship(sf_path, out_dir=out_dir)
    total = total_rows(sf_path)

    raw = read_sink(out_dir, "raw")
    assert raw.num_rows == total

    enriched = read_sink(out_dir, "enriched")
    # gate: kept iff city (first record entry) resolved
    assert 0 < enriched.num_rows < total
    assert pc.all(pc.is_valid(enriched.column("city"))).as_py()
    assert pc.all(
        pc.match_substring_regex(enriched.column("tag"), "^enriched\\.")
    ).as_py()

    # the merged stats keep their schema (route, kind, key, n)
    from fluent_plugin_geoip_ray.pipelines.flagship import FanoutWrite

    assert stats.schema == FanoutWrite.STATS_SCHEMA

    # stats rows agree with sink files
    srows = {
        (r["route"], r["kind"], r["key"]): r["n"] for r in stats.to_pylist()
    }
    assert srows[("raw", "rows", "")] == total
    assert srows[("enriched", "rows", "")] == enriched.num_rows

    # per-sink country aggregate equals a direct count over the sink
    direct = enriched.group_by("country_code").aggregate([([], "count_all")])
    for k, n in zip(
        direct.column("country_code").to_pylist(),
        direct.column("count_all").to_pylist(),
    ):
        assert srows[("enriched", "country_code", k)] == n


def test_text_byte_identity_under_stable_order(sf_path, tmp_path):
    """Per-turn text byte-identical under (conv_id, turn_idx) order
    (BASELINE.json input_hint invariant)."""
    out_dir = str(tmp_path / "out")
    run_flagship(sf_path, out_dir=out_dir)
    raw = read_sink(out_dir, "raw")
    raw = raw.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    src = pq.read_table(sf_path).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    assert raw.column("text").combine_chunks().equals(
        src.column("text").combine_chunks()
    )
    assert raw.column("ts").combine_chunks().equals(src.column("ts").combine_chunks())


def _canon_counts(t):
    """(route, kind, key) count merge of ``t``, sorted: the referee for
    every merged stats table."""
    return (t.group_by(["route", "kind", "key"]).aggregate([("n", "sum")])
            .rename_columns(["route", "kind", "key", "n"])
            .sort_by([("route", "ascending"), ("kind", "ascending"),
                      ("key", "ascending")]))


def test_partitioned_run_and_resume(sf_path, tmp_path):
    out_dir = str(tmp_path / "out")
    r1 = run_partitioned(transcript_files(0.001), out_dir)
    assert r1["ran"] and not r1["skipped"]
    # aggregates.parquet = the returned table = one merge of the partials
    from fluent_plugin_geoip_ray.pipelines.flagship import FanoutWrite

    written = pq.read_table(os.path.join(out_dir, "aggregates.parquet"))
    assert written.schema == r1["aggregates"].schema == FanoutWrite.STATS_SCHEMA
    assert written.equals(r1["aggregates"])
    partials = glob.glob(os.path.join(out_dir, "_partials", "*", "stats.parquet"))
    assert _canon_counts(written).equals(_canon_counts(
        pa.concat_tables([pq.read_table(f) for f in partials])))
    agg1 = r1["aggregates"].sort_by(
        [("route", "ascending"), ("kind", "ascending"), ("key", "ascending")]
    )
    sink1 = read_sink(out_dir, "enriched")

    # resume: nothing re-runs, outputs unchanged
    r2 = run_partitioned(transcript_files(0.001), out_dir)
    assert not r2["ran"] and r2["skipped"] == r1["ran"]
    agg2 = r2["aggregates"].sort_by(
        [("route", "ascending"), ("kind", "ascending"), ("key", "ascending")]
    )
    assert agg1.equals(agg2)
    sink2 = read_sink(out_dir, "enriched")
    assert sink1.num_rows == sink2.num_rows


def test_partition_crash_recovery(sf_path, tmp_path):
    """A partition without a manifest is garbage: cleaned and re-run."""
    out_dir = str(tmp_path / "out")
    r1 = run_partitioned(transcript_files(0.001), out_dir)
    # simulate crash: delete the manifest, leave sink files behind
    mpath = os.path.join(out_dir, "_manifests", "part-000000.json")
    os.remove(mpath)
    r2 = run_partitioned(transcript_files(0.001), out_dir)
    assert r2["ran"] == [0]  # only the crashed partition re-runs
    assert sorted(r2["ran"] + r2["skipped"]) == sorted(r1["ran"])
    sink = read_sink(out_dir, "raw")
    assert sink.num_rows == total_rows(sf_path)


def test_write_sorted_sink(sf_path, tmp_path):
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.route import write_sorted_sink

    out = str(tmp_path / "sorted")
    write_sorted_sink(rd.read_parquet(sf_path), out)
    t = pq.read_table(out)
    conv = t.column("conv_id").to_pylist()
    turn = t.column("turn_idx").to_pylist()
    assert list(zip(conv, turn)) == sorted(zip(conv, turn))


def test_fanout_write_idempotent_under_retry(sf_path, tmp_path):
    """A retried Ray task re-running the same batch must overwrite its own
    file (deterministic content-hashed name), never duplicate rows."""
    from fluent_plugin_geoip_ray.config import compile_record_spec
    from fluent_plugin_geoip_ray.pipelines.flagship import (
        FanoutWrite,
        canonical_record_spec,
        canonical_routes,
    )
    from fluent_plugin_geoip_ray.stages.enrich import GeoEnrich
    from fluent_plugin_geoip_ray.stages.parse import parse_transcripts

    batch = GeoEnrich(compile_record_spec(canonical_record_spec()))(
        parse_transcripts(pq.read_table(sf_path))
    )
    out = str(tmp_path / "retry")
    fw = FanoutWrite(canonical_routes(out))
    fw(batch)
    fw(batch)  # simulated retry of the same task
    files = glob.glob(os.path.join(out, "raw", "part=*", "*.parquet"))
    assert len(files) == 1
    assert pq.read_table(files[0]).num_rows == batch.num_rows


def test_fanout_write_no_cross_batch_collision(sf_path, tmp_path):
    """Two DIFFERENT batches sharing num_rows + boundary rows (hot conv, same
    first conv_id/turn_idx, same last ts) must get distinct file names --
    name hashes full key-column content, so no silent overwrite."""
    from fluent_plugin_geoip_ray.config import compile_record_spec
    from fluent_plugin_geoip_ray.pipelines.flagship import (
        FanoutWrite,
        canonical_record_spec,
        canonical_routes,
    )
    from fluent_plugin_geoip_ray.stages.enrich import GeoEnrich
    from fluent_plugin_geoip_ray.stages.parse import parse_transcripts

    batch = GeoEnrich(compile_record_spec(canonical_record_spec()))(
        parse_transcripts(pq.read_table(sf_path))
    )
    b1 = batch.slice(0, 4)
    # same shape and same first row; middle rows differ (turn_idx shifted)
    import pyarrow.compute as pc_

    shifted = pc_.add(batch.column("turn_idx").slice(0, 4), 1000)
    b2 = b1.set_column(b1.column_names.index("turn_idx"), "turn_idx", shifted)
    # restore first row so boundary keys match b1
    first = b1.column("turn_idx")[0].as_py()
    fixed = pa.array([first] + shifted.to_pylist()[1:], type=pa.int32())
    b2 = b2.set_column(b2.column_names.index("turn_idx"), "turn_idx",
                       fixed.cast(b1.column("turn_idx").type))
    out = str(tmp_path / "collide")
    fw = FanoutWrite(canonical_routes(out))
    fw(b1)
    fw(b2)
    files = glob.glob(os.path.join(out, "raw", "part=*", "*.parquet"))
    assert len(files) == 2
    total = sum(pq.read_table(f).num_rows for f in files)
    assert total == b1.num_rows + b2.num_rows


def _keyed_table(conv_ids, turn_idx, ts):
    return pa.table({
        "conv_id": pa.array(conv_ids, type=pa.string()),
        "turn_idx": pa.array(turn_idx, type=pa.int32()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "text": pa.array([f"t{i}" for i in range(len(conv_ids))]),
    })


def test_file_name_hashes_logical_content():
    """Sink names depend on the rows' key values only: not on slicing or
    chunking, and every key byte, turn_idx, ts and null counts."""
    from fluent_plugin_geoip_ray.pipelines.flagship import FanoutWrite

    name = FanoutWrite([])._file_name
    conv = ["conv-a", "conv-bb", "", "conv-a", "c\u00e9"]
    turn = [0, 1, 2, 3, 4]
    ts = [10, 20, 30, 40, 50]
    t = _keyed_table(conv, turn, ts)
    base = name(t)
    assert base.startswith("batch-") and base.endswith(".parquet")

    big = _keyed_table(["x", "yy"] + conv + ["zzz"], [7, 8] + turn + [9],
                       [1, 2] + ts + [3])
    assert name(big.slice(2, len(conv))) == base
    two_chunks = pa.concat_tables([t.slice(0, 2), t.slice(2)])
    assert two_chunks.column("conv_id").num_chunks == 2
    assert name(two_chunks) == base
    assert name(t, "jsonl") == base[: -len("parquet")] + "jsonl"

    assert name(_keyed_table(["conv-a", "conv-bc", "", "conv-a", "c\u00e9"],
                             turn, ts)) != base
    assert name(_keyed_table(conv, [0, 1, 2, 3, 5], ts)) != base
    assert name(_keyed_table(conv, turn, [10, 20, 30, 41, 50])) != base
    with_null = _keyed_table(["a", None, "b"], [0, 1, 2], [0, 0, 0])
    with_empty = _keyed_table(["a", "", "b"], [0, 1, 2], [0, 0, 0])
    assert name(with_null) != name(with_empty)


def test_blocks_without_key_columns_write_distinct_sink_files(tmp_path):
    """Two blocks with the same row count and none of conv_id, turn_idx
    and ts are named from all their columns, so neither overwrites the
    other and both blocks' rows read back."""
    from fluent_plugin_geoip_ray.pipelines.flagship import FanoutWrite
    from fluent_plugin_geoip_ray.stages.route import RouteSpec

    sink = str(tmp_path / "sink")
    fw = FanoutWrite([RouteSpec(name="all", sink=sink)])
    b1 = pa.table({"tag": ["app.a", "app.b"], "msg": ["x", "y"]})
    b2 = pa.table({"tag": ["app.a", "app.b"], "msg": ["x", "z"]})
    fw(b1)
    fw(b2)
    files = glob.glob(os.path.join(sink, "part=*", "*.parquet"))
    rows = [r for f in files for r in pq.read_table(f).to_pylist()]
    key = lambda r: (r["tag"], r["msg"])  # noqa: E731
    assert sorted(rows, key=key) == sorted(b1.to_pylist() + b2.to_pylist(),
                                           key=key)


def test_json_sink_under_dir_named_parquet(tmp_path):
    """ndjson files get their own extension; a ``.parquet`` in the sink
    directory's name is left alone."""
    import json

    from fluent_plugin_geoip_ray.pipelines.flagship import FanoutWrite
    from fluent_plugin_geoip_ray.stages.route import RouteSpec

    sink = str(tmp_path / "x.parquet")
    batch = _keyed_table(["a", "b"], [0, 1], [0, 1_000_000]).append_column(
        "tag", pa.array(["transcripts.user", "transcripts.tool"]))
    FanoutWrite([RouteSpec(name="j", sink=sink, sink_format="json")])(batch)
    files = glob.glob(os.path.join(sink, "part=*", "*"))
    assert len(files) == 1 and files[0].endswith(".jsonl")
    assert os.path.basename(files[0]).startswith("batch-")
    rows = [json.loads(line) for line in open(files[0])]
    assert [r["conv_id"] for r in rows] == ["a", "b"]
    assert [r["tag"] for r in rows] == ["transcripts.user", "transcripts.tool"]


def test_multi_partition_resume():
    """3 partitions; one loses its manifest (crash) -> only that one re-runs."""
    import shutil
    import tempfile

    files = transcript_files(0.01)  # 4 part files at sf0.01
    assert len(files) >= 3
    out_dir = tempfile.mkdtemp(prefix="graft_multipart_")
    try:
        r1 = run_partitioned(files, out_dir, files_per_partition=2)
        n_parts = len(r1["ran"])
        assert n_parts >= 2
        os.remove(os.path.join(out_dir, "_manifests", "part-000001.json"))
        r2 = run_partitioned(files, out_dir, files_per_partition=2)
        assert r2["ran"] == [1]
        assert sorted(r2["skipped"] + r2["ran"]) == sorted(r1["ran"])
        total = sum(
            pq.read_table(f).num_rows
            for f in glob.glob(os.path.join(out_dir, "raw", "part=*", "*.parquet"))
        )
        assert total == sum(pq.read_table(f).num_rows for f in files)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def test_json_sink_format(sf_path, tmp_path):
    """Routes can sink ndjson lines (the Elasticsearch-shaped consumer)."""
    import json

    from fluent_plugin_geoip_ray.pipelines.flagship import run_flagship
    from fluent_plugin_geoip_ray.stages.route import RouteSpec

    out = str(tmp_path / "json_out")
    routes = [
        RouteSpec(name="j", match="transcripts.**", sink=os.path.join(out, "j"),
                  sink_format="json", skip_adding_null_record=True),
    ]
    run_flagship(sf_path, out_dir=out, routes=routes)
    files = glob.glob(os.path.join(out, "j", "part=*", "*.jsonl"))
    assert files
    row = json.loads(open(files[0]).readline())
    assert row["city"] and row["country_code"]


def test_read_aggregates_merge_on_read(sf_path, tmp_path):
    from fluent_plugin_geoip_ray.pipelines.flagship import read_aggregates, run_flagship

    out = str(tmp_path / "mor")
    stats = run_flagship(sf_path, out_dir=out)  # conv partials -> agg_partials
    merged = read_aggregates(os.path.join(out, "agg_partials"))
    # schema and rows: one group_by over every partial file
    from fluent_plugin_geoip_ray.pipelines.flagship import FanoutWrite

    assert merged.schema == FanoutWrite.STATS_SCHEMA
    files = glob.glob(os.path.join(out, "agg_partials", "part=*", "agg-*.parquet"))
    assert _canon_counts(merged).equals(_canon_counts(
        pa.concat_tables([pq.read_table(f) for f in files])))
    conv = merged.filter(
        pc.and_(pc.equal(merged["kind"], "conv_id"), pc.equal(merged["route"], "raw"))
    )
    assert pc.sum(conv["n"]).as_py() == total_rows(sf_path)
    # country counts agree between the driver-merged stats and merge-on-read
    for r in stats.to_pylist():
        if r["kind"] == "country_code" and r["route"] == "enriched":
            m = merged.filter(
                pc.and_(
                    pc.and_(pc.equal(merged["kind"], "country_code"),
                            pc.equal(merged["route"], "enriched")),
                    pc.equal(merged["key"], r["key"]),
                )
            )
            assert pc.sum(m["n"]).as_py() == r["n"]


def test_incremental_ingest_appends_only_new_partition():
    """Continuous-ingest shape: after a completed run, newly-arrived input
    files become NEW partitions; re-running processes only those (existing
    partitions skipped via their manifests)."""
    import shutil
    import tempfile

    files = transcript_files(0.01)
    assert len(files) >= 3
    out_dir = tempfile.mkdtemp(prefix="graft_incr_")
    try:
        first = files[:-1]
        r1 = run_partitioned(first, out_dir, files_per_partition=1)
        assert len(r1["ran"]) == len(first)
        # a "new" file arrives
        r2 = run_partitioned(files, out_dir, files_per_partition=1)
        assert r2["ran"] == [len(files) - 1]
        assert sorted(r2["skipped"]) == list(range(len(first)))
        total = sum(
            pq.read_table(f).num_rows
            for f in glob.glob(os.path.join(out_dir, "raw", "part=*", "*.parquet"))
        )
        assert total == sum(pq.read_table(f).num_rows for f in files)
        # aggregates include the new partition
        agg = r2["aggregates"]
        rows_out = agg.filter(
            pc.and_(pc.equal(agg["route"], "raw"), pc.equal(agg["kind"], "rows"))
        )
        assert pc.sum(rows_out["n"]).as_py() == total
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def test_fanout_idempotent_under_real_ray_retry(sf_path, tmp_path):
    """Inject a genuine task failure AFTER sink files are written: Ray
    retries the task, the deterministic file names make the retry overwrite
    its own files, and total sink rows stay exact (no dupes, no loss)."""
    import ray
    import ray.data as rd

    from fluent_plugin_geoip_ray.pipelines.flagship import (
        FanoutWrite,
        build_enriched,
        canonical_routes,
    )

    out = str(tmp_path / "retrysink")
    marker = str(tmp_path / "crashed_once")
    routes = canonical_routes(out)

    def crashy(batch):
        fw = FanoutWrite(routes)
        result = fw(batch)  # files written BEFORE the crash
        if not os.path.exists(marker):
            open(marker, "w").write("x")
            os._exit(1)  # hard worker death -> Ray retries the task
        return result

    total = total_rows(sf_path)
    enriched = build_enriched(rd.read_parquet(sf_path))
    stats = enriched.map_batches(
        crashy, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=total,
    ).to_pandas()
    assert os.path.exists(marker)  # the failure really happened
    sink_rows = sum(
        pq.read_table(f).num_rows
        for f in glob.glob(os.path.join(out, "raw", "part=*", "*.parquet"))
    )
    assert sink_rows == total


def test_flagship_with_file_uri_sinks(sf_path, tmp_path):
    """Round-2 VERDICT item #8: sinks/aggregate side-outputs/manifests accept
    scheme:// URIs (fsio.py resolves via pyarrow.fs) -- the flagship run over
    a file:// out_dir produces byte-identical sink content to the plain-path
    run."""
    plain_dir = str(tmp_path / "plain")
    uri_dir = "file://" + str(tmp_path / "uri")
    s_plain = run_flagship(sf_path, out_dir=plain_dir)
    s_uri = run_flagship(sf_path, out_dir=uri_dir)

    def canon(stats):
        return stats.sort_by([("route", "ascending"), ("kind", "ascending"),
                              ("key", "ascending")])

    assert canon(s_plain).equals(canon(s_uri))
    a = read_sink(plain_dir, "enriched").sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    b = read_sink(str(tmp_path / "uri"), "enriched").sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert a.equals(b)


def test_partitioned_resume_with_file_uri(sf_path, tmp_path):
    """Partitioned run + resume over a file:// out_dir: manifests commit,
    resume skips everything, aggregates identical."""
    out_uri = "file://" + str(tmp_path / "out")
    r1 = run_partitioned(transcript_files(0.001), out_uri)
    assert r1["ran"] and not r1["skipped"]
    r2 = run_partitioned(transcript_files(0.001), out_uri)
    assert not r2["ran"] and r2["skipped"] == r1["ran"]
    agg1 = r1["aggregates"].sort_by(
        [("route", "ascending"), ("kind", "ascending"), ("key", "ascending")])
    agg2 = r2["aggregates"].sort_by(
        [("route", "ascending"), ("kind", "ascending"), ("key", "ascending")])
    assert agg1.equals(agg2)
    # manifests + aggregates landed under the resolved local dir
    base = str(tmp_path / "out")
    assert sorted(os.listdir(os.path.join(base, "_manifests")))
    assert os.path.exists(os.path.join(base, "aggregates.parquet"))


def test_hive_partitioned_write_and_pruned_read(tmp_path):
    """The generic 100 TB output layout: hive-partitioned parquet by a
    key column, read back with partition pruning (only the requested
    directory's files are touched) -- resumable, prunable sinks beyond
    the flagship's route-partitioned writer."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    t = pa.table({
        "lang": pa.array(["en", "de", "en", "fr", "de", "en"]),
        "doc_id": pa.array(range(6), pa.int64()),
        "n": pa.array([10, 20, 30, 40, 50, 60], pa.int64()),
    })
    out = str(tmp_path / "bylang")
    rd.from_arrow(t).write_parquet(out, partition_cols=["lang"])
    import os
    dirs = sorted(d for d in os.listdir(out) if d.startswith("lang="))
    assert dirs == ["lang=de", "lang=en", "lang=fr"]
    # pruned read: only the en partition directory
    en = rd.read_parquet(os.path.join(out, "lang=en")).to_pandas()
    assert sorted(en["doc_id"]) == [0, 2, 5]
    # full read restores the partition column from the path
    full = rd.read_parquet(out).to_pandas()
    assert len(full) == 6 and set(full["lang"]) == {"en", "de", "fr"}


def test_compact_sink_preserves_rows(sf_path, tmp_path):
    """Small-file compaction: per-partition batch files merge into few
    compact files with exact row preservation; re-running is idempotent."""
    import glob

    from fluent_plugin_geoip_ray.pipelines.flagship import (
        compact_sink,
        run_flagship,
    )

    out = str(tmp_path / "compact_out")
    run_flagship(sf_path, out_dir=out)
    raw = os.path.join(out, "raw")
    before_files = glob.glob(os.path.join(raw, "part=*", "batch-*.parquet"))
    assert before_files
    rows_before = sum(pq.read_table(f).num_rows for f in before_files)

    report = compact_sink(raw, target_rows_per_file=10_000_000)
    after = glob.glob(os.path.join(raw, "part=*", "*.parquet"))
    assert all(os.path.basename(f).startswith("compact-") for f in after)
    assert len(after) < len(before_files) or len(before_files) == 1
    assert sum(pq.read_table(f).num_rows for f in after) == rows_before
    assert sum(r["rows"] for r in report.values()) == rows_before

    # idempotent: a second run keeps rows and file count stable
    report2 = compact_sink(raw, target_rows_per_file=10_000_000)
    after2 = glob.glob(os.path.join(raw, "part=*", "*.parquet"))
    assert sum(pq.read_table(f).num_rows for f in after2) == rows_before
    assert len(after2) == len(after)


def _partition_rows(part):
    from fluent_plugin_geoip_ray.pipelines.flagship import partition_live_files

    lc, lb, _ = partition_live_files(part)
    return sum(pq.read_table(f).num_rows for f in lc + lb)


def test_compact_sink_crash_before_commit_is_invisible(sf_path, tmp_path):
    """A compaction that crashes BEFORE its manifest commit leaves
    uncommitted compact-g* files; the committed view must ignore them
    (no double rows) and a re-run must converge."""
    import shutil

    from fluent_plugin_geoip_ray.pipelines.flagship import (
        compact_sink,
        partition_live_files,
    )

    out = str(tmp_path / "crash1")
    run_flagship(sf_path, out_dir=out)
    raw = os.path.join(out, "raw")
    parts = sorted(glob.glob(os.path.join(raw, "part=*")))
    assert parts
    part = parts[0]
    rows = _partition_rows(part)

    # simulate the crash: a full-content compact-g file exists but no
    # manifest was ever committed
    batch = sorted(glob.glob(os.path.join(part, "batch-*.parquet")))
    merged = pa.concat_tables([pq.read_table(f) for f in batch])
    pq.write_table(merged, os.path.join(part, "compact-g0000-00000.parquet"))

    lc, lb, man = partition_live_files(part)
    assert man is None and lc == [] and len(lb) == len(batch)
    assert _partition_rows(part) == rows  # stray gen file invisible

    report = compact_sink(raw, target_rows_per_file=10_000_000)
    assert _partition_rows(part) == rows
    # the stray uncommitted file was garbage-collected post-commit
    names = [os.path.basename(f)
             for f in glob.glob(os.path.join(part, "compact-*.parquet"))]
    assert "compact-g0000-00000.parquet" not in names
    assert sum(r["rows"] for r in report.values()) >= rows


def test_compact_sink_crash_after_commit_excludes_absorbed(sf_path, tmp_path):
    """A crash AFTER the manifest commit but BEFORE cleanup leaves both the
    new compact files and the absorbed batch files on disk; readers and
    re-runs must count each row exactly once."""
    import json

    from fluent_plugin_geoip_ray.pipelines.flagship import (
        _COMPACT_MANIFEST,
        compact_sink,
        partition_live_files,
        read_sink_partition,
    )

    out = str(tmp_path / "crash2")
    run_flagship(sf_path, out_dir=out)
    raw = os.path.join(out, "raw")
    part = sorted(glob.glob(os.path.join(raw, "part=*")))[0]
    rows = _partition_rows(part)
    batch_before = sorted(glob.glob(os.path.join(part, "batch-*.parquet")))

    compact_sink(raw, target_rows_per_file=10_000_000)
    # resurrect the absorbed batch files (as if cleanup never ran)
    man = json.load(open(os.path.join(part, _COMPACT_MANIFEST)))
    lc, _, _ = partition_live_files(part)
    src = pq.read_table(lc)
    for name in man["absorbed"]:
        pq.write_table(src.slice(0, 1), os.path.join(part, name))

    # committed view excludes them: exactly-once rows
    assert _partition_rows(part) == rows
    assert read_sink_partition(part).count() == rows

    # re-run converges: skip (nothing new) but the duplicates stay excluded
    compact_sink(raw, target_rows_per_file=10_000_000)
    assert _partition_rows(part) == rows


def test_compact_sink_parallel_covers_all_partitions(sf_path, tmp_path):
    """compact_sink compacts every partition concurrently (one Ray task
    each) with the same per-partition results as a serial in-process loop
    over the partitions (the referee)."""
    from fluent_plugin_geoip_ray.pipelines.flagship import (
        _compact_one_partition,
        compact_sink,
    )

    out_a = str(tmp_path / "par")
    out_b = str(tmp_path / "ser")
    run_flagship(sf_path, out_dir=out_a)
    run_flagship(sf_path, out_dir=out_b)

    rep_par = compact_sink(os.path.join(out_a, "raw"),
                           target_rows_per_file=10_000_000)
    rep_ser = {}
    for part in sorted(glob.glob(os.path.join(out_b, "raw", "part=*"))):
        rep_ser.update(_compact_one_partition(part, 10_000_000))
    assert set(rep_par) == set(rep_ser) and len(rep_par) >= 1
    for k in rep_par:
        assert rep_par[k]["rows"] == rep_ser[k]["rows"]
        assert rep_par[k]["files_after"] == rep_ser[k]["files_after"]


def test_compact_sink_skip_path_gcs_leaked_files(sf_path, tmp_path):
    """A crash between the manifest commit and cleanup leaves absorbed
    batch files, superseded compact files, and stray tmps on disk; the
    next run takes the skip path (nothing to merge) and must still GC
    them (regression: skip path returned early, leaking forever)."""
    import json

    from fluent_plugin_geoip_ray.pipelines.flagship import (
        _COMPACT_MANIFEST,
        compact_sink,
        partition_live_files,
    )

    out = str(tmp_path / "crash3")
    run_flagship(sf_path, out_dir=out)
    raw = os.path.join(out, "raw")
    part = sorted(glob.glob(os.path.join(raw, "part=*")))[0]
    rows = _partition_rows(part)

    compact_sink(raw, target_rows_per_file=10_000_000)
    # simulate crash-before-cleanup debris: absorbed batch files back on
    # disk, a compact file from a superseded generation, a stray tmp
    man = json.load(open(os.path.join(part, _COMPACT_MANIFEST)))
    lc, _, _ = partition_live_files(part)
    src = pq.read_table(lc)
    for name in man["absorbed"]:
        pq.write_table(src.slice(0, 1), os.path.join(part, name))
    stale = os.path.join(part, "compact-g0099-00000.parquet")
    pq.write_table(src.slice(0, 1), stale)
    tmp = os.path.join(part, "_compact-g0099-00001.tmp")
    open(tmp, "w").close()

    report = compact_sink(raw, target_rows_per_file=10_000_000)
    base = os.path.basename(part)
    assert report[base]["skipped"] is True
    assert report[base]["gc_removed"] == len(man["absorbed"]) + 2
    assert not glob.glob(os.path.join(part, "batch-*.parquet"))
    assert not os.path.exists(stale) and not os.path.exists(tmp)
    assert _partition_rows(part) == rows

    # and once clean, re-running GCs nothing
    report2 = compact_sink(raw, target_rows_per_file=10_000_000)
    assert report2[base]["gc_removed"] == 0


# -- the read plan (sources.transcripts.read_input) ----------------------------

def _write_parts(table, out_dir, n_files):
    """``table`` cut into ``n_files`` parquet files under ``out_dir``."""
    os.makedirs(out_dir)
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step),
                       os.path.join(out_dir, f"part-{i:05d}.parquet"))
    return out_dir


def _operators(stats: str) -> list[tuple[str, int, int]]:
    """``(name, tasks, blocks)`` per operator line of ``Dataset.stats()``."""
    import re

    return [(m.group(1), int(m.group(2)), int(m.group(3))) for m in re.finditer(
        r"^Operator \d+ (\S+): (\d+) tasks executed, (\d+) blocks produced",
        stats, re.M)]


def test_read_plan_fuses_one_task_per_file(tmp_path):
    """With at least one file per CPU, read -> parse -> enrich is one fused
    operator: no SplitBlocks, one task and one block per file."""
    from fluent_plugin_geoip_ray.pipelines.flagship import build_enriched
    from fluent_plugin_geoip_ray.sources.transcripts import (
        build_transcripts_table,
        read_input,
    )
    from fluent_plugin_geoip_ray.stages.exchange import cluster_cpus

    n = cluster_cpus() + 2
    src = _write_parts(build_transcripts_table(0.001), str(tmp_path / "in"), n)
    ds = build_enriched(read_input(src)).materialize()
    ops = _operators(ds.stats())
    assert len(ops) == 1, ops
    name, tasks, blocks = ops[0]
    assert name.startswith("ReadParquet->MapBatches(") and "SplitBlocks" not in name
    assert (tasks, blocks, ds.num_blocks()) == (n, n, n)


def test_read_plan_many_small_files_stay_within_ray_default(tmp_path):
    """40 ten-row files: no more read tasks than Ray's own plan (2 x CPUs
    here: every file is far below ``target_min_block_size``)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.sources.transcripts import read_input
    from fluent_plugin_geoip_ray.stages.exchange import cluster_cpus

    src = _write_parts(pa.table({"x": pa.array(range(400), pa.int64())}),
                       str(tmp_path / "in"), 40)
    ours = _operators(read_input(src).materialize().stats())
    ray_default = _operators(rd.read_parquet(src).materialize().stats())
    assert ours == ray_default
    assert len(ours) == 1 and ours[0][1] <= 2 * cluster_cpus()


def test_read_plan_multi_mib_input_tracks_ray_parallelism(tmp_path):
    """A ~24 MiB input, where Ray's read parallelism P comes from
    ``mem / target_min_block_size`` rather than from 2 x CPUs: Ray's own
    plan splits each of the n read tasks by ceil(P / n), which pins
    ``_ray_read_parallelism`` to Ray's rule; read_input reads n unsplit
    blocks instead."""
    import math

    import numpy as np
    import ray.data as rd
    from ray.data import DataContext

    from fluent_plugin_geoip_ray.sources.transcripts import (
        _ray_read_parallelism,
        read_input,
    )
    from fluent_plugin_geoip_ray.stages.exchange import cluster_cpus

    rng = np.random.default_rng(5)
    cols = {c: rng.integers(0, 1 << 62, 1 << 20) for c in ("a", "b", "c")}
    cpus = cluster_cpus()
    n = cpus + 1
    src = _write_parts(pa.table(cols), str(tmp_path / "in"), n)
    lazy = rd.read_parquet(src)
    p = _ray_read_parallelism(lazy, cpus)
    assert p == int(lazy.size_bytes() / DataContext.get_current().target_min_block_size)
    assert p > max(2 * cpus, n)

    (name, tasks, blocks), = _operators(lazy.materialize().stats())
    assert name == f"ReadParquet->SplitBlocks({math.ceil(p / n)})"
    assert tasks == n
    (name, tasks, blocks), = _operators(read_input(src).materialize().stats())
    assert (name, tasks, blocks) == ("ReadParquet", n, n)


def test_read_plan_single_file_reads_one_unsplit_block(tmp_path):
    """One file, so fewer files than CPUs on any cluster of 2 or more:
    Ray's plan splits the read (P >= 2 x CPUs) and runs the maps after
    it as a second operator; read_input reads one unsplit block."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.sources.transcripts import read_input

    src = _write_parts(pa.table({"x": pa.array(range(400), pa.int64())}),
                       str(tmp_path / "in"), 1)
    (name, tasks, blocks), = _operators(rd.read_parquet(src).materialize().stats())
    assert "SplitBlocks" in name and tasks == 1 and blocks > 1
    ds = read_input(src).materialize()
    assert _operators(ds.stats()) == [("ReadParquet", 1, 1)]


def test_flagship_read_plan_parity_with_ray_default(sf_path, tmp_path, monkeypatch):
    """Referee: run_flagship through ``read_input`` and through Ray's
    default plan (plain ``read_parquet``) gives equal stats, the same
    multiset of rows in every route's sink, and the same merged
    ``agg_partials``; only the number of sink files differs."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.pipelines import flagship
    from fluent_plugin_geoip_ray.pipelines.flagship import read_aggregates

    def canon(stats):
        return stats.sort_by([("route", "ascending"), ("kind", "ascending"),
                              ("key", "ascending")])

    def sink_rows(out, name):
        t = read_sink(out, name)
        return t.sort_by([(c, "ascending") for c in ("conv_id", "turn_idx", "ts")])

    fused_dir, plain_dir = str(tmp_path / "fused"), str(tmp_path / "plain")
    fused = run_flagship(sf_path, out_dir=fused_dir)
    monkeypatch.setattr(flagship, "read_input",
                        lambda paths, **kw: rd.read_parquet(paths, **kw))
    plain = run_flagship(sf_path, out_dir=plain_dir)

    assert canon(fused).equals(canon(plain))
    src = pq.read_table(sf_path)
    assert len(src.group_by(["conv_id", "turn_idx"]).aggregate([])) == src.num_rows
    for name in ("raw", "enriched"):
        assert sink_rows(fused_dir, name).equals(sink_rows(plain_dir, name)), name
    assert canon(read_aggregates(os.path.join(fused_dir, "agg_partials"))).equals(
        canon(read_aggregates(os.path.join(plain_dir, "agg_partials"))))

    def n_files(out):
        return len(glob.glob(os.path.join(out, "*", "part=*", "*.parquet")))

    assert n_files(fused_dir) < n_files(plain_dir)


# -- FanoutWrite counts from codes, against per-route group_by partials --------

def _referee_partials(routes, batch):
    """Referee: every route's ``apply``, then one ``Table.group_by`` count
    per count key on the routed rows (the per-route partials FanoutWrite
    computed before it counted from one dictionary encode per block)."""
    from fluent_plugin_geoip_ray.pipelines.flagship import _AGG_KEYS, FanoutWrite

    parts = []
    for route in routes:
        routed = route.apply(batch)
        parts.append(pa.table({"route": [route.name], "kind": ["rows"], "key": [""],
                               "n": [routed.num_rows]}, schema=FanoutWrite.STATS_SCHEMA))
        for col in _AGG_KEYS:
            if col not in routed.column_names:
                continue
            g = routed.group_by(col).aggregate([([], "count_all")])
            keys = g.column(col).combine_chunks()
            if not pa.types.is_string(keys.type):
                keys = keys.cast(pa.string())
            parts.append(pa.table({
                "route": pa.array([route.name] * g.num_rows, pa.string()),
                "kind": pa.array([col] * g.num_rows, pa.string()),
                "key": keys,
                "n": g.column("count_all").cast(pa.int64()),
            }, schema=FanoutWrite.STATS_SCHEMA))
    return pa.concat_tables(parts)


def _sorted_stats(t):
    return t.sort_by([("route", "ascending"), ("kind", "ascending"),
                      ("key", "ascending")]).combine_chunks()


def _fanout_blocks():
    """Blocks that reach each count and routing corner: NULL and "" string
    conv_ids, an int64 conv_id, a float country key with NaN, -0.0, 0.0
    and NULL, NULL tags and gate values, a 0-row and a two-chunk block."""
    n = 9
    base = {
        "turn_idx": pa.array(range(n), pa.int32()),
        "ts": pa.array(range(0, 10 * n, 10), pa.timestamp("us")),
        "text": pa.array([f"t{i}" for i in range(n)]),
    }
    strings = pa.table({
        "tag": pa.array(["a.x", None, "a.y", "b.x", "a.x", "a.y", None, "b.y", "a.x"]),
        "conv_id": pa.array([None, "", "c1", "c1", None, "", "c2", "c2", "c1"]),
        "country_code": pa.array(["US", None, "DE", "US", "", None, "DE", "FR", "US"]),
        "geoip_enriched": pa.array([True, None, False, True, True, None, True, False, True]),
        **base,
    })
    numbers = pa.table({
        "tag": pa.array(["a.x"] * n),
        "conv_id": pa.array([7, 7, -1, 2**40, 7, -1, 0, 0, 2**40], pa.int64()),
        "country_code": pa.array([float("nan"), -0.0, 0.0, None, 1.5, float("nan"),
                                  -0.0, None, 0.0], pa.float64()),
        "geoip_enriched": pa.array([True] * n),
        **base,
    })
    two_chunks = pa.concat_tables([strings.slice(0, 4), strings.slice(4)])
    assert two_chunks.column("conv_id").num_chunks == 2
    return {"strings": strings, "numbers": numbers, "empty": strings.slice(0, 0),
            "two_chunks": two_chunks}


def _fanout_routes(sink=None):
    from fluent_plugin_geoip_ray.stages.route import RouteSpec

    def at(name):
        return os.path.join(sink, name) if sink else None

    return [
        RouteSpec(name="all", match="**", add_tag_suffix=".raw", sink=at("all")),
        RouteSpec(name="gated", match="a.**", remove_tag_prefix="a.",
                  add_tag_prefix="e.", skip_adding_null_record=True, sink=at("gated")),
        RouteSpec(name="none", match="zzz.**", sink=at("none")),
    ]


@pytest.mark.parametrize("block", ["strings", "numbers", "empty", "two_chunks"])
def test_fanout_partials_match_group_by_referee(block, tmp_path):
    """FanoutWrite's returned counts and its agg side-output equal the
    per-route group_by referee; with ``agg_dir`` only the driver kinds
    come back."""
    from fluent_plugin_geoip_ray.pipelines.flagship import _DRIVER_KINDS, FanoutWrite

    batch = _fanout_blocks()[block]
    routes = _fanout_routes(str(tmp_path / "sinks"))
    want = _sorted_stats(_referee_partials(routes, batch))
    assert {r.name for r in routes} <= set(want.column("route").to_pylist())

    assert _sorted_stats(FanoutWrite(routes)(batch)).equals(want)

    agg = str(tmp_path / "agg")
    driver = FanoutWrite(routes, agg_dir=agg)(batch)
    drive_want = want.filter(pc.is_in(want.column("kind"),
                                      value_set=pa.array(list(_DRIVER_KINDS))))
    assert _sorted_stats(driver).equals(drive_want)
    files = glob.glob(os.path.join(agg, "part=*", "agg-*.parquet"))
    assert len(files) == 1
    assert _sorted_stats(pq.read_table(files[0])).equals(want)


def test_fanout_same_block_twice_leaves_same_files(tmp_path):
    """Writing one block again (a retried task) rewrites the same names
    with the same rows, for every route and the agg side-output."""
    from fluent_plugin_geoip_ray.pipelines.flagship import FanoutWrite

    out = str(tmp_path / "out")
    fw = FanoutWrite(_fanout_routes(out), agg_dir=os.path.join(out, "agg"))

    def snapshot():
        return {os.path.relpath(f, out): pq.read_table(f)
                for f in glob.glob(os.path.join(out, "*", "part=*", "*.parquet"))}

    blocks = _fanout_blocks()
    fw(blocks["strings"])
    first = snapshot()
    assert {k.split(os.sep)[0] for k in first} == {"all", "gated", "agg"}
    fw(blocks["two_chunks"])  # the same rows in two chunks: the same block
    fw(blocks["strings"])
    again = snapshot()
    assert sorted(again) == sorted(first)
    for name, table in first.items():
        assert again[name].equals(table), name


def test_fanout_routes_sharing_one_sink_keep_both_files(tmp_path):
    """Two routes that pass the same rows into one sink directory write
    two files (names come from the block digest and the route name)."""
    from fluent_plugin_geoip_ray.pipelines.flagship import FanoutWrite
    from fluent_plugin_geoip_ray.stages.route import RouteSpec

    sink = str(tmp_path / "shared")
    routes = [RouteSpec(name="r1", sink=sink),
              RouteSpec(name="r2", add_tag_suffix=".copy", sink=sink)]
    batch = _keyed_table(["a", "b"], [0, 1], [0, 1]).append_column(
        "tag", pa.array(["t.a", "t.b"]))
    stats = FanoutWrite(routes)(batch)
    rows = {r["route"]: r["n"] for r in stats.to_pylist() if r["kind"] == "rows"}
    assert rows == {"r1": 2, "r2": 2}
    files = glob.glob(os.path.join(sink, "part=*", "*.parquet"))
    assert len(files) == 2
    back = pa.concat_tables([pq.read_table(f) for f in files])
    assert back.num_rows == 4
    assert sorted(back.column("tag").to_pylist()) == ["t.a", "t.a.copy", "t.b", "t.b.copy"]


# -- read_input builds one parquet datasource per call --------------------------

def _count_datasources(monkeypatch):
    """Count Ray parquet datasource constructions (each one lists the
    fragments and runs Ray's encoding-ratio sample tasks)."""
    import ray.data.read_api as read_api

    built = []

    class Counting(read_api.ParquetDatasource):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(read_api, "ParquetDatasource", Counting)
    return built


def _many_mib_parts(out_dir, n_files):
    import numpy as np

    rng = np.random.default_rng(5)
    cols = {c: rng.integers(0, 1 << 62, 1 << 20) for c in ("a", "b", "c")}
    return _write_parts(pa.table(cols), out_dir, n_files)


@pytest.mark.parametrize("case", ["fewer_than_2c", "between_2c_and_p", "at_least_p"])
def test_read_input_builds_one_datasource(case, tmp_path, monkeypatch):
    """One parquet datasource per ``read_input`` call for ``n < 2·C``,
    ``2·C <= n < P`` and ``n >= P``; the plan is the one-task-per-file
    read below P and Ray's own at or above it."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.sources.transcripts import (
        _ray_read_parallelism,
        read_input,
    )
    from fluent_plugin_geoip_ray.stages.exchange import cluster_cpus

    cpus = cluster_cpus()
    src = str(tmp_path / "in")
    if case == "fewer_than_2c":
        n = 1
        _write_parts(pa.table({"x": pa.array(range(400), pa.int64())}), src, n)
    elif case == "between_2c_and_p":
        n = 2 * cpus + 1
        _many_mib_parts(src, n)
    else:
        n = 2 * cpus + 3
        _write_parts(pa.table({"x": pa.array(range(400), pa.int64())}), src, n)
    p = _ray_read_parallelism(rd.read_parquet(src), cpus)
    assert (n < p) == (case != "at_least_p") and (n < 2 * cpus) == (case == "fewer_than_2c")

    built = _count_datasources(monkeypatch)
    ds = read_input(src)
    assert len(built) == 1
    ops = _operators(ds.materialize().stats())
    if n < p:
        assert ops == [("ReadParquet", n, n)]
    else:
        assert ops == _operators(rd.read_parquet(src).materialize().stats())
