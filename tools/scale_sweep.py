"""Scale sweep: run the heavy operators at N x the bench inputs.

Replicates the sf0.1 tables K times with shifted ids (documents / events /
embeddings) and runs the operators whose cost is super-linear or
memory-shaped -- exactly the probe that exposed four real scale bugs in
round 2 (unbounded sketch matrices, per-band duplicate verification,
per-key Python sessionization, multi-chunk if_else corruption).

Usage: python tools/scale_sweep.py [K=10] [sf_dir=/root/testdata/sf0.1] [op ...]
Prints one line per operator (all when no op names given); any
traceback = a scale bug.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def replicate(table, id_cols: dict, k: int, parts_per_copy: int = 4):
    """K copies with id columns shifted per copy (distinct keys).

    Returns a LIST of tables (k * parts_per_copy chunks):
    ``ray.data.from_arrow(list)`` makes one block per table, so the sweep
    exercises real block parallelism instead of one serial mega-block."""
    import pyarrow as pa

    parts = []
    for i in range(k):
        t = table
        for col, stride in id_cols.items():
            arr = pa.array(
                t.column(col).to_numpy(zero_copy_only=False) + i * stride
            )
            t = t.set_column(t.column_names.index(col), col, arr)
        step = max(t.num_rows // parts_per_copy, 1)
        for s in range(0, t.num_rows, step):
            parts.append(t.slice(s, step))
    return parts


def _run_incremental(sf_dir: str, docs):
    import os
    import shutil

    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.dedup import (
        build_sketch_index,
        dedup_incremental,
    )

    index_dir = "/tmp/graft_sweep_incr_index"
    shutil.rmtree(index_dir, ignore_errors=True)
    build_sketch_index(
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet")),
        index_dir)
    return dedup_incremental(rd.from_arrow(docs), index_dir).count()


def _run_pq(ds):
    import numpy as np

    from fluent_plugin_geoip_ray.stages.similarity import (
        pq_encode,
        pq_search,
        pq_train,
    )

    books = pq_train(ds, m=8, ksub=16)
    enc = pq_encode(ds, books).materialize()
    q = np.stack(ds.limit(3).to_pandas()["embedding"].to_numpy())
    return pq_search(enc, books, q, k=10).num_rows


def _run_logreg(ds):
    import pyarrow as pa

    from fluent_plugin_geoip_ray.stages.ml import logreg_fit

    def label(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        t = t.append_column("f0", pa.array(v.astype("float64")))
        return t.append_column("y", pa.array((v > 50).astype("int64")))

    labeled = ds.map_batches(label, batch_format="pyarrow",
                             zero_copy_batch=True)
    return len(logreg_fit(labeled, ["f0"], "y", iters=20))


def _run_simjoin(rd, docs):
    import pyarrow as pa
    import pyarrow.compute as pc

    from fluent_plugin_geoip_ray.stages.dedup import similarity_join

    def parity(p):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(
                pc.bit_wise_and(t.column("doc_id"), 1), p))

        return fn

    base = rd.from_arrow(docs)
    left = base.map_batches(parity(0), batch_format="pyarrow",
                            zero_copy_batch=True)
    right = base.map_batches(parity(1), batch_format="pyarrow",
                             zero_copy_batch=True)
    return similarity_join(left, right, threshold=0.5,
                           max_group_pairs=50_000_000).count()


def main() -> int:
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.1"

    import pyarrow.parquet as pq
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_enabled = False
    ctx.read_op_min_num_blocks = 32
    import ray.data as rd

    docs = replicate(pq.read_table(os.path.join(sf_dir, "documents.parquet")),
                     {"doc_id": 10_000_000}, k)
    events = replicate(pq.read_table(os.path.join(sf_dir, "events.parquet")),
                       {"event_id": 100_000_000, "user_id": 10_000_000}, k)
    embs = replicate(pq.read_table(os.path.join(sf_dir, "embeddings.parquet")),
                     {"vec_id": 10_000_000}, k)
    print(f"inputs x{k}: docs={sum(t.num_rows for t in docs)} "
          f"events={sum(t.num_rows for t in events)} "
          f"embeddings={sum(t.num_rows for t in embs)} "
          f"blocks/ds={len(docs)}")

    from fluent_plugin_geoip_ray.stages.aggregate import (
        approx_distinct_by,
        compact_latest,
        groupby_agg,
        quantiles_by,
        top_k_by_group,
    )
    from fluent_plugin_geoip_ray.stages.dedup import (
        dedup_exact,
        dedup_minhash,
        dedup_simhash,
    )
    from fluent_plugin_geoip_ray.stages.similarity import embedding_near_dup
    from fluent_plugin_geoip_ray.stages.window import (
        session_windows,
        sliding_window_counts,
    )

    from fluent_plugin_geoip_ray.stages.dedup import dedup_lines
    from fluent_plugin_geoip_ray.stages.join import range_join_big
    from fluent_plugin_geoip_ray.stages.similarity import semantic_dedup

    def multiline_docs():
        import pyarrow as pa
        import pyarrow.compute as pc

        def to_lines(t: pa.Table) -> pa.Table:
            txt = t.column("text")
            for w in ("join", "hash", "row", "batch"):
                txt = pc.replace_substring(txt, pattern=w, replacement="\n")
            return t.set_column(t.column_names.index("text"), "text", txt)

        return rd.from_arrow(docs).map_batches(
            to_lines, batch_format="pyarrow", zero_copy_batch=True)

    def purchase_intervals():
        import pyarrow as pa
        import pyarrow.compute as pc

        def iv(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t.column("event_type"), "purchase"))
            hi = pc.add(t.column("ts"),
                        pa.scalar(1_800_000_000, type=pa.duration("us")))
            return pa.table({"user_id": t.column("user_id"),
                             "lo": t.column("ts"), "hi": hi})

        return rd.from_arrow(events).map_batches(
            iv, batch_format="pyarrow", zero_copy_batch=True)

    runs = [
        ("dedup_exact", lambda: dedup_exact(rd.from_arrow(docs)).count()),
        # replicated copies share every line -> heavy hot set
        ("dedup_lines", lambda: dedup_lines(
            multiline_docs(), min_docs=5).count()),
        ("dedup_lines_bucketed", lambda: dedup_lines(
            multiline_docs(), min_docs=5, hot_broadcast_limit=0).count()),
        # k copies of every vector -> every row has k-1 exact semantic dups
        ("semantic_dedup", lambda: semantic_dedup(
            rd.from_arrow(embs), n_clusters=64).count()),
        ("range_join_big", lambda: range_join_big(
            rd.from_arrow(events), purchase_intervals(), value_col="ts",
            by="user_id", out_cols={"lo": "purchase_ts"}).count()),
        # increment = the k-replicated corpus vs an index of the base
        # corpus: every replicated doc near-dups history -> maximal drop
        # volume through the lifted-key cluster path
        ("dedup_incremental", lambda: _run_incremental(sf_dir, docs)),
        # k copies of every doc -> EVERY window is hot (occurs >= k times):
        # maximal removal volume through the coverage/rebuild path
        ("dedup_spans", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.dedup", fromlist=["dedup_spans"]
        ).dedup_spans(rd.from_arrow(docs)).count()),
        ("dedup_spans_bucketed", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.dedup", fromlist=["dedup_spans"]
        ).dedup_spans(rd.from_arrow(docs),
                      hot_broadcast_limit=0).count()),
        # k exact copies of every doc: exercises the identity-collapse
        # pass (without it, exact pairwise counting emits ~k^2 the base
        # pair rows -- measured 97 s at k=10; with collapse, reps stay
        # constant and the run is ~3 s). The raised guard covers corpora
        # where NON-identical docs share hot grams.
        ("dedup_ngram", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.dedup", fromlist=["dedup_ngram"]
        ).dedup_ngram(rd.from_arrow(docs),
                      max_group_pairs=50_000_000).count()),
        ("dedup_minhash", lambda: dedup_minhash(rd.from_arrow(docs)).count()),
        ("dedup_simhash", lambda: dedup_simhash(rd.from_arrow(docs)).count()),
        ("embedding_near_dup",
         lambda: embedding_near_dup(rd.from_arrow(embs)).count()),
        ("sessions", lambda: session_windows(
            rd.from_arrow(events), key="user_id", gap_sec=1800,
            order_tiebreak="event_id").count()),
        ("sessions_bucketed", lambda: session_windows(
            rd.from_arrow(events), key="user_id", gap_sec=1800,
            order_tiebreak="event_id", driver_limit=0).count()),
        ("asof_big", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.join", fromlist=["asof_join_big"]
        ).asof_join_big(
            rd.from_arrow(events),
            rd.from_arrow(events).filter(expr="event_type == 'click'")
              .select_columns(["user_id", "ts"]),
            on="ts", by="user_id", right_cols={"ts": "click_ts"}).count()),
        ("sliding", lambda: sliding_window_counts(
            rd.from_arrow(events), keys=["event_type"]).count()),
        ("groupby_user", lambda: groupby_agg(
            rd.from_arrow(events), ["user_id"],
            [("value", "sum", "s"), ("value", "count", "c")]).count()),
        ("topk_per_group", lambda: top_k_by_group(
            rd.from_arrow(events), "user_id", "value", k=2,
            tie_breakers=["event_id"]).count()),
        ("compact", lambda: compact_latest(
            rd.from_arrow(events), "user_id", "ts",
            tie_breakers=["event_id"]).count()),
        ("quantiles_sketch", lambda: quantiles_by(
            rd.from_arrow(events), "event_type", "value",
            mode="sketch").count()),
        ("hll", lambda: approx_distinct_by(
            rd.from_arrow(events), "event_type", "user_id").count()),
        # ---- round-4 operators ----
        ("tfidf", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.text", fromlist=["tfidf"]
        ).tfidf(rd.from_arrow(docs)).count()),
        ("funnel", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.window", fromlist=["funnel"]
        ).funnel(rd.from_arrow(events), "user_id", "ts", "event_type",
                 steps=["view", "click", "purchase"]).count()),
        ("pivot", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.aggregate",
            fromlist=["pivot_counts"]
        ).pivot_counts(rd.from_arrow(events), "user_id", "event_type",
                       values=["click", "view", "purchase"],
                       other="other").count()),
        ("zscore", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.aggregate", fromlist=["zscore_flag"]
        ).zscore_flag(rd.from_arrow(events), "event_type", "value").count()),
        ("distinct", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.aggregate",
            fromlist=["distinct_rows"]
        ).distinct_rows(rd.from_arrow(events),
                        cols=["user_id", "event_type"]).count()),
        # sample-init keeps the sweep to Lloyd's per-round cost (maxmin's
        # k seeding passes are the documented deterministic-init price)
        ("kmeans", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.similarity", fromlist=["kmeans_fit"]
        ).kmeans_fit(rd.from_arrow(embs), k=16, iters=3,
                     init="sample").shape[0]),
        ("sample_k", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.sample", fromlist=["sample_k"]
        ).sample_k(rd.from_arrow(docs), "doc_id", 1000).num_rows),
        ("pq", lambda: _run_pq(rd.from_arrow(embs))),
        ("bpe", lambda: len(__import__(
            "fluent_plugin_geoip_ray.stages.text", fromlist=["train_bpe"]
        ).train_bpe(rd.from_arrow(docs), num_merges=50))),
        ("logreg", lambda: _run_logreg(rd.from_arrow(events))),
        ("similarity_join", lambda: _run_simjoin(rd, docs)),
        # media corpora scale with K directly (decode-bound, actor pool)
        ("dedup_images", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.multimodal",
            fromlist=["dedup_images", "synthesize_image_corpus"]
        ).dedup_images(rd.from_arrow(__import__(
            "fluent_plugin_geoip_ray.stages.multimodal",
            fromlist=["synthesize_image_corpus"]
        ).synthesize_image_corpus(n_base=10 * k)).repartition(8)).count()),
        # ---- round-5 operators ----
        ("embed", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.ml", fromlist=["embed_texts"]
        ).embed_texts(rd.from_arrow(docs), concurrency=8).count()),
        ("dense_2key", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.window",
            fromlist=["dense_tumbling"]
        ).dense_tumbling(rd.from_arrow(events), ts_col="ts", size_sec=3600,
                         keys=["user_id", "event_type"]).count()),
        ("dedup_audio", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.multimodal",
            fromlist=["dedup_audio"]
        ).dedup_audio(rd.from_arrow(__import__(
            "fluent_plugin_geoip_ray.stages.multimodal",
            fromlist=["synthesize_audio_corpus"]
        ).synthesize_audio_corpus(n_base=10 * k)).repartition(8)).count()),
        ("running_agg", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.window",
            fromlist=["running_agg"]
        ).running_agg(rd.from_arrow(events), "user_id",
                      order_by=["ts", "event_id"],
                      aggs=[("value", "sum", "cs"), ("value", "min", "cm"),
                            ("", "row_number", "rn")]).count()),
        ("rolling_agg", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.window",
            fromlist=["rolling_agg"]
        ).rolling_agg(rd.from_arrow(events), "user_id",
                      order_by=["ts", "event_id"],
                      aggs=[("value", "min", "mm"), ("event_id", "sum", "ms"),
                            ("event_id", "avg", "ma")],
                      window=5).count()),
        ("rolling_time_agg", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.window",
            fromlist=["rolling_time_agg"]
        ).rolling_time_agg(rd.from_arrow(events), "user_id", "ts",
                           aggs=[("event_id", "count", "c"),
                                 ("event_id", "sum", "s")],
                           preceding_sec=600).count()),
        ("rank_family", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.window",
            fromlist=["running_agg"]
        ).running_agg(rd.from_arrow(events), "user_id",
                      order_by=["event_type"],
                      aggs=[("", "rank", "r"), ("", "cume_dist", "cd"),
                            ("value", "first_value", "fv")]).count()),
        ("anti_join", lambda: __import__(
            "fluent_plugin_geoip_ray.stages.join", fromlist=["anti_join_big"]
        ).anti_join_big(
            rd.from_arrow(events),
            rd.from_arrow(events).filter(expr="event_type == 'click'")
              .select_columns(["user_id"]),
            on="user_id").count()),
    ]
    only = set(sys.argv[3:])
    if only:
        runs = [(n, f) for n, f in runs if n in only]
    failures = 0
    for name, fn in runs:
        t0 = time.perf_counter()
        try:
            n = fn()
            print(f"{name}: {time.perf_counter() - t0:.2f}s -> {n}")
        except Exception as e:  # noqa: BLE001 - sweep reports, caller triages
            failures += 1
            print(f"{name}: FAIL {type(e).__name__}: {e}")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
