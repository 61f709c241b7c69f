"""Benchmark harness (driver contract).

Runs the headline flagship pipeline (parse -> geoip enrich -> route fan-out to
parquet sinks -> per-sink aggregates) over transcripts at the scale factor of
``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) and prints ONE JSON line.

``--scaling`` runs the identical job in two fresh processes at
``num_cpus=8`` and ``num_cpus=32`` on the same input and reports both
throughputs plus scaling efficiency = (T32/T8)/4 (sandbox evidence for the
north_rule's N->4N cluster criterion; see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time


def run_bench() -> dict:
    import ray

    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from fluent_plugin_geoip_ray.sources.transcripts import (
        ensure_for_sf_dir,
        sf_from_dir,
    )

    path = ensure_for_sf_dir(sf_dir)  # generate before timing
    # warm the page cache so we measure compute+shuffle, not first disk read
    for name in os.listdir(path):
        if name.endswith(".parquet"):
            with open(os.path.join(path, name), "rb") as f:
                while f.read(1 << 24):
                    pass

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # measured wins on this workload (BASELINE.md): operator resource
    # reservation leaves ~40-60% of CPUs idle on a 2-operator chain, and the
    # default >=200-block read split triples per-batch fixed cost
    ctx.op_resource_reservation_enabled = False
    ctx.read_op_min_num_blocks = 32

    from fluent_plugin_geoip_ray.pipelines.flagship import (
        build_enriched,
        heavy_record_spec,
        run_flagship,
    )
    from fluent_plugin_geoip_ray.stages.aggregate import count_by

    import ray.data as rd

    queries = {}
    rows = None

    if os.environ.get("GRAFT_BENCH_MODE") == "heavy":
        # Compute-bound scaling probe: heavy_record_spec = 3 regex
        # extractions over text + ~21 template fields per row, consumed by a
        # tiny aggregate (no sinks) -- per-core CPU work dominates DRAM
        # traffic and disk, so throughput tracks cores (BASELINE.md scaling
        # section).  Same warm-up protocol as the full bench.
        def heavy_once():
            enr = build_enriched(
                rd.read_parquet(path),
                record_spec=heavy_record_spec(),
            )
            return count_by(enr, "country_code").to_pandas()

        heavy_once()  # warm-up
        t0 = time.perf_counter()
        agg = heavy_once()
        heavy_sec = time.perf_counter() - t0
        rows = int(agg["n"].sum())
        ray.shutdown()
        return {
            "metric": "heavy_enrich_sec",
            "value": round(heavy_sec, 3),
            "unit": "sec",
            "queries": {"heavy_enrich": round(heavy_sec, 3)},
            "sf": sf_from_dir(sf_dir),
            "num_cpus": num_cpus,
            "rows": rows,
            "turns_per_sec": round(rows / heavy_sec, 1),
        }

    # Sinks go to tmpfs when available: on a real N-node cluster aggregate
    # sink bandwidth scales with nodes; a single local disk does not, so
    # disk-backed /tmp would measure the sandbox's one spindle, not the
    # engine. (Pipeline semantics are identical either way.)
    sink_root = "/dev/shm" if os.path.isdir("/dev/shm") else None
    out_dir = tempfile.mkdtemp(prefix="graft_bench_", dir=sink_root)

    class _FlagshipOnly(Exception):
        pass

    try:
        # warm-up execution: spawns Ray workers and imports the package in
        # every worker once, so the timed run measures pipeline
        # throughput (what scales with CPUs), not process cold-start (which
        # does not). Same protocol at both CPU counts.
        warm_dir = tempfile.mkdtemp(prefix="graft_warm_", dir=sink_root)
        run_flagship(path, out_dir=warm_dir)
        shutil.rmtree(warm_dir, ignore_errors=True)

        # min-of-N per query: this host is multi-tenant with ±2-3x noise
        # spikes; a single sample can catch a neighbor burst (BASELINE.md)
        reps = int(os.environ.get("GRAFT_BENCH_REPS", "2"))

        def timed(name, fn):
            best, result = None, None
            for _ in range(reps):
                t0 = time.perf_counter()
                result = fn()
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            queries[name] = round(best, 3)
            return result

        stats = timed("flagship", lambda: run_flagship(path, out_dir=out_dir))
        import pyarrow.compute as pc

        rows = int(
            pc.sum(
                stats.filter(
                    pc.and_(
                        pc.equal(stats["route"], "raw"),
                        pc.equal(stats["kind"], "rows"),
                    )
                )["n"]
            ).as_py()
        )

        if os.environ.get("GRAFT_BENCH_ONLY") == "flagship":
            raise _FlagshipOnly  # skip secondary queries (scaling children)

        # secondary: enrich-only scan (no sink IO) and aggregate
        timed("enrich_agg_country", lambda: count_by(
            build_enriched(rd.read_parquet(path)),
            "country_code").to_pandas())

        # training-data + window operator timings over the same sf's tables
        from fluent_plugin_geoip_ray.stages.dedup import dedup_exact, dedup_minhash
        from fluent_plugin_geoip_ray.stages.window import tumbling_window

        docs_path = os.path.join(sf_dir, "documents.parquet")
        events_path = os.path.join(sf_dir, "events.parquet")
        if os.path.exists(docs_path):
            timed("dedup_exact_docs",
                  lambda: dedup_exact(rd.read_parquet(docs_path)).count())
            timed("dedup_minhash_docs",
                  lambda: dedup_minhash(rd.read_parquet(docs_path)).count())
        if os.path.exists(events_path):
            timed("tumbling_events", lambda: tumbling_window(
                rd.read_parquet(events_path, columns=["event_type", "value", "ts"]),
                size_sec=3600, keys=["event_type"],
                aggs=[("value", "count", "n")],
            ).count())

            from fluent_plugin_geoip_ray.stages.window import session_windows

            timed("sessions_events", lambda: session_windows(
                rd.read_parquet(events_path,
                                columns=["user_id", "event_id", "ts"]),
                key="user_id", gap_sec=1800, order_tiebreak="event_id",
            ).count())

            from fluent_plugin_geoip_ray.stages.window import rolling_agg

            timed("rolling_events", lambda: rolling_agg(
                rd.read_parquet(events_path,
                                columns=["user_id", "event_id", "ts",
                                         "value"]),
                "user_id", order_by=["ts", "event_id"],
                aggs=[("value", "min", "mv_min"),
                      ("event_id", "sum", "mv_eid"),
                      ("event_id", "avg", "mv_avg")],
                window=5).count())

        if os.path.exists(docs_path):
            import __ray_entry__ as entrymod

            timed("curation_docs",
                  lambda: entrymod.q_curation(sf_dir).count())
            timed("dedup_ngram_docs",
                  lambda: entrymod.q_dedup_ngram(sf_dir).count())
            timed("decontaminate_docs",
                  lambda: entrymod.q_decontaminate(sf_dir).count())
            timed("dedup_lines_docs",
                  lambda: entrymod.q_dedup_lines(sf_dir).count())
            timed("dedup_spans_docs",
                  lambda: entrymod.q_dedup_spans(sf_dir).count())
            timed("range_join_big_events",
                  lambda: entrymod.q_events_range_big(sf_dir).count())

            from fluent_plugin_geoip_ray.stages.ml import embed_texts

            timed("embed_docs", lambda: embed_texts(
                rd.read_parquet(docs_path, columns=["doc_id", "text"]),
                concurrency=max(2, num_cpus // 4)).count())
            timed("entity_match_docs",
                  lambda: entrymod.q_entity_match(sf_dir).count())

        emb_path = os.path.join(sf_dir, "embeddings.parquet")
        if os.path.exists(emb_path):
            import numpy as np

            from fluent_plugin_geoip_ray.stages.similarity import knn_brute_force

            def knn_once():
                emb = rd.read_parquet(emb_path)
                qrows = emb.filter(expr="vec_id < 8").to_pandas().sort_values("vec_id")
                return knn_brute_force(
                    emb, np.stack(qrows["embedding"].to_numpy()), k=10
                )

            timed("knn_embeddings", knn_once)

            from fluent_plugin_geoip_ray.stages.similarity import semantic_dedup

            timed("semantic_dedup_embeddings", lambda: semantic_dedup(
                rd.read_parquet(emb_path), n_clusters=64).count())
    except _FlagshipOnly:
        pass
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    ray.shutdown()

    sf = sf_from_dir(sf_dir)
    return {
        "metric": "flagship_e2e_sec",
        "value": queries["flagship"],
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": num_cpus,
        "rows": rows,
        "turns_per_sec": round(rows / queries["flagship"], 1) if rows else None,
    }


def run_child(ncpu: int, sf_dir: str | None = None) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
    if sf_dir:
        env["GRAFT_SF_DIR"] = sf_dir
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    if "--scaling-heavy" in sys.argv:
        # children run the compute-bound probe instead of the full bench
        os.environ["GRAFT_BENCH_MODE"] = "heavy"
        sys.argv.append("--scaling")
    if "--scaling" in sys.argv:
        # scaling children measure the flagship only (the extras would just
        # lengthen each child without affecting the efficiency ratio)
        os.environ.setdefault("GRAFT_BENCH_ONLY", "flagship")
        # Scaling efficiency must be measured in the compute-bound regime:
        # at sf0.1 (600k rows ~ a few CPU-seconds of work) fixed per-run
        # overhead dominates and ANY cpu count looks the same. The scaling
        # input defaults to sf1 (6M turns, ~10 CPU-min of pipeline work),
        # identical for both CPU counts; override with GRAFT_SCALING_SF.
        scaling_sf = os.environ.get("GRAFT_SCALING_SF", "1")
        sf_dir = f"/root/testdata/sf{scaling_sf}"  # parsed for the sf number
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from fluent_plugin_geoip_ray.sources.transcripts import ensure_for_sf_dir

        ensure_for_sf_dir(sf_dir)  # generate once before either child runs
        # N -> 4N parallelism pair; override e.g. GRAFT_SCALING_CPUS=2,8.
        # On this single box 8->32 conflates cores with SHARED DRAM bandwidth
        # (each real cluster node brings its own memory controllers), so the
        # low pair keeps both runs inside the box's bandwidth envelope --
        # see BASELINE.md "Scaling".
        pair = os.environ.get("GRAFT_SCALING_CPUS", "8,32").split(",")
        lo, hi = int(pair[0]), int(pair[1])
        repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "2"))
        best: dict[int, dict] = {}
        for _ in range(repeats):
            for ncpu in (lo, hi):
                r = run_child(ncpu, sf_dir)
                if ncpu not in best or r["value"] < best[ncpu]["value"]:
                    best[ncpu] = r
                time.sleep(3)  # let the previous Ray session fully tear down
        r_lo, r_hi = best[lo], best[hi]
        t_lo, t_hi = r_lo["value"], r_hi["value"]
        eff = (t_lo / t_hi) / (hi / lo)
        print(
            json.dumps(
                {
                    "metric": "scaling_efficiency",
                    "value": round(eff, 3),
                    "unit": "ratio",
                    "cpus_lo": lo,
                    "cpus_hi": hi,
                    f"sec_{lo}": t_lo,
                    f"sec_{hi}": t_hi,
                    f"turns_per_sec_{lo}": r_lo.get("turns_per_sec"),
                    f"turns_per_sec_{hi}": r_hi.get("turns_per_sec"),
                    "mode": os.environ.get("GRAFT_BENCH_MODE", "full"),
                    "sf": r_hi.get("sf"),
                }
            )
        )
        return
    print(json.dumps(run_bench()))


if __name__ == "__main__":
    main()
