"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash).

Nothing here calls ``ray.init()`` / ``ray.shutdown()``.

Transcript queries run over the deterministic synthetic transcript table
(FIXTURES.md §1, seed=42) generated idempotently under /tmp/graft_data/ --
the oracle SQL reads the very same parquet file via read_parquet(), so both
engines see identical bytes.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from fluent_plugin_geoip_ray.functions.ip import IPV4
from fluent_plugin_geoip_ray.sources.transcripts import (
    ensure_for_sf_dir,
    geo_fixture_path,
    transcripts_path,
)

# the driver compares at sf=0.01; oracle SQL is static so paths are pinned
# (transcripts is a directory of part files -> glob for DuckDB)
_SF01 = 0.01
_T_PATH = transcripts_path(_SF01) + "/*.parquet"
_G_PATH = geo_fixture_path()
import os as _os
_GOLDEN_DIR = _os.path.join(_os.path.dirname(_os.path.abspath(__file__)), "tests", "golden")


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: parse -> enrich -> route
    fan-out to parquet sinks -> per-sink aggregates; returns the merged
    (route, kind, key, n) stats table."""
    import tempfile

    from fluent_plugin_geoip_ray.pipelines.flagship import run_flagship

    path = ensure_for_sf_dir("/root/testdata/sf0.001")
    out_dir = tempfile.mkdtemp(prefix="graft_entry_")
    return run_flagship(path, out_dir=out_dir)


# --------------------------------------------------------------------------
# queries: one entry per implemented operator/pipeline (SURVEY.md §2)
# --------------------------------------------------------------------------

def _transcripts_ds(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(ensure_for_sf_dir(sf_dir))


def _enriched_ds(sf_dir: str, gate: bool = False):
    from fluent_plugin_geoip_ray.pipelines.flagship import build_enriched

    ds = build_enriched(_transcripts_ds(sf_dir))
    if gate:
        import pyarrow.compute as pc

        ds = ds.map_batches(
            lambda t: t.filter(pc.fill_null(t["geoip_enriched"], False)),
            batch_format="pyarrow",
        )
    return ds


_ENRICH_COLS = [
    "conv_id",
    "turn_idx",
    "ip",
    "city",
    "country_code",
    "country_name",
    "region",
    "latitude",
    "longitude",
]


def q_parse_extract(sf_dir: str):
    """P2 analog: vectorized regex extraction of ip/ip2/host from text."""
    from fluent_plugin_geoip_ray.stages.parse import parse_dataset

    ds = parse_dataset(_transcripts_ds(sf_dir))
    return ds.select_columns(["conv_id", "turn_idx", "ip", "ip2", "host"])


def q_enrich(sf_dir: str):
    """P3/P4/P5: geo enrich with the canonical record spec (scalar columns)."""
    return _enriched_ds(sf_dir).select_columns(_ENRICH_COLS)


def q_route_enriched(sf_dir: str):
    """P6 + routing: the gated 'enriched' sink rows with rewritten tag."""
    from fluent_plugin_geoip_ray.pipelines.flagship import canonical_routes
    from fluent_plugin_geoip_ray.stages.route import route_dataset

    route = canonical_routes(None)[0]
    ds = route_dataset(_enriched_ds(sf_dir), route)
    return ds.select_columns(["conv_id", "turn_idx", "tag"] + _ENRICH_COLS[2:])


def q_agg_country(sf_dir: str):
    """[N] per-sink aggregate: enriched-sink counts by country_code."""
    from fluent_plugin_geoip_ray.stages.aggregate import count_by

    return count_by(_enriched_ds(sf_dir, gate=True), "country_code")


def q_agg_conv(sf_dir: str):
    """[N] per-sink aggregate: enriched-sink counts by conv_id."""
    from fluent_plugin_geoip_ray.stages.aggregate import count_by

    return count_by(_enriched_ds(sf_dir, gate=True), "conv_id")


def q_sorted_text(sf_dir: str):
    """[N] ordering/byte-identity: enriched-sink (conv_id, turn_idx, text)."""
    from fluent_plugin_geoip_ray.stages.scan import SortedBlocks

    ds = _enriched_ds(sf_dir, gate=True)
    return SortedBlocks(ds.select_columns(["conv_id", "turn_idx", "text"]),
                        ["conv_id", "turn_idx"]).dataset()


def q_enrich_multi(sf_dir: str):
    """Multiple lookup keys resolve independently (test_filter_geoip.rb:325-362):
    ip (first IPv4), ip2 (second IPv4) and host token each drive their own
    placeholders."""
    from fluent_plugin_geoip_ray.config import RecordSpec
    from fluent_plugin_geoip_ray.pipelines.flagship import build_enriched

    spec = RecordSpec(
        lookup_keys=["ip", "ip2", "host"],
        record={
            "from_country": "${country.iso_code['ip']}",
            "to_country": "${country.iso_code['ip2']}",
            "host_city": "${city.names.en['host']}",
        },
    )
    ds = build_enriched(_transcripts_ds(sf_dir), record_spec=spec)
    return ds.select_columns(
        ["conv_id", "turn_idx", "from_country", "to_country", "host_city"]
    )


def q_enrich_mmdb(sf_dir: str):
    """The MaxMind binary-trie backend path (filter_geoip.rb:215): same
    canonical enrich spec, but lookups go through a real .mmdb file (built
    deterministically from the fixture truth by the spec-based writer in
    state/mmdb.py) instead of the dict backend.  Oracle: identical SQL to
    `enrich` -- same geo truth, different storage engine."""
    from fluent_plugin_geoip_ray.pipelines.flagship import build_enriched
    from fluent_plugin_geoip_ray.sources.transcripts import ensure_mmdb_fixture

    mmdb = ensure_mmdb_fixture()
    ds = build_enriched(
        _transcripts_ds(sf_dir),
        backend_spec={"library": "maxmind", "path": mmdb},
    )
    return ds.select_columns(_ENRICH_COLS)


def q_enrich_dat(sf_dir: str):
    """The LEGACY GeoIP .dat backend path (filter_geoip.rb:204-207 ->
    GeoIP::City; test matrix test_filter_geoip.rb:818-1217): flat 9-key
    legacy placeholders resolved through a REAL City-edition binary trie
    built deterministically from the fixture truth (state/dat.py).  Scalar
    string/int keys only -- lat/lon carry the format's intrinsic 4-decimal
    precision and are round-trip-pinned in pytest instead."""
    from fluent_plugin_geoip_ray.conf import record_spec_from_conf
    from fluent_plugin_geoip_ray.sources.transcripts import DATA_ROOT
    from fluent_plugin_geoip_ray.stages.enrich import enrich_dataset
    from fluent_plugin_geoip_ray.stages.parse import parse_dataset
    from fluent_plugin_geoip_ray.state.dat import ensure_fixture_dat

    dat = ensure_fixture_dat(
        _os.path.join(DATA_ROOT, "geo_fixture_legacy.dat"))
    spec = record_spec_from_conf({
        "geoip_lookup_keys": ["ip"],
        "backend_library": "geoip",
        "record": {
            "city": "${city['ip']}",
            "country_code": "${country_code['ip']}",
            "country_code3": "${country_code3['ip']}",
            "country_name": "${country_name['ip']}",
            "region": "${region['ip']}",
            "dma_code": "${dma_code['ip']}",
        },
    })
    spec.placeholder_types = {"${dma_code['ip']}": "int64"}
    ds = parse_dataset(_transcripts_ds(sf_dir), fields=("ip",))
    ds = enrich_dataset(ds, spec,
                        backend_spec={"library": "geoip_dat", "path": dat})
    return ds.select_columns([
        "conv_id", "turn_idx", "ip", "city", "country_code",
        "country_code3", "country_name", "region", "dma_code",
    ])


def q_enrich_nested(sf_dir: str):
    """Nested record-accessor lookup paths (filter_geoip.rb:60;
    test_filter_geoip.rb:482-520): the lookup key is ``$.src.ip`` resolved
    through a struct column via pc.struct_field -- the transcript ip is
    packed into ``src: struct<ip>`` first to exercise the accessor."""
    import pyarrow as pa

    from fluent_plugin_geoip_ray.config import RecordSpec
    from fluent_plugin_geoip_ray.stages.enrich import enrich_dataset
    from fluent_plugin_geoip_ray.stages.parse import parse_dataset

    def pack(batch: pa.Table) -> pa.Table:
        src = pa.StructArray.from_arrays(
            [batch.column("ip").combine_chunks()], names=["ip"]
        )
        return batch.append_column("src", src)

    spec = RecordSpec(
        lookup_keys=["$.src.ip"],
        record={
            "city": "${city.names.en['$.src.ip']}",
            "country_code": "${country.iso_code['$.src.ip']}",
        },
    )
    ds = parse_dataset(_transcripts_ds(sf_dir), fields=("ip",))
    ds = ds.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True)
    ds = enrich_dataset(ds, spec)
    return ds.select_columns(["conv_id", "turn_idx", "city", "country_code"])


def q_events_extract(sf_dir: str):
    """Regex parse over the driver events table (grok analog on props)."""
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "props"])

    def fn(t):
        k = pc.struct_field(
            pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k"
        ).cast("int64")
        return t.append_column("k", k)

    return ds.map_batches(fn, batch_format="pyarrow").select_columns(["event_id", "k"])


# ---- training-data operators over the driver tables ----------------------

def q_dedup_exact(sf_dir: str):
    """Exact dedup on documents: keep min(doc_id) per distinct text."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.dedup import dedup_exact

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")
    return dedup_exact(ds).select_columns(["doc_id", "lang", "source"])


def q_token_count(sf_dir: str):
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import token_count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(token_count, batch_format="pyarrow").select_columns(
        ["doc_id", "n_tokens", "n_chars_calc"]
    )


def q_quality(sf_dir: str):
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import QualityScore

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(QualityScore, concurrency=(1, 4),
                          batch_format="pyarrow").select_columns(
        ["doc_id", "mean_token_len", "punct_ratio"]
    )


def q_bpe_tokens(sf_dir: str):
    """BPE-ish pretokenizer count (GPT-2-style regex, one RE2 pass)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import bpe_token_count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(bpe_token_count, batch_format="pyarrow").select_columns(
        ["doc_id", "n_bpe_tokens"]
    )


def q_lang_id(sf_dir: str):
    """Language-ID heuristic (rows-only check: not SQL-expressible)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import LangId

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(LangId, concurrency=(1, 4),
                          batch_format="pyarrow").select_columns(
        ["doc_id", "lang_pred", "lang_score"]
    )


def q_dedup_minhash(sf_dir: str):
    """MinHash-LSH near-dup (rows-only: LSH is not SQL-expressible)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.dedup import dedup_minhash

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")
    return dedup_minhash(ds).select_columns(["doc_id", "lang", "source"])


def q_dedup_ngram(sf_dir: str):
    """EXACT word-3-gram Jaccard dedup (prefix-filtered All-Pairs similarity
    join) -- independently SQL-oracle-backed, unlike the sketch-based
    near-dup family: drop a doc iff some earlier doc has J >= 0.5."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.dedup import dedup_ngram

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")
    return dedup_ngram(ds, threshold=0.5).select_columns(
        ["doc_id", "lang", "source"])


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (GPT-3-style n-gram overlap filter): treat
    every 20th doc as the held-out eval set, drop any remaining doc sharing
    a word-4-gram with it.  Independently SQL-oracle-backed."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.dedup import decontaminate

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")

    def split(t: pa.Table, want_eval: bool) -> pa.Table:
        m = t.column("doc_id").to_numpy(zero_copy_only=False) % 20 == 0
        return t.filter(pa.array(m if want_eval else ~m))

    train = ds.map_batches(lambda t: split(t, False),
                           batch_format="pyarrow", zero_copy_batch=True)
    evals = ds.map_batches(lambda t: split(t, True),
                           batch_format="pyarrow", zero_copy_batch=True)
    return decontaminate(train, evals, n=4).select_columns(
        ["doc_id", "lang", "source"])


def q_chunk_docs(sf_dir: str):
    """Context-window chunking: split docs into overlapping 32-token
    windows with stride 24 (one row per chunk) -- SQL-oracle-backed."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import chunk_tokens

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return ds.map_batches(
        lambda t: chunk_tokens(t, window=32, stride=24),
        batch_format="pyarrow", zero_copy_batch=True)


def q_epoch_shuffle(sf_dir: str):
    """Deterministic global epoch shuffle: every row's exact rank under the
    seeded Knuth hash, verified by the SQL oracle's ROW_NUMBER."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.sample import epoch_shuffle

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang"])
    return epoch_shuffle(ds, "doc_id", seed=7).select_columns(
        ["doc_id", "lang", "shuffle_pos"])


def q_dsir(sf_dir: str):
    """DSIR-style contrastive importance scoring in exact integer
    arithmetic: target = English docs; every doc scored by the fixed-point
    probability difference of its unigram+bigram distribution vs target
    and raw corpora.  The ENTIRE model (counts, weights, scores) is
    replicated in SQL, so this is independently oracle-verified."""
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import dsir_importance

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    tgt = ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("lang"), "en")),
        batch_format="pyarrow", zero_copy_batch=True)
    return dsir_importance(ds, tgt).select_columns(["doc_id", "dsir_score"])


def q_select_top(sf_dir: str):
    """Exact global top-fraction curation: keep the top 25% of docs by
    whitespace token count, deterministic doc_id tie-break.  Only a
    (doc_id, n_tokens) projection is sorted; text never shuffles."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.sample import select_top_fraction
    from fluent_plugin_geoip_ray.stages.text import token_count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    scored = ds.map_batches(token_count, batch_format="pyarrow",
                            zero_copy_batch=True).select_columns(
        ["doc_id", "n_tokens"])
    return select_top_fraction(scored, "n_tokens", "doc_id", 0.25)


def q_repetition(sf_dir: str):
    """Gopher-style intra-doc repetition signals (top/duplicated word-2-gram
    char fractions) -- SQL-oracle-backed."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import repetition_signals

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return ds.map_batches(repetition_signals, batch_format="pyarrow",
                          zero_copy_batch=True)


_LINE_SEP_WORDS = ("join", "hash", "row", "batch",
                   "scan", "column", "customer", "filter")


def q_dedup_lines(sf_dir: str):
    """CCNet-style line-level boilerplate removal: derive a multi-line text
    deterministically (replace 8 common words with newlines -- identical
    replace chain in the SQL oracle), then remove every line whose
    normalized form appears in >= 3 distinct docs.  Independently
    SQL-oracle-backed (explode + distinct-doc count + string_agg rebuild)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.dedup import dedup_lines

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def to_lines(t: pa.Table) -> pa.Table:
        txt = t.column("text")
        for w in _LINE_SEP_WORDS:
            txt = pc.replace_substring(txt, pattern=w, replacement="\n")
        return t.set_column(t.column_names.index("text"), "text", txt)

    multiline = ds.map_batches(to_lines, batch_format="pyarrow",
                               zero_copy_batch=True)
    return dedup_lines(multiline, min_docs=3).select_columns(
        ["doc_id", "text", "lines_removed"])


def q_dedup_spans(sf_dir: str):
    """Exact duplicate-SPAN removal (the substring-dedup pass of
    arXiv:2107.06499 at word-window granularity): cut every token covered
    by a 6-token window whose lowercased form occurs >= 2 times
    corpus-wide, rebuild text from the kept tokens.  Independently
    SQL-oracle-backed (window explode + global occurrence count + coverage
    interval join + string_agg rebuild)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.dedup import dedup_spans

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return dedup_spans(ds, window=6, min_count=2).select_columns(
        ["doc_id", "text", "tokens_removed"])


def q_doc_rank(sf_dir: str):
    """Exact global ranking + decile assignment of documents by length:
    ROW_NUMBER / NTILE(10) OVER (ORDER BY n_chars DESC, doc_id).  One
    range exchange + O(blocks) offset scan; rows move exactly once.
    Independently SQL-oracle-backed (identical window functions)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.sample import global_rank

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "n_chars"])
    return global_rank(ds, "n_chars", "doc_id", descending=True, ntile=10)


def q_rollup_events(sf_dir: str):
    """GROUP BY ROLLUP(event_type, user_id) via hierarchical
    re-aggregation: input scanned ONCE at the finest level, every coarser
    level re-aggregates the previous level's already-small result.
    Order-independent aggregates (count/min/max + integer sum) keep the
    value-hash compare exact."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import rollup_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id", "value",
                                  "event_id"])
    return rollup_agg(ds, ["event_type", "user_id"],
                      [("value", "count", "c"), ("value", "min", "mn"),
                       ("value", "max", "mx"), ("event_id", "sum", "se")])


def q_left_join(sf_dir: str):
    """Large-large LEFT OUTER equi-join through the bucketed hash
    exchange: every customer row survives, event-less customers (1350 of
    1500 at sf0.01) carry typed NULL aggregates.  Exact integer
    aggregates keep the value-hash compare exact."""
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg
    from fluent_plugin_geoip_ray.stages.join import bucketed_join

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id"])
    agg = groupby_agg(ev, ["user_id"],
                      [("event_id", "count", "n_events"),
                       ("event_id", "sum", "se")])
    agg = agg.map_batches(
        lambda t: t.select(["user_id", "n_events", "se"])
        .rename_columns(["c_custkey", "n_events", "se"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return bucketed_join(cust, agg, on="c_custkey", how="left")


def q_users_per_type(sf_dir: str):
    """EXACT COUNT(DISTINCT user_id) per event_type via the two-level
    dedupe-then-count aggregate (the exact sibling of the HLL op)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import count_distinct_by

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    return count_distinct_by(ds, ["event_type"], "user_id",
                             out_col="n_users")


def q_rate_limited(sf_dir: str):
    """Per-user rate limiting: first 2 events (by ts, then event_id) per
    user per 1-hour tumbling window -- the log-pipeline quota throttle,
    via the algebraic grouped top-k over a composite (key, window)
    group."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import rate_limit

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts",
                                  "event_type"])
    return rate_limit(ds, "user_id", "ts", window_sec=3600, k=2,
                      tie_breakers=["event_id"])


def q_dedup_incr(sf_dir: str):
    """Incremental near-dup dedup vs a persisted historical sketch index
    (the daily-crawl increment; KNOWN-ANSWER oracle like semantic_dedup):
    the increment holds, for each of the first 100 documents, an EXACT
    COPY at doc_id+1M when doc_id is odd (identical sketches share every
    LSH band with the historical doc -- provably dropped) and a
    doc_id-salted disjoint-vocabulary novel doc when even (zero shared
    shingles with anything -- survives under the fixed seed).  Historical
    text is never re-read; update_index stays False so reruns are
    idempotent."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.dedup import (
        build_sketch_index,
        dedup_incremental,
    )

    tag = os.path.basename(os.path.normpath(sf_dir))
    index_dir = f"/tmp/graft_data/{tag}/incr_index"
    if not os.path.exists(os.path.join(index_dir, "_params.json")):
        build_sketch_index(
            rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"]), index_dir)

    def make_new(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t.column("doc_id"), 100))
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        texts = t.column("text").to_pylist()
        out_t = [texts[i] if ids[i] % 2 == 1
                 else " ".join(f"uniq{ids[i]}_{j}" for j in range(40))
                 for i in range(len(ids))]
        return pa.table({"doc_id": pa.array(ids + 1_000_000),
                         "text": pa.array(out_t, pa.string())})

    new_ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "text"])         .map_batches(make_new, batch_format="pyarrow", zero_copy_batch=True)
    return dedup_incremental(new_ds, index_dir).select_columns(["doc_id"])


def q_pca(sf_dir: str):
    """Distributed PCA over the embeddings table (golden-pinned like
    knn_ivf: the eigendecomposition is not SQL-replicable): fit k=4
    components via one streaming (n, sum, X^T X) moment pass (rows never
    move, driver holds O(blocks) d x d partials), then project every
    vector -- one broadcast + one matmul per batch.  Deterministic sign
    convention makes refits byte-identical; hand-checkable planted-
    subspace recovery lives in pytest."""
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.similarity import (
        fit_pca,
        transform_pca,
    )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    mean, comps, _ = fit_pca(ds, vec_col="embedding", k=4)

    def explode(t: pa.Table) -> pa.Table:
        import numpy as np

        m = np.vstack(t.column("pca").to_pylist()) if t.num_rows \
            else np.zeros((0, 4))
        cols = {"vec_id": t.column("vec_id")}
        for i in range(4):
            # 1e-4-quantized int64: threaded-BLAS reductions jitter the
            # last float ulps run-to-run, so the golden pins quantized
            # coordinates (jitter ~1e-13 absolute, 9 orders below the
            # quantum)
            cols[f"p{i}"] = pa.array(np.round(m[:, i] * 1e4)
                                     .astype(np.int64))
        return pa.table(cols)

    return transform_pca(ds, mean, comps, vec_col="embedding") \
        .map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def q_mean_pool(sf_dir: str):
    """Per-label embedding centroids (group_mean_pool), emitted long-form
    (label, pos, c) with 1e-6-quantized coordinates so the float mean is
    independently SQL-verifiable despite summation-order ulps (engine and
    DuckDB sum in different orders; both land within ~1e-12 of the true
    mean, 6 orders below the quantum)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.similarity import group_mean_pool

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["label", "embedding"])
    pooled = group_mean_pool(ds, "label")

    def long_form(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({"label": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        cent = t.column("centroid")
        if isinstance(cent, pa.ChunkedArray):
            cent = cent.combine_chunks()
        m = np.vstack(cent.to_pylist())
        n, d = m.shape
        return pa.table({
            "label": pa.array(np.repeat(
                t.column("label").cast(pa.int64())
                .to_numpy(zero_copy_only=False), d)),
            "pos": pa.array(np.tile(np.arange(d, dtype=np.int64), n)),
            "c": pa.array(np.round(m.ravel() * 1e6).astype(np.int64)),
        })

    return pooled.map_batches(long_form, batch_format="pyarrow",
                              zero_copy_batch=True)


def q_validated_events(sf_dir: str):
    """Data-quality gate with dead-letter reasons: first-failing-rule
    semantics over vectorized Arrow predicates (NULL predicate rejects --
    SQL three-valued logic), fully replicated by a CASE expression."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.validate import (
        in_range,
        not_equal,
        validate,
    )

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "value", "event_type"])
    return validate(ds, [in_range("value", 0, 80),
                         not_equal("event_type", "error")])


def q_full_join(sf_dir: str):
    """FULL OUTER bucketed join with unmatched rows on BOTH sides:
    per-user event aggregates keyed at user_id+1400 overlap custkeys
    [1400, 1499] and overhang [1500, 1549]; customers below 1400 pad
    right-side NULLs, overhanging users pad left-side NULLs (coalesced
    join key)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg
    from fluent_plugin_geoip_ray.stages.join import bucketed_join

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id"])
    agg = groupby_agg(ev, ["user_id"],
                      [("event_id", "count", "n_events")])
    agg = agg.map_batches(
        lambda t: pa.table({
            "c_custkey": pc.add(t.column("user_id").cast(pa.int64()),
                                pa.scalar(1400, pa.int64())),
            "n_events": t.column("n_events"),
        }),
        batch_format="pyarrow", zero_copy_batch=True)
    return bucketed_join(cust, agg, on="c_custkey", how="full")


def q_composite_join(sf_dir: str):
    """Composite-key bucketed join: attach per-(user_id, event_type)
    counts back onto every event -- bucket hash xors the per-column
    hashes (the groupby_agg convention) so composite joins co-bucket
    with composite aggregates."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg
    from fluent_plugin_geoip_ray.stages.join import bucketed_join

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type",
                                  "value"])
    agg = groupby_agg(ev, ["user_id", "event_type"],
                      [("value", "count", "n_ut")])
    return bucketed_join(ev.select_columns(["event_id", "user_id",
                                            "event_type"]),
                         agg, on=["user_id", "event_type"])


def q_stratified_docs(sf_dir: str):
    """Exact proportional stratified sampling by language: per stratum
    keep the ceil(0.3 * n_g) docs with the smallest seeded Knuth key
    hashes -- exact membership verified by the identical hash + window
    rank in SQL."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.sample import stratified_sample

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang"])
    return stratified_sample(ds, "lang", "doc_id", 0.3)


def q_user_journeys(sf_dir: str):
    """Ordered per-user event-type assembly (string_agg ORDER BY ts,
    event_id) -- the build-one-training-example-per-conversation
    primitive; values co-locate via ONE exchange, per-bucket lexsort +
    Arrow binary_join."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import string_agg_by

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type", "ts",
                                  "event_id"])
    return string_agg_by(ds, "user_id", "event_type",
                         order_by=["ts", "event_id"], sep="|",
                         out_col="journey")


def q_cube_events(sf_dir: str):
    """GROUP BY CUBE(event_type, user_id): all four grouping sets from a
    single input scan -- every coarser set re-aggregates the finest
    (already-reduced) result through the bucketed exchange."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import cube_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id", "value",
                                  "event_id"])
    return cube_agg(ds, ["event_type", "user_id"],
                    [("value", "count", "c"), ("value", "min", "mn"),
                     ("value", "max", "mx"), ("event_id", "sum", "se")])


def q_exploded_embeddings(sf_dir: str):
    """UNNEST the embedding column: one row per coordinate with its
    position -- pure ListArray offset arithmetic (repeat + take), values
    bit-identical to the source so the float compare is exact."""
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.parse import explode_column

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    out = explode_column(ds, "embedding", value_col="v")
    return out.map_batches(
        lambda t: t.set_column(t.column_names.index("v"), "v",
                               t.column("v").cast(pa.float64())),
        batch_format="pyarrow", zero_copy_batch=True)


def q_top_types(sf_dir: str):
    """Misra-Gries heavy hitters over event_type: with summary_size >=
    true distinct count nothing is ever truncated, so the estimates ARE
    the exact counts and the oracle verifies them exactly (the
    error-bound behaviour at unbounded cardinality is pinned in
    pytest)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import approx_top_k

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type"])
    return approx_top_k(ds, "event_type", k=5, summary_size=64)


def q_normalized_docs(sf_dir: str):
    """Canonical text normalization (lowercase -> strip punctuation ->
    collapse whitespace), the pre-dedup cleanup pass -- identical
    regexp_replace chain in the oracle."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import normalize_text

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return ds.map_batches(
        lambda t: normalize_text(t, strip_punct=True),
        batch_format="pyarrow", zero_copy_batch=True)


def q_value_hist(sf_dir: str):
    """Fixed-width histogram of event values over [0, 100) in 20 bins,
    out-of-range clipped to the edge bins -- binning replicated exactly
    in SQL (floor arithmetic on doubles is identical)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import histogram

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return histogram(ds, "value", lo=0.0, hi=100.0, bins=20)


def q_events_asof_fwd(sf_dir: str):
    """FORWARD as-of join (large-large): each event joined to the
    user's NEXT purchase at-or-after its timestamp -- time negation
    through the identical matcher as the backward path.  Output is
    tie-proof (the matched ts itself)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.join import asof_join_big

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type",
                                  "ts"])
    purchases = ds.filter(expr="event_type == 'purchase'")         .select_columns(["user_id", "ts"])
    out = asof_join_big(ds.select_columns(["event_id", "user_id", "ts"]),
                        purchases, on="ts", by="user_id",
                        right_cols={"ts": "next_purchase_ts"},
                        direction="forward")
    return out.select_columns(["event_id", "next_purchase_ts"])


def q_winsorized(sf_dir: str):
    """Per-event-type quantile clipping (winsorization) of values into
    [p05, p95] of each type's own distribution -- exact quantiles are
    bit-identical to SQL quantile_cont, so the clipped floats compare
    exactly."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import winsorize_by

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    return winsorize_by(ds, "event_type", "value", lo_q=0.05, hi_q=0.95)


def q_events_lag(sf_dir: str):
    """Per-user navigation functions: previous event's value (LAG) and
    next event's timestamp (LEAD) in (ts, event_id) order -- one exchange
    on the key, per-bucket lexsort, Arrow take shifts; values copy
    bit-exactly so the float compare is exact."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import lag_lead_by

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    return lag_lead_by(ds, "user_id", order_by=["ts", "event_id"],
                       cols={"value": ("lag", "prev_value"),
                             "ts": ("lead", "next_ts")})


def q_profile(sf_dir: str):
    """One-pass data profiling over the documents table's numeric columns
    (count, nulls, min, max, mean) -- SQL-oracle-backed.  Integer columns
    keep the float sums exactly representable, so the value-hash compare
    is exact."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import profile

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "n_chars"])
    return profile(ds)


def q_lm_score(sf_dir: str):
    """Count-based bigram LM affinity (the KenLM-perplexity-filter analog
    in exact integer arithmetic): reference = every 10th doc; score the
    rest by sum of fixed-point MLE P(w2|w1) over their bigrams.  Integer
    division keeps the score bit-exact, so the SQL oracle verifies the
    whole model independently."""
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import ngram_lm_affinity

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def split(t: pa.Table, want_ref: bool) -> pa.Table:
        import numpy as np

        m = t.column("doc_id").to_numpy(zero_copy_only=False) % 10 == 0
        return t.filter(pa.array(m if want_ref else ~m))

    ref = ds.map_batches(lambda t: split(t, True),
                         batch_format="pyarrow", zero_copy_batch=True)
    corpus = ds.map_batches(lambda t: split(t, False),
                            batch_format="pyarrow", zero_copy_batch=True)
    return ngram_lm_affinity(corpus, ref).select_columns(
        ["doc_id", "lm_affinity"])


def q_vocab(sf_dir: str):
    """Corpus token vocabulary: top-20 whitespace tokens by count with
    deterministic tie-break (count desc, token asc) -- SQL-oracle-backed."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import build_vocab

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return build_vocab(ds, top=20)


def q_dedup_images(sf_dir: str):
    """Image near-dup removal by DCT perceptual hash (pHash) through the
    text family's verified-edge machinery.  KNOWN-ANSWER oracle: the
    corpus is 40 distinct smooth images as baseline-q90 JPEGs (ids 0..39)
    plus a progressive-q75 re-encode of each (ids 10000+i); measured
    duplicate hamming <= 2 (band collision guaranteed at <= 3) and
    distinct-pair hamming >= 14 > max_hamming=10, so survivors are
    provably exactly ids 0..39 -- independent of the engine."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.multimodal import (
        dedup_images,
        synthesize_image_corpus,
    )

    ds = rd.from_arrow(synthesize_image_corpus(n_base=40)).repartition(4)
    return dedup_images(ds).select_columns(["media_id"])


def q_dedup_audio(sf_dir: str):
    """Audio near-dup removal by Haitsma-Kalker spectral fingerprint.
    KNOWN-ANSWER oracle: 30 distinct clips (ids 0..29) plus a -6 dB
    gain-scaled re-quantized copy each (ids 10000+i); the fingerprint is
    gain-invariant by construction and int16 re-quantization costs <= ~1
    bit while distinct pairs sit >= 19 apart -- survivors are provably the
    originals."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.multimodal import (
        dedup_audio,
        synthesize_audio_corpus,
    )

    ds = rd.from_arrow(synthesize_audio_corpus(n_base=30)).repartition(4)
    return dedup_audio(ds).select_columns(["media_id"])


def q_dedup_videos(sf_dir: str):
    """Video near-dup removal by frame-sampled pHash sequence (real AVI
    demux + real JPEG decode).  KNOWN-ANSWER oracle: 12 distinct MJPEG
    clips (ids 0..11) plus a quality-75 re-encode each (ids 10000+i);
    measured duplicate total hamming <= 8 over 4 sampled frames with
    frame0 <= 3 (band collision guaranteed) and distinct pairs >= 48 --
    survivors are provably the originals."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.multimodal import (
        dedup_videos,
        synthesize_video_corpus,
    )

    ds = rd.from_arrow(synthesize_video_corpus(n_base=12)).repartition(4)
    return dedup_videos(ds).select_columns(["media_id"])


def q_tool_usage(sf_dir: str):
    """Per-conversation tool-usage stats (the transcript analytics shape):
    turn count + exact COUNT(DISTINCT tool) over non-empty tool cells --
    groupby_agg + count_distinct_by + a bucketed left join, all existing
    operators."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fluent_plugin_geoip_ray.stages.aggregate import (
        count_distinct_by,
        groupby_agg,
    )
    from fluent_plugin_geoip_ray.stages.join import bucketed_join

    ds = _transcripts_ds(sf_dir).select_columns(["conv_id", "tool"])
    base = groupby_agg(ds, ["conv_id"], [("tool", "count_star", "n_turns")])
    tools = ds.map_batches(
        lambda t: t.filter(pc.and_(pc.is_valid(t.column("tool")),
                                   pc.not_equal(t.column("tool"), ""))),
        batch_format="pyarrow", zero_copy_batch=True)
    nd = count_distinct_by(tools, ["conv_id"], "tool", out_col="n_tools")
    joined = bucketed_join(base, nd, on="conv_id", how="left")

    def fill(t: pa.Table) -> pa.Table:
        col = t.column("n_tools")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return t.set_column(t.column_names.index("n_tools"), "n_tools",
                            pc.fill_null(col.cast(pa.int64()), 0))

    return joined.map_batches(fill, batch_format="pyarrow")


def q_sample_k(sf_dir: str):
    """Exact global uniform 100-sample of documents: the 100 smallest
    Knuth doc_id hashes -- deterministic set property, replicated exactly
    in SQL."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.sample import sample_k

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang", "source"])
    return sample_k(ds, "doc_id", 100, seed=13)


def q_quality_classifier(sf_dir: str):
    """Distributed logistic-regression quality filter (the fastText-
    style curation classifier shape).  KNOWN-ANSWER construction: label
    = 1 iff n_chars > 356, 0 iff n_chars < 256, margin rows dropped --
    linearly separable in (n_chars/100) with a wide margin, so full-batch
    GD reaches >= 99% train accuracy (deterministic for fixed data).
    Output: one summary row the literal oracle pins."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.ml import logreg_fit, logreg_predict

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "n_chars"])

    def label(t: pa.Table) -> pa.Table:
        n = t.column("n_chars").to_numpy(zero_copy_only=False)
        keep = (n > 356) | (n < 256)
        t = t.filter(pa.array(keep))
        n = t.column("n_chars").to_numpy(zero_copy_only=False)
        t = t.append_column("f0", pa.array(n.astype("float64") / 100.0))
        return t.append_column("y", pa.array((n > 356).astype("int64")))

    labeled = ds.map_batches(label, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
    w = logreg_fit(labeled, ["f0"], "y", iters=300, lr=0.5)
    scored = logreg_predict(labeled, w, ["f0"]).to_pandas()
    acc = float((scored["pred"] == scored["y"]).mean())
    return pa.table({
        "n_rows": pa.array([len(scored)], pa.int64()),
        "accuracy_ok": pa.array([acc >= 0.99]),
    })


def q_entity_match(sf_dir: str):
    """Two-table fuzzy join (entity matching): even-doc_id documents vs
    odd-doc_id documents at exact word-3-gram Jaccard >= 0.5 -- the
    cross-table sibling of dedup_ngram, fully SQL-replicated including
    the similarity value (one exact integer division each side)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.dedup import similarity_join

    import pyarrow.compute as pc

    def parity(p):
        def fn(t):
            keep = pc.equal(
                pc.bit_wise_and(t.column("doc_id"), 1), p)
            return t.filter(keep)

        return fn

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    left = docs.map_batches(parity(0), batch_format="pyarrow",
                            zero_copy_batch=True)
    right = docs.map_batches(parity(1), batch_format="pyarrow",
                             zero_copy_batch=True)
    return similarity_join(left, right, threshold=0.5)


def q_knn_ivfpq(sf_dir: str):
    """IVF-PQ persisted index end-to-end (directory pruning x code
    compression x exact re-rank).  KNOWN-ANSWER oracle: member queries
    provably retrieve themselves at rank 1 (a member's own bucket is its
    top probe; re-rank scores it exactly), and recall@10 vs the oracle-
    verified brute force stays above a wide-margin bound (measured ~0.5
    at nprobe=8/16 on this table; pinned >= 0.25 -- deterministic for
    fixed data/seed)."""
    import tempfile

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.similarity import (
        build_ivfpq_index,
        knn_brute_force,
        query_ivfpq_index,
    )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    qrows = ds.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    q = np.stack(qrows["embedding"].to_numpy())
    exact = knn_brute_force(ds, q, k=10).to_pandas()
    idx = tempfile.mkdtemp(prefix="graft_ivfpq_")
    build_ivfpq_index(ds, idx, n_clusters=16, m=16, ksub=16)
    rr = query_ivfpq_index(idx, q, k=10, nprobe=8, rerank=True,
                           shortlist_mult=4).to_pandas()
    qids, self_top1, recall_ok = [], [], []
    for qid in range(len(q)):
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(rr[rr["query_id"] == qid]["vec_id"])
        top1 = int(rr[(rr["query_id"] == qid)
                      & (rr["rank"] == 1)]["vec_id"].iloc[0])
        qids.append(qid)
        self_top1.append(top1 == int(qrows["vec_id"].iloc[qid]))
        recall_ok.append(len(e & a) / len(e) >= 0.25)
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "self_top1": pa.array(self_top1),
        "recall_ok": pa.array(recall_ok),
    })


def q_embed_ann(sf_dir: str):
    """Model-inference + ANN end-to-end: text -> actor-pool MLP embedding
    (`ml.TextEmbedder`: weights resident per actor, batch-vectorized
    inference) -> persisted IVF-PQ index -> rerank query.

    KNOWN-ANSWER oracle: the embedder is deterministic, so a corpus doc
    used as a query embeds bit-identically to itself and any exact-text
    duplicate (cosine exactly 1.0, the maximum); the query's own IVF
    bucket is its top probe, so rank 1 is PROVABLY a doc whose text is
    byte-identical to the query's -- the boolean the oracle constructs.
    (Which of several identical-text docs wins is NOT claimed: exact
    re-rank scores of bit-identical vectors can differ by 1 ulp across
    Ray block boundaries -- BLAS accumulation order depends on block
    shape -- so exact ties order nondeterministically; the 1.0-vs-0.63
    runner-up margin, pinned in tests/test_ml.py, is what makes the
    duplicate-set claim robust.)"""
    import tempfile

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.ml import TextEmbedder, embed_texts
    from fluent_plugin_geoip_ray.stages.similarity import (
        build_ivfpq_index,
        query_ivfpq_index,
    )

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    emb = embed_texts(docs, concurrency=2)
    idx = tempfile.mkdtemp(prefix="graft_embed_ann_")
    build_ivfpq_index(emb, idx, n_clusters=16, m=16, ksub=16,
                      id_col="doc_id")
    # queries: every 50th document's text, embedded by the same model
    # (one driver-side read serves query selection AND corpus text lookup)
    all_docs = pq.read_table(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "text"])
    qt = all_docs.sort_by("doc_id")
    mask = np.asarray(qt.column("doc_id").to_numpy()) % 50 == 0
    qt = qt.filter(pa.array(mask))
    qe = TextEmbedder()(qt)
    q = np.stack([np.asarray(v) for v in
                  qe.column("embedding").to_pylist()])
    hits = query_ivfpq_index(idx, q, k=3, nprobe=4, rerank=True,
                             shortlist_mult=4, id_col="doc_id").to_pandas()
    top1 = hits[hits["rank"] == 1].sort_values("query_id")
    qids = qt.column("doc_id").to_numpy()
    # resolve rank-1 hits' text from the corpus (tiny: |queries| lookups);
    # every query doc is a corpus doc, so one lookup table serves both sides
    text_of = dict(zip(all_docs.column("doc_id").to_pylist(),
                       all_docs.column("text").to_pylist()))
    out_qid = qids[top1["query_id"].to_numpy()]
    match = [text_of[int(h)] == text_of[int(qd)]
             for h, qd in zip(top1["doc_id"], out_qid)]
    return pa.table({
        "query_id": pa.array(out_qid, pa.int64()),
        "top1_text_match": pa.array(match),
    })


def q_events_cumulative(sf_dir: str):
    """Cumulative window aggregates per user -- SQL ``OVER (PARTITION BY
    user_id ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)``: running
    count, running min (exact float compare -- MIN copies a value, no
    accumulation error), running int sum, ROW_NUMBER, NTILE(4).  One
    exchange on the key, per-bucket lexsort + numpy cumsum / pandas
    Cython cummin."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import running_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    return running_agg(ds, "user_id", order_by=["ts", "event_id"],
                       aggs=[("value", "count", "cum_n"),
                             ("value", "min", "cum_min_value"),
                             ("event_id", "sum", "cum_eid"),
                             ("event_id", "row_number", "rn"),
                             ("event_id", "ntile:4", "tile"),
                             ("value", "first_value", "fv"),
                             ("value", "nth_value:2", "nv2")])


def q_ranked_events(sf_dir: str):
    """Tie-aware rank family: RANK / DENSE_RANK / PERCENT_RANK per user
    ordered by event_type (a string column with heavy ties, so rank !=
    row_number).  percent_rank is (rank-1)/(n-1) in double -- exact."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import running_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type"])
    return running_agg(ds, "user_id", order_by=["event_type"],
                       aggs=[("", "rank", "r"),
                             ("", "dense_rank", "dr"),
                             ("", "percent_rank", "pr"),
                             ("", "cume_dist", "cd")])


def q_events_moving(sf_dir: str):
    """Sliding-frame window aggregates -- SQL ``OVER (PARTITION BY
    user_id ORDER BY ts, event_id ROWS BETWEEN 4 PRECEDING AND CURRENT
    ROW)``: the canonical per-host moving average.  Moving count/min/max
    of the float column (exact: selection copies values), moving
    sum/avg of the int column (int64 prefix sums + one IEEE division --
    exact vs SQL).  Same shape as running_agg: ONE exchange on the key,
    per-bucket lexsort, two prefix-sum gathers per agg + Cython
    rolling extrema."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import rolling_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    return rolling_agg(ds, "user_id", order_by=["ts", "event_id"],
                       aggs=[("value", "count", "mv_n"),
                             ("value", "min", "mv_min"),
                             ("value", "max", "mv_max"),
                             ("event_id", "sum", "mv_eid"),
                             ("event_id", "avg", "mv_avg_eid")],
                       window=5)


def q_events_with_stats(sf_dir: str):
    """eventstats: whole-partition aggregates on every row -- SQL
    ``agg(col) OVER (PARTITION BY user_id)`` with no ORDER BY.  One
    partial+final groupby (O(keys x blocks) shuffle) broadcast back via
    index_in+take; the event stream never moves.  NTH_VALUE(2) rides the
    same scan in events_cumulative."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import group_stats

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "value"])
    return group_stats(ds, ["user_id"],
                       [("value", "count", "u_n"),
                        ("value", "min", "u_min"),
                        ("value", "max", "u_max"),
                        ("event_id", "sum", "u_eid"),
                        ("event_id", "mean", "u_avg_eid")])


def q_events_ewma(sf_dir: str):
    """Per-user EWMA of value over time (smoothed metric).  The oracle
    is pandas' ``ewm`` recurrence as a recursive CTE, one row per step
    (the closed-form (1-a)^(-i) weights overflow)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import ewma_by

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    return ewma_by(ds, "user_id", ["ts", "event_id"], "value", alpha=0.2)


def q_active_customers(sf_dir: str):
    """Large-large SEMI join (EXISTS): customers with at least one event
    -- the EXISTS mirror of ``idle_customers``.  Neither side broadcast;
    only the right KEY column moves (per-batch unique collapse), one
    hash exchange, per-bucket vectorized is_in filter."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.join import semi_join_big

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return semi_join_big(cust, ev, on="c_custkey", right_on="user_id")


def q_events_moving_time(sf_dir: str):
    """Time-RANGE sliding frame -- SQL ``RANGE BETWEEN INTERVAL '10
    minutes' PRECEDING AND CURRENT ROW`` per user: count / int-sum /
    int-avg over the trailing 10-minute window, peer-inclusive (rows
    sharing a timestamp share one frame).  Frame edges come from two
    global searchsorted calls over per-segment-offset timestamps."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import rolling_time_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    return rolling_time_agg(ds, "user_id", "ts",
                            aggs=[("event_id", "count", "tw_n"),
                                  ("event_id", "sum", "tw_eid"),
                                  ("event_id", "avg", "tw_avg_eid"),
                                  ("value", "min", "tw_min"),
                                  ("value", "max", "tw_max")],
                            preceding_sec=600)


def q_idle_customers(sf_dir: str):
    """Large-large ANTI join (NOT EXISTS): customers with no events --
    neither side broadcast, only the right KEY column moves, one hash
    exchange, per-bucket vectorized ``is_in`` anti-filter."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.join import anti_join_big

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return anti_join_big(cust, ev, on="c_custkey", right_on="user_id")


def q_agg_subnet(sf_dir: str):
    """Traffic rollup by /16 network: the natural downstream aggregation
    of the reference's enriched records (filter_geoip.rb stops at the
    per-record lookup).  Arrow string algebra builds the CIDR label
    (``split_pattern`` + ``binary_join_element_wise``), then the
    partial+final count -- the SQL twin uses the same ``split_part``
    algebra so labels compare byte-identically."""
    from fluent_plugin_geoip_ray.stages.aggregate import count_by
    from fluent_plugin_geoip_ray.stages.parse import (ip_subnet_column,
                                                      parse_dataset)

    ds = parse_dataset(_transcripts_ds(sf_dir))
    ds = ip_subnet_column(ds, ip_col="ip", bits=16, out="subnet")
    ds = ds.map_batches(
        lambda t: t.select(["subnet"]).filter(t["subnet"].combine_chunks()
                                              .is_valid()),
        batch_format="pyarrow")
    return count_by(ds, "subnet")


_GEO_REF = (48.8566, 2.3522)  # Paris; deliberately NOT a fixture city, so
#                               no distance sits on a 500-km ring boundary


def q_geo_rings(sf_dir: str):
    """Distance-ring rollup: haversine km from each enriched event's
    (latitude, longitude) to a fixed reference point, binned into 500-km
    rings, counted per ring.  The trig is float and numpy's SIMD sin/cos
    may differ from libm in the last ulp, so only the BINNED output is
    hashed (ring width 500 km; fixture distances sit far from every
    edge -- verified margin > 1 km at all sf)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fluent_plugin_geoip_ray.functions.geo import haversine_km
    from fluent_plugin_geoip_ray.stages.aggregate import count_by

    ds = _enriched_ds(sf_dir, gate=True)

    def ring(t: pa.Table) -> pa.Table:
        import numpy as np

        lat = np.asarray(pc.cast(t.column("latitude"), pa.float64()))
        lon = np.asarray(pc.cast(t.column("longitude"), pa.float64()))
        d = haversine_km(lat, lon, *_GEO_REF)
        return pa.table(
            {"ring": pa.array(np.floor(d / 500.0).astype(np.int64))})

    return count_by(ds.map_batches(ring, batch_format="pyarrow"), "ring")


def q_bpe_merges(sf_dir: str):
    """BPE tokenizer training (Sennrich semantics) via the distributed
    word-count path.  KNOWN-ANSWER oracle on a hand-computable corpus
    (word counts aaab x3, ab x1): pair counts force merge order
    (a,a) -> (a,b) (4-4 tie, lexicographic min) -> (ab,</w>) -- see
    tests/test_text_ops.py::test_train_bpe_hand_computed_merges for the
    full derivation."""
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import train_bpe

    t = pa.table({"text": ["aaab aaab", "aaab ab"]})
    merges = train_bpe(rd.from_arrow(t).repartition(2), num_merges=3)
    return pa.table({
        "rank": pa.array(range(len(merges)), pa.int64()),
        "left_sym": pa.array([a for a, _ in merges]),
        "right_sym": pa.array([b for _, b in merges]),
    })


def q_knn_pq(sf_dir: str):
    """Product-quantization ANN (Jegou et al. 2011): codebooks from a
    seeded uniform sample, uint8 codes, asymmetric LUT search.
    KNOWN-ANSWER oracle: for member queries the top-1 hit is provably the
    query itself (its own code maximizes its own LUT), and recall@10 vs
    the oracle-verified brute force stays above a wide-margin bound
    (measured 0.57 at m=16/ksub=16 on this table; pinned >= 0.3 --
    deterministic for fixed data/seed)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.similarity import (
        knn_brute_force,
        pq_encode,
        pq_search,
        pq_train,
    )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    qrows = ds.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    q = np.stack(qrows["embedding"].to_numpy())
    exact = knn_brute_force(ds, q, k=10).to_pandas()
    books = pq_train(ds, m=16, ksub=16)
    enc = pq_encode(ds, books).materialize()
    approx = pq_search(enc, books, q, k=10).to_pandas()
    qids, self_top1, recall_ok = [], [], []
    for qid in range(len(q)):
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        top1 = int(approx[(approx["query_id"] == qid)
                          & (approx["rank"] == 1)]["vec_id"].iloc[0])
        qids.append(qid)
        self_top1.append(top1 == int(qrows["vec_id"].iloc[qid]))
        recall_ok.append(len(e & a) / len(e) >= 0.3)
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "self_top1": pa.array(self_top1),
        "recall_ok": pa.array(recall_ok),
    })


def q_kmeans(sf_dir: str):
    """Distributed spherical k-means (maxmin farthest-point seeding +
    Lloyd partials; rows never move).  KNOWN-ANSWER construction from the
    embeddings table: centers = the 10 lowest vec_id vectors (pairwise
    |cos| <= 0.30 measured); member i (id 100+i, i in 0..489) =
    0.95*center[i%10] + 0.05*center[(i%10+3)%10] (own-cos >= 0.998,
    other-cos <= 0.34).  With those margins maxmin provably seeds one
    point per planted cluster and Lloyd converges to the planted
    partition, so every member co-assigns with its generating center --
    the oracle is the literal expected table."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.similarity import (
        kmeans_assign,
        kmeans_fit,
    )

    base = (rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
            .filter(expr="vec_id < 10").to_pandas().sort_values("vec_id"))
    centers = np.stack(base["embedding"].to_numpy()).astype(np.float64)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    gen = np.arange(490) % 10
    mix = (gen + 3) % 10
    members = 0.95 * centers[gen] + 0.05 * centers[mix]
    all_ids = np.concatenate([np.arange(10), 100 + np.arange(490)])
    all_vecs = np.vstack([centers, members]).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(all_ids, pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(all_vecs.ravel(), pa.float32()), all_vecs.shape[1]
        ).cast(pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(t).repartition(4)
    cents = kmeans_fit(ds, k=10, iters=5)
    assigned = kmeans_assign(ds, cents).to_pandas()
    cl = dict(zip(assigned["vec_id"], assigned["cluster"]))
    member_ids = 100 + np.arange(490)
    co = np.array([cl[mid] == cl[g] for mid, g in zip(member_ids, gen)])
    return pa.table({
        "member_id": pa.array(member_ids, pa.int64()),
        "generator": pa.array(gen.astype(np.int64)),
        "co_assigned": pa.array(co),
    })


def q_dense_windows(sf_dir: str):
    """Gap-filled tumbling counts per event_type: every hourly window
    between each type's first and last event, zero rows included (the
    dashboard/alerting shape plain tumbling counts silently skip)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import dense_tumbling

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])
    return dense_tumbling(ds, keys=["event_type"])


def q_dense_windows_2key(sf_dir: str):
    """Composite-key gap-filled tumbling counts: every hourly window
    between each (event_type, user shard)'s first and last event, zeros
    included -- the multi-tenant dashboard shape."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import dense_tumbling

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id", "ts"])

    def add_shard(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        shard = pa.array(np.mod(uid, 8).astype(np.int64))
        return t.drop_columns(["user_id"]).append_column("shard", shard)

    ds = ds.map_batches(add_shard, batch_format="pyarrow",
                        zero_copy_batch=True)
    return dense_tumbling(ds, keys=["event_type", "shard"])


def q_spike_windows(sf_dir: str):
    """Windowed spike detection (the alerting composition): tumbling 1h
    counts per event_type, per-type LAG over consecutive windows, flag
    windows whose count more than doubles the previous one -- pure
    composition of tumbling_window + lag_lead_by, integer-exact."""
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import (
        lag_lead_by,
        tumbling_window,
    )

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])
    counts = tumbling_window(ds, size_sec=3600, keys=["event_type"])
    lagged = lag_lead_by(counts, "event_type", order_by=["window_start"],
                         cols={"n": ("lag", "prev_n")})

    def flag(t):
        keep = pc.and_(pc.is_valid(t.column("prev_n")),
                       pc.greater(t.column("n"),
                                  pc.multiply(t.column("prev_n"), 2)))
        return t.filter(pc.fill_null(keep, False))

    return lagged.map_batches(flag, batch_format="pyarrow",
                              zero_copy_batch=True)


def q_distinct_pairs(sf_dir: str):
    """SELECT DISTINCT (user_id, event_type): per-batch local distinct +
    one composite-hash exchange final."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import distinct_rows

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    return distinct_rows(ds)


def q_events_funnel(sf_dir: str):
    """Ordered funnel (view -> click -> purchase) per user: earliest ts of
    each step strictly after the previous step's completion -- the SQL
    chained-CTE funnel."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import funnel

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type"])
    return funnel(ds, "user_id", "ts", "event_type",
                  steps=["view", "click", "purchase"])


def q_role_transitions(sf_dir: str):
    """Role-transition bigram counts within conversations (the transcript-
    shape analytics: which role follows which, in turn order) -- per-key
    LAG + grouped count, both existing operators composed."""
    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg
    from fluent_plugin_geoip_ray.stages.window import lag_lead_by

    ds = _transcripts_ds(sf_dir).select_columns(
        ["conv_id", "turn_idx", "role"])
    lagged = lag_lead_by(ds, "conv_id", order_by=["turn_idx"],
                         cols={"role": ("lag", "prev_role")})
    import pyarrow.compute as pc

    pairs = lagged.map_batches(
        lambda t: t.filter(pc.is_valid(t.column("prev_role"))),
        batch_format="pyarrow", zero_copy_batch=True)
    return groupby_agg(pairs, ["prev_role", "role"],
                       [("role", "count_star", "n")])


def q_tfidf(sf_dir: str):
    """Per-(doc, token) TF-IDF: the integer tf/df/n_docs surface is
    oracle-checked exactly (the float tfidf column is ln()-based and ulp-
    sensitive, so it stays consumer-facing; SURVEY exact-arithmetic
    convention shared with lm_score/dsir)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import tfidf

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return tfidf(ds).select_columns(["doc_id", "token", "tf", "df", "n_docs"])


def q_events_pivot(sf_dir: str):
    """Pivot: per-user counts of each event_type as columns (the classic
    dashboard reshape, COUNT(*) FILTER per category)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import pivot_counts

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    return pivot_counts(ds, "user_id", "event_type",
                        values=["click", "view", "purchase"], other="other")


def q_anomalous_events(sf_dir: str):
    """Per-type z-score anomaly gate: events whose value deviates > 3
    population standard deviations from their event_type mean."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import zscore_flag

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    flagged = zscore_flag(ds, "event_type", "value", threshold=3.0)
    return flagged.filter(expr="is_anomaly").select_columns(
        ["event_id", "event_type", "value"])


def q_dedup_simhash(sf_dir: str):
    """SimHash near-dup (rows-only)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.dedup import dedup_simhash

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")
    return dedup_simhash(ds).select_columns(["doc_id", "lang", "source"])


def q_semantic_dedup(sf_dir: str):
    """SemDeDup (k-means clusters + exact within-cluster cosine): corpus =
    embeddings UNION exact duplicates (vec_id+10000 for vec_id%3==0) UNION
    scaled duplicates (x2.0, vec_id+20000 for vec_id%5==0; cosine is
    scale-invariant so cos=1.0).  Survivors are provably the original 500
    rows: every duplicate's group contains its lower original id, and no
    original pair reaches 0.95 (max pairwise cos in the table is 0.51) --
    so the SQL oracle is the known answer ``SELECT vec_id, label FROM
    embeddings``, independent of the engine."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.similarity import semantic_dedup

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding", "label"])

    def dup(t: pa.Table, mod: int, offset: int, scale: float) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        sub = t.filter(pa.array(ids % mod == 0))
        emb = sub.column("embedding")
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = emb.flatten().to_numpy(zero_copy_only=False) * scale
        off = emb.offsets
        scaled = pa.ListArray.from_arrays(
            off, pa.array(flat.astype(np.float32), pa.float32()))
        return pa.table({
            "vec_id": pa.array(sub.column("vec_id").to_numpy(
                zero_copy_only=False) + offset),
            "embedding": scaled.cast(pa.list_(pa.float32())),
            "label": sub.column("label"),
        })

    exact = ds.map_batches(lambda t: dup(t, 3, 10_000, 1.0),
                           batch_format="pyarrow", zero_copy_batch=True)
    scaled = ds.map_batches(lambda t: dup(t, 5, 20_000, 2.0),
                            batch_format="pyarrow", zero_copy_batch=True)
    corpus = ds.union(exact).union(scaled)
    out = semantic_dedup(corpus, threshold=0.95, n_clusters=16)
    return out.select_columns(["vec_id", "label"])


def q_knn(sf_dir: str):
    """Brute-force cosine top-10 for the first 3 vectors as queries."""
    import numpy as np
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.similarity import knn_brute_force

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    qrows = ds.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    queries = np.stack(qrows["embedding"].to_numpy())
    out = knn_brute_force(ds, queries, k=10,
                          query_ids=qrows["vec_id"].to_numpy())
    return out.select(["query_id", "vec_id", "rank"])


def q_knn_ivf(sf_dir: str):
    """IVF approximate top-10 (rows-only: approximate by construction)."""
    import numpy as np
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.similarity import knn_ivf

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    qrows = ds.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    queries = np.stack(qrows["embedding"].to_numpy())
    return knn_ivf(ds, queries, k=10).select(["query_id", "vec_id", "rank"])


def q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-dup survivors (rows-only)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.similarity import embedding_near_dup

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return embedding_near_dup(ds, threshold=0.95).select_columns(["vec_id", "label"])


# ---- relational operator coverage over the TPC-H-ish tables ---------------

def q_events_topk(sf_dir: str):
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import top_k

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    return top_k(ds, "value", 100, tie_breakers=["event_id"])


def q_events_join(sf_dir: str):
    """Broadcast join: events -> customer -> nation (small sides shipped once)."""
    import duckdb
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.join import broadcast_join

    cust = duckdb.sql(
        f"SELECT c_custkey AS user_id, c_name, c_nationkey FROM "
        f"read_parquet('{sf_dir}/customer.parquet')"
    ).fetchdf()
    nation = duckdb.sql(
        f"SELECT n_nationkey AS c_nationkey, n_name FROM "
        f"read_parquet('{sf_dir}/nation.parquet')"
    ).fetchdf()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id"])
    ds = broadcast_join(ds, cust, on="user_id", how="inner")
    ds = broadcast_join(ds, nation, on="c_nationkey", how="inner")
    return ds.select_columns(["event_id", "c_name", "n_name"])


def q_grok(sf_dir: str):
    """Grok-pattern parse (%{IPV4:src_ip} after the src= marker)."""
    from fluent_plugin_geoip_ray.functions.grok import grok_dataset

    ds = grok_dataset(_transcripts_ds(sf_dir), "src=%{IPV4:src_ip}")
    return ds.select_columns(["conv_id", "turn_idx", "src_ip"])


def q_role_pivot(sf_dir: str):
    """Pivot-style conditional aggregation: per-conv turn counts by role."""
    import pyarrow.compute as pc

    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg

    ds = _transcripts_ds(sf_dir)

    def indicators(t):
        for role in ("user", "assistant", "tool"):
            t = t.append_column(
                f"is_{role}",
                pc.cast(pc.equal(t["role"], role), "int64"),
            )
        return t

    ds = ds.map_batches(indicators, batch_format="pyarrow")
    return groupby_agg(
        ds, ["conv_id"],
        [("is_user", "sum", "n_user"),
         ("is_assistant", "sum", "n_assistant"),
         ("is_tool", "sum", "n_tool")],
    )


def q_distinct(sf_dir: str):
    """Distinct (lang, source) pairs -- dedup-by-key via partial+final."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import count_by  # noqa: F401
    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "source"])
    agg = groupby_agg(ds, ["lang", "source"], [("lang", "count", "n")])
    return agg.drop_columns(["n"])


def q_multimodal(sf_dir: str):
    """Multimodal: REAL decode of deterministic BMP/PPM payloads (pure-numpy
    parsers) + WAV acoustic features (stdlib wave) -> image feature vectors
    (rows-only: no binary driver table; input synthesized
    deterministically; compressed codecs remain documented stubs)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.multimodal import (
        DecodeAudio,
        decode_pipeline,
        synthesize_binary_table,
    )

    ds = rd.from_arrow(synthesize_binary_table(n=128, real=True))
    ds = ds.map_batches(DecodeAudio, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=32, concurrency=(1, 2))
    out = decode_pipeline(ds, batch_size=32)

    def summarize(t):
        import numpy as np
        import pyarrow as pa

        feats = t.column("features")
        if isinstance(feats, pa.ChunkedArray):
            feats = feats.combine_chunks()
        flat = feats.flatten().to_numpy(zero_copy_only=False)
        dim = len(flat) // max(t.num_rows, 1)
        mean_feat = flat.reshape(t.num_rows, dim).mean(axis=1)
        return pa.table(
            {
                "media_id": t.column("media_id"),
                "feat_dim": pa.array([dim] * t.num_rows, pa.int32()),
                "feat_mean": pa.array(mean_feat, pa.float64()),
            }
        )

    return out.map_batches(summarize, batch_format="pyarrow")


def q_multimodal_frames(sf_dir: str):
    """Video frame sampling with ALL-REAL codecs (golden-pinned): synthesize
    deterministic MJPEG-in-AVI clips, walk the RIFF container
    (stages/avic.py), keep every 3rd frame, decode each frame with the
    spec-based baseline JPEG decoder (stages/jpegc.py) under strict=True --
    no stand-ins anywhere -- and summarize per-frame pixel means."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages import avic, jpegc
    from fluent_plugin_geoip_ray.stages.multimodal import (
        DecodeImage,
        SampleFrames,
    )

    payloads = []
    for i in range(12):
        h, w = 24 + (i % 3) * 8, 32 + (i % 2) * 16
        yy, xx = np.mgrid[0:h, 0:w]
        frames = [
            jpegc.encode_jpeg(
                np.stack([(yy * 3 + f * 17 + i) % 256, (xx * 5 + f) % 256,
                          ((yy + xx) * 2) % 256], -1).astype(np.uint8),
                quality=90, subsample=bool(i % 2),
            )
            for f in range(10)
        ]
        payloads.append(avic.encode_avi(frames, w, h))
    t = pa.table({
        "media_id": pa.array(np.arange(12, dtype=np.int64)),
        "payload": pa.array(payloads, pa.binary()),
    })

    def sample(batch: pa.Table) -> pa.Table:
        out = SampleFrames(stride=3, strict=True)(batch)
        return out.rename_columns(["media_id", "frame_idx", "payload"])

    def summarize(batch: pa.Table) -> pa.Table:
        pix = batch.column("pixels")
        if isinstance(pix, pa.ChunkedArray):
            pix = pix.combine_chunks()
        flat = pix.flatten().to_numpy(zero_copy_only=False)
        means = flat.reshape(batch.num_rows, -1).mean(axis=1)
        return pa.table({
            "media_id": batch.column("media_id"),
            "frame_idx": batch.column("frame_idx"),
            "pix_mean": pa.array(means, pa.float64()),
        })

    ds = rd.from_arrow(t)
    ds = ds.map_batches(sample, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=4)
    ds = ds.map_batches(DecodeImage, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=8,
                        concurrency=(1, 2),
                        fn_constructor_kwargs={"out_hw": (8, 8),
                                               "strict": True})
    return ds.map_batches(summarize, batch_format="pyarrow")


def q_corpus_pipeline(sf_dir: str):
    """Composite training-data pipeline over documents: quality filter ->
    exact dedup -> per-language counts + token totals (one streaming chain)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg
    from fluent_plugin_geoip_ray.stages.dedup import dedup_exact
    from fluent_plugin_geoip_ray.stages.text import token_count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")
    ds = ds.map_batches(token_count, batch_format="pyarrow")
    ds = ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_tokens"], 10)),
        batch_format="pyarrow",
    )
    ds = dedup_exact(ds)
    return groupby_agg(
        ds, ["lang"],
        [("n_tokens", "sum", "total_tokens"), ("n_tokens", "count", "n_docs")],
    )


def q_salted_agg(sf_dir: str):
    """Salted two-phase aggregate over the hot-conv-skewed transcripts."""
    from fluent_plugin_geoip_ray.stages.aggregate import salted_groupby_agg

    ds = _transcripts_ds(sf_dir)
    return salted_groupby_agg(
        ds, "conv_id",
        [("turn_idx", "count", "n_turns"), ("turn_idx", "max", "max_turn")],
        salt_buckets=8,
    )


def q_bucketed_join(sf_dir: str):
    """Large-large explicit hash-partitioned join (lineitem x orders), then
    grouped aggregate -- the bucketed-join scale path."""
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg
    from fluent_plugin_geoip_ray.stages.join import bucketed_join

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])
    orders = orders.map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_orderpriority"]),
        batch_format="pyarrow",
    )
    joined = bucketed_join(li, orders, on="l_orderkey", num_buckets=16)
    agg = groupby_agg(
        joined, ["o_orderpriority"],
        [("l_quantity", "sum", "sum_qty"), ("l_quantity", "count", "n")],
    )

    def fixed_point(t):
        i = t.column_names.index("sum_qty")
        return t.set_column(
            i, "sum_qty",
            pc.cast(pc.round(pc.multiply(pc.cast(t.column("sum_qty"), "float64"), 100.0)), "int64"),
        )

    return agg.map_batches(fixed_point, batch_format="pyarrow")


def q_filter_pushdown(sf_dir: str):
    """Predicate + projection pushdown at the read (row-group pruning)."""
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
        filter=(pc.field("event_type") == "error") & (pc.field("value") > 100.0),
    )
    return ds


def q_inject(sf_dir: str):
    """Fluentd inject-helper analog: stamp event_time/hostname columns."""
    import functools

    from fluent_plugin_geoip_ray.stages.parse import inject_columns

    ds = _transcripts_ds(sf_dir)
    return ds.map_batches(
        functools.partial(inject_columns, time_key="event_time", hostname="node-0"),
        batch_format="pyarrow",
    ).select_columns(["conv_id", "turn_idx", "event_time", "hostname"])


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped grouped aggregate via partial+final groupby_agg."""
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )
    agg = groupby_agg(
        ds,
        ["l_returnflag", "l_linestatus"],
        [
            ("l_quantity", "sum", "sum_qty"),
            ("l_extendedprice", "sum", "sum_price"),
            ("l_quantity", "mean", "avg_qty"),
            ("l_quantity", "count", "n"),
        ],
    )

    def round_cols(t):
        # integer fixed-point (see events_tumbling note on rounding modes)
        for c, scale in (("sum_qty", 100.0), ("sum_price", 100.0), ("avg_qty", 10000.0)):
            t = t.set_column(
                t.column_names.index(c), c,
                pc.cast(pc.round(pc.multiply(pc.cast(t.column(c), "float64"), scale)), "int64"),
            )
        return t

    return agg.map_batches(round_cols, batch_format="pyarrow")


def q_anomaly(sf_dir: str):
    """Per-type z-score outliers (value > mean + 3*stddev_pop): two-pass --
    tiny per-type moment aggregate (sum, sumsq, count) broadcast back as
    thresholds, then a vectorized filter. No shuffle of event rows."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])

    def with_sq(t):
        return t.append_column("value_sq", pc.multiply(t["value"], t["value"]))

    moments = groupby_agg(
        ds.map_batches(with_sq, batch_format="pyarrow"),
        ["event_type"],
        [("value", "sum", "s"), ("value_sq", "sum", "ss"), ("value", "count", "n")],
    ).to_pandas()
    mean = moments["s"] / moments["n"]
    std = np.sqrt(np.maximum(moments["ss"] / moments["n"] - mean**2, 0.0))
    # broadcast thresholds as parallel Arrow arrays; per-batch lookup is a
    # vectorized pc.index_in + take (dictionary-encode the type column), not
    # a per-row dict probe
    thr_ref = ray.put((pa.array(moments["event_type"].astype(str)),
                       pa.array((mean + 3.0 * std).to_numpy())))

    def flag(t: pa.Table) -> pa.Table:
        type_keys, cuts = ray.get(thr_ref)
        idx = pc.index_in(t.column("event_type"), value_set=type_keys)
        cut = pc.take(cuts, idx)
        mask = pc.greater(t.column("value"), cut)
        return t.filter(pc.fill_null(mask, False))

    return ds.map_batches(flag, batch_format="pyarrow").select_columns(
        ["event_id", "event_type", "value"]
    )


def q_sample_docs(sf_dir: str):
    """Deterministic hash sampling: keep ~30% of documents by doc_id hash
    (shuffle-free, resumable; oracle replicates the exact hash in SQL)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.sample import hash_sample

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang", "source"])
    return hash_sample(ds, "doc_id", 0.3, seed=7)


def q_sample_split(sf_dir: str):
    """Deterministic train/val/test split by doc_id hash range."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.sample import split

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return split(ds, "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1},
                 seed=3)


def q_sample_per_user(sf_dir: str):
    """Deterministic k-per-group sample: 3 events per user (k smallest
    event_id hashes; partial top-k per batch + tiny final merge)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.sample import sample_per_group

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type"])
    return sample_per_group(ds, "user_id", "event_id", k=3, seed=11)


def q_sample_mix(sf_dir: str):
    """Deterministic weighted corpus mixture: per-source sampling rates over
    documents (src1/src2 full, src3 quarter, others dropped)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.sample import weighted_mix

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source", "lang"])
    return weighted_mix(ds, "doc_id", "source",
                        {"src1": 1.0, "src2": 1.0, "src3": 0.25},
                        default_rate=0.0, seed=5)


def q_pack_docs(sf_dir: str):
    """Token-budget sequence packing: whitespace token counts -> prefix-sum
    bins of 2000 tokens in doc_id order (deterministic, partition-invariant;
    oracle = SQL window sum)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.pack import pack_bins
    from fluent_plugin_geoip_ray.stages.text import token_count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    ds = ds.map_batches(token_count, batch_format="pyarrow")
    ds = ds.select_columns(["doc_id", "n_tokens"])
    return pack_bins(ds, "doc_id", "n_tokens", budget=2000)


def q_quantiles_events(sf_dir: str):
    """Per-type value quantiles (log-pipeline p50/p95): exact mode (list
    partials + numpy linear interpolation == SQL quantile_cont)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import quantiles_by

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    return quantiles_by(ds, "event_type", "value", qs=(0.5, 0.95))


def q_topk_per_user(sf_dir: str):
    """Grouped top-k: each user's 2 highest-value events (algebraic partial
    top-k per batch, deterministic event_id tie-break)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import top_k_by_group

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id", "value"])
    return top_k_by_group(ds, "user_id", "value", k=2, tie_breakers=["event_id"])


def q_redact(sf_dir: str):
    """PII redaction over transcripts: emails / card digit-runs / IPv4
    literals replaced by typed placeholders (one RE2 pass per pattern)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.text import redact

    ds = _transcripts_ds(sf_dir).select_columns(["conv_id", "turn_idx", "text"])
    return ds.map_batches(
        lambda t: redact(t, out_col="redacted"), batch_format="pyarrow"
    ).select_columns(["conv_id", "turn_idx", "redacted"])


def q_compact_latest(sf_dir: str):
    """Log compaction: each user's latest event (CDC latest-state step)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.aggregate import compact_latest

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id", "ts"])
    return compact_latest(ds, "user_id", "ts", tie_breakers=["event_id"])


def q_curation(sf_dir: str):
    """End-to-end corpus curation (the training-data capstone, fully
    SQL-oracled): redact PII -> token/punctuation quality filter -> exact
    dedup on the redacted text -> deterministic train/val/test split ->
    per-split token-budget packing.  One streaming chain of the engine's
    stages; output (doc_id, n_tokens, split, pack_id)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.dedup import dedup_exact
    from fluent_plugin_geoip_ray.stages.pack import pack_bins
    from fluent_plugin_geoip_ray.stages.sample import split as hash_split
    from fluent_plugin_geoip_ray.stages.text import redact, token_count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def prep(t: pa.Table) -> pa.Table:
        t = redact(t)
        t = token_count(t)
        text = t.column("text")
        n_chars = pc.utf8_length(text).cast(pa.float64())
        stripped = pc.replace_substring_regex(text, r"[^\w\s]", "")
        punct = pc.divide(
            pc.subtract(n_chars, pc.utf8_length(stripped).cast(pa.float64())),
            pc.max_element_wise(n_chars, 1.0),
        )
        keep = pc.and_(pc.greater_equal(t.column("n_tokens"), 5),
                       pc.less(punct, 0.2))
        return t.filter(pc.fill_null(keep, False))

    kept = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    deduped = dedup_exact(kept, key_col="doc_id", text_col="text")
    tagged = hash_split(deduped.select_columns(["doc_id", "n_tokens"]),
                        "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1},
                        seed=3)

    parts = []
    for name in ("train", "val", "test"):
        sub = tagged.map_batches(
            lambda t, name=name: t.filter(
                pc.equal(pc.fill_null(t.column("split"), ""), name)
            ),
            batch_format="pyarrow",
        )
        parts.append(pack_bins(sub, "doc_id", "n_tokens", budget=2000))
    out = parts[0].union(parts[1]).union(parts[2])
    return out.select_columns(["doc_id", "n_tokens", "split", "pack_id"])


def q_events_asof(sf_dir: str):
    """As-of join (custom operator Ray Data lacks): each event joined to the
    user's most recent signup event at-or-before its timestamp.  Broadcast
    small side + vectorized lexsort/ffill match; oracle = DuckDB ASOF JOIN."""
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.join import asof_join

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type", "ts"])
    markers = (
        ds.filter(expr="event_type == 'signup'")
        .select_columns(["user_id", "ts", "event_id"])
        .to_pandas()
        .rename(columns={"event_id": "signup_event_id"})
    )
    out = asof_join(ds, markers, on="ts", by="user_id",
                    right_cols={"signup_event_id": "signup_event_id",
                                "ts": "signup_ts"})
    return out.select_columns(["event_id", "signup_event_id", "signup_ts"])


def q_events_asof_big(sf_dir: str):
    """Large-large as-of join: each event joined to the user's most recent
    CLICK at-or-before its timestamp.  The right side is ~20% of the whole
    events table -- proportional to the input, NOT broadcastable at scale --
    so both sides hash-bucket on user_id and each bucket runs the shared
    vectorized matcher (asof_join_big).  Output is tie-proof (marker ts
    only).  Oracle = DuckDB ASOF JOIN."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.join import asof_join_big

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type", "ts"])
    clicks = (
        ds.filter(expr="event_type == 'click'")
        .select_columns(["user_id", "ts"])
    )
    out = asof_join_big(ds, clicks, on="ts", by="user_id",
                        right_cols={"ts": "click_ts"})
    return out.select_columns(["event_id", "click_ts"])


def q_events_range_join(sf_dir: str):
    """Interval (range) join: label each event's value with its tier from a
    static [lo, hi) table -- one searchsorted per batch vs the broadcast
    interval table."""
    import pandas as pd
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.join import range_join

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "value"])
    tiers = pd.DataFrame({
        "lo": [0.0, 50.0, 200.0],
        "hi": [50.0, 200.0, float("inf")],
        "tier": ["low", "mid", "high"],
    })
    return range_join(ds, tiers, "value", out_cols={"tier": "tier"})


def q_events_range_big(sf_dir: str):
    """Large-large keyed interval join: label each non-purchase event with
    the start of the user's purchase window ([purchase_ts, +30min), latest
    start supersedes) active at its timestamp.  The interval side is ~20%
    of the whole events table -- not broadcastable at scale -- so both
    sides hash-bucket on user_id (range_join_big).  Output is tie-proof
    (window start only).  Oracle = DuckDB ASOF JOIN + containment check."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.join import range_join_big

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type", "ts"])

    def to_intervals(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("event_type"), "purchase"))
        hi = pc.add(t.column("ts"),
                    pa.scalar(1_800_000_000, type=pa.duration("us")))
        return pa.table({"user_id": t.column("user_id"),
                         "lo": t.column("ts"), "hi": hi})

    intervals = ds.map_batches(to_intervals, batch_format="pyarrow",
                               zero_copy_batch=True)
    probes = ds.filter(expr="event_type != 'purchase'")
    out = range_join_big(probes, intervals, value_col="ts", by="user_id",
                         out_cols={"lo": "purchase_ts"})
    return out.select_columns(["event_id", "purchase_ts"])


def q_events_tumbling(sf_dir: str):
    """Tumbling 1h event-time windows per event_type (count + sum(value))."""
    import pyarrow.compute as pc
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import tumbling_window

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value", "ts"])
    agg = tumbling_window(
        ds, size_sec=3600, keys=["event_type"],
        aggs=[("value", "count", "n"), ("value", "sum", "sum_value")],
    )

    def rounder(t):
        # integer cents: immune to float summation-order last-bit drift and
        # to the half-even (pyarrow) vs half-up (DuckDB) rounding-mode split
        i = t.column_names.index("sum_value")
        cents = pc.cast(
            pc.round(pc.multiply(pc.cast(t.column("sum_value"), "float64"), 100.0)),
            "int64",
        )
        return t.set_column(i, "sum_value_cents", cents).rename_columns(
            [c if c != "sum_value" else "sum_value_cents" for c in t.column_names]
        )

    return agg.map_batches(rounder, batch_format="pyarrow")


def q_events_sessions(sf_dir: str):
    """Gap-based sessionization per user (30 min gap)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import session_windows

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id", "ts"])
    return session_windows(ds, key="user_id", gap_sec=1800,
                           order_tiebreak="event_id")


def q_events_sliding(sf_dir: str):
    """Sliding 1h windows stepping 15 min (rows-only; window explode)."""
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.window import sliding_window_counts

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])
    return sliding_window_counts(ds, size_sec=3600, step_sec=900,
                                 keys=["event_type"])


def q_conv_stats(sf_dir: str):
    """Per-conversation stats over transcripts: turns, distinct roles span."""
    from fluent_plugin_geoip_ray.stages.aggregate import groupby_agg

    ds = _transcripts_ds(sf_dir)
    return groupby_agg(
        ds,
        ["conv_id"],
        [("turn_idx", "count", "n_turns"),
         ("turn_idx", "max", "max_turn"),
         ("ts", "min", "ts_first"),
         ("ts", "max", "ts_last")],
    )


def queries() -> dict[str, Callable[[str], Any]]:
    # Order matters: the driver correctness-checks ~the first 50 entries per
    # round. Round-5 ordering leads with the 21 queries that had never
    # appeared in a CORRECTNESS_r*.json (VERDICT r4 item 1), then a
    # representative one-per-family core sample, then the remainder.
    return {
        "distinct_pairs": q_distinct_pairs,
        "dedup_images": q_dedup_images,
        "dedup_audio": q_dedup_audio,
        "dedup_videos": q_dedup_videos,
        "spike_windows": q_spike_windows,
        "dense_windows": q_dense_windows,
        "kmeans": q_kmeans,
        "knn_pq": q_knn_pq,
        "knn_ivfpq": q_knn_ivfpq,
        "bpe_merges": q_bpe_merges,
        "quality_classifier": q_quality_classifier,
        "entity_match": q_entity_match,
        "sample_k": q_sample_k,
        "tool_usage": q_tool_usage,
        "role_transitions": q_role_transitions,
        "events_pivot": q_events_pivot,
        "anomalous_events": q_anomalous_events,
        "semantic_dedup": q_semantic_dedup,
        "multimodal_frames": q_multimodal_frames,
        "events_asof_big": q_events_asof_big,
        "events_range_big": q_events_range_big,
        # new in round 5 (keep inside the driver's ~50-query window)
        "dense_windows_2key": q_dense_windows_2key,
        "embed_ann": q_embed_ann,
        "events_cumulative": q_events_cumulative,
        "ranked_events": q_ranked_events,
        "events_moving": q_events_moving,
        "events_moving_time": q_events_moving_time,
        "events_with_stats": q_events_with_stats,
        "events_ewma": q_events_ewma,
        "active_customers": q_active_customers,
        "idle_customers": q_idle_customers,
        "agg_subnet": q_agg_subnet,
        "geo_rings": q_geo_rings,
        "enrich": q_enrich,
        "route_enriched": q_route_enriched,
        "parse_extract": q_parse_extract,
        "enrich_mmdb": q_enrich_mmdb,
        "enrich_dat": q_enrich_dat,
        "agg_country": q_agg_country,
        "agg_conv": q_agg_conv,
        "sorted_text": q_sorted_text,
        "dedup_exact": q_dedup_exact,
        "dedup_minhash": q_dedup_minhash,
        "dedup_ngram": q_dedup_ngram,
        "decontaminate": q_decontaminate,
        "dedup_simhash": q_dedup_simhash,
        "token_count": q_token_count,
        "quality": q_quality,
        "lang_id": q_lang_id,
        "knn": q_knn,
        "knn_ivf": q_knn_ivf,
        "pca": q_pca,
        "mean_pool": q_mean_pool,
        "events_tumbling": q_events_tumbling,
        "events_sessions": q_events_sessions,
        "events_asof": q_events_asof,
        "events_range_join": q_events_range_join,
        "left_join": q_left_join,
        "quantiles_events": q_quantiles_events,
        "topk_per_user": q_topk_per_user,
        "pricing_summary": q_pricing_summary,
        "curation": q_curation,
        "enrich_multi": q_enrich_multi,
        "enrich_nested": q_enrich_nested,
        "events_extract": q_events_extract,
        "bpe_tokens": q_bpe_tokens,
        "chunk_docs": q_chunk_docs,
        "epoch_shuffle": q_epoch_shuffle,
        "select_top": q_select_top,
        "dsir": q_dsir,
        "repetition": q_repetition,
        "dedup_lines": q_dedup_lines,
        "dedup_spans": q_dedup_spans,
        "doc_rank": q_doc_rank,
        "rollup_events": q_rollup_events,
        "users_per_type": q_users_per_type,
        "dedup_incr": q_dedup_incr,
        "validated_events": q_validated_events,
        "full_join": q_full_join,
        "composite_join": q_composite_join,
        "stratified_docs": q_stratified_docs,
        "user_journeys": q_user_journeys,
        "cube_events": q_cube_events,
        "exploded_embeddings": q_exploded_embeddings,
        "top_types": q_top_types,
        "normalized_docs": q_normalized_docs,
        "value_hist": q_value_hist,
        "events_asof_fwd": q_events_asof_fwd,
        "winsorized": q_winsorized,
        "events_lag": q_events_lag,
        "rate_limited": q_rate_limited,
        "vocab": q_vocab,
        "tfidf": q_tfidf,
        "events_funnel": q_events_funnel,
        "lm_score": q_lm_score,
        "profile": q_profile,
        "embedding_near_dup": q_embedding_near_dup,
        "events_topk": q_events_topk,
        "events_join": q_events_join,
        "grok": q_grok,
        "role_pivot": q_role_pivot,
        "distinct": q_distinct,
        "multimodal": q_multimodal,
        "corpus_pipeline": q_corpus_pipeline,
        "salted_agg": q_salted_agg,
        "bucketed_join": q_bucketed_join,
        "filter_pushdown": q_filter_pushdown,
        "inject": q_inject,
        "anomaly": q_anomaly,
        "sample_docs": q_sample_docs,
        "sample_split": q_sample_split,
        "sample_per_user": q_sample_per_user,
        "sample_mix": q_sample_mix,
        "pack_docs": q_pack_docs,
        "compact_latest": q_compact_latest,
        "redact": q_redact,
        "events_sliding": q_events_sliding,
        "conv_stats": q_conv_stats,
    }


# --------------------------------------------------------------------------
# oracle SQL (DuckDB, same parquet bytes)
# --------------------------------------------------------------------------

_PARSED = f"""
    SELECT conv_id, turn_idx,
           nullif(regexp_extract(text, '{IPV4}', 1), '') AS ip,
           nullif(coalesce(regexp_extract_all(text, '{IPV4}')[2], ''), '') AS ip2,
           nullif(regexp_extract(text, '(host_[a-z]+)', 1), '') AS host,
           text
    FROM read_parquet('{_T_PATH}')
"""

# enrich semantics (filter_geoip.rb:187-202): LEFT JOIN against the fixture;
# found-doc-with-null-lat/lon coalesces to 0.0, unknown IP stays NULL
_ENRICHED = f"""
    SELECT p.conv_id, p.turn_idx, p.ip, p.text,
           g.city_names_en AS city,
           g.country_iso_code AS country_code,
           g.country_names_en AS country_name,
           g.subdiv0_iso_code AS region,
           CASE WHEN g.ip IS NOT NULL THEN coalesce(g.location_latitude, 0.0) END AS latitude,
           CASE WHEN g.ip IS NOT NULL THEN coalesce(g.location_longitude, 0.0) END AS longitude,
           (g.ip IS NOT NULL AND g.city_names_en IS NOT NULL) AS enriched
    FROM ({_PARSED}) p
    LEFT JOIN read_parquet('{_G_PATH}') g ON p.ip = g.ip
"""


from fluent_plugin_geoip_ray.functions.geo import sql_haversine_expr as _she

_SQL_HAVERSINE = _she("latitude", "longitude", *_GEO_REF)

from fluent_plugin_geoip_ray.stages.sample import sql_hash_expr as _shx

_SAMPLE_DOCS_SQL = f"""
    SELECT doc_id, lang, source FROM documents
    WHERE {_shx("doc_id", 7)} < CAST({int(0.3 * 2**64)} AS UBIGINT)"""

_SAMPLE_SPLIT_SQL = f"""
    SELECT doc_id,
           CASE WHEN {_shx("doc_id", 3)} < CAST({min(int(0.8 * 2**64), 2**64 - 1)} AS UBIGINT) THEN 'train'
                WHEN {_shx("doc_id", 3)} < CAST({min(int(0.9 * 2**64), 2**64 - 1)} AS UBIGINT) THEN 'val'
                WHEN {_shx("doc_id", 3)} < CAST({2**64 - 1} AS UBIGINT) THEN 'test'
                ELSE NULL END AS split
    FROM documents"""

_SAMPLE_PER_USER_SQL = f"""
    SELECT event_id, user_id, event_type FROM (
        SELECT *, row_number() OVER (
            PARTITION BY user_id ORDER BY {_shx("event_id", 11)}, event_id
        ) AS rn FROM events
    ) WHERE rn <= 3"""


_SAMPLE_MIX_SQL = f"""
    SELECT doc_id, source, lang FROM documents
    WHERE {_shx("doc_id", 5)} < CAST(
        CASE source WHEN 'src1' THEN 18446744073709551615 WHEN 'src2' THEN 18446744073709551615
                    WHEN 'src3' THEN 4611686018427387904 ELSE 0 END
        AS UBIGINT)"""


_PACK_DOCS_SQL = """
    WITH toks AS (
        SELECT doc_id,
               len(regexp_split_to_array(text, '\\s+')) AS n_tokens
        FROM documents
    )
    SELECT doc_id, n_tokens,
           CAST((sum(n_tokens) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
                 - n_tokens) // 2000 AS BIGINT) AS pack_id
    FROM toks"""


_REDACT_EXPR = (
    "regexp_replace(regexp_replace(regexp_replace(text,"
    " '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'),"
    " '\\b\\d(?:[ -]?\\d){12,15}\\b', '<CARD>', 'g'),"
    " '\\b(?:\\d{1,3}\\.){3}\\d{1,3}\\b', '<IP>', 'g')"
)

_CURATION_SQL = f"""
    WITH red AS (
        SELECT doc_id, {_REDACT_EXPR} AS text FROM documents
    ),
    tok AS (
        SELECT doc_id, text,
               CASE WHEN length(text) = 0 THEN 0
                    ELSE len(regexp_split_to_array(text, '\\s+')) END AS n_tokens,
               (length(text) - length(regexp_replace(text, '[^\\w\\s]', '', 'g')))::DOUBLE
                 / greatest(length(text), 1) AS punct_ratio
        FROM red
    ),
    kept AS (
        SELECT * FROM tok WHERE n_tokens >= 5 AND punct_ratio < 0.2
    ),
    ded AS (
        SELECT k.* FROM kept k
        JOIN (SELECT text, min(doc_id) AS keep_id FROM kept GROUP BY text) w
          ON k.text = w.text AND k.doc_id = w.keep_id
    ),
    spl AS (
        SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
               CASE WHEN {_shx("doc_id", 3)} < CAST(14757395258967642112 AS UBIGINT) THEN 'train'
                    WHEN {_shx("doc_id", 3)} < CAST(16602069666338596864 AS UBIGINT) THEN 'val'
                    WHEN {_shx("doc_id", 3)} < CAST(18446744073709551615 AS UBIGINT) THEN 'test'
                    ELSE NULL END AS split
        FROM ded
    )
    SELECT doc_id, n_tokens, split,
           CAST((sum(n_tokens) OVER (PARTITION BY split ORDER BY doc_id
                                     ROWS UNBOUNDED PRECEDING) - n_tokens)
                // 2000 AS BIGINT) AS pack_id
    FROM spl"""


def oracle_sql() -> dict[str, str]:
    return {
        "parse_extract": f"SELECT conv_id, turn_idx, ip, ip2, host FROM ({_PARSED})",
        # LangId heuristic replicated in SQL: same whitespace tokenization,
        # same marker sets, hits/n_tok scores, first-max tie-break in the
        # fixed language order (numpy argmax semantics)
        "lang_id": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_split_to_array(lower(text), '\\s+')) AS tok
                FROM documents
            ),
            agg AS (
                SELECT doc_id, count(*) AS n,
                   sum(CASE WHEN tok IN ('and', 'for', 'in', 'is', 'it', 'of', 'that', 'the', 'to', 'was', 'with') THEN 1 ELSE 0 END)::DOUBLE AS h_en,
                   sum(CASE WHEN tok IN ('de', 'el', 'en', 'la', 'las', 'los', 'por', 'que', 'un', 'una', 'y') THEN 1 ELSE 0 END)::DOUBLE AS h_es,
                   sum(CASE WHEN tok IN ('dans', 'des', 'et', 'la', 'le', 'les', 'pour', 'que', 'sur', 'une') THEN 1 ELSE 0 END)::DOUBLE AS h_fr,
                   sum(CASE WHEN tok IN ('das', 'der', 'die', 'ein', 'eine', 'ist', 'mit', 'nicht', 'und', 'von') THEN 1 ELSE 0 END)::DOUBLE AS h_de
                FROM toks GROUP BY doc_id
            ),
            sc AS (
                SELECT doc_id,
                   h_en / greatest(n, 1) AS s_en,
                   h_es / greatest(n, 1) AS s_es,
                   h_fr / greatest(n, 1) AS s_fr,
                   h_de / greatest(n, 1) AS s_de
                FROM agg
            )
            SELECT doc_id,
                   CASE WHEN greatest(s_en, s_es, s_fr, s_de) = 0 THEN 'unknown'
                        WHEN s_en >= s_es AND s_en >= s_fr AND s_en >= s_de THEN 'en'
                        WHEN s_es >= s_fr AND s_es >= s_de THEN 'es'
                        WHEN s_fr >= s_de THEN 'fr'
                        ELSE 'de' END AS lang_pred,
                   greatest(s_en, s_es, s_fr, s_de) AS lang_score
            FROM sc""",
        # near-dup hash logic (pandas hash_array) is not SQL-replicable;
        # pinned goldens committed under tests/golden/ make these
        # regression-gated instead of rows-only: the oracle reads the
        # committed expected output for the fixed sf0.01 input
        "dedup_simhash": f"SELECT doc_id, lang, source FROM"
                         f" read_parquet('{_GOLDEN_DIR}/dedup_simhash_sf001.parquet')",
        "dedup_minhash": f"SELECT doc_id, lang, source FROM"
                         f" read_parquet('{_GOLDEN_DIR}/dedup_minhash_sf001.parquet')",
        "multimodal": f"SELECT media_id, feat_dim, feat_mean FROM"
                      f" read_parquet('{_GOLDEN_DIR}/multimodal_sf001.parquet')",
        "multimodal_frames": f"SELECT media_id, frame_idx, pix_mean FROM"
                             f" read_parquet('{_GOLDEN_DIR}/multimodal_frames_sf001.parquet')",
        "pca": f"SELECT vec_id, p0, p1, p2, p3 FROM"
               f" read_parquet('{_GOLDEN_DIR}/pca_sf001.parquet')",
        "knn_ivf": f"SELECT query_id, vec_id, rank FROM"
                   f" read_parquet('{_GOLDEN_DIR}/knn_ivf_sf001.parquet')",
        "embedding_near_dup": f"SELECT vec_id, label FROM"
                              f" read_parquet('{_GOLDEN_DIR}/embedding_near_dup_sf001.parquet')",
        # known-answer oracle: the constructed duplicates provably all lose
        # to their lower original ids (see q_semantic_dedup docstring)
        "semantic_dedup": "SELECT vec_id, label FROM embeddings",

        "enrich": f"SELECT conv_id, turn_idx, ip, city, country_code, country_name,"
                  f" region, latitude, longitude FROM ({_ENRICHED})",
        "enrich_mmdb": f"SELECT conv_id, turn_idx, ip, city, country_code, country_name,"
                       f" region, latitude, longitude FROM ({_ENRICHED})",
        # legacy .dat backend: flat 9-key docs; country_code3 / dma_code
        # derived exactly as fixture_flat_docs("geoip") pins them
        "enrich_dat": f"""
            SELECT p.conv_id, p.turn_idx, p.ip,
                   g.city_names_en AS city,
                   g.country_iso_code AS country_code,
                   CASE g.country_iso_code WHEN 'US' THEN 'USA'
                        WHEN 'JP' THEN 'JPN' WHEN 'AF' THEN 'AFG' END
                       AS country_code3,
                   g.country_names_en AS country_name,
                   g.subdiv0_iso_code AS region,
                   CASE WHEN g.ip LIKE '66.102%' THEN 807 END AS dma_code
            FROM ({_PARSED}) p
            LEFT JOIN read_parquet('{_G_PATH}') g ON p.ip = g.ip""",
        "route_enriched": f"""
            SELECT conv_id, turn_idx,
                   'enriched.' || CASE ((turn_idx) % 3)
                       WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS tag,
                   ip, city, country_code, country_name, region, latitude, longitude
            FROM ({_ENRICHED}) WHERE enriched""",
        "agg_country": f"SELECT country_code, count(*) AS n FROM ({_ENRICHED})"
                       f" WHERE enriched GROUP BY country_code",
        "agg_conv": f"SELECT conv_id, count(*) AS n FROM ({_ENRICHED})"
                    f" WHERE enriched GROUP BY conv_id",
        "sorted_text": f"SELECT conv_id, turn_idx, text FROM ({_ENRICHED})"
                       f" WHERE enriched ORDER BY conv_id, turn_idx",
        "enrich_multi": f"""
            SELECT p.conv_id, p.turn_idx,
                   g1.country_iso_code AS from_country,
                   g2.country_iso_code AS to_country,
                   g3.city_names_en AS host_city
            FROM ({_PARSED}) p
            LEFT JOIN read_parquet('{_G_PATH}') g1 ON p.ip = g1.ip
            LEFT JOIN read_parquet('{_G_PATH}') g2 ON p.ip2 = g2.ip
            LEFT JOIN read_parquet('{_G_PATH}') g3 ON p.host = g3.ip""",
        "enrich_nested": f"""
            SELECT p.conv_id, p.turn_idx,
                   g.city_names_en AS city,
                   g.country_iso_code AS country_code
            FROM ({_PARSED}) p
            LEFT JOIN read_parquet('{_G_PATH}') g ON p.ip = g.ip""",
        "events_extract": "SELECT event_id, CAST(regexp_extract(props, '\"k\": (\\d+)', 1)"
                          " AS BIGINT) AS k FROM events",
        "dedup_exact": """
            SELECT doc_id, lang, source FROM documents
            WHERE doc_id IN (SELECT min(doc_id) FROM documents GROUP BY text)""",
        # exact n-gram Jaccard: same tokenization (\s+ split of lowered
        # text), word-3-grams (whole doc if < 3 tokens), drop iff an
        # EARLIER doc has |intersect| >= t * |union| -- the engine computes
        # the identical predicate over hashed gram sets
        "entity_match": r"""
            WITH tokL AS (
              SELECT doc_id, string_split_regex(lower(text), '\s+') AS toks
              FROM documents WHERE doc_id % 2 = 0
            ),
            tokexpL AS (
              SELECT doc_id, unnest(toks) AS tok,
                     generate_subscripts(toks, 1) AS pos, len(toks) AS n
              FROM tokL
            ),
            gramsL AS (
              SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS gram
              FROM tokexpL a
              JOIN tokexpL b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
              JOIN tokexpL c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
              UNION ALL
              SELECT doc_id, string_agg(tok, ' ' ORDER BY pos)
              FROM tokexpL WHERE n < 3 GROUP BY doc_id
            ),
            gsetL AS (SELECT DISTINCT doc_id, gram FROM gramsL),
            szL AS (SELECT doc_id, count(*) AS s FROM gsetL GROUP BY doc_id),
            tokR AS (
              SELECT doc_id, string_split_regex(lower(text), '\s+') AS toks
              FROM documents WHERE doc_id % 2 = 1
            ),
            tokexpR AS (
              SELECT doc_id, unnest(toks) AS tok,
                     generate_subscripts(toks, 1) AS pos, len(toks) AS n
              FROM tokR
            ),
            gramsR AS (
              SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS gram
              FROM tokexpR a
              JOIN tokexpR b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
              JOIN tokexpR c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
              UNION ALL
              SELECT doc_id, string_agg(tok, ' ' ORDER BY pos)
              FROM tokexpR WHERE n < 3 GROUP BY doc_id
            ),
            gsetR AS (SELECT DISTINCT doc_id, gram FROM gramsR),
            szR AS (SELECT doc_id, count(*) AS s FROM gsetR GROUP BY doc_id),
            inter AS (
              SELECT l.doc_id AS lk, r.doc_id AS rk, count(*) AS i
              FROM gsetL l JOIN gsetR r ON r.gram = l.gram GROUP BY 1, 2
            )
            SELECT i.lk AS left_key, i.rk AS right_key,
                   CAST(i.i AS DOUBLE) / (s1.s + s2.s - i.i) AS jaccard
            FROM inter i JOIN szL s1 ON s1.doc_id = i.lk
                         JOIN szR s2 ON s2.doc_id = i.rk
            WHERE CAST(i.i AS DOUBLE) / (s1.s + s2.s - i.i) >= 0.5""",
        "dedup_ngram": r"""
            WITH tok AS (
              SELECT doc_id, string_split_regex(lower(text), '\s+') AS toks
              FROM documents
            ),
            tokexp AS (
              SELECT doc_id, unnest(toks) AS tok,
                     generate_subscripts(toks, 1) AS pos, len(toks) AS n
              FROM tok
            ),
            grams AS (
              SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS gram
              FROM tokexp a
              JOIN tokexp b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
              JOIN tokexp c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
              UNION ALL
              SELECT doc_id, string_agg(tok, ' ' ORDER BY pos)
              FROM tokexp WHERE n < 3 GROUP BY doc_id
            ),
            gset AS (SELECT DISTINCT doc_id, gram FROM grams),
            sz AS (SELECT doc_id, count(*) AS s FROM gset GROUP BY doc_id),
            inter AS (
              SELECT g1.doc_id AS a, g2.doc_id AS b, count(*) AS i
              FROM gset g1
              JOIN gset g2 ON g2.gram = g1.gram AND g2.doc_id < g1.doc_id
              GROUP BY 1, 2
            ),
            dups AS (
              SELECT DISTINCT i.a AS doc_id
              FROM inter i JOIN sz s1 ON s1.doc_id = i.a
                           JOIN sz s2 ON s2.doc_id = i.b
              WHERE i.i >= 0.5 * (s1.s + s2.s - i.i)
            )
            SELECT doc_id, lang, source FROM documents
            WHERE doc_id NOT IN (SELECT doc_id FROM dups)""",
        # GPT-3-style n-gram decontamination: eval set = every 20th doc;
        # drop a train doc iff it shares any word-4-gram with the eval set.
        # Short docs (< 4 tokens) contribute their whole-doc gram -- the
        # slice clamp (toks[p:p+3] with p=1) reproduces the engine's
        # whole-doc fold convention.
        "decontaminate": r"""
            WITH tok AS (
              SELECT doc_id, string_split_regex(lower(text), '\s+') AS toks
              FROM documents
            ),
            pos AS (
              SELECT doc_id, toks,
                     unnest(range(1, greatest(len(toks) - 2, 2))) AS p
              FROM tok
            ),
            grams AS (
              SELECT doc_id, array_to_string(toks[p:p+3], ' ') AS gram
              FROM pos
            ),
            egrams AS (SELECT DISTINCT gram FROM grams WHERE doc_id % 20 = 0),
            bad AS (
              SELECT DISTINCT g.doc_id
              FROM grams g JOIN egrams e USING (gram)
              WHERE g.doc_id % 20 <> 0
            )
            SELECT doc_id, lang, source FROM documents
            WHERE doc_id % 20 <> 0
              AND doc_id NOT IN (SELECT doc_id FROM bad)""",
        # context-window chunking: chunk i covers tokens [i*24, i*24+32)
        # while i*24 < n_tokens; 1-based DuckDB list slices clamp like the
        # engine's length = min(window, n - start)
        "chunk_docs": r"""
            WITH tok AS (
              SELECT doc_id, string_split_regex(text, '\s+') AS toks
              FROM documents
            ),
            starts AS (
              SELECT doc_id, toks,
                     unnest(range(1, len(toks) + 1, 24)) AS p
              FROM tok
            )
            SELECT doc_id,
                   CAST((p - 1) / 24 AS BIGINT) AS chunk_idx,
                   array_to_string(toks[p:p+31], ' ') AS chunk_text,
                   least(32, len(toks) - p + 1) AS n_tokens
            FROM starts""",
        # exact stratified sampling: identical hash + per-stratum rank
        "stratified_docs": f"""
            SELECT doc_id, lang FROM (
              SELECT doc_id, lang,
                     ROW_NUMBER() OVER (
                       PARTITION BY lang
                       ORDER BY {_shx("doc_id", 0)}, doc_id) AS rn,
                     count(*) OVER (PARTITION BY lang) AS n
              FROM documents)
            WHERE rn <= CAST(ceil(0.3 * n) AS BIGINT)""",
        # ordered per-user assembly
        "user_journeys": """
            SELECT user_id,
                   string_agg(event_type, '|' ORDER BY ts, event_id)
                     AS journey,
                   CAST(count(*) AS BIGINT) AS n_parts
            FROM events GROUP BY user_id""",
        # composite-key equi-join against a composite aggregate
        "composite_join": """
            SELECT e.event_id, e.user_id, e.event_type, a.n_ut
            FROM events e JOIN (
              SELECT user_id, event_type, count(value) AS n_ut
              FROM events GROUP BY user_id, event_type) a
            USING (user_id, event_type)""",
        # FULL OUTER join, both sides partially unmatched, coalesced key
        "full_join": """
            SELECT coalesce(c.c_custkey, e.k) AS c_custkey, c.c_name,
                   e.n_events
            FROM customer c FULL JOIN (
              SELECT CAST(user_id + 1400 AS BIGINT) AS k,
                     count(event_id) AS n_events
              FROM events GROUP BY user_id) e
            ON e.k = c.c_custkey""",
        # dead-letter gate: first failing rule, NULL predicate rejects
        "validated_events": """
            SELECT event_id, value, event_type,
                   CASE
                     WHEN (value BETWEEN 0 AND 80) IS NOT TRUE
                       THEN 'value_in_range'
                     WHEN (event_type <> 'error') IS NOT TRUE
                       THEN 'event_type_not_equal'
                     ELSE NULL END AS reject_reason
            FROM events""",
        # per-label embedding centroid, 1e-6-quantized long form
        "mean_pool": """
            WITH e AS (
              SELECT label, unnest(embedding) AS v,
                     unnest(range(1, len(embedding) + 1)) AS pos
              FROM embeddings
            )
            SELECT CAST(label AS BIGINT) AS label,
                   CAST(pos - 1 AS BIGINT) AS pos,
                   CAST(round(avg(CAST(v AS DOUBLE)) * 1e6) AS BIGINT) AS c
            FROM e GROUP BY label, pos""",
        # KNOWN-ANSWER: survivors of the incremental dedup are exactly
        # the even-id novel docs (odd-id exact copies provably drop)
        "dedup_incr": """
            SELECT CAST(doc_id + 1000000 AS BIGINT) AS doc_id
            FROM documents WHERE doc_id < 100 AND doc_id % 2 = 0""",
        # exact two-level COUNT(DISTINCT)
        "users_per_type": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY event_type""",
        # quota throttle: first 2 rows per (user, 1h window) by (ts, id)
        "rate_limited": """
            SELECT event_id, user_id, ts, event_type FROM events
            QUALIFY ROW_NUMBER() OVER (
              PARTITION BY user_id, epoch_us(ts) // 3600000000
              ORDER BY ts, event_id) <= 2""",
        # LEFT OUTER join: unmatched left rows carry NULL aggregates
        "left_join": """
            SELECT c.c_custkey, c.c_name, e.n_events, e.se
            FROM customer c LEFT JOIN (
              SELECT user_id, count(event_id) AS n_events,
                     CAST(sum(event_id) AS BIGINT) AS se
              FROM events GROUP BY user_id) e
            ON e.user_id = c.c_custkey""",
        # exact global rank + decile: identical window functions
        "doc_rank": """
            SELECT doc_id, n_chars,
                   ROW_NUMBER() OVER (ORDER BY n_chars DESC, doc_id)
                     AS rank,
                   CAST(NTILE(10) OVER (ORDER BY n_chars DESC, doc_id)
                        AS BIGINT) AS tile
            FROM documents""",
        # normalization chain: lower -> strip punct -> collapse ws -> trim
        "normalized_docs": r"""
            SELECT doc_id,
                   trim(regexp_replace(
                     regexp_replace(lower(text), '[^\w\s]', '', 'g'),
                     '\s+', ' ', 'g')) AS text
            FROM documents""",
        # LAG/LEAD navigation, bit-exact copies
        "events_lag": """
            SELECT event_id, user_id, ts, value,
                   LAG(value) OVER w AS prev_value,
                   LEAD(ts) OVER w AS next_ts
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)""",
        # per-group quantile clipping; quantile_cont bit-identical
        "winsorized": """
            SELECT e.event_id, e.event_type,
                   least(greatest(e.value, b.lo), b.hi) AS value
            FROM events e JOIN (
              SELECT event_type,
                     quantile_cont(value, 0.05) AS lo,
                     quantile_cont(value, 0.95) AS hi
              FROM events GROUP BY event_type) b
            USING (event_type)""",
        # fixed-width histogram, edge-clipped, identical floor arithmetic
        "value_hist": """
            SELECT bin, 0.0 + bin * 5.0 AS lo_edge,
                   CAST(count(*) AS BIGINT) AS n
            FROM (SELECT CAST(least(greatest(
                           floor((value - 0.0) / 5.0), 0), 19) AS BIGINT)
                    AS bin
                  FROM events WHERE value IS NOT NULL)
            GROUP BY bin""",
        # MG heavy hitters; m >= distinct -> exact counts
        "top_types": """
            SELECT event_type, count(*) AS est_count
            FROM events GROUP BY event_type
            ORDER BY est_count DESC, event_type LIMIT 5""",
        # UNNEST with position; cast-only floats compare exactly
        "exploded_embeddings": """
            SELECT vec_id,
                   CAST(unnest(range(1, len(embedding) + 1)) - 1 AS BIGINT)
                     AS pos,
                   CAST(unnest(embedding) AS DOUBLE) AS v
            FROM embeddings""",
        # CUBE: all four grouping sets, order-independent aggs
        "cube_events": """
            SELECT event_type, user_id,
                   count(value) AS c, min(value) AS mn, max(value) AS mx,
                   CAST(sum(event_id) AS BIGINT) AS se
            FROM events GROUP BY CUBE(event_type, user_id)""",
        # ROLLUP: aggregates at (event_type,user_id), (event_type), ()
        # with rolled-up key columns NULL; order-independent aggs only
        "rollup_events": """
            SELECT event_type, user_id,
                   count(value) AS c, min(value) AS mn, max(value) AS mx,
                   CAST(sum(event_id) AS BIGINT) AS se
            FROM events GROUP BY ROLLUP(event_type, user_id)""",
        # duplicate-SPAN removal: a token is cut iff covered by some
        # 6-token window whose lowercased form occurs >= 2 times
        # corpus-wide (all occurrences); kept tokens re-join with single
        # spaces (the engine's whitespace-normalizing rebuild)
        "dedup_spans": r"""
            WITH toks AS (
              SELECT doc_id,
                     string_split_regex(text, '\s+') AS raw,
                     string_split_regex(lower(text), '\s+') AS low
              FROM documents
            ),
            wins AS (
              SELECT doc_id, p, array_to_string(low[p:p+5], ' ') AS w
              FROM (SELECT doc_id, low,
                           unnest(range(1, len(low) - 4)) AS p
                    FROM toks)
            ),
            hot AS (SELECT w FROM wins GROUP BY w HAVING count(*) >= 2),
            hits AS (SELECT doc_id, p FROM wins
                     WHERE w IN (SELECT w FROM hot)),
            tok_rows AS (
              SELECT doc_id, unnest(raw) AS tok,
                     unnest(range(1, len(raw) + 1)) AS tp
              FROM toks
            ),
            marked AS (
              SELECT t.doc_id, t.tok, t.tp,
                     NOT EXISTS (SELECT 1 FROM hits h
                                 WHERE h.doc_id = t.doc_id
                                   AND t.tp BETWEEN h.p AND h.p + 5) AS keep
              FROM tok_rows t
            )
            SELECT doc_id,
                   coalesce(string_agg(tok, ' ' ORDER BY tp)
                            FILTER (WHERE keep), '') AS text,
                   CAST(count(*) FILTER (WHERE NOT keep) AS BIGINT)
                     AS tokens_removed
            FROM marked GROUP BY doc_id""",
        # line-level boilerplate removal: multi-line text derived by the
        # identical replace chain; a line is removed iff trim(lower(line))
        # is non-empty and appears in >= 3 distinct docs; kept lines
        # re-join in original order (docs losing every line rebuild as '')
        "dedup_lines": """
            WITH docs AS (
              SELECT doc_id,
                     replace(replace(replace(replace(replace(replace(
                       replace(replace(text,
                       'join', chr(10)), 'hash', chr(10)), 'row', chr(10)),
                       'batch', chr(10)), 'scan', chr(10)),
                       'column', chr(10)), 'customer', chr(10)),
                       'filter', chr(10)) AS t
              FROM documents
            ),
            lines AS (
              SELECT doc_id,
                     unnest(string_split(t, chr(10))) AS line,
                     unnest(range(1, len(string_split(t, chr(10))) + 1))
                       AS pos
              FROM docs
            ),
            keys AS (
              SELECT doc_id, pos, line, trim(lower(line)) AS k FROM lines
            ),
            hot AS (
              SELECT k FROM keys WHERE k <> ''
              GROUP BY k HAVING count(DISTINCT doc_id) >= 3
            ),
            marked AS (
              SELECT doc_id, pos, line,
                     (k = '' OR k NOT IN (SELECT k FROM hot)) AS keep
              FROM keys
            )
            SELECT doc_id,
                   coalesce(string_agg(line, chr(10) ORDER BY pos)
                            FILTER (WHERE keep), '') AS text,
                   CAST(count(*) FILTER (WHERE NOT keep) AS BIGINT)
                     AS lines_removed
            FROM marked GROUP BY doc_id""",
        # one-pass numeric profiling: one row per column; mean = exact
        # integer-valued double sum / count on both engines
        "profile": """
            SELECT 'doc_id' AS column, count(*) AS n,
                   count(*) - count(doc_id) AS nulls,
                   CAST(min(doc_id) AS DOUBLE) AS min,
                   CAST(max(doc_id) AS DOUBLE) AS max,
                   CAST(sum(doc_id) AS DOUBLE) / count(doc_id) AS mean
            FROM documents
            UNION ALL
            SELECT 'n_chars', count(*), count(*) - count(n_chars),
                   CAST(min(n_chars) AS DOUBLE), CAST(max(n_chars) AS DOUBLE),
                   CAST(sum(n_chars) AS DOUBLE) / count(n_chars)
            FROM documents""",
        # bigram LM affinity: integer fixed-point MLE P(w2|w1) summed per
        # doc -- bit-exact across engines (// is integer division)
        "lm_score": r"""
            WITH tok AS (
              SELECT doc_id, string_split_regex(lower(text), '\s+') AS toks
              FROM documents
            ),
            tokexp AS (
              SELECT doc_id, unnest(toks) AS w,
                     unnest(range(1, len(toks) + 1)) AS p
              FROM tok
            ),
            tokf AS (
              SELECT doc_id, w,
                     row_number() OVER (PARTITION BY doc_id ORDER BY p) AS p
              FROM tokexp WHERE w <> ''
            ),
            uni AS (SELECT w, count(*) AS c FROM tokf
                    WHERE doc_id % 10 = 0 GROUP BY w),
            bi AS (
              SELECT a.w AS w1, b.w AS w2, count(*) AS c
              FROM tokf a JOIN tokf b
                ON b.doc_id = a.doc_id AND b.p = a.p + 1
              WHERE a.doc_id % 10 = 0 GROUP BY 1, 2
            ),
            pairs AS (
              SELECT a.doc_id, a.w AS w1, b.w AS w2
              FROM tokf a JOIN tokf b
                ON b.doc_id = a.doc_id AND b.p = a.p + 1
              WHERE a.doc_id % 10 <> 0
            )
            SELECT d.doc_id,
                   CAST(coalesce(sum(
                     (coalesce(bi.c, 0) * 1000000) // coalesce(uni.c, 1)
                   ), 0) AS BIGINT) AS lm_affinity
            FROM (SELECT doc_id FROM documents WHERE doc_id % 10 <> 0) d
            LEFT JOIN pairs p ON p.doc_id = d.doc_id
            LEFT JOIN bi ON bi.w1 = p.w1 AND bi.w2 = p.w2
            LEFT JOIN uni ON uni.w = p.w1
            GROUP BY d.doc_id""",
        # token vocabulary: whitespace-split lowered tokens, empty tokens
        # dropped; top-20 by count with token-ascending tie-break
        "vocab": r"""
            WITH tok AS (
              SELECT unnest(string_split_regex(lower(text), '\s+')) AS token
              FROM documents
            )
            SELECT token, count(*) AS count FROM tok WHERE token <> ''
            GROUP BY token ORDER BY count DESC, token LIMIT 20""",
        "tfidf": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(string_split_regex(lower(text), '\s+')) AS token
              FROM documents
            ), tf AS (
              SELECT doc_id, token, count(*) AS tf FROM tok
              WHERE token <> '' GROUP BY doc_id, token
            ), df AS (
              SELECT token, count(*) AS df FROM tf GROUP BY token
            )
            SELECT tf.doc_id, tf.token, tf.tf, df.df,
                   (SELECT count(*) FROM documents) AS n_docs
            FROM tf JOIN df USING (token)""",
        "distinct_pairs": "SELECT DISTINCT user_id, event_type FROM events",
        # known-answer construction (see q_dedup_images docstring)
        "dedup_images": "SELECT CAST(range AS BIGINT) AS media_id"
                        " FROM range(0, 40)",
        # known-answer construction (see q_dedup_audio docstring)
        "dedup_audio": "SELECT CAST(range AS BIGINT) AS media_id"
                       " FROM range(0, 30)",
        # known-answer construction (see q_dedup_videos docstring)
        "dedup_videos": "SELECT CAST(range AS BIGINT) AS media_id"
                        " FROM range(0, 12)",
        "events_funnel": """
            WITH s1 AS (SELECT user_id, min(ts) AS t1 FROM events
                        WHERE event_type = 'view' GROUP BY user_id),
            s2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e
                   JOIN s1 USING (user_id)
                   WHERE e.event_type = 'click' AND e.ts > s1.t1
                   GROUP BY e.user_id),
            s3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e
                   JOIN s2 USING (user_id)
                   WHERE e.event_type = 'purchase' AND e.ts > s2.t2
                   GROUP BY e.user_id)
            SELECT s1.user_id, s1.t1, s2.t2, s3.t3
            FROM s1 LEFT JOIN s2 USING (user_id)
                    LEFT JOIN s3 USING (user_id)""",
        "role_transitions": f"""
            SELECT prev_role, role, count(*) AS n FROM (
              SELECT role, lag(role) OVER (
                PARTITION BY conv_id ORDER BY turn_idx) AS prev_role
              FROM read_parquet('{_T_PATH}')
            ) WHERE prev_role IS NOT NULL GROUP BY prev_role, role""",
        "events_pivot": """
            SELECT user_id,
                   count(*) FILTER (event_type = 'click') AS click,
                   count(*) FILTER (event_type = 'view') AS view,
                   count(*) FILTER (event_type = 'purchase') AS purchase,
                   count(*) FILTER (event_type NOT IN
                                    ('click', 'view', 'purchase')) AS other
            FROM events GROUP BY user_id""",
        "anomalous_events": """
            SELECT event_id, event_type, value FROM (
              SELECT event_id, event_type, value,
                     avg(value) OVER (PARTITION BY event_type) AS m,
                     stddev_pop(value) OVER (PARTITION BY event_type) AS s
              FROM events)
            WHERE abs(value - m) > 3.0 * s""",
        # deterministic epoch shuffle: rank under the identical Knuth hash
        # (bijective on uint64 -> no ties), 0-based like the engine
        "epoch_shuffle": """
            SELECT doc_id, lang,
                   CAST(ROW_NUMBER() OVER (ORDER BY
                     CAST((CAST(doc_id AS HUGEINT) * 11400714819323198485
                           + CAST(7 AS HUGEINT) * 14029467366897019727)
                          % 18446744073709551616 AS UBIGINT)
                   ) - 1 AS BIGINT) AS shuffle_pos
            FROM documents""",
        # DSIR contrastive importance: unigram+bigram occurrences, weight =
        # scale*p_target - scale*p_raw in floor-rounded fixed point, score =
        # sum over the doc's gram occurrences -- all integer, bit-exact
        "dsir": r"""
            WITH tok AS (
              SELECT doc_id, lang,
                     string_split_regex(lower(text), '\s+') AS toks
              FROM documents
            ),
            tokexp AS (
              SELECT doc_id, lang, unnest(toks) AS w,
                     unnest(range(1, len(toks) + 1)) AS p
              FROM tok
            ),
            tokf AS (
              SELECT doc_id, lang, w,
                     row_number() OVER (PARTITION BY doc_id ORDER BY p) AS p
              FROM tokexp WHERE w <> ''
            ),
            grams AS (
              SELECT doc_id, lang, w AS g FROM tokf
              UNION ALL
              SELECT a.doc_id, a.lang, a.w || ' ' || b.w
              FROM tokf a JOIN tokf b
                ON b.doc_id = a.doc_id AND b.p = a.p + 1
            ),
            tc AS (SELECT g, count(*) AS c FROM grams
                   WHERE lang = 'en' GROUP BY g),
            rc AS (SELECT g, count(*) AS c FROM grams GROUP BY g),
            nt AS (SELECT count(*) AS n FROM grams WHERE lang = 'en'),
            nr AS (SELECT count(*) AS n FROM grams),
            wt AS (
              SELECT rc.g,
                     (coalesce(tc.c, 0) * 1000000000)
                       // greatest((SELECT n FROM nt), 1)
                     - (rc.c * 1000000000)
                       // greatest((SELECT n FROM nr), 1) AS w
              FROM rc LEFT JOIN tc ON tc.g = rc.g
            )
            SELECT d.doc_id,
                   CAST(coalesce(sum(wt.w), 0) AS BIGINT) AS dsir_score
            FROM documents d
            LEFT JOIN grams gr ON gr.doc_id = d.doc_id
            LEFT JOIN wt ON wt.g = gr.g
            GROUP BY d.doc_id""",
        # exact top-fraction: same token count as the token_count oracle,
        # ROW_NUMBER over (score DESC, doc_id) vs the engine's threshold-row
        # selection -- membership must match EXACTLY, ties included
        "select_top": r"""
            WITH sc AS (
              SELECT doc_id,
                     CASE WHEN length(text) = 0 THEN 0
                          ELSE len(regexp_split_to_array(text, '\s+')) END
                       AS n_tokens
              FROM documents
            ),
            ranked AS (
              SELECT doc_id, n_tokens,
                     ROW_NUMBER() OVER (ORDER BY n_tokens DESC, doc_id) AS rn,
                     COUNT(*) OVER () AS n
              FROM sc
            )
            SELECT doc_id, n_tokens FROM ranked WHERE rn <= floor(n * 0.25)""",
        # Gopher-style repetition: per doc, weight(gram) = occurrences *
        # gram token chars; top = max over 2-grams, dup = sum where
        # occurrences >= 2, both / total token chars (0 when no grams)
        "repetition": r"""
            WITH tok AS (
              SELECT doc_id, string_split_regex(lower(text), '\s+') AS toks
              FROM documents
            ),
            tokexp AS (
              SELECT doc_id, unnest(toks) AS tok,
                     generate_subscripts(toks, 1) AS pos
              FROM tok
            ),
            grams AS (
              SELECT a.doc_id, a.tok || ' ' || b.tok AS gram,
                     length(a.tok) + length(b.tok) AS gchars
              FROM tokexp a
              JOIN tokexp b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
            ),
            gcnt AS (
              SELECT doc_id, gram, gchars, count(*) AS c
              FROM grams GROUP BY 1, 2, 3
            ),
            tot AS (
              SELECT doc_id, sum(length(tok)) AS tchars
              FROM tokexp GROUP BY 1
            ),
            agg AS (
              SELECT doc_id, max(c * gchars) AS topchars,
                     sum(CASE WHEN c >= 2 THEN c * gchars ELSE 0 END)
                       AS dupchars
              FROM gcnt GROUP BY doc_id
            )
            SELECT d.doc_id,
                   coalesce(a.topchars * 1.0 / nullif(t.tchars, 0), 0.0)
                     AS top_ngram_char_frac,
                   coalesce(a.dupchars * 1.0 / nullif(t.tchars, 0), 0.0)
                     AS dup_ngram_char_frac
            FROM documents d
            LEFT JOIN agg a USING (doc_id)
            LEFT JOIN tot t USING (doc_id)""",
        "token_count": r"""
            SELECT doc_id,
                   CASE WHEN length(text) = 0 THEN 0
                        ELSE len(regexp_split_to_array(text, '\s+')) END AS n_tokens,
                   length(text) AS n_chars_calc
            FROM documents""",
        "quality": r"""
            SELECT doc_id,
                   length(text)::DOUBLE
                     / greatest(CASE WHEN length(text) = 0 THEN 0
                                ELSE len(regexp_split_to_array(text, '\s+')) END, 1)
                     AS mean_token_len,
                   (length(text) - length(regexp_replace(text, '[^\w\s]', '', 'g')))::DOUBLE
                     / greatest(length(text), 1) AS punct_ratio
            FROM documents""",
        "bpe_tokens": r"""
            SELECT doc_id,
                   len(regexp_extract_all(text,
                       '''(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+'))
                     AS n_bpe_tokens
            FROM documents""",
        "knn": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 3),
                 s AS (SELECT q.qid AS query_id, e.vec_id,
                              list_cosine_similarity(q.qe, e.embedding) AS sim
                       FROM q CROSS JOIN embeddings e),
                 r AS (SELECT query_id, vec_id,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY sim DESC, vec_id) AS rank
                       FROM s)
            SELECT query_id, vec_id, rank FROM r WHERE rank <= 10""",
        "events_topk": """
            SELECT event_id, event_type, value FROM events
            ORDER BY value DESC, event_id LIMIT 100""",
        "events_join": """
            SELECT e.event_id, c.c_name, n.n_name
            FROM events e
            JOIN customer c ON e.user_id = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey""",
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(round(sum(l_quantity) * 100) AS BIGINT) AS sum_qty,
                   CAST(round(sum(l_extendedprice) * 100) AS BIGINT) AS sum_price,
                   CAST(round(avg(l_quantity) * 10000) AS BIGINT) AS avg_qty,
                   count(*) AS n
            FROM lineitem GROUP BY l_returnflag, l_linestatus""",
        "grok": f"""
            SELECT conv_id, turn_idx,
                   nullif(regexp_extract(text,
                       'src=(\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}})', 1), '')
                     AS src_ip
            FROM read_parquet('{_T_PATH}')""",
        "role_pivot": f"""
            SELECT conv_id,
                   CAST(sum(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT) AS n_user,
                   CAST(sum(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END) AS BIGINT) AS n_assistant,
                   CAST(sum(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) AS BIGINT) AS n_tool
            FROM read_parquet('{_T_PATH}') GROUP BY conv_id""",
        "distinct": "SELECT DISTINCT lang, source FROM documents",
        "corpus_pipeline": r"""
            WITH toks AS (
                SELECT doc_id, text, lang,
                       CASE WHEN length(text) = 0 THEN 0
                            ELSE len(regexp_split_to_array(text, '\s+')) END AS n_tokens
                FROM documents
            ),
            filtered AS (SELECT * FROM toks WHERE n_tokens >= 10),
            deduped AS (
                SELECT * FROM filtered
                WHERE doc_id IN (SELECT min(doc_id) FROM filtered GROUP BY text)
            )
            SELECT lang, CAST(sum(n_tokens) AS BIGINT) AS total_tokens, count(*) AS n_docs
            FROM deduped GROUP BY lang""",
        "salted_agg": f"""
            SELECT conv_id, count(*) AS n_turns, max(turn_idx) AS max_turn
            FROM read_parquet('{_T_PATH}') GROUP BY conv_id""",
        "bucketed_join": """
            SELECT o_orderpriority,
                   CAST(round(sum(l_quantity) * 100) AS BIGINT) AS sum_qty,
                   count(*) AS n
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority""",
        "filter_pushdown": """
            SELECT event_id, event_type, value FROM events
            WHERE event_type = 'error' AND value > 100.0""",
        "inject": f"""
            SELECT conv_id, turn_idx, ts AS event_time, 'node-0' AS hostname
            FROM read_parquet('{_T_PATH}')""",
        "events_tumbling": """
            SELECT event_type,
                   CAST(floor(epoch(ts) / 3600) * 3600 AS BIGINT) AS window_start,
                   count(*) AS n,
                   CAST(round(sum(value) * 100) AS BIGINT) AS sum_value_cents
            FROM events GROUP BY event_type, window_start""",
        # known-answer construction (see q_quality_classifier docstring);
        # n_rows is independently SQL-derived, accuracy_ok pinned TRUE
        "quality_classifier": """
            SELECT (SELECT count(*) FROM documents
                    WHERE n_chars > 356 OR n_chars < 256) AS n_rows,
                   TRUE AS accuracy_ok""",
        # known-answer construction (see q_bpe_merges docstring)
        "bpe_merges": "SELECT * FROM (VALUES"
                      " (CAST(0 AS BIGINT), 'a', 'a'),"
                      " (1, 'a', 'b'), (2, 'ab', '</w>'))"
                      " t(rank, left_sym, right_sym)",
        # known-answer construction (see q_knn_pq docstring)
        "knn_pq": "SELECT CAST(range AS BIGINT) AS query_id,"
                  " TRUE AS self_top1, TRUE AS recall_ok FROM range(0, 3)",
        # known-answer construction (see q_knn_ivfpq docstring)
        "knn_ivfpq": "SELECT CAST(range AS BIGINT) AS query_id,"
                     " TRUE AS self_top1, TRUE AS recall_ok FROM range(0, 3)",
        # known-answer construction (see q_kmeans docstring)
        "kmeans": "SELECT CAST(100 + range AS BIGINT) AS member_id,"
                  " CAST(range % 10 AS BIGINT) AS generator,"
                  " TRUE AS co_assigned FROM range(0, 490)",
        "dense_windows": """
            WITH sparse AS (
              SELECT event_type,
                     CAST(floor(epoch(ts) / 3600) * 3600 AS BIGINT)
                         AS window_start,
                     count(*) AS n
              FROM events GROUP BY event_type, window_start
            ), bounds AS (
              SELECT event_type, min(window_start) AS lo,
                     max(window_start) AS hi
              FROM sparse GROUP BY event_type
            ), dense AS (
              SELECT b.event_type,
                     CAST(unnest(generate_series(b.lo, b.hi, 3600))
                          AS BIGINT) AS window_start
              FROM bounds b
            )
            SELECT d.event_type, d.window_start, COALESCE(s.n, 0) AS n
            FROM dense d LEFT JOIN sparse s
              USING (event_type, window_start)""",
        # known-answer construction (see q_embed_ann docstring): rank-1 is
        # provably a byte-identical-text doc (cosine exactly 1.0, wide
        # margin to the best distinct-text score)
        "embed_ann": """
            SELECT doc_id AS query_id, TRUE AS top1_text_match
            FROM documents WHERE doc_id % 50 = 0""",
        "dense_windows_2key": """
            WITH sparse AS (
              SELECT event_type, user_id % 8 AS shard,
                     CAST(floor(epoch(ts) / 3600) * 3600 AS BIGINT)
                         AS window_start,
                     count(*) AS n
              FROM events GROUP BY event_type, shard, window_start
            ), bounds AS (
              SELECT event_type, shard, min(window_start) AS lo,
                     max(window_start) AS hi
              FROM sparse GROUP BY event_type, shard
            ), dense AS (
              SELECT b.event_type, b.shard,
                     CAST(unnest(generate_series(b.lo, b.hi, 3600))
                          AS BIGINT) AS window_start
              FROM bounds b
            )
            SELECT d.event_type, d.shard, d.window_start,
                   COALESCE(s.n, 0) AS n
            FROM dense d LEFT JOIN sparse s
              USING (event_type, shard, window_start)""",
        # cumulative window family: MIN copies values (exact float
        # compare); SUM/COUNT run over ints; ROW_NUMBER/NTILE exact
        "events_cumulative": """
            SELECT event_id, user_id, ts, value,
                   CAST(COUNT(value) OVER w AS BIGINT) AS cum_n,
                   MIN(value) OVER w AS cum_min_value,
                   CAST(SUM(event_id) OVER w AS BIGINT) AS cum_eid,
                   ROW_NUMBER() OVER w AS rn,
                   NTILE(4) OVER w AS tile,
                   FIRST_VALUE(value) OVER w AS fv,
                   NTH_VALUE(value, 2) OVER w AS nv2
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING)""",
        "ranked_events": """
            SELECT event_id, user_id, event_type,
                   RANK() OVER w AS r,
                   DENSE_RANK() OVER w AS dr,
                   PERCENT_RANK() OVER w AS pr,
                   CUME_DIST() OVER w AS cd
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY event_type)""",
        "events_moving": """
            SELECT event_id, user_id, ts, value,
                   CAST(COUNT(value) OVER w AS BIGINT) AS mv_n,
                   MIN(value) OVER w AS mv_min,
                   MAX(value) OVER w AS mv_max,
                   CAST(SUM(event_id) OVER w AS BIGINT) AS mv_eid,
                   AVG(event_id) OVER w AS mv_avg_eid
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)""",
        "events_moving_time": """
            SELECT event_id, user_id, ts, value,
                   CAST(COUNT(event_id) OVER w AS BIGINT) AS tw_n,
                   CAST(SUM(event_id) OVER w AS BIGINT) AS tw_eid,
                   AVG(event_id) OVER w AS tw_avg_eid,
                   MIN(value) OVER w AS tw_min,
                   MAX(value) OVER w AS tw_max
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts
                         RANGE BETWEEN INTERVAL 10 MINUTE PRECEDING
                               AND CURRENT ROW)""",
        "events_with_stats": """
            SELECT event_id, user_id, value,
                   CAST(COUNT(value) OVER w AS BIGINT) AS u_n,
                   MIN(value) OVER w AS u_min,
                   MAX(value) OVER w AS u_max,
                   CAST(SUM(event_id) OVER w AS BIGINT) AS u_eid,
                   AVG(event_id) OVER w AS u_avg_eid
            FROM events WINDOW w AS (PARTITION BY user_id)""",
        "active_customers": """
            SELECT c_custkey, c_name FROM customer c
            WHERE EXISTS (SELECT 1 FROM events e
                          WHERE e.user_id = c.c_custkey)""",
        "idle_customers": """
            SELECT c_custkey, c_name FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM events e
                              WHERE e.user_id = c.c_custkey)""",
        "agg_subnet": f"""
            SELECT split_part(ip, '.', 1) || '.' || split_part(ip, '.', 2)
                       || '.0.0/16' AS subnet,
                   count(*) AS n
            FROM ({_PARSED}) WHERE ip IS NOT NULL GROUP BY subnet""",
        # binned-only output (raw trig never hashed; see q_geo_rings)
        "geo_rings": f"""
            SELECT CAST(floor(({_SQL_HAVERSINE}) / 500.0) AS BIGINT)
                       AS ring,
                   count(*) AS n
            FROM ({_ENRICHED}) WHERE enriched GROUP BY ring""",
        "spike_windows": """
            SELECT event_type, window_start, n, prev_n FROM (
              SELECT event_type, window_start, n,
                     LAG(n) OVER (PARTITION BY event_type
                                  ORDER BY window_start) AS prev_n
              FROM (SELECT event_type,
                           CAST(floor(epoch(ts) / 3600) * 3600 AS BIGINT)
                               AS window_start,
                           count(*) AS n
                    FROM events GROUP BY event_type, window_start))
            WHERE prev_n IS NOT NULL AND n > 2 * prev_n""",
        "anomaly": """
            WITH m AS (
                SELECT event_type,
                       sum(value) / count(*) AS mean,
                       sqrt(greatest(sum(value * value) / count(*)
                                     - (sum(value) / count(*)) ^ 2, 0)) AS sd
                FROM events GROUP BY event_type
            )
            SELECT e.event_id, e.event_type, e.value
            FROM events e JOIN m ON e.event_type = m.event_type
            WHERE e.value > m.mean + 3.0 * m.sd""",
        "events_sliding": """
            SELECT event_type,
                   CAST((floor(epoch(ts) / 900) - j.j) * 900 AS BIGINT) AS window_start,
                   count(*) AS n
            FROM events CROSS JOIN (SELECT unnest(range(4)) AS j) j
            GROUP BY event_type, window_start""",
        "sample_docs": _SAMPLE_DOCS_SQL,
        "sample_k": f"""
            SELECT doc_id, lang, source FROM documents
            ORDER BY {_shx("doc_id", 13)}, doc_id LIMIT 100""",
        "tool_usage": f"""
            SELECT conv_id, count(*) AS n_turns,
                   count(DISTINCT nullif(tool, '')) AS n_tools
            FROM read_parquet('{_T_PATH}') GROUP BY conv_id""",
        "sample_split": _SAMPLE_SPLIT_SQL,
        "sample_per_user": _SAMPLE_PER_USER_SQL,
        "sample_mix": _SAMPLE_MIX_SQL,
        "pack_docs": _PACK_DOCS_SQL,
        "quantiles_events": """
            SELECT event_type,
                   quantile_cont(value, 0.5) AS q50,
                   quantile_cont(value, 0.95) AS q95
            FROM events GROUP BY event_type""",
        "curation": _CURATION_SQL,
        "compact_latest": """
            SELECT user_id, event_id, ts FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY user_id ORDER BY ts DESC, event_id
                ) AS rn FROM events
            ) WHERE rn = 1""",
        "topk_per_user": """
            SELECT user_id, event_id, value FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY user_id ORDER BY value DESC, event_id
                ) AS rn FROM events
            ) WHERE rn <= 2""",
        "redact": f"""
            SELECT conv_id, turn_idx,
                   regexp_replace(
                     regexp_replace(
                       regexp_replace(text,
                         '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{{2,}}',
                         '<EMAIL>', 'g'),
                       '\\b\\d(?:[ -]?\\d){{12,15}}\\b', '<CARD>', 'g'),
                     '\\b(?:\\d{{1,3}}\\.){{3}}\\d{{1,3}}\\b', '<IP>', 'g')
                   AS redacted
            FROM read_parquet('{_T_PATH}')""",
        "events_asof": """
            SELECT e.event_id, s.event_id AS signup_event_id,
                   s.ts AS signup_ts
            FROM events e ASOF LEFT JOIN
                 (SELECT * FROM events WHERE event_type = 'signup') s
              ON e.user_id = s.user_id AND e.ts >= s.ts""",
        "events_asof_fwd": """
            SELECT e.event_id, p.ts AS next_purchase_ts
            FROM events e ASOF LEFT JOIN
                 (SELECT user_id, ts FROM events
                  WHERE event_type = 'purchase') p
              ON e.user_id = p.user_id AND e.ts <= p.ts""",
        "events_asof_big": """
            SELECT e.event_id, c.ts AS click_ts
            FROM events e ASOF LEFT JOIN
                 (SELECT user_id, ts FROM events
                  WHERE event_type = 'click') c
              ON e.user_id = c.user_id AND e.ts >= c.ts""",
        "events_range_join": """
            SELECT e.event_id, e.value, t.tier
            FROM events e LEFT JOIN (
                VALUES (0.0, 50.0, 'low'), (50.0, 200.0, 'mid'),
                       (200.0, 1e308, 'high')) t(lo, hi, tier)
              ON e.value >= t.lo AND e.value < t.hi""",
        # large-large keyed interval join, supersession semantics: the most
        # recently started 30-min purchase window wins; null if it ended
        "events_range_big": """
            SELECT p.event_id,
                   CASE WHEN p.ts < i.hi THEN i.lo END AS purchase_ts
            FROM (SELECT event_id, user_id, ts FROM events
                  WHERE event_type <> 'purchase') p
            ASOF LEFT JOIN
                 (SELECT user_id, ts AS lo, ts + INTERVAL 30 MINUTE AS hi
                  FROM events WHERE event_type = 'purchase') i
              ON p.user_id = i.user_id AND p.ts >= i.lo""",
        "events_sessions": """
            WITH x AS (
                SELECT user_id, event_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS brk
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ),
            s AS (
                SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                         ROWS UNBOUNDED PRECEDING) AS session_idx
                FROM x
            )
            SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
                   count(*) AS n_events,
                   CAST(min(ts) AS TIMESTAMP) AS ts_min,
                   CAST(max(ts) AS TIMESTAMP) AS ts_max
            FROM s GROUP BY user_id, session_idx""",
        # pandas ewm(alpha=0.2, adjust=True, ignore_na=True).mean() as its
        # own recurrence, one row per step: the weight of the history
        # decays by 1 - alpha = 0.8 before each new value joins with
        # weight 1 (pandas skips the update when the value equals the
        # running mean); the same IEEE operations in the same order
        "events_ewma": """
            WITH RECURSIVE e AS (
                SELECT event_id, user_id, ts, value,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS rn
                FROM events
            ),
            r AS (
                SELECT user_id, rn, CAST(value AS DOUBLE) AS w,
                       CAST(1.0 AS DOUBLE) AS ow
                FROM e WHERE rn = 1
                UNION ALL
                SELECT e.user_id, e.rn,
                       CASE WHEN r.w IS NULL THEN e.value
                            WHEN e.value IS NULL OR e.value = r.w THEN r.w
                            ELSE (r.ow * 0.8 * r.w + e.value)
                                 / (r.ow * 0.8 + 1.0) END,
                       CASE WHEN r.w IS NULL OR e.value IS NULL THEN r.ow
                            ELSE r.ow * 0.8 + 1.0 END
                FROM r JOIN e ON e.user_id = r.user_id AND e.rn = r.rn + 1
            )
            SELECT e.event_id, e.user_id, e.ts, e.value, r.w AS ewma
            FROM e JOIN r USING (user_id, rn)""",
        "conv_stats": f"""
            SELECT conv_id, count(*) AS n_turns, max(turn_idx) AS max_turn,
                   min(ts) AS ts_first, max(ts) AS ts_last
            FROM read_parquet('{_T_PATH}') GROUP BY conv_id""",
    }
