"""Text-analysis operators for training-data pipelines (driver-mandated
extensions beyond the reference; graded alongside SURVEY §2).

All stages are vectorized ``map_batches`` callables over the ``documents``
table (``doc_id:int64, text:string, lang:string, source:string,
n_chars:int64``): token counting, quality scoring, language-ID heuristic and
rolling-hash fingerprinting.  Regexes are compiled once per actor
(callable-class state), kernels are pyarrow/numpy -- no per-row Python in the
token/char paths; the per-doc loops that remain (fingerprint) run over
numpy-materialized arrays inside the batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# whitespace tokenization shared with the SQL oracle: tokens = non-space runs
_WS_SPLIT = r"\s+"


def token_count(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """``n_tokens`` = number of whitespace-delimited tokens; ``n_chars_calc``
    = utf8 length.  Oracle-exact: DuckDB ``length(regexp_split_to_array(...))``."""
    text = batch.column(text_col)
    toks = pc.split_pattern_regex(text, _WS_SPLIT)
    n_tokens = pc.list_value_length(toks).cast(pa.int64())
    # empty string splits to [""] -> count 0 (align with oracle filter)
    n_tokens = pc.if_else(pc.equal(pc.utf8_length(text), 0), pa.scalar(0, pa.int64()), n_tokens)
    out = batch.append_column("n_tokens", n_tokens)
    return out.append_column("n_chars_calc", pc.utf8_length(text).cast(pa.int64()))


def bpe_token_count(batch: pa.Table, text_col: str = "text",
                    out_col: str = "n_bpe_tokens") -> pa.Table:
    """BPE-ish token count via a GPT-2-style pretokenizer regex, fully
    vectorized (`pc.count_substring_regex`, one RE2 pass): contractions,
    letter runs, digit runs, punctuation runs, whitespace runs each count as
    one pretoken -- the standard cheap proxy for BPE token budgets."""
    pattern = r"'(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+"
    text = batch.column(text_col)
    n = pc.count_substring_regex(text, pattern).cast(pa.int64())
    return batch.append_column(out_col, n)


class QualityScore:
    """Heuristic doc-quality features: mean token length, punctuation ratio,
    stopword ratio, and a composite ``quality`` in [0,1].  BPE-ish token
    estimate = chars/4 (the common LLM rule of thumb)."""

    STOPWORDS = (
        "the a an and or of to in is are was were be been with for on at by "
        "from as this that it its"
    ).split()

    def __init__(self):
        import re

        self.punct_re = re.compile(r"[^\w\s]")
        self.stop = set(self.STOPWORDS)

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        n_chars = pc.utf8_length(text).cast(pa.float64())
        toks = pc.split_pattern_regex(text, _WS_SPLIT)
        n_tokens = pc.list_value_length(toks).cast(pa.float64())
        n_tokens_nz = pc.max_element_wise(n_tokens, 1.0)
        mean_tok_len = pc.divide(n_chars, n_tokens_nz)

        # punctuation ratio: chars removed by stripping punctuation
        stripped = pc.replace_substring_regex(text, r"[^\w\s]", "")
        punct_ratio = pc.divide(
            pc.subtract(n_chars, pc.utf8_length(stripped).cast(pa.float64())),
            pc.max_element_wise(n_chars, 1.0),
        )

        # stopword ratio over the token list (flattened, vectorized is_in)
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        values = pc.utf8_lower(flat.flatten())
        is_stop = pc.is_in(values, value_set=pa.array(sorted(self.stop))).cast(pa.int8())
        # sum per list via offsets
        offsets = flat.offsets.to_numpy(zero_copy_only=False)
        stops = np.add.reduceat(
            np.concatenate([is_stop.to_numpy(zero_copy_only=False), [0]]),
            offsets[:-1],
        ) * (np.diff(offsets) > 0)
        stop_ratio = pa.array(stops / np.maximum(np.diff(offsets), 1), type=pa.float64())

        bpe_tokens_est = pc.ceil(pc.divide(n_chars, 4.0)).cast(pa.int64())

        # composite: long-enough, low punct, moderate stopwords
        len_score = pc.min_element_wise(pc.divide(n_tokens, 64.0), 1.0)
        quality = pc.multiply(
            pc.multiply(len_score, pc.subtract(1.0, pc.min_element_wise(punct_ratio, 1.0))),
            pc.add(0.5, pc.multiply(0.5, pc.min_element_wise(pc.multiply(stop_ratio, 4.0), 1.0))),
        )
        out = batch
        for name, arr in (
            ("mean_token_len", mean_tok_len),
            ("punct_ratio", punct_ratio),
            ("stop_ratio", stop_ratio),
            ("bpe_tokens_est", bpe_tokens_est),
            ("quality", quality),
        ):
            out = out.append_column(name, arr)
        return out


class LangId:
    """N-gram/stopword language-ID heuristic over a fixed small language set.

    Scores each doc against per-language marker-word sets (vectorized
    ``is_in`` per language); emits ``lang_pred`` + ``lang_score``.  A
    deterministic heuristic -- no model download -- mirroring what a
    large-scale pipeline's langid stage plumbing needs (stateful actor,
    compiled sets in __init__).
    """

    MARKERS = {
        "en": "the and of to is in that it was for with",
        "es": "el la los las de que y en un una por",
        "fr": "le la les des et que pour dans une sur",
        "de": "der die das und ist nicht ein eine mit von",
    }

    def __init__(self):
        self.sets = {
            lang: pa.array(sorted(set(words.split())))
            for lang, words in self.MARKERS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        toks = pc.split_pattern_regex(pc.utf8_lower(text), _WS_SPLIT)
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        values = flat.flatten()
        offsets = flat.offsets.to_numpy(zero_copy_only=False)
        n_tok = np.maximum(np.diff(offsets), 1)
        scores = np.zeros((batch.num_rows, len(self.sets)))
        langs = list(self.sets)
        for j, lang in enumerate(langs):
            hit = pc.is_in(values, value_set=self.sets[lang]).cast(pa.int8())
            hits = np.add.reduceat(
                np.concatenate([hit.to_numpy(zero_copy_only=False), [0]]), offsets[:-1]
            ) * (np.diff(offsets) > 0)
            scores[:, j] = hits / n_tok
        best = scores.argmax(axis=1)
        lang_pred = np.where(
            scores.max(axis=1) > 0, np.asarray(langs)[best], "unknown"
        )
        out = batch.append_column("lang_pred", pa.array(lang_pred, type=pa.string()))
        return out.append_column("lang_score", pa.array(scores.max(axis=1), type=pa.float64()))


def fingerprint(batch: pa.Table, text_col: str = "text",
                out_col: str = "fingerprint") -> pa.Table:
    """Deterministic 64-bit content hash, vectorized (pandas hash_array, C
    implementation with a fixed key -- stable across processes/nodes).  The
    content-identity primitive exact dedup keys on; dedup correctness only
    needs determinism + low collision rate, and downstream comparisons are on
    kept rows, never on raw hash values."""
    import pandas as pd

    text = batch.column(text_col)
    h = pd.util.hash_array(text.to_pandas().to_numpy(dtype=object)).astype(np.int64)
    return batch.append_column(out_col, pa.array(h, type=pa.int64()))


# default redaction patterns (RE2-safe, also valid in DuckDB regexp_replace):
# order matters -- applied sequentially
REDACT_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d(?:[ -]?\d){12,15}\b", "<CARD>"),
    (r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
]


def redact(batch: pa.Table, text_col: str = "text",
           patterns: list[tuple[str, str]] | None = None,
           out_col: str | None = None) -> pa.Table:
    """PII scrubbing: sequential vectorized regex replacements over the text
    column (emails, card-like digit runs, IPv4 literals by default) -- the
    fluentd record-scrubbing filter analog, one RE2 pass per pattern."""
    arr = batch.column(text_col)
    for pat, repl in (patterns or REDACT_PATTERNS):
        arr = pc.replace_substring_regex(arr, pattern=pat, replacement=repl)
    name = out_col or text_col
    if name in batch.column_names:
        return batch.set_column(batch.column_names.index(name), name, arr)
    return batch.append_column(name, arr)


def chunk_tokens(batch: pa.Table, key_col: str = "doc_id",
                 text_col: str = "text", window: int = 64,
                 stride: int = 48) -> pa.Table:
    """Context-window chunking: split each doc into overlapping token
    windows (one output row per chunk) -- the standard sequence-prep step
    before packing/tokenization in a training pipeline.

    Chunk ``i`` covers tokens ``[i*stride, i*stride + window)``; chunks are
    emitted while ``i*stride < n_tokens``, so tails may be short and
    consecutive chunks overlap by ``window - stride`` tokens.  Chunk text
    is the tokens re-joined with single spaces (whitespace runs normalize,
    matching the SQL oracle's ``array_to_string``).  Output: ``(key,
    chunk_idx, chunk_text, n_tokens)``.

    Pure per-batch flat-map: fully vectorized (one regex split, one gather,
    one ``binary_join_element_wise``-equivalent list join), no shuffle, no
    state -- scales embarrassingly.
    """
    if stride < 1 or window < 1:
        raise ValueError("window and stride must be >= 1")
    text = batch.column(text_col)
    toks = pc.split_pattern_regex(text, _WS_SPLIT)
    flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    doc_off = flat.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = flat.values
    n = np.diff(doc_off)                       # tokens per doc (>= 1: ''->[''])
    n_chunks = (n + stride - 1) // stride      # ceil(n / stride)

    doc_rep = np.repeat(np.arange(len(n), dtype=np.int64), n_chunks)
    cum = np.zeros(len(n), dtype=np.int64)
    np.cumsum(n_chunks[:-1], out=cum[1:])
    chunk_idx = np.arange(int(n_chunks.sum()), dtype=np.int64) - cum[doc_rep]
    start = chunk_idx * stride
    length = np.minimum(window, n[doc_rep] - start)

    # gather indices for every chunk's tokens in one flat array
    ccum = np.zeros(len(length), dtype=np.int64)
    np.cumsum(length[:-1], out=ccum[1:])
    total = int(length.sum())
    within = np.arange(total, dtype=np.int64) - np.repeat(ccum, length)
    gather = np.repeat(doc_off[:-1][doc_rep] + start, length) + within

    chunk_lists = pa.ListArray.from_arrays(
        pa.array(np.concatenate([[0], np.cumsum(length)]), type=pa.int32()),
        values.take(pa.array(gather)),
    )
    chunk_text = pc.binary_join(chunk_lists, " ")

    keys = batch.column(key_col)
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return pa.table({
        key_col: keys.take(pa.array(doc_rep)),
        "chunk_idx": pa.array(chunk_idx),
        "chunk_text": chunk_text,
        "n_tokens": pa.array(length),
    })


def repetition_signals(batch: pa.Table, key_col: str = "doc_id",
                       text_col: str = "text", n: int = 2) -> pa.Table:
    """Intra-doc repetition quality signals (the Gopher-rules family):
    per doc, over lowered whitespace tokens,

    * ``top_ngram_char_frac``  = max over word-n-grams of
      ``occurrences * gram_token_chars`` / total token chars -- a
      deterministic (tie-free) variant of Gopher's "fraction of characters
      in the most frequent n-gram";
    * ``dup_ngram_char_frac`` = the same numerator summed over every
      n-gram occurring >= 2 times.

    Occurrences overlap (every token position starts a gram); docs with
    fewer than ``n`` tokens (or no characters) score 0.0 on both.  Fully
    vectorized: one split, one rolling hash + rolling char sum, one
    lexsort, run-length counting with ``reduceat`` -- no per-row Python.
    Gram identity is the 64-bit rolling token-hash (collision odds are
    negligible within a doc; the SQL oracle uses the literal strings and
    matches exactly on the test corpora).
    """
    import pandas as pd

    if n < 2:
        raise ValueError("repetition_signals needs n >= 2")
    text = batch.column(text_col)
    toks = pc.split_pattern_regex(pc.utf8_lower(text), _WS_SPLIT)
    flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    doc_off = flat.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = flat.values
    lens = pc.utf8_length(values).to_numpy(zero_copy_only=False).astype(np.int64)
    vals_np = values.to_pandas().to_numpy(dtype=object)
    hashes = (pd.util.hash_array(vals_np).astype(np.uint64)
              if len(vals_np) else np.empty(0, np.uint64))

    nt = np.diff(doc_off)                       # tokens per doc
    n_docs = len(nt)
    total_chars = np.add.reduceat(lens, doc_off[:-1]) if len(lens) else \
        np.zeros(n_docs, np.int64)
    total_chars[nt == 0] = 0

    # rolling n-gram hash + char sum over the flat arrays (windows that
    # cross doc boundaries are dropped below)
    m = len(hashes) - n + 1
    if m > 0:
        with np.errstate(over="ignore"):
            gh = np.zeros(m, dtype=np.uint64)
            for j in range(n):
                gh = gh * np.uint64(1099511628211) + hashes[j:m + j]
        csum = np.cumsum(np.concatenate([[0], lens]))
        gchars = csum[n:] - csum[:-n]           # chars of tokens in window
    else:
        gh = np.empty(0, np.uint64)
        gchars = np.empty(0, np.int64)

    # per-doc gram windows: doc i owns flat positions
    # [doc_off[i], doc_off[i+1] - n] when nt[i] >= n
    g_per_doc = np.maximum(nt - n + 1, 0)
    doc_rep = np.repeat(np.arange(n_docs, dtype=np.int64), g_per_doc)
    cum = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(g_per_doc[:-1], out=cum[1:])
    within = np.arange(int(g_per_doc.sum()), dtype=np.int64) - cum[doc_rep]
    gpos = doc_off[:-1][doc_rep] + within
    dgh, dgc = gh[gpos], gchars[gpos]

    top = np.zeros(n_docs, dtype=np.int64)
    dup = np.zeros(n_docs, dtype=np.int64)
    if len(dgh):
        order = np.lexsort((dgh, doc_rep))
        sd, sh, sc = doc_rep[order], dgh[order], dgc[order]
        starts = np.flatnonzero(np.r_[True, (sd[1:] != sd[:-1]) |
                                      (sh[1:] != sh[:-1])])
        counts = np.diff(np.append(starts, len(sh)))
        rd_ = sd[starts]
        weight = counts * sc[starts]            # occurrences x gram chars
        dstart = np.flatnonzero(np.r_[True, rd_[1:] != rd_[:-1]])
        docs_present = rd_[dstart]
        top[docs_present] = np.maximum.reduceat(weight, dstart)
        dupw = np.where(counts >= 2, weight, 0)
        dup[docs_present] = np.add.reduceat(dupw, dstart)

    denom = np.where(total_chars > 0, total_chars, 1).astype(np.float64)
    keys = batch.column(key_col)
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return pa.table({
        key_col: keys,
        "top_ngram_char_frac": pa.array(top / denom),
        "dup_ngram_char_frac": pa.array(dup / denom),
    })


def build_vocab(ds, text_col: str = "text", min_count: int = 1,
                top: int | None = None, batch_size: int = 65536):
    """Distributed token vocabulary (the tokenizer-training precursor):
    corpus-wide counts of whitespace-split lowered tokens.

    Partial+final: each batch counts its own tokens with one Arrow
    ``group_by`` (text never shuffles; O(batch vocab) rows leave), partials
    merge through ``groupby_agg``'s bucketed hash exchange.  ``min_count``
    filters distributed; ``top`` returns the V most frequent as a pyarrow
    Table via :func:`aggregate.top_k` (per-block partial top-k, ties broken
    by token ascending -- deterministic, matches SQL ``ORDER BY count DESC,
    token``).  Without ``top`` the full vocab stays a lazy Dataset of
    ``(token, count)``.  Empty tokens (leading/trailing whitespace) drop.
    """
    from .aggregate import groupby_agg, top_k

    def partial(t: pa.Table) -> pa.Table:
        text = t.column(text_col)
        toks = pc.split_pattern_regex(pc.utf8_lower(text), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        flat = flat.filter(pc.greater(pc.utf8_length(flat), 0))
        g = pa.table({"token": flat}).group_by("token").aggregate(
            [([], "count_all")])
        return g.rename_columns(["token", "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size)
    vocab = groupby_agg(partials, ["token"], [("n", "sum", "count")])
    if min_count > 1:
        vocab = vocab.map_batches(
            lambda t: t.filter(
                pc.greater_equal(t.column("count"), min_count)),
            batch_format="pyarrow", zero_copy_batch=True)
    if top is None:
        return vocab
    return top_k(vocab, "count", k=top, tie_breakers=["token"])


def _text_tokens_flat(t: pa.Table, text_col: str):
    """Lowered whitespace tokens of a batch as (flat token array, per-row
    offsets), empty tokens dropped with offsets repaired -- the shared
    tokenization of the LM-affinity and DSIR scorers."""
    toks = pc.split_pattern_regex(
        pc.utf8_lower(t.column(text_col)), r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    off = off - off[0]
    flat = toks.flatten()
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(
        zero_copy_only=False)
    # drop empty tokens, repairing offsets
    kept_per = np.add.reduceat(keep.astype(np.int64), off[:-1]) \
        if len(off) > 1 and len(keep) else np.zeros(len(off) - 1, np.int64)
    kept_per[np.diff(off) == 0] = 0
    new_off = np.zeros(len(off), dtype=np.int64)
    np.cumsum(kept_per, out=new_off[1:])
    return flat.filter(pa.array(keep)), new_off


def ngram_lm_affinity(ds, ref_ds, text_col: str = "text",
                      scale: int = 1_000_000,
                      broadcast_limit: int = 20_000_000,
                      batch_size: int = 65536):
    """Count-based bigram LM affinity scoring -- the exact-arithmetic
    analog of the CCNet/KenLM perplexity quality filter: score each doc by
    how well its word bigrams match a REFERENCE corpus's distribution.

    score(doc) = sum over bigram positions of
    ``(c_ref(w1 w2) * scale) // c_ref(w1)`` -- the MLE ``P(w2|w1)`` in
    fixed-point, summed as INTEGERS, so the score is reproducible
    bit-for-bit across engines (no float log, no sum-order sensitivity;
    that is why this is an independently SQL-verifiable "model" filter).
    Unseen bigrams contribute 0; docs with < 2 tokens score 0.  Higher =
    more in-distribution; filter/split on the score downstream.

    Scale shape: reference counts stream through :func:`build_vocab`-style
    partial+final aggregates (one row per distinct gram; ref text never
    broadcast).  The count tables broadcast once via ``ray.put`` under
    ``broadcast_limit`` distinct grams and every corpus batch probes them
    with ``pc.index_in`` (one C pass per batch); above the limit raise --
    a reference corpus is a curated sample by construction (CCNet uses
    Wikipedia), not the 100 TB side.
    """
    import ray

    from .aggregate import groupby_agg

    def tokens_flat(t: pa.Table):
        return _text_tokens_flat(t, text_col)

    def gram_tables(t: pa.Table) -> pa.Table:
        flat, off = tokens_flat(t)
        n = len(flat)
        uni = pa.table({"g": flat}).group_by("g").aggregate([([], "count_all")])
        # bigrams within doc boundaries
        if n >= 2:
            valid = np.ones(n - 1, dtype=bool)
            # kill pairs crossing doc ends; empty docs make boundary
            # indices fall outside [0, n-2] -- no pair exists there
            bidx_ = off[1:-1] - 1
            bidx_ = bidx_[(bidx_ >= 0) & (bidx_ <= n - 2)]
            valid[bidx_] = False
            w1 = flat.slice(0, n - 1).filter(pa.array(valid))
            w2 = flat.slice(1, n - 1).filter(pa.array(valid))
            bi = pc.binary_join_element_wise(w1, w2, " ")
            bit = pa.table({"g": bi}).group_by("g").aggregate(
                [([], "count_all")])
        else:
            bit = pa.table({"g": pa.array([], pa.string()),
                            "count_all": pa.array([], pa.int64())})
        uni = uni.append_column("k", pa.array(
            np.zeros(uni.num_rows, np.int8)))
        bit = bit.append_column("k", pa.array(np.ones(bit.num_rows, np.int8)))
        out = pa.concat_tables([uni, bit]).rename_columns(["g", "n", "k"])
        return out

    partials = ref_ds.map_batches(gram_tables, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=batch_size)
    counts = groupby_agg(partials, ["g", "k"], [("n", "sum", "n")]).materialize()
    n_grams = counts.count()
    if n_grams > broadcast_limit:
        raise ValueError(
            f"ngram_lm_affinity: reference has {n_grams} distinct grams >"
            f" broadcast_limit={broadcast_limit}; sample the reference"
            " corpus (it is the small curated side by construction)")
    tabs = [t for t in ray.get(counts.to_arrow_refs()) if t.num_rows]
    allc = pa.concat_tables(tabs).combine_chunks() if tabs else pa.table(
        {"g": pa.array([], pa.string()), "k": pa.array([], pa.int8()),
         "n": pa.array([], pa.int64())})
    kk = allc.column("k").to_numpy(zero_copy_only=False)
    uni_t = allc.filter(pa.array(kk == 0))
    bi_t = allc.filter(pa.array(kk == 1))
    state = ray.put((uni_t.column("g").combine_chunks(),
                     uni_t.column("n").to_numpy(zero_copy_only=False),
                     bi_t.column("g").combine_chunks(),
                     bi_t.column("n").to_numpy(zero_copy_only=False)))

    def score(t: pa.Table) -> pa.Table:
        ug, uc, bg, bc = ray.get(state)
        flat, off = tokens_flat(t)
        n_docs = len(off) - 1
        n = len(flat)
        out = np.zeros(n_docs, dtype=np.int64)
        if n >= 2 and len(bg):
            valid = np.ones(n - 1, dtype=bool)
            bidx_ = off[1:-1] - 1
            bidx_ = bidx_[(bidx_ >= 0) & (bidx_ <= n - 2)]
            valid[bidx_] = False
            w1 = flat.slice(0, n - 1).filter(pa.array(valid))
            bi = pc.binary_join_element_wise(
                w1, flat.slice(1, n - 1).filter(pa.array(valid)), " ")
            bidx = pc.index_in(bi, value_set=bg).to_numpy(
                zero_copy_only=False)
            uidx = pc.index_in(w1, value_set=ug).to_numpy(
                zero_copy_only=False)
            got = ~np.isnan(bidx)
            cb = np.zeros(len(bidx), dtype=np.int64)
            cu = np.ones(len(bidx), dtype=np.int64)
            cb[got] = bc[bidx[got].astype(np.int64)]
            gotu = ~np.isnan(uidx)
            cu[gotu] = uc[uidx[gotu].astype(np.int64)]
            term = (cb * np.int64(scale)) // cu
            # per-doc sums: map each bigram position to its doc
            docs = np.repeat(np.arange(n_docs, dtype=np.int64),
                             np.maximum(np.diff(off) - 1, 0))
            np.add.at(out, docs, term)
        return t.append_column("lm_affinity", pa.array(out))

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=batch_size)


# --------------------------------------------------------------------------
# DSIR-style contrastive importance scoring
# --------------------------------------------------------------------------

_FNV_PRIME = np.uint64(1099511628211)
_FNV_BASIS = np.uint64(14695981039346656037)


def _hash_strings(arr: pa.Array) -> np.ndarray:
    """Vectorized polynomial byte hash of a pyarrow string array ->
    uint64 per string (h = h * FNV_PRIME + byte, mod 2^64).  No per-row
    Python: one pass over the flat UTF-8 buffer with reduceat-style
    position arithmetic."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    off = np.frombuffer(arr.buffers()[1], dtype=np.int32,
                        count=n + 1, offset=arr.offset * 4).astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[off[0]:off[-1]]
    off = off - off[0]
    lens = np.diff(off)
    total = int(off[-1])
    with np.errstate(over="ignore"):
        if total == 0:
            return np.full(n, _FNV_BASIS, dtype=np.uint64)
        # byte position within its string; exponent = len - 1 - pos
        pos = np.arange(total, dtype=np.int64) - np.repeat(off[:-1], lens)
        maxlen = int(lens.max())
        powers = np.empty(maxlen, dtype=np.uint64)
        powers[0] = np.uint64(1)
        for i in range(1, maxlen):        # O(max string length), not O(rows)
            powers[i] = powers[i - 1] * _FNV_PRIME
        expo = np.repeat(lens, lens) - 1 - pos
        terms = data.astype(np.uint64) * powers[expo]
        out = np.full(n, _FNV_BASIS, dtype=np.uint64)
        nz = lens > 0
        # basis * P^len + poly(bytes)
        sums = np.add.reduceat(terms, off[:-1][nz]) if nz.any() else None
        if sums is not None:
            out[nz] = _FNV_BASIS * powers_at(powers, lens[nz]) + sums
    return out


def powers_at(powers: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """P^len for each length, extending the table on demand (mod 2^64)."""
    with np.errstate(over="ignore"):
        maxl = int(lens.max())
        if maxl < len(powers):
            return powers[lens]
        ext = np.empty(maxl + 1, dtype=np.uint64)
        ext[:len(powers)] = powers
        for i in range(len(powers), maxl + 1):
            ext[i] = ext[i - 1] * _FNV_PRIME
        return ext[lens]


def _gram_occurrences(t: pa.Table, text_col: str):
    """(grams, doc_idx, n_docs): one row per unigram AND bigram OCCURRENCE
    (the DSIR feature space), with each occurrence's local doc index."""
    flat, off = _text_tokens_flat(t, text_col)
    n = len(flat)
    n_docs = len(off) - 1
    per_doc = np.diff(off)
    uni_docs = np.repeat(np.arange(n_docs, dtype=np.int64), per_doc)
    if n >= 2:
        valid = np.ones(n - 1, dtype=bool)
        bidx = off[1:-1] - 1
        bidx = bidx[(bidx >= 0) & (bidx <= n - 2)]
        valid[bidx] = False
        w1 = flat.slice(0, n - 1).filter(pa.array(valid))
        w2 = flat.slice(1, n - 1).filter(pa.array(valid))
        bi = pc.binary_join_element_wise(w1, w2, " ")
        bi_docs = np.repeat(np.arange(n_docs, dtype=np.int64),
                            np.maximum(per_doc - 1, 0))
    else:
        bi = pa.array([], pa.string())
        bi_docs = np.zeros(0, dtype=np.int64)
    grams = pa.concat_arrays([
        flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat,
        bi.combine_chunks() if isinstance(bi, pa.ChunkedArray) else bi])
    return grams, np.concatenate([uni_docs, bi_docs]), n_docs


def dsir_importance(ds, target_ds, text_col: str = "text",
                    score_col: str = "dsir_score",
                    num_buckets: int | None = None,
                    scale: int = 1_000_000_000,
                    broadcast_limit: int = 20_000_000,
                    batch_size: int = 65536):
    """DSIR-style data selection scoring (Xie et al., arXiv:2302.03169) in
    exact integer arithmetic: score every doc by how much its word
    unigram+bigram distribution looks like a small TARGET corpus vs the raw
    corpus itself.

    Fixed-point analog of DSIR's log-likelihood-ratio: per gram ``g``,
    ``weight(g) = (c_target(g)*scale)//N_target - (c_raw(g)*scale)//N_raw``
    (``scale``-scaled probability difference, floor-rounded -- INTEGER, so
    scores are bit-reproducible and the exact mode is independently
    SQL-verifiable).  ``score(doc) = sum of weight(g) over the doc's gram
    OCCURRENCES``; weights are bounded by ``scale`` so scores stay in int64
    regardless of corpus size.  Select downstream with
    :func:`~.sample.select_top_fraction` (DSIR's resampling step).

    Two modes:

    * exact (``num_buckets=None``): weights keyed by gram string.  Both
      count tables stream through ``groupby_agg``'s bucketed exchange (one
      row per DISTINCT gram leaves a node); the raw-corpus table broadcasts
      once under ``broadcast_limit`` distinct grams, else raises pointing
      at hashed mode.
    * hashed (``num_buckets=B``, the 100 TB path -- DSIR's own design):
      grams hash into ``B`` buckets via a vectorized FNV-style polynomial
      byte hash; per-batch partials are nonzero ``(bucket, n)`` rows
      (bincount -- gram strings NEVER leave the node), the merged table is
      at most ``B`` rows, and the weight vector is one dense broadcast
      int64 array.  No string exchange anywhere; collisions merge features
      exactly as in the paper.

    ``ds`` is read twice (count pass + scoring pass): pass a re-readable
    Dataset (e.g. a parquet read), not an exhausted iterator.
    """
    import ray

    from .aggregate import groupby_agg

    hashed = num_buckets is not None

    def count_partial(t: pa.Table) -> pa.Table:
        grams, _, _ = _gram_occurrences(t, text_col)
        if hashed:
            b = (_hash_strings(grams) % np.uint64(num_buckets)).astype(
                np.int64)
            cnt = np.bincount(b, minlength=0)
            nz = np.nonzero(cnt)[0]
            return pa.table({"g": pa.array(nz.astype(np.int64)),
                             "n": pa.array(cnt[nz].astype(np.int64))})
        g = pa.table({"g": grams}).group_by("g").aggregate([([], "count_all")])
        return g.rename_columns(["g", "n"])

    def counts_of(d):
        partials = d.map_batches(count_partial, batch_format="pyarrow",
                                 zero_copy_batch=True, batch_size=batch_size)
        return groupby_agg(partials, ["g"], [("n", "sum", "n")]).materialize()

    raw_counts = counts_of(ds)
    tgt_counts = counts_of(target_ds)

    def collect(d) -> pa.Table:
        tabs = [t for t in ray.get(d.to_arrow_refs()) if t.num_rows]
        gtype = pa.int64() if hashed else pa.string()
        if not tabs:
            return pa.table({"g": pa.array([], gtype),
                             "n": pa.array([], pa.int64())})
        return pa.concat_tables(tabs).combine_chunks()

    if not hashed:
        n_distinct = raw_counts.count()
        if n_distinct > broadcast_limit:
            raise ValueError(
                f"dsir_importance exact mode: {n_distinct} distinct grams >"
                f" broadcast_limit={broadcast_limit}; use num_buckets="
                "(hashed mode, the scale path)")
    raw_t, tgt_t = collect(raw_counts), collect(tgt_counts)
    n_raw = int(pc.sum(raw_t.column("n")).as_py() or 0)
    n_tgt = int(pc.sum(tgt_t.column("n")).as_py() or 0)

    if hashed:
        wv = np.zeros(num_buckets, dtype=np.int64)
        rb = raw_t.column("g").to_numpy(zero_copy_only=False)
        rn = raw_t.column("n").to_numpy(zero_copy_only=False)
        if n_raw:
            wv[rb] -= (rn * np.int64(scale)) // np.int64(n_raw)
        tb = tgt_t.column("g").to_numpy(zero_copy_only=False)
        tn = tgt_t.column("n").to_numpy(zero_copy_only=False)
        if n_tgt:
            np.add.at(wv, tb, (tn * np.int64(scale)) // np.int64(n_tgt))
        state = ray.put((True, wv, None))
    else:
        gset = raw_t.column("g").combine_chunks()
        rn = raw_t.column("n").to_numpy(zero_copy_only=False)
        wts = -((rn * np.int64(scale)) // np.int64(max(n_raw, 1)))
        tidx = pc.index_in(tgt_t.column("g"), value_set=gset).to_numpy(
            zero_copy_only=False)
        tn = tgt_t.column("n").to_numpy(zero_copy_only=False)
        got = ~np.isnan(tidx)
        if got.any() and n_tgt:
            np.add.at(wts, tidx[got].astype(np.int64),
                      (tn[got] * np.int64(scale)) // np.int64(n_tgt))
        state = ray.put((False, wts, gset))

    def score(t: pa.Table) -> pa.Table:
        is_hashed, weights, value_set = ray.get(state)
        grams, doc_idx, n_docs = _gram_occurrences(t, text_col)
        out = np.zeros(n_docs, dtype=np.int64)
        if len(grams):
            if is_hashed:
                b = (_hash_strings(grams)
                     % np.uint64(len(weights))).astype(np.int64)
                w = weights[b]
            else:
                idx = pc.index_in(grams, value_set=value_set).to_numpy(
                    zero_copy_only=False)
                w = np.zeros(len(grams), dtype=np.int64)
                got_ = ~np.isnan(idx)
                w[got_] = weights[idx[got_].astype(np.int64)]
            np.add.at(out, doc_idx, w)
        return t.append_column(score_col, pa.array(out))

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=batch_size)


def normalize_text(batch: pa.Table, text_col: str = "text",
                   out_col: str | None = None, lowercase: bool = True,
                   collapse_ws: bool = True,
                   strip_punct: bool = False) -> pa.Table:
    """Canonical text normalization (the pre-dedup / pre-hash cleanup
    pass): optional lowercase, punctuation strip, and whitespace
    collapse+trim -- pure Arrow kernels, order fixed (punct -> ws) so the
    SQL oracle chains the identical regexp_replace calls."""
    col = batch.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if lowercase:
        col = pc.utf8_lower(col)
    if strip_punct:
        col = pc.replace_substring_regex(col, r"[^\w\s]", "")
    if collapse_ws:
        col = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(col, r"\s+", " "))
    name = out_col or text_col
    if name in batch.column_names:
        return batch.set_column(batch.column_names.index(name), name, col)
    return batch.append_column(name, col)


def tfidf(ds, key_col: str = "doc_id", text_col: str = "text",
          df_broadcast_limit: int = 20_000_000, batch_size: int = 65536,
          num_buckets: int = 32):
    """Per-(doc, term) TF-IDF over whitespace-lowered tokens.

    Output: one row per (doc, token) with ``tf`` (term count in the doc),
    ``df`` (number of distinct docs containing the token), ``n_docs``, and
    ``tfidf = tf * ln(n_docs / df)`` (float64, for consumers; the integer
    tf/df/n_docs columns are the oracle-checked surface -- the exact-
    integer-arithmetic convention of :func:`ngram_lm_affinity` /
    :func:`dsir_importance`, since ln() ulps are libm-specific).

    Scale shape: one row per doc means each batch's (doc, token) counts
    are FINAL (no partials to merge); ``df`` is one bucketed groupby over
    the tf rows (count of rows per token == distinct docs).  The df side
    attaches by broadcast (sorted searchsorted probe) under
    ``df_broadcast_limit`` distinct tokens, else through the bucketed
    equi join -- text itself never shuffles either way.
    """
    import ray

    from .aggregate import groupby_agg

    def tf_partial(t: pa.Table) -> pa.Table:
        flat, off = _text_tokens_flat(t, text_col)
        keys = t.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        idx = pa.array(np.repeat(np.arange(t.num_rows, dtype=np.int64),
                                 np.diff(off)))
        pairs = pa.table({key_col: keys.take(idx), "token": flat})
        g = pairs.group_by([key_col, "token"]).aggregate([([], "count_all")])
        return g.rename_columns([key_col, "token", "tf"])

    tf_ds = ds.map_batches(tf_partial, batch_format="pyarrow",
                           zero_copy_batch=True,
                           batch_size=batch_size).materialize()
    n_docs = ds.count()
    df_ds = groupby_agg(tf_ds, ["token"], [("tf", "count", "df")]).materialize()

    if df_ds.count() <= df_broadcast_limit:
        tables = [t for t in ray.get(df_ds.to_arrow_refs()) if t.num_rows]
        dfp = pa.concat_tables(tables).combine_chunks()
        toks = dfp.column("token").to_numpy(zero_copy_only=False)
        dfs = dfp.column("df").to_numpy(zero_copy_only=False)
        order = np.argsort(toks)
        ref = ray.put((toks[order], dfs[order]))

        def attach(t: pa.Table) -> pa.Table:
            toks_s, dfs_s = ray.get(ref)
            tk = t.column("token").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(toks_s, tk)
            d = dfs_s[pos]  # every token exists in the df table
            return _with_idf(t, d, n_docs)

        return tf_ds.map_batches(attach, batch_format="pyarrow",
                                 zero_copy_batch=True)

    from .join import bucketed_join

    joined = bucketed_join(tf_ds, df_ds, on="token",
                           num_buckets=num_buckets)

    def finish(t: pa.Table) -> pa.Table:
        d = t.column("df").to_numpy(zero_copy_only=False)
        return _with_idf(t.drop_columns(["df"]), d, n_docs)

    return joined.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def _with_idf(t: pa.Table, df: "np.ndarray", n_docs: int) -> pa.Table:
    tf_v = t.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
    d = df.astype(np.int64)
    out = t.append_column("df", pa.array(d))
    out = out.append_column("n_docs",
                            pa.array(np.full(len(d), n_docs, np.int64)))
    return out.append_column(
        "tfidf", pa.array(tf_v * np.log(n_docs / d.astype(np.float64))))


# ---------------------------------------------------------------------------
# BPE tokenizer training (the standard pretokenized scheme: distributed
# word counts, driver-side merge learning over the tiny frequency table)
# ---------------------------------------------------------------------------

_EOW = "</w>"


def train_bpe(ds, text_col: str = "text", num_merges: int = 100,
              min_count: int = 1, batch_size: int = 65536) -> list[tuple]:
    """Learn BPE merges (Sennrich et al. 2016 semantics, ``</w>``
    end-of-word marker) from the corpus.

    Scale shape -- the standard production design (pretokenized BPE):
    the ONLY corpus-sized pass is the distributed word count
    (:func:`build_vocab`: per-batch Arrow group_by partials, bucketed
    merge; text never shuffles).  Merge learning then runs driver-side
    over the tiny (word, count) table -- O(vocab) per merge, independent
    of corpus size.  Deterministic: ties break on the lexicographically
    smallest pair.

    Returns the ordered merge list ``[(left, right), ...]``.
    """
    vocab_ds = build_vocab(ds, text_col=text_col, min_count=min_count)
    wf = (vocab_ds.to_pandas() if hasattr(vocab_ds, "to_pandas")
          else vocab_ds)
    words = {tuple(w) + (_EOW,): int(c)
             for w, c in zip(wf["token"], wf["count"])}
    merges: list[tuple] = []
    for _ in range(num_merges):
        pairs: dict = {}
        for syms, c in words.items():
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pairs[p] = pairs.get(p, 0) + c
        if not pairs:
            break
        # deterministic: max count, then lexicographically SMALLEST pair
        top_n = max(pairs.values())
        best = min(p for p, c in pairs.items() if c == top_n)
        merges.append(best)
        merged = best[0] + best[1]
        new_words = {}
        for syms, c in words.items():
            out = []
            i = 0
            while i < len(syms):
                if (i + 1 < len(syms)
                        and (syms[i], syms[i + 1]) == best):
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_words[tuple(out)] = new_words.get(tuple(out), 0) + c
        words = new_words
    return merges


def bpe_encode_word(word: str, ranks: dict) -> list[str]:
    """Encode one word with learned merges: repeatedly merge the
    lowest-rank adjacent pair (the standard greedy application)."""
    syms = list(word) + [_EOW]
    while len(syms) > 1:
        best_rank, best_i = None, -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_i < 0:
            break
        syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


class BPEEncoder:
    """Actor-pool callable: tokenize ``text_col`` with learned merges.

    Merge ranks load ONCE per actor (``__init__``); per batch only the
    UNIQUE lowered words are encoded (cache persists across batches), so
    hot words cost one encode per actor regardless of corpus size.
    Output: ``n_bpe_tokens`` int64 per doc (token count -- the budget
    signal packing/chunking consume)."""

    def __init__(self, merges, text_col: str = "text"):
        import ray

        m = ray.get(merges) if not isinstance(merges, list) else merges
        self.ranks = {tuple(p): i for i, p in enumerate(m)}
        self.text_col = text_col
        self.cache: dict = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch.column(self.text_col)), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        off = off - off[0]
        flat = toks.flatten()
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        words = flat.to_pylist()
        n_tok = np.zeros(len(words), dtype=np.int64)
        for i, w in enumerate(words):
            if not w:
                continue
            n = self.cache.get(w)
            if n is None:
                n = len(bpe_encode_word(w, self.ranks))
                self.cache[w] = n
            n_tok[i] = n
        per_doc = (np.add.reduceat(n_tok, off[:-1])
                   * (np.diff(off) > 0) if len(off) > 1 and len(n_tok)
                   else np.zeros(max(len(off) - 1, 0), np.int64))
        return batch.append_column("n_bpe_tokens",
                                   pa.array(per_doc.astype(np.int64)))


def bpe_token_counts(ds, merges: list[tuple], text_col: str = "text",
                     batch_size: int = 65536):
    """Dataset stage: per-doc BPE token counts under learned merges."""
    import ray

    m_ref = ray.put(list(merges))
    return ds.map_batches(
        BPEEncoder,
        fn_constructor_kwargs=dict(merges=m_ref, text_col=text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=(1, 8),
    )
