"""Distributed model training over Dataset columns (engine extension).

The quality-classifier shape of a curation pipeline (fastText-style
filters): train a small linear model where ROWS NEVER MOVE -- the input
is materialized once, and every iteration is one small task per block
(:meth:`exchange.Blocks.sums`) returning that block's gradient as a numpy
(d+1)-vector, summed on the driver in block order.
:func:`similarity.kmeans_fit` runs its seeding and Lloyd's rounds the same
way.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .exchange import Blocks


def _design_matrix(t: pa.Table, feature_cols: list[str]) -> np.ndarray:
    cols = [t.column(c).to_numpy(zero_copy_only=False).astype(np.float64)
            for c in feature_cols]
    x = np.column_stack(cols + [np.ones(t.num_rows)])  # bias term last
    return x


def _logreg_partial(t: pa.Table, w: np.ndarray, feature_cols: list[str],
                    label_col: str) -> np.ndarray:
    """One block's unnormalized gradient ``X_b.T @ (sigmoid(X_b w) - y_b)``."""
    x = _design_matrix(t, feature_cols)
    y = t.column(label_col).to_numpy(zero_copy_only=False).astype(np.float64)
    return x.T @ (1.0 / (1.0 + np.exp(-(x @ w))) - y)


def logreg_fit(ds, feature_cols: list[str], label_col: str,
               iters: int = 200, lr: float = 0.5,
               l2: float = 0.0) -> np.ndarray:
    """Full-batch gradient-descent logistic regression (labels 0/1).

    The projected input is materialized once (one Ray Data execution);
    each iteration runs one task per block, each returning that block's
    ``X_b.T @ (sigmoid(X_b w) - y_b)``.  The driver sums them in block
    order (deterministic) and steps ``w -= lr * (g/n + l2*w)``.
    Identical arithmetic to single-process full-batch GD up to block
    summation order (pinned against a numpy referee in tests).  Raises
    ``ValueError`` on an input without rows.

    Returns the weight vector (features..., bias) as float64.
    """
    blocks = Blocks.of(ds.select_columns(feature_cols + [label_col]))
    if not blocks.num_rows:
        raise ValueError("logreg_fit: empty input")
    w = np.zeros(len(feature_cols) + 1)
    for _ in range(iters):
        g = np.sum(blocks.sums(_logreg_partial, w=w, feature_cols=feature_cols,
                               label_col=label_col), axis=0)
        w = w - lr * (g / blocks.num_rows + l2 * w)
    return w


def logreg_predict(ds, weights: np.ndarray, feature_cols: list[str],
                   out_col: str = "score", label_out: str | None = "pred",
                   threshold: float = 0.5):
    """Broadcast-scoring pass: append the sigmoid score (and optionally a
    thresholded 0/1 prediction) to every row."""
    import ray

    w_ref = ray.put(np.asarray(weights, np.float64))

    def fn(t: pa.Table) -> pa.Table:
        w = ray.get(w_ref)
        x = _design_matrix(t, feature_cols)
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        out = t.append_column(out_col, pa.array(p))
        if label_out:
            out = out.append_column(
                label_out, pa.array((p >= threshold).astype(np.int64)))
        return out

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def make_embedder_weights(hash_dim: int = 1 << 15, hidden: int = 128,
                          dim: int = 64, seed: int = 7):
    """Deterministic 2-layer MLP encoder weights (the 'model artifact').

    Derived from the seed instead of shipped as a file -- this container
    has no torch/ONNX runtime, so the checkpoint is a seeded numpy
    construction; swap in ``np.load`` of a real export in production.
    float32 to match real checkpoint residency (hash_dim x hidden at the
    defaults = 16 MB per actor)."""
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((hash_dim, hidden)).astype(np.float32)
    w1 /= np.sqrt(hidden)
    w2 = rng.standard_normal((hidden, dim)).astype(np.float32)
    w2 /= np.sqrt(dim)
    return w1, w2


class TextEmbedder:
    """Actor-pool model-inference stage: text -> L2-normalized embedding.

    The canonical LLM-pipeline inference shape: the model loads ONCE per
    actor in ``__init__`` (here a seeded numpy MLP, or an ``.npz``
    checkpoint via ``weights_path``; a GPU deployment would load
    torch/ONNX the same way) and ``__call__`` embeds a whole Arrow batch
    vectorized -- tokens split in C++ (`utf8_split_whitespace`), hashed
    in bulk, gather-summed into the first layer with ``np.add.reduceat``
    (never a per-row Python loop), then one dense matmul per batch.

    Encoder: hashed bag-of-tokens -> W1 -> ReLU -> W2 -> L2 normalize.
    Deterministic: same text, same weights => bit-identical embedding,
    so an exact duplicate of a corpus document embeds at cosine exactly
    1.0 -- the provable known-answer anchor the driver query uses.
    """

    def __init__(self, text_col: str = "text", out_col: str = "embedding",
                 hash_dim: int = 1 << 15, hidden: int = 128, dim: int = 64,
                 seed: int = 7, weights_path: str | None = None):
        self.text_col, self.out_col = text_col, out_col
        self.hash_dim = hash_dim
        if weights_path:
            z = np.load(weights_path)
            self.w1, self.w2 = z["w1"], z["w2"]
            self.hash_dim = self.w1.shape[0]
        else:
            self.w1, self.w2 = make_embedder_weights(hash_dim, hidden,
                                                     dim, seed)

    def __call__(self, t: pa.Table) -> pa.Table:
        import pandas as pd
        import pyarrow.compute as pc

        n = t.num_rows
        toks = pc.utf8_split_whitespace(
            pc.utf8_lower(t.column(self.text_col)))
        flat = toks.combine_chunks()
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        off = flat.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        raw_lens = np.diff(off - off[0])
        row_of = np.repeat(np.arange(n, dtype=np.int64), raw_lens)
        # Hash only the UNIQUE tokens (dictionary_encode is one C++ pass;
        # pd.util.hash_array walks Python objects, so feed it the
        # vocabulary, not the token stream) and expand by code -- same
        # hash per token, so outputs are bit-identical to direct hashing.
        denc = flat.values.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = denc.dictionary.to_pandas().to_numpy(dtype=object)
        # whitespace splitting yields '' tokens for empty/blank rows --
        # drop them so such rows embed to the zero vector
        keep = pc.greater(pc.utf8_length(flat.values), 0).to_numpy(
            zero_copy_only=False)
        codes, row_of = codes[keep], row_of[keep]
        if len(codes):
            uidx = (pd.util.hash_array(uniq)
                    % self.hash_dim).astype(np.int64)
            # two-step gather: pull each unique token's W1 row once (the
            # small, cache-resident table), then expand by code -- the
            # gathered rows are identical to w1[idx], so the downstream
            # reduceat sums the exact same float32 values in the exact
            # same (text) order
            gathered = self.w1[uidx][codes]
        else:
            gathered = np.zeros((0, self.w1.shape[1]), np.float32)
        # per-row sums: reduceat needs non-empty segments; rows with zero
        # tokens get an explicit zero vector
        lens = np.bincount(row_of, minlength=n).astype(np.int64)
        starts = np.cumsum(lens) - lens
        h = np.zeros((n, self.w1.shape[1]))
        nz = lens > 0
        if nz.any() and len(gathered):
            # f32 accumulation is row-local (sorted token order within the
            # row), so embeddings stay deterministic and batch-invariant
            sums = np.add.reduceat(gathered, starts[nz], axis=0)
            h[nz] = sums.astype(np.float64)
        np.maximum(h, 0.0, out=h)          # ReLU
        e = h @ self.w2.astype(np.float64)
        norm = np.linalg.norm(e, axis=1)
        norm[norm == 0] = 1.0
        e = (e / norm[:, None]).astype(np.float32)
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(e.ravel(), pa.float32()), e.shape[1])
        return t.append_column(self.out_col, emb)


def embed_texts(ds, text_col: str = "text", out_col: str = "embedding",
                concurrency: int = 4, batch_size: int = 4096, **kw):
    """Embed a text column with a :class:`TextEmbedder` actor pool."""
    return ds.map_batches(
        TextEmbedder, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency, batch_size=batch_size,
        fn_constructor_kwargs=dict(text_col=text_col, out_col=out_col, **kw))
