"""Similarity search over an embedding column (driver-mandated extension).

Brute-force cosine top-k is the exactness baseline: the query matrix is
broadcast ONCE (``ray.put``), every batch does one numpy matmul against it,
emits its local top-k (the combiner), and the driver merges tiny per-batch
partials -- no shuffle at all.  The scale path is IVF: a seeded numpy k-means
on a sample builds centroids (broadcast), vectors are bucketed by nearest
centroid, and queries probe only the closest ``nprobe`` buckets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _normalize(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(n, 1e-12)


def _embedding_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(flat) // max(batch.num_rows, 1)
    return flat.reshape(batch.num_rows, dim)


class BruteForceTopK:
    """Per-batch cosine scores vs a broadcast query matrix, local top-k."""

    def __init__(self, queries_ref, k: int, id_col: str, emb_col: str):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.q = _normalize(q)  # (nq, dim), float64 for oracle-stable ordering
        self.k = k
        self.id_col, self.emb_col = id_col, emb_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_embedding_matrix(batch, self.emb_col))      # (n, dim)
        scores = self.q @ m.T                                       # (nq, n)
        k = min(self.k, m.shape[0])
        idx = np.argpartition(-scores, k - 1, axis=1)[:, :k]        # (nq, k)
        rows = np.take_along_axis(scores, idx, axis=1)
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        nq = self.q.shape[0]
        return pa.table(
            {
                "query_id": pa.array(np.repeat(np.arange(nq, dtype=np.int64), k)),
                self.id_col: pa.array(ids[idx.ravel()]),
                "score": pa.array(rows.ravel().astype(np.float64)),
            }
        )


def knn_brute_force(ds, queries: np.ndarray, k: int = 10,
                    id_col: str = "vec_id", emb_col: str = "embedding",
                    query_ids=None):
    """Exact cosine top-k for each query row; returns a pyarrow Table
    (query_id, id, score, rank) -- the merge is over per-batch partials only.
    Ties break on ascending id (deterministic, matches the SQL oracle's
    ``ORDER BY sim DESC, id``)."""
    import ray

    q = np.asarray(queries, dtype=np.float64)
    q_ref = ray.put(q)

    # tasks mode: warm Ray workers are reused across executions (no actor
    # pool spin-up per query); the broadcast query matrix is rehydrated
    # zero-copy per task via ray.get
    def scorer(batch: pa.Table) -> pa.Table:
        return BruteForceTopK(q_ref, k=k, id_col=id_col, emb_col=emb_col)(batch)

    partials = ds.map_batches(
        scorer,
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).to_pandas()
    if query_ids is None:
        query_ids = np.arange(q.shape[0])
    out = {"query_id": [], id_col: [], "score": [], "rank": []}
    for qid, g in partials.groupby("query_id"):
        top = g.sort_values(["score", id_col], ascending=[False, True]).head(k)
        out["query_id"].extend([query_ids[qid]] * len(top))
        out[id_col].extend(top[id_col])
        out["score"].extend(top["score"])
        out["rank"].extend(range(1, len(top) + 1))
    return pa.table({k_: pa.array(v) for k_, v in out.items()})


# --------------------------------------------------------------------------
# IVF (scale path)
# --------------------------------------------------------------------------

def uniform_sample_matrix(ds, id_col: str, emb_col: str, sample_n: int,
                          seed: int = 42) -> np.ndarray:
    """Seeded UNIFORM sample of ``sample_n`` embedding rows for quantizer
    training: the rows with the globally smallest ``sample_n`` Knuth key
    hashes (ties broken by the hash value itself, a set property of the
    data -- identical across block layouts, cluster sizes, and input
    order).

    Why not ``ds.limit(sample_n)``: limit takes the FIRST rows.  A 100 TB
    corpus ordered by source/date would hand k-means a biased slice of the
    manifold -> skewed clusters -> one giant bucket (semantic_dedup's
    ``max_cluster_rows`` trips) or cratered IVF recall.

    Scale shape: per batch only the local ``sample_n`` smallest
    (hash, vec) rows leave the worker; a second combining pass shrinks the
    partials another ~64x before the final tiny sort+limit, so the driver
    never sees more than O(blocks/64 * sample_n) shrunken rows."""
    from .sample import key_hash
    from .text import _hash_strings

    def local_top(batch: pa.Table) -> pa.Table:
        if "__h" in batch.column_names:
            h = batch.column("__h").to_numpy(zero_copy_only=False)
            vecs = batch.column(emb_col)
        else:
            ids = batch.column(id_col)
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            if pa.types.is_string(ids.type) or pa.types.is_large_string(ids.type):
                base = _hash_strings(ids)
            else:
                base = ids.to_numpy(zero_copy_only=False).astype(np.uint64)
            h = key_hash(base, seed)
            vecs = batch.column(emb_col)
        if len(h) > sample_n:
            idx = np.argpartition(h, sample_n)[:sample_n]
            idx.sort()  # keep take() sequential
            take = pa.array(idx)
            h = h[idx]
            vecs = (vecs.combine_chunks() if isinstance(vecs, pa.ChunkedArray)
                    else vecs).take(take)
        return pa.table({"__h": pa.array(h), emb_col: vecs})

    partials = ds.select_columns([id_col, emb_col]).map_batches(
        local_top, batch_format="pyarrow", zero_copy_batch=True)
    combined = partials.map_batches(local_top, batch_format="pyarrow",
                                    batch_size=sample_n * 64)
    top = combined.sort("__h").limit(sample_n).to_pandas()
    return np.stack(top[emb_col].to_numpy())


def train_centroids(sample: np.ndarray, n_clusters: int, iters: int = 10,
                    seed: int = 42) -> np.ndarray:
    """Seeded numpy Lloyd's k-means on a driver-side sample (the classic IVF
    coarse quantizer; sample is small, training is O(sample x clusters))."""
    rng = np.random.default_rng(seed)
    sample = _normalize(np.asarray(sample, dtype=np.float32))
    cents = sample[rng.choice(len(sample), size=n_clusters, replace=False)]
    for _ in range(iters):
        assign = (sample @ cents.T).argmax(axis=1)
        for c in range(n_clusters):
            members = sample[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = _normalize(cents)
    return cents


def assign_buckets(ds, centroids_ref, id_col: str = "vec_id",
                   emb_col: str = "embedding"):
    """Add an ``ivf_bucket`` column = nearest centroid id (broadcast probe)."""
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        cents = ray.get(centroids_ref)
        m = _normalize(_embedding_matrix(batch, emb_col))
        bucket = (m @ cents.T).argmax(axis=1).astype(np.int32)
        return batch.append_column("ivf_bucket", pa.array(bucket))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def knn_ivf(ds, queries: np.ndarray, k: int = 10, n_clusters: int = 16,
            nprobe: int = 4, sample_n: int = 4096,
            id_col: str = "vec_id", emb_col: str = "embedding"):
    """IVF approximate top-k: bucket by coarse quantizer, probe the nprobe
    nearest buckets per query.  At 100 TB the bucketed dataset is written
    partitioned by ``ivf_bucket`` once and queries touch only their buckets."""
    import ray

    sample = uniform_sample_matrix(ds, id_col, emb_col, sample_n)
    cents = train_centroids(sample, n_clusters)
    cents_ref = ray.put(cents)
    bucketed = assign_buckets(ds, cents_ref, id_col=id_col, emb_col=emb_col)

    q = _normalize(np.asarray(queries, dtype=np.float32))
    probe = np.argsort(-(q @ cents.T), axis=1)[:, :nprobe]          # (nq, nprobe)
    wanted = set(np.unique(probe).tolist())
    wanted_ref = ray.put(wanted)

    def keep_probed(batch: pa.Table) -> pa.Table:
        w = ray.get(wanted_ref)
        b = batch.column("ivf_bucket").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(b, list(w))))

    pruned = bucketed.map_batches(keep_probed, batch_format="pyarrow",
                                  zero_copy_batch=True)
    # exact search within the probed buckets
    return knn_brute_force(pruned, q, k=k, id_col=id_col, emb_col=emb_col)


def build_ivf_index(ds, index_dir: str, n_clusters: int = 16,
                    sample_n: int = 4096, id_col: str = "vec_id",
                    emb_col: str = "embedding", seed: int = 42) -> str:
    """Persist an IVF index: vectors written as Parquet PARTITIONED BY
    ``ivf_bucket`` (one directory per bucket) + the centroid matrix.

    This is the 100 TB ANN layout: the expensive full pass (assign + write)
    happens once; every later query reads ONLY its ``nprobe`` bucket
    directories (directory-level pruning, no full scan, resumable like any
    partitioned output)."""
    import os

    import ray

    sample = uniform_sample_matrix(ds, id_col, emb_col, sample_n, seed=seed)
    cents = train_centroids(sample, n_clusters, seed=seed)
    bucketed = assign_buckets(ds, ray.put(cents), id_col=id_col, emb_col=emb_col)
    os.makedirs(index_dir, exist_ok=True)
    bucketed.write_parquet(index_dir, partition_cols=["ivf_bucket"])
    np.save(os.path.join(index_dir, "centroids.npy"), cents)
    return index_dir


def query_ivf_index(index_dir: str, queries: np.ndarray, k: int = 10,
                    nprobe: int = 4, id_col: str = "vec_id",
                    emb_col: str = "embedding"):
    """Query a persisted IVF index: load centroids, pick the ``nprobe``
    nearest bucket DIRECTORIES per query, and brute-force only those
    partitions (directory pruning = the partition-level filter pushdown)."""
    import glob
    import os

    import ray.data as rd

    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    q = _normalize(np.asarray(queries, dtype=np.float32))
    probe = np.argsort(-(q @ cents.T), axis=1)[:, :nprobe]
    wanted = sorted(set(np.unique(probe).tolist()))
    files = [f for b in wanted
             for f in glob.glob(os.path.join(index_dir, f"ivf_bucket={b}",
                                             "*.parquet"))]
    pruned = rd.read_parquet(files)
    return knn_brute_force(pruned, q, k=k, id_col=id_col, emb_col=emb_col)


class EmbeddingLSHSketch:
    """``map_batches`` callable: (id, sig = NORMALIZED embedding as
    FixedSizeList<float32>, bucket = random-hyperplane LSH code width 1) --
    the same sketch-table contract :func:`dedup.lsh_verified_edges`
    consumes, so candidate edges are emitted AND cosine-verified in one
    vectorized pass (the signature IS the unit vector; verify = dot)."""

    def __init__(self, planes_ref, id_col: str = "vec_id",
                 emb_col: str = "embedding"):
        import ray

        self.planes = (planes_ref if isinstance(planes_ref, np.ndarray)
                       else ray.get(planes_ref))
        self.id_col, self.emb_col = id_col, emb_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .dedup import _matrix_to_fixed_list

        p = self.planes
        m = _normalize(_embedding_matrix(batch, self.emb_col))
        bits = (m @ p) > 0
        n_planes = p.shape[1]
        code = (bits.astype(np.uint32)
                << np.arange(n_planes, dtype=np.uint32)).sum(axis=1)
        return pa.table({
            self.id_col: batch.column(self.id_col),
            "sig": _matrix_to_fixed_list(m, m.shape[1], dtype=np.float32),
            "bucket": _matrix_to_fixed_list(
                code.astype(np.int64).reshape(-1, 1), 1
            ),
        })


def embedding_near_dup(ds, threshold: float = 0.95, id_col: str = "vec_id",
                       emb_col: str = "embedding", n_planes: int = 16,
                       seed: int = 42, mode: str = "auto",
                       hot_bucket_limit: int = 2_000_000,
                       edge_driver_limit: int = 20_000_000):
    """Embedding-cosine near-dup via random-hyperplane LSH buckets +
    exact-cosine verification; keeps the min-id representative per cluster.

    Shares :func:`dedup.lsh_verified_edges`: bucket winners from a
    partial+final aggregate, star edges emitted via vectorized searchsorted
    probes and verified by a dot product in the same pass (the normalized
    vector rides in the sketch), members failing against the bucket min
    re-starred among themselves.  ``mode`` mirrors
    :func:`dedup.dedup_minhash`: past the hot-bucket / edge limits (or
    forced with "distributed") emission, clustering and the drop filter all
    run Dataset-native with no driver state."""
    import ray

    from .dedup import _resolve_clusters_and_drop, lsh_verified_edges

    # dimension probe from one row
    first = ds.limit(1).to_pandas()
    dim = len(first[emb_col].iloc[0])
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, n_planes)).astype(np.float32)
    planes_ref = ray.put(planes)

    sketches = ds.map_batches(
        EmbeddingLSHSketch,
        fn_constructor_kwargs=dict(planes_ref=planes_ref, id_col=id_col,
                                   emb_col=emb_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 8),
    ).materialize()

    def verify(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
        return (sa.astype(np.float64) * sb.astype(np.float64)).sum(axis=1) >= threshold

    edge_mode = {"auto": "auto", "distributed": "distributed",
                 "driver": "broadcast"}[mode]
    edges = lsh_verified_edges(sketches, id_col, verify, edge_mode=edge_mode,
                               hot_bucket_limit=hot_bucket_limit)
    return _resolve_clusters_and_drop(ds, edges, id_col, mode=mode,
                                      edge_driver_limit=edge_driver_limit)


# --------------------------------------------------------------------------
# SemDeDup (semantic dedup via k-means clusters + exact within-cluster cosine)
# --------------------------------------------------------------------------

def semantic_dedup(ds, threshold: float = 0.95, n_clusters: int = 64,
                   id_col: str = "vec_id", emb_col: str = "embedding",
                   sample_n: int = 4096, seed: int = 42, mode: str = "auto",
                   max_cluster_rows: int = 65536, chunk_rows: int = 512,
                   edge_driver_limit: int = 20_000_000):
    """SemDeDup-style semantic dedup (public method of Abbas et al. 2023,
    arXiv:2303.09540): k-means-cluster the embeddings with the IVF coarse
    quantizer, compute EXACT pairwise cosine only WITHIN each cluster, and
    drop all but one representative of every connected >=threshold group.

    Deviation from the paper, documented: the survivor is the min-id member
    (the whole dedup family's convention, shared with
    :func:`embedding_near_dup`), not the lowest-centroid-similarity
    exemplar.

    Scale shape: clustering reduces the O(N^2) global problem to
    sum(n_c^2) within-cluster work (the paper's core trick).  Centroids
    train on a driver-side sample and broadcast; the cluster exchange is
    ONE groupby over (id, embedding) rows; per-cluster similarity runs in
    row chunks (``chunk_rows`` x cluster_size float32 matmul, bounded
    memory) and emits only >=threshold edges.  A cluster larger than
    ``max_cluster_rows`` raises with a remediation hint (raise
    ``n_clusters``) instead of quadratically blowing up a worker -- the
    explicit-skew-guard convention of ``dedup_ngram``.  Edge resolution
    reuses :func:`dedup._resolve_clusters_and_drop`: driver union-find
    below ``edge_driver_limit``, Dataset-native distributed components +
    bucketed anti-join above it (or always with ``mode="distributed"``).
    """
    import ray

    from .dedup import _resolve_clusters_and_drop

    sample = uniform_sample_matrix(ds, id_col, emb_col, sample_n, seed=seed)
    cents = train_centroids(sample, min(n_clusters, len(sample)), seed=seed)
    slim = ds.select_columns([id_col, emb_col])
    bucketed = assign_buckets(slim, ray.put(cents), id_col=id_col,
                              emb_col=emb_col)

    def cluster_edges(g: pa.Table) -> pa.Table:
        n = g.num_rows
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64())})
        if n < 2:
            return empty
        if n > max_cluster_rows:
            raise ValueError(
                f"semantic_dedup cluster has {n} rows >"
                f" max_cluster_rows={max_cluster_rows}; raise n_clusters"
                f" (or max_cluster_rows) to bound the quadratic work")
        m = _normalize(_embedding_matrix(g, emb_col)).astype(np.float32)
        ids = g.column(id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        out_a, out_b = [], []
        for s in range(0, n, chunk_rows):
            e = min(s + chunk_rows, n)
            # float64 accumulation for threshold stability at ~1.0
            sims = m[s:e].astype(np.float64) @ m.T.astype(np.float64)
            ii, jj = np.nonzero(sims >= threshold)
            keep = (ii + s) < jj          # strict upper triangle only
            gi, gj = ii[keep] + s, jj[keep]
            out_a.append(np.minimum(ids[gi], ids[gj]))
            out_b.append(np.maximum(ids[gi], ids[gj]))
        if not out_a:
            return empty
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        if not len(a):
            return empty
        return pa.table({"a": pa.array(a), "b": pa.array(b)})

    # co-locate each cluster through the repo's own hash exchange (the
    # bucket id needs no ordering, so Ray's sort-based groupby shuffle is
    # pure overhead here -- same substrate as every other bucketed path)
    from .exchange import hash_exchange

    k_eff = int(min(n_clusters, len(sample)))
    edges = hash_exchange(bucketed, k_eff, cluster_edges,
                          bucket_col="ivf_bucket")
    n_edges = edges.count()
    if mode != "distributed" and n_edges <= edge_driver_limit:
        edges = edges.to_pandas()
    return _resolve_clusters_and_drop(ds, edges, id_col, mode=mode,
                                      edge_driver_limit=edge_driver_limit)


# --------------------------------------------------------------------------
# Distributed PCA over an embedding column
# --------------------------------------------------------------------------

def fit_pca(ds, vec_col: str = "vec", k: int = 8, center: bool = True):
    """Distributed PCA fit -- the classic moment-accumulation shape: ONE
    streaming pass emits per-block (n, sum, X^T X) partials (a d-vector
    plus a d x d float64 matrix per BLOCK, d = embedding dim); the driver
    combines O(blocks) tiny partials and eigendecomposes the d x d
    covariance.  Rows never move; driver work is O(d^2 * blocks + d^3).

    Returns ``(mean, components, explained_variance)``: float64[d],
    float64[k, d] (rows = components, largest eigenvalue first), and the
    per-component variance.  Deterministic sign convention: each
    component's largest-|coordinate| entry is made positive, so refits on
    the same input reproduce byte-identical components.
    """
    import ray

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({"n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.list_(pa.float64())),
                             "xtx": pa.array([], pa.list_(pa.float64()))})
        x = _embedding_matrix(t, vec_col)
        return pa.table({
            "n": pa.array([x.shape[0]], pa.int64()),
            "s": pa.array([x.sum(axis=0).tolist()],
                          pa.list_(pa.float64())),
            "xtx": pa.array([(x.T @ x).ravel().tolist()],
                            pa.list_(pa.float64())),
        })

    # tree-reduce the per-block moment partials with remote tasks: a d x d
    # float64 matrix per block is 128 MB at d=4096, so collecting O(blocks)
    # of them on the driver would NOT scale -- fan-in 8 keeps the driver at
    # exactly ONE matrix and the depth logarithmic
    @ray.remote
    def combine(*tabs):
        live = [t for t in tabs if t.num_rows]
        if not live:
            return tabs[0]
        cat = pa.concat_tables(live)
        nn = int(np.sum(cat.column("n").to_numpy(zero_copy_only=False)))
        ss = np.add.reduce([np.asarray(v)
                            for v in cat.column("s").to_pylist()])
        xx = np.add.reduce([np.asarray(v)
                            for v in cat.column("xtx").to_pylist()])
        return pa.table({
            "n": pa.array([nn], pa.int64()),
            "s": pa.array([ss.tolist()], pa.list_(pa.float64())),
            "xtx": pa.array([xx.tolist()], pa.list_(pa.float64())),
        })

    refs = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True,
                          batch_size=None).to_arrow_refs()
    FAN = 8
    while len(refs) > 1:
        refs = [combine.remote(*refs[i:i + FAN])
                for i in range(0, len(refs), FAN)]
    tab = ray.get(refs[0])
    if not tab.num_rows:
        raise ValueError("fit_pca: empty input")
    n = int(tab.column("n")[0].as_py())
    s = np.asarray(tab.column("s")[0].as_py())
    d = len(s)
    if k > d:
        raise ValueError(f"k={k} exceeds embedding dim {d}")
    xtx = np.asarray(tab.column("xtx")[0].as_py()).reshape(d, d)
    mean = s / n if center else np.zeros(d)
    cov = xtx / n - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)          # ascending
    order = np.argsort(evals)[::-1][:k]
    comps = evecs[:, order].T                   # (k, d)
    flip = np.sign(comps[np.arange(k), np.abs(comps).argmax(axis=1)])
    comps = comps * np.where(flip == 0, 1.0, flip)[:, None]
    return mean, comps, evals[order]


def transform_pca(ds, mean: np.ndarray, components: np.ndarray,
                  vec_col: str = "vec", out_col: str = "pca"):
    """Project every vector onto fitted components: broadcast (mean,
    components) ONCE via ``ray.put``, one numpy matmul per batch --
    no shuffle, no per-row Python.  Appends ``out_col`` as
    list<float64>[k]."""
    import ray

    state = ray.put((np.asarray(mean, np.float64),
                     np.asarray(components, np.float64)))

    def project(t: pa.Table) -> pa.Table:
        m, c = ray.get(state)
        x = _embedding_matrix(t, vec_col)
        proj = (x - m[None, :]) @ c.T
        off = pa.array(np.arange(0, (t.num_rows + 1) * c.shape[0],
                                 c.shape[0], dtype=np.int64),
                       pa.int32())
        lst = pa.ListArray.from_arrays(off, pa.array(proj.ravel()))
        return t.append_column(out_col, lst)

    return ds.map_batches(project, batch_format="pyarrow",
                          zero_copy_batch=True)


# --------------------------------------------------------------------------
# Per-group embedding mean-pooling (profile / centroid vectors)
# --------------------------------------------------------------------------

def group_mean_pool(ds, group_col: str, vec_col: str = "embedding",
                    out_col: str = "centroid", num_buckets: int = 32):
    """Per-group elementwise mean of an embedding column -- the profile-
    vector / cluster-centroid primitive (one vector per user, domain,
    topic...).

    Scale shape: each batch reduces to ONE (group, sum-vector, count) row
    per group via a single lexsort + ``reduceat`` (a hot group costs one
    d-vector per block, the groupby_agg combiner idea applied to
    vectors); partials co-locate through one hash exchange on the group
    key and the final divide is vectorized per bucket.  Raw vectors never
    shuffle -- only d x groups x blocks partial floats move.
    """
    import pandas as pd
    import pyarrow.compute as pc
    import ray

    from .exchange import hash_exchange_by

    def partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({
                "g": pa.array([], pa.int64()),
                "s": pa.array([], pa.list_(pa.float64())),
                "n": pa.array([], pa.int64()),
            })
        x = _embedding_matrix(t, vec_col)
        g = t.column(group_col)
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        gv = g.to_pandas().to_numpy()
        order = np.argsort(gv, kind="stable")
        xs, gs = x[order], gv[order]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        sums = np.add.reduceat(xs, starts, axis=0)
        counts = np.diff(np.append(starts, len(gs)))
        d = x.shape[1]
        off = pa.array(np.arange(0, (len(starts) + 1) * d, d,
                                 dtype=np.int64), pa.int32())
        return pa.table({
            "g": pa.array(gs[starts]),
            "s": pa.ListArray.from_arrays(off, pa.array(sums.ravel())),
            "n": pa.array(counts.astype(np.int64)),
        })

    def finalize(t: pa.Table) -> pa.Table:
        gv = t.column("g").to_pandas().to_numpy()
        x = _embedding_matrix(t, "s")
        n = t.column("n").to_numpy(zero_copy_only=False)
        order = np.argsort(gv, kind="stable")
        xs, gs, ns = x[order], gv[order], n[order]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        sums = np.add.reduceat(xs, starts, axis=0)
        counts = np.add.reduceat(ns, starts)
        means = sums / counts[:, None]
        d = x.shape[1]
        off = pa.array(np.arange(0, (len(starts) + 1) * d, d,
                                 dtype=np.int64), pa.int32())
        g_arr = t.column("g").combine_chunks() if isinstance(
            t.column("g"), pa.ChunkedArray) else t.column("g")
        return pa.table({
            group_col: g_arr.take(pa.array(order[starts])),
            out_col: pa.ListArray.from_arrays(off, pa.array(means.ravel())),
            "n": pa.array(counts.astype(np.int64)),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return hash_exchange_by(partials, ["g"], finalize, num_buckets)


# --------------------------------------------------------------------------
# Distributed k-means (spherical Lloyd's) -- the iterative-algorithm shape
# --------------------------------------------------------------------------

def kmeans_fit(ds, k: int, iters: int = 10, id_col: str = "vec_id",
               emb_col: str = "embedding", init: str = "maxmin",
               sample_n: int = 4096, seed: int = 42,
               batch_size: int = 65536) -> np.ndarray:
    """Distributed spherical k-means: rows NEVER move; every round is one
    streaming ``map_batches`` pass emitting per-block per-centroid
    (count, sum-vector) partials (k x (d+1) floats per BLOCK) that the
    driver combines and renormalizes.  Deterministic for a fixed dataset
    block order.

    ``init="maxmin"``: deterministic farthest-point seeding -- k streaming
    passes, each picking the point with the smallest maximum cosine to the
    seeds so far (ties broken by id; the first seed is the smallest id).
    For data with separated clusters this provably lands one seed per
    cluster, which is what the known-answer driver oracle relies on.
    ``init="sample"``: seeded uniform sample + driver Lloyd's (the IVF
    quantizer path, :func:`uniform_sample_matrix` + :func:`train_centroids`).
    """
    import ray

    slim = ds.select_columns([id_col, emb_col]).materialize()

    if init == "sample":
        cents = train_centroids(
            uniform_sample_matrix(slim, id_col, emb_col, sample_n, seed=seed),
            k, seed=seed)
    elif init == "maxmin":
        def first_seed(t: pa.Table) -> pa.Table:
            ids = t.column(id_col).cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            if not len(ids):
                return pa.table({"id": pa.array([], pa.int64()),
                                 "vec": pa.array([], pa.list_(pa.float64()))})
            i = int(np.argmin(ids))
            m = _normalize(_embedding_matrix(t, emb_col))
            return pa.table({"id": pa.array([int(ids[i])]),
                             "vec": pa.array([m[i].tolist()])})

        picks = slim.map_batches(first_seed,
                                 batch_format="pyarrow").to_pandas()
        row = picks.loc[picks["id"].idxmin()]
        seeds = [np.asarray(row["vec"], np.float64)]
        for _ in range(1, k):
            s_ref = ray.put(np.stack(seeds))

            def next_seed(t: pa.Table) -> pa.Table:
                s = ray.get(s_ref)
                ids = t.column(id_col).cast(pa.int64()).to_numpy(
                    zero_copy_only=False)
                empty = pa.table({
                    "score": pa.array([], pa.float64()),
                    "id": pa.array([], pa.int64()),
                    "vec": pa.array([], pa.list_(pa.float64()))})
                if not len(ids):
                    return empty
                m = _normalize(_embedding_matrix(t, emb_col))
                score = (m @ s.T).max(axis=1)          # max cos to seeds
                order = np.lexsort((ids, score))       # min score, then id
                i = order[0]
                return pa.table({"score": pa.array([float(score[i])]),
                                 "id": pa.array([int(ids[i])]),
                                 "vec": pa.array([m[i].tolist()])})

            cand = slim.map_batches(next_seed,
                                    batch_format="pyarrow").to_pandas()
            cand = cand.sort_values(["score", "id"]).iloc[0]
            seeds.append(np.asarray(cand["vec"], np.float64))
        cents = np.stack(seeds)
    else:
        raise ValueError(f"kmeans_fit init must be maxmin|sample, got {init!r}")

    for _ in range(iters):
        c_ref = ray.put(cents)

        def partial(t: pa.Table) -> pa.Table:
            c = ray.get(c_ref)
            m = _normalize(_embedding_matrix(t, emb_col))
            if not len(m):
                return pa.table({
                    "cluster": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.list_(pa.float64()))})
            assign = (m @ c.T).argmax(axis=1)
            order = np.argsort(assign, kind="stable")
            a_s, m_s = assign[order], m[order]
            starts = np.flatnonzero(np.r_[True, a_s[1:] != a_s[:-1]])
            sums = np.add.reduceat(m_s, starts, axis=0)
            counts = np.diff(np.append(starts, len(a_s)))
            return pa.table({
                "cluster": pa.array(a_s[starts].astype(np.int64)),
                "n": pa.array(counts.astype(np.int64)),
                "s": pa.array([row.tolist() for row in sums]),
            })

        parts = slim.map_batches(partial, batch_format="pyarrow",
                                 batch_size=batch_size).to_pandas()
        new = cents.copy()
        for cl, g in parts.groupby("cluster"):
            vec = np.sum(np.stack(g["s"].to_numpy()), axis=0)
            norm = np.linalg.norm(vec)
            if norm > 1e-12:
                new[int(cl)] = vec / norm
        if np.allclose(new, cents, atol=1e-12):
            cents = new
            break
        cents = new
    return cents


def kmeans_assign(ds, centroids: np.ndarray, id_col: str = "vec_id",
                  emb_col: str = "embedding", out_col: str = "cluster"):
    """Broadcast-assign each row to its nearest centroid (cosine)."""
    import ray

    c_ref = ray.put(_normalize(centroids))

    def fn(t: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        m = _normalize(_embedding_matrix(t, emb_col))
        a = (m @ c.T).argmax(axis=1).astype(np.int64)
        return t.append_column(out_col, pa.array(a))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------------------------
# Product quantization (PQ) -- the memory-side ANN path (public method of
# Jegou et al., "Product Quantization for Nearest Neighbor Search", 2011)
# --------------------------------------------------------------------------

def pq_train(ds, m: int = 8, ksub: int = 16, id_col: str = "vec_id",
             emb_col: str = "embedding", sample_n: int = 4096,
             seed: int = 42, iters: int = 10) -> np.ndarray:
    """Train PQ codebooks: split the (normalized) vector into ``m``
    contiguous subspaces and run seeded k-means with ``ksub`` centroids in
    each -- all on ONE seeded-uniform sample (:func:`uniform_sample_matrix`,
    never first-N).  Returns (m, ksub, d//m) float64 codebooks."""
    sample = _normalize(uniform_sample_matrix(ds, id_col, emb_col, sample_n,
                                              seed=seed))
    d = sample.shape[1]
    if d % m:
        raise ValueError(f"pq_train: dim {d} not divisible by m={m}")
    dsub = d // m
    books = np.empty((m, ksub, dsub))
    rng = np.random.default_rng(seed)
    for j in range(m):
        sub = sample[:, j * dsub:(j + 1) * dsub]
        cents = sub[rng.choice(len(sub), size=min(ksub, len(sub)),
                               replace=False)]
        if len(cents) < ksub:  # tiny sample: pad by repetition
            cents = cents[np.arange(ksub) % len(cents)]
        for _ in range(iters):
            # plain L2 Lloyd's per subspace (subvectors are not unit norm)
            d2 = ((sub[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            for c in range(ksub):
                mem = sub[assign == c]
                if len(mem):
                    cents[c] = mem.mean(axis=0)
        books[j] = cents
    return books


def pq_encode(ds, codebooks: np.ndarray, id_col: str = "vec_id",
              emb_col: str = "embedding", out_col: str = "pq_code"):
    """Encode every vector to ``m`` uint8 code indices (nearest subspace
    centroid; broadcast codebooks, one streaming pass).  At 100 TB this is
    the memory story: d float32 -> m bytes per vector (e.g. 64x4 B ->
    8 B), and search never touches the raw vectors again."""
    import ray

    cb_ref = ray.put(np.asarray(codebooks))

    def fn(t: pa.Table) -> pa.Table:
        cb = ray.get(cb_ref)
        m_, ksub, dsub = cb.shape
        x = _normalize(_embedding_matrix(t, emb_col))
        codes = np.empty((len(x), m_), dtype=np.uint8)
        for j in range(m_):
            sub = x[:, j * dsub:(j + 1) * dsub]
            d2 = ((sub[:, None, :] - cb[j][None, :, :]) ** 2).sum(axis=2)
            codes[:, j] = d2.argmin(axis=1)
        return pa.table({
            id_col: t.column(id_col),
            out_col: pa.FixedSizeListArray.from_arrays(
                pa.array(codes.ravel(), pa.uint8()), m_),
        })

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def pq_search(encoded_ds, codebooks: np.ndarray, queries: np.ndarray,
              k: int = 10, id_col: str = "vec_id",
              code_col: str = "pq_code"):
    """Asymmetric-distance PQ top-k: per query ONE (m, ksub) inner-product
    lookup table against the codebooks; per batch the score of every code
    is ``sum_j LUT[j, code_j]`` -- a pure table gather, no vector math on
    the data side.  Same partial-top-k merge shape as
    :func:`knn_brute_force`.  Returns (query_id, id, score, rank)."""
    import ray

    q = _normalize(np.asarray(queries, dtype=np.float64))
    cb = np.asarray(codebooks)
    m_, ksub, dsub = cb.shape
    # LUT[qi, j, c] = <q_sub, centroid>; score = sum over j
    luts = np.einsum("qjd,jcd->qjc",
                     q.reshape(len(q), m_, dsub), cb)
    lut_ref = ray.put(luts)

    def scorer(t: pa.Table) -> pa.Table:
        lt = ray.get(lut_ref)
        codes = _fixed_list_to_uint8(t.column(code_col), m_)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        nq = lt.shape[0]
        # scores (nq, n): gather per subspace and sum
        scores = np.zeros((nq, len(ids)))
        for j in range(m_):
            scores += lt[:, j, :][:, codes[:, j]]
        kk = min(k, len(ids))
        idx = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        rows = np.take_along_axis(scores, idx, axis=1)
        return pa.table({
            "query_id": pa.array(np.repeat(np.arange(nq, dtype=np.int64), kk)),
            id_col: pa.array(ids[idx.ravel()]),
            "score": pa.array(rows.ravel().astype(np.float64)),
        })

    partials = encoded_ds.map_batches(scorer, batch_format="pyarrow",
                                      zero_copy_batch=True).to_pandas()
    out = {"query_id": [], id_col: [], "score": [], "rank": []}
    if len(partials) == 0:
        # empty encoded input: Ray's to_pandas drops columns entirely, so
        # the groupby below would raise -- emit the typed empty result
        partials = partials.reindex(columns=["query_id", id_col, "score"])
    for qid, g in partials.groupby("query_id"):
        top = g.sort_values(["score", id_col],
                            ascending=[False, True]).head(k)
        out["query_id"].extend([qid] * len(top))
        out[id_col].extend(top[id_col])
        out["score"].extend(top["score"])
        out["rank"].extend(range(1, len(top) + 1))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        id_col: pa.array(out[id_col], pa.int64()),
        "score": pa.array(out["score"], pa.float64()),
        "rank": pa.array(out["rank"], pa.int64()),
    })


def _fixed_list_to_uint8(col, width: int) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return (col.flatten().to_numpy(zero_copy_only=False)
            .astype(np.uint8).reshape(-1, width))


def pq_search_rerank(encoded_ds, codebooks: np.ndarray, raw_ds,
                     queries: np.ndarray, k: int = 10,
                     shortlist_mult: int = 4, id_col: str = "vec_id",
                     emb_col: str = "embedding", code_col: str = "pq_code"):
    """Two-stage PQ retrieval (the standard production shape): the cheap
    LUT pass shortlists ``shortlist_mult * k`` candidates per query from
    the CODES, then ONE streaming pass over ``raw_ds`` exact-scores only
    shortlisted rows (broadcast id set; everything else never decodes).
    Per query the final top-k is exact within its shortlist, so recall is
    bounded below by the plain PQ pass and converges to brute force as
    the shortlist grows."""
    import ray

    c = shortlist_mult * k
    short = pq_search(encoded_ds, codebooks, queries, k=c,
                      id_col=id_col, code_col=code_col).to_pandas()
    per_query = {int(qid): set(g[id_col].astype(np.int64))
                 for qid, g in short.groupby("query_id")}
    union_ids = np.array(sorted(set().union(*per_query.values())), np.int64) \
        if per_query else np.empty(0, np.int64)
    if len(union_ids) == 0:
        # empty shortlist (e.g. every probed bucket was empty): an empty
        # result, same convention as similarity_join's _empty_result
        return pa.table({"query_id": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64()),
                         "rank": pa.array([], pa.int64())})
    ids_ref = ray.put(union_ids)

    def keep(t: pa.Table) -> pa.Table:
        wanted = ray.get(ids_ref)
        ids = t.column(id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        pos = np.searchsorted(wanted, ids)
        pos = np.minimum(pos, len(wanted) - 1)
        return t.filter(pa.array(wanted[pos] == ids))

    pruned = raw_ds.map_batches(keep, batch_format="pyarrow",
                                zero_copy_batch=True)
    exact = knn_brute_force(pruned, queries, k=len(union_ids),
                            id_col=id_col, emb_col=emb_col).to_pandas()
    out = {"query_id": [], id_col: [], "score": [], "rank": []}
    for qid, g in exact.groupby("query_id"):
        mine = g[g[id_col].isin(per_query[int(qid)])]
        top = mine.sort_values(["score", id_col],
                               ascending=[False, True]).head(k)
        out["query_id"].extend([qid] * len(top))
        out[id_col].extend(top[id_col])
        out["score"].extend(top["score"])
        out["rank"].extend(range(1, len(top) + 1))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        id_col: pa.array(out[id_col], pa.int64()),
        "score": pa.array(out["score"], pa.float64()),
        "rank": pa.array(out["rank"], pa.int64()),
    })


# --------------------------------------------------------------------------
# IVF-PQ composite index -- the canonical 100 TB ANN layout (coarse
# partition pruning x PQ code compression, faiss-IVFPQ shaped)
# --------------------------------------------------------------------------

def build_ivfpq_index(ds, index_dir: str, n_clusters: int = 16, m: int = 8,
                      ksub: int = 16, sample_n: int = 4096,
                      id_col: str = "vec_id", emb_col: str = "embedding",
                      seed: int = 42) -> str:
    """Persist an IVF-PQ index: ONE full pass assigns the coarse bucket,
    PQ-encodes every vector, and writes Parquet PARTITIONED BY
    ``ivf_bucket`` carrying (id, raw embedding, pq_code).  Queries then
    compose BOTH scale levers: directory pruning (only ``nprobe`` bucket
    dirs are read) and columnar pruning (the LUT pass reads ONLY the
    id+code columns -- m bytes/vector; raw embeddings load only for an
    explicit re-rank shortlist).

    Simplification vs faiss, documented: codes quantize the RAW vector,
    not the residual to its coarse centroid (residual encoding would
    need per-bucket LUTs; the layout and pruning story are identical).
    """
    import os

    import ray

    sample = uniform_sample_matrix(ds, id_col, emb_col, sample_n, seed=seed)
    cents = train_centroids(sample, min(n_clusters, len(sample)), seed=seed)
    books = pq_train(ds, m=m, ksub=ksub, id_col=id_col, emb_col=emb_col,
                     sample_n=sample_n, seed=seed)
    cents_ref = ray.put(cents)
    books_ref = ray.put(books)

    def enrich(t: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        cb = ray.get(books_ref)
        m_, _, dsub = cb.shape
        x = _normalize(_embedding_matrix(t, emb_col))
        bucket = (x @ np.asarray(c, np.float64).T).argmax(axis=1).astype(
            np.int32)
        codes = np.empty((len(x), m_), dtype=np.uint8)
        for j in range(m_):
            sub = x[:, j * dsub:(j + 1) * dsub]
            d2 = ((sub[:, None, :] - cb[j][None, :, :]) ** 2).sum(axis=2)
            codes[:, j] = d2.argmin(axis=1)
        return pa.table({
            id_col: t.column(id_col),
            emb_col: t.column(emb_col),
            "pq_code": pa.FixedSizeListArray.from_arrays(
                pa.array(codes.ravel(), pa.uint8()), m_),
            "ivf_bucket": pa.array(bucket),
        })

    os.makedirs(index_dir, exist_ok=True)
    ds.map_batches(enrich, batch_format="pyarrow",
                   zero_copy_batch=True).write_parquet(
        index_dir, partition_cols=["ivf_bucket"])
    np.save(os.path.join(index_dir, "centroids.npy"), cents)
    np.save(os.path.join(index_dir, "codebooks.npy"), books)
    return index_dir


def query_ivfpq_index(index_dir: str, queries: np.ndarray, k: int = 10,
                      nprobe: int = 4, rerank: bool = False,
                      shortlist_mult: int = 4, id_col: str = "vec_id",
                      emb_col: str = "embedding"):
    """Query a persisted IVF-PQ index: pick ``nprobe`` bucket DIRECTORIES
    per query, LUT-score only the id+code columns of those partitions,
    and (``rerank=True``) exact-score only the shortlist against the raw
    embedding column of the same partitions."""
    import glob
    import os

    import ray.data as rd

    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    books = np.load(os.path.join(index_dir, "codebooks.npy"))
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(q @ np.asarray(cents, np.float64).T),
                       axis=1)[:, :nprobe]
    wanted = sorted(set(np.unique(probe).tolist()))
    files = [f for b in wanted
             for f in glob.glob(os.path.join(index_dir, f"ivf_bucket={b}",
                                             "*.parquet"))]
    codes_ds = rd.read_parquet(files, columns=[id_col, "pq_code"])
    if not rerank:
        return pq_search(codes_ds, books, q, k=k, id_col=id_col)
    raw_ds = rd.read_parquet(files, columns=[id_col, emb_col])
    return pq_search_rerank(codes_ds.materialize(), books, raw_ds, q, k=k,
                            shortlist_mult=shortlist_mult, id_col=id_col,
                            emb_col=emb_col)
