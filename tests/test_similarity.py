"""Similarity-search tests: brute-force exactness vs numpy, IVF recall,
embedding near-dup clustering."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fluent_plugin_geoip_ray.stages.similarity import (
    embedding_near_dup,
    knn_brute_force,
    knn_ivf,
)


def make_vectors(n=200, dim=16, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim)).astype(np.float32)
    return m


def vec_ds(m):
    return rd.from_arrow(
        pa.table({
            "vec_id": pa.array(np.arange(len(m), dtype=np.int64)),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.ravel(), type=pa.float32()), m.shape[1]
            ).cast(pa.list_(pa.float32())),
        })
    )


def numpy_topk(m, q, k):
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    scores = qn @ mn.T
    return [list(np.argsort(-scores[i], kind="stable")[:k]) for i in range(len(q))]


def test_brute_force_matches_numpy():
    m = make_vectors()
    q = m[:2]
    out = knn_brute_force(vec_ds(m), q, k=5).to_pandas()
    expect = numpy_topk(m.astype(np.float64), q.astype(np.float64), 5)
    for qid in (0, 1):
        got = list(out[out["query_id"] == qid].sort_values("rank")["vec_id"])
        assert got == expect[qid]
    # self is always rank 1 with score ~1
    assert out[out["rank"] == 1]["score"].min() > 0.999999


def test_ivf_recall_reasonable():
    m = make_vectors(n=400)
    q = m[:3]
    exact = knn_brute_force(vec_ds(m), q, k=10).to_pandas()
    approx = knn_ivf(vec_ds(m), q, k=10, n_clusters=8, nprobe=4,
                     sample_n=400).to_pandas()
    recall = 0
    for qid in range(3):
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recall += len(e & a) / len(e)
    assert recall / 3 >= 0.6  # nprobe=4 of 8 clusters


def test_embedding_near_dup_drops_clones():
    m = make_vectors(n=50)
    clones = np.vstack([m, m[:5] * 1.0001])  # near-identical copies, ids 50..54
    out = embedding_near_dup(vec_ds(clones), threshold=0.999).to_pandas()
    ids = set(out["vec_id"])
    assert {0, 1, 2, 3, 4}.issubset(ids)
    assert not ids.intersection({50, 51, 52, 53, 54})


def test_embedding_near_dup_distributed_matches_driver():
    """VERDICT r2 #1/#2 for the embedding path: distributed emission + CC +
    anti-join drop must match the driver path exactly."""
    m = make_vectors(n=60)
    clones = np.vstack([m, m[:8] * 1.0001])
    ref = sorted(embedding_near_dup(vec_ds(clones), threshold=0.999)
                 .to_pandas()["vec_id"])
    dist = sorted(embedding_near_dup(vec_ds(clones), threshold=0.999,
                                     hot_bucket_limit=0, edge_driver_limit=0)
                  .to_pandas()["vec_id"])
    assert dist == ref


def test_persisted_ivf_index_roundtrip(tmp_path):
    """build_ivf_index writes bucket-partitioned parquet + centroids;
    query_ivf_index prunes to nprobe bucket dirs and matches the in-memory
    knn_ivf results on the same data."""
    import glob
    import os

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.similarity import (
        build_ivf_index,
        knn_ivf,
        query_ivf_index,
    )

    rng = np.random.default_rng(17)
    n, dim = 600, 16
    emb = rng.standard_normal((n, dim)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.ravel(), pa.float32()), dim
        ),
    })
    idx_dir = str(tmp_path / "ivf")
    build_ivf_index(rd.from_arrow(t), idx_dir, n_clusters=8, sample_n=600)
    assert os.path.exists(os.path.join(idx_dir, "centroids.npy"))
    bucket_dirs = glob.glob(os.path.join(idx_dir, "ivf_bucket=*"))
    assert len(bucket_dirs) >= 4           # partitioned layout on disk

    queries = emb[:3]
    via_index = query_ivf_index(idx_dir, queries, k=5, nprobe=3).to_pandas()
    via_mem = knn_ivf(rd.from_arrow(t), queries, k=5, n_clusters=8,
                      nprobe=3, sample_n=600).to_pandas()
    a = via_index.sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = via_mem.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert (a["vec_id"] == b["vec_id"]).all()


# --------------------------------------------------------------------------
# semantic_dedup (SemDeDup)
# --------------------------------------------------------------------------

def _semdedup_fixture(n_groups=6, dim=24, seed=11):
    """Known near-dup groups: members of a group are tiny perturbations of
    one direction (cos > 0.999); distinct groups are near-orthogonal."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n_groups, dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    rows, gids = [], []
    vid = 0
    expected_survivors = set()
    for g in range(n_groups):
        size = 1 + (g % 3)          # groups of 1, 2, 3 members
        expected_survivors.add(vid)  # min id of the group
        for _ in range(size):
            rows.append(base[g] + 0.001 * rng.standard_normal(dim))
            gids.append(vid)
            vid += 1
    t = pa.table({
        "vec_id": pa.array(gids, pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in rows],
                              pa.list_(pa.float32())),
    })
    return t, expected_survivors


@pytest.mark.parametrize("limits", [{}, {"edge_driver_limit": 0}],
                         ids=["auto", "distributed"])
def test_semantic_dedup_known_groups(limits):
    from fluent_plugin_geoip_ray.stages.similarity import semantic_dedup

    t, expected = _semdedup_fixture()
    ds = rd.from_arrow(t).repartition(3)
    out = semantic_dedup(ds, threshold=0.99, n_clusters=4, sample_n=100,
                         **limits)
    got = set(out.to_pandas()["vec_id"])
    assert got == expected


def test_semantic_dedup_orthogonal_identity():
    from fluent_plugin_geoip_ray.stages.similarity import semantic_dedup

    dim = 16
    eye = np.eye(dim)
    t = pa.table({
        "vec_id": pa.array(np.arange(dim, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in eye],
                              pa.list_(pa.float32())),
    })
    out = semantic_dedup(rd.from_arrow(t), threshold=0.95, n_clusters=4,
                         sample_n=dim)
    assert len(out.to_pandas()) == dim    # nothing dropped


def test_semantic_dedup_cluster_guard():
    from fluent_plugin_geoip_ray.stages.similarity import semantic_dedup

    t, _ = _semdedup_fixture()
    with pytest.raises(Exception, match="max_cluster_rows"):
        semantic_dedup(rd.from_arrow(t), threshold=0.99, n_clusters=1,
                       sample_n=100, max_cluster_rows=3).to_pandas()


# --------------------------------------------------------------------------
# distributed PCA (moment accumulation + driver eig)
# --------------------------------------------------------------------------

def _pca_data(n=600, d=12, seed=4):
    """Data with a planted dominant 2D subspace."""
    rng = np.random.default_rng(seed)
    u1 = np.zeros(d); u1[0] = 3.0; u1[1] = 4.0; u1 /= 5.0
    u2 = np.zeros(d); u2[2] = 1.0
    x = (rng.normal(0, 8.0, (n, 1)) * u1 + rng.normal(0, 3.0, (n, 1)) * u2
         + rng.normal(0, 0.1, (n, d)) + 5.0)
    return x


def _to_vec_table(x):
    n, d = x.shape
    off = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int64), pa.int32())
    return pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "vec": pa.ListArray.from_arrays(off, pa.array(x.ravel())),
    })


def test_fit_pca_recovers_planted_subspace():
    from fluent_plugin_geoip_ray.stages.similarity import fit_pca

    x = _pca_data()
    mean, comps, ev = fit_pca(rd.from_arrow(_to_vec_table(x)).repartition(5),
                              k=2)
    assert np.allclose(mean, x.mean(axis=0))
    # numpy reference on the same covariance
    cov = np.cov(x, rowvar=False, bias=True)
    evals, evecs = np.linalg.eigh(cov)
    ref = evecs[:, np.argsort(evals)[::-1][:2]].T
    for i in range(2):
        assert abs(abs(ref[i] @ comps[i])) > 0.999, i   # same direction
    assert ev[0] > ev[1] > 0


def test_fit_pca_deterministic_and_partition_invariant():
    from fluent_plugin_geoip_ray.stages.similarity import fit_pca

    x = _pca_data(seed=7)
    t = _to_vec_table(x)
    m1, c1, e1 = fit_pca(rd.from_arrow(t), k=3)
    m2, c2, e2 = fit_pca(rd.from_arrow(t), k=3)
    assert (c1 == c2).all() and (m1 == m2).all()        # byte-identical refit
    m3, c3, e3 = fit_pca(rd.from_arrow(t).repartition(9), k=3)
    # different block splits change float accumulation order only
    assert np.allclose(c1, c3) and np.allclose(e1, e3)


def test_transform_pca_matches_numpy():
    from fluent_plugin_geoip_ray.stages.similarity import (
        fit_pca,
        transform_pca,
    )

    x = _pca_data(seed=9)
    t = _to_vec_table(x)
    mean, comps, _ = fit_pca(rd.from_arrow(t), k=2)
    out = transform_pca(rd.from_arrow(t), mean, comps).to_pandas() \
        .sort_values("vec_id")
    got = np.vstack(out["pca"].to_numpy())
    ref = (x - mean) @ comps.T
    assert np.allclose(got, ref)


def test_fit_pca_validation():
    from fluent_plugin_geoip_ray.stages.similarity import fit_pca

    t = _to_vec_table(_pca_data(n=20, d=4))
    with pytest.raises(ValueError, match="k must"):
        fit_pca(rd.from_arrow(t), k=0)
    with pytest.raises(ValueError, match="exceeds"):
        fit_pca(rd.from_arrow(t), k=5)


# --------------------------------------------------------------------------
# group_mean_pool (per-group embedding centroid)
# --------------------------------------------------------------------------

def _pool_table(n=700, d=8, n_groups=15, seed=6, str_groups=False):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, n_groups, n)
    x = rng.normal(0, 1, (n, d))
    off = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int64), pa.int32())
    return pa.table({
        "grp": pa.array([f"g{v}" for v in g] if str_groups
                        else g.astype(np.int64)),
        "embedding": pa.ListArray.from_arrays(off, pa.array(x.ravel())),
    }), g, x


@pytest.mark.parametrize("str_groups", [False, True])
def test_group_mean_pool_matches_numpy(str_groups):
    from fluent_plugin_geoip_ray.stages.similarity import group_mean_pool

    t, g, x = _pool_table(str_groups=str_groups)
    out = group_mean_pool(rd.from_arrow(t).repartition(6), "grp") \
        .to_pandas().set_index("grp")
    assert len(out) == len(np.unique(g))
    for gid in np.unique(g):
        key = f"g{gid}" if str_groups else gid
        ref = x[g == gid].mean(axis=0)
        assert np.allclose(np.asarray(out.loc[key, "centroid"]), ref), key
        assert out.loc[key, "n"] == (g == gid).sum()


def test_group_mean_pool_partition_invariant_values():
    from fluent_plugin_geoip_ray.stages.similarity import group_mean_pool

    t, _, _ = _pool_table(seed=8)
    one = group_mean_pool(rd.from_arrow(t), "grp").to_pandas() \
        .sort_values("grp").reset_index(drop=True)
    many = group_mean_pool(rd.from_arrow(t).repartition(9), "grp") \
        .to_pandas().sort_values("grp").reset_index(drop=True)
    assert (one["grp"] == many["grp"]).all()
    assert (one["n"] == many["n"]).all()
    a = np.vstack(one["centroid"].to_numpy())
    b = np.vstack(many["centroid"].to_numpy())
    assert np.allclose(a, b)    # float-sum order differs across splits


def test_uniform_sample_unbiased_by_input_order():
    """Quantizer sampling must be uniform, not first-N: build an input whose
    FIRST half is a single tight cluster (what ds.limit() would see) and
    whose second half spans distinct clusters; the sample must draw from
    both halves roughly proportionally, and IVF recall must hold even for
    queries living entirely in the second half."""
    from fluent_plugin_geoip_ray.stages.similarity import uniform_sample_matrix

    rng = np.random.default_rng(7)
    dim = 16
    # first half: one tight cluster around +e0
    first = rng.standard_normal((2000, dim)).astype(np.float32) * 0.01
    first[:, 0] += 10.0
    # second half: 4 well-separated clusters on other axes
    parts = []
    for axis in (1, 2, 3, 4):
        p = rng.standard_normal((500, dim)).astype(np.float32) * 0.01
        p[:, axis] += 10.0
        parts.append(p)
    m = np.vstack([first] + parts)
    ds = vec_ds(m)

    sample = uniform_sample_matrix(ds, "vec_id", "embedding", 256, seed=5)
    assert sample.shape == (256, dim)
    # rows from the second half have their max coordinate off axis 0
    frac_second = float((np.abs(sample).argmax(axis=1) != 0).mean())
    assert 0.3 <= frac_second <= 0.7  # expected 0.5; limit() would give 0.0

    # recall for queries in the second half: with first-N sampling every
    # centroid would sit in cluster e0 and these queries probe garbage
    q = np.vstack([p[:1] for p in parts])
    exact = knn_brute_force(ds, q, k=5).to_pandas()
    approx = knn_ivf(ds, q, k=5, n_clusters=5, nprobe=2, sample_n=256).to_pandas()
    recall = 0.0
    for qid in range(len(q)):
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recall += len(e & a) / len(e)
    assert recall / len(q) >= 0.8


def test_uniform_sample_deterministic_across_partitioning():
    """The hash-ranked sample is a set property: identical matrix whether
    the dataset arrives as 1 block or 16."""
    from fluent_plugin_geoip_ray.stages.similarity import uniform_sample_matrix

    m = make_vectors(n=500)
    a = uniform_sample_matrix(vec_ds(m), "vec_id", "embedding", 64, seed=3)
    b = uniform_sample_matrix(vec_ds(m).repartition(16), "vec_id",
                              "embedding", 64, seed=3)
    assert np.array_equal(a, b)


def test_uniform_sample_small_input_returns_all():
    from fluent_plugin_geoip_ray.stages.similarity import uniform_sample_matrix

    m = make_vectors(n=20)
    s = uniform_sample_matrix(vec_ds(m), "vec_id", "embedding", 64, seed=3)
    assert s.shape == (20, 16)


def _planted_clusters(k=6, per=40, dim=32, seed=17):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    vecs, truth = [], []
    for c in range(k):
        noise = rng.standard_normal((per, dim)) * 0.05
        m = centers[c][None, :] + noise
        vecs.append(m)
        truth += [c] * per
    m = np.vstack(vecs).astype(np.float32)
    return m, np.array(truth)


def test_kmeans_fit_recovers_planted_partition():
    """Distributed spherical k-means with maxmin seeding recovers planted
    separated clusters exactly (up to cluster relabeling), independent of
    partitioning."""
    from fluent_plugin_geoip_ray.stages.similarity import (
        kmeans_assign,
        kmeans_fit,
    )

    m, truth = _planted_clusters()
    ds = vec_ds(m)
    cents = kmeans_fit(ds, k=6, iters=5)
    assert cents.shape == (6, 32)
    out = (kmeans_assign(ds, cents).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    assign = out["cluster"].to_numpy()
    # exact partition match up to relabeling: each truth group maps to
    # exactly one cluster and vice versa
    mapping = {}
    for t, a in zip(truth, assign):
        mapping.setdefault(t, a)
        assert mapping[t] == a
    assert len(set(mapping.values())) == 6
    # partitioning invariance of the assignments
    out2 = (kmeans_assign(vec_ds(m).repartition(7),
                          kmeans_fit(vec_ds(m).repartition(7), k=6, iters=5))
            .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert (out2["cluster"].to_numpy() == assign).all()


def test_kmeans_fit_sample_init_and_validation():
    import pytest

    from fluent_plugin_geoip_ray.stages.similarity import kmeans_fit

    m, _ = _planted_clusters(k=3, per=30)
    cents = kmeans_fit(vec_ds(m), k=3, iters=4, init="sample")
    assert cents.shape == (3, 32)
    with pytest.raises(ValueError, match="maxmin|sample"):
        kmeans_fit(vec_ds(m), k=3, init="nope")


def test_pq_recall_on_clustered_data():
    """PQ asymmetric search vs exact brute force on clustered vectors:
    the classic 4-bit-per-subspace recall band, cluster-correct top
    results, and recall monotone in codebook size."""
    from fluent_plugin_geoip_ray.stages.similarity import (
        pq_encode,
        pq_search,
        pq_train,
    )

    rng = np.random.default_rng(23)
    k, per, dim = 8, 60, 32
    centers = rng.standard_normal((k, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    m = np.vstack([centers[c] + rng.standard_normal((per, dim)) * 0.3
                   for c in range(k)]).astype(np.float32)
    truth = np.repeat(np.arange(k), per)
    ds = vec_ds(m)
    q = m[::per][:5]  # one member per cluster
    exact = knn_brute_force(ds, q, k=10).to_pandas()

    def recall(ksub):
        books = pq_train(ds, m=8, ksub=ksub, sample_n=480)
        assert books.shape == (8, ksub, 4)
        enc = pq_encode(ds, books).materialize()
        approx = pq_search(enc, books, q, k=10).to_pandas()
        r = 0.0
        for qid in range(len(q)):
            e = set(exact[exact["query_id"] == qid]["vec_id"])
            a = set(approx[approx["query_id"] == qid]["vec_id"])
            r += len(e & a) / len(e)
        return r / len(q)

    r16 = recall(16)
    assert r16 >= 0.45   # the documented 32-bit-code recall band
    assert recall(64) >= r16  # monotone in codebook size


def test_pq_validation_and_code_shape():
    import pytest

    from fluent_plugin_geoip_ray.stages.similarity import pq_encode, pq_train

    m, _ = _planted_clusters(k=3, per=20, dim=32)
    with pytest.raises(ValueError, match="divisible"):
        pq_train(vec_ds(m), m=7)
    books = pq_train(vec_ds(m), m=4, ksub=8, sample_n=60)
    enc = pq_encode(vec_ds(m), books).to_pandas()
    assert len(enc) == 60
    assert all(len(c) == 4 for c in enc["pq_code"])


def test_pq_rerank_beats_plain_and_converges_to_exact():
    from fluent_plugin_geoip_ray.stages.similarity import (
        pq_encode,
        pq_search,
        pq_search_rerank,
        pq_train,
    )

    rng = np.random.default_rng(29)
    m = rng.standard_normal((400, 32)).astype(np.float32)
    ds = vec_ds(m)
    q = m[:3]
    books = pq_train(ds, m=8, ksub=16, sample_n=400)
    enc = pq_encode(ds, books).materialize()
    exact = knn_brute_force(ds, q, k=10).to_pandas()
    plain = pq_search(enc, books, q, k=10).to_pandas()
    rerank = pq_search_rerank(enc, books, ds, q, k=10,
                              shortlist_mult=4).to_pandas()

    def rec(df):
        r = 0.0
        for qid in range(3):
            e = set(exact[exact["query_id"] == qid]["vec_id"])
            a = set(df[df["query_id"] == qid]["vec_id"])
            r += len(e & a) / len(e)
        return r / 3

    assert rec(rerank) >= rec(plain)
    # a shortlist covering the whole dataset IS brute force
    full = pq_search_rerank(enc, books, ds, q, k=10,
                            shortlist_mult=40).to_pandas()
    for qid in range(3):
        e = list(exact[exact["query_id"] == qid].sort_values("rank")["vec_id"])
        f = list(full[full["query_id"] == qid].sort_values("rank")["vec_id"])
        assert e == f


def test_ivfpq_index_roundtrip_and_rerank(tmp_path):
    """IVF-PQ persisted index: partitioned layout on disk, LUT search over
    only the probed partitions' code columns, and re-rank recall at least
    matching the plain LUT pass."""
    import glob
    import os

    from fluent_plugin_geoip_ray.stages.similarity import (
        build_ivfpq_index,
        query_ivfpq_index,
    )

    rng = np.random.default_rng(41)
    n, dim = 800, 32
    centers = rng.standard_normal((8, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    emb = np.vstack([centers[i % 8] + rng.standard_normal(dim) * 0.25
                     for i in range(n)]).astype(np.float32)
    ds = vec_ds(emb)
    idx = str(tmp_path / "ivfpq")
    build_ivfpq_index(ds, idx, n_clusters=8, m=8, ksub=16, sample_n=800)
    assert os.path.exists(os.path.join(idx, "codebooks.npy"))
    assert len(glob.glob(os.path.join(idx, "ivf_bucket=*"))) >= 4

    q = emb[:3]
    exact = knn_brute_force(ds, q, k=10).to_pandas()

    def rec(df):
        r = 0.0
        for qid in range(3):
            e = set(exact[exact["query_id"] == qid]["vec_id"])
            a = set(df[df["query_id"] == qid]["vec_id"])
            r += len(e & a) / len(e)
        return r / 3

    plain = query_ivfpq_index(idx, q, k=10, nprobe=4).to_pandas()
    rr = query_ivfpq_index(idx, q, k=10, nprobe=4, rerank=True,
                           shortlist_mult=8).to_pandas()
    assert rec(rr) >= rec(plain)
    assert rec(rr) >= 0.5
    # member queries retrieve themselves at rank 1 through the full stack
    for qid in range(3):
        assert int(rr[(rr["query_id"] == qid)
                      & (rr["rank"] == 1)]["vec_id"].iloc[0]) == qid


def test_pq_search_rerank_empty_shortlist_returns_typed_empty():
    """An empty encoded dataset (e.g. all probed IVF buckets empty) must
    return an empty typed result, not IndexError on the empty id union."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fluent_plugin_geoip_ray.stages.similarity import pq_search_rerank

    dim, m, ksub = 8, 4, 4
    books = np.zeros((m, ksub, dim // m))
    enc = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "pq_code": pa.FixedSizeListArray.from_arrays(
            pa.array([], pa.uint8()), m),
    }))
    raw = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    out = pq_search_rerank(enc, books, raw, np.ones((2, dim)), k=3)
    assert out.num_rows == 0
    assert out.column_names == ["query_id", "vec_id", "score", "rank"]
    assert out.schema.field("score").type == pa.float64()
