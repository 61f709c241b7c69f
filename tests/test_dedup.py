"""Dedup operator tests: exact, MinHash-LSH, SimHash, n-gram Jaccard --
behavior on constructed near/exact duplicates plus determinism."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fluent_plugin_geoip_ray.stages.dedup import (
    dedup_exact,
    dedup_minhash,
    dedup_simhash,
    minhash_signatures,
    ngram_jaccard,
    simhash_bits,
)

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches from "
    "the warm windowsill and the birds sing in the garden all afternoon long"
)


def make_docs():
    rows = []
    # exact dup pair (0, 1); near-dup pair (2, 3); distinct (4..9)
    rows.append((0, BASE))
    rows.append((1, BASE))
    rows.append((2, BASE + " extra tail words here"))
    rows.append((3, BASE + " extra tail words there"))
    rng = np.random.default_rng(7)
    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
    for i in range(4, 10):
        rows.append((i, " ".join(rng.choice(words, size=40))))
    return pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                     "text": pa.array([r[1] for r in rows])})


@pytest.fixture()
def docs_ds():
    return rd.from_arrow(make_docs())


def test_dedup_exact_keeps_min_id(docs_ds):
    out = dedup_exact(docs_ds).to_pandas()
    ids = set(out["doc_id"])
    assert 0 in ids and 1 not in ids       # exact dup dropped, min kept
    assert {2, 3}.issubset(ids)            # near-dups survive exact dedup
    assert len(out) == 9


def test_minhash_signature_similarity():
    t = make_docs()
    sig = minhash_signatures(t)
    # identical docs -> identical signatures
    assert (sig[0] == sig[1]).all()
    # near-dups agree on most permutations; distinct docs on few
    near = (sig[2] == sig[3]).mean()
    far = (sig[0] == sig[5]).mean()
    assert near > 0.6 > far


def test_dedup_minhash_removes_exact_and_near(docs_ds):
    out = dedup_minhash(docs_ds, jaccard_threshold=0.6).to_pandas()
    ids = set(out["doc_id"])
    assert 0 in ids and 1 not in ids
    assert (2 in ids) != (3 in ids) or {2, 3}.issubset(ids) is False
    assert {4, 5, 6, 7, 8, 9}.issubset(ids)


def test_dedup_minhash_deterministic(docs_ds):
    a = sorted(dedup_minhash(docs_ds).to_pandas()["doc_id"])
    b = sorted(dedup_minhash(rd.from_arrow(make_docs())).to_pandas()["doc_id"])
    assert a == b


def test_simhash_hamming_properties():
    t = make_docs()
    sh = simhash_bits(t)
    assert sh[0] == sh[1]
    def ham(a, b):
        return bin(int(a) ^ int(b)).count("1")
    assert ham(sh[2], sh[3]) <= 6
    assert ham(sh[0], sh[5]) > 10


def test_dedup_simhash(docs_ds):
    out = dedup_simhash(docs_ds).to_pandas()
    ids = set(out["doc_id"])
    assert 0 in ids and 1 not in ids
    assert {4, 5, 6, 7, 8, 9}.issubset(ids)


def test_ngram_jaccard():
    assert ngram_jaccard(BASE, BASE) == 1.0
    assert ngram_jaccard(BASE, BASE + " x y z") > 0.7
    assert ngram_jaccard("a b c d e", "v w x y z") == 0.0


def test_distributed_components_match_union_find():
    import pandas as pd

    from fluent_plugin_geoip_ray.stages.dedup import (
        connected_components,
        connected_components_distributed,
    )

    edges = pd.DataFrame({
        "a": [1, 2, 10, 11, 20, 1],
        "b": [2, 3, 11, 12, 21, 3],
    })
    uf = connected_components(edges)
    lp = connected_components_distributed(edges)
    assert lp == uf
    assert lp[3] == 1 and lp[12] == 10 and lp[21] == 20


def test_distributed_components_empty():
    import pandas as pd

    from fluent_plugin_geoip_ray.stages.dedup import connected_components_distributed

    assert connected_components_distributed(pd.DataFrame({"a": [], "b": []})) == {}


def test_distributed_components_on_dataset():
    """CC over a Dataset of edges -- never collected on the driver (the
    100 TB path: bucketed joins + grouped mins per round)."""
    import pandas as pd

    from fluent_plugin_geoip_ray.stages.dedup import (
        connected_components,
        connected_components_distributed,
    )

    edges = pd.DataFrame({
        "a": [1, 2, 10, 11, 20, 1, 30],
        "b": [2, 3, 11, 12, 21, 3, 31],
    })
    lp = connected_components_distributed(rd.from_pandas(edges))
    assert lp == connected_components(edges)
    assert lp[12] == 10  # 3-chain converged (needs >1 propagation round)


def test_dedup_exact_auto_switches_to_semijoin(docs_ds):
    """broadcast_limit=0 forces the distributed semi-join; the result must
    equal the default broadcast probe's (pins the size-switch plumbing)."""
    from fluent_plugin_geoip_ray.stages.dedup import dedup_exact

    out = dedup_exact(docs_ds, broadcast_limit=0).to_pandas()
    assert sorted(out["doc_id"]) == sorted(
        dedup_exact(rd.from_arrow(make_docs())).to_pandas()["doc_id"]
    )
    assert set(out.columns) == {"doc_id", "text"}


def test_restar_connects_members_failing_vs_bucket_min():
    """ADVICE r1: two true near-dups whose bucket-min fails verification
    against both must still be connected (iterative re-star)."""
    from fluent_plugin_geoip_ray.stages.dedup import lsh_verified_edges
    import pyarrow as pa

    # hand-built sketch table: one bucket, min key 1 is dissimilar; 2 and 3
    # share identical signatures (verify = full agreement)
    sig = {
        1: [9, 9, 9, 9],
        2: [5, 6, 7, 8],
        3: [5, 6, 7, 8],
    }
    sketches = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array(sum((sig[k] for k in (1, 2, 3)), []), pa.int64()), 4
        ),
        "bucket": pa.FixedSizeListArray.from_arrays(
            pa.array([77, 77, 77], pa.int64()), 1
        ),
    })).materialize()

    def verify(sa, sb):
        return (sa == sb).mean(axis=1) >= 0.9

    edges = lsh_verified_edges(sketches, "doc_id", verify)
    pairs = set(map(tuple, edges[["a", "b"]].to_numpy()))
    assert (2, 3) in pairs          # re-star connected them
    assert not any(1 in p for p in pairs)  # dissimilar min never linked


def make_dup_corpus(n_clusters=6, cluster_size=4, n_unique=30, seed=11):
    """Several near-dup clusters + unique tail -- big enough that the
    distributed edge path exercises multi-bucket exchanges."""
    rng = np.random.default_rng(seed)
    words = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lambda mu nu xi omicron pi rho sigma tau upsilon").split()
    ids, texts = [], []
    k = 0
    for c in range(n_clusters):
        base = " ".join(rng.choice(words, size=60))
        for j in range(cluster_size):
            ids.append(k); k += 1
            tail = " ".join(rng.choice(words, size=2)) if j else ""
            texts.append((base + " " + tail).strip())
    for _ in range(n_unique):
        ids.append(k); k += 1
        texts.append(" ".join(rng.choice(words, size=60)))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts)})


@pytest.mark.parametrize("fn,kw", [
    ("dedup_minhash", {"jaccard_threshold": 0.5}),
    ("dedup_simhash", {"max_hamming": 8}),
])
def test_neardup_distributed_path_matches_driver(fn, kw):
    """VERDICT r2 #1/#2: the fully distributed emission + distributed CC +
    bucketed anti-join must produce exactly the driver-path survivor set."""
    import fluent_plugin_geoip_ray.stages.dedup as dd

    t = make_dup_corpus()
    f = getattr(dd, fn)
    ref = sorted(f(rd.from_arrow(t), **kw).to_pandas()["doc_id"])
    # zeroed limits must take the distributed path and still agree
    dist = sorted(f(rd.from_arrow(t), hot_bucket_limit=0,
                    edge_driver_limit=0, **kw).to_pandas()["doc_id"])
    assert dist == ref


@pytest.mark.parametrize("fn,kw,key_type", [
    ("dedup_minhash", {"jaccard_threshold": 0.5}, pa.float64()),
    ("dedup_simhash", {"max_hamming": 8}, pa.string()),
])
def test_neardup_distributed_path_integer_castable_keys(fn, kw, key_type):
    """The signature attach and the bucketed anti-join meet int64 pair
    endpoints and losers: a float or digit-string doc key must route like
    its int64 value, and the survivors keep the key's own type."""
    import fluent_plugin_geoip_ray.stages.dedup as dd

    t = make_dup_corpus()
    f = getattr(dd, fn)
    limits = {"hot_bucket_limit": 0, "edge_driver_limit": 0}
    ref = sorted(f(rd.from_arrow(t), **limits, **kw).to_pandas()["doc_id"])
    keyed = t.set_column(0, "doc_id", t.column("doc_id").cast(key_type))
    out = f(rd.from_arrow(keyed), **limits, **kw).materialize()
    assert out.schema().base_schema.field("doc_id").type == key_type
    assert sorted(int(float(k)) for k in out.to_pandas()["doc_id"]) == ref


def test_neardup_distributed_no_duplicates_corpus():
    """Distributed path on an all-unique corpus: nothing dropped, and the
    empty hot-bucket/edge tables flow through without error."""
    from fluent_plugin_geoip_ray.stages.dedup import dedup_minhash

    t = make_dup_corpus(n_clusters=0, cluster_size=0, n_unique=25)
    out = dedup_minhash(rd.from_arrow(t), hot_bucket_limit=0,
                        edge_driver_limit=0).to_pandas()
    assert sorted(out["doc_id"]) == sorted(t.column("doc_id").to_pylist())


def test_neardup_known_pairs_merged():
    """ADVICE r2: hand-checkable fixture -- two known near-dup pairs merge to
    their min id, a known-distinct doc survives (independent of goldens)."""
    from fluent_plugin_geoip_ray.stages.dedup import dedup_minhash

    t = pa.table({
        "doc_id": pa.array([10, 11, 20, 21, 30], pa.int64()),
        "text": pa.array([
            BASE, BASE + " tiny tail",
            "completely different sentence about ships and harbors at dawn "
            "with seagulls crying over the gray water line every morning",
            "completely different sentence about ships and harbors at dawn "
            "with seagulls crying over the gray water line every evening",
            "unrelated third topic entirely: compilers optimize loops via "
            "vectorization and register allocation in the backend passes",
        ]),
    })
    for limits in ({}, {"hot_bucket_limit": 0, "edge_driver_limit": 0}):
        ids = set(dedup_minhash(rd.from_arrow(t), jaccard_threshold=0.5,
                                **limits).to_pandas()["doc_id"])
        assert ids == {10, 20, 30}, limits


def test_restar_distributed_matches_broadcast():
    """The distributed edge path must recover re-star edges too: same
    hand-built one-bucket fixture as the broadcast re-star test."""
    from fluent_plugin_geoip_ray.stages.dedup import lsh_verified_edges

    sig = {1: [9, 9, 9, 9], 2: [5, 6, 7, 8], 3: [5, 6, 7, 8]}
    sketches = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array(sum((sig[k] for k in (1, 2, 3)), []), pa.int64()), 4
        ),
        "bucket": pa.FixedSizeListArray.from_arrays(
            pa.array([77, 77, 77], pa.int64()), 1
        ),
    })).materialize()

    def verify(sa, sb):
        return (sa == sb).mean(axis=1) >= 0.9

    edges = lsh_verified_edges(sketches, "doc_id", verify,
                               hot_bucket_limit=0)
    pairs = set(map(tuple, edges.to_pandas()[["a", "b"]].to_numpy()))
    assert (2, 3) in pairs
    assert not any(1 in p for p in pairs)


def test_persisted_sketch_index_resume(tmp_path, docs_ds):
    """Sketch once to parquet, dedup from the index (no corpus re-sketch);
    result identical to the direct path."""
    from fluent_plugin_geoip_ray.stages.dedup import build_sketch_index

    idx = str(tmp_path / "sketches")
    build_sketch_index(docs_ds, idx)
    direct = sorted(dedup_minhash(rd.from_arrow(make_docs()),
                                  jaccard_threshold=0.6).to_pandas()["doc_id"])
    via_idx = sorted(
        dedup_minhash(rd.from_arrow(make_docs()), jaccard_threshold=0.6,
                      sketch_dir=idx).to_pandas()["doc_id"]
    )
    assert via_idx == direct
    import glob
    assert glob.glob(idx + "/*.parquet")   # persisted layout on disk


# --------------------------------------------------------------------------
# exact n-gram Jaccard dedup (prefix-filtered All-Pairs)
# --------------------------------------------------------------------------

def _ngram_ref_kept(ids, texts, t=0.5, k=3):
    """Brute-force reference for dedup_ngram's pairwise-earlier semantics."""
    kept = []
    for di, ti in zip(ids, texts):
        if not any(dj < di and ngram_jaccard(ti, tj, k) >= t
                   for dj, tj in zip(ids, texts)):
            kept.append(di)
    return sorted(kept)


def _ngram_corpus(seed=0, n_base=40):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(50)]
    texts, ids, did = [], [], 0
    for _ in range(n_base):
        b = " ".join(rng.choice(vocab, size=rng.integers(5, 30)).tolist())
        texts.append(b); ids.append(did); did += 1
        if rng.random() < 0.5:
            toks = b.split()
            for _ in range(max(1, len(toks) // 10)):
                toks[rng.integers(len(toks))] = rng.choice(vocab)
            texts.append(" ".join(toks)); ids.append(did); did += 1
    # short docs, exact dups, empty text
    texts += ["a b", "a b", "solo", ""]
    ids += [did, did + 1, did + 2, did + 3]
    return ids, texts


def _kept_ids(out_ds):
    import ray
    t = pa.concat_tables(ray.get(out_ds.to_arrow_refs()))
    return sorted(t.column("doc_id").to_pylist())


@pytest.mark.parametrize("seed", [0, 1])
def test_dedup_ngram_matches_bruteforce(seed):
    from fluent_plugin_geoip_ray.stages.dedup import dedup_ngram

    ids, texts = _ngram_corpus(seed)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})
    out = dedup_ngram(rd.from_arrow(t), threshold=0.5)
    assert _kept_ids(out) == _ngram_ref_kept(ids, texts)


def test_dedup_ngram_partition_invariant():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_ngram

    ids, texts = _ngram_corpus(2)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})
    one = _kept_ids(dedup_ngram(rd.from_arrow(t), threshold=0.5))
    many = _kept_ids(dedup_ngram(
        rd.from_arrow(t).repartition(7), threshold=0.5))
    assert one == many


def test_dedup_ngram_no_dups_is_identity():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_ngram

    # pairwise-disjoint vocabularies: zero shared grams anywhere
    texts = [" ".join(f"u{i}_{j}" for j in range(20)) for i in range(12)]
    t = pa.table({"doc_id": pa.array(range(12), pa.int64()),
                  "text": pa.array(texts)})
    assert _kept_ids(dedup_ngram(rd.from_arrow(t), threshold=0.5)) == list(range(12))


def test_dedup_ngram_threshold_one_keeps_near_dups():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_ngram

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([BASE, BASE, BASE + " almost the same tail"]),
    })
    # t=1.0: only the EXACT duplicate (gram-set-identical) doc 1 drops
    assert _kept_ids(dedup_ngram(rd.from_arrow(t), threshold=1.0)) == [0, 2]


def test_dedup_ngram_heavy_light_parity():
    """Forcing EVERY gram heavy (all intersections via prefix candidates +
    heavy-list correction) == default all-light counting == brute force."""
    from fluent_plugin_geoip_ray.stages.dedup import dedup_ngram

    ids, texts = _ngram_corpus(3)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})
    light = _kept_ids(dedup_ngram(rd.from_arrow(t), threshold=0.5))
    heavy = _kept_ids(dedup_ngram(rd.from_arrow(t), threshold=0.5,
                                  heavy_df_limit=0))
    assert light == heavy == _ngram_ref_kept(ids, texts)


def test_dedup_ngram_stop_gram_skew_no_blowup():
    """A stop tail shared by EVERY doc must not trip max_group_pairs: hot
    grams go heavy (no pair emission), candidates come from rarest-first
    prefixes, and the heavy-list correction keeps the result exact."""
    from fluent_plugin_geoip_ray.stages.dedup import dedup_ngram

    n = 60

    def words(i):
        # 9 doc-unique words + a 3-word stop tail shared by EVERY doc
        u = " ".join(f"u{i}{c}" for c in "abcdefghj")
        return f"{u} the end line"

    ids = list(range(n))
    # second half repeats the first half's docs exactly -> true duplicates
    texts = [words(i) for i in range(n // 2)] + \
        [words(i) for i in range(n // 2)]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})
    # heavy_df_limit=4 classifies the stop grams (df=60) heavy;
    # max_group_pairs=1500 would trip the old all-run-emission design
    # (one stop-gram run alone emits C(60,2)=1770 pairs)
    out = dedup_ngram(rd.from_arrow(t), threshold=0.5,
                      heavy_df_limit=4, max_group_pairs=1500)
    assert _kept_ids(out) == _ngram_ref_kept(ids, texts)


def test_dedup_ngram_group_pair_guard():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_ngram

    # 30 DISTINCT docs sharing every BASE gram (identical docs would be
    # identity-collapsed before counting): each shared-gram run has 30
    # members -> 435 pairs per run > guard
    t = pa.table({
        "doc_id": pa.array(range(30), pa.int64()),
        "text": pa.array([BASE + f" unique{i} tail{i} end{i}"
                          for i in range(30)]),
    })
    with pytest.raises(Exception, match="max_group_pairs"):
        _kept_ids(dedup_ngram(rd.from_arrow(t), threshold=0.5,
                              max_group_pairs=100))


def test_dedup_ngram_identity_collapse_exactness():
    """Identity groups drop to their min key; reps still judged pairwise."""
    from fluent_plugin_geoip_ray.stages.dedup import dedup_ngram

    # group A = {0, 3, 5} identical; group B = {1, 4} identical and similar
    # to A (one token changed); doc 2 unrelated
    a = BASE
    b = BASE.replace(BASE.split()[0], "changed", 1)
    ids = [0, 1, 2, 3, 4, 5]
    texts = [a, b, "totally different words here entirely", a, b, a]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})
    assert _kept_ids(dedup_ngram(rd.from_arrow(t), threshold=0.5)) == \
        _ngram_ref_kept(ids, texts)


# --------------------------------------------------------------------------
# benchmark decontamination (n-gram overlap vs an eval set)
# --------------------------------------------------------------------------

def _contam_corpus(seed=0, n=8):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(200)]
    evals = [" ".join(rng.choice(vocab, size=rng.integers(10, 40)).tolist())
             for _ in range(10)] + ["a b"]          # one short eval doc
    train = [" ".join(rng.choice(vocab, size=rng.integers(10, 40)).tolist())
             for _ in range(30)]
    for i in range(5):                               # planted contamination
        e = evals[i].split()
        s = rng.integers(0, len(e) - n)
        base = " ".join(rng.choice(vocab, size=12).tolist())
        train.append(base + " " + " ".join(e[s:s + n]) + " tail tail")
    train += ["a b", "a c", ""]                      # short docs + empty
    return list(range(len(train))), train, evals


def _contam_ref(ids, train, evals, n=8):
    def grams(x):
        toks = x.lower().split()
        if len(toks) < n:
            return {tuple(toks)}
        return {tuple(toks[i:i + n]) for i in range(len(toks) - n + 1)}

    eg = set().union(*[grams(e) for e in evals])
    return sorted(i for i, x in zip(ids, train) if grams(x) & eg)


def _contam_tables(ids, train, evals):
    tt = pa.table({"doc_id": pa.array(ids, pa.int64()),
                   "text": pa.array(train)})
    et = pa.table({"doc_id": pa.array(range(len(evals)), pa.int64()),
                   "text": pa.array(evals)})
    return tt, et


@pytest.mark.parametrize("seed", [0, 3])
def test_decontaminate_matches_bruteforce(seed):
    from fluent_plugin_geoip_ray.stages.dedup import decontaminate

    ids, train, evals = _contam_corpus(seed)
    bad = _contam_ref(ids, train, evals)
    assert bad, "corpus must contain planted contamination"
    tt, et = _contam_tables(ids, train, evals)
    out = decontaminate(rd.from_arrow(tt), rd.from_arrow(et))
    assert _kept_ids(out) == sorted(set(ids) - set(bad))


def test_decontaminate_bucketed_path_matches_broadcast():
    from fluent_plugin_geoip_ray.stages.dedup import decontaminate

    ids, train, evals = _contam_corpus(1)
    tt, et = _contam_tables(ids, train, evals)
    # eval_broadcast_limit=0 forces the bloom + exact-semi-join path
    broad = _kept_ids(decontaminate(rd.from_arrow(tt), rd.from_arrow(et)))
    buck = _kept_ids(decontaminate(
        rd.from_arrow(tt).repartition(5), rd.from_arrow(et).repartition(3),
        eval_broadcast_limit=0))
    assert broad == buck == sorted(set(ids) - set(_contam_ref(ids, train, evals)))


@pytest.mark.parametrize("limit", [20_000_000, 0])
def test_decontaminate_flag_mode(limit):
    import ray

    from fluent_plugin_geoip_ray.stages.dedup import decontaminate

    ids, train, evals = _contam_corpus(2)
    bad = _contam_ref(ids, train, evals)
    tt, et = _contam_tables(ids, train, evals)
    out = decontaminate(rd.from_arrow(tt), rd.from_arrow(et), mode="flag",
                        eval_broadcast_limit=limit)
    t = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert sorted(t.column("doc_id").to_pylist()) == ids   # nothing dropped
    flagged = sorted(
        t.filter(t.column("contaminated")).column("doc_id").to_pylist())
    assert flagged == bad


def test_decontaminate_short_doc_exact_semantics():
    from fluent_plugin_geoip_ray.stages.dedup import decontaminate

    # short train docs match only an IDENTICAL short eval doc, never a
    # substring of a long eval doc
    et = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                   "text": pa.array(["a b", " ".join(f"t{i}" for i in range(20))])})
    tt = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                   "text": pa.array(["a b", "t0 t1", "x y"])})
    out = decontaminate(rd.from_arrow(tt), rd.from_arrow(et))
    assert _kept_ids(out) == [1, 2]   # only the identical "a b" drops


def test_decontaminate_clean_corpus_is_identity():
    from fluent_plugin_geoip_ray.stages.dedup import decontaminate

    tt = pa.table({"doc_id": pa.array(range(8), pa.int64()),
                   "text": pa.array(
                       [" ".join(f"c{i}_{j}" for j in range(15))
                        for i in range(8)])})
    et = pa.table({"doc_id": pa.array([0], pa.int64()),
                   "text": pa.array([" ".join(f"e{j}" for j in range(15))])})
    assert _kept_ids(decontaminate(rd.from_arrow(tt), rd.from_arrow(et))) == \
        list(range(8))


def test_decontaminate_rejects_bad_mode():
    from fluent_plugin_geoip_ray.stages.dedup import decontaminate

    tt = pa.table({"doc_id": pa.array([0], pa.int64()),
                   "text": pa.array(["x"])})
    with pytest.raises(ValueError, match="mode"):
        decontaminate(rd.from_arrow(tt), rd.from_arrow(tt), mode="nope")


# --------------------------------------------------------------------------
# dedup_lines (CCNet-style boilerplate line removal)
# --------------------------------------------------------------------------

def _lines_bruteforce(docs, min_docs, sep="\n"):
    """Per-row (doc_id -> (cleaned text, lines_removed)) reference."""
    from collections import defaultdict

    containing = defaultdict(set)
    for did, text in docs:
        for ln in text.split(sep):
            k = ln.lower().strip()
            if k:
                containing[k].add(did)
    hot = {k for k, s in containing.items() if len(s) >= min_docs}
    out = {}
    for did, text in docs:
        kept = [ln for ln in text.split(sep) if ln.lower().strip() not in hot]
        out[did] = (sep.join(kept), len(text.split(sep)) - len(kept))
    return out


def _make_line_docs(n_docs=40, seed=3):
    rng = np.random.default_rng(seed)
    boiler = ["Cookie Policy | Accept All", "  © 2024 Example Corp  ",
              "home | about | contact"]
    uniq_words = "red green blue cyan teal plum gray pink gold".split()
    docs = []
    for i in range(n_docs):
        lines = []
        for b in boiler:
            if rng.random() < 0.5:
                lines.append(b if rng.random() < 0.5 else b.upper())
        for _ in range(rng.integers(1, 5)):
            lines.append(" ".join(rng.choice(uniq_words, size=6)))
        if rng.random() < 0.3:
            lines.append("")           # empty lines always survive
        rng.shuffle(lines)
        docs.append((i, "\n".join(lines)))
    docs.append((n_docs, ""))          # empty doc
    docs.append((n_docs + 1, "Cookie Policy | Accept All"))  # fully boiler
    return docs


@pytest.mark.parametrize("limit", [5_000_000, 0])   # broadcast vs bucketed
def test_dedup_lines_matches_bruteforce(limit):
    from fluent_plugin_geoip_ray.stages.dedup import dedup_lines

    docs = _make_line_docs()
    ref = _lines_bruteforce(docs, min_docs=5)
    t = pa.table({"doc_id": pa.array([d for d, _ in docs], pa.int64()),
                  "text": pa.array([x for _, x in docs])})
    ds = rd.from_arrow(t).repartition(4)
    out = dedup_lines(ds, min_docs=5, hot_broadcast_limit=limit,
                      num_buckets=4).to_pandas().set_index("doc_id")
    assert len(out) == len(docs)
    for did, (text, removed) in ref.items():
        assert out.loc[did, "text"] == text, did
        assert out.loc[did, "lines_removed"] == removed, did


@pytest.mark.parametrize("key_type", [pa.float64(), pa.string()])
def test_bucketed_line_and_span_rebuild_integer_castable_keys(key_type):
    """Above ``hot_broadcast_limit`` the confirmed removals (int64 keys)
    co-group with their docs: a float or digit-string doc key must route
    like its int64 value, and come back in its own type."""
    from fluent_plugin_geoip_ray.stages.dedup import dedup_lines, dedup_spans

    lines, spans = _make_line_docs(), _make_span_docs()
    for fn, docs, kw, count_col, ref in (
        (dedup_lines, lines, {"min_docs": 5}, "lines_removed",
         _lines_bruteforce(lines, min_docs=5)),
        (dedup_spans, spans, {"window": 5, "min_count": 2}, "tokens_removed",
         _spans_bruteforce(spans, n=5, min_count=2)),
    ):
        t = pa.table({
            "doc_id": pa.array([d for d, _ in docs]).cast(key_type),
            "text": pa.array([x for _, x in docs])})
        out = fn(rd.from_arrow(t).repartition(4), hot_broadcast_limit=0,
                 num_buckets=4, **kw).materialize()
        assert out.schema().base_schema.field("doc_id").type == key_type
        df = out.to_pandas()
        got = {int(float(k)): (x, n) for k, x, n in
               zip(df["doc_id"], df["text"], df[count_col])}
        assert got == ref, fn.__name__


def test_dedup_lines_no_hot_is_identity():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_lines

    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["a\nb", "c\nd"])})
    out = dedup_lines(rd.from_arrow(t), min_docs=2).to_pandas()
    assert list(out["text"]) == ["a\nb", "c\nd"]
    assert list(out["lines_removed"]) == [0, 0]


def test_dedup_lines_normalization_and_empty_lines():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_lines

    # same line modulo case/whitespace counts as one key; empty lines kept
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["  HELLO  \nkeep0\n\nx",
                          "hello\nkeep1",
                          "Hello \nkeep2\n"]),
    })
    out = dedup_lines(rd.from_arrow(t), min_docs=3).to_pandas() \
        .set_index("doc_id")
    assert out.loc[0, "text"] == "keep0\n\nx"
    assert out.loc[1, "text"] == "keep1"
    # trailing sep produced a trailing empty line -- kept
    assert out.loc[2, "text"] == "keep2\n"
    assert list(out["lines_removed"]) == [1, 1, 1]


def test_dedup_lines_rejects_min_docs_below_two():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_lines

    with pytest.raises(ValueError):
        dedup_lines(rd.from_arrow(pa.table({"doc_id": [0], "text": ["x"]})),
                    min_docs=1)


# --------------------------------------------------------------------------
# dedup_spans (exact duplicate-substring removal at n-token windows)
# --------------------------------------------------------------------------

def _spans_bruteforce(docs, n, min_count):
    """Per-row (doc_id -> (rebuilt text, tokens_removed)) reference."""
    import re
    from collections import Counter

    toks = {did: re.split(r"\s+", t) for did, t in docs}
    low = {did: [w.lower() for w in ts] for did, ts in toks.items()}
    cnt = Counter()
    for ls in low.values():
        for i in range(len(ls) - n + 1):
            cnt[tuple(ls[i:i + n])] += 1
    out = {}
    for did, ts in toks.items():
        ls = low[did]
        cov = [False] * len(ts)
        for i in range(len(ls) - n + 1):
            if cnt[tuple(ls[i:i + n])] >= min_count:
                for j in range(i, i + n):
                    cov[j] = True
        kept = [w for w, c in zip(ts, cov) if not c]
        out[did] = (" ".join(kept), sum(cov))
    return out


def _make_span_docs(n_docs=30, seed=7):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(120)]
    shared = " ".join(rng.choice(vocab, size=9))   # planted hot span
    docs = []
    for i in range(n_docs):
        words = rng.choice(vocab, size=rng.integers(6, 25)).tolist()
        if rng.random() < 0.4:
            at = rng.integers(0, len(words))
            words = words[:at] + shared.split() + words[at:]
        docs.append((i, " ".join(words)))
    # within-doc repeat (counts twice corpus-wide on its own)
    rep = " ".join(rng.choice(vocab, size=5))
    docs.append((n_docs, f"{rep} bridge {rep}"))
    docs.append((n_docs + 1, "short doc"))     # fewer tokens than window
    docs.append((n_docs + 2, ""))              # empty doc
    return docs


@pytest.mark.parametrize("limit", [5_000_000, 0])   # broadcast vs bucketed
def test_dedup_spans_matches_bruteforce(limit):
    from fluent_plugin_geoip_ray.stages.dedup import dedup_spans

    docs = _make_span_docs()
    ref = _spans_bruteforce(docs, n=5, min_count=2)
    t = pa.table({"doc_id": pa.array([d for d, _ in docs], pa.int64()),
                  "text": pa.array([x for _, x in docs])})
    out = dedup_spans(rd.from_arrow(t).repartition(4), window=5,
                      min_count=2, hot_broadcast_limit=limit,
                      num_buckets=4).to_pandas().set_index("doc_id")
    assert len(out) == len(docs)
    for did, (text, removed) in ref.items():
        assert out.loc[did, "text"] == text, did
        assert out.loc[did, "tokens_removed"] == removed, did


def test_dedup_spans_partition_invariant():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_spans

    docs = _make_span_docs(seed=11)
    t = pa.table({"doc_id": pa.array([d for d, _ in docs], pa.int64()),
                  "text": pa.array([x for _, x in docs])})
    one = dedup_spans(rd.from_arrow(t), window=5).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    many = dedup_spans(rd.from_arrow(t).repartition(7), window=5) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert one.equals(many)


def test_dedup_spans_within_doc_repeat_counts():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_spans

    # the 3-token span repeats twice inside ONE doc -> both occurrences cut
    t = pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array(["alpha beta gamma bridge alpha beta gamma tail"]),
    })
    out = dedup_spans(rd.from_arrow(t), window=3, min_count=2).to_pandas()
    assert out.loc[0, "text"] == "bridge tail"
    assert out.loc[0, "tokens_removed"] == 6


def test_dedup_spans_overlapping_hot_windows_merge():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_spans

    # two docs share a 6-token run; window=4 -> 3 overlapping hot windows
    # covering exactly the 6 shared tokens in each doc
    run = "s1 s2 s3 s4 s5 s6"
    t = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([f"a b {run} c d", f"x {run} y z"]),
    })
    out = dedup_spans(rd.from_arrow(t), window=4, min_count=2) \
        .to_pandas().set_index("doc_id")
    assert out.loc[0, "text"] == "a b c d"
    assert out.loc[1, "text"] == "x y z"
    assert list(out["tokens_removed"]) == [6, 6]


def test_dedup_spans_no_hot_normalizes_whitespace():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_spans

    t = pa.table({"doc_id": pa.array([0], pa.int64()),
                  "text": pa.array(["a  b\tc"])})
    out = dedup_spans(rd.from_arrow(t), window=2, min_count=2).to_pandas()
    assert out.loc[0, "text"] == "a b c"
    assert out.loc[0, "tokens_removed"] == 0


def test_dedup_spans_rejects_bad_params():
    from fluent_plugin_geoip_ray.stages.dedup import dedup_spans

    t = rd.from_arrow(pa.table({"doc_id": [0], "text": ["x"]}))
    with pytest.raises(ValueError):
        dedup_spans(t, min_count=1)
    with pytest.raises(ValueError):
        dedup_spans(t, window=1)


# --------------------------------------------------------------------------
# dedup_incremental (new shard vs persisted historical sketch index)
# --------------------------------------------------------------------------

def _incr_corpora(tmpdir, seed=13):
    """(hist_table, new_table, expected_survivor_new_ids, index_dir)."""
    from fluent_plugin_geoip_ray.stages.dedup import build_sketch_index

    rng = np.random.default_rng(seed)
    words = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lam mu nu xi omicron pi rho sigma tau upsilon").split()
    hist_texts = [" ".join(rng.choice(words, size=60)) for _ in range(20)]
    hist = pa.table({"doc_id": pa.array(range(20), pa.int64()),
                     "text": pa.array(hist_texts)})

    # new batch: ids 100..; 100/101 copy hist docs (MUST drop -- identical
    # sketches); 102/103 are an intra-batch exact dup pair (min survives);
    # 104/105 novel vocabularies (survive)
    nv = [f"novel{i}_{j}" for i in range(3) for j in range(40)]
    new = pa.table({
        "doc_id": pa.array([100, 101, 102, 103, 104, 105], pa.int64()),
        "text": pa.array([
            hist_texts[3], hist_texts[7],
            "x " + " ".join(nv[:30]), "x " + " ".join(nv[:30]),
            " ".join(nv[40:80]) + " tailone",
            " ".join(nv[80:]) + " tailtwo",
        ]),
    })
    index_dir = str(tmpdir / "sketch_index")
    build_sketch_index(rd.from_arrow(hist), index_dir)
    return hist, new, index_dir


@pytest.mark.parametrize(
    "limits", [{}, {"hot_bucket_limit": 0, "edge_driver_limit": 0}],
    ids=["auto", "distributed"])
def test_dedup_incremental_semantics(tmp_path, limits):
    from fluent_plugin_geoip_ray.stages.dedup import dedup_incremental

    _, new, index_dir = _incr_corpora(tmp_path)
    out = dedup_incremental(rd.from_arrow(new), index_dir, **limits)
    kept = sorted(out.to_pandas()["doc_id"])
    # copies of hist drop; intra-batch dup keeps min; novels survive
    assert 100 not in kept and 101 not in kept, limits
    assert 102 in kept and 103 not in kept, limits
    assert 104 in kept and 105 in kept, limits


def test_dedup_incremental_update_index_sees_prior_increment(tmp_path):
    from fluent_plugin_geoip_ray.stages.dedup import dedup_incremental

    _, new, index_dir = _incr_corpora(tmp_path)
    dedup_incremental(rd.from_arrow(new), index_dir, update_index=True)
    # second increment: a copy of surviving new doc 104 must now drop,
    # and a copy of FIRST-increment loser 103's text still drops (its
    # surviving twin 102 is in the index)
    second = pa.table({
        "doc_id": pa.array([200, 201, 202], pa.int64()),
        "text": pa.array([
            new.column("text")[4].as_py(),    # copy of survivor 104
            new.column("text")[2].as_py(),    # copy of 102 (survivor)
            "completely fresh vocabulary " + " ".join(
                f"z{i}" for i in range(40)),
        ]),
    })
    kept = sorted(dedup_incremental(rd.from_arrow(second), index_dir)
                  .to_pandas()["doc_id"])
    assert kept == [202]


def test_dedup_incremental_param_mismatch_raises(tmp_path):
    from fluent_plugin_geoip_ray.stages.dedup import (
        build_sketch_index,
        dedup_incremental,
    )

    hist = pa.table({"doc_id": pa.array([0], pa.int64()),
                     "text": pa.array([BASE])})
    index_dir = str(tmp_path / "idx")
    build_sketch_index(rd.from_arrow(hist), index_dir, num_perm=32,
                       bands=8, seed=1)
    with pytest.raises(ValueError, match="param mismatch"):
        dedup_incremental(rd.from_arrow(hist), index_dir, num_perm=64)


def test_dedup_incremental_rejects_out_of_range_keys(tmp_path):
    from fluent_plugin_geoip_ray.stages.dedup import (
        build_sketch_index,
        dedup_incremental,
    )

    hist = pa.table({"doc_id": pa.array([0], pa.int64()),
                     "text": pa.array([BASE])})
    index_dir = str(tmp_path / "idx")
    build_sketch_index(rd.from_arrow(hist), index_dir)
    bad = pa.table({"doc_id": pa.array([1 << 62], pa.int64()),
                    "text": pa.array([BASE])})
    with pytest.raises(Exception, match="2\\^62"):
        dedup_incremental(rd.from_arrow(bad), index_dir).count()


def test_dedup_minhash_cross_verified_against_exact_jaccard():
    """Independent verification of the LSH family (beyond the golden pin):
    on the sf0.01 documents corpus, dedup_minhash survivors are checked
    against EXACT shingle-set Jaccard ground truth computed directly from
    the same tokenization.

    Bounds asserted (64-perm estimator at threshold 0.7):
    * no wild false drop -- every dropped doc has exact J >= 0.5 with some
      other doc (est >= 0.7 given true J < 0.5 is a >3-sigma event);
    * no plausible miss -- every exact component at J >= 0.85 keeps at
      most one member (band-match and estimator failure are both ~0 there);
    * overall survivor disagreement vs exact-0.7 ground truth <= 5%.
    """
    import pyarrow.parquet as pq

    from fluent_plugin_geoip_ray.stages.dedup import (
        _shingle_hashes,
        _token_hashes,
        dedup_minhash,
    )

    t = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                      columns=["doc_id", "text"])
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    hashes, offsets = _token_hashes(t, "text")
    sh, sh_off = _shingle_hashes(hashes, offsets, k=3)
    sets = [set(sh[sh_off[i]:sh_off[i + 1]].tolist()) for i in range(len(ids))]

    def jac(i, j):
        a, b = sets[i], sets[j]
        if not a and not b:
            return 1.0
        u = len(a | b)
        return len(a & b) / u if u else 0.0

    n = len(ids)
    # exact ground truth at the operator threshold and a high-confidence one
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    hi_pairs = []
    max_j = np.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            v = jac(i, j)
            max_j[i] = max(max_j[i], v)
            max_j[j] = max(max_j[j], v)
            if v >= 0.7:
                parent[find(i)] = find(j)
            if v >= 0.85:
                hi_pairs.append((i, j))
    comp = {}
    exact_survivors = set()
    for i in range(n):
        r = find(i)
        if r not in comp or ids[i] < ids[comp[r]]:
            comp[r] = i
    exact_survivors = {ids[comp[r]] for r in comp}

    out = dedup_minhash(rd.read_parquet(
        "/root/testdata/sf0.01/documents.parquet")).to_pandas()
    kept = set(out["doc_id"])
    dropped_idx = [i for i in range(n) if ids[i] not in kept]

    # (1) no wild false drops
    wild = [ids[i] for i in dropped_idx if max_j[i] < 0.5]
    assert wild == []
    # (2) no plausible misses: each high-J component keeps <= 1 member
    hi_parent = list(range(n))

    def hfind(x):
        while hi_parent[x] != x:
            hi_parent[x] = hi_parent[hi_parent[x]]
            x = hi_parent[x]
        return x

    for i, j in hi_pairs:
        hi_parent[hfind(i)] = hfind(j)
    from collections import Counter

    kept_per_hi_comp = Counter(hfind(i) for i in range(n) if ids[i] in kept)
    multi = {r: c for r, c in kept_per_hi_comp.items()
             if c > 1 and sum(hfind(i) == r for i in range(n)) > 1}
    assert not multi
    # (3) bounded overall disagreement vs exact ground truth
    assert len(kept ^ exact_survivors) <= 0.05 * n


def test_dedup_simhash_cross_verified_against_exact_token_cosine():
    """Independent verification for the SimHash family (beyond the golden
    pin): SimHash approximates the cosine between token-count vectors, so
    survivors are checked against EXACT token-multiset cosine ground
    truth on the sf0.01 corpus.

    Bounds asserted, calibrated to the 64-bit sketch's real resolution
    (hamming ~ Binomial(64, theta/pi); at cos 0.6 expected hamming ~ 19
    with sigma ~ 3.8, so hamming <= 3 is a >4-sigma event -- while
    hamming-3 collisions at cos ~ 0.75 DO occur at ~10^-5 pair rate,
    the sketch's documented coarseness):
    * no IMPOSSIBLE false drop -- every dropped doc has exact token
      cosine >= 0.6 with some other doc;
    * estimator-variance drops (0.6 <= cos < 0.95) bounded to <= 1% of
      the corpus;
    * no plausible miss -- every exact component at cosine >= 0.999
      keeps at most one member;
    * bounded overall disagreement vs the exact-0.99 ground truth.
    """
    import pyarrow.parquet as pq
    from collections import Counter

    from fluent_plugin_geoip_ray.stages.dedup import dedup_simhash

    t = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                      columns=["doc_id", "text"])
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    texts = t.column("text").to_pylist()
    counts = [Counter(s.lower().split()) for s in texts]
    norms = [np.sqrt(sum(v * v for v in c.values())) or 1.0 for c in counts]

    def cos(i, j):
        a, b = counts[i], counts[j]
        if len(b) < len(a):
            a, b = b, a
        dot = sum(v * b.get(k, 0) for k, v in a.items())
        return dot / (norms[i] * norms[j])

    n = len(ids)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    hi_pairs = []
    max_c = np.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            v = cos(i, j)
            max_c[i] = max(max_c[i], v)
            max_c[j] = max(max_c[j], v)
            if v >= 0.99:
                parent[find(i)] = find(j)
            if v >= 0.999:
                hi_pairs.append((i, j))
    comp = {}
    for i in range(n):
        r = find(i)
        if r not in comp or ids[i] < ids[comp[r]]:
            comp[r] = i
    exact_survivors = {ids[comp[r]] for r in comp}

    out = dedup_simhash(rd.read_parquet(
        "/root/testdata/sf0.01/documents.parquet")).to_pandas()
    kept = set(out["doc_id"])
    dropped_idx = [i for i in range(n) if ids[i] not in kept]

    impossible = [ids[i] for i in dropped_idx if max_c[i] < 0.6]
    assert impossible == []
    variance_band = [ids[i] for i in dropped_idx if 0.6 <= max_c[i] < 0.95]
    assert len(variance_band) <= 0.01 * n
    hi_parent = list(range(n))

    def hfind(x):
        while hi_parent[x] != x:
            hi_parent[x] = hi_parent[hi_parent[x]]
            x = hi_parent[x]
        return x

    for i, j in hi_pairs:
        hi_parent[hfind(i)] = hfind(j)
    from collections import Counter as C2

    kept_per = C2(hfind(i) for i in range(n) if ids[i] in kept)
    multi = {r: c for r, c in kept_per.items()
             if c > 1 and sum(hfind(i) == r for i in range(n)) > 1}
    assert not multi
    assert len(kept ^ exact_survivors) <= 0.06 * n


def test_similarity_join_known_pairs_and_referee():
    """Cross-table fuzzy join: hand-checkable pairs plus a python-set
    referee computing exact gram-set Jaccard for every cross pair."""
    from fluent_plugin_geoip_ray.stages.dedup import (
        _gram_sets,
        similarity_join,
    )

    left = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["the quick brown fox jumps high",
                 "completely different words here now",
                 "the quick brown fox jumps"],
    })
    right = pa.table({
        "doc_id": pa.array([10, 11], pa.int64()),
        "text": ["the quick brown fox jumps high today",
                 "unrelated content entirely"],
    })
    out = (similarity_join(rd.from_arrow(left).repartition(2),
                           rd.from_arrow(right), threshold=0.3)
           .to_pandas().sort_values(["left_key", "right_key"])
           .reset_index(drop=True))

    # referee: exact gram sets per side
    def sets(t):
        gs, off = _gram_sets(t, "text", 3)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return {int(ids[i]): set(gs[off[i]:off[i + 1]].tolist())
                for i in range(len(ids))}

    L, R = sets(left), sets(right)
    expect = []
    for lk, a in L.items():
        for rk, b in R.items():
            u = len(a | b)
            j = len(a & b) / u if u else 0.0
            if j >= 0.3:
                expect.append((lk, rk, j))
    expect.sort()
    got = list(map(tuple, out[["left_key", "right_key", "jaccard"]]
                   .itertuples(index=False)))
    assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expect]
    for (_, _, gj), (_, _, ej) in zip(got, expect):
        assert gj == ej          # one exact division: bit-identical
    # the near-identical pair is present, the unrelated ones are not
    assert (1, 10) in {(a, b) for a, b, _ in got}
    assert all(b != 11 for _, b, _ in got)


def test_similarity_join_empty_and_disjoint_inputs():
    from fluent_plugin_geoip_ray.stages.dedup import similarity_join

    left = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                     "text": ["a b c d", "e f g h"]})
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})
    out_ds = similarity_join(rd.from_arrow(left), rd.from_arrow(empty))
    # the BLOCK schema is typed (Ray's to_pandas drops columns of empty
    # datasets, so assert on the dataset schema)
    assert out_ds.schema().names == ["left_key", "right_key", "jaccard"]
    assert out_ds.count() == 0
    # disjoint vocabularies: candidates exist nowhere
    right = pa.table({"doc_id": pa.array([9], pa.int64()),
                      "text": ["x y z w"]})
    out2_ds = similarity_join(rd.from_arrow(left), rd.from_arrow(right))
    assert out2_ds.count() == 0
    assert out2_ds.schema().names == ["left_key", "right_key", "jaccard"]


def _simjoin_referee(left, right, threshold, shingle_k=3):
    from fluent_plugin_geoip_ray.stages.dedup import _gram_sets

    def sets(t):
        gs, off = _gram_sets(t, "text", shingle_k)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return {int(ids[i]): set(gs[off[i]:off[i + 1]].tolist())
                for i in range(len(ids))}

    L, R = sets(left), sets(right)
    expect = []
    for lk, a in L.items():
        for rk, b in R.items():
            u = len(a | b)
            j = len(a & b) / u if u else 0.0
            if j >= threshold:
                expect.append((lk, rk, j))
    expect.sort()
    return expect


def test_similarity_join_stop_gram_skew_no_blowup():
    """A stop gram shared by EVERY doc must not trip max_group_pairs: hot
    grams are classified heavy (no pair emission), candidates come from
    rarest-first prefixes, and the heavy-list correction keeps results
    exact vs the all-pairs referee."""
    from fluent_plugin_geoip_ray.stages.dedup import similarity_join

    n = 60

    def words(tag, i):
        # 9 doc-unique words + a 3-word stop tail shared by EVERY doc:
        # 2 heavy trigrams (df = 2n), 9 doc-local light trigrams
        u = " ".join(f"{tag}{i}{c}" for c in "abcdefghj")
        return f"{u} the end line"

    left = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": [words("u", i) for i in range(n)],
    })
    right = pa.table({
        "doc_id": pa.array(range(100, 100 + n), pa.int64()),
        "text": ([words("u", i) for i in range(n // 2)]  # identical to left
                 + [words("r", i) for i in range(n // 2, n)]),
    })
    # heavy_df_limit=4 classifies the stop grams (df=120) heavy;
    # max_group_pairs=2000 would trip the OLD all-run-emission design
    # (each stop gram alone emits n*n = 3600 cross pairs) but passes with
    # prefix candidates + light counting
    out = (similarity_join(rd.from_arrow(left), rd.from_arrow(right),
                           threshold=0.5, heavy_df_limit=4,
                           max_group_pairs=2000)
           .to_pandas().sort_values(["left_key", "right_key"])
           .reset_index(drop=True))
    expect = _simjoin_referee(left, right, 0.5)
    got = list(map(tuple, out[["left_key", "right_key", "jaccard"]]
                   .itertuples(index=False)))
    assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expect]
    for (_, _, gj), (_, _, ej) in zip(got, expect):
        assert gj == ej
    assert len(got) >= n // 2  # the near-identical half matched


def test_similarity_join_group_pair_guard():
    """The cross-join enumerator is guarded like the self-join one: 30 x 30
    distinct docs sharing every BASE gram put 900 light pairs in each
    shared-gram run > guard."""
    from fluent_plugin_geoip_ray.stages.dedup import similarity_join

    def side(lo):
        return rd.from_arrow(pa.table({
            "doc_id": pa.array(range(lo, lo + 30), pa.int64()),
            "text": pa.array([BASE + f" unique{i} tail{i} end{i}"
                              for i in range(lo, lo + 30)]),
        }))

    with pytest.raises(Exception, match="max_group_pairs"):
        similarity_join(side(0), side(100), threshold=0.5,
                        max_group_pairs=100).to_pandas()


def test_similarity_join_all_heavy_pair_found():
    """A pair whose EVERY shared gram is heavy (shared only stop grams)
    must still be found via the prefix candidates."""
    from fluent_plugin_geoip_ray.stages.dedup import similarity_join

    stop = "aaa bbb ccc ddd eee"  # 3 trigrams, shared by everything
    left = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": [stop] * 5,
    })
    right = pa.table({
        "doc_id": pa.array([10, 11], pa.int64()),
        "text": [stop, stop + " zzz"],
    })
    out = (similarity_join(rd.from_arrow(left), rd.from_arrow(right),
                           threshold=0.5, heavy_df_limit=2)
           .to_pandas().sort_values(["left_key", "right_key"])
           .reset_index(drop=True))
    expect = _simjoin_referee(left, right, 0.5)
    got = list(map(tuple, out[["left_key", "right_key", "jaccard"]]
                   .itertuples(index=False)))
    assert [(a, b, j) for a, b, j in got] == expect
    assert len(got) == 10  # 5 exact x doc10 + 5 x doc11 (J=3/4 >= 0.5)


def test_similarity_join_df_index_parity_and_reuse(tmp_path):
    """A persisted gram-df index gives bit-identical results (df only
    orders grams) and is reused across runs without rebuilding."""
    import os

    from fluent_plugin_geoip_ray.stages.dedup import (
        build_gram_df_index,
        similarity_join,
    )

    left = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["the quick brown fox jumps high",
                 "completely different words here now",
                 "the quick brown fox jumps"],
    })
    right = pa.table({
        "doc_id": pa.array([10, 11], pa.int64()),
        "text": ["the quick brown fox jumps high today",
                 "unrelated content entirely"],
    })
    idx = str(tmp_path / "gram_df")
    build_gram_df_index([(rd.from_arrow(left), "doc_id"),
                         (rd.from_arrow(right), "doc_id")], idx,
                        num_buckets=8)
    assert os.path.exists(os.path.join(idx, "meta.json"))

    direct = (similarity_join(rd.from_arrow(left), rd.from_arrow(right),
                              threshold=0.3, num_buckets=8)
              .to_pandas().sort_values(["left_key", "right_key"])
              .reset_index(drop=True))
    via_idx = (similarity_join(rd.from_arrow(left), rd.from_arrow(right),
                               threshold=0.3, num_buckets=8,
                               df_index_dir=idx)
               .to_pandas().sort_values(["left_key", "right_key"])
               .reset_index(drop=True))
    assert direct.equals(via_idx)

    # resume/reuse: index files untouched by the query pass
    mtimes = {f: os.path.getmtime(os.path.join(idx, f))
              for f in os.listdir(idx)}
    similarity_join(rd.from_arrow(left), rd.from_arrow(right),
                    threshold=0.3, num_buckets=8, df_index_dir=idx
                    ).to_pandas()
    assert mtimes == {f: os.path.getmtime(os.path.join(idx, f))
                      for f in os.listdir(idx)}

    # mismatched build params are rejected up front
    import pytest as _pytest
    with _pytest.raises(ValueError):
        similarity_join(rd.from_arrow(left), rd.from_arrow(right),
                        num_buckets=16, df_index_dir=idx)


def test_similarity_join_df_index_missing_bucket(tmp_path):
    """An index built over a tiny corpus leaves most df-* bucket files
    unwritten; joining corpora whose grams hash to those buckets must
    treat the grams as df=0 (light) -- pruning efficiency lost, results
    bit-identical -- not crash (regression: IndexError on empty bucket)."""
    from fluent_plugin_geoip_ray.stages.dedup import (
        build_gram_df_index,
        similarity_join,
    )

    left = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["the quick brown fox jumps high",
                 "completely different words here now",
                 "the quick brown fox jumps"],
    })
    right = pa.table({
        "doc_id": pa.array([10, 11], pa.int64()),
        "text": ["the quick brown fox jumps high today",
                 "unrelated content entirely"],
    })
    # index sees ONE short doc: with 32 buckets nearly all files missing
    idx = str(tmp_path / "sparse_df")
    tiny = pa.table({"doc_id": pa.array([99], pa.int64()),
                     "text": ["only doc the index ever saw"]})
    build_gram_df_index([(rd.from_arrow(tiny), "doc_id")], idx,
                        num_buckets=32)

    direct = (similarity_join(rd.from_arrow(left), rd.from_arrow(right),
                              threshold=0.3, num_buckets=32)
              .to_pandas().sort_values(["left_key", "right_key"])
              .reset_index(drop=True))
    via_idx = (similarity_join(rd.from_arrow(left), rd.from_arrow(right),
                               threshold=0.3, num_buckets=32,
                               df_index_dir=idx)
               .to_pandas().sort_values(["left_key", "right_key"])
               .reset_index(drop=True))
    assert direct.equals(via_idx)
    assert len(direct) > 0
