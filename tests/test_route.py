"""Tag-pattern matching + remap tests (Fluentd public tag grammar,
README.md:248-266; routing mandated by BASELINE.json north_star)."""

import re

import pyarrow as pa

from fluent_plugin_geoip_ray.stages.route import RouteSpec, tag_pattern_to_regex


def matches(pattern, tag):
    return re.match(tag_pattern_to_regex(pattern), tag) is not None


def test_double_star_matches_zero_or_more_parts():
    assert matches("a.**", "a")
    assert matches("a.**", "a.b")
    assert matches("a.**", "a.b.c")
    assert not matches("a.**", "ab")
    assert not matches("a.**", "b.a")


def test_single_star_matches_one_part():
    assert matches("a.*", "a.b")
    assert not matches("a.*", "a.b.c")
    assert not matches("a.*", "a")


def test_exact_match():
    assert matches("a.b", "a.b")
    assert not matches("a.b", "a.bc")


def test_bare_double_star():
    assert matches("**", "anything.at.all")


def _batch(tags, enriched=None):
    cols = {"tag": tags, "conv_id": ["c"] * len(tags),
            "turn_idx": list(range(len(tags))),
            "ts": [0] * len(tags)}
    if enriched is not None:
        cols["geoip_enriched"] = enriched
    return pa.table(cols)


def test_route_filter_and_remap():
    r = RouteSpec(name="r", match="transcripts.**",
                  remove_tag_prefix="transcripts.", add_tag_prefix="enriched.")
    out = r.apply(_batch(["transcripts.user", "other.user", "transcripts.tool"]))
    assert out.column("tag").to_pylist() == ["enriched.user", "enriched.tool"]


def test_route_suffix_ops():
    r = RouteSpec(name="r", match="**", add_tag_suffix=".raw")
    out = r.apply(_batch(["a.b"]))
    assert out.column("tag").to_pylist() == ["a.b.raw"]
    r2 = RouteSpec(name="r", match="**", remove_tag_suffix=".raw")
    out2 = r2.apply(_batch(["a.b.raw"]))
    assert out2.column("tag").to_pylist() == ["a.b"]


def test_route_skip_gate_filters_unenriched():
    r = RouteSpec(name="r", match="**", skip_adding_null_record=True)
    out = r.apply(_batch(["a", "a", "a"], enriched=[True, False, None]))
    assert out.num_rows == 1


# ---- per-row referee ------------------------------------------------------

TAG_POOL = [
    "a", "a.b", "a.b.c", "a.c", "a.bx", "ab", "b", "b.a", "x.a.b",
    "a.b.raw", "transcripts.user", "transcripts.tool.raw", "", None,
]
PATTERNS = ["**", "a.**", "transcripts.**", "a.*", "*.b", "a.*.c", "**.raw",
            "a.**.c", "a.b", "b"]


def referee_apply(route, rows):
    """One row at a time: fullmatch, gate, then string prefix/suffix ops."""
    rx = re.compile(tag_pattern_to_regex(route.match))
    out = []
    for row in rows:
        tag = row["tag"]
        if tag is None or rx.fullmatch(tag) is None:
            continue
        if route.skip_adding_null_record and row.get("geoip_enriched") is not True:
            continue
        if route.remove_tag_prefix and tag.startswith(route.remove_tag_prefix):
            tag = tag[len(route.remove_tag_prefix):]
        if route.remove_tag_suffix and tag.endswith(route.remove_tag_suffix):
            tag = tag[: len(tag) - len(route.remove_tag_suffix)]
        out.append({**row, "tag": route.add_tag_prefix + tag + route.add_tag_suffix})
    return out


def _random_batch(rng, n):
    """Two chunks, tags drawn from TAG_POOL, gate True/False/None."""
    tags = [rng.choice(TAG_POOL) for _ in range(n)]
    table = pa.table({
        "tag": pa.array(tags, type=pa.string()),
        "conv_id": [f"c{i % 5}" for i in range(n)],
        "turn_idx": list(range(n)),
        "geoip_enriched": pa.array(
            [rng.choice([True, False, None]) for _ in range(n)], type=pa.bool_()),
    })
    k = n // 3
    return pa.concat_tables([table.slice(0, k), table.slice(k)])


def test_route_apply_matches_row_referee():
    import random

    rng = random.Random(5)
    rewrites = [
        {},
        {"remove_tag_prefix": "a.", "add_tag_prefix": "enriched."},
        {"remove_tag_suffix": ".raw", "add_tag_suffix": ".s"},
        {"remove_tag_prefix": "transcripts.", "remove_tag_suffix": ".c",
         "add_tag_prefix": "p.", "add_tag_suffix": ".q"},
    ]
    for n in (0, 1, 40, 300):
        batch = _random_batch(rng, n)
        rows = batch.to_pylist()
        for pattern in PATTERNS:
            for rw in rewrites:
                for gate in (False, True):
                    route = RouteSpec(name="r", match=pattern,
                                      skip_adding_null_record=gate, **rw)
                    got = route.apply(batch)
                    assert got.schema == batch.schema
                    assert got.to_pylist() == referee_apply(route, rows), (
                        pattern, rw, gate, n)


def test_route_mask_matches_row_referee():
    import random

    batch = _random_batch(random.Random(9), 120)
    rows = batch.to_pylist()
    for pattern in PATTERNS:
        for gate in (False, True):
            route = RouteSpec(name="r", match=pattern, skip_adding_null_record=gate)
            kept = {r["turn_idx"] for r in referee_apply(route, rows)}
            want = [r["turn_idx"] in kept for r in rows]
            assert route.mask(batch).to_pylist() == want, (pattern, gate)


def test_all_pass_route_returns_other_columns_unchanged():
    batch = _batch(["a.b", "c", "a.b", "d.e.f"])
    batch = batch.append_column("text", pa.array(["x", "yy", "", "zzz"]))
    out = RouteSpec(name="r", match="**", add_tag_suffix=".raw").apply(batch)
    assert out.column("tag").to_pylist() == ["a.b.raw", "c.raw", "a.b.raw", "d.e.f.raw"]
    for name in batch.column_names:
        if name == "tag":
            continue
        assert out.column(name).equals(batch.column(name))
        # no filter copy: the very same buffers
        got = [b.address for c in out.column(name).chunks for b in c.buffers() if b]
        want = [b.address for c in batch.column(name).chunks for b in c.buffers() if b]
        assert got == want
