"""Seeded inputs, their on-disk cache, and the output oracles.

Every input is a function of ``(workload, seed, size)`` and is cached under
``.perfbench/cache/<workload>-s<seed>-n<rows>-f<rows per file>/`` in the checkout, so
generation is paid once per key and stays out of ``setup_s``.  The
``lookup_cold`` host database does not depend on the seed (only the query mix
does), so its ``.mmdb`` build is keyed by host count alone and paid once per
checkout.

The transcripts follow ``sources/transcripts.py``: same schema, same roles,
tools, texts, IP pool and probabilities, and one hot conversation holding 5%
of the turns.  Only the draws depend on ``--seed``.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# Ray Data splits each read task's output into ceil(P / files) blocks, where
# P = floor(estimated in-memory MiB).  At 16384 rows a file, 100k turns sat at
# P = 8 (~8.05 MiB), so the block count of a pass flipped between 7 and 14
# from seed to seed.  At 16667 rows a file, 100k turns give 6 files and
# P = 9 or 10, and every P from 7 to 12 (7 to 13 MiB) yields the same 12 blocks.
ROWS_PER_FILE = 16667
KEEP_INPUT_SETS = 40
MMDB_SEED = 20261016

# Countries of the synthetic host database; a host's document is a pure
# function of its index, so the oracle never has to read the .mmdb back.
HOST_COUNTRIES = ["US", "JP", "DE", "FR", "BR", "IN", "GB", "CA", "AU", "KR",
                  "NL", "SE", "ES", "IT", "MX", "SG", "ZA", "AR", "PL", "TR"]

# IPv4 regex of the parse stage, written out again for the DuckDB oracle
IPV4_SQL = r"(\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3})"


def _atomic_dir(final: str, build) -> str:
    """Run ``build(tmp_dir)`` and rename the result into place."""
    if os.path.exists(os.path.join(final, "_SUCCESS")):
        return final
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("ok")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final


def _prune(cache_root: str, keep: int) -> None:
    """Keep the ``keep`` most recently used input sets (the mmdb stays)."""
    sets = [os.path.join(cache_root, d) for d in os.listdir(cache_root)
            if not d.startswith("mmdb-") and ".tmp" not in d
            and os.path.isdir(os.path.join(cache_root, d))]
    sets.sort(key=os.path.getmtime, reverse=True)
    for old in sets[keep:]:
        shutil.rmtree(old, ignore_errors=True)


# -- transcripts -------------------------------------------------------------

def build_transcripts(n: int, rng: np.random.Generator, draw_ips=None):
    """Transcript table with the ``sources/transcripts.py`` distributions.

    ``draw_ips(rng, n)`` overrides the 9-address pool with any address
    array.  Returns ``(table, ip1)`` where ``ip1`` is the address placed as
    the first IP of each row (None where the row carries no IP): the
    generator's own truth for the lookup key.
    """
    from fluent_plugin_geoip_ray.sources import transcripts as src

    hot_n = n // 20
    rest = n - hot_n
    lengths = rng.integers(1, 13, size=rest // 2 + 16)
    cum = np.cumsum(lengths)
    n_convs = int(np.searchsorted(cum, rest, side="left")) + 1
    lengths = lengths[:n_convs]
    lengths[-1] = rest - (cum[n_convs - 2] if n_convs > 1 else 0)
    conv_rest = np.repeat(np.arange(1, n_convs + 1), lengths)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    turn_rest = np.arange(rest) - np.repeat(starts, lengths)
    conv_num = np.concatenate([np.zeros(hot_n, dtype=np.int64), conv_rest])
    turn_idx = np.concatenate([np.arange(hot_n, dtype=np.int64), turn_rest])
    conv_id = pc.binary_join_element_wise(
        "conv", pc.utf8_lpad(pc.cast(pa.array(conv_num), pa.string()), 8, padding="0"), "")

    role = pa.array(src.ROLES.tolist()).take(pa.array(turn_idx % 3))
    tool_pick = pa.array(src.TOOLS.tolist()).take(pa.array(rng.integers(0, 3, size=n)))
    tool = pc.if_else(pc.equal(role, "tool"), tool_pick, "")
    ts = src.BASE_TS_US + np.arange(n, dtype=np.int64) * 1_000_000

    has_ip1 = rng.random(n) >= 0.20
    has_ip2 = has_ip1 & (rng.random(n) < 0.30)
    has_host = rng.random(n) < 0.25
    if draw_ips is None:
        pool = pa.array(src.IP_POOL.tolist())
        ip1 = pool.take(pa.array(rng.choice(len(src.IP_POOL), size=n, p=src.IP_P)))
        ip2 = pool.take(pa.array(rng.choice(len(src.IP_POOL), size=n, p=src.IP_P)))
    else:
        ip1, ip2 = draw_ips(rng, n), draw_ips(rng, n)
    host = pa.array(src.HOST_POOL.tolist()).take(
        pa.array(rng.choice(len(src.HOST_POOL), size=n, p=src.HOST_P)))
    lead = pa.array(src.LEADS.tolist()).take(pa.array(rng.integers(0, len(src.LEADS), size=n)))
    tail = pa.array(src.TAILS.tolist()).take(pa.array(rng.integers(0, len(src.TAILS), size=n)))

    def seg(mask, prefix, arr):
        return pc.if_else(pa.array(mask), pc.binary_join_element_wise(prefix, arr, ""), "")

    text = pc.binary_join_element_wise(
        lead, seg(has_ip1, " src=", ip1), seg(has_host, " via ", host),
        seg(has_ip2, " dst=", ip2), " :: ", tail, "")
    table = pa.table({
        "conv_id": conv_id,
        "turn_idx": pa.array(turn_idx.astype(np.int32), type=pa.int32()),
        "role": role,
        "text": text,
        "tool": tool,
        "ts": pa.array(ts, type=pa.timestamp("us")),
    })
    truth_ip = pc.if_else(pa.array(has_ip1), ip1, pa.scalar(None, pa.string()))
    return table, truth_ip


def _write_parts(table: pa.Table, out_dir: str) -> None:
    os.makedirs(out_dir)
    for i, start in enumerate(range(0, table.num_rows, ROWS_PER_FILE)):
        pq.write_table(table.slice(start, ROWS_PER_FILE),
                       os.path.join(out_dir, f"part-{i:05d}.parquet"),
                       row_group_size=ROWS_PER_FILE)


# -- lookup_cold host database ----------------------------------------------

def _int_to_ip(v: np.ndarray) -> pa.Array:
    octets = [pc.cast(pa.array((v >> s) & 255), pa.string()) for s in (24, 16, 8, 0)]
    return pc.binary_join_element_wise(*octets, ".")


def host_doc(i: int) -> dict:
    """GeoIP2-shaped document of host ``i`` (every host has a city, so the
    enrich gate passes on every hit)."""
    cc = HOST_COUNTRIES[i % len(HOST_COUNTRIES)]
    return {
        "city": {"names": {"en": f"City{i % 997}"}},
        "country": {"iso_code": cc, "names": {"en": f"Country {cc}"}},
        "location": {"latitude": round(-60 + (i * 7919 % 12000) / 100, 4),
                     "longitude": round(-170 + (i * 104729 % 34000) / 100, 4)},
        "subdivisions": [{"iso_code": f"R{i % 50:02d}"}],
    }


def ensure_mmdb(cache_root: str, hosts: int) -> str:
    """Directory with ``hosts.mmdb`` (built by ``state.mmdb.write_mmdb``)
    and ``hosts.parquet`` (ip, country_code) -- seed-independent."""
    from fluent_plugin_geoip_ray.state.mmdb import write_mmdb

    def build(tmp):
        rng = np.random.default_rng(MMDB_SEED)
        # distinct public unicast addresses 1.0.0.0 .. 223.255.255.255
        vals = np.unique(rng.integers(1 << 24, 224 << 24, size=hosts * 2))
        vals = rng.permutation(vals)[:hosts]
        ips = _int_to_ip(vals).to_pylist()
        write_mmdb({ip: host_doc(i) for i, ip in enumerate(ips)},
                   os.path.join(tmp, "hosts.mmdb"))
        pq.write_table(pa.table({
            "ip": ips,
            "country_code": [HOST_COUNTRIES[i % len(HOST_COUNTRIES)] for i in range(hosts)],
        }), os.path.join(tmp, "hosts.parquet"))

    return _atomic_dir(os.path.join(cache_root, f"mmdb-h{hosts}"), build)


def address_mix(host_ips: pa.Array, hit_frac: float = 0.7, zipf_s: float = 1.0):
    """``draw_ips`` for lookup_cold: Zipf-ranked hits on the host database and
    uniform misses over the rest of the IPv4 space."""
    host_set = pa.array(host_ips)
    ranks = np.arange(1, len(host_ips) + 1, dtype=np.float64)
    p = ranks ** -zipf_s
    p /= p.sum()

    def draw(rng, n):
        hit = rng.random(n) < hit_frac
        picks = host_set.take(pa.array(rng.choice(len(host_ips), size=n, p=p)))
        miss = _int_to_ip(rng.integers(1 << 24, 224 << 24, size=n))
        # a uniform draw that lands on a host is redrawn until it misses
        clash = pc.is_in(miss, value_set=host_set).to_numpy(zero_copy_only=False)
        while clash.any():
            redraw = _int_to_ip(rng.integers(1 << 24, 224 << 24, size=int(clash.sum())))
            miss = pc.replace_with_mask(miss, pa.array(clash), redraw)
            clash = pc.is_in(miss, value_set=host_set).to_numpy(zero_copy_only=False)
        return pc.if_else(pa.array(hit), picks, miss)

    return draw


# -- oracles -----------------------------------------------------------------

def _counts_json(rows) -> dict:
    """{key -> n} with SQL NULL as the JSON key ``"null"``."""
    return {("null" if k is None else k): int(n) for k, n in rows}


def fanout_oracle_sql(con, inputs: str, geo: str) -> dict:
    """Expected flagship stats: route row counts and country_code counts,
    from DuckDB over the input joined with the geo fixture."""
    con.execute(f"""
        CREATE OR REPLACE TEMP VIEW t AS
        SELECT g.country_iso_code AS cc,
               (g.ip IS NOT NULL AND g.city_names_en IS NOT NULL) AS enriched
        FROM read_parquet('{inputs}/*.parquet') r
        LEFT JOIN read_parquet('{geo}') g
          ON g.ip = NULLIF(regexp_extract(r.text, '{IPV4_SQL}', 1), '')
    """)
    raw = con.execute("SELECT cc, count(*) FROM t GROUP BY cc").fetchall()
    enr = con.execute("SELECT cc, count(*) FROM t WHERE enriched GROUP BY cc").fetchall()
    n_raw, n_enr = con.execute("SELECT count(*), count(*) FILTER (enriched) FROM t").fetchone()
    return {"rows": {"raw": int(n_raw), "enriched": int(n_enr)},
            "country_code": {"raw": _counts_json(raw), "enriched": _counts_json(enr)}}


def geo_hop_oracle_sql(con, inputs: str, geo: str) -> dict:
    """Expected per-conversation count of turns whose country differs from
    the previous turn's (NULL-aware), from DuckDB ``LAG``."""
    rows = con.execute(f"""
        WITH t AS (
          SELECT r.conv_id, r.turn_idx, g.country_iso_code AS cc
          FROM read_parquet('{inputs}/*.parquet') r
          LEFT JOIN read_parquet('{geo}') g
            ON g.ip = NULLIF(regexp_extract(r.text, '{IPV4_SQL}', 1), '')
        ), l AS (
          SELECT conv_id, cc,
                 LAG(cc) OVER w AS prev_cc, LAG(turn_idx) OVER w AS prev_turn
          FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
        )
        SELECT conv_id, count(*) FROM l
        WHERE prev_turn IS NOT NULL AND cc IS DISTINCT FROM prev_cc
        GROUP BY conv_id
    """).fetchall()
    return {"changes": {k: int(n) for k, n in rows}}


def truth_oracle(truth_cc: pa.Array) -> dict:
    """lookup_cold: expected stats straight from the generator's truth
    (every host document carries a city, so enriched == hit)."""
    vc = pc.value_counts(truth_cc).to_pylist()
    raw = {("null" if d["values"] is None else d["values"]): d["counts"] for d in vc}
    enr = {k: n for k, n in raw.items() if k != "null"}
    return {"rows": {"raw": len(truth_cc), "enriched": sum(enr.values())},
            "country_code": {"raw": raw, "enriched": enr}}


# -- entry point ---------------------------------------------------------------

def ensure_inputs(cache_root: str, workload: str, seed: int, rows: int,
                  hosts: int) -> dict:
    """Generate (or reuse) a workload's input files and oracle.

    Returns ``{"dir", "files", "rows", "oracle", "mmdb"}``; ``mmdb`` is the
    host database path for lookup_cold and None otherwise.
    """
    import duckdb

    os.makedirs(cache_root, exist_ok=True)
    mmdb_dir = ensure_mmdb(cache_root, hosts) if workload == "lookup_cold" else None
    geo = os.path.join(cache_root, "geo_fixture.parquet")
    if not os.path.exists(geo):
        from fluent_plugin_geoip_ray.state.fixture import write_geo_fixture_parquet

        write_geo_fixture_parquet(geo)

    def build(tmp):
        rng = np.random.default_rng([seed, rows, len(workload)])
        if workload == "lookup_cold":
            hosts_t = pq.read_table(os.path.join(mmdb_dir, "hosts.parquet"))
            table, ip1 = build_transcripts(rows, rng, address_mix(hosts_t.column("ip")))
            cc_of = dict(zip(hosts_t.column("ip").to_pylist(),
                             hosts_t.column("country_code").to_pylist()))
            truth = pa.array([cc_of.get(ip) for ip in ip1.to_pylist()], pa.string())
            oracle = truth_oracle(truth)
            oracle["distinct_addresses"] = len(pc.unique(ip1.drop_null()))
        else:
            table, _ = build_transcripts(rows, rng)
            oracle = None
        _write_parts(table, os.path.join(tmp, "input"))
        con = duckdb.connect()
        try:
            if workload == "flagship":
                oracle = fanout_oracle_sql(con, os.path.join(tmp, "input"), geo)
            elif workload == "geo_hop":
                oracle = geo_hop_oracle_sql(con, os.path.join(tmp, "input"), geo)
        finally:
            con.close()
        with open(os.path.join(tmp, "oracle.json"), "w") as f:
            json.dump(oracle, f, sort_keys=True)

    entry = _atomic_dir(
        os.path.join(cache_root, f"{workload}-s{seed}-n{rows}-f{ROWS_PER_FILE}"), build)
    os.utime(entry)
    _prune(cache_root, KEEP_INPUT_SETS)
    input_dir = os.path.join(entry, "input")
    with open(os.path.join(entry, "oracle.json")) as f:
        oracle = json.load(f)
    return {
        "dir": input_dir,
        "files": sorted(os.path.join(input_dir, f) for f in os.listdir(input_dir)),
        "rows": rows,
        "oracle": oracle,
        "mmdb": os.path.join(mmdb_dir, "hosts.mmdb") if mmdb_dir else None,
    }
