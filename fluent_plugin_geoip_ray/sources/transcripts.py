"""Deterministic synthetic transcript table (FIXTURES.md §1).

Exactly the ``BASELINE.json:input_hint`` shape:
``conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us]`` -- seed=42 everywhere, no wall-clock, no external data.
5% of rows share one hot ``conv_id`` (``conv00000000``) to exercise the
hotspot-skew handling the north_rule demands.

Written once per scale factor to ``/tmp/graft_data/sf{sf}/transcripts.parquet``
(atomic rename, idempotent) so tests, bench and the DuckDB oracle all read the
same bytes.
"""

from __future__ import annotations

import os
import re

import numpy as np

DATA_ROOT = os.environ.get("GRAFT_DATA_ROOT", "/tmp/graft_data")
BASE_TS_US = np.datetime64("2026-01-01T00:00:00", "us").astype("int64")

ROLES = np.asarray(["user", "assistant", "tool"])
TOOLS = np.asarray(["bash", "fetch", "search"])

# IP pool: canonical fixture IPs (heavy-hitter skew on the Mountain View IP)
# + unknown/invalid tokens (RFC5737, private ranges) that must miss cleanly
KNOWN_IPS = ["66.102.3.80", "66.102.9.80", "8.8.8.8", "125.54.15.42", "180.94.85.84"]
MISS_IPS = ["203.0.113.1", "10.0.0.1", "192.168.1.1", "999.999.999.999"]
IP_POOL = np.asarray(KNOWN_IPS + MISS_IPS)
IP_P = np.asarray([0.30, 0.10, 0.12, 0.12, 0.06, 0.10, 0.08, 0.07, 0.05])

HOST_POOL = np.asarray(["host_google", "host_tokorozawa", "host_unknown"])
HOST_P = np.asarray([0.5, 0.3, 0.2])

LEADS = np.asarray(
    [
        "checked the service logs",
        "user reports latency from",
        "tool call traced request",
        "deploy touched upstream",
        "session continued, packet from",
        "agent resolved lookup",
    ]
)
TAILS = np.asarray(
    ["retrying now", "all good", "needs review", "escalated", "done", "queued"]
)


def n_rows_for_sf(sf: float) -> int:
    return max(60, int(round(6_000_000 * sf)))


def sf_from_dir(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", sf_dir)
    if not m:
        raise ValueError(f"cannot parse scale factor from {sf_dir!r}")
    return float(m.group(1))


def transcripts_path(sf: float) -> str:
    """Directory of part files -- a single parquet file reads as ONE Ray task
    (sequential bottleneck) and gives resume only one partition; a 100 TB
    table is always many files, so the fixture mirrors that layout."""
    return os.path.join(DATA_ROOT, f"sf{sf:g}", "transcripts")


ROWS_PER_FILE = 65536


def _rows_per_file(n: int) -> int:
    """Cap so every fixture has >=4 part files: resume/lineage semantics (and
    their tests) are about multi-partition tables, and a real 100 TB table is
    never one file. Large sf keeps the 64k-row layout."""
    return min(ROWS_PER_FILE, max(1, -(-n // 4)))


def geo_fixture_path() -> str:
    return os.path.join(DATA_ROOT, "geo_fixture.parquet")


def build_transcripts_table(sf: float):
    """Deterministic generation: numpy for draws, pyarrow C++ kernels for all
    string assembly (np.char is far too slow beyond ~10^6 rows)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    n = n_rows_for_sf(sf)
    rng = np.random.default_rng(42)

    # --- conversation structure: 5% hot conv, rest in convs of length 1..12
    hot_n = n // 20
    rest = n - hot_n
    lengths = rng.integers(1, 13, size=rest // 2 + 16)
    cum = np.cumsum(lengths)
    n_convs = int(np.searchsorted(cum, rest, side="left")) + 1
    lengths = lengths[:n_convs]
    lengths[-1] = rest - (cum[n_convs - 2] if n_convs > 1 else 0)
    conv_idx_rest = np.repeat(np.arange(1, n_convs + 1), lengths)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    turn_rest = np.arange(rest) - np.repeat(starts, lengths)

    conv_num = np.concatenate([np.zeros(hot_n, dtype=np.int64), conv_idx_rest])
    turn_idx = np.concatenate([np.arange(hot_n, dtype=np.int64), turn_rest])
    conv_id = pc.binary_join_element_wise(
        pa.scalar("conv"),
        pc.utf8_lpad(pc.cast(pa.array(conv_num), pa.string()), 8, padding="0"),
        "",
    )

    role_idx = pa.array(turn_idx % 3)
    role = pa.array(ROLES.tolist()).take(role_idx)
    is_tool = pc.equal(role, "tool")
    tool_pick = pa.array(TOOLS.tolist()).take(pa.array(rng.integers(0, 3, size=n)))
    tool = pc.if_else(is_tool, tool_pick, pa.scalar(""))
    ts = BASE_TS_US + np.arange(n, dtype=np.int64) * 1_000_000

    # --- text: lead + optional ip1 + optional host + optional ip2 + tail
    has_ip1 = rng.random(n) >= 0.20          # ~20% of turns carry no IP
    has_ip2 = has_ip1 & (rng.random(n) < 0.30)
    has_host = rng.random(n) < 0.25
    ip_pool = pa.array(IP_POOL.tolist())
    ip1 = ip_pool.take(pa.array(rng.choice(len(IP_POOL), size=n, p=IP_P)))
    ip2 = ip_pool.take(pa.array(rng.choice(len(IP_POOL), size=n, p=IP_P)))
    host = pa.array(HOST_POOL.tolist()).take(
        pa.array(rng.choice(len(HOST_POOL), size=n, p=HOST_P))
    )
    lead = pa.array(LEADS.tolist()).take(pa.array(rng.integers(0, len(LEADS), size=n)))
    tail = pa.array(TAILS.tolist()).take(pa.array(rng.integers(0, len(TAILS), size=n)))

    empty = pa.scalar("")
    seg_ip1 = pc.if_else(
        pa.array(has_ip1), pc.binary_join_element_wise(pa.scalar(" src="), ip1, ""), empty
    )
    seg_ip2 = pc.if_else(
        pa.array(has_ip2), pc.binary_join_element_wise(pa.scalar(" dst="), ip2, ""), empty
    )
    seg_host = pc.if_else(
        pa.array(has_host), pc.binary_join_element_wise(pa.scalar(" via "), host, ""), empty
    )
    text = pc.binary_join_element_wise(
        lead, seg_ip1, seg_host, seg_ip2, pa.scalar(" :: "), tail, ""
    )

    return pa.table(
        {
            "conv_id": conv_id,
            "turn_idx": pa.array(turn_idx.astype(np.int32), type=pa.int32()),
            "role": role,
            "text": text,
            "tool": tool,
            "ts": pa.array(ts, type=pa.timestamp("us")),
        }
    )


def ensure_transcripts(sf: float, row_group_size: int = 16384) -> str:
    """Idempotent: write the part-file directory once (atomic via tmp dir +
    rename); returns the directory path."""
    import pyarrow.parquet as pq

    path = transcripts_path(sf)
    if os.path.exists(os.path.join(path, "_SUCCESS")):
        return path
    table = build_transcripts_table(sf)
    tmp = path + f".tmp{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    n = table.num_rows
    per_file = _rows_per_file(n)
    for i, start in enumerate(range(0, n, per_file)):
        part = table.slice(start, per_file)
        pq.write_table(
            part, os.path.join(tmp, f"part-{i:05d}.parquet"),
            row_group_size=row_group_size,
        )
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("ok")
    if os.path.exists(path):  # racing writer finished first
        import shutil

        shutil.rmtree(tmp)
        return path
    os.replace(tmp, path)
    return path


def transcript_files(sf: float) -> list[str]:
    path = ensure_transcripts(sf)
    return sorted(
        os.path.join(path, f)
        for f in os.listdir(path)
        if f.endswith(".parquet")
    )


def ensure_geo_fixture() -> str:
    from ..state.fixture import write_geo_fixture_parquet

    path = geo_fixture_path()
    if os.path.exists(path):
        return path
    return write_geo_fixture_parquet(path)


def mmdb_fixture_path() -> str:
    return os.path.join(DATA_ROOT, "geo_fixture.mmdb")


def ensure_mmdb_fixture() -> str:
    """Deterministic .mmdb fixture (same geo truth as the parquet/dict
    fixture) for the MaxMind binary-trie backend path."""
    from ..state.fixture import fixture_geo_docs
    from ..state.mmdb import write_mmdb

    path = mmdb_fixture_path()
    if os.path.exists(path):
        return path
    os.makedirs(DATA_ROOT, exist_ok=True)
    return write_mmdb(fixture_geo_docs(), path)


def ensure_for_sf_dir(sf_dir: str) -> str:
    """Transcripts parquet for a driver sf dir (e.g. /root/testdata/sf0.01)."""
    ensure_geo_fixture()
    return ensure_transcripts(sf_from_dir(sf_dir))


def _ray_read_parallelism(ds, cpus: int) -> int:
    """The read parallelism ``P`` Ray picks itself for the lazy parquet
    read ``ds`` on ``cpus`` CPUs, from public ``DataContext`` fields and
    ``ds.size_bytes()`` (the rule of Ray 2.49's ``_autodetect_parallelism``):
    ``max(min(read_op_min_num_blocks, mem / target_min_block_size),
    mem / target_max_block_size, 2 * cpus)``."""
    from ray.data import DataContext

    ctx, mem = DataContext.get_current(), ds.size_bytes()
    fewest, most = 1, ctx.read_op_min_num_blocks
    if mem is not None and ctx.target_max_block_size is not None:
        fewest = max(1, int(mem / ctx.target_max_block_size))
        most = min(most, max(1, int(mem / ctx.target_min_block_size)))
    return max(most, fewest, 2 * cpus)


def read_input(paths, **read_kwargs):
    """The package's one read of transcript parquet into Ray (lazy): one
    read task per input file, unsplit, whenever Ray would split the files.

    With ``n`` input files and Ray's own read parallelism ``P``
    (:func:`_ray_read_parallelism`), Ray reads ``min(n, P)`` tasks and,
    when ``n < P``, splits each task's output to reach ``P`` blocks.  A
    read with a split does not fuse with the map stages after it, so
    parse -> enrich -> fan-out would run as a second operator of ``P``
    tasks fed through the object store.  Here ``n < P`` reads
    ``override_num_blocks = n`` instead; ``n >= P`` is Ray's plan as is.
    So the read never runs more tasks than Ray's would.

    This holds for any ``n``, also for fewer files than CPUs: at 2 and 4
    Ray CPUs on a 4-vCPU host, with even, uneven and single-file inputs
    of up to 2M turns, one task per file took no more wall time than
    Ray's split and 33-56% less CPU time (ROADMAP direction 1).

    The parquet datasource is built once per call: constructing one lists
    the fragments and runs Ray's encoding-ratio sample tasks.  ``n`` and
    ``P`` come from that first read (``input_files()`` and ``size_bytes()``
    of a lazy read do not execute it), and ``n < P`` re-plans the same
    datasource with ``override_num_blocks = n``.  An explicit
    ``override_num_blocks`` in ``read_kwargs`` wins."""
    import ray.data as rd

    from ..stages.exchange import cluster_cpus

    ds = rd.read_parquet(paths, **read_kwargs)
    if "override_num_blocks" in read_kwargs:
        return ds
    n = len(ds.input_files())
    if not 0 < n < _ray_read_parallelism(ds, cluster_cpus()):
        return ds
    # Ray 2.49 has no public way to re-plan a lazy read, so take the Read
    # operator (``Dataset._logical_plan.dag``, the plan's only operator)
    # and hand its datasource, remote args and concurrency back to the
    # public ``read_datasource``: the same read as ``read_parquet`` would
    # build with ``override_num_blocks = n``, without a second datasource.
    read = ds._logical_plan.dag
    return rd.read_datasource(read._datasource, override_num_blocks=n,
                              ray_remote_args=dict(read._ray_remote_args),
                              concurrency=read._concurrency)
