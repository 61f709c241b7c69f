"""The three workloads: one timed pass each, its output check, and the
untimed companions of the traced run (identity-UDF pass, in-process pass).

* ``flagship``: ``run_flagship`` with the canonical spec, the dict backend
  and the two canonical parquet routes.
* ``lookup_cold``: the same pipeline over a MaxMind ``.mmdb`` backend whose
  per-worker lookup caches are cold at the start of every pass.
* ``geo_hop``: parse, a one-field enrich (``country_code``) and
  ``lag_lead_by`` over ``conv_id``; the output is, per conversation, the
  number of turns whose country differs from the previous turn's.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ROUTES = ("enriched", "raw")
GEO_HOP_COLS = ["conv_id", "turn_idx", "ts", "text", "country_code"]
GEO_HOP_BUCKETS = 32


def _first_diff(got: dict, want: dict):
    for k in sorted(set(got) | set(want), key=str):
        if got.get(k) != want.get(k):
            return k, got.get(k), want.get(k)
    return None


def _identity(t: pa.Table) -> pa.Table:
    return t


def _no_stats(t: pa.Table) -> pa.Table:
    from fluent_plugin_geoip_ray.pipelines.flagship import FanoutWrite

    return FanoutWrite.STATS_SCHEMA.empty_table()


def changes_per_conv(t: pa.Table) -> pa.Table:
    """Per conversation: turns with a previous turn whose ``country_code``
    IS DISTINCT FROM that turn's."""
    cc, prev = t.column("country_code"), t.column("prev_cc")
    differs = pc.or_(
        pc.fill_null(pc.not_equal(cc, prev), False),
        pc.xor(pc.is_null(cc), pc.is_null(prev)),
    )
    changed = pc.and_(pc.is_valid(t.column("prev_turn")), differs)
    g = t.filter(changed).group_by("conv_id").aggregate([([], "count_all")])
    return pa.table({"conv_id": g.column("conv_id").cast(pa.string()),
                     "n": g.column("count_all").cast(pa.int64())})


def _evict_stage_cache():
    """Drop the enrich stages a worker caches across Dataset executions."""
    from fluent_plugin_geoip_ray.stages import enrich

    cache = getattr(enrich, "_WORKER_STAGE_CACHE", {})
    n = len(cache)
    cache.clear()
    return os.getpid(), n


class Workload:
    """Inputs (see ``inputs.ensure_inputs``) and a scratch directory."""

    name = ""

    def __init__(self, inputs: dict, work_dir: str):
        self.inputs = inputs
        self.work = work_dir
        self.rows = inputs["rows"]

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Fanout(Workload):
    """``flagship``: run_flagship, dict backend, canonical routes."""

    name = "flagship"

    def __init__(self, inputs: dict, work_dir: str):
        super().__init__(inputs, work_dir)
        self.out = os.path.join(work_dir, "out")

    def backend_spec(self, tag: str):
        return None

    def _run(self, input_path: str, out: str, tag: str):
        from fluent_plugin_geoip_ray.pipelines.flagship import run_flagship

        return run_flagship(input_path, out_dir=out, backend_spec=self.backend_spec(tag))

    def warmup(self) -> None:
        out = os.path.join(self.work, "warmup")
        shutil.rmtree(out, ignore_errors=True)
        self._run(self.inputs["files"][0], out, "warmup")
        shutil.rmtree(out, ignore_errors=True)

    def before_pass(self, i: int) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run_pass(self, i: int):
        return self._run(self.inputs["dir"], self.out, f"pass-{i}")

    def check(self, stats: pa.Table) -> str | None:
        want = self.inputs["oracle"]
        got_rows, got_cc = {}, {r: {} for r in ROUTES}
        for route, kind, key, n in zip(*(stats.column(c).to_pylist()
                                         for c in ("route", "kind", "key", "n"))):
            if kind == "rows":
                got_rows[route] = n
            elif kind == "country_code":
                got_cc[route]["null" if key is None else key] = n
        d = _first_diff(got_rows, want["rows"])
        if d:
            return f"route rows differ at {d[0]!r}: engine={d[1]} oracle={d[2]}"
        for route in ROUTES:
            d = _first_diff(got_cc[route], want["country_code"][route])
            if d:
                return (f"{route} country_code counts differ at {d[0]!r}: "
                        f"engine={d[1]} oracle={d[2]}")
        for route in ROUTES:
            n = sum(pq.read_metadata(os.path.join(dp, f)).num_rows
                    for dp, _, fs in os.walk(os.path.join(self.out, route))
                    for f in fs if f.endswith(".parquet"))
            if n != want["rows"][route]:
                return f"{route} sink files hold {n} rows, route count {want['rows'][route]}"
        return None

    def sink_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(dp, f))
                   for dp, _, fs in os.walk(self.out) for f in fs)

    def noop_pass(self) -> None:
        """Same plan and blocks as ``run_pass`` with identity UDFs: read,
        two maps (parse, enrich), the fan-out map, materialize, fetch."""
        import ray
        import ray.data as rd

        kw = dict(batch_format="pyarrow", zero_copy_batch=True)
        ds = rd.read_parquet(self.inputs["dir"])
        ds = ds.map_batches(_identity, **kw).map_batches(_identity, **kw)
        ds = ds.map_batches(_no_stats, **kw).materialize()
        ray.get(ds.to_arrow_refs())

    def _stage(self, tag: str):
        from fluent_plugin_geoip_ray.config import compile_record_spec
        from fluent_plugin_geoip_ray.pipelines.flagship import canonical_record_spec
        from fluent_plugin_geoip_ray.stages.enrich import GeoEnrich

        return GeoEnrich(compile_record_spec(canonical_record_spec()),
                         backend_spec=self.backend_spec(tag))

    def inproc_pass(self) -> dict:
        """The same UDF chain, file by file, in this process without Ray."""
        from fluent_plugin_geoip_ray import fsio
        from fluent_plugin_geoip_ray.pipelines.flagship import FanoutWrite, canonical_routes
        from fluent_plugin_geoip_ray.stages.parse import parse_transcripts

        out = os.path.join(self.work, "inproc")
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        stage = self._stage("inproc")
        fw = FanoutWrite(canonical_routes(out), agg_dir=fsio.join(out, "agg_partials"))
        read_s, parts = 0.0, []
        for f in self.inputs["files"]:
            r0 = time.perf_counter()
            t = pq.read_table(f)
            read_s += time.perf_counter() - r0
            parts.append(fw(stage(parse_transcripts(t, fields=("ip",)))))
        pa.concat_tables(parts).group_by(["route", "kind", "key"]).aggregate([("n", "sum")])
        wall = time.perf_counter() - t0
        shutil.rmtree(out, ignore_errors=True)
        return {"wall_s": wall, "read_s": read_s}


class LookupCold(Fanout):
    """``lookup_cold``: Fanout over the .mmdb backend, cold caches per pass.

    Each pass opens the database under its own hard-linked path, so the
    per-worker stage cache (keyed by the backend spec) never serves a pass
    from an earlier one; the stages of earlier passes are dropped first so
    their caches do not pile up in worker memory."""

    name = "lookup_cold"

    def backend_spec(self, tag: str):
        return {"library": "maxmind", "path": os.path.join(self.work, "cold", f"{tag}.mmdb")}

    def _link(self, tag: str) -> None:
        cold = os.path.join(self.work, "cold")
        shutil.rmtree(cold, ignore_errors=True)
        os.makedirs(cold)
        os.link(self.inputs["mmdb"], self.backend_spec(tag)["path"])

    def warmup(self) -> None:
        self._link("warmup")
        super().warmup()

    def before_pass(self, i: int) -> None:
        import ray

        super().before_pass(i)
        self._link(f"pass-{i}")
        evict = ray.remote(num_cpus=1)(_evict_stage_cache)
        ray.get([evict.remote() for _ in range(2 * int(ray.cluster_resources().get("CPU", 1)))])

    def inproc_pass(self) -> dict:
        self._link("inproc")
        return super().inproc_pass()


class GeoHop(Workload):
    """``geo_hop``: parse -> one-field enrich -> lag over conv_id."""

    name = "geo_hop"

    @staticmethod
    def spec():
        from fluent_plugin_geoip_ray.config import RecordSpec

        return RecordSpec(lookup_keys=["ip"],
                          record={"country_code": "${country.iso_code['ip']}"},
                          skip_adding_null_record=False)

    def _run(self, input_path):
        import ray
        import ray.data as rd

        from fluent_plugin_geoip_ray.pipelines.flagship import build_enriched
        from fluent_plugin_geoip_ray.stages.window import lag_lead_by

        enr = build_enriched(rd.read_parquet(input_path), record_spec=self.spec())
        lagged = lag_lead_by(enr.select_columns(GEO_HOP_COLS), key="conv_id",
                             order_by=["turn_idx"],
                             cols={"country_code": ("lag", "prev_cc"),
                                   "turn_idx": ("lag", "prev_turn")},
                             num_buckets=GEO_HOP_BUCKETS)
        per_conv = lagged.map_batches(changes_per_conv, batch_format="pyarrow",
                                      zero_copy_batch=True)
        return pa.concat_tables(ray.get(per_conv.to_arrow_refs()))

    def warmup(self) -> None:
        self._run(self.inputs["files"][0])

    def before_pass(self, i: int) -> None:
        pass

    def run_pass(self, i: int):
        return self._run(self.inputs["dir"])

    def check(self, out: pa.Table) -> str | None:
        got = dict(zip(out.column("conv_id").to_pylist(), out.column("n").to_pylist()))
        if len(got) != out.num_rows:
            return "a conversation was counted in two buckets"
        d = _first_diff(got, self.inputs["oracle"]["changes"])
        if d:
            return f"country changes differ at conv_id {d[0]!r}: engine={d[1]} oracle={d[2]}"
        return None

    def sink_bytes(self) -> int:
        return 0

    def noop_pass(self) -> None:
        """Read, the three maps (parse, enrich, projection+bucket) as
        identities, materialize and fetch: the Ray cost of the plan up to
        the exchange."""
        import ray
        import ray.data as rd

        kw = dict(batch_format="pyarrow", zero_copy_batch=True)
        ds = rd.read_parquet(self.inputs["dir"])
        for _ in range(3):
            ds = ds.map_batches(_identity, **kw)
        ray.get(ds.materialize().to_arrow_refs())

    def inproc_pass(self) -> dict:
        """Same UDFs in this process: the lag's per-bucket function is taken
        from ``lag_lead_by`` by intercepting its ``hash_exchange`` call."""
        import numpy as np
        import ray.data as rd

        from fluent_plugin_geoip_ray.config import compile_record_spec
        from fluent_plugin_geoip_ray.stages import exchange
        from fluent_plugin_geoip_ray.stages.enrich import GeoEnrich
        from fluent_plugin_geoip_ray.stages.parse import parse_transcripts
        from fluent_plugin_geoip_ray.stages.window import lag_lead_by

        captured = {}
        real = exchange.hash_exchange
        exchange.hash_exchange = lambda ds, nb, fn, *a, **kw: captured.setdefault("fn", fn)
        try:
            lag_lead_by(rd.from_items([{"conv_id": "", "turn_idx": 0}]), key="conv_id",
                        order_by=["turn_idx"],
                        cols={"country_code": ("lag", "prev_cc"),
                              "turn_idx": ("lag", "prev_turn")},
                        num_buckets=GEO_HOP_BUCKETS)
        finally:
            exchange.hash_exchange = real
        shift = captured["fn"]

        t0 = time.perf_counter()
        stage = GeoEnrich(compile_record_spec(self.spec()))
        read_s, parts = 0.0, []
        for f in self.inputs["files"]:
            r0 = time.perf_counter()
            t = pq.read_table(f)
            read_s += time.perf_counter() - r0
            t = stage(parse_transcripts(t, fields=("ip",))).select(GEO_HOP_COLS)
            parts.append(t.append_column("__bucket", pa.array(
                exchange.stable_bucket_ids(t, ["conv_id"], GEO_HOP_BUCKETS))))
        allt = pa.concat_tables(parts)
        b = allt.column("__bucket").to_numpy()
        order = np.argsort(b, kind="stable")
        bounds = np.searchsorted(b[order], np.arange(GEO_HOP_BUCKETS + 1))
        body = allt.drop_columns(["__bucket"]).take(pa.array(order))
        for i in range(GEO_HOP_BUCKETS):
            if bounds[i + 1] > bounds[i]:
                changes_per_conv(shift(body.slice(bounds[i], bounds[i + 1] - bounds[i])))
        return {"wall_s": time.perf_counter() - t0, "read_s": read_s}


WORKLOADS = {w.name: w for w in (Fanout, LookupCold, GeoHop)}
