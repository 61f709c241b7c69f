"""Span recording for the traced run (``--trace 1``).

The package carries no tracing of its own.  This module wraps the package's
public functions at run time, from the benchmark's side:

* in every Ray worker, through ``install_worker`` (a Ray
  ``worker_process_setup_hook``): parse, enrich (backend open, lookup,
  templates), route, fan-out, sink write and exchange bucketing, plus
  every WARNING log record;
* in the main process, through ``install_main``: ``run_fanout`` (the
  final merge), ``Dataset.materialize`` and ``hash_exchange``, whose reduce
  function is wrapped on the way into the workers, plus every WARNING log
  record.

A target the package no longer has is an error, not a skip: its time would
otherwise move into its parent's layer without notice.

A span is ``(id, parent, name, start_ns, end_ns, counts)``.  Clocks are
``perf_counter_ns`` (CLOCK_MONOTONIC, shared by all processes of the host).
Spans stay in memory; a worker hands its spans to the collector actor each
time its outermost span ends, and the main process drains the collector once the
run is over.  ``ledger`` turns spans into per-layer self times.
"""

from __future__ import annotations

import functools
import importlib
import logging
import os
import time

import numpy as np

COLLECTOR = "perfbench_trace"
NAMESPACE = "perfbench"


class Recorder:
    """Spans of one process.  ``sink`` is called with the finished spans
    whenever the outermost span ends (workers); None keeps them (main process)."""

    def __init__(self, sink=None):
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.seq = 0
        self.sink = sink

    def call(self, name, fn, args, kwargs, counts):
        sid = f"{self.pid}:{self.seq}"
        self.seq += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        t0 = time.perf_counter_ns()
        ok = False
        out = None
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            c = counts(args, out) if ok and counts is not None else None
            self.spans.append((sid, parent, name, t0, t1, c))
            self._flush()

    def event(self, name):
        """A zero-length span under the current one (a log record)."""
        t = time.perf_counter_ns()
        sid = f"{self.pid}:{self.seq}"
        self.seq += 1
        self.spans.append((sid, self.stack[-1] if self.stack else None, name, t, t, None))
        self._flush()

    def _flush(self):
        if not self.stack and self.sink is not None:
            self.sink(self.spans)
            self.spans = []


_RECORDER: Recorder | None = None


def traced(name, fn, counts=None):
    """``fn`` recording a span named ``name`` (``counts(args, result)``
    gives the counts at the same boundary)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _RECORDER
        if rec is None:
            return fn(*args, **kwargs)
        return rec.call(name, fn, args, kwargs, counts)

    wrapper.perfbench_traced = True
    return wrapper


def _resolve(module: str, attr: str) -> tuple:
    """(owner, name, function) of ``module.attr`` (``Class.method``
    allowed); raises if the package no longer has it."""
    try:
        obj = importlib.import_module(module)
        *owners, last = attr.split(".")
        for o in owners:
            obj = getattr(obj, o)
        return obj, last, getattr(obj, last)
    except (ImportError, AttributeError) as e:
        raise RuntimeError(f"trace target {module}.{attr} is missing: {e}") from e


def _patch(module: str, attr: str, name: str, counts=None) -> None:
    """Replace ``module.attr`` by its traced form."""
    owner, last, fn = _resolve(module, attr)
    if not getattr(fn, "perfbench_traced", False):
        setattr(owner, last, traced(name, fn, counts))


class _WarningEvents(logging.Handler):
    """Records every WARNING+ log record as a ``log.warning`` event."""

    def __init__(self):
        super().__init__(level=logging.WARNING)

    def emit(self, record):
        if _RECORDER is not None:
            _RECORDER.event("log.warning")


def _count_warnings() -> None:
    """Attach one ``_WarningEvents`` to the root logger and to every logger
    that does not propagate."""
    if any(isinstance(h, _WarningEvents) for h in logging.getLogger().handlers):
        return
    handler = _WarningEvents()
    logging.getLogger().addHandler(handler)
    for logger in list(logging.root.manager.loggerDict.values()):
        if isinstance(logger, logging.Logger) and not logger.propagate:
            logger.addHandler(handler)


# -- counts at the boundaries --------------------------------------------------

def _rows(i):
    return lambda args, out: {"rows": args[i].num_rows}


def _keyed_rows(args, out):
    batch, key = args[1], args[2]
    col = batch.column(key) if key in batch.column_names else None
    keyed = 0 if col is None else len(col) - col.null_count
    return {"rows": batch.num_rows, "keyed": keyed}


def _sink_bytes(args, out):
    from fluent_plugin_geoip_ray import fsio

    fs, table, path = args
    return {"rows": table.num_rows, "files": 1, "bytes": fsio.file_size(fs, path)}


def _backend_lookup(fn):
    """Backend ``lookup`` spans count misses too (a None result)."""

    @functools.wraps(fn)
    def wrapper(self, address):
        rec = _RECORDER
        if rec is None:
            return fn(self, address)
        t0 = time.perf_counter_ns()
        out = fn(self, address)
        t1 = time.perf_counter_ns()
        sid = f"{rec.pid}:{rec.seq}"
        rec.seq += 1
        rec.spans.append((sid, rec.stack[-1] if rec.stack else None,
                          "lookup.backend", t0, t1, {"miss": int(out is None)}))
        return out

    wrapper.perfbench_traced = True
    return wrapper


MAIN_TARGETS = [
    ("fluent_plugin_geoip_ray.pipelines.flagship", "run_fanout"),
    ("fluent_plugin_geoip_ray.stages.exchange", "hash_exchange"),
]

WORKER_TARGETS = [
    ("fluent_plugin_geoip_ray.stages.parse", "parse_transcripts", "parse", _rows(0)),
    ("fluent_plugin_geoip_ray.stages.enrich", "GeoEnrich.__init__", "enrich.open", None),
    ("fluent_plugin_geoip_ray.stages.enrich", "GeoEnrich.__call__", "enrich", _rows(1)),
    ("fluent_plugin_geoip_ray.stages.enrich", "GeoEnrich._lookup_column", "lookup", _keyed_rows),
    ("fluent_plugin_geoip_ray.stages.enrich", "evaluate_plan", "templates", None),
    ("fluent_plugin_geoip_ray.stages.route", "RouteSpec.apply", "route", _rows(1)),
    ("fluent_plugin_geoip_ray.pipelines.flagship", "FanoutWrite.__call__", "fanout", _rows(1)),
    ("fluent_plugin_geoip_ray.fsio", "write_parquet_atomic", "sink.write", _sink_bytes),
    ("fluent_plugin_geoip_ray.stages.exchange", "stable_bucket_ids", "exchange.bucket", _rows(0)),
]


class _ActorSink:
    """Worker-side sink: ships finished spans to the collector actor."""

    def __init__(self):
        self.handle = None

    def __call__(self, spans):
        import ray

        if self.handle is None:
            self.handle = ray.get_actor(COLLECTOR, namespace=NAMESPACE)
        self.handle.add.remote(spans)


BACKENDS = ("DictBackend", "MaxmindBackend")


def check_targets() -> None:
    """Resolve every trace target in this process, so a missing one fails
    the run before any worker starts."""
    for module, attr, *_ in WORKER_TARGETS + MAIN_TARGETS:
        _resolve(module, attr)
    for cls in BACKENDS:
        _resolve("fluent_plugin_geoip_ray.state.backends", f"{cls}.lookup")


def install_worker():
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    global _RECORDER
    for module, attr, name, counts in WORKER_TARGETS:
        _patch(module, attr, name, counts)
    for cls in BACKENDS:
        owner, _, fn = _resolve("fluent_plugin_geoip_ray.state.backends", f"{cls}.lookup")
        if not getattr(fn, "perfbench_traced", False):
            owner.lookup = _backend_lookup(fn)
    _RECORDER = Recorder(sink=_ActorSink())
    _count_warnings()


class TracedReduce:
    """A ``hash_exchange`` reduce function with a span and its bucket's
    row and byte counts."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, table):
        rec = _RECORDER
        if rec is None:
            return self.fn(table)
        return rec.call("exchange.reduce_fn", self.fn, (table,), {},
                        lambda a, out: {"rows": a[0].num_rows, "bytes": a[0].nbytes})


def install_main(materialized: list) -> Recorder:
    """Trace the layers that run in the main process; ``materialized`` collects every
    Dataset returned by ``materialize`` or passed to ``hash_exchange`` (for
    ``Dataset.stats()``)."""
    global _RECORDER
    import ray.data

    _RECORDER = Recorder()
    _count_warnings()
    flagship, _, run_fanout = _resolve(*MAIN_TARGETS[0])
    exchange, _, hx = _resolve(*MAIN_TARGETS[1])
    if not getattr(run_fanout, "perfbench_traced", False):
        flagship.run_fanout = traced("merge", run_fanout)
    mat = ray.data.Dataset.materialize
    if not getattr(mat, "perfbench_traced", False):
        def materialize(self, *a, **kw):
            out = mat(self, *a, **kw)
            materialized.append(out)
            return out
        ray.data.Dataset.materialize = traced("ray.materialize", functools.wraps(mat)(materialize))
    if not getattr(hx, "perfbench_traced", False):
        def hash_exchange(ds, num_buckets, reduce_fn, *a, **kw):
            materialized.append(ds)
            return hx(ds, num_buckets, TracedReduce(reduce_fn), *a, **kw)
        exchange.hash_exchange = traced("exchange", functools.wraps(hx)(hash_exchange))
    return _RECORDER


def uninstall_main() -> None:
    global _RECORDER
    import ray.data

    from fluent_plugin_geoip_ray.pipelines import flagship
    from fluent_plugin_geoip_ray.stages import exchange

    for owner, attr in ((flagship, "run_fanout"), (exchange, "hash_exchange"),
                        (ray.data.Dataset, "materialize")):
        fn = getattr(owner, attr)
        while getattr(fn, "perfbench_traced", False):
            fn = fn.__wrapped__
        setattr(owner, attr, fn)
    _RECORDER = None


def make_collector():
    import ray

    @ray.remote(num_cpus=0)
    class Collector:
        def __init__(self):
            self.spans = []

        def add(self, spans):
            self.spans.extend(spans)

        def drain(self):
            out, self.spans = self.spans, []
            return out

    return Collector.options(name=COLLECTOR, namespace=NAMESPACE).remote()


# -- the ledger --------------------------------------------------------------------

WORKER_LAYERS = ("parse", "lookup", "templates", "enrich.other", "enrich.open",
                 "route", "sink.write", "fanout.partials", "exchange.bucket",
                 "exchange.reduce_fn")


def _union_ns(intervals) -> int:
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def ledger(spans: list, windows: list) -> dict:
    """Per-layer totals over the traced passes.

    ``windows`` are the ``(start_ns, end_ns)`` of the traced passes; a span
    belongs to the pass whose window holds its start.  Returns
    ``{"self_ns": {layer: ns}, "counts": {...}, "exchange_wall_ns",
    "exchange_uncovered_ns", "exchange_skew"}`` summed over the passes.
    """
    starts = np.asarray([w[0] for w in windows], dtype=np.int64)
    ends = np.asarray([w[1] for w in windows], dtype=np.int64)

    def in_pass(t0):
        i = int(np.searchsorted(starts, t0, side="right")) - 1
        return i >= 0 and t0 <= ends[i]

    spans = [s for s in spans if in_pass(s[3])]
    child_ns: dict = {}
    for sid, parent, name, t0, t1, c in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    layer_of = {"enrich": "enrich.other", "fanout": "fanout.partials"}
    whole = {"lookup", "templates"}     # reported with their children
    self_ns = dict.fromkeys(WORKER_LAYERS + ("merge",), 0)
    counts = {"lookup.keyed": 0, "lookup.calls": 0,
              "lookup.miss": 0, "lookup.backend_ns": 0, "enrich.open": 0,
              "sink.files": 0, "sink.bytes": 0, "exchange.bytes": 0, "log.warnings": 0}
    bucket_rows: list = []
    worker_iv, exchange_iv = [], []
    for sid, parent, name, t0, t1, c in spans:
        dur = t1 - t0
        c = c or {}
        if name == "lookup.backend":
            counts["lookup.calls"] += 1
            counts["lookup.miss"] += c.get("miss", 0)
            counts["lookup.backend_ns"] += dur
            continue
        if name == "exchange":
            exchange_iv.append((t0, t1))
            continue
        if name == "log.warning":
            counts["log.warnings"] += 1
            continue
        if name == "ray.materialize":
            continue
        layer = layer_of.get(name, name)
        self_ns[layer] = self_ns.get(layer, 0) + (
            dur if name in whole else dur - child_ns.get(sid, 0))
        if name == "lookup":
            counts["lookup.keyed"] += c.get("keyed", 0)
        elif name == "enrich.open":
            counts["enrich.open"] += 1
        elif name == "sink.write":
            counts["sink.files"] += c.get("files", 0)
            counts["sink.bytes"] += c.get("bytes", 0)
        elif name == "exchange.reduce_fn":
            counts["exchange.bytes"] += c.get("bytes", 0)
            bucket_rows.append(c.get("rows", 0))
        if parent is None and name != "merge":
            worker_iv.append((t0, t1))
    ex_wall = sum(e - s for s, e in exchange_iv)
    ex_cov = _union_ns([(max(s, a), min(e, b)) for s, e in worker_iv
                        for a, b in exchange_iv if s < b and e > a])
    skew = 0.0
    if bucket_rows:
        med = float(np.median(bucket_rows))
        skew = max(bucket_rows) / med if med else float(max(bucket_rows))
    return {
        "self_ns": self_ns,
        "counts": counts,
        "exchange_wall_ns": ex_wall,
        "exchange_uncovered_ns": ex_wall - ex_cov,
        "exchange_skew": skew,
    }
