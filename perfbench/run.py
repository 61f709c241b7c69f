"""perfbench: the repository's benchmark.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 12 --trace 0

Runs one seeded workload (``flagship``, ``lookup_cold`` or ``geo_hop``, see
``workloads.py``) on a local Ray cluster with ``num_cpus = 1``.  Load is a
closed loop: one main process runs one pass at a time until ``--seconds`` of
timed passes have run.  Every pass is checked against an oracle outside the
timed region; a pass that raises or fails its check counts as failed.

``--trace 0`` prints the end-to-end metrics.  Their times are CPU seconds
(user + system, from /proc) of the whole process tree: this process, Ray's
daemons and its workers.  On a shared host the wall time of a pass swings
with the time the host gives the CPUs to others; CPU time swings about half
as much from run to run (ten-seed sets on a 4-vCPU VM).

* ``rows_per_cpu_s``: input turns / median CPU seconds of a timed pass;
* ``setup_s``: CPU seconds from process start to ready: the imports plus the
  median of two ``ray.init`` + warm-up cycles, each followed by half of the
  timed passes (input generation excluded);
* ``peak_rss_mb``: highest sum of RssAnon over the main process and the Ray
  workers, sampled from /proc every 25 ms during timed passes.

The wall-time figures (``rows_per_s``, ``setup_wall_s``) are in the
``perfbench-report`` line printed before the result.

``--trace 1`` prints the per-layer ledger instead (see ``tracing.py``): an
untraced session (passes, identity-UDF passes, an in-process pass without
Ray), a traced session, and a second untraced session.  The spans file and the
ledger table land in ``.perfbench/traces/``.

``--smoke`` shrinks every input so a run takes seconds.  The last line of
stdout is the result: ``{"correct", "attempted", "failed", "metrics"}``.
All files the benchmark writes stay under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench")

# input turns per workload (and hosts in the lookup_cold database)
SIZES = {
    "full": {"flagship": 100_000, "lookup_cold": 20_000, "geo_hop": 100_000, "hosts": 50_000},
    "smoke": {"flagship": 6_000, "lookup_cold": 4_000, "geo_hop": 6_000, "hosts": 1_000},
}
SETUP_CYCLES = {"full": 2, "smoke": 1}
OBJECT_STORE_BYTES = 512 << 20
MIB = 1 << 20

END_TO_END = {"rows_per_cpu_s": "turns/cpu-s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "read.ns_per_row": "ns/row",
    "parse.ns_per_row": "ns/row",
    "lookup.ns_per_row": "ns/row",
    "lookup.calls": "count",
    "lookup.us_per_call": "us",
    "lookup.unique_ratio": "ratio",
    "lookup.miss_ratio": "ratio",
    "enrich.opens": "count",
    "templates.ns_per_row": "ns/row",
    "enrich.other.ns_per_row": "ns/row",
    "route.ns_per_row": "ns/row",
    "sink.write.ns_per_row": "ns/row",
    "sink.files": "count",
    "sink.bytes": "B",
    "sink.bytes_per_row": "B/turn",
    "fanout.partials.ns_per_row": "ns/row",
    "merge.driver_s": "s",
    "exchange.bucket.ns_per_row": "ns/row",
    "exchange.s": "s",
    "exchange.machinery_s": "s",
    "exchange.reduce_fn.s": "s",
    "exchange.bytes": "B",
    "exchange.skew": "ratio",
    "ray.noop_pass_s": "s",
    "ray.udf_s": "s",
    "ray.unaccounted_s": "s",
    "inproc_rows_per_s": "turns/s",
    "traced_rows_per_s": "turns/s",
    "untraced_rows_per_s": "turns/s",
    "trace.overhead": "ratio",
    "ledger.accounted_frac": "ratio",
    "setup.ray_init_s": "s",
    "setup.backend_open_s": "s",
    "setup.warmup_s": "s",
    "log.warnings": "count",
}


def _process_age_s() -> float:
    """Seconds since this process started (kernel start time)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def calibrate_ms() -> float:
    """Wall time of a fixed pure-Python loop: a probe of host speed, taken
    between passes, that shows how much the host drifted during a run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


# Ray task slots: one, on any host -- the benchmark measures per-core cost
RAY_CPUS = 1


# -- processes ---------------------------------------------------------------------

def _ppids() -> dict:
    out = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    out[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass
    return out


def _descendants(pid: int) -> list:
    ppids = _ppids()
    found, frontier = [], [pid]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in ppids.items() if pp == p]
        found.extend(kids)
        frontier.extend(kids)
    return found


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _cpu_ticks(path: str) -> int | None:
    """utime + stime of ``/proc/<pid>[/task/<tid>]/stat``, in clock ticks."""
    try:
        with open(path) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])
    except (OSError, IndexError, ValueError):
        return None


def tree_cpu() -> dict:
    """{pid: CPU ticks} over this process and every process it started."""
    out = {}
    for pid in [os.getpid()] + _descendants(os.getpid()):
        t = _cpu_ticks(f"/proc/{pid}/stat")
        if t is not None:
            out[pid] = t
    return out


def cpu_s_since(before: dict) -> float:
    """CPU seconds the process tree spent since ``before = tree_cpu()``;
    a process started since then counts whole, one that ended is lost."""
    after = tree_cpu()
    return sum(t - before.get(pid, 0) for pid, t in after.items()) * TICK_S


def _rss_anon(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class RssSampler(threading.Thread):
    """Peak of sum(RssAnon) over this process and its Ray workers, sampled
    every ``interval`` seconds while ``active`` is set (short enough to
    catch the exchange's transient peak); the worker list is refreshed once
    a second."""

    def __init__(self, interval: float = 0.025):
        super().__init__(daemon=True)
        self.interval = interval
        self.active = threading.Event()
        self.done = threading.Event()
        self.peak = 0
        self.tid = None

    def cpu_ticks(self) -> int:
        """This thread's own CPU, taken out of the pass CPU figures."""
        if self.tid is None:
            return 0
        return _cpu_ticks(f"/proc/self/task/{self.tid}/stat") or 0

    def run(self):
        self.tid = threading.get_native_id()
        pids, listed = [], 0.0
        while not self.done.is_set():
            self.active.wait(0.5)
            if not self.active.is_set():
                continue
            now = time.monotonic()
            if now - listed > 1.0:
                pids = [os.getpid()] + [p for p in _descendants(os.getpid()) if _is_ray_worker(p)]
                listed = now
            self.peak = max(self.peak, sum(_rss_anon(p) for p in pids))
            time.sleep(self.interval)

    def stop(self):
        self.done.set()
        self.active.set()
        self.join(timeout=5)


def _reap() -> None:
    """Collect exited children so they do not linger as zombies."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_children(timeout: float = 20.0) -> None:
    """Wait for every process this one started to end; kill stragglers."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _reap()
        if not _descendants(os.getpid()):
            return
        time.sleep(0.2)
    for p in _descendants(os.getpid()):
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        _reap()
        if not _descendants(os.getpid()):
            return
        time.sleep(0.1)


# -- ray -----------------------------------------------------------------------------

def _ray_temp_dir() -> str | None:
    """Ray's session dir inside the checkout, unless its unix sockets
    (``<dir>/session_<date>_<pid>/sockets/plasma_store``) would pass the
    107-byte limit; then Ray's default is kept."""
    tmp = os.path.join(STATE, "ray")
    if len(tmp) + 64 > 107:
        return None
    os.makedirs(tmp, exist_ok=True)
    return tmp


def init_ray(hook=None) -> None:
    import ray
    from ray.data import DataContext

    kw = dict(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
              logging_level="ERROR", namespace="perfbench",
              object_store_memory=OBJECT_STORE_BYTES)
    tmp = _ray_temp_dir()
    if tmp:
        kw["_temp_dir"] = tmp
    if hook is not None:
        kw["runtime_env"] = {"worker_process_setup_hook": hook}
    ray.init(**kw)
    DataContext.get_current().enable_progress_bars = False


def shutdown_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()
    _stop_children()


def host_block() -> dict:
    import duckdb
    import numpy
    import pyarrow
    import ray

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "ray_cpus": RAY_CPUS,
            "loadavg": os.getloadavg(), "cpu": cpu,
            "python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "duckdb": duckdb.__version__,
            "numpy": numpy.__version__}


# -- phases --------------------------------------------------------------------------

class Passes:
    """Timed passes with their checks; failures are counted, not raised."""

    def __init__(self, wl, sampler: RssSampler):
        self.wl = wl
        self.sampler = sampler
        self.times: list = []
        self.cpu: list = []
        self.windows: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.calib_ms: list = []

    def run(self, seconds: float, min_passes: int = 1) -> None:
        spent, start = 0.0, len(self.times)
        while spent < seconds or len(self.times) - start < min_passes:
            i = self.attempted
            self.attempted += 1
            self.wl.before_pass(i)
            self.calib_ms.append(calibrate_ms())
            cpu0, own0 = tree_cpu(), self.sampler.cpu_ticks()
            self.sampler.active.set()
            t0 = time.perf_counter_ns()
            try:
                out = self.wl.run_pass(i)
            except Exception as e:  # noqa: BLE001 - a failed pass is a result
                out, err = None, f"pass {i} raised {type(e).__name__}: {e}"
            t1 = time.perf_counter_ns()
            self.sampler.active.clear()
            cpu = cpu_s_since(cpu0) - (self.sampler.cpu_ticks() - own0) * TICK_S
            if out is not None:
                err = self.wl.check(out)
            spent += (t1 - t0) / 1e9
            if err:
                self.failed += 1
                self.errors.append(err)
                print(f"perfbench: FAILED {self.wl.name} {err}", file=sys.stderr)
                if self.failed >= 3 and not self.times:
                    return
                continue
            self.times.append((t1 - t0) / 1e9)
            self.cpu.append(cpu)
            self.windows.append((t0, t1))


def _setup_cycle(wl, hook=None) -> tuple:
    """(ray.init wall s, warm-up wall s, CPU s of both over the process tree)"""
    cpu0 = tree_cpu()
    t0 = time.perf_counter()
    init_ray(hook)
    t1 = time.perf_counter()
    wl.warmup()
    return t1 - t0, time.perf_counter() - t1, cpu_s_since(cpu0)


def timed_run(wl, seconds: float, cycles: int, import_s: float, import_cpu_s: float,
              sampler: RssSampler) -> dict:
    # each set-up cycle is followed by its share of the timed passes, so the
    # passes of one run sample the host over a wider window
    setups = []
    passes = Passes(wl, sampler)
    for c in range(cycles):
        if c:
            shutdown_ray()
        setups.append(_setup_cycle(wl))
        passes.run(seconds / cycles)
    if not passes.times:
        raise RuntimeError("every pass failed: " + "; ".join(passes.errors[:3]))
    return {
        "passes": passes,
        "metrics": {
            "rows_per_cpu_s": wl.rows / statistics.median(passes.cpu),
            "setup_s": import_cpu_s + statistics.median(c for _, _, c in setups),
            "peak_rss_mb": sampler.peak / MIB,
        },
        "wall": {
            "rows_per_s": wl.rows / statistics.median(passes.times),
            "setup_wall_s": import_s + statistics.median(a + b for a, b, _ in setups),
        },
        "setup_cycles_s": setups,
    }


def _udf_seconds(datasets: list) -> float:
    """Total UDF time Ray Data reports for the datasets of the last pass."""
    import re

    total = 0.0
    unit = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
    for ds in datasets:
        try:
            text = ds.stats()
        except Exception:  # noqa: BLE001 - stats are best-effort
            continue
        for line in text.splitlines():
            if "UDF time" in line:
                m = re.search(r"([\d.]+)(us|ms|s) total", line)
                if m:
                    total += float(m.group(1)) * unit[m.group(2)]
    return total


def traced_run(wl, seconds: float, sampler: RssSampler, trace_path: str) -> dict:
    import ray

    from perfbench import tracing

    plain = Passes(wl, sampler)
    noop: list = []

    def untraced_phase():
        """A session of untraced passes and identity-UDF passes."""
        cycle = _setup_cycle(wl)
        plain.run(seconds / 6, min_passes=2)
        start = len(noop)
        while sum(noop[start:]) < seconds / 12 or len(noop) - start < 2:
            t0 = time.perf_counter()
            wl.noop_pass()
            noop.append(time.perf_counter() - t0)
        return cycle

    # untraced sessions run before and after the traced one, so host-speed
    # drift during the run biases neither side of the comparison
    cycles = [untraced_phase()]
    inproc = [wl.inproc_pass() for _ in range(2)]
    shutdown_ray()

    # phase B: the same passes with every layer traced, in a fresh session
    materialized: list = []
    tracing.check_targets()
    init_ray(hook=tracing.install_worker)
    collector = tracing.make_collector()
    main = tracing.install_main(materialized)
    try:
        wl.warmup()
        traced = Passes(wl, sampler)
        del materialized[:]
        traced.run(seconds / 3, min_passes=2)
        last = len(materialized) // max(1, traced.attempted)
        udf_s = _udf_seconds(materialized[-last:] if last else [])
        time.sleep(0.5)  # let the last worker span batches reach the collector
        spans = main.spans + ray.get(collector.drain.remote())
    finally:
        tracing.uninstall_main()
        shutdown_ray()
    cycles.append(untraced_phase())
    led = tracing.ledger(spans, traced.windows)
    with open(trace_path, "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")

    rows, n = wl.rows, len(traced.windows)
    sn, cn = led["self_ns"], led["counts"]

    def per_row(layer):
        return sn.get(layer, 0) / (rows * n)

    untraced_pass = statistics.median(plain.times)
    noop_s = statistics.median(noop)
    layers_s = sum(sn.values()) / n / 1e9
    ex_uncovered = led["exchange_uncovered_ns"] / n / 1e9
    opens = [s[4] - s[3] for s in spans if s[2] == "enrich.open"]
    calls = cn["lookup.calls"]
    m = {
        "read.ns_per_row": statistics.median(r["read_s"] for r in inproc) * 1e9 / rows,
        "parse.ns_per_row": per_row("parse"),
        "lookup.ns_per_row": per_row("lookup"),
        "lookup.calls": calls / n,
        "lookup.us_per_call": cn["lookup.backend_ns"] / calls / 1e3 if calls else 0.0,
        "lookup.unique_ratio": calls / cn["lookup.keyed"] if cn["lookup.keyed"] else 0.0,
        "lookup.miss_ratio": cn["lookup.miss"] / calls if calls else 0.0,
        "enrich.opens": cn["enrich.open"] / n,
        "templates.ns_per_row": per_row("templates"),
        "enrich.other.ns_per_row": per_row("enrich.other"),
        "route.ns_per_row": per_row("route"),
        "sink.write.ns_per_row": per_row("sink.write"),
        "sink.files": cn["sink.files"] / n,
        "sink.bytes": cn["sink.bytes"] / n,
        "sink.bytes_per_row": wl.sink_bytes() / rows,
        "fanout.partials.ns_per_row": per_row("fanout.partials"),
        "merge.driver_s": sn.get("merge", 0) / n / 1e9,
        "exchange.bucket.ns_per_row": per_row("exchange.bucket"),
        "exchange.s": led["exchange_wall_ns"] / n / 1e9,
        "exchange.machinery_s": max(0.0, ex_uncovered - noop_s) if led["exchange_wall_ns"] else 0.0,
        "exchange.reduce_fn.s": sn.get("exchange.reduce_fn", 0) / n / 1e9,
        "exchange.bytes": cn["exchange.bytes"] / n,
        "exchange.skew": led["exchange_skew"],
        "ray.noop_pass_s": noop_s,
        "ray.udf_s": udf_s,
        "inproc_rows_per_s": rows / statistics.median(r["wall_s"] for r in inproc),
        "traced_rows_per_s": rows / statistics.median(traced.times),
        "untraced_rows_per_s": rows / untraced_pass,
        "setup.ray_init_s": statistics.median(c[0] for c in cycles),
        "setup.backend_open_s": statistics.median(opens) / 1e9 if opens else 0.0,
        "setup.warmup_s": statistics.median(c[1] for c in cycles),
        "log.warnings": cn["log.warnings"] / n,
    }
    m["trace.overhead"] = m["untraced_rows_per_s"] / m["traced_rows_per_s"] - 1
    # layer self times + the Ray cost of the same plan with identity UDFs
    # (+ the exchange machinery on geo_hop) against the untraced pass
    accounted = layers_s + noop_s + m["exchange.machinery_s"]
    m["ledger.accounted_frac"] = accounted / untraced_pass
    m["ray.unaccounted_s"] = statistics.median(traced.times) - layers_s
    return {"passes_list": (plain, traced), "metrics": m, "untraced_pass_s": untraced_pass}


def ledger_table(name: str, m: dict, rows: int, untraced_pass_s: float) -> str:
    """Per-layer table: ns/row, share of the untraced pass, counts."""
    pass_ns = untraced_pass_s * 1e9 / rows
    lines = [f"ledger {name}: {rows} turns, untraced pass {untraced_pass_s:.3f} s "
             f"= {pass_ns:.0f} ns/row",
             f"  {'layer':<28}{'ns/row':>10}{'share':>8}"]
    layer_rows = [(k.replace(".ns_per_row", ""), v) for k, v in m.items()
                  if k.endswith(".ns_per_row")]
    for k in ("merge.driver_s", "exchange.machinery_s", "exchange.reduce_fn.s", "ray.noop_pass_s"):
        layer_rows.append((k, m[k] * 1e9 / rows))
    for k, v in sorted(layer_rows, key=lambda kv: -kv[1]):
        lines.append(f"  {k:<28}{v:>10.0f}{v / pass_ns:>8.1%}")
    lines.append(f"  accounted (layers + noop pass) / untraced pass = {m['ledger.accounted_frac']:.3f}")
    lines.append(f"  lookup: {m['lookup.calls']:.0f} backend calls/pass, "
                 f"{m['lookup.us_per_call']:.2f} us/call, unique_ratio={m['lookup.unique_ratio']:.4f} "
                 f"(calls / keyed rows), miss_ratio={m['lookup.miss_ratio']:.4f} (misses / calls), "
                 f"{m['enrich.opens']:.1f} backend opens/pass")
    lines.append(f"  sink: {m['sink.files']:.0f} files/pass, {m['sink.bytes']:.0f} B/pass, "
                 f"{m['sink.bytes_per_row']:.1f} B/turn on disk")
    lines.append(f"  exchange: wall {m['exchange.s']:.3f} s "
                 f"({m['exchange.s'] / untraced_pass_s:.1%} of the pass), skew {m['exchange.skew']:.2f} "
                 f"(max / median bucket rows), {m['exchange.bytes']:.0f} B moved/pass")
    lines.append(f"  ray: udf {m['ray.udf_s']:.3f} s (Dataset.stats), noop pass "
                 f"{m['ray.noop_pass_s']:.3f} s, unaccounted {m['ray.unaccounted_s']:.3f} s")
    lines.append(f"  rows/s: untraced {m['untraced_rows_per_s']:.0f}, traced "
                 f"{m['traced_rows_per_s']:.0f} (overhead {m['trace.overhead']:.1%}), "
                 f"in-process {m['inproc_rows_per_s']:.0f}")
    return "\n".join(lines)


# -- main ------------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("flagship", "lookup_cold", "geo_hop"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one setup cycle")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    scale = "smoke" if args.smoke else "full"
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    # the imports a user of the pipeline pays count towards setup_s
    import ray.data  # noqa: F401
    from fluent_plugin_geoip_ray.pipelines import flagship  # noqa: F401
    from fluent_plugin_geoip_ray.stages import window  # noqa: F401
    import_s = _process_age_s()
    import_cpu_s = _cpu_ticks("/proc/self/stat") * TICK_S

    from perfbench.inputs import ensure_inputs
    from perfbench.workloads import WORKLOADS

    sizes = SIZES[scale]
    inputs = ensure_inputs(os.path.join(STATE, "cache"), args.workload, args.seed,
                           sizes[args.workload], sizes["hosts"])
    wl = WORKLOADS[args.workload](inputs, os.path.join(STATE, "work", args.workload))
    wl.cleanup()
    # Ray's session logs of the previous run (this run's stay for debugging)
    shutil.rmtree(os.path.join(STATE, "ray"), ignore_errors=True)
    sampler = RssSampler()
    sampler.start()
    host = host_block()
    try:
        if args.trace:
            os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
            stem = os.path.join(STATE, "traces", f"{args.workload}-s{args.seed}")
            res = traced_run(wl, args.seconds, sampler, stem + ".spans.jsonl")
            passes = list(res["passes_list"])
            table = ledger_table(args.workload, res["metrics"], wl.rows, res["untraced_pass_s"])
            with open(stem + ".ledger.txt", "w") as f:
                f.write(table + "\n")
            print(table)
            units = PER_LAYER
        else:
            res = timed_run(wl, args.seconds, SETUP_CYCLES[scale], import_s, import_cpu_s,
                            sampler)
            passes = [res["passes"]]
            units = END_TO_END
        sink_bytes = wl.sink_bytes()
    finally:
        sampler.stop()
        shutdown_ray()
        wl.cleanup()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    host["loadavg_end"] = os.getloadavg()
    report = {
        "workload": args.workload, "seed": args.seed, "scale": scale,
        "input_turns": wl.rows, "pass_s": [t for p in passes for t in p.times],
        "pass_cpu_s": [t for p in passes for t in p.cpu], **res.get("wall", {}),
        "failed_frac": failed / attempted, "errors": [e for p in passes for e in p.errors],
        "sink_bytes_per_row": sink_bytes / wl.rows, "import_s": import_s,
        "import_cpu_s": import_cpu_s, "setup_cycles_s": res.get("setup_cycles_s"),
        "calib_ms": statistics.median(c for p in passes for c in p.calib_ms),
        "distinct_addresses": inputs["oracle"].get("distinct_addresses"),
        "host": host,
    }
    print("perfbench-report " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
