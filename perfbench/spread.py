"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload lookup_cold --seeds 1-10

Runs ``run.py --trace 0`` for ``run_seconds`` (from ``BENCHMARK.json``) once
per seed, one run at a time, and prints per metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile range
as a share of the median, next to the metric's bound.  Every run's result
line is appended to ``.perfbench/spread.jsonl``; a failed run's stderr goes
to ``.perfbench/spread-<workload>-s<seed>.err``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            err = os.path.join(ROOT, ".perfbench", f"spread-{args.workload}-s{seed}.err")
            with open(err, "w") as f:
                f.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}, stderr in {err}")
            continue
        res = json.loads(lines[-1])
        report = next((json.loads(ln.split(" ", 1)[1]) for ln in lines
                       if ln.startswith("perfbench-report ")), {})
        with open(os.path.join(ROOT, ".perfbench", "spread.jsonl"), "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed, **res,
                                "report": report}) + "\n")
        print(f"seed {seed}: correct={res['correct']} passes={len(report.get('pass_s', []))} "
              f"rows_per_s={report.get('rows_per_s', 0):.4g} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < bounds[k] / 3 else "WIDE"
        print(f"{k:<16} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"iqr/median={spread:.4f} bound={bounds[k]}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
