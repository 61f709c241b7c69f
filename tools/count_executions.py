"""Count the Ray Data executions each ``__ray_entry__`` query runs.

Runs the queries the way ``tools/check_correctness.py`` does (8 Ray CPUs,
no oracle), with ``StreamingExecutor.execute`` wrapped in-process, and
prints one line per query and the totals by kind:

* ``Limit[1]``: a ``limit=1`` re-run, as ``Dataset.schema()`` makes on a
  lazy chain; split by whether the nearest caller outside Ray is package
  code or ``__ray_entry__.py``;
* ``Input``: a bare input execution, i.e. iterating a dataset built from
  block refs (``from_arrow_refs``, ``from_arrow``);
* ``other``: every other plan.

Usage: python tools/count_executions.py sf_dir [query ...]
"""

from __future__ import annotations

import collections
import os
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

PACKAGE = os.sep + "fluent_plugin_geoip_ray" + os.sep


def _kind(dag) -> str:
    name = type(dag).__name__
    if name == "LimitOperator" and getattr(dag, "_limit", None) == 1:
        caller = next((f.filename for f in reversed(traceback.extract_stack())
                       if os.sep + "ray" + os.sep not in f.filename
                       and "threading" not in f.filename
                       and "concurrent" not in f.filename
                       and not f.filename.endswith("count_executions.py")), "")
        return "Limit[1] package" if PACKAGE in caller else "Limit[1] entry"
    return "Input" if name == "InputDataBuffer" else "other"


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__.strip().splitlines()[-1])
        return 2
    sf_dir, only = sys.argv[1], set(sys.argv[2:])
    import ray
    from ray.data import DataContext
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    seen = collections.Counter()
    real = StreamingExecutor.execute

    def execute(self, dag, *a, **kw):
        seen[_kind(dag)] += 1
        return real(self, dag, *a, **kw)

    StreamingExecutor.execute = execute
    import __ray_entry__ as entrymod

    from tools.check_correctness import to_pandas

    totals = collections.Counter()
    for name, fn in entrymod.queries().items():
        if only and name not in only:
            continue
        seen.clear()
        to_pandas(fn(sf_dir))
        totals.update(seen)
        totals["queries"] += 1
        print(f"{name}: {sum(seen.values())} " + " ".join(
            f"{k}={v}" for k, v in sorted(seen.items())))
    ray.shutdown()
    runs = sum(v for k, v in totals.items() if k != "queries")
    print(f"{totals['queries']} queries, {runs} executions: " + ", ".join(
        f"{k} {totals[k]}" for k in ("Limit[1] package", "Limit[1] entry",
                                     "Input", "other")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
