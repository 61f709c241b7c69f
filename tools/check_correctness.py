"""Local mimic of the driver's correctness gate.

Runs every ``__ray_entry__.queries()`` entry at a given sf_dir and compares
against ``oracle_sql()`` via DuckDB: row count, column names, and
order-insensitive value equality (rows sorted by all columns, exact for
strings/ints, exact-then-isclose report for floats).  Ends with one tally
line derived from ``queries()`` and ``oracle_sql()``:
``N queries, M oracle-backed, K rows-only, F failed``.

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype("string")
    df = df.sort_values(by=list(df.columns), na_position="last").reset_index(drop=True)
    return df


def compare(name: str, ray_df: pd.DataFrame, ora_df: pd.DataFrame) -> list[str]:
    problems = []
    if len(ray_df) != len(ora_df):
        problems.append(f"row count ray={len(ray_df)} oracle={len(ora_df)}")
    rc, oc = sorted(ray_df.columns), sorted(ora_df.columns)
    if rc != oc:
        problems.append(f"columns ray={rc} oracle={oc}")
        return problems
    a, b = canon(ray_df), canon(ora_df)
    if len(a) != len(b):
        return problems
    for c in a.columns:
        av, bv = a[c], b[c]
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            av = av.astype(float)
            bv = bv.astype(float)
            eq = (av.isna() & bv.isna()) | (av == bv)
            if not eq.all():
                close = np.isclose(av.fillna(np.nan), bv.fillna(np.nan), equal_nan=True)
                problems.append(
                    f"col {c}: {int((~eq).sum())} exact mismatches"
                    f" ({int((~close).sum())} beyond isclose)"
                )
        else:
            eqmask = (av.isna() & bv.isna()) | (av.astype("string") == bv.astype("string"))
            if not eqmask.all():
                i = int(np.argmax(~eqmask.to_numpy()))
                problems.append(
                    f"col {c}: {int((~eqmask).sum())} mismatches, first at {i}:"
                    f" ray={av.iloc[i]!r} oracle={bv.iloc[i]!r}"
                )
    return problems


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    selected = [name for name in qs if not only or name in only]
    failures = 0
    for name in selected:
        fn = qs[name]
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: ray query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in oracles:
            print(f"ok   {name}: rows={len(ray_df)} (no oracle; rows-only)")
            continue
        try:
            ora_df = con.execute(oracles[name]).fetchdf()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = compare(name, ray_df, ora_df)
        if problems:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(problems))
        else:
            print(f"ok   {name}: rows={len(ray_df)} match")
    ray.shutdown()
    n_oracle = sum(name in oracles for name in selected)
    print(f"{len(selected)} queries, {n_oracle} oracle-backed, "
          f"{len(selected) - n_oracle} rows-only, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
