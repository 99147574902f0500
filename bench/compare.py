"""Compare two sets of benchmark results.

Usage, from the repository root:

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines that ``bench/run.py --out`` appends, one
per run. The command prints one row per workload and metric: each side's
median and quartiles over its runs, the change of the medians, and a
verdict for the end-to-end metrics, using the bounds in BENCHMARK.json:

- ``worse``: the new median is worse than the base median by more than
  the bound;
- ``unresolved``: either side's spread between quartiles, as a share of
  its median, is wider than the bound, and not every new run reads better
  than every base run;
- ``within bound``: otherwise.

The failure share (failed over attempted operations) gets a row per
workload; a higher mean share is ``worse``. Per-layer metrics have no bound
and print their change only; against a base median of 0 the change is
absolute. Runs of different ``--seconds`` are not compared: the command
exits 2 when the two files mix them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = summary(base)
    n1, nm, n3 = summary(new)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = sign * (nm - bm) / abs(bm) if bm else 0.0
    return "worse" if worse_by > bound else "within bound"


def values_by_key(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for rec in records:
        wl = rec["workload"]
        result = rec["result"]
        for name, metric in result["metrics"].items():
            if metric["value"] is not None:
                out[(wl, name)].append(metric["value"])
        if rec["trace"] == 0:
            out[(wl, "fail_frac")].append(result["failed"] / result["attempted"])
    return out


def _fmt(values: list[float]) -> str:
    if not values:
        return "-"
    q1, med, q3 = summary(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result files.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = [(m, True) for m in spec["end_to_end"]] + [(m, False) for m in spec["per_layer"]]
    base_records, new_records = load(args.base), load(args.new)
    seconds = {rec["seconds"] for rec in base_records + new_records if rec["trace"] == 0}
    if len(seconds) > 1:
        print(f"error: the results mix runs of --seconds {sorted(seconds)}", file=sys.stderr)
        return 2
    base, new = values_by_key(base_records), values_by_key(new_records)
    workloads = sorted({wl for wl, _ in base} | {wl for wl, _ in new})
    print("workload\tmetric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\tchange\tverdict")
    worse = 0
    for wl in workloads:
        rows = [(m["name"], m["unit"], m["better"], m.get("bound"), e2e) for m, e2e in metrics]
        rows.insert(len(spec["end_to_end"]), ("fail_frac", "ratio", "lower", 0.0, True))
        for name, unit, better, bound, e2e in rows:
            b, n = base.get((wl, name), []), new.get((wl, name), [])
            if not b and not n:
                continue
            change = "-"
            if b and n:
                bm, nm = summary(b)[1], summary(n)[1]
                change = f"{(nm - bm) / abs(bm):+.2%}" if bm else f"{nm - bm:+.6g} abs"
            if not e2e:
                mark = "no bound"
            elif not b or not n:
                mark = "missing"
            elif name == "fail_frac":
                mark = "worse" if statistics.fmean(n) > statistics.fmean(b) else "within bound"
            else:
                mark = verdict(b, n, better, bound)
            worse += mark == "worse"
            print(f"{wl}\t{name}\t{unit}\t{_fmt(b)}\t{_fmt(n)}\t{change}\t{mark}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
