"""Fold the run records in perfbench/out/ into one trajectory point.

    python3 perfbench/summarize.py perfbench/BENCH_1.json

For each workload: the median and quartiles over seeds of every
end-to-end metric from the untraced runs, their spread (quartile
distance over median), and the median of every per-layer metric over
the traced runs, with the environment the runs recorded.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from run import OUT, UNITS, WORKLOADS, layer_unit


def summarize(records: list) -> dict:
    point = {"environment": records[0]["environment"],
             "run_seconds": records[0]["seconds"], "workloads": {}}
    for workload in WORKLOADS:
        plain = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        if not plain:
            continue
        entry = {"seeds": sorted(r["seed"] for r in plain),
                 "size": plain[0]["size"], "item_tail": plain[0]["item_tail"],
                 "fail_ratio": sum(r["failed"] for r in plain)
                 / sum(r["attempted"] for r in plain),
                 "raw_wall_s": statistics.median(r["raw"]["wall_s"] for r in plain),
                 "end_to_end": {}, "per_layer": {}}
        for name, unit in UNITS.items():
            values = [r["end_to_end"][name] for r in plain]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (median, median, median))
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "unit": unit}
        for name in (traced[0]["per_layer"] if traced else ()):
            entry["per_layer"][name] = {
                "median": statistics.median(r["per_layer"][name] for r in traced),
                "unit": layer_unit(name), "seeds": [r["seed"] for r in traced]}
        point["workloads"][workload] = entry
    return point


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in sorted(glob.glob(os.path.join(OUT, "*-trace[01].json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        print("no run records in %s" % OUT, file=sys.stderr)
        return 1
    with open(argv[0], "w") as fh:
        json.dump(summarize(records), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
