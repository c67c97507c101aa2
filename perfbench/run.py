"""Cold-start benchmark for flatpart.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each repetition is a fresh interpreter
(perfbench/rep.py) that imports flatpart from src/, builds the
workload's inputs from the seed and runs the timed phase, so it starts
with cold caches like every `flatpart` command.  Repetitions follow one
another (one caller, closed loop) until the next one would end after
--seconds; the run reports medians over them.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The full record of the run, with the environment,
every repetition and the spans, is written to perfbench/out/.
--workload all runs every workload in turn and prints one summary.

Times are reported at a reference machine speed.  The shared host this
benchmark was built on switches between two speeds about 1.7 times
apart, for seconds to minutes at a stretch, which moved raw wall times
between runs by 30-40% of their median.  Each repetition therefore also
times slices of a fixed task that uses no flatpart code
(rep.calibration_slice): five before its timed phase, one every half
second during it, five after.  Each measured time is multiplied by the
speed around it, CALIBRATION_REFERENCE_S over the slice time (see
scale()).  A change to flatpart moves the scaled times as it moves raw
ones.  The records in perfbench/out/ keep the raw times as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("screen", "verify", "deep", "oracle")
REP_TIMEOUT_S = 170
# Seconds a calibration slice takes on the machine BENCH_0.json was
# recorded on (see its environment) in the faster of its two states.
CALIBRATION_REFERENCE_S = 0.01

UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
         "item_tail_ms": "ms", "peak_rss_mb": "MB"}
LAYER_UNITS = {"_s": "s", "_ratio": "ratio"}


class BenchError(Exception):
    pass


def rep_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_rep(workload: str, seed: int, traced: bool) -> dict:
    """One repetition in a fresh interpreter; setup_s runs from the
    moment the interpreter is started until the inputs are ready."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(int(traced))]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=rep_env(), capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        raise BenchError("repetition of %s failed (exit %d):\n%s"
                         % (workload, proc.returncode, proc.stderr.strip()))
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep.pop("ready") - started
    rep["elapsed_s"] = elapsed
    rep["traced"] = traced
    scale(rep)
    return rep


def scale(rep: dict):
    """Raw and reference-speed times of one repetition.

    The timed phase is cut at its calibration slices, whose own time is
    left out; each stretch between two slices runs at the mean of their
    speeds.  An interval's scaled time is the sum of its overlaps with
    the stretches, each at that stretch's speed; set-up runs at the mean
    speed of the slices before the phase."""
    phase = rep["phase_s"]
    cal = rep["calibration"]
    speed = [CALIBRATION_REFERENCE_S / d for _, d in cal]
    pre = sum(1 for at, _ in cal if at < 0)
    inner = [(at, d) for at, d in cal if 0 <= at < phase]
    edges = [0.0] + [x for at, d in inner for x in (at, at + d)] + [phase]
    stretches = [(edges[2 * j], edges[2 * j + 1],
                  (speed[pre - 1 + j] + speed[pre + j]) / 2)
                 for j in range(len(inner) + 1)]

    def measured(a, b):
        raw = scaled = 0.0
        for lo, hi, v in stretches:
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                raw += overlap
                scaled += overlap * v
        return raw, scaled

    rep["wall_s"], rep["scaled_wall_s"] = measured(0.0, phase)
    items = [measured(a, b) for a, b in rep.pop("items")]
    rep["items_s"] = [raw for raw, _ in items]
    rep["scaled_items_s"] = [scaled for _, scaled in items]
    rep["scaled_setup_s"] = rep["setup_s"] * statistics.fmean(speed[:pre])
    rep["factor"] = rep["scaled_wall_s"] / rep["wall_s"]


def prime():
    """Compile flatpart's bytecode and warm the file cache once, so the
    first repetition's set-up is not charged for it."""
    cmd = [sys.executable, "-c", "import numpy, flatpart"]
    proc = subprocess.run(cmd, cwd=ROOT, env=rep_env(), capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("cannot import flatpart from %s:\n%s"
                         % (SRC, proc.stderr.strip()))


def tail(items: list):
    """(value, percentile) at the highest whole percentile with at least
    ten items beyond it; with fewer than eleven items, the slowest item
    and percentile 100."""
    ranked = sorted(items)
    n = len(ranked)
    if n < 11:
        return ranked[-1], 100
    pct = 100 * (n - 10) // n
    return ranked[-(-n * pct // 100) - 1], pct


def fail_ratio(reps: list) -> float:
    """Failed correctness checks over checks attempted."""
    return sum(r["failed"] for r in reps) / sum(r["attempted"] for r in reps)


def end_to_end(reps: list) -> tuple:
    """Medians over repetitions, each time at the reference speed."""
    tails = [tail(r["scaled_items_s"]) for r in reps]
    metrics = {
        "setup_s": statistics.median(r["scaled_setup_s"] for r in reps),
        "wall_s": statistics.median(r["scaled_wall_s"] for r in reps),
        "item_p50_ms": 1e3 * statistics.median(
            statistics.median(r["scaled_items_s"]) for r in reps),
        "item_tail_ms": 1e3 * statistics.median(v for v, _ in tails),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    tail_note = {"percentile": tails[0][1], "items": len(reps[0]["items_s"])}
    return metrics, tail_note


def per_layer(plain: list, traced: list) -> dict:
    """Counts from the first traced repetition (they repeat exactly),
    times as medians over the traced repetitions at the reference speed."""
    metrics = {}
    for name, first in traced[0]["layers"].items():
        if name.endswith("_s"):
            metrics[name] = statistics.median(
                r["layers"][name] * r["factor"] for r in traced)
        else:
            metrics[name] = first
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["scaled_wall_s"] for r in traced)
        / statistics.median(r["scaled_wall_s"] for r in plain))
    return metrics


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions until the next would end after `seconds`; with trace,
    untraced and traced repetitions alternate, at least one of each."""
    prime()
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_rep(workload, seed, trace and len(reps) % 2 == 1))
        longest = max(r["elapsed_s"] for r in reps)
        enough = not trace or len(reps) >= 2
        if enough and time.monotonic() - start + longest > seconds:
            break
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics, tail_note = end_to_end(plain)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "environment": {
            "python": reps[0]["python"], "numpy": reps[0]["numpy"],
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "commit": git_commit()},
        "size": reps[0]["size"],
        "item_tail": tail_note,
        "repetitions": len(reps),
        "attempted": attempted, "failed": failed,
        "fail_ratio": fail_ratio(reps),
        "failures": sorted({f for r in reps for f in r["failures"]}),
        "end_to_end": metrics,
        "raw": {"setup_s": statistics.median(r["setup_s"] for r in plain),
                "wall_s": statistics.median(r["wall_s"] for r in plain)},
    }
    if trace:
        record["per_layer"] = per_layer(plain, traced)
    os.makedirs(OUT, exist_ok=True)
    name = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    with open(os.path.join(OUT, name + ".json"), "w") as fh:
        json.dump(dict(record, reps=[{k: v for k, v in r.items() if k != "spans"}
                                     for r in reps]), fh, indent=1)
    if trace:
        with open(os.path.join(OUT, name + ".spans.jsonl"), "w") as fh:
            for r in traced:
                for span in r["spans"]:
                    fh.write(json.dumps(span) + "\n")
    return record


def report_lines(rec: dict) -> list:
    env = rec["environment"]
    lines = ["%s seed %d: %d repetitions of %s; python %s, numpy %s, "
             "nproc %s, %s, commit %s"
             % (rec["workload"], rec["seed"], rec["repetitions"],
                json.dumps(rec["size"]), env["python"], env["numpy"],
                env["nproc"], env["cpu"], env["commit"])]
    for name, value in rec["end_to_end"].items():
        note = ""
        if name == "item_tail_ms":
            note = "  (p%(percentile)d of %(items)d items)" % rec["item_tail"]
        lines.append("  %-36s %12.4f %s%s" % (name, value, UNITS[name], note))
    lines.append("  %-36s %12.4f   (%d of %d checks failed)"
                 % ("fail_ratio", rec["fail_ratio"], rec["failed"],
                    rec["attempted"]))
    for name, value in rec.get("per_layer", {}).items():
        lines.append("  %-36s %12.4f %s" % (name, value, layer_unit(name)))
    for failure in rec["failures"]:
        lines.append("  FAILED: %s" % failure)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flatpart", "__init__.py")):
        print("no flatpart sources under %s" % SRC, file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for workload in workloads:
            records.append(measure(workload, args.seed, args.seconds,
                                   bool(args.trace)))
            print("\n".join(report_lines(records[-1])), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("benchmark run invalid: %s" % exc, file=sys.stderr)
        return 1

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for name, value in rec[key].items():
            unit = UNITS[name] if key == "end_to_end" else layer_unit(name)
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
