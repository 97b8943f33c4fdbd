#!/usr/bin/env python3
"""Measures the benchmark's run-to-run noise, for setting and checking bounds.

    python3 bench/e2e/calibrate.py [--seeds 10] [--sets 2] [--workload NAME]
                                   [--out FILE]

Runs bench/e2e/run.py (--trace 0, --seconds from BENCHMARK.json) once per
workload, seed and set. Seeds are 1..N; the sets are interleaved seed by
seed, so a slow spell on a shared host hits every set alike. For each
end-to-end metric it reports, per set, the median, the quartiles from
statistics.quantiles(values, n=4), the distance between the quartiles and
the max-min range as shares of the median, and, from the second set on, how
much worse the set's median is than the first's. A spread or shift above the
metric's bound in BENCHMARK.json is flagged, and the exit code is 1. The
ungated tail, serve_p99_ms, is read from each run's JSON record and reported
the same way, without a bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).resolve().parent / "run.py"
TAIL = "serve_p99_ms"


def one_run(workload, seed, seconds, record):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0",
           "--json", str(record)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"calibrate: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values[TAIL] = json.loads(record.read_text())["workloads"][0][TAIL]
    return values


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / q2, "range_frac":
            (max(values) - min(values)) / q2}


def worse_by(first, later, better):
    """Share of `first` by which `later` is worse (negative when better)."""
    delta = later - first if better == "lower" else first - later
    return delta / first


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--workload", action="append")
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"] + [
        {"name": TAIL, "unit": "ms", "better": "lower", "bound": None}]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    host = None
    values = {w: [[] for _ in range(args.sets)] for w in workloads}
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        record = Path(tmp) / "run.json"
        for w in workloads:
            for seed in range(1, args.seeds + 1):
                for s in range(args.sets):
                    values[w][s].append(one_run(w, seed, seconds, record))
                    host = host or json.loads(record.read_text())["host"]
                    print(f"{w} seed {seed} set {s}: {values[w][s][-1]}",
                          file=sys.stderr, flush=True)

    doc = {"bench": "figret_e2e", "host": host, "seconds": seconds,
           "seeds": list(range(1, args.seeds + 1)), "sets": args.sets,
           "workloads": {}}
    flagged = 0
    for w in workloads:
        doc["workloads"][w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summary([r[name] for r in runs]) for runs in values[w]]
            entry = {"unit": m["unit"], "better": m["better"], "bound": bound,
                     "sets": sets}
            shifts = [worse_by(sets[0]["median"], s["median"], m["better"])
                      for s in sets[1:]]
            if shifts:
                entry["worse_by"] = shifts
            doc["workloads"][w][name] = entry
            spread_ok = bound is None or name == "setup_s" or all(
                s["iqr_frac"] <= bound for s in sets)
            shift_ok = bound is None or all(x <= bound for x in shifts)
            flagged += not (spread_ok and shift_ok)
            shown = "  none" if bound is None else f"{bound:6.3f}"
            print(f"{w:14s} {name:14s} bound {shown}  median "
                  f"{sets[0]['median']:.6g}  iqr " +
                  " ".join(f"{s['iqr_frac']:.4f}" for s in sets) +
                  "  range " +
                  " ".join(f"{s['range_frac']:.4f}" for s in sets) +
                  ("  worse_by " + " ".join(f"{x:+.4f}" for x in shifts)
                   if shifts else "") +
                  ("" if spread_ok and shift_ok else "  <-- over bound"))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
