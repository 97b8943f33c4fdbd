#!/usr/bin/env python3
"""Build figret_e2e from source and run it once.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --smoke [--build-dir DIR]

The benchmark is its own CMake project (bench/e2e/CMakeLists.txt) over the
repository's library sources. This script configures it into .bench_build/
at the repository root on first use, rebuilds it (a no-op when nothing
changed), runs the binary and checks its last output line against
BENCHMARK.json: the keys correct/attempted/failed/metrics, and exactly the
end-to-end metrics (--trace 0) or per-layer metrics (--trace 1) it names,
with their units. That line is printed last; when a correctness check failed
it says "correct": false and the exit code is 1. If the build, the run or
the output check fails, the script exits non-zero and prints no result line.

--smoke runs every workload once with short phases and a 1-epoch fit, in
traced mode, and checks that the JSON record of each workload holds every
metric BENCHMARK.json names and that every correctness check passed.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = Path(__file__).resolve().parent


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(SOURCE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs,
           "--target", "figret_e2e"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return build_dir / "figret_e2e"


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def expected_units(kind):
    return {m["name"]: m["unit"] for m in spec()[kind]}


def check_result(line, trace):
    """Validates the binary's last line; returns it parsed."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be a whole number")
    want = expected_units("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}, wrong unit {wrong}")
    return result


def run_once(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.json:
        cmd += ["--json", args.json]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    # Exit 1 means a correctness check failed: the result still stands,
    # with "correct": false. Anything else is a failed run.
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"figret_e2e exited with {proc.returncode}")
    check_result(lines[-1], args.trace == 1)
    print(lines[-1], flush=True)
    return proc.returncode


def smoke(binary):
    names = (expected_units("end_to_end").keys() |
             expected_units("per_layer").keys())
    workloads = [w["name"] for w in spec()["workloads"]]
    with tempfile.TemporaryDirectory(dir=binary.parent) as tmp:
        record = Path(tmp) / "smoke.json"
        cmd = [str(binary), "--workload", "all", "--quick", "--seconds", "1",
               "--trace", "1", "--json", str(record)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            raise RuntimeError(f"figret_e2e exited with {proc.returncode}")
        doc = json.loads(record.read_text())
    seen = {r["workload"]: r for r in doc["workloads"]}
    if sorted(seen) != sorted(workloads):
        raise ValueError(f"workloads {sorted(seen)} != {sorted(workloads)}")
    for name, r in seen.items():
        have = r["end_to_end"].keys() | r["per_layer"].keys()
        if names - have:
            raise ValueError(f"{name}: missing metrics {sorted(names - have)}")
        failed = [c["check"] for c in r["checks"]
                  if c["gate"] and not c["pass"]]
        if failed:
            raise ValueError(f"{name}: checks failed: {failed}")
    print("smoke: PASS")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="also write the full record to this file")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build")
    args = p.parse_args()
    if not args.smoke and not args.workload:
        p.error("--workload is required")
    try:
        binary = build(args.build_dir)
        if args.smoke:
            smoke(binary)
            return 0
        return run_once(binary, args)
    except (RuntimeError, ValueError, KeyError, TypeError, OSError) as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
