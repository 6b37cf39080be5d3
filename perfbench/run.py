#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs its workloads.

One run of one workload (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload once, each in its own process; prints every end-to-end
metric (per-layer with --trace 1) with its unit and exits 1 on any
correctness failure:
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

Steadiness evidence: K runs of one workload with seeds N..N+K-1; prints the
median, quartiles, min and max of every end-to-end metric:
    python3 perfbench/run.py --workload NAME --repeat K [--seed N]

The build goes to .bench_build/perfbench under the checkout root, and each
run's ledgers, profile cache and spans go to a scratch directory below it
that is removed when the run ends (--keep-spans FILE keeps the spans).
perfbench/NOTES.md defines the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_config():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path.name} at the checkout root")
    return json.loads(path.read_text())


def build():
    if not (ROOT / "src" / "sim" / "campaign.h").is_file():
        fail("no library sources under src/: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the measured sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in (".h", ".cpp", ".txt", ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def run_once(config, provenance, workload, seed, seconds, trace, keep_spans=None):
    """One workload in its own process; returns (stdout lines, result dict)."""
    rev, digest = provenance
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmp-root", str(BUILD / "tmp"), "--git-rev", rev, "--source-digest", digest]
    if keep_spans:
        cmd += ["--keep-spans", str(Path(keep_spans).resolve())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or "metrics" not in result:
        fail(f"{workload}: exited {proc.returncode} without a result")
    expected = [m["name"] for m in config["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        fail(f"{workload}: metrics {sorted(result['metrics'])} do not match "
             f"BENCHMARK.json {sorted(expected)}")
    if proc.returncode != 0 and result["correct"]:
        fail(f"{workload}: exited {proc.returncode}")
    return lines, result


def repeat_mode(config, args, provenance):
    bounds = {m["name"]: m for m in config["end_to_end"]}
    values = {name: [] for name in bounds}
    units = {}
    all_correct = True
    for i in range(args.repeat):
        seed = args.seed + i
        _, result = run_once(config, provenance, args.workload, seed, args.seconds, 0)
        all_correct = all_correct and result["correct"]
        for name, mv in result["metrics"].items():
            values[name].append(mv["value"])
            units[name] = mv["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                         for k, v in result["metrics"].items()),
              file=sys.stderr)
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}.."
          f"{args.seed + args.repeat - 1}")
    print(f"{'metric':<14}{'unit':<10}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'min':>14}{'max':>14}{'iqr/med':>9}{'bound':>7}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<14}{units[name]:<10}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{min(vals):>14.6g}{max(vals):>14.6g}{spread:>9.4f}"
              f"{bounds[name]['bound']:>7}")
    return 0 if all_correct else 1


def all_mode(config, args, provenance):
    trace = args.trace
    all_correct = True
    print(f"{'workload':<20}{'metric':<36}{'value':>16}  unit")
    for w in config["workloads"]:
        lines, result = run_once(config, provenance, w["name"], args.seed, args.seconds,
                                 trace)
        if len(lines) > 1:
            print(lines[0])  # the env line: compiler, build type, revision, nproc
        all_correct = all_correct and result["correct"]
        for name, mv in result["metrics"].items():
            print(f"{w['name']:<20}{name:<36}{mv['value']:>16.6g}  {mv['unit']}")
        print(f"{w['name']:<20}{'correct':<36}{str(result['correct']):>16}  "
              f"({result['failed']} of {result['attempted']} units failed)")
    return 0 if all_correct else 1


def main():
    config = load_config()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in config["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="runs of --workload for the steadiness table")
    ap.add_argument("--keep-spans", metavar="FILE",
                    help="write the traced pass's spans (JSONL) to FILE")
    args = ap.parse_args()
    if args.repeat and not args.workload:
        ap.error("--repeat needs --workload")
    if args.keep_spans and not args.workload:
        ap.error("--keep-spans needs --workload")

    build()
    provenance = (git_rev(), source_digest())
    if args.repeat:
        return repeat_mode(config, args, provenance)
    if not args.workload:
        return all_mode(config, args, provenance)
    lines, result = run_once(config, provenance, args.workload, args.seed, args.seconds,
                             args.trace, args.keep_spans)
    print("\n".join(lines))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
