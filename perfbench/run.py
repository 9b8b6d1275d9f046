#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 10 --trace 0

builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR when
set, else perfbench/target) and runs it with the same arguments. The last
line of standard output is the run's JSON result. Traced runs write their
spans to perfbench/traces/<workload>.csv.

Steadiness mode:

    python3 perfbench/run.py --steady [--runs 10] [--workloads a,b]
                             [--seconds S] [--trace 0] [--first-seed 1]

runs each workload --runs times (each run --seconds long, by default
BENCHMARK.json's run_seconds), each with another seed, and prints for
every metric its median, first and third quartile
(`statistics.quantiles(values, n=4)`), the quartile spread as a share of
the median, and the metric's bound from BENCHMARK.json. A spread is
steady when it is below a third of the bound (setup_s has no spread
check; its medians are compared across run sets instead).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; the benchmark stops its child before that.
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark and return the executable's path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {proc.returncode})")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "perfbench":
                exe = msg["executable"]
    if exe is None:
        sys.exit("perfbench: build produced no perfbench executable")
    return exe


def run(exe, workload, seed, seconds, trace, capture):
    """Run one workload; return (exit code, last stdout line or None)."""
    args = [
        exe, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--trace-dir", str(HERE / "traces"),
    ]
    child = subprocess.Popen(args, stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    last = out.strip().splitlines()[-1] if capture and out and out.strip() else None
    return child.returncode, last


def steady(exe, opts):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["per_layer"] if opts.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    seconds = opts.seconds or bench["run_seconds"]
    worst = 0.0
    for w in workloads:
        values = {}
        for i in range(opts.runs):
            seed = opts.first_seed + i
            code, last = run(exe, w, seed, seconds, opts.trace, capture=True)
            if code != 0 or last is None:
                sys.exit(f"perfbench: {w} seed {seed} failed (exit {code})")
            result = json.loads(last)
            print(f"# {w} seed {seed}: {last}", file=sys.stderr)
            if not result["correct"] or result["failed"]:
                sys.exit(f"perfbench: {w} seed {seed} reported failures")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {opts.runs} runs of {seconds} s")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}  steady")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            if bound is None:
                verdict = "-"
            elif name == "setup_s":
                verdict = "(median only)"
            else:
                ok = spread < bound / 3
                worst = max(worst, spread / bound)
                verdict = "yes" if ok else "NO"
            b = f"{bound:.0%}" if bound is not None else "-"
            print(f"  {name:<30} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%} {b:>7}  {verdict}")
    if bounds and any(v is not None for v in bounds.values()):
        print(f"\nworst spread / bound: {worst:.2f} (steady below 0.33)")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--first-seed", type=int, default=1)
    opts = p.parse_args()
    if not opts.steady and not opts.workload:
        p.error("--workload is required")
    exe = build()
    if opts.steady:
        steady(exe, opts)
        return
    code, _ = run(exe, opts.workload, opts.seed, opts.seconds or 10, opts.trace, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    os.environ.setdefault("RUST_BACKTRACE", "0")
    main()
