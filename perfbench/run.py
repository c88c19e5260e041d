#!/usr/bin/env python3
"""Builds `psens`, `psens-server` and the benchmark from source, then runs
one workload and checks that its result line matches BENCHMARK.json.

    python3 perfbench/run.py --workload adult_100k --seed 17 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); scratch files and traces to `.bench_out`. The
last line of standard output is the result object. `--self-test` runs the
benchmark's unit tests and a tiny smoke run of every workload, traced and
untraced.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_out"


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    done = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: cargo {' '.join(args)} failed")


def build():
    """The programs under test, then the benchmark, both in release mode."""
    cargo("build", "--release", "--offline", "-p", "psens-cli", "-p", "psens-server")
    cargo("build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml"))
    return target_dir() / "release"


def host_info():
    """rustc version and the commit (or, outside git, a digest of the sources)."""
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if git.returncode == 0:
        commit = git.stdout.strip()
    else:
        digest = hashlib.sha256()
        files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
        for top in ("src", "crates"):
            files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
        for path in files:
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
        commit = "sources-sha256:" + digest.hexdigest()[:16]
    return rustc.stdout.strip() or "unknown", commit


def declared():
    """(end_to_end, per_layer) as {name: unit} from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer"))


def check_result(line, trace):
    """The result line's shape and metric set, against BENCHMARK.json."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    want = declared()[1 if trace else 0]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["correct"] and got != want:
        return f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    return None


def run(bin_dir, workload, seed, seconds, trace, smoke=False):
    rustc, commit = host_info()
    OUT.mkdir(exist_ok=True)
    cmd = [
        str(bin_dir / "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--bin-dir", str(bin_dir),
        "--out-dir", str(OUT),
        "--rustc", rustc,
        "--commit", commit,
    ]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    problem = check_result(lines[-1], trace) if lines else "no output"
    if problem:
        print(f"run.py: {problem}", file=sys.stderr)
        return 1
    return done.returncode


def self_test(bin_dir):
    cargo("test", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml"))
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in doc["workloads"]:
        for trace in (0, 1):
            code = run(bin_dir, workload["name"], 1, 3, trace, smoke=True)
            if code != 0:
                return code
    print("run.py: self-test passed", file=sys.stderr)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny table, for quick checks")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    bin_dir = build()
    if args.self_test:
        return self_test(bin_dir)
    return run(bin_dir, args.workload, args.seed, args.seconds, args.trace, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
