#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n> --seconds <s> --trace <0|1>]
    python3 perfbench/run.py --self-check

The first form builds `perfbench` (a package of its own in this
directory, linking the library crates by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`) and runs one workload. The binary prints a
human-readable table and, as its last line, the JSON result. Build
output goes to standard error, so the result stays the last line of
standard output; a failed build exits non-zero without a result.
`--workload all` runs the four workloads one after another, each
printing its own table and result line. `BENCHMARK.json` gates two of
them, `paper-cold` and `sweep-fixed`; README.md says why.

`--self-check` runs every workload at tiny sizes in both trace modes,
checks that each emits exactly the metrics BENCHMARK.json names with a
correct result, and checks that one sweep cell has the same fingerprint
at one and two worker threads.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["paper-cold", "sweep-fixed", "sweep-adaptive", "report-warm"]


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", "perfbench/Cargo.toml",
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"


def capture(cmd, **kw):
    """Stdout of `cmd`, stripped, or None when it cannot run or fails."""
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30, **kw
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_id():
    """The git commit, or a digest of the sources when not in git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    commit = capture(["git", "rev-parse", "HEAD"], env=env)
    if commit:
        return commit
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ["crates", "src", "vendor", "perfbench/src"]:
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "no-git sources-sha256:" + h.hexdigest()[:16]


def bench_args(args, workload):
    rustc = capture(["rustc", "--version"]) or "unknown"
    return [
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rustc", rustc,
        "--commit", source_id(),
    ]


def self_check(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [str(binary), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            problems = []
            if out.returncode != 0 or result is None:
                problems.append(f"exit {out.returncode}, no result: {out.stderr[-400:]}")
            else:
                got = set(result["metrics"])
                if got != want[trace]:
                    problems.append(
                        f"missing {sorted(want[trace] - got)}, extra {sorted(got - want[trace])}"
                    )
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"incorrect result {result}")
            verdict = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"self-check {workload} trace={trace}: {verdict}")
            ok = ok and not problems
    out = subprocess.run([str(binary), "--check-threads", "--seed", "1"],
                         cwd=ROOT, capture_output=True, text=True)
    print(out.stdout.strip())
    print(f"self-check threads 1 vs 2: {'ok' if out.returncode == 0 else 'FAIL'}")
    return ok and out.returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=2019)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    binary = build()
    if binary is None:
        return 1
    if args.self_check:
        return 0 if self_check(binary) else 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for workload in workloads:
        sys.stdout.flush()
        cmd = [str(binary)] + bench_args(args, workload)
        rc = subprocess.run(cmd, cwd=ROOT).returncode
        code = code or rc
    return code


if __name__ == "__main__":
    sys.exit(main())
