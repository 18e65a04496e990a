#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

It builds perfbench/main.exe with dune (into ./_build, dune's shared
cache off), runs it, and relays its output. The last line of standard
output is the result object; the line before it is the detail object,
to which this script adds a provenance block: CPU count and model, the
OCaml version, the git revision when there is one, a digest of the
sources, and every LLM4FP_* variable in the environment (the benchmark
never applies them, so they cannot change what it measures).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("campaign", "tables", "archive")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("lib", "bin", "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_head():
    if not os.path.exists(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the path and bytes of every source file, so a run
    names the code it measured even in a checkout without git."""
    h = hashlib.sha256()
    files = ["dune-project"]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def provenance():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_head": git_head(),
        "source_sha256": source_digest(),
        "llm4fp_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("LLM4FP_")},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20250704)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                            "./perfbench/main.exe"], env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    if run.returncode != 0 or len(lines) < 2:
        sys.stderr.write(run.stdout)
        print(f"perfbench: benchmark exited with {run.returncode}",
              file=sys.stderr)
        return run.returncode or 1

    detail = json.loads(lines[-2])
    result = json.loads(lines[-1])
    detail["detail"]["provenance"] = provenance()
    for line in lines[:-2]:
        print(line)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
