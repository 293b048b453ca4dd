#!/usr/bin/env python3
"""Build the replay benchmark from source and run it.

Run from the repository root:

    python3 replaybench/run.py --workload mooncake --seed 2026 \
        --seconds 10 --trace 0

replay_bench is compiled with CMake into the directory named by
CARGO_TARGET_DIR (default: .bench_build), then run with the same
arguments. Its last stdout line is the result JSON. `--workload all`
runs every workload untraced and traced, printing every end-to-end and
per-layer metric.
"""

import os
import subprocess
import sys

WORKLOADS = ["mooncake", "agentic_prefix", "overload_dp8"]


def fail(msg):
    print(f"replaybench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "engine", "router.h")):
        fail("simulator sources (src/) not found next to replaybench/")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out):
        out = os.path.join(root, out)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", os.path.join(root, "replaybench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "replay_bench"],
    ):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "replay_bench")


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    i = argv.index("--workload") if "--workload" in argv else -1
    if 0 <= i < len(argv) - 1 and argv[i + 1] == "all":
        rest = argv[:i] + argv[i + 2:]
        if "--trace" in rest:
            fail("--workload all runs both --trace 0 and --trace 1")
        code = 0
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                print(f"== {workload} --trace {trace}", flush=True)
                code |= subprocess.run(
                    [binary, "--workload", workload, "--trace", trace] + rest
                ).returncode
        return code
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
