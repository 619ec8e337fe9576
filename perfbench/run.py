#!/usr/bin/env python3
"""Builds atpm-served and the benchmark client, then runs one benchmark run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Both binaries are built in release mode
into $CARGO_TARGET_DIR (default .bench_build); build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import os
import signal
import subprocess
import sys

# A run takes well under this; past it the run and its server are killed.
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "serve"))):
        sys.stderr.write("error: run from the repository root (no workspace with crates/serve here)\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "atpm-serve", "--bin", "atpm-served"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            sys.stderr.write("error: build failed: %s\n" % " ".join(cmd))
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "atpm-perfbench"), "--served", os.path.join(release, "atpm-served")] + sys.argv[1:]
    # Its own process group, so a timeout or a signal to this launcher also
    # stops the server it spawned.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("error: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
