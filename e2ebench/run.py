#!/usr/bin/env python3
"""Builds the benchmark and the ccal-certd daemon, then runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload <inproc-cold|certd-hit> \
        --seed N --seconds S --trace <0|1>

Both builds are release builds into CARGO_TARGET_DIR (default
.bench_build). The workload runs in a process of its own, whose last line
of standard output is the result object. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def build(args, env):
    """Runs one cargo build, with its chatter on standard error."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", *args],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(f"run.py: cargo build {' '.join(args)} failed\n")
        sys.exit(2)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    # Serial exploration everywhere; the benchmark also sets it for the daemon.
    env["CCAL_WORKERS"] = "1"
    build(["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "ccal-certd",
           "--bin", "ccal-certd"], env)
    build(["--manifest-path", os.path.join(here, "Cargo.toml")], env)
    release = os.path.join(target, "release")
    bench = os.path.join(release, "ccal-e2ebench")
    argv = [bench, *sys.argv[1:],
            "--certd", os.path.join(release, "ccal-certd"),
            # Relative, so unix socket paths stay short wherever the checkout is.
            "--work-dir", ".bench_work"]
    # One CPU for the benchmark and every process it starts: the certd
    # workload hands each request between two processes, and cross-CPU
    # wake-ups on a shared host are the largest source of run-to-run noise.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.chdir(root)
    os.execve(bench, argv, env)


if __name__ == "__main__":
    main()
