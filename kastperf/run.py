#!/usr/bin/env python3
"""Builds kastio and the kastperf binary from source, then runs one
benchmark run in its place.

Run from the repository root:

    python3 kastperf/run.py --workload query-hot --seed 1 --seconds 20 --trace 0

Both builds share $CARGO_TARGET_DIR (default `.bench_build`). kastperf
writes its working files under `<target dir>/kastperf-work`. The last
line of stdout is the run's result object.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    manifest = os.path.join("kastperf", "Cargo.toml")
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates") and os.path.isfile(manifest)):
        sys.exit("kastperf: run from the root of a kastio checkout (needs Cargo.toml, crates/, kastperf/)")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for build in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "kastio"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
    ):
        # Build output goes to stderr: stdout carries only the run's report.
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("kastperf: build failed: " + " ".join(build))
    release = os.path.join(target, "release")
    kastperf = os.path.join(release, "kastperf")
    os.execv(kastperf, [kastperf, *sys.argv[1:],
                      "--kastio", os.path.join(release, "kastio"),
                      "--work", os.path.join(target, "kastperf-work")])


if __name__ == "__main__":
    main()
