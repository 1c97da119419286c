#!/usr/bin/env python3
"""Build the host-cost benchmark from source and run it.

Run from the repository root:

    python3 hostbench/run.py --workload native-burst --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary. The build and all of the
Go toolchain's caches stay inside the checkout, under $CARGO_TARGET_DIR
(default .bench_build). Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    home = os.path.join(build, "home")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    for d in (env["GOCACHE"], env["GOPATH"], env["GOTMPDIR"], home):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(build, "hostbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
        )
    except OSError as err:
        print(f"hostbench: cannot run the go toolchain: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
