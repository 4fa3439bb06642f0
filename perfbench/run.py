#!/usr/bin/env python3
"""Build the benchmark and servd from this checkout, then run one workload.

    python3 perfbench/run.py --workload sweep-model --seed 1 --seconds 15 --trace 0

Run it from the repository root. The Go build cache, temporary files,
binaries, result stores and span files all live under .bench_build/ in the
checkout, so nothing is read from or written to the rest of the machine
except the Go toolchain itself. Build output goes to stderr; the last line
of stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    bin_dir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    for d in (bin_dir, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    # The benchmark module sits beside the code under test and imports it
    # through a replace directive, so both binaries build from this tree.
    for pkg, name in ((".", "perfbench"), ("repro/cmd/servd", "servd")):
        cmd = ["go", "build", "-o", os.path.join(bin_dir, name), pkg]
        done = subprocess.run(cmd, cwd=os.path.join(root, "perfbench"), env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build of %s failed" % pkg, file=sys.stderr)
            return done.returncode or 1
    argv = [os.path.join(bin_dir, "perfbench"), "--bin", bin_dir, "--work", os.path.join(build, "work")]
    os.chdir(root)
    os.execve(argv[0], argv + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
