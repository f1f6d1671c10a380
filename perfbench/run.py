#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go build cache, temporary files and the binary stay under
.bench_build/ in the repository root, so nothing outside the checkout is
read for configuration or written. The binary's output and exit code are
passed through unchanged.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))
            and os.path.isdir(bench)):
        print("run.py: run from the repository root: the simulator sources "
              "(go.mod, internal/) or perfbench/ are missing", file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in [("HOME", "home"), ("XDG_CACHE_HOME", "cache"),
                     ("XDG_CONFIG_HOME", "config"), ("GOCACHE", "gocache"),
                     ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod")]:
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    # Build offline with the installed toolchain only.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off",
               GOENV="off", GOTELEMETRY="off", CGO_ENABLED="0")
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench,
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
