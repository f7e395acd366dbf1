#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload batch_closed|serve_open|stream_live \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
`perfbench` package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The traced run (--trace 1) also
writes its spans to <build dir>/trace-<workload>-<seed>.json.

Exit status: the benchmark's own (0 = every fix matched its reference),
or non-zero without a result when the sources are missing, the build
fails, or the run overruns its time limit.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
        return "none"
    result = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() if result.returncode == 0 else "none"


def build(root, build_dir):
    """Configure (once) and build the benchmark; exits on failure."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator
        if subprocess.run(configure, stdout=sys.stderr, check=False).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch_closed", "serve_open", "stream_live"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(root), "--source-digest", source_digest(root)]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
